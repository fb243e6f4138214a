"""Byte-identical library output: sha256 digests of exact and float tables,
pinned from a known-good build. A digest changes only when the output
contract changes; never re-record one to make a refactor pass."""
import hashlib
import json
import math
from itertools import product

import pytest

from oracles import B_SPECIAL_CASES, b_coeff_3f2, b_special
from rungelenz.basis import ParabolicLabel
from rungelenz.diamagnetic import h1_matrix, h2_matrix, h2_symmetry_report
from rungelenz.errors import DomainError
from rungelenz.operators import az_power_matrix
from rungelenz.radical import render_exact
from rungelenz.stark import p_bar_6j_terms, p_table, pbar_table
from rungelenz.wigner import _sixj_twice, _threejm_twice


def sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def pbar_texts():
    for n in range(1, 17):
        table = pbar_table(n)
        yield table.to_json()
        yield table.to_csv()


def sixj_terms_texts():
    """Every p_bar_6j_terms(n, l, l') with n <= 16, zero terms included."""
    for n in range(1, 17):
        for l in range(n):
            for lp in range(n):
                terms = p_bar_6j_terms(n, l, lp)
                yield f"{n} {l} {lp} " + " ".join(
                    f"{j}:{render_exact(v)}" for j, v in terms.items())


def p_table_texts(chi):
    for n in range(1, 21):
        yield p_table(n, chi).to_json()


def threejm_texts():
    """Every 3jm with twice-j <= 8 and m's of matching parity, zeros included."""
    for tj1 in range(9):
        for tj2 in range(9):
            for tj3 in range(9):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        tm3 = -tm1 - tm2
                        if abs(tm3) <= tj3 and (tj3 + tm3) % 2 == 0:
                            t = (tj1, tj2, tj3, tm1, tm2, tm3)
                            yield f"{t} {render_exact(_threejm_twice(*t))}"


def sixj_texts():
    """Every 6j with twice-arguments <= 6, zeros included."""
    for t in product(range(7), repeat=6):
        yield f"{t} {render_exact(_sixj_twice(*t))}"


def _labels(n_max):
    for n in range(1, n_max + 1):
        for m in range(n):
            upper = n - m - 1
            for n1 in range(upper + 1):
                yield ParabolicLabel(n1, upper - n1, m)


def b_3f2_texts():
    for p in _labels(10):
        for l in range(p.m, p.n):
            yield f"{p} {l} {render_exact(b_coeff_3f2(p, l))}"


def b_special_texts():
    for p in _labels(10):
        for which in B_SPECIAL_CASES:
            try:
                value = render_exact(b_special(p, which))
            except DomainError:
                value = "DomainError"
            yield f"{p} {which} {value}"


def _blocks(n_max):
    for n in range(1, n_max + 1):
        for m in range(-(n - 1), n):
            yield n, m


def az_power_texts():
    """Every az_power_matrix(n, m, k) with n <= 12 and k <= 8, rows split by |."""
    for n, m in _blocks(12):
        for k in range(9):
            yield f"{n} {m} {k} " + " | ".join(
                " ".join(map(render_exact, row)) for row in az_power_matrix(n, m, k))


def diamagnetic_texts(build):
    for n, m in _blocks(10):
        yield build(n, m).to_json()


def h2_report_texts():
    for n, m in _blocks(6):
        yield f"{n} {m} {json.dumps(h2_symmetry_report(n, m))}"


PBAR_SHA256 = "2b5808380f890f8e2131023d5dca4270430ce8f3a82e42fb86ceeaaa4c67355c"
P_TABLE_SHA256 = {
    0.7: "1f9836e1361acbbea4940bc7776fb3bca859b018a5871d6f2343f7f750c87099",
    math.pi: "dda06285f40c8f52cf77bc28fc32124d721a0e080f6639c129bb1d84c9816c39",
    -11.2: "87351d7df0ca2b037a9d8331519e92cb7a99aa2202a4c49474f403836d9a0ed3",
}
# p_bar_6j_terms for n <= 16, and p_table(n, chi) for n <= 20
SIXJ_TERMS_SHA256 = "a610c87939b5a19405abda15e0fe4a08663607e3236c7c875b9bb463f1df5979"
P_TABLES_SHA256 = {
    0.7: "743d3b99f5843c96e65778b65bafd47f65a4f1a5ebe4a0e583fcdadee704e138",
    1000.0: "abe76584f2896e8b3ca323ad1ab42cb96ec5fa8a944b18f78606f66cb2f316ac",
}
THREEJM_SHA256 = "56c43c9434653c9f82637cadfb36df0defd12d34a16ba99c37201fc95d1abd1e"
SIXJ_SHA256 = "08563685daed4ec024eb91943712af6332107dd35347dd6744f3fd9b21e16efa"
B_3F2_SHA256 = "708fee9a1421d6032ef2e07d102fe09636803628eea0705435070edb7e971cf2"
B_SPECIAL_SHA256 = "bda97dbf1a9634b96c35d073dce8b63857e437d4fa050b06e7b70a9509aa4335"

AZ_POWER_SHA256 = "73d0c0cfa2aaed4cc1e0e567185080b5b2bc15750982e2a1fea1ce012c18d4be"
H1_MATRIX_SHA256 = "ae9f8dc331cc97d2412b3a468569a9db21622c1751515593a0381e47b0ea9843"
H2_MATRIX_SHA256 = "a7dac71777ef79b7dcaf785bb44c8fec9ad4981f35fb158b1ca762d73b455ba6"
H2_REPORT_SHA256 = "2b159274e98c617bd1032028e47e13c9fd7ae1fba0529d2f66f30b9bf818ff2b"


class TestGoldenValues:
    def test_pbar_tables(self):
        assert sha256(pbar_texts()) == PBAR_SHA256

    @pytest.mark.parametrize("chi", sorted(P_TABLE_SHA256))
    def test_p_table(self, chi):
        assert sha256([p_table(16, chi).to_json()]) == P_TABLE_SHA256[chi]

    def test_p_bar_6j_terms(self):
        assert sha256(sixj_terms_texts()) == SIXJ_TERMS_SHA256

    @pytest.mark.parametrize("chi", sorted(P_TABLES_SHA256))
    def test_p_tables_up_to_20(self, chi):
        assert sha256(p_table_texts(chi)) == P_TABLES_SHA256[chi]

    def test_threejm(self):
        assert sha256(threejm_texts()) == THREEJM_SHA256

    def test_sixj(self):
        assert sha256(sixj_texts()) == SIXJ_SHA256

    def test_b_coeff_3f2(self):
        assert sha256(b_3f2_texts()) == B_3F2_SHA256

    def test_b_special(self):
        assert sha256(b_special_texts()) == B_SPECIAL_SHA256

    def test_az_power_matrices(self):
        assert sha256(az_power_texts()) == AZ_POWER_SHA256

    def test_h1_matrices(self):
        assert sha256(diamagnetic_texts(h1_matrix)) == H1_MATRIX_SHA256

    def test_h2_matrices(self):
        assert sha256(diamagnetic_texts(h2_matrix)) == H2_MATRIX_SHA256

    def test_h2_symmetry_reports(self):
        assert sha256(h2_report_texts()) == H2_REPORT_SHA256
