"""Acceptance criteria, one test per criterion, tolerances pinned.

Exact criteria compare RadicalSum/Fraction values structurally (zero
tolerance); the two floating criteria use the stated 1e-12. Each test prints
one PASS line; run with -s (or look at captured output) for the summary.
"""
import random
import time
from fractions import Fraction

import pytest

import oracles
from oracles import b_coeff_3f2, b_coeff_regge, b_squared_asymptotic
from rungelenz.basis import (
    ParabolicLabel,
    b_coeff,
    b_matrix,
    spherical_ls,
    to_parabolic,
    to_spherical,
    unit_parabolic,
)
from rungelenz.diamagnetic import h1_matrix, h2_matrix, h2_symmetry_report
from rungelenz.radical import RadicalSum
from rungelenz import basis, sumrules
from rungelenz.stark import c_coefficient, closed_form_report, p_bar, p_transition
from rungelenz.sumrules import az_moment_generic, sum_rule_az, sum_rule_l2


def note(label: str, text: str) -> None:
    print(f"ACCEPTANCE {label}: PASS - {text}")


def admissible(n_max):
    for n in range(1, n_max + 1):
        for m in range(-(n - 1), n):
            upper = n - abs(m) - 1
            for n1 in range(upper + 1):
                yield ParabolicLabel(n1, upper - n1, m)


@pytest.fixture(scope="module")
def sweep12():
    """Criterion-2 sweep, reused by criterion 10: all reports plus wall time."""
    reports = []
    start = time.perf_counter()
    for p in admissible(12):
        reports.append(sum_rule_l2(p))
        for power in (2, 3, 4):
            reports.append(sum_rule_az(p, power))
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_1_table1_reproduction():
    p = ParabolicLabel(3, 1, 4)
    start = time.perf_counter()
    values = [sum_rule_l2(p).lhs] + [sum_rule_az(p, k).lhs for k in (2, 3, 4)]
    elapsed = time.perf_counter() - start
    want = [RadicalSum.from_rational(v) for v in (46, 4, 8, 16)]
    assert values == want
    assert elapsed < 1.0
    note("1", f"table-1 sums = 46, 4, 8, 16 exactly in {elapsed:.3f}s")


def test_criterion_2_sum_rule_sweep(sweep12):
    reports, elapsed = sweep12
    bad = [r for r in reports if not r.ok]
    assert bad == []
    assert elapsed < 120.0
    note("2", f"{len(reports)} rule evaluations over n <= 12 all exact "
              f"in {elapsed:.1f}s single-threaded")


def test_criterion_3_generic_moment_oracle():
    checked = 0
    for p in admissible(10):
        for power in range(0, 7):
            r = az_moment_generic(p, power)
            assert r.ok, (p, power)
            checked += 1
    note("3", f"A_z^p moments match (n1-n2)^p exactly for p <= 6, n <= 10 "
              f"({checked} checks)")


def test_criterion_4_basis_integrity():
    # orthogonality and completeness, n <= 15
    for n in range(1, 16):
        for m in range(-(n - 1), n):
            B = b_matrix(n, m)
            dim = n - abs(m)
            for a in range(dim):
                for b in range(a, dim):
                    acc = RadicalSum.zero()
                    for c in range(dim):
                        acc = acc + B[a][c] * B[b][c]
                    assert acc == RadicalSum.from_rational(1 if a == b else 0)
    # route agreement, n <= 12: Regge exactly, hypergeometric in square
    pairs = 0
    for n in range(1, 13):
        for m in range(0, n):
            upper = n - m - 1
            for n1 in range(upper + 1):
                p = ParabolicLabel(n1, upper - n1, m)
                for l in spherical_ls(n, m):
                    direct = b_coeff(p, l)
                    assert b_coeff_regge(p, l) == direct
                    hyper = b_coeff_3f2(p, l)
                    assert hyper * hyper == direct * direct
                    pairs += 1
    for n in range(1, 13):
        for m in range(-(n - 1), 0):
            upper = n - abs(m) - 1
            for n1 in range(upper + 1):
                p = ParabolicLabel(n1, upper - n1, m)
                for l in spherical_ls(n, m):
                    assert b_coeff_regge(p, l) == b_coeff(p, l)
    note("4", f"B orthogonality/completeness exact to n = 15; Regge and "
              f"hypergeometric routes agree ({pairs} squared comparisons)")


def test_criterion_5_intertwining():
    for p in admissible(12):
        state = unit_parabolic(p)
        image = to_parabolic(oracles.az_apply(to_spherical(state)))
        want = tuple(c * Fraction(p.q) for c in state.coeffs)
        assert image.coeffs == want, p
    note("5", "A_z conjugated by the basis change is multiplication by q, "
              "exact to n = 12")


def test_criterion_6_stark_closed_forms():
    for n in range(2, 21):
        for lp in range(n):
            assert p_bar(n, 0, lp) == Fraction(1, n)
    # p_bar itself enforces 6j == double-sum; run it over n <= 15
    for n in range(2, 16):
        for l in range(n):
            for lp in range(n):
                p_bar(n, l, lp)
    # documented-discrepancy criterion: the printed initial-l=1 closed form
    # is compared and the verdict recorded, whatever it is
    verdicts = {}
    for n in (3, 5, 8):
        for rec in closed_form_report(n, 1):
            assert Fraction(rec["printed"]) == Fraction(rec["printed"])
            assert (rec["verdict"] == "exact-match") == \
                (Fraction(rec["printed"]) == Fraction(rec["oracle"]))
            verdicts[rec["verdict"]] = verdicts.get(rec["verdict"], 0) + 1
    assert verdicts.get("mismatch", 0) > 0  # the misprint is real and recorded
    note("6", f"P-bar(0, l') = 1/n exact to n = 20; 6j and double-sum routes "
              f"agree to n = 15; printed initial-l=1 form verdicts recorded: "
              f"{verdicts}")


def test_criterion_7_unitarity():
    rng = random.Random(20240915)
    worst_row = 0.0
    for n in range(2, 11):
        for _ in range(20):
            chi = rng.uniform(0.0, 25.0)
            for l in range(n):
                row = sum(p_transition(n, l, lp, chi) for lp in range(n))
                worst_row = max(worst_row, abs(row - 1.0))
    assert worst_row < 1e-12
    note("7", f"P rows sum to 1 within 1e-12 for n <= 10 over 20 random chi "
              f"(worst {worst_row:.2e}); spectral and factored C routes "
              f"agree within 1e-12 (checked inside every call)")


def test_criterion_8_diamagnetic_dual_form():
    for n in range(1, 11):
        for m in range(-(n - 1), n):
            h1_matrix(n, m)  # raises unless generator == invariant form
    failing = []
    for n in range(1, 11):
        for m in range(-(n - 1), n):
            report = h2_symmetry_report(n, m)
            if report:
                failing.append(((n, m), report))
            else:
                assert h2_matrix(n, m).is_symmetric()
    assert failing == [], f"H2 symmetry failures (reported monomials): {failing}"
    note("8", "H1 generator form equals invariant form exactly to n = 10; "
              "the verbatim H2 encoding is symmetric (no monomials to report)")


def test_criterion_9_asymptotic_large_n():
    # The m = 0 approximation (2l+1)/n exp(-l(l+1)/n) describes the extremal
    # q = n-1 state: its exact B^2 is the meaningful reference, and the
    # relative error falls monotonically across n = 50, 100, 200.
    # (B's block needs (2n-1)!, so n = 200 takes the Regge-partner 3jm.)
    for l in (1, 2, 3):
        errors = []
        for n in (50, 100, 200):
            p = ParabolicLabel(n - 1, 0, 0)
            (d, c), = b_coeff_regge(p, l).terms()
            exact = float(c * c * d)
            approx = b_squared_asymptotic(n, l)
            errors.append(abs(approx - exact) / exact)
        assert errors[0] > errors[1] > errors[2], (l, errors)
    # The literal q-averaged reference is degenerate: column orthogonality
    # makes mean_q B^2(l) exactly 1/n for every l, which the (2l+1) factor
    # can never track; we verify the degeneracy exactly rather than assert a
    # monotonicity the algebra forbids.
    n = 50
    for l in (0, 1, 2, 3):
        total = Fraction(0)
        for n1 in range(n):
            value = b_coeff(ParabolicLabel(n1, n - 1 - n1, 0), l)
            (d, c), = value.terms()
            total += c * c * d
        assert total == 1
    note("9", "asymptotic error vs the exact extremal-state B^2 decreases "
              "monotonically over n = 50, 100, 200 for l = 1..3; the "
              "q-averaged B^2 is exactly 1/n for every l (degenerate "
              "reference, verified)")


def test_criterion_10_radical_collapse(sweep12):
    # The canonical LHS is rational by construction (the gauge runs over Q),
    # so the collapse is checked where radicals still meet: each term of the
    # printed A_z^3 and A_z^4 forms multiplies a bare-3jm pair T(l) T(l') by
    # its weight and beta chain. Many pairs a label weights are irrational;
    # the printed LHS must still come out rational (and equal its RHS).
    reports, _ = sweep12
    irrational_pairs = 0
    for r in reports:
        assert r.lhs.is_rational, r
        if r.rule not in ("az3", "az4"):
            continue
        assert r.printed_lhs is not None and r.printed_lhs.is_rational, r
        assert r.printed_verdict == "exact-match", r
        blk, am, q = basis.b_block(r.n, r.m), abs(r.m), r.n1 - r.n2
        rho = [Fraction(x, blk.rho_den[r.n1]) for x in blk.rho_num[r.n1]]
        for i, j, *_ in sumrules._printed_terms(r.n, r.m, r.power)[0]:
            if rho[i] and rho[j]:
                pair = (c_coefficient(r.n, q, i + am, r.m)
                        * c_coefficient(r.n, q, j + am, r.m))
                irrational_pairs += not pair.is_rational
    assert irrational_pairs > 0
    note("10", f"all {len(reports)} sum-rule left-hand sides are rational; the "
               f"printed A_z^3 and A_z^4 forms weight {irrational_pairs} "
               f"irrational 3jm pairs and still collapse to their rational RHS")
