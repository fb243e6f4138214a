"""Stark transfer probabilities: exact P-bar, floating P, closed forms, tables."""
import csv
import io
import json
import math
import random
from fractions import Fraction

import pytest

import oracles
from oracles import sign_square
from rungelenz import basis, pfrational, stark, wigner
from rungelenz.errors import DomainError, FactorialLimitError, InternalConsistencyError
from rungelenz.pfrational import FactorialTable
from rungelenz.radical import parse_exact
from rungelenz.stark import (
    TransitionTable,
    c_coefficient,
    chi_from_time,
    closed_form_report,
    p_bar,
    p_bar_6j_terms,
    p_bar_closed,
    p_table,
    p_transition,
    pbar_table,
)


class TestCCoefficient:
    def test_frozen_two_level_value(self):
        assert sign_square(c_coefficient(2, 1, 1, 0)) == (1, Fraction(1, 6))

    def test_parity_violation_is_zero(self):
        # q must keep the parity of n - 1 - |m|
        assert c_coefficient(3, 1, 1, 0).is_zero

    def test_out_of_range_gives_zero_never_raises(self):
        assert c_coefficient(3, 8, 1, 0).is_zero
        assert c_coefficient(3, 0, 2, 5).is_zero

    def test_row_orthogonality(self):
        # sum_q (2l+1) C^2(q l m) = 1 for fixed (l, m)
        for n in (3, 5, 8):
            for m in range(-(n - 1), n):
                for l in range(abs(m), n):
                    total = Fraction(0)
                    upper = n - abs(m) - 1
                    for q in range(-upper, upper + 1, 2):
                        total += sign_square(c_coefficient(n, q, l, m))[1]
                    assert total * (2 * l + 1) == 1

    def test_equals_the_3jm_kernel(self):
        # int arguments outside the block included: lenient zeros, never
        # raising; n = 0 has no manifold (test_argument_types_rejected)
        for n in range(1, 9):
            for q in range(-n, n + 1):
                for l in range(-1, n + 1):
                    for m in range(-n, n + 1):
                        want = wigner._threejm_twice(n - 1, n - 1, 2 * l,
                                                     m - q, m + q, -2 * m)
                        assert c_coefficient(n, q, l, m) == want, (n, q, l, m)

    @pytest.mark.parametrize("args", [
        (3, 0.0, 1, 0), (3, 0, 1.0, 0), (3, 0, 1, 0.0), (3, True, 1, 0),
        (3, 0, True, 0), (3, 1, 1, False), (2.0, 0, 1, 0), (2.0, 1, 1, 0),
        (True, 1, 1, 0), (0, 0, 0, 0), (-2, 0, 0, 0), ("3", 0, 1, 0),
    ])
    def test_argument_types_rejected(self, args):
        with pytest.raises(DomainError):
            c_coefficient(*args)

    def test_square_relates_to_b(self):
        # C^2 = B^2 / (2l+1)
        for (n, n1, n2, m, l) in ((5, 2, 1, 1, 3), (4, 1, 2, 0, 2)):
            q = n1 - n2
            csq = sign_square(c_coefficient(n, q, l, m))[1]
            bsq = oracles.b_sq(n, n1, n2, m, l)[1]
            assert csq * (2 * l + 1) == bsq


class TestPBar:
    @pytest.mark.parametrize("n, l, lp, want", [
        (2, 1, 0, Fraction(1, 6)),
        (2, 1, 1, Fraction(5, 6)),
        (5, 1, 3, Fraction(16, 75)),
    ])
    def test_frozen_values(self, n, l, lp, want):
        assert p_bar(n, l, lp) == want

    def test_matches_double_sum_oracle(self):
        for n in range(2, 7):
            for l in range(n):
                for lp in range(n):
                    assert p_bar(n, l, lp) == oracles.pbar_double(n, l, lp)

    def test_6j_route_reads_no_factorial(self, monkeypatch):
        # the recurrence in j reads no k!, so a table holding only 0! serves it
        monkeypatch.setattr(pfrational, "_default_table", FactorialTable(0))
        assert p_bar_6j_terms(87, 86, 86)

    def test_routes_check_their_factorials_first(self, monkeypatch, fresh_block):
        # past the bound each route names its largest k!, the blocks' (2n-1)!,
        # before it builds a block or runs the 6j recurrence
        monkeypatch.setattr(pfrational, "_default_table", FactorialTable(258))
        calls = []
        monkeypatch.setattr(stark, "b_block", lambda *a: calls.append(a))
        monkeypatch.setattr(stark, "_sixj_squares", lambda *a: calls.append(a))
        for route, args in ((pbar_table, (130,)), (p_bar, (130, 129, 129)),
                            (p_bar, (130, 0, 0))):
            with pytest.raises(FactorialLimitError, match="need 259!"):
                route(*args)
        assert calls == []

    @pytest.mark.parametrize("route, args, need", [
        (pbar_table, (7,), 13), (p_bar, (6, 2, 4), 11), (p_bar, (6, 0, 1), 11)])
    def test_routes_run_at_exactly_their_need(self, monkeypatch, fresh_block,
                                              route, args, need):
        # with cold blocks, so the route reads the injected table itself
        monkeypatch.setattr(pfrational, "_default_table", FactorialTable(need))
        assert route(*args)
        monkeypatch.setattr(pfrational, "_default_table", FactorialTable(need - 1))
        with pytest.raises(FactorialLimitError, match=f"need {need}!"):
            route(*args)

    def test_uniform_row_from_s_states(self):
        for n in range(2, 13):
            for lp in range(n):
                assert p_bar(n, 0, lp) == Fraction(1, n)

    def test_detailed_balance_symmetry(self):
        for n in (4, 7):
            for l in range(n):
                for lp in range(n):
                    assert (2 * l + 1) * p_bar(n, l, lp) \
                        == (2 * lp + 1) * p_bar(n, lp, l)

    def test_rows_sum_to_one(self):
        for n in (3, 6, 9):
            for l in range(n):
                assert sum(p_bar(n, l, lp) for lp in range(n)) == 1

    def test_printed_6j_limits_miss_terms(self):
        # summing j only to l - l' drops nonvanishing contributions
        terms = p_bar_6j_terms(5, 3, 1)
        full = 3 * sum(terms.values())
        limited = 3 * sum(v for j, v in terms.items() if j <= 3 - 1)
        assert full == p_bar(5, 3, 1) == Fraction(16, 175)
        assert limited == Fraction(6, 175)
        assert {j for j, v in terms.items() if v != 0} == {2, 3, 4}

    def test_range_validation(self):
        with pytest.raises(DomainError):
            p_bar(3, 3, 0)

    def test_gram_is_the_c_squared_double_sum(self):
        for n in (7, 10):
            for m in range(-(n - 1), n):
                blk = basis.b_block(n, m)
                gram, den = blk.c_gram
                sq = [[c * c * d for c, d in row] for row in blk.c_monomials]
                for i in range(n - abs(m)):
                    for j in range(n - abs(m)):
                        want = sum((row[i] * row[j] for row in sq), Fraction(0))
                        assert Fraction(gram[i][j], den) == want, (n, m, i, j)

    def test_route_disagreement_is_caught(self, monkeypatch):
        real = stark._sixj_squares

        def shifted(n, l, lp):
            w, den = real(n, l, lp)
            return [w[0] + 1] + w[1:], den

        monkeypatch.setattr(stark, "_sixj_squares", shifted)
        with pytest.raises(InternalConsistencyError,
                           match=r"P-bar\(2,1\) routes disagree at n=4"):
            p_bar(4, 2, 1)


class TestClosedForms:
    def test_s_state_row_value(self):
        for n in (2, 7, 15):
            assert p_bar_closed(n, 3 % n, 0) == Fraction(1, n)

    def test_printed_l1_form_disagrees_with_oracle(self):
        # the printed numerator term -2(l+1)+1 does not reproduce the double
        # sum except at l' = 1 where l(l+1) = l+1; the report documents the
        # discrepancy and keeps both values
        report = closed_form_report(5, 1)
        verdicts = {rec["l_final"]: rec["verdict"] for rec in report}
        assert verdicts == {0: "mismatch", 1: "exact-match", 2: "mismatch",
                            3: "mismatch", 4: "mismatch"}
        rec = next(r for r in report if r["l_final"] == 3)
        assert rec["printed"] == "146/675"
        assert rec["oracle"] == "16/75"
        assert Fraction(rec["difference"]) == Fraction(146, 675) - Fraction(16, 75)

    def test_corrected_numerator_matches_oracle(self):
        # replacing -2(l+1)+1 by -2l(l+1)+1 reproduces the oracle exactly
        for n in range(2, 9):
            for lp in range(n):
                corrected = Fraction(
                    n * n * (4 * lp * (lp + 1) - 1) - 2 * lp * (lp + 1) + 1,
                    n * (n * n - 1) * (2 * lp - 1) * (2 * lp + 3))
                assert corrected == p_bar(n, 1, lp)

    def test_s_state_report_is_clean(self):
        assert all(rec["verdict"] == "exact-match"
                   for rec in closed_form_report(6, 0))

    def test_report_values_are_in_the_exact_grammar(self):
        # P-bar(0, 0) = 1 at n = 1 is written 1/1, not 1
        reports = [(n, 0) for n in range(1, 13)] + [(n, 1) for n in range(2, 13)]
        for n, l_init in reports:
            for rec in closed_form_report(n, l_init):
                for key in ("printed", "oracle", "difference"):
                    if key in rec:
                        parse_exact(rec[key])

    def test_two_level_value_from_rules(self):
        # 1/n rule plus detailed balance give p_bar(2, 1, 0) = 1/6
        assert p_bar_closed(2, 1, 0) == Fraction(1, 2)  # this is P(0 -> 1)
        assert p_bar(2, 1, 0) == Fraction(1, 6)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            p_bar_closed(4, 1, 2)
        with pytest.raises(DomainError):
            p_bar_closed(1, 0, 1)


class TestPTransition:
    def test_identity_at_zero_phase(self):
        for n in (2, 4):
            for l in range(n):
                for lp in range(n):
                    want = 1.0 if l == lp else 0.0
                    assert p_transition(n, l, lp, 0.0) == pytest.approx(want, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = random.Random(2)
        for n in (2, 3, 5):
            for _ in range(4):
                chi = rng.uniform(0, 12)
                for l in range(n):
                    row = sum(p_transition(n, l, lp, chi) for lp in range(n))
                    assert row == pytest.approx(1.0, abs=1e-12)

    def test_two_level_closed_form(self):
        # the n = 2 manifold is a two-level system: P(0,1) = sin^2(chi)
        for chi in (0.0, 0.3, 1.1, 2.7, 5.0):
            assert p_transition(2, 0, 1, chi) == pytest.approx(
                math.sin(chi) ** 2, abs=1e-12)

    def test_long_time_average_approaches_pbar(self):
        # averaging the oscillatory P over many chi samples approaches P-bar
        n, l, lp = 3, 1, 0
        samples = 40000
        rng = random.Random(9)
        avg = sum(p_transition(n, l, lp, rng.uniform(0, 200))
                  for _ in range(samples)) / samples
        assert avg == pytest.approx(float(p_bar(n, l, lp)), abs=5e-3)

    def test_chi_from_time(self):
        assert chi_from_time(4, 0.5) == 3.0
        assert chi_from_time(4, Fraction(1, 3)) == 2.0
        assert chi_from_time(4, 2) == 12.0

    @pytest.mark.parametrize("n, t", [
        (True, 2.0), (0, 1.0), (2.0, 1.0), (3, True), (3, math.nan), (3, math.inf),
        (3, "1"), (3, None), (3, 1e308),
        pytest.param(3, 10**400, id="3-10**400"),
        pytest.param(3, Fraction(10**400, 3), id="3-Fraction(10**400, 3)"),
        pytest.param(10**400, 1.0, id="10**400-1.0")])
    def test_chi_from_time_rejects_bad_input(self, n, t):
        with pytest.raises(DomainError):
            chi_from_time(n, t)


class TestTables:
    def test_pbar_table_entries(self):
        table = pbar_table(3)
        assert table.entries[0] == (Fraction(1, 3),) * 3
        assert all(sum(row) == 1 for row in table.entries)

    def test_pbar_table_equals_p_bar(self):
        # p_bar runs its routes and guard on the l > l' side too; the table
        # fills that side by detailed balance
        for n in range(1, 17):
            want = tuple(tuple(p_bar(n, l, lp) for lp in range(n)) for l in range(n))
            assert pbar_table(n).entries == want, n

    def test_pbar_table_calls_p_bar_once_per_pair(self, monkeypatch):
        # the unchecked kernel, both routes and their guard, once per l <= l'
        calls = []
        real = stark._p_bar_pair
        monkeypatch.setattr(stark, "_p_bar_pair", lambda *t: calls.append(t) or real(*t))
        for n in (1, 4, 7):
            calls.clear()
            pbar_table(n)
            assert len(calls) == n * (n + 1) // 2
            assert sorted(calls) == [(n, l, lp) for l in range(n) for lp in range(l, n)]

    def test_pbar_csv_round_trip(self):
        table = pbar_table(4)
        rows = list(csv.reader(io.StringIO(table.to_csv())))
        assert rows[0] == ["l", "lp0", "lp1", "lp2", "lp3"]
        for l, row in enumerate(rows[1:]):
            assert int(row[0]) == l
            for lp, cell in enumerate(row[1:]):
                num, den = cell.split("/")
                assert Fraction(int(num), int(den)) == table.entries[l][lp]

    def test_pbar_json(self):
        payload = json.loads(pbar_table(2).to_json())
        assert payload["kind"] == "pbar"
        assert payload["entries"][0] == ["1/2", "1/2"]

    def test_p_table_json_and_rows(self):
        table = p_table(3, 0.7)
        payload = json.loads(table.to_json())
        assert payload["chi"] == 0.7
        for row in table.entries:
            assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_entry_range_validated(self):
        with pytest.raises(DomainError):
            TransitionTable(2, "pbar", ((Fraction(3, 2), Fraction(0)),) * 2)
        with pytest.raises(DomainError):
            TransitionTable(2, "nope", ((Fraction(1, 2), Fraction(1, 2)),) * 2)

    def test_pbar_rows_must_sum_to_one(self):
        # every entry lies in [0, 1], but row 1 sums to 1/2
        half = Fraction(1, 2)
        with pytest.raises(DomainError, match=r"row l=1 of a 'pbar' table sums to 1/2"):
            TransitionTable(2, "pbar", ((half, half), (half, Fraction(0))))
        assert TransitionTable(2, "pbar", ((1, 0), (Fraction(1, 3), Fraction(2, 3))))

    @pytest.mark.parametrize("n, kind, entries", [
        pytest.param(2, "pbar", ((Fraction(1),),), id="pbar-1x1-for-n2"),
        pytest.param(2, "pbar", ((Fraction(1), Fraction(0)), (Fraction(1),)),
                     id="pbar-ragged"),
        pytest.param(2, "pbar", [(Fraction(1), Fraction(0))] * 2, id="pbar-list"),
        pytest.param(2, "pbar", ((1.0, 0.0), (0.0, 1.0)), id="pbar-floats"),
        pytest.param(2, "pbar", ((True, False), (False, True)), id="pbar-bools"),
        pytest.param(2, "p", ((Fraction(1), Fraction(0)),) * 2, id="p-fractions"),
        pytest.param(2, "p", ((1, 0), (0, 1)), id="p-ints"),
        pytest.param(0, "pbar", (), id="n0"),
        pytest.param(2.0, "pbar", ((Fraction(1), Fraction(0)),) * 2, id="n-float"),
    ])
    def test_shape_and_entry_types_validated(self, n, kind, entries):
        # a table smaller than its n, or entries its writers cannot write
        # (to_json raises AttributeError or TypeError on them)
        with pytest.raises(DomainError):
            TransitionTable(n, kind, entries, chi=0.7 if kind == "p" else None)

    @pytest.mark.parametrize("chi", [math.nan, math.inf, None, True, "0.7",
                                     pytest.param(10**400, id="10**400")])
    def test_p_table_chi_validated(self, chi):
        with pytest.raises(DomainError, match="finite real chi"):
            TransitionTable(2, "p", ((1.0, 0.0), (0.0, 1.0)), chi=chi)


_SEEDED = random.Random(31)
TABLE_CHIS = (0.0, 0.7, math.pi) + tuple(_SEEDED.uniform(-20, 20) for _ in range(3))


class TestPTable:
    @pytest.mark.parametrize("chi", TABLE_CHIS)
    def test_entries_equal_p_transition_exactly(self, chi):
        # both sum the same per-|m| terms for m ascending: bit-identical
        for n in range(1, 9):
            entries = p_table(n, chi).entries
            for l in range(n):
                for lp in range(n):
                    assert entries[l][lp] == p_transition(n, l, lp, chi)

    @pytest.mark.parametrize("chi", TABLE_CHIS)
    def test_entries_match_the_literal_quadruple_sum(self, chi):
        # the printed form, which no runtime route evaluates, still holds
        for n in range(1, 9):
            entries = p_table(n, chi).entries
            for l in range(n):
                for lp in range(n):
                    want = oracles.p_herrick(n, l, lp, chi)
                    assert abs(entries[l][lp] - want) <= 1e-12, (n, l, lp)

    @pytest.mark.parametrize("chi", [0.0, 1e-9, 0.7, math.pi / 2, math.pi, 2 * math.pi,
                                     -3.3, 1e6])
    def test_equal_the_two_pass_kernel_bit_for_bit(self, chi):
        # B's and C's sums share one pass over q, each still in q order with
        # the same operations: every term of both routes, and so every entry,
        # is the two-pass kernel's to the bit; hex tells -0.0 from 0.0
        def bits(rows):
            return [[x if isinstance(x, int) else x.hex() for x in row] for row in rows]

        for n in range(1, 13):
            want = oracles.p_table_two_pass(n, chi)
            assert bits(p_table(n, chi).entries) == bits(want), n
            for l in range(n):
                for lp in range(n):
                    assert p_transition(n, l, lp, chi).hex() == want[l][lp].hex(), (n, l, lp)
            phase = stark._phases(n, chi)
            pairs = [(l, lp) for l in range(n) for lp in range(l, n)]
            for am in range(n):
                assert bits(stark._p_block(n, am, phase, pairs)) \
                    == bits(oracles.p_block_two_pass(n, am, chi, pairs)), (n, am)

    def test_rows_sum_to_one_at_larger_n(self):
        table = p_table(20, 2.9)
        for row in table.entries:
            assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def patch_floats(monkeypatch, edit):
        """stark.b_block returns a copy of each block whose (B floats, C
        floats) are edit(m, b_rows, c_rows), each a list of row lists."""
        real = stark.b_block

        def edited(n, m):
            blk = real(n, m)
            copy = blk._replace()
            b, c = ([list(row) for row in rows] for rows in blk._float_tables)
            edit(m, b, c)
            copy.__dict__["_float_tables"] = tuple(tuple(map(tuple, rows))
                                                   for rows in (b, c))
            return copy

        monkeypatch.setattr(stark, "b_block", edited)

    def test_perturbed_c_route_is_caught(self, monkeypatch):
        def perturbed(m, b, c):
            if m == 0:
                c[2][2] *= 1.001  # (q, l) = (1, 2) of the n = 4 block

        self.patch_floats(monkeypatch, perturbed)
        with pytest.raises(InternalConsistencyError, match="routes disagree"):
            p_table(4, 0.7)
        with pytest.raises(InternalConsistencyError, match="routes disagree"):
            p_transition(4, 2, 2, 0.7)

    def test_perturbed_c_route_in_a_signed_block_is_caught(self, monkeypatch):
        def perturbed(m, b, c):
            if m == 1:
                c[0][1] *= 1.001  # (q, l) = (-2, 2) of the n = 4, |m| = 1 block

        self.patch_floats(monkeypatch, perturbed)
        with pytest.raises(InternalConsistencyError, match="routes disagree"):
            p_table(4, 0.7)
        with pytest.raises(InternalConsistencyError, match="routes disagree"):
            p_transition(4, 2, 2, 0.7)

    @staticmethod
    def count_float_blocks(monkeypatch):
        """The (n, m) of every read of B's and of C's floats, through
        stark.b_block."""
        calls = {"b": [], "c": []}
        real = stark.b_block

        class Counted(basis.BBlock):
            @property
            def b_floats(self):
                calls["b"].append((self.n, self.m))
                return super().b_floats

            @property
            def c_floats(self):
                calls["c"].append((self.n, self.m))
                return super().c_floats

        def counted(n, m):
            blk = real(n, m)
            return Counted(**{name: getattr(blk, name) for name in blk._fields})

        monkeypatch.setattr(stark, "b_block", counted)
        return calls

    def test_float_blocks_read_once_per_abs_m(self, monkeypatch):
        calls = self.count_float_blocks(monkeypatch)
        p_table(7, 0.7)
        assert calls["b"] == calls["c"] == [(7, am) for am in range(7)]

    def test_p_transition_reads_each_abs_m_block_once(self, monkeypatch):
        calls = self.count_float_blocks(monkeypatch)
        p_transition(7, 3, 5, 0.7)
        assert calls["b"] == calls["c"] == [(7, am) for am in range(4)]

    def test_non_unitary_block_is_caught(self, monkeypatch):
        def scaled(m, b, c):
            b[:] = [[1.01 * x for x in row] for row in b]

        self.patch_floats(monkeypatch, scaled)
        with pytest.raises(InternalConsistencyError, match="not unitary"):
            p_table(4, 0.7)

    @pytest.mark.parametrize("chi", [math.nan, math.inf, -math.inf])
    def test_non_finite_chi_rejected(self, chi):
        with pytest.raises(DomainError):
            p_table(3, chi)
        with pytest.raises(DomainError):
            p_transition(3, 1, 2, chi)

    @pytest.mark.parametrize("chi", [
        1e308, -1e308, Fraction(10**400, 3), 10**400, -(10**400), Fraction(10**308),
    ], ids=["1e308", "-1e308", "Fraction(10**400, 3)", "10**400", "-10**400",
            "Fraction(10**308)"])
    def test_chi_q_beyond_the_float_range_rejected(self, chi):
        # chi*(n-1) must be a finite float, so every phase cos(chi*q) is
        with pytest.raises(DomainError, match="must be finite"):
            p_table(3, chi)
        with pytest.raises(DomainError, match="must be finite"):
            p_transition(3, 1, 2, chi)

    def test_chi_q_at_the_float_range_accepted(self):
        # chi*(n-1) finite: the phases are those of today, the rows unitary
        for chi in (1e300, 8e307, -8e307, 10**300):
            for row in p_table(3, chi).entries:
                assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)
            assert p_transition(3, 1, 2, chi) == p_table(3, chi).entries[1][2]
        assert p_table(1, 1e308).entries == ((1.0,),)

    @pytest.mark.parametrize("n", [0, -2])
    def test_non_positive_n_rejected(self, n):
        with pytest.raises(DomainError):
            p_table(n, 0.7)
        with pytest.raises(DomainError):
            pbar_table(n)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_n_must_be_an_int(self, n):
        with pytest.raises(DomainError):
            p_table(n, 0.7)
        with pytest.raises(DomainError):
            pbar_table(n)

    @pytest.mark.parametrize("chi", ["x", None, "0.7", 1j, True])
    def test_chi_must_be_real(self, chi):
        with pytest.raises(DomainError):
            p_table(3, chi)
        with pytest.raises(DomainError):
            p_transition(3, 1, 2, chi)

    def test_real_chi_types_accepted(self):
        assert p_table(3, 1).entries == p_table(3, 1.0).entries
        assert p_table(3, Fraction(1, 2)).entries == p_table(3, 0.5).entries
        # a Fraction chi is written as its binary64 value; an int or a
        # float chi as it is
        assert json.loads(p_table(3, Fraction(7, 10)).to_json())["chi"] == 0.7
        assert p_table(3, Fraction(7, 10)).to_json() == p_table(3, 0.7).to_json()
        assert '"chi": 1,' in p_table(3, 1).to_json()
        assert '"chi": 0.7,' in p_table(3, 0.7).to_json()


class TestArguments:
    @pytest.mark.parametrize("args", [
        (2.5, 1, 1), (3, 1.0, 1), (3, 1.5, 1), (3, 1, 1.0), (True, 0, 0),
        (3, True, 1), (3, 3, 0), (3, 0, 3), (3, -1, 1), (3, 5, 1), (0, 0, 0),
    ])
    def test_l_pairs_out_of_range_or_not_int(self, args):
        with pytest.raises(DomainError):
            p_bar(*args)
        with pytest.raises(DomainError):
            p_bar_6j_terms(*args)
        with pytest.raises(DomainError):
            p_transition(*args, 0.7)

    @pytest.mark.parametrize("args", [
        (0, 0, 0), (3, 7, 1), (3, -1, 0), (3, 3, 1), (2.5, 1, 1), (3, 1.0, 1),
        (3, 1, 1.0), (True, 0, 0), (4, 1, 2),
    ])
    def test_closed_form_arguments(self, args):
        with pytest.raises(DomainError):
            p_bar_closed(*args)

    @pytest.mark.parametrize("n", [-1, 0, 2.5, True])
    def test_closed_form_report_needs_a_manifold(self, n):
        with pytest.raises(DomainError):
            closed_form_report(n, 1)


@pytest.fixture
def fresh_block():
    caches = (basis.b_block, basis.b_matrix)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


class TestOneBlock:
    def test_tables_run_without_the_3jm_kernel(self, monkeypatch, fresh_block):
        def unavailable(*args):
            raise AssertionError(f"3jm kernel called with {args}")

        wigner.clear_caches()
        monkeypatch.setattr(wigner, "_racah_3jm", unavailable)
        basis.b_matrix(6, 1)
        p_table(6, 0.7)
        pbar_table(5)

    def test_doubled_racah_entry_trips_the_normalisation(self, monkeypatch,
                                                         fresh_block):
        real = basis._racah_sum

        def doubled(*t):
            value = real(*t)
            return 2 * value if t == (3, 3, 2, 3, -3, 0) else value

        monkeypatch.setattr(basis, "_racah_sum", doubled)
        with pytest.raises(InternalConsistencyError, match="squared norm"):
            p_table(4, 0.7)
