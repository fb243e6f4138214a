"""Sum-rule evaluations, generic moments, and printed-form discrepancy reports."""
import json
import os
from fractions import Fraction

import pytest

import oracles
from oracles import all_labels
from rungelenz import basis, stark, sumrules
from rungelenz.basis import ParabolicLabel, b_matrix, q_values, spherical_ls
from rungelenz.cli import main
from rungelenz.errors import DomainError, InternalConsistencyError
from rungelenz.operators import az_power_matrix, beta, beta_squared
from rungelenz.radical import RadicalSum, parse_exact
from rungelenz.sumrules import (
    az_moment_generic,
    l2_power_moment,
    sum_rule_az,
    sum_rule_l2,
)

TABLE1 = ParabolicLabel(3, 1, 4)  # n = 9, q = 2


def beta_chains(n, m, power):
    """The A_z^power entries <l'|A_z^power|l> as beta-coefficient chains, keyed (l', l)."""

    def bsq(*ls):
        return sum((beta_squared(n, l, m) if l >= 0 else Fraction(0)) for l in ls)

    def chain(*ls):
        acc = RadicalSum.from_rational(1)
        for l in ls:
            if l < 0:
                return RadicalSum.zero()
            acc = acc * beta(n, l, m)
        return acc

    out = {}
    for l in spherical_ls(n, m):
        if power == 2:
            pieces = [
                (l - 2, chain(l, l - 1)),
                (l, RadicalSum.from_rational(bsq(l, l + 1))),
                (l + 2, chain(l + 1, l + 2)),
            ]
        elif power == 3:
            pieces = [
                (l - 3, chain(l - 2, l - 1, l)),
                (l - 1, chain(l) * bsq(l - 1, l, l + 1)),
                (l + 1, chain(l + 1) * bsq(l, l + 1, l + 2)),
                (l + 3, chain(l + 1, l + 2, l + 3)),
            ]
        else:
            diag = bsq(l + 1) * bsq(l, l + 1, l + 2) + bsq(l) * bsq(l - 1, l, l + 1)
            pieces = [
                (l - 4, chain(l - 3, l - 2, l - 1, l)),
                (l - 2, chain(l - 1, l) * bsq(l - 2, l - 1, l, l + 1)),
                (l, RadicalSum.from_rational(diag)),
                (l + 2, chain(l + 1, l + 2) * bsq(l, l + 1, l + 2, l + 3)),
                (l + 4, chain(l + 1, l + 2, l + 3, l + 4)),
            ]
        for lp, weight in pieces:
            out[(lp, l)] = weight
    return out


class TestWorkedExample:
    def test_l2_rule_value(self):
        r = sum_rule_l2(TABLE1)
        assert r.lhs == RadicalSum.from_rational(46)
        assert r.ok

    @pytest.mark.parametrize("power, want", [(2, 4), (3, 8), (4, 16)])
    def test_az_rule_values(self, power, want):
        r = sum_rule_az(TABLE1, power)
        assert r.lhs == RadicalSum.from_rational(want)
        assert r.ok


class TestL2Rule:
    def test_two_level_manifold(self):
        r = sum_rule_l2(ParabolicLabel(1, 0, 0))
        assert r.lhs == RadicalSum.from_rational(1)
        assert r.rhs == 1

    def test_single_state(self):
        r = sum_rule_l2(ParabolicLabel(0, 0, 0))
        assert r.lhs.is_zero and r.ok

    def test_sweep(self):
        for n in range(1, 9):
            for p in all_labels(n):
                assert sum_rule_l2(p).ok, p


class TestAzRules:
    def test_odd_power_vanishes_for_symmetric_labels(self):
        r = sum_rule_az(ParabolicLabel(2, 2, 1), 3)
        assert r.lhs.is_zero and r.rhs == 0 and r.ok

    def test_sweep_all_m_signs(self):
        for n in range(1, 8):
            for p in all_labels(n):
                for power in (2, 3, 4):
                    r = sum_rule_az(p, power)
                    assert r.ok, (p, power)
                    assert r.rhs == p.q**power

    def test_sign_symmetry_under_label_swap(self):
        for (n1, n2, m) in ((3, 1, 0), (2, 0, 1), (4, 1, -2)):
            a, b = ParabolicLabel(n1, n2, m), ParabolicLabel(n2, n1, m)
            for power in (2, 3, 4):
                ra, rb = sum_rule_az(a, power), sum_rule_az(b, power)
                want = ra.lhs if power % 2 == 0 else -ra.lhs
                assert rb.lhs == want

    def test_power_validation(self):
        with pytest.raises(DomainError):
            sum_rule_az(TABLE1, 5)
        # powers that are not ints, or are bools, never reach the kernels
        for power in (2.0, 3.0, True, "2", None):
            with pytest.raises(DomainError):
                sum_rule_az(TABLE1, power)
        for power in (2.5, 2.0, True, False, "2"):
            with pytest.raises(DomainError):
                az_moment_generic(TABLE1, power)
            with pytest.raises(DomainError):
                l2_power_moment(TABLE1, power)
        with pytest.raises(DomainError, match="must be an int >= 0"):
            az_moment_generic(TABLE1, -1)
        for power in (0, -1):
            with pytest.raises(DomainError, match="must be an int >= 1"):
                l2_power_moment(TABLE1, power)

    def test_radical_collapse(self):
        # every canonical LHS is a pure rational: irrational parts cancel
        for n in range(1, 8):
            for p in all_labels(n):
                for power in (2, 3, 4):
                    assert sum_rule_az(p, power).lhs.is_rational


class TestPrintedForms:
    def test_power2_printed_form_mismatch_at_worked_example(self):
        # the third-term denominator as printed breaks the identity
        r = sum_rule_az(TABLE1, 2)
        assert r.printed_verdict == "mismatch"
        assert r.printed_lhs is not None
        assert not (r.printed_lhs - RadicalSum.from_rational(r.printed_rhs)).is_zero

    def test_power2_printed_form_not_evaluable_at_m0(self):
        # at m = 0, n >= 3 the printed ratio has a negative radicand at l = 0
        r = sum_rule_az(ParabolicLabel(2, 1, 0), 2)
        assert r.printed_verdict == "not-evaluable"
        assert "negative" in r.printed_note

    def test_power3_printed_form_holds_with_swapped_sign(self):
        # printed RHS is (n2-n1)^3; the (-1)^(l+l') phase between B-products
        # and bare-3jm products makes both statements correct
        for p in (TABLE1, ParabolicLabel(2, 0, 1), ParabolicLabel(3, 0, 2)):
            r = sum_rule_az(p, 3)
            assert r.printed_verdict == "exact-match"
            assert r.printed_rhs == (p.n2 - p.n1) ** 3
            assert r.rhs == p.q**3

    def test_power4_printed_form_holds(self):
        for p in (TABLE1, ParabolicLabel(2, 1, 1)):
            r = sum_rule_az(p, 4)
            assert r.printed_verdict == "exact-match"

    def test_notes_come_only_from_the_power2_l_plus_2_term(self):
        # in range every weight and every power-2 ratio numerator is
        # positive, so only the printed (l+2) denominator, negative at l = 0,
        # makes a note: once per block with m = 0 and n >= 3
        noted = set()
        for n in range(1, 25):
            for m in range(n):
                for power in (2, 3, 4):
                    for i, j, _, _, note in sumrules._printed_terms(n, m, power)[0]:
                        if note:
                            assert (power, j) == (2, i + 2), (n, m, power, note)
                            noted.add((n, m, i + m))
        assert noted == {(n, 0, 0) for n in range(3, 25)}


class TestPrintedIdentity:
    def test_printed_forms_differ_from_the_canonical_on_one_band(self):
        # P_k = (-1)^k S_k + Delta_k: Delta_3 and Delta_4 are empty, and
        # Delta_2 lies on |l - l'| = 2, the band of the printed (l+2) term
        band = 0
        for n in range(1, 17):
            for m in range(n):
                for power in (2, 3, 4):
                    _, delta, _ = sumrules._printed_delta(n, m, power)
                    if power == 2:
                        assert all(j - i == 2 for i, j, _, _ in delta), (n, m)
                        band += len(delta)
                    else:
                        assert delta == (), (n, m, power)
        assert band > 0

    def test_integer_transcription_equals_the_fraction_route(self):
        for n in range(1, 17):
            for m in range(n):
                for power in (2, 3, 4):
                    assert (sumrules._printed_terms(n, m, power)
                            == oracles._printed_terms(n, m, power)), (n, m, power)


class TestPrintedRouteOracle:
    def test_matches_the_radicalsum_route(self):
        # value and note, including the first offending (l, l') of a
        # not-evaluable form, equal the former RadicalSum route's
        notes = 0
        for n in range(1, 9):
            for p in all_labels(n):
                for power in (2, 3, 4):
                    report = sum_rule_az(p, power)
                    got = report.printed_lhs, report.printed_note
                    assert got == oracles._printed_az_form(p, power), (p, power)
                    notes += got[1] is not None
        assert notes > 0


class TestIntegerKernels:
    def test_match_the_fraction_route(self):
        # the contraction, the L^2 sum and the printed-form accumulation sum
        # in integers over b_den D^2 Delta^k (D^2 E for the printed form);
        # each equals the Fraction route it replaced, exactly
        for n in range(1, 11):
            for p in all_labels(n):
                for k in range(9):
                    assert sumrules._az_contraction(p, k) == oracles.az_contraction(p, k), \
                        (p, k)
                for power in (1, 2, 3):
                    want = oracles.b_squared_sum(p, lambda l: Fraction(l * (l + 1)) ** power)
                    assert l2_power_moment(p, power) == want, (p, power)
                for power in (2, 3, 4):
                    report = sum_rule_az(p, power)
                    got = report.printed_lhs, report.printed_note
                    assert got == oracles.printed_az_accumulation(p, power), (p, power)


@pytest.fixture
def fresh_gauge():
    caches = (basis.b_block, basis.b_matrix, sumrules._printed_delta)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


class TestRationalGauge:
    def test_ties_to_b_coeff(self):
        # B[n1, l] = s (-1)^l sqrt(a b) r: sign and square, exactly, against
        # the single-3jm definition
        for n in range(1, 11):
            for m in range(-(n - 1), n):
                g = basis.b_block(n, m)
                upper = n - abs(m) - 1
                for n1 in range(upper + 1):
                    p = ParabolicLabel(n1, upper - n1, m)
                    s = -1 if (p.n2 + (m - abs(m)) // 2 + m) % 2 else 1
                    for i, l in enumerate(spherical_ls(n, m)):
                        B = oracles.b_coeff(p, l)
                        rho = Fraction(g.rho_num[n1][i], g.rho_den[n1])
                        b = Fraction(g.b_num[i], g.b_den)
                        assert g.a[n1] * b * rho * rho == (B * B).as_fraction()
                        want = 0 if B.is_zero else (1 if B.terms()[0][1] > 0 else -1)
                        assert (s * rho > 0) - (s * rho < 0) == want, (p, l)

    def test_rows_come_from_the_racah_sum(self, monkeypatch, fresh_gauge):
        calls = []
        real = basis._racah_sum
        monkeypatch.setattr(basis, "_racah_sum",
                            lambda *t: calls.append(t) or real(*t))
        basis.b_block(4, 1)
        assert len(calls) == 3  # one per l of the seed row n1 = 0 of the 3 x 3 block
        calls.clear()
        basis.b_block(4, 0)
        assert len(calls) == 4  # one per l of the seed row n1 = 0 of the 4 x 4 block

    def test_negative_m_reads_the_block_of_abs_m(self, monkeypatch, fresh_gauge):
        blk = basis.b_block(5, 2)
        calls = []
        monkeypatch.setattr(basis, "_racah_sum", lambda *t: calls.append(t))
        assert basis.b_block(5, -2) is blk
        assert calls == []

    def test_j_guard_is_live(self, monkeypatch, fresh_gauge):
        real = basis._block_entries

        def perturbed(n, m):
            g = real(n, m)
            up = list(g.up)
            up[1] += 1  # J[1, 2] off by 1/Delta, the least step of the band
            return g._replace(up=tuple(up))

        monkeypatch.setattr(basis, "_block_entries", perturbed)
        with pytest.raises(InternalConsistencyError, match=r"gauge J\[1, 2\]"):
            sum_rule_az(ParabolicLabel(1, 1, 0), 2)

    def test_j_guard_sees_the_down_band(self, monkeypatch, fresh_gauge):
        real = basis._block_entries

        def perturbed(n, m):
            g = real(n, m)
            down = list(g.down)
            down[0] -= 1  # J[1, 0] off by 1/Delta
            return g._replace(down=tuple(down))

        monkeypatch.setattr(basis, "_block_entries", perturbed)
        with pytest.raises(InternalConsistencyError, match=r"gauge J\[0, 1\]"):
            sum_rule_az(ParabolicLabel(1, 1, 0), 2)

    def test_normalisation_guard_is_live(self, monkeypatch, fresh_gauge):
        real = basis._block_entries

        def scaled(n, m):
            g = real(n, m)
            b_num = list(g.b_num)
            b_num[2] *= 2
            return g._replace(b_num=tuple(b_num))

        monkeypatch.setattr(basis, "_block_entries", scaled)
        with pytest.raises(InternalConsistencyError, match="squared norm"):
            sum_rule_l2(ParabolicLabel(1, 2, 0))

    @staticmethod
    def perturb_racah(monkeypatch, factor):
        """Scale the Racah sum at l = 1 of the (n, m) = (4, 0), n1 = 0 row,
        the seed of the block's other rows."""
        real = basis._racah_sum

        def perturbed(*t):
            value = real(*t)
            return value * factor if t == (3, 3, 2, 3, -3, 0) else value

        monkeypatch.setattr(basis, "_racah_sum", perturbed)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_negated_racah_entry_halts_the_sweep(self, monkeypatch, capsys,
                                                 fresh_gauge, jobs):
        # the row stays normalised, so only J rho = q rho can see it; under
        # --jobs 2 the forked worker inherits the patch and the main process
        # raises its pickled error
        self.perturb_racah(monkeypatch, -1)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(InternalConsistencyError,
                           match=r"B row n1=0 of \(n=4, m=0\) .* q=-3:"):
            main(["verify", "--max-n", "4", "--min-n", "4", "--m", "0",
                  "--n1", "1", "--powers", "1,2,3,4", "--format", "json",
                  "--jobs", jobs])
        assert capsys.readouterr().out == ""

    def test_every_row_is_an_eigenvector_of_j(self):
        # J rho = q rho on every row, mirrored ones included: the sum rules
        # read q^k for every label rather than contracting it
        for n in range(1, 25):
            for m in range(n):
                assert basis.b_block(n, m).az_eigenvalues == tuple(q_values(n, m)), (n, m)

    def test_mirror_sign_is_a_block_guard(self, monkeypatch, fresh_gauge):
        # mirrored rows q > 0 without their (-1)^(n-1+l) keep a, D and R^2,
        # so the norm guard passes them; J rho = q rho fails on the first
        real = basis._block_entries

        def unsigned(n, m):
            g = real(n, m)
            half = (len(g.a) + 1) // 2
            rows = g.rho_num[:half] + tuple(
                tuple(-x if (n - 1 + l) & 1 else x for l, x in zip(spherical_ls(n, m), row))
                for row in g.rho_num[half:])
            return g._replace(rho_num=rows)

        monkeypatch.setattr(basis, "_block_entries", unsigned)
        mirrored = 0
        for n in range(1, 13):
            for m in range(n - 1):  # the blocks with at least two rows
                half = (n - m + 1) // 2
                q = 2 * half - (n - m - 1)
                with pytest.raises(InternalConsistencyError,
                                   match=rf"B row n1={half} of \(n={n}, m={m}\) "
                                         rf".* q={q}:"):
                    az_moment_generic(ParabolicLabel(0, n - m - 1, m), 1)
                mirrored += 1
        assert mirrored == 66
        # B's floats read the same rows, so that one sign also feeds p_table's
        # unitarity guard
        for n in range(2, 9):
            with pytest.raises(InternalConsistencyError, match="not unitary"):
                stark.p_table(n, 0.7)

    def test_scaled_racah_entry_trips_the_normalisation(self, monkeypatch,
                                                        fresh_gauge):
        self.perturb_racah(monkeypatch, 2)
        with pytest.raises(InternalConsistencyError, match="B row n1=0 of"):
            sum_rule_l2(ParabolicLabel(1, 2, 0))

    def test_powers_beyond_the_default_bound(self):
        for power in (9, 12):
            assert az_moment_generic(TABLE1, power).ok
        # every power reads the row's one checked q
        assert az_moment_generic(TABLE1, 3).lhs == RadicalSum.from_rational(8)


class TestGenericMoments:
    def test_power_zero_is_normalization(self):
        r = az_moment_generic(TABLE1, 0)
        assert r.lhs == RadicalSum.from_rational(1)

    def test_power_one_two_level(self):
        r = az_moment_generic(ParabolicLabel(1, 0, 0), 1)
        assert r.lhs == RadicalSum.from_rational(1) and r.ok

    @pytest.mark.parametrize("power, want", [(5, 32), (6, 64)])
    def test_worked_example_high_powers(self, power, want):
        r = az_moment_generic(TABLE1, power)
        assert r.lhs == RadicalSum.from_rational(want) and r.ok

    def test_sweep(self):
        for n in range(1, 7):
            for p in all_labels(n):
                for power in range(0, 5):
                    assert az_moment_generic(p, power).ok, (p, power)

    def test_structural_agreement_with_beta_form(self):
        # the beta-form chains equal the contraction entries pair by pair
        for p in (TABLE1, ParabolicLabel(2, 1, 0), ParabolicLabel(1, 2, -1),
                  ParabolicLabel(2, 2, 1)):
            n, m = p.n, p.m
            am = abs(m)
            v = b_matrix(n, m)[p.n1]
            for power in (2, 3, 4):
                M = az_power_matrix(n, m, power)
                chains = beta_chains(n, m, power)
                for i in range(len(v)):
                    for j in range(len(v)):
                        contraction = v[i] * M[i][j] * v[j]
                        weight = chains.get((i + am, j + am), RadicalSum.zero())
                        assert contraction == v[i] * weight * v[j], (p, power, i, j)


class TestL2Moments:
    def test_power_one_reproduces_l2_rule(self):
        for p in (TABLE1, ParabolicLabel(1, 1, 0)):
            assert l2_power_moment(p, 1) == sum_rule_l2(p).lhs.as_fraction()

    def test_worked_example(self):
        assert l2_power_moment(TABLE1, 1) == 46

    def test_frozen_power_two(self):
        assert l2_power_moment(ParabolicLabel(1, 1, 0), 2) == 24

    def test_sweep_powers_two_three(self):
        for n in range(1, 6):
            for p in all_labels(n):
                for power in (2, 3):
                    value = l2_power_moment(p, power)
                    direct = sum(
                        (b_matrix(n, p.m)[p.n1][i] * b_matrix(n, p.m)[p.n1][i]).as_fraction()
                        * Fraction(l * (l + 1)) ** power
                        for i, l in enumerate(range(abs(p.m), n)))
                    assert value == direct


class TestReportSerialization:
    def test_schema_fields(self):
        d = sum_rule_az(TABLE1, 2).to_dict()
        assert d["rule"] == "az2"
        assert d["params"] == {"n": 9, "m": 4, "n1": 3, "n2": 1, "p": 2}
        assert d["verdict"] == "exact-match"
        assert parse_exact(d["lhs"]) == RadicalSum.from_rational(4)
        assert parse_exact(d["rhs"]) == RadicalSum.from_rational(4)
        assert d["printed"]["verdict"] == "mismatch"
        assert parse_exact(d["printed"]["difference"]) is not None
        json.dumps(d)  # JSON-safe

    def test_mismatch_reports_difference(self):
        r = sum_rule_l2(ParabolicLabel(1, 0, 0))
        # simulate a corrupted comparison by rebuilding with a wrong rhs
        from rungelenz.sumrules import SumRuleReport
        bad = SumRuleReport("l2", 2, 0, 1, 0, 1, r.lhs, Fraction(3))
        assert bad.verdict == "mismatch"
        assert bad.difference == r.lhs - RadicalSum.from_rational(3)
        assert "difference" in bad.to_dict()

    def test_writer_equals_json_dumps_on_every_report_to_n14(self):
        # the text equals json.dumps(indent=2) of the dict the former
        # RadicalSum route built, and its re-indented form as verify wrote it
        count = 0
        for n in range(1, 15):
            for p in all_labels(n):
                reports = ([sum_rule_l2(p)] + [sum_rule_az(p, k) for k in (2, 3, 4)]
                           + [az_moment_generic(p, k) for k in range(5, 9)])
                for r in reports:
                    want = json.dumps(oracles.report_dict(r), indent=2)
                    assert r.to_json() == want, r
                    assert r.to_json("    ") == want.replace("\n", "\n    ")
                    count += 1
        assert count == 8 * sum(n * n for n in range(1, 15))

    @pytest.mark.parametrize("args, kwargs, keys, printed_keys", [
        # a canonical mismatch
        (("l2", 2, 0, 1, 0, 1, Fraction(-5, 3), 3), {},
         {"rule", "params", "lhs", "rhs", "verdict", "difference"}, None),
        # both routes mismatch, with every printed key; the note needs escaping
        (("az2", 9, 4, 3, 1, 2, 4, Fraction(5, 7)),
         dict(printed=({1: 7, 2: -3, 6: 0, 15: 4}, 12), printed_rhs=Fraction(1, 2),
              printed_note='a "quoted" note \u2014 \xfc\n'),
         {"rule", "params", "lhs", "rhs", "verdict", "difference", "printed"},
         {"verdict", "lhs", "rhs", "difference", "note"}),
        # a printed mismatch whose difference has no rational part
        (("az3", 4, 0, 2, 1, 3, 1, 1),
         dict(printed=({1: -7, 3: 2}, 5), printed_rhs=Fraction(-7, 5)),
         {"rule", "params", "lhs", "rhs", "verdict", "printed"},
         {"verdict", "lhs", "rhs", "difference"}),
        # a printed mismatch with no rational part; its difference has one
        (("az2", 5, 1, 2, 1, 2, 1, 1),
         dict(printed=({1: 0, 2: 3, 5: -1}, 4), printed_rhs=1),
         {"rule", "params", "lhs", "rhs", "verdict", "printed"},
         {"verdict", "lhs", "rhs", "difference"}),
        # a printed exact match
        (("az4", 4, 0, 2, 1, 4, 1, 1), dict(printed=({1: 6}, 3), printed_rhs=2),
         {"rule", "params", "lhs", "rhs", "verdict", "printed"}, {"verdict", "lhs", "rhs"}),
        # a printed form that is not evaluable, with its note
        (("az2", 3, 0, 1, 1, 2, 0, 0),
         dict(printed_rhs=Fraction(0), printed_verdict="not-evaluable",
              printed_note="term (l=0 -> l'=2) has a negative radicand as printed"),
         {"rule", "params", "lhs", "rhs", "verdict", "printed"},
         {"verdict", "rhs", "note"}),
    ])
    def test_writer_reaches_every_key(self, args, kwargs, keys, printed_keys):
        from rungelenz.sumrules import SumRuleReport
        r = SumRuleReport(*args, **kwargs)
        assert r.to_json() == json.dumps(oracles.report_dict(r), indent=2)
        d = r.to_dict()
        assert set(d) == keys
        assert (set(d["printed"]) if "printed" in d else None) == printed_keys

    def test_irrational_canonical_lhs_rejected(self):
        from rungelenz.sumrules import SumRuleReport
        with pytest.raises(DomainError, match="not rational"):
            SumRuleReport("l2", 2, 0, 1, 0, 1, RadicalSum.from_sqrt(2), 1)
