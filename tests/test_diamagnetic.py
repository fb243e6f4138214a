"""Diamagnetic operator matrices: dual forms, symmetry, structure, JSON."""
import json
import math
from fractions import Fraction

import pytest

import oracles

from rungelenz import diamagnetic
from rungelenz.basis import ParabolicLabel, unit_parabolic
from rungelenz.diamagnetic import (
    H2_AUDIT,
    DiamagneticParams,
    OperatorMatrix,
    h1_generator_expression,
    h1_invariant_expression,
    h1_matrix,
    h2_expression,
    h2_matrix,
    h2_symmetry_report,
)
from rungelenz.errors import DomainError, InternalConsistencyError
from rungelenz.operators import (OperatorExpression, expression_expectation,
                                 l_squared_expression)
from rungelenz.radical import RadicalSum, parse_exact


class TestParams:
    def test_scales(self):
        p = DiamagneticParams(gamma=0.5, n=4)
        assert p.h1_scale() == pytest.approx(0.5**2 * 16 / 16)
        assert p.h2_scale() == pytest.approx((0.25 / 8) ** 2 * 4**6 / 48)

    def test_validation(self):
        with pytest.raises(DomainError):
            DiamagneticParams(gamma=-1.0, n=3)
        with pytest.raises(DomainError):
            DiamagneticParams(gamma=0.0, n=0)

    @pytest.mark.parametrize("gamma", [
        math.nan, math.inf, -math.inf, "0.5", None, True,
        pytest.param(10**400, id="10**400"),
        pytest.param(Fraction(10**400, 3), id="Fraction(10**400, 3)")])
    def test_non_finite_or_non_real_gamma_rejected(self, gamma):
        with pytest.raises(DomainError, match="gamma"):
            DiamagneticParams(gamma=gamma, n=3)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", -1, True])
    def test_non_int_or_non_positive_n_rejected(self, n):
        with pytest.raises(DomainError, match="n = "):
            DiamagneticParams(gamma=0.5, n=n)

    def test_exact_gamma_accepted(self):
        assert DiamagneticParams(gamma=Fraction(1, 2), n=4).h1_scale() == 0.25

    @pytest.mark.parametrize("gamma, n", [
        pytest.param(1e200, 3, id="h1-gamma-squared"),
        pytest.param(1e80, 3, id="h2-gamma-fourth"),
        pytest.param(1.0, 10**60, id="h2-n-sixth"),
        pytest.param(10**100, 3, id="int-gamma"),
        pytest.param(Fraction(1, 2), 10**60, id="fraction-gamma")])
    def test_overflowing_scale_rejected(self, gamma, n):
        with pytest.raises(DomainError, match="overflows a float"):
            DiamagneticParams(gamma=gamma, n=n)

    @pytest.mark.parametrize("gamma, n", [
        (0.5, 4), (0.0, 1), (Fraction(1, 2), 4), (1e70, 3), (0.0, 10**40),
        (1e-200, 3)])
    def test_large_finite_scale_accepted(self, gamma, n):
        p = DiamagneticParams(gamma=gamma, n=n)
        assert math.isfinite(p.h1_scale()) and math.isfinite(p.h2_scale())


class TestH1:
    def test_single_state_value(self):
        mat = h1_matrix(1, 0)
        assert mat.entries == ((RadicalSum.from_rational(4),),)
        assert mat.scale_text == "gamma^2*n^2/16"

    def test_diagonal_entries_from_jz_eigenvalues(self):
        # diagonal = 3n^2 + 1 - (m+q)^2 - (m-q)^2 + (m^2-q^2)
        n, m = 6, 2
        mat = h1_matrix(n, m)
        for i, q in enumerate(mat.qs()):
            want = 3 * n * n + 1 - (m + q) ** 2 - (m - q) ** 2 + (m * m - q * q)
            assert mat.entries[i][i] == RadicalSum.from_rational(want)

    def test_offdiagonal_bandwidth_q_steps_of_two(self):
        mat = h1_matrix(7, 1)
        for i in range(mat.dim):
            for j in range(mat.dim):
                if abs(i - j) > 1:  # adjacent index = q step of 2
                    assert mat.entries[i][j].is_zero
        assert not mat.entries[0][1].is_zero

    def test_dual_form_equality_sweep(self):
        # h1_matrix itself verifies generator vs invariant form; also check
        # the expectation route on a few labels
        for n in range(1, 7):
            for m in range(-(n - 1), n):
                mat = h1_matrix(n, m)
                assert mat.is_symmetric()
                upper = n - abs(m) - 1
                for n1 in range(upper + 1):
                    p = ParabolicLabel(n1, upper - n1, m)
                    a = expression_expectation(h1_generator_expression(n), p)
                    b = expression_expectation(h1_invariant_expression(n), p)
                    assert a == b == mat.entries[n1][n1]

    def test_dual_form_disagreement_halts(self, monkeypatch):
        invariant = diamagnetic.h1_invariant_expression

        def perturbed(n):
            (scalar, word), *rest = invariant(n).terms
            assert word.gens == ()
            return OperatorExpression(((scalar + 1, word), *rest))

        # the checked blocks are memoised: drop any earlier build of (3, 0)
        diamagnetic._h1_entries.cache_clear()
        monkeypatch.setattr(diamagnetic, "h1_invariant_expression", perturbed)
        with pytest.raises(InternalConsistencyError, match="forms disagree"):
            h1_matrix(3, 0)

    def test_parity_conjugation_invariance(self):
        # reflecting q -> -q conjugates H1 into itself
        for n, m in ((5, 0), (6, 1), (6, -2)):
            mat = h1_matrix(n, m)
            d = mat.dim
            for i in range(d):
                for j in range(d):
                    assert mat.entries[i][j] == mat.entries[d - 1 - i][d - 1 - j]

    def test_trace_is_rational(self):
        for n, m in ((4, 0), (5, 2)):
            assert h1_matrix(n, m).trace().is_rational


    def test_expression_must_preserve_m(self):
        from rungelenz.diamagnetic import _expression_matrix
        from rungelenz.operators import OperatorExpression

        shift = OperatorExpression.build((1, ("j1plus",)))
        with pytest.raises(DomainError, match="does not preserve m"):
            _expression_matrix(shift, 3, 0)


class TestSignFold:
    EXPRESSIONS = (h1_generator_expression, h1_invariant_expression, h2_expression)

    def test_blocks_of_plus_and_minus_m_agree(self):
        # the identity the fold rests on, on blocks built independently
        for n in range(1, 8):
            for m in range(1, n):
                for build in self.EXPRESSIONS:
                    expr = build(n)
                    assert diamagnetic._expression_matrix(expr, n, m) == \
                        diamagnetic._expression_matrix(expr, n, -m), (n, m)

    @pytest.mark.parametrize("build", [h1_matrix, h2_matrix])
    def test_minus_m_served_from_the_block_of_m(self, monkeypatch, build):
        n, m = 7, 3
        first = build(n, m)
        built = []
        expression_matrix = diamagnetic._expression_matrix

        def counting(expr, n, m):
            built.append((n, m))
            return expression_matrix(expr, n, m)

        monkeypatch.setattr(diamagnetic, "_expression_matrix", counting)
        second = build(n, -m)
        assert built == []
        assert second.entries is first.entries
        assert (second.n, second.m) == (n, -m)
        assert json.loads(second.to_json())["m"] == -m


class TestBlockKernel:
    """The one-pass block kernel against the dense per-column walk."""

    @staticmethod
    def expressions(n):
        yield h1_generator_expression(n)
        yield h1_invariant_expression(n)
        yield h2_expression(n)
        yield l_squared_expression()
        for _, words in diamagnetic._h2_monomials(n):
            yield OperatorExpression.build(*words)

    @staticmethod
    def column_matrix(expr, n, m):
        upper = n - abs(m) - 1
        cols = []
        for n1 in range(upper + 1):
            image = oracles.dense_expression_apply(
                expr, unit_parabolic(ParabolicLabel(n1, upper - n1, m)))
            assert image.m == m
            cols.append(image.coeffs)
        return tuple(zip(*cols))

    def test_equals_the_column_oracle(self):
        for n in range(1, 9):
            for expr in self.expressions(n):
                for m in range(-(n - 1), n):
                    assert diamagnetic._expression_matrix(expr, n, m) == \
                        self.column_matrix(expr, n, m), (n, m, expr)

    @pytest.mark.parametrize("n, m", [(1, 0), (3, 0), (4, -2), (5, 4)])
    def test_cancelling_off_block_words_give_zero(self, n, m):
        cancel = OperatorExpression.build((1, ("j1plus",)), (-1, ("j1plus",)))
        mat = diamagnetic._expression_matrix(cancel, n, m)
        assert len(mat) == n - abs(m)
        assert all(len(row) == len(mat) and all(x.is_zero for x in row)
                   for row in mat)

    def test_ladder_whose_images_all_vanish_gives_zero(self):
        # j1+ on the one state of (3, 2) meets the manifold edge: no term
        # leaves the block, as with the column route
        mat = diamagnetic._expression_matrix(
            OperatorExpression.build((1, ("j1plus",))), 3, 2)
        assert mat == ((RadicalSum.zero(),),)

    @pytest.mark.parametrize("words", [(("j1plus",),), (("j2minus",),),
                                       (("j1plus",), ("j2plus",))])
    @pytest.mark.parametrize("n, m", [(3, 0), (5, -2)])
    def test_ladder_does_not_preserve_m(self, words, n, m):
        expr = OperatorExpression.build(*((1, w) for w in words))
        with pytest.raises(DomainError, match="does not preserve m"):
            diamagnetic._expression_matrix(expr, n, m)


class TestExpressionMemo:
    def test_each_expression_compiled_once_per_n(self, monkeypatch):
        builds = []
        compiles = []
        compile_ = OperatorExpression.compiled.func

        def counting_compile(expr):
            compiles.append(expr)
            return compile_(expr)

        def counting(build):
            def wrapped(n):
                builds.append((build.__name__, n))
                return build(n)
            return wrapped

        for name in ("h1_generator_expression", "h1_invariant_expression",
                     "h2_expression"):
            monkeypatch.setattr(diamagnetic, name, counting(getattr(diamagnetic, name)))
        monkeypatch.setattr(OperatorExpression.compiled, "func", counting_compile)
        for memo in (diamagnetic._memo_expression, diamagnetic._h1_entries,
                     diamagnetic._h2_entries):
            memo.cache_clear()
        try:
            n = 9
            for m in range(-(n - 1), n):
                h1_matrix(n, m)
                h2_matrix(n, m)
            assert sorted(builds) == [("h1_generator_expression", n),
                                      ("h1_invariant_expression", n),
                                      ("h2_expression", n)]
            assert len(compiles) == 3
            info = diamagnetic._memo_expression.cache_info()
            assert (info.misses, info.currsize) == (3, 3)
        finally:
            for memo in (diamagnetic._memo_expression, diamagnetic._h1_entries,
                         diamagnetic._h2_entries):
                memo.cache_clear()


class TestMatrixShape:
    """OperatorMatrix takes only a block and its dim x dim entries."""

    def test_every_built_block_constructs(self):
        for n in range(1, 11):
            for m in range(-(n - 1), n):
                for build in (h1_matrix, h2_matrix):
                    mat = build(n, m)
                    assert OperatorMatrix(n, m, "s", mat.entries).dim == n - abs(m)

    def test_entries_of_another_block_rejected(self):
        # 3 q values over a 2 x 2 matrix
        with pytest.raises(DomainError, match="3 x 3"):
            OperatorMatrix(3, 0, "s", h1_matrix(2, 0).entries)

    def test_pair_that_is_not_a_block_rejected(self):
        with pytest.raises(DomainError, match="not a block"):
            OperatorMatrix(3, 7, "s", ())

    @pytest.mark.parametrize("entries", [
        pytest.param([[RadicalSum.zero()]], id="lists"),
        pytest.param(((RadicalSum.zero(), RadicalSum.zero()),), id="ragged"),
        pytest.param(((Fraction(0),),), id="fraction-entry"),
        pytest.param(("0/1",), id="string-row")])
    def test_malformed_entries_rejected(self, entries):
        with pytest.raises(DomainError, match="1 x 1"):
            OperatorMatrix(2, 1, "s", entries)


class TestBlockRange:
    @pytest.mark.parametrize("n, m", [(3, 5), (3, -3), (0, 0), (-2, 0),
                                      (True, 0), (2.0, 0), (2, 0.0), (2, False)])
    def test_blocks_outside_the_manifold_rejected(self, n, m):
        for build in (h1_matrix, h2_matrix, h2_symmetry_report):
            with pytest.raises(DomainError, match="not a block"):
                build(n, m)

    def test_edge_blocks_accepted(self):
        assert h1_matrix(3, -2).dim == h2_matrix(3, 2).dim == 1
        assert h2_symmetry_report(1, 0) == []


class TestH2:
    def test_single_state_scalar(self):
        mat = h2_matrix(1, 0)
        assert mat.entries == ((RadicalSum.from_rational(-848),),)

    def test_one_dimensional_manifold_direct_substitution(self):
        # m = n-1: single state with q = 0, j1z = j2z = m/2; ladder terms die
        n = 3
        m = n - 1
        mat = h2_matrix(n, m)
        assert mat.dim == 1
        jz = Fraction(m, 2)
        want = (Fraction(-223 * n**4 - 598 * n**2 - 27)
                + 192 * 2 * jz**4 + 144 * jz**4
                - (176 * n * n + 752) * jz * jz
                + (2 * jz * jz) * (-32 * jz * jz + 284 * n * n + 372))
        assert mat.entries[0][0] == RadicalSum.from_rational(want)

    def test_symmetry_holds_and_report_empty(self):
        for n in range(1, 7):
            for m in range(-(n - 1), n):
                assert h2_matrix(n, m).is_symmetric(), (n, m)
        assert h2_symmetry_report(6, 0) == []
        assert h2_symmetry_report(5, -1) == []

    def test_report_names_the_asymmetric_monomial(self, monkeypatch):
        # keep only the j1+^2 j2-^2 half of the squared-ladder monomial: its
        # part raises q by 4, so it fills the lower band only
        monomials = diamagnetic._h2_monomials
        label = "+48 (j1+^2 j2-^2 + j1-^2 j2+^2)"

        def one_sided(n):
            rows = monomials(n)
            return [(lab, words[:1] if lab == label else words)
                    for lab, words in rows]

        built = []
        expression_matrix = diamagnetic._expression_matrix

        def counting(expr, n, m):
            built.append(expr)
            return expression_matrix(expr, n, m)

        monkeypatch.setattr(diamagnetic, "_h2_monomials", one_sided)
        monkeypatch.setattr(diamagnetic, "_expression_matrix", counting)
        report = h2_symmetry_report(4, 0)
        assert [(f["q_row"], f["q_col"]) for f in report] == [(-3, 1), (-1, 3)]
        for f in report:
            [entry] = f["monomials"]
            assert entry["monomial"] == label
            assert entry["upper"] == "0/1" and entry["lower"] != "0/1"
            assert f["upper"] != f["lower"]
        # the full matrix, then each of the 8 monomials once
        assert len(built) == 1 + len(H2_AUDIT)

    def test_bandwidth_two_q_steps(self):
        mat = h2_matrix(8, 1)
        for i in range(mat.dim):
            for j in range(mat.dim):
                if abs(i - j) > 2:  # |q - q'| > 4
                    assert mat.entries[i][j].is_zero
        assert not mat.entries[0][2].is_zero  # the squared-ladder band

    def test_audit_table_covers_printed_monomials(self):
        assert len(H2_AUDIT) == 8
        assert any("208" in label for label in H2_AUDIT)
        assert any("j1+^2 j2-^2" in label for label in H2_AUDIT)
        # every audit label's words are encoded in the assembled expression
        assert len(h2_expression(3).terms) == 23

    def test_trace_is_rational(self):
        assert h2_matrix(5, 1).trace().is_rational


class TestSerialization:
    def test_json_round_trips_exact_entries(self):
        mat = h1_matrix(4, 1)
        payload = json.loads(mat.to_json())
        assert payload["n"] == 4 and payload["m"] == 1
        assert payload["scale"] == "gamma^2*n^2/16"
        assert payload["q"] == [-2, 0, 2]
        for i in range(mat.dim):
            for j in range(mat.dim):
                assert parse_exact(payload["entries"][i][j]) == mat.entries[i][j]

    def test_matrix_dataclass_shape(self):
        mat = OperatorMatrix(2, 0, "s", h1_matrix(2, 0).entries)
        assert mat.dim == 2

    def test_writer_equals_json_dumps(self):
        # every block to n = 8, and a hand-built matrix whose scale needs escaping
        mats = [build(n, m) for build in (h1_matrix, h2_matrix)
                for n in range(1, 9) for m in range(-(n - 1), n)]
        mats.append(OperatorMatrix(2, 0, 'a "scale" \u2014', h1_matrix(2, 0).entries))
        for mat in mats:
            assert mat.to_json() == oracles.matrix_json(mat), (mat.n, mat.m)

    @pytest.mark.parametrize("build", [h1_matrix, h2_matrix])
    def test_shared_entries_rendered_once(self, build, monkeypatch):
        first = build(5, 2).to_json()
        calls = []
        render = diamagnetic.render_exact

        def counting(value):
            calls.append(value)
            return render(value)

        monkeypatch.setattr(diamagnetic, "render_exact", counting)
        assert build(5, 2).to_json() == first
        assert json.loads(build(5, -2).to_json())["entries"] == json.loads(first)["entries"]
        assert calls == []

    def test_rebuilt_entries_are_rendered_afresh(self, monkeypatch):
        # the rendered rows belong to the entries they came from: a block
        # rebuilt after its memo is cleared is rendered again
        h2_matrix(3, 0).to_json()
        diamagnetic._h2_entries.cache_clear()
        expression_matrix = diamagnetic._expression_matrix

        def doubled(expr, n, m):
            return tuple(tuple(x * 2 for x in row) for row in expression_matrix(expr, n, m))

        monkeypatch.setattr(diamagnetic, "_expression_matrix", doubled)
        try:
            mat = h2_matrix(3, 0)
            entries = json.loads(mat.to_json())["entries"]
            assert [[parse_exact(x) for x in row] for row in entries] == \
                [list(row) for row in mat.entries]
        finally:
            diamagnetic._h2_entries.cache_clear()
