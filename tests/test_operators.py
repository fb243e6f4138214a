"""A_z action, matrix powers, ladder generators and the expression engine."""
import math
import random
from fractions import Fraction
from itertools import product

import pytest

import oracles
from oracles import a_squared_expectation, all_labels, az_expression
from rungelenz.basis import (
    ManifoldState,
    ParabolicLabel,
    SphericalLabel,
    b_matrix,
    q_values,
    spherical_ls,
    to_parabolic,
    to_spherical,
    unit_parabolic,
    unit_spherical,
)
from rungelenz import operators
from rungelenz.diamagnetic import (
    h1_generator_expression,
    h1_invariant_expression,
    h2_expression,
)
from rungelenz.errors import DomainError, InternalConsistencyError
from rungelenz.operators import (
    GENERATORS,
    GeneratorWord,
    OperatorExpression,
    az_power_matrix,
    beta,
    beta_squared,
    expression_apply,
    expression_expectation,
    generator_apply,
    l_squared_expression,
    word_apply,
)
from rungelenz.radical import RadicalSum


class TestBeta:
    def test_unit_value(self):
        assert beta(2, 1, 0) == RadicalSum.from_rational(1)

    def test_vanishes_at_l_equals_n(self):
        assert beta(5, 5, 0).is_zero

    def test_vanishes_when_l_squared_equals_m_squared(self):
        assert beta(9, 4, 4).is_zero
        assert beta(9, 4, -4).is_zero

    def test_l_zero_m_zero_defined_as_zero(self):
        # numerator vanishes; the negative denominator 4l^2-1 = -1 is moot
        assert beta(7, 0, 0).is_zero

    def test_out_of_range_clamps_to_zero(self):
        assert beta_squared(9, 2, 4) == 0  # l < |m|
        assert beta_squared(5, 7, 0) == 0  # l > n

    def test_frozen_irrational_value(self):
        assert beta(9, 5, 4) == RadicalSum({154: Fraction(2, 11)})
        assert beta_squared(9, 5, 4) == Fraction(56, 11)

    def test_negative_l_rejected(self):
        with pytest.raises(DomainError):
            beta(4, -1, 0)

    @pytest.mark.parametrize("args", [(3.0, 1, 0), (True, 1, 0), (3.5, 1, 0),
                                      (3, 1.0, 0), (3, 1, False), ("3", 1, 0)])
    def test_beta_squared_non_int_arguments_rejected_cold_and_warm(self, args):
        beta_squared.cache_clear()
        with pytest.raises(DomainError, match="needs int arguments"):
            beta_squared(*args)
        assert beta_squared(3, 1, 0) == Fraction(8, 3)  # an equal int key is cached
        with pytest.raises(DomainError, match="needs int arguments"):
            beta_squared(*args)

    @pytest.mark.parametrize("args", [(-3, 1, 0), (0, 0, 0), (3, 1, 3), (3, 2, -5)])
    def test_block_outside_the_manifold_rejected(self, args):
        with pytest.raises(DomainError, match="not a block of the manifold"):
            beta(*args)

    def test_block_boundaries_stay_zero(self):
        # beta at l = n and l = |m| is the boundary 0: A_z has no entry past
        # l = n-1 or below l = |m|
        for n in range(1, 8):
            for m in range(-(n - 1), n):
                assert beta(n, n, m).is_zero and beta(n, abs(m), m).is_zero

    @pytest.mark.parametrize("args", [(3.0, 1, 0), (3, True, 0), (3, 1, 0.0),
                                      (3, 1, False), ("3", 1, 0)])
    def test_non_int_arguments_rejected_cold_and_warm(self, args):
        with pytest.raises(DomainError, match="needs int arguments"):
            beta(*args)
        beta(3, 1, 0)  # beta_squared caches the equal int key; it must not answer
        with pytest.raises(DomainError, match="needs int arguments"):
            beta(*args)


class TestAzSpherical:
    # column l of the k = 1 matrix is A_z |n l m>

    def test_ground_pair(self):
        col = [row[0] for row in az_power_matrix(2, 0, 1)]
        assert col == [RadicalSum.zero(), RadicalSum.from_rational(1)]

    def test_circular_state_annihilated(self):
        for n in (2, 4, 7):
            assert az_power_matrix(n, n - 1, 1) == ((RadicalSum.zero(),),)

    def test_single_term_when_lower_beta_vanishes(self):
        # beta(9, 4, 4) = 0 since l^2 = m^2, so only the l = 5 term survives
        # (l = 3 is not even in the |m| = 4 block)
        col = [row[0] for row in az_power_matrix(9, 4, 1)]
        assert col[1] == beta(9, 5, 4)
        assert [l for l, c in zip(range(4, 9), col) if not c.is_zero] == [5]

    def test_matrix_is_symmetric_tridiagonal_zero_diagonal(self):
        M = az_power_matrix(7, 2, 1)
        ls = list(spherical_ls(7, 2))
        for i in range(len(ls)):
            assert M[i][i].is_zero
            for j in range(len(ls)):
                assert M[i][j] == M[j][i]
                if abs(i - j) > 1:
                    assert M[i][j].is_zero
                elif j == i + 1:
                    assert M[i][j] == beta(7, ls[i] + 1, 2)


class TestAzPowers:
    def test_power_zero_is_identity(self):
        M = az_power_matrix(5, 1, 0)
        for i in range(4):
            for j in range(4):
                assert M[i][j] == RadicalSum.from_rational(1 if i == j else 0)

    def test_power_two_diagonal_matches_expansion(self):
        # diagonal of A_z^2 is beta^2(l) + beta^2(l+1)
        n, m = 8, 1
        M = az_power_matrix(n, m, 2)
        for i, l in enumerate(spherical_ls(n, m)):
            want = beta_squared(n, l, m) + beta_squared(n, l + 1, m)
            assert M[i][i] == RadicalSum.from_rational(want)

    def test_power_three_chains_match_expansion(self):
        # <l-3|A_z^3|l> = beta(l-2) beta(l-1) beta(l),
        # <l-1|A_z^3|l> = beta(l) [beta^2(l-1) + beta^2(l) + beta^2(l+1)];
        # <l-2|A_z^2|l> = beta(l-1) beta(l), and the A_z^4 entries
        # l -> l-4, l-2, l, l+2, l+4 as the beta chains of the power-4 rule
        n, m = 9, 2
        M = az_power_matrix(n, m, 3)
        am = abs(m)
        ls = list(spherical_ls(n, m))
        for i, l in enumerate(ls):
            if l - 3 >= am:
                want = beta(n, l - 2, m) * beta(n, l - 1, m) * beta(n, l, m)
                assert M[i - 3][i] == want
            if l - 1 >= am:
                bracket = (beta_squared(n, l - 1, m) + beta_squared(n, l, m)
                           + beta_squared(n, l + 1, m))
                assert M[i - 1][i] == beta(n, l, m) * bracket

        def b(*chain):
            out = RadicalSum.from_rational(1)
            for l in chain:
                out = out * beta(n, l, m)
            return out

        def bsq(*chain):
            return sum(beta_squared(n, l, m) for l in chain)

        M2 = az_power_matrix(n, m, 2)
        M4 = az_power_matrix(n, m, 4)
        top = n - 1
        for i, l in enumerate(ls):
            if l - 4 >= am:
                assert M4[i - 4][i] == b(l - 3, l - 2, l - 1, l)
            if l - 2 >= am:
                assert M2[i - 2][i] == b(l - 1, l)
                assert M4[i - 2][i] == b(l - 1, l) * bsq(l - 2, l - 1, l, l + 1)
            diag = (bsq(l + 1) * bsq(l, l + 1, l + 2)
                    + bsq(l) * bsq(l - 1, l, l + 1))
            assert M4[i][i] == RadicalSum.from_rational(diag)
            if l + 2 <= top:
                assert M4[i + 2][i] == b(l + 1, l + 2) * bsq(l, l + 1, l + 2, l + 3)
            if l + 4 <= top:
                assert M4[i + 4][i] == b(l + 1, l + 2, l + 3, l + 4)

    def test_matches_dense_products(self):
        # the A_z action applied k times against the dense beta-matrix powers
        for n in range(1, 9):
            for m in range(-(n - 1), n):
                for k in range(9):
                    assert az_power_matrix(n, m, k) == oracles.az_power_matrix(
                        n, m, k), (n, m, k)

    def test_spherical_sum_rule_over_the_parabolic_index(self):
        # B diagonalises A_z with eigenvalues q, so
        # sum_n1 q^k B[n1, l] B[n1, l'] = <n l m|A_z^k|n l' m>; at k = 0 this
        # is the orthonormality of B's columns
        for n in range(1, 9):
            for m in range(-(n - 1), n):
                B, qs = b_matrix(n, m), q_values(n, m)
                for i, j in product(range(n - abs(m)), repeat=2):
                    terms = [row[i] * row[j] for row in B]
                    for k in range(9):
                        want = sum((t * q**k for t, q in zip(terms, qs)),
                                   RadicalSum.zero())
                        assert az_power_matrix(n, m, k)[i][j] == want, (n, m, k, i, j)

    def test_high_power_is_a_loop(self):
        # n = 2, m = 0: A_z has eigenvalues +-1, so every even power is the
        # identity; k is a loop count, not a recursion depth
        one, zero = RadicalSum.from_rational(1), RadicalSum.zero()
        assert az_power_matrix(2, 0, 2000) == ((one, zero), (zero, one))

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError):
            az_power_matrix(3, 0, -1)
        with pytest.raises(DomainError):
            az_power_matrix(3, 0, -1.0)

    @pytest.mark.parametrize("args", [(3, 5, 1), (0, 0, 1), (-2, 0, 2), (3, -3, 0)])
    def test_block_outside_the_manifold_rejected(self, args):
        with pytest.raises(DomainError, match="not a block of the manifold"):
            az_power_matrix(*args)

    @pytest.mark.parametrize("args", [(2.0, 0, 1), (2, 0.0, 1), (2, False, 1),
                                      (2, 0, 1.0), (2, 0, True), (True, 0, 1)])
    def test_non_int_arguments_rejected_cold_and_warm(self, args):
        az_power_matrix.cache_clear()
        with pytest.raises(DomainError, match="needs int arguments"):
            az_power_matrix(*args)
        az_power_matrix(2, 0, 1)  # an equal int key is cached
        with pytest.raises(DomainError, match="needs int arguments"):
            az_power_matrix(*args)

    def test_bandwidth_and_parity_pattern(self):
        n, m = 9, 0
        for k in (2, 3, 4, 5):
            M = az_power_matrix(n, m, k)
            dim = n - abs(m)
            for i in range(dim):
                for j in range(dim):
                    assert M[i][j] == M[j][i]
                    if abs(i - j) > k or (i - j - k) % 2:
                        assert M[i][j].is_zero, (k, i, j)

    def test_spectrum_via_tridiagonal_determinant(self):
        # det(A_z - q I) = 0 exactly for each admissible q (n <= 8)
        for n in range(1, 9):
            for m in range(-(n - 1), n):
                betas = [beta_squared(n, l + 1, m) for l in spherical_ls(n, m)]
                dim = n - abs(m)
                for q in q_values(n, m):
                    fprev, fcur = Fraction(1), Fraction(-q)
                    for i in range(1, dim):
                        fprev, fcur = fcur, -q * fcur - betas[i - 1] * fprev
                    det = fcur if dim else Fraction(1)
                    assert det == 0, (n, m, q)
                # a right-parity non-eigenvalue has nonzero determinant
                q_bad = max(q_values(n, m)) + 2
                fprev, fcur = Fraction(1), Fraction(-q_bad)
                for i in range(1, dim):
                    fprev, fcur = fcur, -q_bad * fcur - betas[i - 1] * fprev
                assert fcur != 0


class TestGenerators:
    def test_az_diagonal_with_q(self):
        p = ParabolicLabel(3, 1, 1)  # q = 2
        state = unit_parabolic(p)
        out = expression_apply(az_expression(), state)
        assert out.coefficient(p.n1) == RadicalSum.from_rational(2)

    def test_j1plus_top_of_ladder_annihilates(self):
        # mu1 = j: n2 = 0 at m >= 0
        p = ParabolicLabel(2, 0, 1)
        out = generator_apply("j1plus", unit_parabolic(p))
        assert out.is_zero

    def test_ladder_changes_m_and_q_together(self):
        p = ParabolicLabel(1, 1, 0)  # n = 3
        out = generator_apply("j1plus", unit_parabolic(p))
        assert out.m == 1 and not out.is_zero
        # target q = 1, i.e. n1 = 1 within the (3, 1) block
        assert not out.coefficient(1).is_zero

    def test_j1z_j2z_product_eigenvalue(self):
        for p in (ParabolicLabel(2, 1, 1), ParabolicLabel(0, 3, -2)):
            expr = OperatorExpression.build((1, ("j1z", "j2z")))
            got = expression_expectation(expr, p)
            want = Fraction(p.m**2 - p.q**2, 4)
            assert got == RadicalSum.from_rational(want)

    def test_z_generators_commute(self):
        p = ParabolicLabel(2, 1, 0)
        a = OperatorExpression.build((1, ("j1z", "j2z")))
        b = OperatorExpression.build((1, ("j2z", "j1z")))
        state = unit_parabolic(p)
        assert expression_apply(a, state) == expression_apply(b, state)

    def test_identity_word(self):
        state = unit_parabolic(ParabolicLabel(1, 2, 1))
        assert word_apply(GeneratorWord(()), state) == state
        assert generator_apply("identity", state) == state

    def test_unknown_generator_rejected(self):
        with pytest.raises(DomainError):
            generator_apply("j3plus", unit_parabolic(ParabolicLabel(0, 0, 0)))
        with pytest.raises(DomainError):
            GeneratorWord(("nope",))

    def test_string_for_a_word_rejected(self):
        with pytest.raises(DomainError, match="tuple of generator names"):
            GeneratorWord("j1z")
        with pytest.raises(DomainError, match="tuple of generator names"):
            OperatorExpression.build((1, "j1z"))

    @pytest.mark.parametrize("terms", [((1, ("j1z",)),), ((1,),), (5,),
                                       ((1, GeneratorWord(()), 2),)])
    def test_term_that_is_not_a_word_pair_rejected(self, terms):
        with pytest.raises(DomainError, match="GeneratorWord\\) pair"):
            OperatorExpression(terms)
        assert OperatorExpression.build((1, ("j1z",))).terms == (
            (Fraction(1), GeneratorWord(("j1z",))),)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scales_rejected(self, bad):
        with pytest.raises(DomainError, match="finite rational"):
            OperatorExpression.build((bad, ()))
        with pytest.raises(DomainError, match="finite rational"):
            az_expression().scaled(bad)

    def test_ladder_coefficient_matches_printed_brackets(self):
        # j1+ carries sqrt([n-1-m-n1+n2][n+1+m+n1-n2])/2
        p = ParabolicLabel(1, 2, 1)  # n = 5
        n, m, q = p.n, p.m, p.q
        out = generator_apply("j1plus", unit_parabolic(p))
        rad = (n - 1 - m - q) * (n + 1 + m + q)
        want = RadicalSum.from_sqrt(Fraction(rad, 4))
        new_upper = n - abs(m + 1) - 1
        assert out.coefficient((new_upper + q + 1) // 2) == want

    def test_mixed_m_output_rejected(self):
        expr = OperatorExpression.build((1, ("j1plus",)), (1, ()))
        with pytest.raises(DomainError, match="m blocks"):
            expression_apply(expr, unit_parabolic(ParabolicLabel(1, 1, 0)))

    def test_images_that_cancel_across_columns_are_dropped(self):
        """At (n, m) = (2, 0), j1+ |0> = |m=1> and j2+ |1> = -|m=1>, so on
        the state (1, 1) the two ladders cancel exactly in the m = 1 block."""
        ladders = OperatorExpression.build((1, ("j1plus",)), (1, ("j2plus",)))
        expr = ladders + OperatorExpression.build((1, ()))
        one = RadicalSum.from_rational(1)
        state = ManifoldState("parabolic", 2, 0, (one, one))
        assert expression_apply(expr, state) == state
        assert expression_apply(ladders, state) == \
            ManifoldState("parabolic", 2, 0, (RadicalSum.zero(),) * 2)
        opposite = ManifoldState("parabolic", 2, 0, (one, -one))
        with pytest.raises(DomainError, match="spans m blocks"):
            expression_apply(expr, opposite)


def seeded_states(n, m, seed, count=2):
    """Parabolic states of the (n, m) block with seeded mixed coefficients:
    zeros, rationals and sums over the radicands 1, 2, 3 and 6."""
    rng = random.Random(seed)
    states = []
    for _ in range(count):
        coeffs = []
        for _ in range(n - abs(m)):
            terms = {d: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for d in rng.sample((1, 2, 3, 6), rng.randint(0, 2))}
            coeffs.append(RadicalSum(terms))
        states.append(ManifoldState("parabolic", n, m, tuple(coeffs)))
    return states


def block_states(n, m, seed):
    upper = n - abs(m) - 1
    units = [unit_parabolic(ParabolicLabel(n1, upper - n1, m))
             for n1 in range(upper + 1)]
    return units + seeded_states(n, m, seed)


class TestBasisWalk:
    """The basis-state walk against the dense per-generator reference walk."""

    EXPRESSIONS = {
        "h1-generator": h1_generator_expression,
        "h1-invariant": h1_invariant_expression,
        "h2": h2_expression,
        "l-squared": lambda n: l_squared_expression(),
    }

    @pytest.mark.parametrize("name", sorted(EXPRESSIONS))
    def test_words_and_expressions_match_dense_walk(self, name):
        for n in range(1, 7):
            expr = self.EXPRESSIONS[name](n)
            for m in range(-(n - 1), n):
                for state in block_states(n, m, seed=100 * n + m):
                    for coeff, word in expr.terms:
                        assert word_apply(word, state) == \
                            oracles.dense_word_apply(word, state), (n, m, word)
                        scaled = OperatorExpression(((coeff, word),))
                        assert expression_apply(scaled, state) == \
                            oracles.dense_expression_apply(scaled, state), \
                            (n, m, coeff, word)
                    assert expression_apply(expr, state) == \
                        oracles.dense_expression_apply(expr, state), (n, m)

    def test_single_generators_match_dense_walk(self):
        for n in range(1, 7):
            for m in range(-(n - 1), n):
                for state in block_states(n, m, seed=7 * n + m):
                    for gen in GENERATORS + ("identity",):
                        assert generator_apply(gen, state) == \
                            oracles.dense_generator_apply(gen, state), (n, m, gen)

    def test_non_dyadic_scales_match_dense_walk(self):
        # coefficients off the dyadic grid and state coefficients over 5, 9
        # and 11: the walk's integers go over one denominator per expression
        # and one per state
        scales = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 9))
        rng = random.Random(13)
        for n in range(1, 7):
            expr = OperatorExpression(tuple(
                (coeff / (2 * i + 3) * scales[i % 3], word)
                for i, (coeff, word) in enumerate(h2_expression(n).terms)))
            for m in range(-(n - 1), n):
                upper = n - abs(m) - 1
                for _ in range(2):
                    state = ManifoldState("parabolic", n, m, tuple(
                        RadicalSum({d: Fraction(rng.choice((-7, -1, 2, 4)),
                                                rng.choice((5, 9, 11)))
                                    for d in rng.sample((1, 2, 3, 5), 2)})
                        for _ in range(upper + 1)))
                    for _, word in expr.terms:
                        assert word_apply(word, state) == \
                            oracles.dense_word_apply(word, state), (n, m, word)
                    want = oracles.dense_expression_apply(expr, state)
                    assert expression_apply(expr, state) == want, (n, m)
                for n1 in range(upper + 1):
                    p = ParabolicLabel(n1, upper - n1, m)
                    want = oracles.dense_expression_apply(expr, unit_parabolic(p))
                    assert expression_expectation(expr, p) == \
                        want.coefficient(n1), p

    def test_zero_image_into_existing_block_lands_there(self):
        p = ParabolicLabel(2, 0, 1)  # n = 4, top of the j1 ladder
        out = generator_apply("j1plus", unit_parabolic(p))
        assert out.is_zero and out.m == 2 and out.dim == 2
        out = word_apply(GeneratorWord(("j2plus", "j1plus")), unit_parabolic(p))
        assert out.is_zero and out.m == 3 and out.dim == 1

    def test_zero_image_off_the_manifold_stays_in_source_block(self):
        p = ParabolicLabel(0, 0, 2)  # n = 3, m = n - 1
        out = generator_apply("j1plus", unit_parabolic(p))
        assert out.is_zero and out.m == 2 and out.dim == 1
        # the zero image walks on from the source block
        out = word_apply(GeneratorWord(("j1minus", "j1plus")), unit_parabolic(p))
        assert out.is_zero and out.m == 1 and out.dim == 2


class TestLadderGuards:
    def test_negative_radicand_halts(self, monkeypatch):
        # a step of 3 from mu = (-2, 0) at n = 3: (2 + 6) * (4 - 6) = -16
        monkeypatch.setitem(operators._GENERATORS, "j1plus", (0, 3, 1))
        with pytest.raises(InternalConsistencyError, match="negative radicand -1"):
            generator_apply("j1plus", unit_parabolic(ParabolicLabel(0, 1, -1)))

    def test_nonvanishing_step_off_the_manifold_halts(self, monkeypatch):
        # a step of 2 from mu = (0, 0) at n = 3 has radicand 8 and lands on
        # 2 m1 = 4 > n - 1
        monkeypatch.setitem(operators._GENERATORS, "j1plus", (0, 2, 1))
        with pytest.raises(InternalConsistencyError, match="outside the manifold"):
            generator_apply("j1plus", unit_parabolic(ParabolicLabel(1, 1, 0)))


class TestLSquared:
    def test_expectation_closed_form_all_m_signs(self):
        expr = l_squared_expression()
        for n in range(1, 7):
            for p in all_labels(n):
                got = expression_expectation(expr, p)
                want = Fraction(n * n - 1 + p.m**2 - p.q**2, 2)
                assert got == RadicalSum.from_rational(want), p

    def test_diagonal_in_spherical_basis(self):
        expr = l_squared_expression()
        for n in range(1, 9):
            for m in range(-(n - 1), n):
                for l in spherical_ls(n, m):
                    state = to_parabolic(unit_spherical(SphericalLabel(n, l, m)))
                    out = to_spherical(expression_apply(expr, state))
                    for lp in spherical_ls(n, m):
                        want = RadicalSum.from_rational(
                            l * (l + 1) if lp == l else 0)
                        assert out.coefficient(lp) == want

    def test_lz_acts_as_m(self):
        lz = OperatorExpression.build((1, ("j1z",)), (1, ("j2z",)))
        for n in range(1, 6):
            for p in all_labels(n):
                got = expression_expectation(lz, p)
                assert got == RadicalSum.from_rational(p.m)


class TestIntertwining:
    def test_az_conjugated_by_b_is_q(self):
        for n in range(1, 7):
            for p in all_labels(n):
                state = unit_parabolic(p)
                roundtrip = to_parabolic(oracles.az_apply(to_spherical(state)))
                want = tuple(c * Fraction(p.q) for c in state.coeffs)
                assert roundtrip.coeffs == want, p


class TestASquared:
    @pytest.mark.parametrize("n, l, want", [(1, 0, 0), (2, 1, 1), (9, 4, 60)])
    def test_values(self, n, l, want):
        assert a_squared_expectation(SphericalLabel(n, l, 0 if l == 0 else min(l, 4))) \
            == Fraction(want)
