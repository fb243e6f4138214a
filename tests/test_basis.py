"""Basis-change coefficients: three routes, special cases, state transforms."""
import random
from fractions import Fraction
from math import exp

import pytest

import oracles
from oracles import (
    all_labels,
    b_coeff_3f2,
    b_coeff_regge,
    b_special,
    b_squared_asymptotic,
    hypergeometric_sign_survey,
    sign_square,
)
from rungelenz import pfrational
from rungelenz.basis import (
    ManifoldState,
    ParabolicLabel,
    SphericalLabel,
    b_block,
    b_coeff,
    b_matrix,
    q_values,
    spherical_ls,
    to_parabolic,
    to_spherical,
    unit_parabolic,
    unit_spherical,
)
from rungelenz.errors import DomainError, FactorialLimitError
from rungelenz.pfrational import FactorialTable
from rungelenz.radical import RadicalSum
from rungelenz.stark import c_coefficient
from rungelenz.wigner import _threejm_twice


class TestLabels:
    def test_parabolic_derived_quantities(self):
        p = ParabolicLabel(3, 1, 4)
        assert p.n == 9 and p.q == 2

    def test_parabolic_negative_rejected(self):
        with pytest.raises(DomainError):
            ParabolicLabel(-1, 0, 0)
        # fields that are not ints, or are bools, are rejected at the label
        for args in ((True, 0, 0), (1.0, 0, 0), (0, False, 0), (0, 0, 1.0),
                     (0, 0, True), ("1", 0, 0)):
            with pytest.raises(DomainError, match="must be ints"):
                ParabolicLabel(*args)

    def test_spherical_validation(self):
        SphericalLabel(3, 2, -2)
        with pytest.raises(DomainError):
            SphericalLabel(3, 3, 0)
        with pytest.raises(DomainError):
            SphericalLabel(3, 1, 2)
        for args in ((3.0, True, 0), (True, 0, 0), (3.0, 1, 0), (3, True, 0),
                     (3, 1.0, 0), (3, 1, 0.0), (3, 1, False), (0, 0, 0)):
            with pytest.raises(DomainError):
                SphericalLabel(*args)

    def test_index_sets(self):
        assert list(spherical_ls(4, -2)) == [2, 3]
        assert list(q_values(4, -2)) == [-1, 1]
        assert list(q_values(3, 0)) == [-2, 0, 2]


class TestBCoeff:
    def test_two_level_manifold(self):
        p = ParabolicLabel(1, 0, 0)
        assert sign_square(b_coeff(p, 1)) == (-1, Fraction(1, 2))

    def test_one_dimensional_subspace(self):
        p = ParabolicLabel(0, 0, 2)  # n = 3, m = l = 2
        value = b_coeff(p, 2)
        sign, square = sign_square(value)
        assert square == 1

    def test_table1_manifold_entry(self):
        value = b_coeff(ParabolicLabel(3, 1, 4), 4)
        assert sign_square(value) == (1, Fraction(35, 143))

    def test_out_of_manifold_l_rejected(self):
        p = ParabolicLabel(3, 1, 4)
        with pytest.raises(DomainError):
            b_coeff(p, 3)
        with pytest.raises(DomainError):
            b_coeff(p, 9)
        # an l that is not an int, or is a bool, is not l = 1 of the block
        for l in (1.0, True, "1", None):
            for route in (b_coeff, b_coeff_regge, b_coeff_3f2):
                with pytest.raises(DomainError, match="must be an int"):
                    route(ParabolicLabel(0, 1, 0), l)

    @pytest.mark.parametrize("n,m", [(3, 5), (3, -3), (0, 0), (-1, 0), (1, 1)])
    def test_out_of_manifold_block_rejected(self, n, m):
        for build in (b_block, b_matrix):
            with pytest.raises(DomainError, match=r"\|m\| <= n-1"):
                build(n, m)
        # C is a 3jm, which its selection rules send to zero there; an n
        # below 1 has no manifold at all
        if n >= 1:
            assert c_coefficient(n, 0, abs(m), m).is_zero
        else:
            with pytest.raises(DomainError, match="must be an int >= 1"):
                c_coefficient(n, 0, abs(m), m)

    @pytest.mark.parametrize("n,m", [(2.0, 0), (True, 0), (2, 0.0), (2, False), ("2", 0)])
    def test_non_int_block_rejected(self, n, m):
        b_block(2, 0)  # an equal int key is cached; it must not answer for n, m
        for build in (b_block, b_matrix):
            with pytest.raises(DomainError, match="need int n and m"):
                build(n, m)

    def test_sweep_against_oracle(self):
        for n in range(1, 8):
            for p in all_labels(n):
                for l in spherical_ls(n, p.m):
                    got = sign_square(b_coeff(p, l))
                    want = oracles.b_sq(n, p.n1, p.n2, p.m, l)
                    assert got == want, (p, l)

    def test_matrix_equals_single_3jm_definition(self):
        for n in range(1, 11):
            for p in all_labels(n):
                row = b_matrix(n, p.m)[p.n1]
                for l in spherical_ls(n, p.m):
                    assert row[l - abs(p.m)] == oracles.b_coeff(p, l), (p, l)

    def test_block_needs_factorials_to_2n_minus_1(self, monkeypatch):
        # one 3jm entry needs only (n+l)!, the whole n = 130 block 259!
        monkeypatch.setattr(pfrational, "_default_table", FactorialTable(258))
        p = ParabolicLabel(0, 128, 1)
        with pytest.raises(FactorialLimitError, match="need 259!"):
            b_coeff(p, 1)

    def test_regge_route_identical(self):
        for n in range(1, 9):
            for p in all_labels(n):
                for l in spherical_ls(n, p.m):
                    assert b_coeff_regge(p, l) == b_coeff(p, l), (p, l)

    def test_completeness_and_orthogonality(self):
        for n in range(1, 9):
            for m in range(-(n - 1), n):
                B = b_matrix(n, m)
                dim = n - abs(m)
                for a in range(dim):
                    for b in range(a, dim):
                        total = RadicalSum.zero()
                        for c in range(dim):
                            total = total + B[a][c] * B[b][c]
                        assert total == RadicalSum.from_rational(1 if a == b else 0)

    def test_q_average_of_square_is_inverse_dimension(self):
        # column normalization: the q-mean of B^2(l) is exactly 1/(n - |m|)
        for n, m in ((6, 0), (7, 2), (7, -3)):
            dim = n - abs(m)
            for l in spherical_ls(n, m):
                total = Fraction(0)
                for row in b_matrix(n, m):
                    s, sq = sign_square(row[l - abs(m)])
                    total += sq
                assert total == 1
                assert Fraction(total, dim) == Fraction(1, dim)


class TestHypergeometricRoute:
    def test_negative_m_unsupported(self):
        with pytest.raises(DomainError, match="b_coeff"):
            b_coeff_3f2(ParabolicLabel(1, 1, -1), 1)

    def test_two_level_square(self):
        p = ParabolicLabel(1, 0, 0)
        assert sign_square(b_coeff_3f2(p, 1))[1] == Fraction(1, 2)

    def test_zero_upper_parameter_reduces_to_prefactor(self):
        # n1 = 0 terminates the series at its first (unit) term
        p = ParabolicLabel(0, 2, 1)
        for l in spherical_ls(p.n, 1):
            value = b_coeff_3f2(p, l)
            assert sign_square(value)[1] == sign_square(b_coeff(p, l))[1]

    def test_matches_highest_l_closed_form(self):
        p = ParabolicLabel(3, 1, 4)
        hyper = b_coeff_3f2(p, 8)
        special = b_special(p, "n-1")
        assert sign_square(hyper)[1] == sign_square(special)[1] == Fraction(16, 65)

    def test_squares_agree_with_3jm_route(self):
        for n in range(1, 9):
            for m in range(0, n):
                upper = n - m - 1
                for n1 in range(upper + 1):
                    p = ParabolicLabel(n1, upper - n1, m)
                    for l in spherical_ls(n, m):
                        assert (sign_square(b_coeff_3f2(p, l))[1]
                                == sign_square(b_coeff(p, l))[1]), (p, l)

    def test_sign_relation_measured(self):
        survey = hypergeometric_sign_survey(7)
        assert survey["ratio_is_neg1_pow_n1_plus_n2"] is True
        assert survey["samples"] > 200


class TestSpecialForms:
    def test_symmetric_labels_vanish_at_n_minus_2(self):
        assert b_special(ParabolicLabel(2, 2, 1), "n-2").is_zero

    def test_highest_l_two_level(self):
        value = b_special(ParabolicLabel(1, 0, 0), "n-1")
        assert sign_square(value) == (1, Fraction(1, 2))  # sign convention differs

    def test_l_eq_m_matches_direct_square(self):
        p = ParabolicLabel(1, 0, 1)  # n = 3, l = m = 1
        special = b_special(p, "l-eq-m")
        direct = b_coeff(p, 1)
        assert sign_square(special)[1] == sign_square(direct)[1]

    def test_case_consistency_checks(self):
        with pytest.raises(DomainError):
            b_special(ParabolicLabel(0, 0, 0), "n-2")  # manifold has only l = 0
        with pytest.raises(DomainError):
            b_special(ParabolicLabel(1, 0, -1), "n-1")
        with pytest.raises(DomainError):
            b_special(ParabolicLabel(1, 0, 0), "nope")

    def test_squares_agree_with_direct_route(self):
        for n in range(1, 9):
            for m in range(0, n):
                upper = n - m - 1
                for n1 in range(upper + 1):
                    p = ParabolicLabel(n1, upper - n1, m)
                    pairs = [("n-1", n - 1)]
                    if n - 2 >= m and upper >= 1:
                        pairs.append(("n-2", n - 2))
                    for which, l in pairs:
                        assert (sign_square(b_special(p, which))[1]
                                == sign_square(b_coeff(p, l))[1]), (p, which)
                # l = m case needs n1 + n2 = n - m - 1 with l = m
                for n1 in range(upper + 1):
                    p = ParabolicLabel(n1, upper - n1, m)
                    assert (sign_square(b_special(p, "l-eq-m"))[1]
                            == sign_square(b_coeff(p, m))[1])


class TestAsymptotic:
    def test_direct_substitution(self):
        assert b_squared_asymptotic(100, 0) == pytest.approx(0.01)
        assert b_squared_asymptotic(100, 1) == pytest.approx(0.03 * exp(-0.02))

    def test_range_validation(self):
        with pytest.raises(DomainError):
            b_squared_asymptotic(10, 10)

    @pytest.mark.parametrize("args", [(2.5, 1), (True, 0), (3, 1.0), (3, True)])
    def test_non_int_arguments_rejected(self, args):
        with pytest.raises(DomainError):
            b_squared_asymptotic(*args)

    def test_tracks_extremal_state_distribution(self):
        # the approximation describes the q = n-1 parabolic state; at n = 100
        # the relative error for l <= 3 sits below the calibrated 2e-4
        n = 100
        p = ParabolicLabel(n - 1, 0, 0)
        for l in range(4):
            _, sq = sign_square(b_coeff(p, l))
            exact = float(sq)
            approx = b_squared_asymptotic(n, l)
            assert abs(approx - exact) / exact < 2e-4


def _bits(rows):
    return [[x.hex() for x in row] for row in rows]


class TestHalfBuiltBlock:
    def test_equals_the_every_row_route(self):
        # every (n, |m|) with n <= 24, odd and even row counts; floats as hex
        for n in range(1, 25):
            for m in range(n):
                blk, want = b_block(n, m), oracles.every_row_block(n, m)
                assert (blk.a, blk.rho_num, blk.rho_den) \
                    == (want.a, want.rho_num, want.rho_den), (n, m)
                assert blk.c_gram == want.c_gram, (n, m)
                assert blk.c_monomials == want.c_monomials, (n, m)
                assert _bits(blk.b_floats) == _bits(want.b_floats), (n, m)
                assert _bits(blk.c_floats) == _bits(want.c_floats), (n, m)


class TestFloats:
    def test_equal_the_monomial_route_bit_for_bit(self):
        # every block with n <= 24; hex tells -0.0 from 0.0
        for n in range(1, 25):
            for m in range(n):
                blk = b_block(n, m)
                want_b = oracles.floats(blk.b_monomials())
                want_c = oracles.floats(blk.c_monomials)
                assert _bits(blk.b_floats) == _bits(want_b), (n, m)
                assert _bits(blk.c_floats) == _bits(want_c), (n, m)

    def test_equal_the_single_3jm_route_bit_for_bit(self):
        # rounded from oracles.b_coeff and the bare 3jm, outside the block
        for n in range(1, 13):
            for m in range(n):
                blk = b_block(n, m)
                upper = n - m - 1
                for n1, q in enumerate(q_values(n, m)):
                    p = ParabolicLabel(n1, upper - n1, m)
                    for l in spherical_ls(n, m):
                        c = _threejm_twice(n - 1, n - 1, 2 * l, m - q, m + q, -2 * m)
                        got_b, got_c = blk.b_floats[n1][l - m], blk.c_floats[n1][l - m]
                        assert got_b.hex() == oracles.b_coeff(p, l).to_float().hex(), (p, l)
                        assert got_c.hex() == c.to_float().hex(), (p, l)


class TestStateTransforms:
    def test_unit_parabolic_two_level(self):
        state = to_spherical(unit_parabolic(ParabolicLabel(1, 0, 0)))
        minus_half_sqrt2 = RadicalSum({2: Fraction(-1, 2)})
        assert state.coeffs == (minus_half_sqrt2, minus_half_sqrt2)

    def test_zero_state_maps_to_zero(self):
        zero = ManifoldState("parabolic", 3, 1, (RadicalSum.zero(),) * 2)
        assert to_spherical(zero).is_zero

    def test_round_trip_random_rational_states(self):
        rng = random.Random(5)
        for n, m in ((2, 0), (4, 1), (5, -2), (6, 0)):
            dim = n - abs(m)
            coeffs = tuple(RadicalSum.from_rational(
                Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
                for _ in range(dim))
            state = ManifoldState("parabolic", n, m, coeffs)
            back = to_parabolic(to_spherical(state))
            assert back.coeffs == coeffs
            assert to_spherical(state).norm_squared() == state.norm_squared()

    def test_norm_squared_of_unit_states(self):
        assert unit_parabolic(ParabolicLabel(2, 1, -1)).norm_squared() \
            == RadicalSum.from_rational(1)
        assert unit_spherical(SphericalLabel(4, 2, 1)).norm_squared() \
            == RadicalSum.from_rational(1)

    def test_wrong_basis_rejected(self):
        sph = unit_spherical(SphericalLabel(3, 1, 0))
        with pytest.raises(DomainError):
            to_spherical(sph)
        with pytest.raises(DomainError):
            to_parabolic(unit_parabolic(ParabolicLabel(1, 1, 0)))

    def test_state_validation(self):
        with pytest.raises(DomainError):
            ManifoldState("spherical", 3, 0, (RadicalSum.zero(),) * 2)
        with pytest.raises(DomainError):
            ManifoldState("fourier", 3, 0, (RadicalSum.zero(),) * 3)

    @pytest.mark.parametrize("coeffs", [
        (1, 0), [RadicalSum.zero()] * 2, (RadicalSum.zero(), Fraction(1)),
        (RadicalSum.zero(), None)])
    def test_state_coefficients_must_be_radical_sums(self, coeffs):
        # as OperatorMatrix requires of its entries; a plain number would fail
        # later, in norm_squared or to_spherical, with AttributeError
        with pytest.raises(DomainError, match="tuple of RadicalSums"):
            ManifoldState("parabolic", 2, 0, coeffs)

    @pytest.mark.parametrize("n, m", [(2.0, 0), (3, 1.0), (True, 0), (2, True)])
    def test_state_block_must_be_ints(self, n, m):
        # as many coefficients as n - |m| asks for, so only the type is wrong
        coeffs = (RadicalSum.zero(),) * int(n - abs(m))
        with pytest.raises(DomainError, match="is not a block of the manifold"):
            ManifoldState("spherical", n, m, coeffs)

    def test_coefficient_lookup(self):
        state = to_spherical(unit_parabolic(ParabolicLabel(1, 0, 0)))
        assert state.coefficient(0) == RadicalSum({2: Fraction(-1, 2)})
        with pytest.raises(DomainError):
            state.coefficient(2)
