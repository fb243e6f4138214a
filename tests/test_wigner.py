"""3jm / 6j / Clebsch-Gordan values against an independent Fraction oracle."""
import random
from fractions import Fraction
from itertools import product

import pytest

import oracles
from oracles import ReggeInadmissibleError, regge_transform, sign_square, triangle_ok
from rungelenz import wigner
from rungelenz.errors import DomainError
from rungelenz.radical import RadicalSum
from rungelenz.wigner import (
    ThreeJmArgs,
    clear_caches,
    clebsch_gordan,
    wigner_3jm,
    wigner_6j,
)


class TestTriangle:
    def test_examples(self):
        assert triangle_ok("1/2", "1/2", 1)
        assert not triangle_ok("1/2", "1/2", 2)
        assert not triangle_ok(1, 1, "1/2")  # parity

    def test_matches_oracle(self):
        for ta in range(0, 7):
            for tb in range(0, 7):
                for tc in range(0, 9):
                    assert triangle_ok(Fraction(ta, 2), Fraction(tb, 2),
                                       Fraction(tc, 2)) == oracles.tri_ok(ta, tb, tc)


@pytest.mark.parametrize("value", [None, 1j, [1], b"1"])
def test_non_numbers_rejected_as_half_integers(value):
    # Fraction raises TypeError on these; every entry point makes it a DomainError
    for call in (lambda: wigner.twice(value),
                 lambda: wigner_3jm(value, 1, 1, 0, 0, 0),
                 lambda: wigner_6j(value, 1, 1, 1, 1, 1),
                 lambda: clebsch_gordan(value, 0, 1, 0, 1, 0)):
        with pytest.raises(DomainError, match="is not an int, Fraction, float or string"):
            call()


def test_bools_rejected_as_half_integers():
    # True == 1, but a bool is no half-integer: every entry point refuses it
    for call in (lambda: wigner.twice(True),
                 lambda: triangle_ok(True, True, 1),
                 lambda: wigner_3jm(True, True, 0, 0, 0, 0),
                 lambda: wigner_3jm(ThreeJmArgs(1, 1, 0, False, 0, 0)),
                 lambda: wigner_6j(True, True, True, True, True, True),
                 lambda: clebsch_gordan(True, 0, True, 0, 0, 0)):
        with pytest.raises(DomainError, match="is a bool, not a half-integer"):
            call()


class TestThreeJm:
    def test_frozen_half_integer_value(self):
        value = wigner_3jm("1/2", "1/2", 1, "1/2", "-1/2", 0)
        assert sign_square(value) == (1, Fraction(1, 6))

    def test_m_sum_violation_is_zero(self):
        assert wigner_3jm("1/2", "1/2", 1, "1/2", "1/2", 0).is_zero

    def test_frozen_integer_value(self):
        assert sign_square(wigner_3jm(1, 1, 2, 0, 0, 0)) == (1, Fraction(2, 15))

    def test_triangle_violation_is_zero(self):
        assert wigner_3jm(1, 1, 3, 0, 0, 0).is_zero

    def test_args_dataclass_entry(self):
        args = ThreeJmArgs("1/2", "1/2", 1, "1/2", "-1/2", 0)
        assert args.j3 == 1 and all(type(x) is Fraction for x in vars(args).values())
        assert wigner_3jm(args) == wigner_3jm("1/2", "1/2", 1, "1/2", "-1/2", 0)

    def test_args_validation(self):
        with pytest.raises(DomainError):
            ThreeJmArgs(1, 1, 1, 2, -1, -1)  # |m| > j
        with pytest.raises(DomainError):
            ThreeJmArgs(1, 1, 1, "1/2", "-1/2", 0)  # parity

    def test_sweep_against_oracle(self):
        for tj1 in range(0, 7):
            for tj2 in range(0, 7):
                for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            tm3 = -tm1 - tm2
                            if abs(tm3) > tj3:
                                continue
                            got = wigner_3jm(*(Fraction(t, 2) for t in
                                               (tj1, tj2, tj3, tm1, tm2, tm3)))
                            want = oracles.threejm_sq(tj1, tj2, tj3, tm1, tm2, tm3)
                            assert sign_square(got) == want, (tj1, tj2, tj3, tm1, tm2, tm3)

    def test_column_symmetries(self):
        rng = random.Random(7)
        for _ in range(150):
            tj1, tj2 = rng.randrange(0, 9), rng.randrange(0, 9)
            if not range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                continue
            tj3 = rng.choice(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
            tm1 = rng.choice(range(-tj1, tj1 + 1, 2)) if tj1 else 0
            tm2 = rng.choice(range(-tj2, tj2 + 1, 2)) if tj2 else 0
            tm3 = -tm1 - tm2
            if abs(tm3) > tj3:
                continue
            J = (tj1 + tj2 + tj3) // 2
            phase = -1 if J & 1 else 1
            base = wigner_3jm(*(Fraction(t, 2) for t in (tj1, tj2, tj3, tm1, tm2, tm3)))
            cyc = wigner_3jm(*(Fraction(t, 2) for t in (tj2, tj3, tj1, tm2, tm3, tm1)))
            swap = wigner_3jm(*(Fraction(t, 2) for t in (tj2, tj1, tj3, tm2, tm1, tm3)))
            neg = wigner_3jm(*(Fraction(t, 2) for t in (tj1, tj2, tj3, -tm1, -tm2, -tm3)))
            assert cyc == base
            assert swap == base * phase
            assert neg == base * phase

    def test_orthogonality_sampled(self):
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            tj1, tj2 = rng.randrange(0, 13), rng.randrange(0, 13)
            choices = list(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
            tj3, tj3p = rng.choice(choices), rng.choice(choices)
            tm3 = rng.choice(range(-tj3, tj3 + 1, 2)) if tj3 else 0
            tm3p = rng.choice(range(-tj3p, tj3p + 1, 2)) if tj3p else 0
            total = RadicalSum.zero()
            for tm1 in range(-tj1, tj1 + 1, 2):
                tm2 = -tm3 - tm1
                if abs(tm2) > tj2:
                    continue
                a = wigner_3jm(*(Fraction(t, 2) for t in (tj1, tj2, tj3, tm1, tm2, tm3)))
                b = wigner_3jm(*(Fraction(t, 2) for t in (tj1, tj2, tj3p, tm1, tm2, tm3p)))
                total = total + a * b * (tj3 + 1)
            want = RadicalSum.from_rational(
                1 if (tj3, tm3) == (tj3p, tm3p) else 0)
            assert total == want
            checked += 1

    def test_cache_does_not_change_results(self):
        args = ("3/2", "3/2", 2, "1/2", "1/2", -1)
        clear_caches()
        cold = wigner_3jm(*args)
        warm = wigner_3jm(*args)
        assert cold == warm
        clear_caches()
        assert wigner_3jm(*args) == cold

    def test_concurrent_evaluation_matches_serial(self):
        # values are immutable and recomputation is idempotent, so racing
        # threads over a cold cache must agree with a serial pass
        from concurrent.futures import ThreadPoolExecutor

        tasks = []
        for tj3 in range(0, 11, 2):
            for tm1 in range(-5, 6):
                tasks.append((Fraction(5, 2), Fraction(5, 2), Fraction(tj3, 2),
                              Fraction(2 * tm1 - 5, 2), Fraction(1, 2),
                              Fraction(4 - 2 * tm1, 2)))
        tasks = [t for t in tasks if abs(t[3]) <= t[0] and abs(t[5]) <= t[2]]
        clear_caches()
        serial = [wigner_3jm(*t) for t in tasks]
        clear_caches()
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda t: wigner_3jm(*t), tasks * 4))
        assert parallel == (serial * 4)


class TestClebschGordan:
    def test_frozen_value(self):
        value = clebsch_gordan("1/2", "1/2", "1/2", "-1/2", 0, 0)
        assert sign_square(value) == (1, Fraction(1, 2))

    def test_stretched_states(self):
        for tj in (1, 2, 3, 5):
            j = Fraction(tj, 2)
            assert clebsch_gordan(j, j, j, j, 2 * j, 2 * j) == RadicalSum.from_rational(1)

    def test_m_mismatch_is_zero(self):
        assert clebsch_gordan(1, 1, 1, 0, 2, 0).is_zero

    def test_sweep_against_oracle(self):
        for tj1 in range(0, 6):
            for tj2 in range(0, 6):
                for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            tm3 = tm1 + tm2
                            if abs(tm3) > tj3:
                                continue
                            got = clebsch_gordan(*(Fraction(t, 2) for t in
                                                   (tj1, tm1, tj2, tm2, tj3, tm3)))
                            want = oracles.cg_sq(tj1, tm1, tj2, tm2, tj3, tm3)
                            assert sign_square(got) == want


class TestSixJ:
    def test_frozen_values(self):
        assert wigner_6j(1, 1, 1, 1, 1, 1) == RadicalSum.from_rational(Fraction(1, 6))
        assert wigner_6j(1, 1, 0, 1, 1, 1) == RadicalSum.from_rational(Fraction(-1, 3))

    def test_triangle_violation_is_zero(self):
        assert wigner_6j(1, 1, 3, 1, 1, 1).is_zero

    def test_sweep_against_oracle(self):
        for ta in range(0, 5):
            for tb in range(0, 5):
                for tc in range(abs(ta - tb), ta + tb + 1, 2):
                    for td in range(0, 5):
                        for te in range(abs(td - tc), td + tc + 1, 2):
                            for tf in range(max(abs(ta - te), abs(td - tb)),
                                            min(ta + te, td + tb) + 1, 2):
                                got = wigner_6j(*(Fraction(t, 2) for t in
                                                  (ta, tb, tc, td, te, tf)))
                                want = oracles.sixj_sq(ta, tb, tc, td, te, tf)
                                assert sign_square(got) == want

    def test_value_invariant_under_every_image(self):
        # the memo keys on the arguments as given, so each of the 24 images
        # of a symbol is evaluated on its own; all must agree. Every symbol
        # whose four triangles hold is checked at all its images; a symbol
        # with a broken triangle must be 0, and if one of its images has all
        # four triangles, it is checked from that image (the images form a
        # group)
        assert len(set(oracles.sixj_images(tuple(range(6))))) == 24
        clear_caches()
        for t in product(range(7), repeat=6):
            a, b, c, d, e, f = t
            value = wigner._sixj_twice(*t)
            if not all(oracles.tri_ok(*tri) for tri in
                       ((a, b, c), (a, e, f), (d, b, f), (d, e, c))):
                assert value.is_zero, t
                continue
            assert all(wigner._sixj_twice(*g) == value
                       for g in oracles.sixj_images(t)), t

    def test_zero_argument_reduction(self):
        # {a b 0; d e f} = delta_ab delta_de (-1)^(a+d+f) / sqrt((2a+1)(2d+1))
        rng = random.Random(3)
        for _ in range(60):
            ta = rng.randrange(0, 9)
            td = rng.randrange(0, 9)
            tf = rng.choice(range(abs(ta - td), ta + td + 1, 2)) if ta or td else 0
            got = wigner_6j(*(Fraction(t, 2) for t in (ta, ta, 0, td, td, tf)))
            phase = -1 if ((ta + td + tf) // 2) & 1 else 1
            want = RadicalSum.from_sqrt(Fraction(1, (ta + 1) * (td + 1)), phase)
            assert got == want


class TestSixJSquared:
    def test_equals_the_squared_rooted_kernel(self):
        # every {l l' j; J J J} of a manifold with n <= 20, zeros included
        for tJ in range(20):
            for tl in range(0, tJ + 1, 2):
                for tlp in range(0, tJ + 1, 2):
                    for tj in range(abs(tl - tlp), min(tl + tlp, tJ) + 1, 2):
                        value = wigner._sixj_twice(tl, tlp, tj, tJ, tJ, tJ)
                        want = sign_square(value)[1]
                        got = wigner._sixj_squared(tl, tlp, tj, tJ)
                        assert type(got) is Fraction and got == want, \
                            (tl, tlp, tj, tJ)

    def test_key_ignores_column_order(self):
        clear_caches()
        value = wigner._sixj_squared(4, 6, 2, 8)
        assert wigner._CACHE_6J_SQ == {(2, 4, 6, 8): value}
        assert wigner._sixj_squared(6, 2, 4, 8) is value
        assert len(wigner._CACHE_6J_SQ) == 1

    def test_clear_caches_empties_the_squared_cache(self):
        wigner._sixj_squared(2, 2, 2, 4)
        clear_caches()
        assert wigner._CACHE_6J_SQ == {}

    def test_rooted_finish_shares_the_series(self, monkeypatch):
        # both finishes read the one Racah series helper
        calls = []
        real = wigner._racah_6j_sum

        def counted(*t):
            calls.append(t)
            return real(*t)

        clear_caches()
        monkeypatch.setattr(wigner, "_racah_6j_sum", counted)
        wigner._sixj_squared(2, 4, 6, 6)
        wigner_6j(1, 2, 3, 3, 3, 3)
        assert len(calls) == 2


class TestRegge:
    def test_transform_tuple_and_invariance(self):
        args = ThreeJmArgs(6, 2, 4, -1, 1, 0)
        out = regge_transform(args)
        assert out == ThreeJmArgs(6, "5/2", "7/2", -2, "3/2", "1/2")
        assert out.j2 == Fraction(5, 2) and type(out.j2) is Fraction
        assert sign_square(wigner_3jm(args)) == (-1, Fraction(35, 1287))
        assert wigner_3jm(out) == wigner_3jm(args)

    def test_fixed_point(self):
        args = ThreeJmArgs(2, 3, 3, 0, 1, -1)
        assert regge_transform(args) == args

    def test_invariance_sweep(self):
        rng = random.Random(23)
        checked = 0
        while checked < 120:
            tj1, tj2 = rng.randrange(0, 9), rng.randrange(0, 9)
            choices = list(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
            if not choices:
                continue
            tj3 = rng.choice(choices)
            tm1 = rng.choice(range(-tj1, tj1 + 1, 2)) if tj1 else 0
            tm2 = rng.choice(range(-tj2, tj2 + 1, 2)) if tj2 else 0
            tm3 = -tm1 - tm2
            if abs(tm3) > tj3:
                continue
            args = ThreeJmArgs(*(Fraction(t, 2) for t in
                                 (tj1, tj2, tj3, tm1, tm2, tm3)))
            try:
                out = regge_transform(args)
            except ReggeInadmissibleError:
                continue
            assert wigner_3jm(out) == wigner_3jm(args)
            checked += 1

    def test_invariance_exhaustive_small_scale(self):
        for tj1 in range(0, 9):
            for tj2 in range(0, 9):
                for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    if tj3 > 8:
                        continue
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            tm3 = -tm1 - tm2
                            if abs(tm3) > tj3:
                                continue
                            args = ThreeJmArgs(*(Fraction(t, 2) for t in
                                                 (tj1, tj2, tj3, tm1, tm2, tm3)))
                            try:
                                out = regge_transform(args)
                            except ReggeInadmissibleError:
                                continue
                            assert wigner_3jm(out) == wigner_3jm(args)

    def test_inadmissible_negative_j(self):
        # j2' = (j2 + j3 + m1)/2 = -1/2
        args = ThreeJmArgs(3, 1, 1, -3, 1, 0)
        with pytest.raises(ReggeInadmissibleError):
            regge_transform(args)

    def test_inadmissible_parity(self):
        # j2 + j3 + m1 is half-odd when j1+j2+j3 is (a vanishing configuration)
        args = ThreeJmArgs(0, 0, "1/2", 0, 0, "1/2")
        with pytest.raises(ReggeInadmissibleError):
            regge_transform(args)
