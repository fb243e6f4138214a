"""Factorial roots, radicals and the exact-value text grammar."""
import copy
import math
import pickle
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rungelenz.basis import ManifoldState, b_matrix
from rungelenz.diamagnetic import h2_matrix
from rungelenz.errors import DomainError, ExactParseError, FactorialLimitError
from rungelenz.pfrational import (
    MAX_FACTORIAL_LIMIT,
    FactorialTable,
    default_table,
    factorial_root,
    factorize,
)
from rungelenz.radical import (RadicalSum, _joined, _over_parts, _split_radicand,
                              parse_exact, render_exact)
from rungelenz.wigner import twice


class TestHalfInt:
    """Half-integer values, parsed into twice their value by wigner.twice."""

    def test_parse_forms(self):
        assert twice("1/2") == 1
        assert twice("0.5") == 1
        assert twice(" 0.5 ") == 1
        assert twice("-3/2") == -3
        assert twice("2") == 4
        assert twice("5/2") == 5
        assert twice(2) == 4
        assert twice(Fraction(-3, 2)) == -3
        assert twice(2.5) == 5

    def test_rejects_non_half_integers(self):
        with pytest.raises(DomainError, match="^'1/3' is not an integer or half-integer$"):
            twice("1/3")
        with pytest.raises(DomainError, match="^0.3 is not an integer or half-integer$"):
            twice(0.3)
        with pytest.raises(DomainError, match="^Fraction"):
            twice(Fraction(1, 3))
        for text in ("x", "nan", "inf", "1/0", ""):
            with pytest.raises(DomainError,
                               match=f"^cannot parse half-integer from {text!r}$"):
                twice(text)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_is_domain_error(self, value):
        with pytest.raises(DomainError, match="is not finite"):
            twice(value)


class TestPFFactorial:
    """The table's split roots sqrt(k!) = r sqrt(s), built from factorize."""

    def test_zero_is_empty_product(self):
        assert default_table().factorial(0) == (1, 1)

    def test_small_factorization(self):
        assert default_table().factorial(4) == (2, 6)  # 24 = 2^2 6

    def test_ten_against_integer_oracle(self):
        # 10! = 2^8 3^4 5^2 7
        assert default_table().factorial(10) == (2**4 * 3**2 * 5, 7)
        assert 720 * 720 * 7 == math.factorial(10)

    def test_limit_error_names_needed_limit(self):
        table = FactorialTable(limit=10)
        table.factorial(10)
        with pytest.raises(FactorialLimitError) as err:
            table.factorial(11)
        assert err.value.needed == 11
        assert err.value.limit == 10
        assert "11" in str(err.value)

    def test_construction_builds_nothing(self, monkeypatch):
        from rungelenz import pfrational
        built = []

        def counted(k):
            built.append(k)
            return factorize(k)

        monkeypatch.setattr(pfrational, "factorize", counted)
        table = FactorialTable()
        assert table.limit == MAX_FACTORIAL_LIMIT and built == []
        assert table.factorial_int(10) == math.factorial(10)
        assert built == list(range(1, 11))
        assert table.factorial(7) == (12, 35)  # 7! = 12^2 35
        assert built == list(range(1, 11))

    def test_past_the_limit_builds_nothing(self, monkeypatch):
        from rungelenz import pfrational
        monkeypatch.setattr(pfrational, "factorize", None)  # any call fails
        table = FactorialTable(100)
        for call in (table.factorial, table.factorial_int):
            with pytest.raises(FactorialLimitError) as err:
                call(101)
            assert (err.value.needed, err.value.limit) == (101, 100)
        with pytest.raises(FactorialLimitError):
            table.factorial_ints(0, 101)
        assert table._built == ([1], [(1, 1)])

    @pytest.mark.parametrize("limit", [-1, 2.5, True, "8"])
    def test_limit_must_be_a_nonnegative_int(self, limit):
        with pytest.raises(DomainError, match="factorial table limit must be"):
            FactorialTable(limit)

    def test_growth_leaves_a_held_list_unchanged(self):
        table = FactorialTable(40)
        held = table.factorial_ints(0, 5)
        before = list(held)
        assert table.factorial_ints(0, 40)[40] == math.factorial(40)
        assert held == before and len(held) == 6

    def test_threads_share_one_fresh_table(self):
        """Eight threads grow one table at once, switching often: each
        growth rebinds new lists, so no read sees a half-built entry."""
        table = FactorialTable(600)
        barrier = threading.Barrier(8)
        bad = []

        def read(offset):
            barrier.wait()
            for k in range(offset, 601, 8):
                r, s = table.factorial(k)
                if not r * r * s == table.factorial_int(k) == math.factorial(k):
                    bad.append(k)
                if table.factorial_ints(0, k)[k] != math.factorial(k):
                    bad.append(k)

        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_factorial_ints_checks_both_ends(self):
        table = FactorialTable(limit=5)
        assert table.factorial_ints(0, 5)[:6] == [1, 1, 2, 6, 24, 120]
        with pytest.raises(DomainError, match="negative integer -1"):
            table.factorial_ints(-1, 3)
        with pytest.raises(FactorialLimitError) as err:
            table.factorial_ints(0, 6)
        assert (err.value.needed, err.value.limit) == (6, 5)

    @pytest.mark.parametrize("kernel,args,needed", [
        ("_racah_sum", (12, 12, 12, 0, 0, 0), 6),
        ("_racah_6j_sum", (4, 4, 4, 4, 4, 4), 7),
        ("_sixj_squared", (4, 4, 4, 4), 7),
    ])
    def test_racah_kernels_past_a_small_limit(self, monkeypatch, kernel, args,
                                              needed):
        """The kernels read the table's list after one check of their largest
        index, which must still name the limit the call needs."""
        from rungelenz import pfrational, wigner
        monkeypatch.setattr(pfrational, "_default_table", FactorialTable(5))
        monkeypatch.setattr(wigner, "_CACHE_6J_SQ", {})
        with pytest.raises(FactorialLimitError) as err:
            getattr(wigner, kernel)(*args)
        assert (err.value.needed, err.value.limit) == (needed, 5)

    def test_block_past_a_small_limit(self, monkeypatch):
        from rungelenz import basis, pfrational
        monkeypatch.setattr(pfrational, "_default_table", FactorialTable(5))
        with pytest.raises(FactorialLimitError):
            basis._block_entries(4, 0)

    def test_negative_index_is_domain_error_not_a_wrapped_read(self):
        """Broken triangles make the 6j series reach (k1 - k0)! with
        k1 < k0: a negative index, never read as the list's tail."""
        from rungelenz import wigner
        with pytest.raises(DomainError, match="negative integer -2") as err:
            wigner._racah_6j_sum(0, 0, 4, 0, 0, 0)
        assert not isinstance(err.value, FactorialLimitError)

    def test_factorial_int_matches_pf(self):
        # r^2 s = k! with s squarefree, for every k up to 258
        table = default_table()
        for k in range(259):
            r, s = table.factorial(k)
            assert r * r * s == table.factorial_int(k) == math.factorial(k)
            assert squarefree(s), k


def squarefree(d: int) -> bool:
    return all(e == 1 for e in factorize(d).values())


class TestFactorialRoot:
    @given(st.lists(st.integers(min_value=0, max_value=80), max_size=6),
           st.lists(st.integers(min_value=0, max_value=80), max_size=6))
    def test_squares_to_the_ratio(self, nums, dens):
        c, d = factorial_root(nums, dens)
        ratio = Fraction(math.prod(map(math.factorial, nums)),
                         math.prod(map(math.factorial, dens)))
        assert c > 0 and c * c * d == ratio
        assert squarefree(d)

    def test_beyond_the_limit(self):
        limit = default_table().limit
        with pytest.raises(FactorialLimitError):
            factorial_root((1,), (limit + 1,))


class TestPFRational:
    """factorize, the prime factorisation the table's roots are built from."""

    def test_factorize_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            factorize(0)


class TestSqrtExtract:
    """The split sqrt(k) = a sqrt(d), d squarefree, behind from_sqrt."""

    @pytest.mark.parametrize("value, rational, radicand", [
        (12, 2, 3),
        (1, 1, 1),
        (Fraction(18, 25), Fraction(3, 5), 2),
    ])
    def test_worked_examples(self, value, rational, radicand):
        assert RadicalSum.from_sqrt(value).terms() == [(radicand, rational)]

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            RadicalSum.from_sqrt(-2)

    def test_zero(self):
        assert RadicalSum.from_sqrt(0).is_zero
        assert RadicalSum.from_sqrt(Fraction(0), sign=-1).is_zero

    @given(st.integers(min_value=1, max_value=100000))
    def test_idempotent_on_squarefree_part(self, k):
        a, d = _split_radicand(k)
        assert a * a * d == k and squarefree(d)
        assert _split_radicand(d) == (1, d)

    @given(st.fractions(min_value=Fraction(0), max_value=Fraction(500),
                        max_denominator=80))
    def test_reconstructs_value(self, value):
        terms = RadicalSum.from_sqrt(value).terms()
        assert sum(c * c * d for d, c in terms) == value


class TestFromSqrt:
    def test_square(self):
        s = RadicalSum.from_sqrt(Fraction(3, 5), sign=-1)
        assert s * s == RadicalSum.from_rational(Fraction(3, 5))
        assert s.to_float() == pytest.approx(-math.sqrt(0.6))

    @given(st.fractions(min_value=Fraction(0), max_value=Fraction(100),
                        max_denominator=30),
           st.fractions(min_value=Fraction(0), max_value=Fraction(100),
                        max_denominator=30))
    def test_mul_matches_square(self, a, b):
        sa, sb = RadicalSum.from_sqrt(a), RadicalSum.from_sqrt(b)
        assert sa * sb == RadicalSum.from_sqrt(a * b)

    @given(st.integers(min_value=0, max_value=10**4))
    def test_int_and_factored_inputs_agree(self, k):
        # an int, the same Fraction, and (for k!) the factorial table's root
        want = RadicalSum.from_sqrt(Fraction(k))
        assert RadicalSum.from_sqrt(k) == want
        j = k % 60
        c, d = factorial_root((j,))
        assert RadicalSum({d: c}) == RadicalSum.from_sqrt(math.factorial(j))

    def test_negative_radicand_rejected(self):
        for value in (-1, Fraction(-1, 3)):
            with pytest.raises(DomainError):
                RadicalSum.from_sqrt(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, "x", None, True, False])
    def test_unconvertible_radicand_names_the_value(self, value):
        with pytest.raises(DomainError, match=f"radicand {value!r} "):
            RadicalSum.from_sqrt(value)

    def test_convertible_radicands_keep_their_result(self):
        assert RadicalSum.from_sqrt(2.25) == rs(Fraction(3, 2))
        assert RadicalSum.from_sqrt("8") == RadicalSum.from_sqrt(8)


def rs(x):
    return RadicalSum.from_rational(x)


def root(x, sign=1):
    return RadicalSum.from_sqrt(x, sign)


class TestRadicalSum:
    @pytest.mark.parametrize("d", [8, 12])
    def test_constructor_rejects_radicand_that_is_not_squarefree(self, d):
        with pytest.raises(DomainError, match="not squarefree"):
            RadicalSum({d: 1})

    def test_constructor_rejects_radicand_that_is_not_a_positive_int(self):
        for d in (2.0, Fraction(3, 2), "a", None, True, 0, -2):
            with pytest.raises(DomainError, match="must be a positive int"):
                RadicalSum({d: 1})
        with pytest.raises(ExactParseError, match="must be a positive int"):
            parse_exact("(1/2)*sqrt(0)")

    @pytest.mark.parametrize("c", [math.nan, math.inf, "x", None])
    def test_unconvertible_coefficient_names_the_value(self, c):
        with pytest.raises(DomainError, match=f"coefficient {c!r} of sqrt"):
            RadicalSum({2: c})
        with pytest.raises(DomainError, match=f"coefficient {c!r} of sqrt"):
            RadicalSum.from_rational(c)

    def test_convertible_coefficients_keep_their_result(self):
        assert RadicalSum({1: "1/2"}) == rs(Fraction(1, 2)) == rs(0.5)
        assert RadicalSum({3: 0.25}).terms() == [(3, Fraction(1, 4))]

    def test_add_cancellation(self):
        assert root(2) + root(2, -1) == RadicalSum.zero()

    def test_add_merges_rationals(self):
        assert (rs(1) + root(3)) + rs(2) == rs(3) + root(3)

    def test_add_coefficients(self):
        half_root6 = root(6) * Fraction(1, 2)
        assert half_root6 + half_root6 == root(6)

    def test_mul_same_radicand(self):
        assert root(2) * root(2) == rs(2)

    def test_mul_extracts_square_part(self):
        assert root(6) * root(10) == root(15) * 2

    def test_mul_distributes(self):
        assert (rs(1) + root(2)) * (rs(1) - root(2)) == rs(-1)

    def test_rational_predicate(self):
        assert rs(Fraction(7, 3)).is_rational
        assert not (rs(1) + root(5)).is_rational
        assert (root(5) - root(5)).is_rational
        with pytest.raises(DomainError):
            (rs(1) + root(5)).as_fraction()

    @given(st.lists(st.tuples(
        st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 15]),
        st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                     max_denominator=12)),
        max_size=5))
    def test_rationality_predicate_matches_float_shadow(self, pairs):
        terms = {}
        for d, c in pairs:
            terms[d] = terms.get(d, Fraction(0)) + c
        value = RadicalSum(terms)
        shadow = value.to_float()
        rational_shadow = float(value.coefficient(1))
        if value.is_rational:
            assert shadow == pytest.approx(rational_shadow, abs=1e-12)
        else:
            # squarefree radicals over Q are linearly independent
            assert abs(shadow - rational_shadow) > 1e-12

    @given(st.lists(st.tuples(
        st.sampled_from([1, 2, 3, 5, 6, 7]),
        st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                     max_denominator=10)), max_size=4),
        st.lists(st.tuples(
            st.sampled_from([1, 2, 3, 5, 6, 7]),
            st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                         max_denominator=10)), max_size=4))
    @settings(max_examples=60)
    def test_ring_laws_against_float_shadow(self, ta, tb):
        a = RadicalSum(dict(ta))
        b = RadicalSum(dict(tb))
        assert (a + b).to_float() == pytest.approx(a.to_float() + b.to_float(),
                                                   abs=1e-9)
        assert (a * b).to_float() == pytest.approx(a.to_float() * b.to_float(),
                                                   abs=1e-9)
        assert a * b == b * a
        assert a + b == b + a

    def test_rejects_bad_radicands(self):
        with pytest.raises(DomainError):
            RadicalSum({0: Fraction(1)})
        with pytest.raises(DomainError):
            RadicalSum({-2: Fraction(1)})

    @pytest.mark.parametrize("value", [Fraction(0), Fraction(1, 2), Fraction(-3)])
    def test_rational_value_hashes_as_its_fraction(self, value):
        """Equal values hash equal, also across RadicalSum, int and Fraction."""
        x = rs(value)
        assert x == value and hash(x) == hash(value)
        assert len({value, x}) == 1
        if value.denominator == 1:
            assert len({int(value), x}) == 1


def _pickled(value):
    return pickle.loads(pickle.dumps(value))


_TRIPS = pytest.mark.parametrize("trip", [_pickled, copy.copy, copy.deepcopy],
                                 ids=["pickle", "copy", "deepcopy"])


class TestRoundTrips:
    @_TRIPS
    def test_radical_sum(self, trip):
        for value in (RadicalSum.zero(), rs(Fraction(-2, 3)),
                      rs(1) + root(Fraction(3, 5), -1)):
            got = trip(value)
            assert type(got) is RadicalSum and got == value
            assert got.terms() == value.terms()

    def test_unpickling_checks_the_terms_again(self):
        data = pickle.dumps(root(3))
        assert data.count(b"K\x03") == 1  # the radicand, as a one-byte int
        with pytest.raises(DomainError, match="not squarefree"):
            pickle.loads(data.replace(b"K\x03", b"K\x0c"))

    @_TRIPS
    def test_b_matrix(self, trip):
        assert trip(b_matrix(5, -2)) == b_matrix(5, -2)

    @_TRIPS
    def test_operator_matrix_json_unchanged(self, trip):
        matrix = h2_matrix(4, 1)
        got = trip(matrix)
        assert got == matrix and got.to_json() == matrix.to_json()

    @_TRIPS
    def test_manifold_state(self, trip):
        state = ManifoldState("parabolic", 3, 1, (root(2), rs(Fraction(1, 3))))
        assert trip(state) == state


# Strings over the exact grammar's alphabet with numbers of at most 12 digits:
# token soups, terms joined as the grammar joins them, and rendered values
# with at most one character replaced by a token.
_DIGITS = st.one_of(st.integers(0, 30).map(str),
                    st.from_regex(r"[0-9]{1,12}", fullmatch=True))
_ALPHABET = ["-", "/", "(", ")", "*sqrt(", " + ", " - ", " ", "0", "1", "2", "4"]
_SIGN = st.sampled_from(["", "-"])
_TERM = st.one_of(
    st.builds("{}{}/{}".format, _SIGN, _DIGITS, _DIGITS),
    st.builds("{}({}/{})*sqrt({})".format, _SIGN, _DIGITS, _DIGITS, _DIGITS))
_VALUE = st.dictionaries(
    st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11]),
    st.fractions(min_value=-999, max_value=999, max_denominator=999),
    max_size=3).map(RadicalSum)


@st.composite
def _exact_like(draw):
    kind = draw(st.sampled_from(["soup", "terms", "rendered"]))
    if kind == "soup":
        return "".join(draw(st.lists(st.one_of(_DIGITS, st.sampled_from(_ALPHABET)),
                                     max_size=12)))
    if kind == "terms":
        rest = draw(st.lists(st.tuples(st.sampled_from([" + ", " - "]), _TERM),
                             max_size=3))
        return draw(_TERM) + "".join(op + t for op, t in rest)
    text = render_exact(draw(_VALUE))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(_ALPHABET)) + text[i + 1:]
    return text


class TestExactGrammar:
    @pytest.mark.parametrize("value, text", [
        (RadicalSum.zero(), "0/1"),
        (rs(Fraction(-1, 2)), "-1/2"),
        (rs(3), "3/1"),
        (root(6) * Fraction(1, 6), "(1/6)*sqrt(6)"),
        (rs(3) + root(3), "3/1 + (1/1)*sqrt(3)"),
        (root(2, -1) + rs(Fraction(1, 4)), "1/4 - (1/1)*sqrt(2)"),
        (root(2) * Fraction(-1, 3) + root(3) * Fraction(2, 5),
         "-(1/3)*sqrt(2) + (2/5)*sqrt(3)"),
    ])
    def test_rendering(self, value, text):
        assert render_exact(value) == text
        assert parse_exact(text) == value

    def test_radicands_render_in_increasing_order(self):
        value = root(7) + root(2) + rs(1)
        assert render_exact(value) == "1/1 + (1/1)*sqrt(2) + (1/1)*sqrt(7)"

    @given(st.lists(st.tuples(
        st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21]),
        st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                     max_denominator=40)), max_size=6))
    def test_round_trip_bit_exact(self, pairs):
        terms = {}
        for d, c in pairs:
            terms[d] = terms.get(d, Fraction(0)) + c
        value = RadicalSum(terms)
        assert parse_exact(render_exact(value)) == value

    @given(st.dictionaries(
        st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21]),
        st.integers(min_value=-10**6, max_value=10**6), max_size=6),
        st.integers(min_value=1, max_value=10**6))
    def test_integer_terms_render_as_their_radical_sum(self, nums, den):
        value = RadicalSum({d: Fraction(c, den) for d, c in nums.items()})
        assert _joined(_over_parts(nums, den)) == render_exact(value)

    @pytest.mark.parametrize("bad", [
        "", "1", "1/2 + 1/3", "sqrt(2)", "(1/2)*sqrt(4)", "(1/2)*sqrt(-3)",
        "1/2 + (1/3)*sqrt(2) + (1/5)*sqrt(2)", "0/2",
        "1/0", "-3/0", "(1/0)*sqrt(2)", "(1/2)*sqrt(8)", "(1/2)*sqrt(12)",
        "1/3 + (1/5)*sqrt(50)", "(1/2)*sqrt(1)", "(1/2)*sqrt(0)",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ExactParseError):
            parse_exact(bad)

    @pytest.mark.parametrize("bad", [
        "2/4", "01/2", "-(1/2)*sqrt(02)", "(1/2)*sqrt(3) + (1/2)*sqrt(2)",
        "(1/2)*sqrt(2) + -1/3", "\u0661/\u0662", "-0/1", "(2/4)*sqrt(2)",
        "(1/2)*sqrt(1)", "1/2 + (1/3)*sqrt(2) + (1/3)*sqrt(2)",
    ])
    def test_parse_rejects_non_canonical_spellings(self, bad):
        with pytest.raises(ExactParseError):
            parse_exact(bad)

    @pytest.mark.parametrize("value", [None, 1, b"1/2"])
    def test_parse_rejects_a_non_string(self, value):
        with pytest.raises(ExactParseError, match="is a str"):
            parse_exact(value)

    @pytest.mark.parametrize("value", [1.5, None, "1/2"])
    def test_render_rejects_a_non_value(self, value):
        with pytest.raises(DomainError, match=f"cannot render {value!r}"):
            render_exact(value)

    def test_parse_rejects_numbers_beyond_the_int_digit_limit(self):
        digits = "1" + "0" * 5000
        for text in (f"{digits}/1", f"1/{digits}", f"(1/1)*sqrt({digits})"):
            with pytest.raises(ExactParseError, match="digit limit"):
                parse_exact(text)

    @settings(max_examples=300)
    @given(_exact_like())
    def test_parse_accepts_exactly_rendered_strings(self, text):
        try:
            value = parse_exact(text)
        except ExactParseError:
            return
        assert render_exact(value) == text.strip()

    def test_parse_rejects_large_prime_radicand_quickly(self):
        # a 31-digit prime: trial division is bounded, so the radicand is
        # rejected as uncheckable at once instead of being divided for hours
        errors = []

        def parse():
            try:
                parse_exact("(1/1)*sqrt(1000000000000000000000000000057)")
            except ExactParseError as exc:
                errors.append(str(exc))

        worker = threading.Thread(target=parse, daemon=True)
        worker.start()
        worker.join(timeout=1.0)
        assert not worker.is_alive()
        assert len(errors) == 1 and "cannot be checked" in errors[0]

    @given(st.integers(min_value=2, max_value=10**6))
    def test_parse_accepts_exactly_squarefree_radicands(self, d):
        text = f"(1/1)*sqrt({d})"
        if all(e == 1 for e in factorize(d).values()):
            assert parse_exact(text).terms() == [(d, Fraction(1))]
        else:
            with pytest.raises(ExactParseError):
                parse_exact(text)
