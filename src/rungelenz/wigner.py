"""Exact Wigner 3jm and 6j symbols and Clebsch-Gordan conversion.

Evaluation uses the Racah single-sum formulas: the square-root prefactor is
joined from the factorial table's split roots sqrt(k!) = r sqrt(s) by
pfrational.factorial_root (so radicands never need factoring), and the
alternating sum, 3jm and 6j alike, is summed in integers over one
common factorial denominator into an exact Fraction: consecutive terms differ
by a rational factor, so each term is an integer over that denominator. Every
value has the shape (rational) * sqrt(rational) and is returned as a one-term
RadicalSum. Where only the square of {a b c; J J J} is needed (the Stark
P-bar), _sixj_squared finishes the same series without a root: the triangle
factorials times the squared sum, one Fraction.

Half-integer arguments are parsed once, by twice(), into twice their value;
ThreeJmArgs keeps them as Fractions. The 3jm memo keys on the smallest of
the symbol's 12 images, the 6j memo on its twice-arguments as given, and the
squared {a b c; J J J} memo on the sorted (a, b, c) and J. Cached entries
are immutable and recomputation is idempotent, so racing threads at worst
repeat work.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .pfrational import default_table, factorial_root
from .radical import RadicalSum
from .record import Record


def _neg1(k: int) -> int:
    """(-1)**k for any integer k, staying in int arithmetic."""
    return -1 if k & 1 else 1


def twice(value) -> int:
    """Twice an integer or half-integer value: an int, a Fraction, a float or
    a string such as '2', '-1/2' or '0.5'. Anything else, a bool included, is
    a DomainError."""
    if isinstance(value, bool):
        raise DomainError(f"{value!r} is a bool, not a half-integer")
    if isinstance(value, int):
        return 2 * value
    text = isinstance(value, str)
    try:
        fr = Fraction(value.strip() if text else value)
    except TypeError as exc:  # None, a complex, a list, bytes
        raise DomainError(f"{value!r} is not an int, Fraction, float or string") from exc
    except (ValueError, ZeroDivisionError, OverflowError) as exc:  # NaN, +-inf
        raise DomainError(f"cannot parse half-integer from {value!r}" if text
                          else f"{value!r} is not finite") from exc
    if fr.denominator not in (1, 2):
        raise DomainError(f"{value!r} is not an integer or half-integer")
    return 2 * fr.numerator // fr.denominator


class ThreeJmArgs(Record):
    """Arguments of a 3jm symbol as Fractions; j-valued entries with matching
    m parities."""

    j1: Fraction
    j2: Fraction
    j3: Fraction
    m1: Fraction
    m2: Fraction
    m3: Fraction

    def __post_init__(self):
        for name in ("j1", "j2", "j3", "m1", "m2", "m3"):
            object.__setattr__(self, name, Fraction(twice(getattr(self, name)), 2))
        for j, m in ((self.j1, self.m1), (self.j2, self.m2), (self.j3, self.m3)):
            if j < 0:
                raise DomainError(f"j = {j} must be nonnegative")
            if abs(m) > j:
                raise DomainError(f"|m| = {abs(m)} exceeds j = {j}")
            if (j + m).denominator != 1:
                raise DomainError(f"m = {m} has wrong parity for j = {j}")

    def twices(self) -> tuple[int, int, int, int, int, int]:
        return tuple(twice(x) for x in (self.j1, self.j2, self.j3,
                                         self.m1, self.m2, self.m3))


# -- 3jm ---------------------------------------------------------------

_CACHE_3JM: dict[tuple[int, ...], RadicalSum] = {}
_CACHE_6J: dict[tuple[int, ...], RadicalSum] = {}
_CACHE_6J_SQ: dict[tuple[int, ...], Fraction] = {}


def clear_caches() -> None:
    _CACHE_3JM.clear()
    _CACHE_6J.clear()
    _CACHE_6J_SQ.clear()


def _tri_ok_t(ta: int, tb: int, tc: int) -> bool:
    return abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0


def _canonical_3jm(t: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Smallest column-permutation / m-negation image and the phase to undo it."""
    tj1, tj2, tj3, tm1, tm2, tm3 = t
    big_j = (tj1 + tj2 + tj3) // 2  # integer whenever the symbol is nonzero
    cols = ((tj1, tm1), (tj2, tm2), (tj3, tm3))
    best = None
    best_phase = 1
    for perm, parity in (((0, 1, 2), 0), ((1, 2, 0), 0), ((2, 0, 1), 0),
                         ((0, 2, 1), 1), ((1, 0, 2), 1), ((2, 1, 0), 1)):
        c = tuple(cols[i] for i in perm)
        for flip in (1, -1):
            cand = (c[0][0], c[1][0], c[2][0],
                    flip * c[0][1], flip * c[1][1], flip * c[2][1])
            exponent = (parity + (0 if flip == 1 else 1)) * big_j
            if best is None or cand < best:
                best = cand
                best_phase = _neg1(exponent)
    return best, best_phase


def _threejm_twice(tj1: int, tj2: int, tj3: int,
                   tm1: int, tm2: int, tm3: int) -> RadicalSum:
    """Lenient 3jm on twice-valued args: any selection-rule failure gives 0."""
    if tm1 + tm2 + tm3 != 0:
        return RadicalSum.zero()
    if not _tri_ok_t(tj1, tj2, tj3):
        return RadicalSum.zero()
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return RadicalSum.zero()
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj3 + tm3) % 2:
        return RadicalSum.zero()

    key = (tj1, tj2, tj3, tm1, tm2, tm3)
    canon, phase = _canonical_3jm(key)
    cached = _CACHE_3JM.get(canon)
    if cached is None:
        cached = _racah_3jm(*canon)
        _CACHE_3JM[canon] = cached
    return cached * phase if phase == -1 else cached


def _racah_sum(tj1: int, tj2: int, tj3: int,
               tm1: int, tm2: int, tm3: int) -> Fraction:
    """The alternating sum of the Racah 3jm formula, on twice-valued args.

    sum_k (-1)^k / [k! (j1+j2-j3-k)! (j1-m1-k)! (j2+m2-k)! (j3-j2+m1+k)!
    (j3-j1-m2+k)!], summed in integers over the product of the largest
    factorial in each slot: consecutive terms differ by a rational factor, so
    every term is an integer over that one denominator.
    """
    a, b, c = (tj1 + tj2 - tj3) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2
    d, e = (tj3 - tj2 + tm1) // 2, (tj3 - tj1 - tm2) // 2
    k0, k1 = max(0, -d, -e), min(a, b, c)
    if k0 > k1:
        return Fraction(0)
    # the least and the greatest k! the sum reads
    f = default_table().factorial_ints(min(k0 + min(0, d, e), k1 - k0),
                                       max(max(a, b, c) - k0, max(0, d, e) + k1))
    den = f[k1] * f[a - k0] * f[b - k0] * f[c - k0] * f[d + k1] * f[e + k1]
    term = (f[k1] // f[k0]) * (f[d + k1] // f[d + k0]) * (f[e + k1] // f[e + k0])
    total = 0
    for k in range(k0, k1 + 1):
        total += -term if k & 1 else term
        term = term * (a - k) * (b - k) * (c - k) // ((k + 1) * (d + k + 1) * (e + k + 1))
    return Fraction(total, den)


def _racah_3jm(tj1: int, tj2: int, tj3: int,
               tm1: int, tm2: int, tm3: int) -> RadicalSum:
    total = _racah_sum(tj1, tj2, tj3, tm1, tm2, tm3)
    if total == 0:
        return RadicalSum.zero()

    c, d = factorial_root(
        ((tj1 + tj2 - tj3) // 2, (tj1 - tj2 + tj3) // 2, (-tj1 + tj2 + tj3) // 2,
         (tj1 + tm1) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2, (tj2 - tm2) // 2,
         (tj3 + tm3) // 2, (tj3 - tm3) // 2),
        ((tj1 + tj2 + tj3 + 2) // 2,))
    return RadicalSum({d: c * total * _neg1((tj1 - tj2 - tm3) // 2)})


def wigner_3jm(*args) -> RadicalSum:
    """Exact 3jm symbol; accepts a ThreeJmArgs or six half-integer values."""
    if len(args) == 1 and isinstance(args[0], ThreeJmArgs):
        return _threejm_twice(*args[0].twices())
    if len(args) != 6:
        raise TypeError("wigner_3jm takes a ThreeJmArgs or six arguments")
    return _threejm_twice(*(twice(a) for a in args))


def clebsch_gordan(j1, m1, j2, m2, j3, m3) -> RadicalSum:
    """<j1 m1 j2 m2 | j3 m3> = (-1)^(j1-j2+m3) sqrt(2 j3 + 1) 3jm(.., -m3)."""
    tj1, tm1 = twice(j1), twice(m1)
    tj2, tm2 = twice(j2), twice(m2)
    tj3, tm3 = twice(j3), twice(m3)
    if tm1 + tm2 != tm3:
        return RadicalSum.zero()
    sym = _threejm_twice(tj1, tj2, tj3, tm1, tm2, -tm3)
    if sym.is_zero:
        return sym
    phase = _neg1((tj1 - tj2 + tm3) // 2)
    root = RadicalSum.from_sqrt(tj3 + 1)
    return sym * root * phase


def wigner_6j(j1, j2, j3, j4, j5, j6) -> RadicalSum:
    """Exact 6j symbol {j1 j2 j3; j4 j5 j6} of six half-integer values."""
    return _sixj_twice(*map(twice, (j1, j2, j3, j4, j5, j6)))


def _sixj_twice(ta: int, tb: int, tc: int, td: int, te: int, tf: int) -> RadicalSum:
    for (x, y, z) in ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc)):
        if not _tri_ok_t(x, y, z):
            return RadicalSum.zero()
    key = (ta, tb, tc, td, te, tf)
    cached = _CACHE_6J.get(key)
    if cached is None:
        cached = _racah_6j(*key)
        _CACHE_6J[key] = cached
    return cached


def _racah_6j_sum(ta: int, tb: int, tc: int, td: int, te: int, tf: int):
    """The Racah 6j series: (total, den, nums, dens) with
    {6j} = sqrt(prod k! over nums / prod k! over dens) total / den.

    nums and dens are the factorials of the four triangle coefficients
    (s-x)! (s-y)! (s-z)!/(s+1)!, s the triangle's half-perimeter. The series
    sum_k (-1)^k (k+1)! / [prod (k - low)! prod (high - k)!], k the half-sum
    and the lows the four half-perimeters, is summed in integers over one
    denominator; see _racah_sum. All four triangles must hold.
    """
    triangles = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    lows = tuple(sum(t) // 2 for t in triangles)
    highs = ((ta + tb + td + te) // 2, (tb + tc + te + tf) // 2,
             (ta + tc + td + tf) // 2)
    k0, k1 = max(lows), min(highs)  # k0 <= k1 once the four triangles hold
    # the least and the greatest k! the series reads; k1 < k0 makes a negative
    f = default_table().factorial_ints(
        min(0, k1 - k0), max(k0 + 1, k1 - min(lows), max(highs) - k0))
    den = 1
    term = f[k0 + 1]
    for a in lows:
        den *= f[k1 - a]
        term *= f[k1 - a] // f[k0 - a]
    for b in highs:
        den *= f[b - k0]
    total = 0
    for k in range(k0, k1 + 1):
        total += -term if k & 1 else term
        step, div = k + 2, 1
        for b in highs:
            step *= b - k
        for a in lows:
            div *= k + 1 - a
        term = term * step // div
    nums = [s - t for s, tri in zip(lows, triangles) for t in tri]
    return total, den, nums, [s + 1 for s in lows]


def _racah_6j(ta: int, tb: int, tc: int, td: int, te: int, tf: int) -> RadicalSum:
    total, den, nums, dens = _racah_6j_sum(ta, tb, tc, td, te, tf)
    if total == 0:
        return RadicalSum.zero()
    c, d = factorial_root(nums, dens)
    return RadicalSum({d: c * Fraction(total, den)})


def _sixj_squared(ta: int, tb: int, tc: int, tj: int) -> Fraction:
    """{a b c; J J J}^2 on twice-valued args, exact; all four triangles must hold.

    The square needs no root split: it is the product of the triangle
    factorials times the squared series, one Fraction of integers. The three
    columns swap freely, so the cache key is the sorted (a, b, c) and J.
    """
    key = (*sorted((ta, tb, tc)), tj)
    cached = _CACHE_6J_SQ.get(key)
    if cached is None:
        total, den, nums, dens = _racah_6j_sum(*key, tj, tj)
        f = default_table().factorial_ints(min(nums), max(dens))
        num, div = total * total, den * den
        for k in nums:
            num *= f[k]
        for k in dens:
            div *= f[k]
        cached = Fraction(num, div)
        _CACHE_6J_SQ[key] = cached
    return cached
