"""Square roots of rationals and finite sums of radicals with squarefree radicands.

RadicalSum is the working field for sum-rule accumulation: it is closed under
+ and *, and a value is rational exactly when its only radicand is 1.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import gcd, isqrt, sqrt

from .errors import DomainError, ExactParseError


def _combine_radicands(d1: int, d2: int) -> tuple[int, int]:
    """sqrt(d1)*sqrt(d2) = g*sqrt(d) for squarefree d1, d2; returns (g, d)."""
    g = gcd(d1, d2)
    return g, (d1 // g) * (d2 // g)


class RadicalSum:
    """A finite sum sum_i c_i * sqrt(d_i), c_i rational, d_i squarefree positive.

    The term map is canonical: no zero coefficients, each radicand stored once,
    so equal values compare equal structurally; a radicand that is not
    squarefree raises DomainError. Immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        for d, c in (terms or {}).items():
            if type(d) is not int or d <= 0:  # a bool or a float is no radicand
                raise DomainError(f"radicand {d!r} must be a positive int")
            if d != 1 and _split_radicand(d)[0] != 1:
                raise DomainError(f"radicand {d} is not squarefree")
            try:
                c = Fraction(c)
            except (TypeError, ValueError, OverflowError):
                raise DomainError(f"coefficient {c!r} of sqrt({d}) must be a "
                                  f"finite rational") from None
            if c != 0:
                clean[d] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RadicalSum is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which checks the
        # terms again; the default would set the slot through __setattr__
        return RadicalSum, (dict(self._terms),)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RadicalSum":
        return cls({})

    @classmethod
    def from_rational(cls, value) -> "RadicalSum":
        return cls({1: value})

    @classmethod
    def from_sqrt(cls, value, sign: int = 1) -> "RadicalSum":
        """sign * sqrt(value) for a nonnegative int or Fraction.

        sqrt(p/q) = sqrt(p q)/q is split by _split_radicand, whose trial
        division is bounded, so it is meant for small radicands (weights
        such as sqrt((2l+1)(2l-3)), beta); coupling coefficients take their
        roots from pfrational.factorial_root.
        """
        if sign not in (-1, 0, 1):
            raise DomainError(f"sign must be -1, 0 or 1, got {sign}")
        if isinstance(value, bool):
            raise DomainError(f"radicand {value!r} is a bool, not a number")
        try:
            value = Fraction(value)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"radicand {value!r} must be a finite rational") from None
        if value < 0:
            raise DomainError("radicand must be nonnegative")
        if value == 0 or sign == 0:
            return cls.zero()
        a, d = _split_radicand(value.numerator * value.denominator)
        return cls({d: Fraction(sign * a, value.denominator)})

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_rational(self) -> bool:
        return not self._terms or set(self._terms) == {1}

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if set(self._terms) != {1}:
            raise DomainError(f"{self} is not rational")
        return self._terms[1]

    def terms(self) -> list[tuple[int, Fraction]]:
        """(radicand, coefficient) pairs with radicands increasing."""
        return sorted(self._terms.items())

    def coefficient(self, d: int) -> Fraction:
        return self._terms.get(d, Fraction(0))

    def to_float(self) -> float:
        """Binary64 shadow; diagnostics and the floating Stark output only."""
        return float(sum(float(c) * sqrt(d) for d, c in self._terms.items()))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "RadicalSum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for d, c in other._terms.items():
            terms[d] = terms.get(d, Fraction(0)) + c
        return RadicalSum(terms)

    __radd__ = __add__

    def __sub__(self, other) -> "RadicalSum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RadicalSum":
        return _coerce(other) - self

    def __neg__(self) -> "RadicalSum":
        return RadicalSum({d: -c for d, c in self._terms.items()})

    def __mul__(self, other) -> "RadicalSum":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return RadicalSum.zero()
            return RadicalSum({d: c * other for d, c in self._terms.items()})
        if not isinstance(other, RadicalSum):
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                g, d = _combine_radicands(d1, d2)
                terms[d] = terms.get(d, Fraction(0)) + c1 * c2 * g
        return RadicalSum(terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a rational value hashes as its Fraction, so it hashes as the equal
        # int or Fraction does
        if self.is_rational:
            return hash(self._terms.get(1, 0))
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"RadicalSum({render_exact(self)!r})"

    def __str__(self) -> str:
        return render_exact(self)


def _coerce(value) -> "RadicalSum":
    if isinstance(value, RadicalSum):
        return value
    if isinstance(value, (int, Fraction)):
        return RadicalSum.from_rational(value)
    return NotImplemented


def dot(xs, ys) -> RadicalSum:
    """sum_i xs[i] * ys[i] over RadicalSums, skipping exact zeros."""
    total = RadicalSum.zero()
    for x, y in zip(xs, ys):
        if x._terms and y._terms:
            total = total + x * y
    return total


# -- fixed text grammar ----------------------------------------------
#
#   value  := '0/1' | term (' + ' term | ' - ' term)*
#   term   := ['-'] p '/' q  |  ['-'] '(' p '/' q ')' '*sqrt(' d ')'
#
# Radicands d are squarefree and > 1 (a rational is only ever spelled p/q).
# Terms appear with radicands strictly increasing; the leading '-' is only
# ever on the first term; p/q is in lowest terms, in ASCII digits without
# leading zeros. parse_exact accepts exactly the strings render_exact makes:
# parse_exact(render_exact(x)) == x and render_exact(parse_exact(t)) == t.

_TERM_RE = re.compile(
    r"^(?:(?P<num>-?[0-9]+)/(?P<den>[0-9]+)"
    r"|(?P<neg>-)?\((?P<rnum>[0-9]+)/(?P<rden>[0-9]+)\)\*sqrt\((?P<rad>[0-9]+)\))$"
)


def render_exact(value) -> str:
    """Render a RadicalSum (or rational) in the fixed exact-value grammar."""
    if isinstance(value, (int, Fraction)):
        value = Fraction(value)
        return f"{value.numerator}/{value.denominator}"
    if not isinstance(value, RadicalSum):
        raise DomainError(f"cannot render {value!r}: not an int, Fraction or RadicalSum")
    terms = value._terms
    if len(terms) == 1 and 1 in terms:
        c = terms[1]
        return f"{c.numerator}/{c.denominator}"
    return _joined([_part(d, c.numerator, c.denominator) for d, c in sorted(terms.items())])


def _over_parts(nums: dict[int, int], den: int) -> list[str]:
    """The signed parts of sum_d nums[d]/den * sqrt(d) (squarefree d,
    den > 0), radicands increasing, without building the RadicalSum: one
    gcd per nonzero term. _joined makes them a value's text."""
    parts = []
    for d in sorted(nums):
        c = nums[d]
        if c:
            g = gcd(c, den)
            parts.append(_part(d, c // g, den // g))
    return parts


def _part(d: int, p: int, q: int) -> str:
    """' + body' or ' - body' of the term p/q sqrt(d), p/q in lowest terms."""
    return ((" - " if p < 0 else " + ")
            + (f"{abs(p)}/{q}" if d == 1 else f"({abs(p)}/{q})*sqrt({d})"))


def _joined(parts: list[str]) -> str:
    """The text of a value from its signed parts; the sign is kept only on
    a negative first term."""
    if not parts:
        return "0/1"
    first = parts[0]
    return ("-" if first[1] == "-" else "") + first[3:] + "".join(parts[1:])


# -- JSON layout --------------------------------------------------------
#
# Reports and matrices are written as JSON text directly, in the layout
# json.dumps(value, indent=2) gives them (with indent set, CPython encodes in
# pure Python): strings through json's own ASCII escaper, ints by repr,
# containers at the nesting `indent` of their opening line. Values passed in
# are JSON text already; keys are plain ASCII names.

_json_str = encode_basestring_ascii


def _json_object(fields, indent: str = "") -> str:
    """A nonempty object of (key, JSON text) fields, in order."""
    inner = indent + "  "
    return ("{\n" + inner + (",\n" + inner).join(f'"{k}": {v}' for k, v in fields)
            + "\n" + indent + "}")


def _json_array(items: list[str], indent: str = "") -> str:
    """An array of JSON texts; [] when empty."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


# trial division in _split_radicand stops at this prime bound
_SPLIT_TRIAL_BOUND = 1 << 20


@lru_cache(maxsize=None)
def _split_radicand(k: int) -> tuple[int, int]:
    """(a, d) with k = a^2 d and d squarefree, for an int k >= 1.

    Trial division stops at the cube root of what is left: the rest then has
    at most two prime factors, so it is a square or squarefree, which isqrt
    tells apart. Radicands the package builds have small prime factors and
    stop early. Division stops at _SPLIT_TRIAL_BOUND (about 5e5 steps), so a
    rest above the bound's cube with no prime factor up to the bound cannot
    be checked and raises DomainError. Memoised per radicand; it is also
    RadicalSum's squarefree check (d is squarefree iff a == 1).
    """
    a, d, rest, p = 1, 1, k, 2
    while p * p * p <= rest:
        if p > _SPLIT_TRIAL_BOUND:
            raise DomainError(
                f"radicand {k} leaves a cofactor above {_SPLIT_TRIAL_BOUND}^3 "
                f"with no prime factor up to {_SPLIT_TRIAL_BOUND}: its "
                f"squarefreeness cannot be checked")
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            a *= p ** (e // 2)
            if e & 1:
                d *= p
        p += 1 if p == 2 else 2
    root = isqrt(rest)
    if root * root == rest:
        return a * root, d
    return a, d * rest


def parse_exact(text: str) -> RadicalSum:
    """Parse the exact-value grammar back into a RadicalSum; any other
    spelling of a value, even an equal one, raises ExactParseError."""
    if not isinstance(text, str):
        raise ExactParseError(f"an exact value is a str, got {text!r}")
    s = text.strip()
    if not s:
        raise ExactParseError("empty exact-value string")
    # split into signed chunks on ' + ' / ' - '
    chunks = re.split(r" ([+-]) ", s)
    signed: list[tuple[int, str]] = [(1, chunks[0])]
    for op, body in zip(chunks[1::2], chunks[2::2]):
        signed.append((1 if op == "+" else -1, body))
    terms: dict[int, Fraction] = {}
    for outer_sign, chunk in signed:
        m = _TERM_RE.match(chunk)
        if not m:
            raise ExactParseError(f"bad exact-value term {chunk!r} in {text!r}")
        try:
            if m.group("num") is not None:
                d, num, den = 1, int(m.group("num")), int(m.group("den"))
            else:
                d, num, den = (int(m.group(k)) for k in ("rad", "rnum", "rden"))
        except ValueError:  # more digits than int() converts
            raise ExactParseError("a number exceeds the interpreter's digit "
                                  "limit for int conversion") from None
        if m.group("neg"):
            num = -num
        if den == 0:
            raise ExactParseError(f"zero denominator in {chunk!r}")
        terms[d] = Fraction(num, den) * outer_sign
    try:
        value = RadicalSum(terms)
    except DomainError as exc:  # a radicand that is 0 or not squarefree
        raise ExactParseError(str(exc)) from None
    # one value has one spelling: this rejects unreduced fractions, leading
    # zeros, radicand 1, repeated or unordered radicands and a misplaced sign
    if render_exact(value) != s:
        raise ExactParseError(f"{text!r} is not the canonical spelling "
                              f"{render_exact(value)!r}")
    return value

