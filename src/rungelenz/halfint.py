"""Half-integer angular momenta stored as twice their value."""
from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

from .errors import DomainError


@total_ordering
class HalfInt:
    """An integer or half-integer quantum number.

    The value is stored as ``twice`` (an int), so j = 3/2 has twice = 3.
    Instances are immutable and support +, -, negation, abs and comparison.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError(f"twice must be an int, got {type(twice).__name__}")
        object.__setattr__(self, "twice", twice)

    def __setattr__(self, name, value):
        raise AttributeError("HalfInt is immutable")

    @classmethod
    def from_value(cls, value) -> "HalfInt":
        """Coerce an int, Fraction, float multiple of 1/2, string or HalfInt."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return cls(2 * value)
        if isinstance(value, str):
            return cls.parse(value)
        try:
            fr = Fraction(value)
        except (ValueError, OverflowError) as exc:  # NaN, +-inf
            raise DomainError(f"{value!r} is not finite") from exc
        if fr.denominator not in (1, 2):
            raise DomainError(f"{value!r} is not an integer or half-integer")
        return cls(int(fr * 2))

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse '2', '-1/2' or '0.5' into a HalfInt."""
        try:
            fr = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse half-integer from {text!r}") from exc
        if fr.denominator not in (1, 2):
            raise DomainError(f"{text!r} is not an integer or half-integer")
        return cls(int(fr * 2))

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def as_int(self) -> int:
        if not self.is_integer:
            raise DomainError(f"{self} is not an integer")
        return self.twice // 2

    def to_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __add__(self, other) -> "HalfInt":
        other = HalfInt.from_value(other)
        return HalfInt(self.twice + other.twice)

    __radd__ = __add__

    def __sub__(self, other) -> "HalfInt":
        other = HalfInt.from_value(other)
        return HalfInt(self.twice - other.twice)

    def __rsub__(self, other) -> "HalfInt":
        return HalfInt.from_value(other) - self

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __eq__(self, other) -> bool:
        try:
            other = HalfInt.from_value(other)
        except (DomainError, TypeError, ValueError):
            return NotImplemented
        return self.twice == other.twice

    def __lt__(self, other) -> bool:
        try:
            other = HalfInt.from_value(other)
        except (DomainError, TypeError, ValueError):
            return NotImplemented
        return self.twice < other.twice

    def __hash__(self):
        return hash(self.to_fraction())

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"


def twice(value) -> int:
    """Twice-value of anything coercible to a HalfInt."""
    return HalfInt.from_value(value).twice
