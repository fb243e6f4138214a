"""Factorials up to a fixed limit, as integers and as split square roots.

Next to k!, the table keeps sqrt(k!) = r sqrt(s) with s squarefree, built once
from factorize(k). factorial_root joins table entries by gcd, so the square
root of every coupling coefficient (a ratio of factorials) is split without
factoring anything.
"""
from __future__ import annotations

import os
from fractions import Fraction
from math import gcd

from .errors import MAX_FACTORIAL_LIMIT, DomainError, FactorialLimitError

# The default covers (2n-1)! for n <= 129, which a B/C block of n needs (so
# b_coeff, verify and p_table), and (3n-2)! for n <= 86, which P-bar's 6j route
# needs (pbar_table). No route needs (4n+2)!.
DEFAULT_FACTORIAL_LIMIT = 258
_ENV_LIMIT = "RUNGELENZ_FACTORIAL_LIMIT"


def factorize(k: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    if k <= 0:
        raise DomainError(f"cannot factorize non-positive integer {k}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= k:
        while k % p == 0:
            out[p] = out.get(p, 0) + 1
            k //= p
        p += 1 if p == 2 else 2
    if k > 1:
        out[k] = out.get(k, 0) + 1
    return out


class FactorialTable:
    """k! and sqrt(k!) = r sqrt(s), s squarefree, for k up to a fixed limit.

    The limit is set at construction and never extended: requests beyond it
    raise FactorialLimitError naming the needed limit. The whole table is
    built eagerly, so instances are read-only afterwards and safe to share
    across threads.
    """

    def __init__(self, limit: int = DEFAULT_FACTORIAL_LIMIT):
        if limit < 0:
            raise DomainError("factorial table limit must be >= 0")
        self.limit = limit
        self._int: list[int] = [1]
        self._root: list[tuple[int, int]] = [(1, 1)]
        for j in range(1, limit + 1):
            self._int.append(self._int[-1] * j)
            r, s = self._root[-1]
            # sqrt(j!) = sqrt((j-1)!) sqrt(j): each p^e of j moves p^(e//2)
            # into r and, for odd e, flips p in or out of s
            for p, e in factorize(j).items():
                r *= p ** (e // 2)
                if e & 1:
                    r, s = (r * p, s // p) if s % p == 0 else (r, s * p)
            self._root.append((r, s))

    def _check(self, k: int) -> None:
        if k < 0:
            raise DomainError(f"factorial of negative integer {k}")
        if k > self.limit:
            raise FactorialLimitError(needed=k, limit=self.limit)

    def factorial(self, k: int) -> tuple[int, int]:
        """(r, s) with sqrt(k!) = r sqrt(s) and s squarefree."""
        self._check(k)
        return self._root[k]

    def factorial_int(self, k: int) -> int:
        """k! as a plain integer (for rational summation kernels)."""
        self._check(k)
        return self._int[k]

    def factorial_ints(self, lo: int, hi: int) -> list[int]:
        """The list of k! by k, once lo and hi pass factorial_int's checks.

        A summation kernel checks the smallest and largest k it will read and
        then indexes the list itself, in place of one checked call per k.
        """
        self._check(lo)
        self._check(hi)
        return self._int


def _join(table: FactorialTable, ks) -> tuple[int, int]:
    """prod sqrt(k!) over ks as r sqrt(s), s squarefree."""
    r, s = 1, 1
    for k in ks:
        rk, sk = table.factorial(k)
        g = gcd(s, sk)
        r, s = r * rk * g, (s // g) * (sk // g)
    return r, s


def factorial_root(nums, dens=()) -> tuple[Fraction, int]:
    """(c, d) with sqrt(prod k! over nums / prod k! over dens) = c sqrt(d),
    d squarefree, from the default table."""
    table = default_table()
    rn, sn = _join(table, nums)
    rd, sd = _join(table, dens)
    # sqrt(sn) / sqrt(sd) = sqrt(sn sd) / sd
    g = gcd(sn, sd)
    return Fraction(rn * g, rd * sd), (sn // g) * (sd // g)


def _limit_from_env() -> int:
    raw = os.environ.get(_ENV_LIMIT)
    if raw is None:
        return DEFAULT_FACTORIAL_LIMIT
    try:
        limit = int(raw)
    except ValueError as exc:
        raise DomainError(f"{_ENV_LIMIT} must be an integer, got {raw!r}") from exc
    if limit < 0:
        raise DomainError(f"{_ENV_LIMIT} = {limit} must be >= 0")
    if limit > MAX_FACTORIAL_LIMIT:  # checked before the table is built
        raise DomainError(f"{_ENV_LIMIT} = {limit} exceeds the bound "
                          f"{MAX_FACTORIAL_LIMIT}")
    return limit


_default_table: FactorialTable | None = None


def default_table() -> FactorialTable:
    """The process-wide table; its limit honours RUNGELENZ_FACTORIAL_LIMIT."""
    global _default_table
    if _default_table is None:
        _default_table = FactorialTable(_limit_from_env())
    return _default_table
