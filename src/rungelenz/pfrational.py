"""Factorials up to a fixed bound, as integers and as split square roots.

Next to k!, the table keeps sqrt(k!) = r sqrt(s) with s squarefree, built
from factorize(k). factorial_root joins table entries by gcd, so the square
root of every coupling coefficient (a ratio of factorials) is split without
factoring anything. The table builds nothing up front: each request extends
it to the k it asks for, up to the table's limit.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError, FactorialLimitError

# The default table's limit. Filled up to L, the table holds about L^2 log L
# bits: 17 MiB at 4096, which covers (2n-1)! for n <= 2048 (a B/C block of n,
# so b_coeff, verify and p_table) and (3n-2)! for n <= 1366 (P-bar's 6j route).
MAX_FACTORIAL_LIMIT = 4096


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

    Entries are built on first use: a request for k extends both lists up to
    k. A request beyond the limit raises FactorialLimitError naming the
    needed limit, before anything is built. A growth builds new lists and
    rebinds them as one attribute, so a list a caller already holds never
    changes, and threads that race at worst build the same entries twice.
    """

    def __init__(self, limit: int = MAX_FACTORIAL_LIMIT):
        if type(limit) is not int or limit < 0:  # a bool or a float is no limit
            raise DomainError(f"factorial table limit must be an int >= 0, "
                              f"got {limit!r}")
        self.limit = limit
        self._built: tuple[list[int], list[tuple[int, int]]] = ([1], [(1, 1)])

    def require(self, k: int) -> None:
        """FactorialLimitError unless k! is within the limit; builds nothing.

        A route calls it with the largest k! it will read, before its first
        entry, so a request past the limit fails before any work.
        """
        if k > self.limit:
            raise FactorialLimitError(needed=k, limit=self.limit)

    def _lists(self, lo: int, hi: int) -> tuple[list[int], list[tuple[int, int]]]:
        """(k! by k, (r, s) by k), built up to hi at least, for callers that
        read k in lo..hi."""
        built = self._built
        if lo < 0:
            raise DomainError(f"factorial of negative integer {lo}")
        if hi < len(built[0]):
            return built
        self.require(hi)
        ints, roots = list(built[0]), list(built[1])
        r, s = roots[-1]
        for j in range(len(ints), hi + 1):
            ints.append(ints[-1] * j)
            # sqrt(j!) = sqrt((j-1)!) sqrt(j): each p^e of j moves p^(e//2)
            # into r and, for odd e, flips p in or out of s
            for p, e in factorize(j).items():
                r *= p ** (e // 2)
                if e & 1:
                    r, s = (r * p, s // p) if s % p == 0 else (r, s * p)
            roots.append((r, s))
        self._built = built = (ints, roots)
        return built

    def factorial(self, k: int) -> tuple[int, int]:
        """(r, s) with sqrt(k!) = r sqrt(s) and s squarefree."""
        return self._lists(k, k)[1][k]

    def factorial_int(self, k: int) -> int:
        """k! as a plain integer (for rational summation kernels)."""
        return self._lists(k, k)[0][k]

    def factorial_ints(self, lo: int, hi: int) -> list[int]:
        """The list of k! by k, once lo and hi pass factorial_int's checks.

        A summation kernel checks the smallest and largest k it will read
        (lo <= hi) and then indexes the list itself, in place of one checked
        call per k.
        """
        return self._lists(lo, hi)[0]


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


_default_table = FactorialTable()


def default_table() -> FactorialTable:
    """The process-wide table, with limit MAX_FACTORIAL_LIMIT."""
    return _default_table
