"""Parabolic <-> spherical basis machinery within one hydrogenic n-manifold.

The canonical route for the transformation coefficient B(l) is a single 3jm
symbol times sqrt(2l+1) and a phase; it covers signed m uniformly. The
hypergeometric route and the fixed-l closed forms are independent oracles,
restricted to m >= 0 as printed, and agree with the canonical route in square;
their overall sign differs by the global factor measured by
hypergeometric_sign_survey.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import exp

from .errors import DomainError
from .pfrational import PFRational, default_table
from .radical import RadicalSum, dot
from .wigner import _neg1, _threejm_twice


@dataclass(frozen=True)
class SphericalLabel:
    """|n l m> with |m| <= l <= n-1."""

    n: int
    l: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n = {self.n} must be positive")
        if not abs(self.m) <= self.l <= self.n - 1:
            raise DomainError(f"need |m| <= l <= n-1, got {self}")


@dataclass(frozen=True)
class ParabolicLabel:
    """|n1 n2 m> with n = n1 + n2 + |m| + 1; q = n1 - n2 is the A_z eigenvalue."""

    n1: int
    n2: int
    m: int

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise DomainError(f"parabolic quantum numbers must be >= 0, got {self}")

    @property
    def n(self) -> int:
        return self.n1 + self.n2 + abs(self.m) + 1

    @property
    def q(self) -> int:
        return self.n1 - self.n2


def spherical_ls(n: int, m: int) -> range:
    """The l index set of the (n, m) manifold."""
    return range(abs(m), n)


def q_values(n: int, m: int) -> range:
    """The electric quantum numbers of the (n, m) manifold, increasing."""
    upper = n - abs(m) - 1
    return range(-upper, upper + 1, 2)


@dataclass(frozen=True)
class ManifoldState:
    """A coefficient vector over one basis of a fixed (n, m) block.

    Spherical coefficients are indexed by l - |m|; parabolic coefficients by
    n1 (equivalently q = 2 n1 - (n - |m| - 1), increasing).
    """

    basis: str
    n: int
    m: int
    coeffs: tuple[RadicalSum, ...]

    def __post_init__(self):
        if self.basis not in ("spherical", "parabolic"):
            raise DomainError(f"unknown basis tag {self.basis!r}")
        if abs(self.m) > self.n - 1:
            raise DomainError(f"|m| = {abs(self.m)} exceeds n-1 = {self.n - 1}")
        dim = self.n - abs(self.m)
        if len(self.coeffs) != dim:
            raise DomainError(
                f"state needs {dim} coefficients for (n, m) = ({self.n}, {self.m}), "
                f"got {len(self.coeffs)}")

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def coefficient(self, index: int) -> RadicalSum:
        """Coefficient of |n l m> (spherical, index = l) or |n1 n2 m> (index = n1)."""
        if self.basis == "spherical":
            i = index - abs(self.m)
        else:
            i = index
        if not 0 <= i < self.dim:
            raise DomainError(f"index {index} outside the (n, m) block")
        return self.coeffs[i]

    def norm_squared(self) -> RadicalSum:
        return dot(self.coeffs, self.coeffs)


def unit_spherical(label: SphericalLabel) -> ManifoldState:
    dim = label.n - abs(label.m)
    coeffs = [RadicalSum.zero()] * dim
    coeffs[label.l - abs(label.m)] = RadicalSum.from_rational(1)
    return ManifoldState("spherical", label.n, label.m, tuple(coeffs))


def unit_parabolic(label: ParabolicLabel) -> ManifoldState:
    dim = label.n - abs(label.m)
    coeffs = [RadicalSum.zero()] * dim
    coeffs[label.n1] = RadicalSum.from_rational(1)
    return ManifoldState("parabolic", label.n, label.m, tuple(coeffs))


# -- the transformation coefficient in its three forms -----------------

def _check_l(p: ParabolicLabel, l: int) -> None:
    if not abs(p.m) <= l <= p.n - 1:
        raise DomainError(f"l = {l} outside the manifold range "
                          f"[{abs(p.m)}, {p.n - 1}] of {p}")


def b_coeff(p: ParabolicLabel, l: int) -> RadicalSum:
    """B(l): <n l m | n1 n2 m> via the single-3jm definition."""
    _check_l(p, l)
    n, m, q = p.n, p.m, p.q
    sym = _threejm_twice(n - 1, n - 1, 2 * l, m - q, m + q, -2 * m)
    phase = _neg1(p.n2 + (m - abs(m)) // 2 + l)
    root = RadicalSum.from_sqrt(2 * l + 1)
    return sym * root * phase


def b_coeff_regge(p: ParabolicLabel, l: int) -> RadicalSum:
    """B(l) through the Regge-partner 3jm with m3 = 0; equals b_coeff exactly."""
    _check_l(p, l)
    n, m, q = p.n, p.m, p.q
    sym = _threejm_twice(n - 1 + m, n - 1 - m, 2 * l, -q, q, 0)
    phase = _neg1(p.n2 + (m - abs(m)) // 2 + l)
    root = RadicalSum.from_sqrt(2 * l + 1)
    return sym * root * phase


def _hypergeometric_series(p: ParabolicLabel, l: int) -> Fraction:
    """3F2[{l+m+1, -(l-m), -n1}; {m+1, -(n-m-1)}; 1], terminating, exact."""
    n, n1, m = p.n, p.n1, p.m
    kmax = min(l - m, n1)
    term = Fraction(1)
    total = Fraction(1)
    for k in range(kmax):
        term *= Fraction((l + m + 1 + k) * (-(l - m) + k) * (-n1 + k),
                         (m + 1 + k) * (-(n - m - 1) + k) * (k + 1))
        total += term
    return total


def b_coeff_3f2(p: ParabolicLabel, l: int) -> RadicalSum:
    """B(l) by the terminating-3F2 route; m >= 0 only.

    The hypergeometric parameter block {l+m+1, -(l-m), -n1; m+1, -(n-m-1)}
    follows the published form; its factorial prefactor as printed fails
    normalization, so the radicand used here is the one fixed by requiring
    B^2 agreement with the 3jm route (verified exhaustively in the tests):

        (n-m-1)!/m! * sqrt[(2l+1) (l+m)! (n1+m)! (n2+m)!
                           / (n1! n2! (l-m)! (n-l-1)! (n+l)!)]

    carrying the phase (-1)^(l-m). The overall sign relative to b_coeff is the
    global factor (-1)^(n1+n2); see hypergeometric_sign_survey.
    """
    if p.m < 0:
        raise DomainError(
            "the hypergeometric form is printed for m >= 0 only; "
            "use b_coeff for signed m")
    _check_l(p, l)
    n, n1, n2, m = p.n, p.n1, p.n2, p.m
    series = _hypergeometric_series(p, l)
    if series == 0:
        return RadicalSum.zero()
    fp = default_table().factorial
    radicand = (PFRational.from_int(2 * l + 1) * fp(l + m) * fp(n1 + m) * fp(n2 + m)
                / (fp(n1) * fp(n2) * fp(l - m) * fp(n - l - 1) * fp(n + l)))
    prefactor = (fp(n - m - 1) / fp(m)).value
    root = RadicalSum.from_sqrt(radicand)
    return root * (series * prefactor * _neg1(l - m))


B_SPECIAL_CASES = ("l-eq-m", "n-1", "n-2")


def b_special(p: ParabolicLabel, which: str) -> RadicalSum:
    """Closed forms for B at l = m, l = n-1 and l = n-2 (m >= 0).

    The selected case fixes l; inconsistent selections raise DomainError.
    Signs follow the closed forms as published; squares agree with b_coeff.
    """
    if which not in B_SPECIAL_CASES:
        raise DomainError(f"which must be one of {B_SPECIAL_CASES}, got {which!r}")
    if p.m < 0:
        raise DomainError("the closed forms are printed for m >= 0 only")
    n, n1, n2, m = p.n, p.n1, p.n2, p.m
    fp = default_table().factorial
    if which == "l-eq-m":
        l = m
        _check_l(p, l)
        radicand = (fp(2 * l + 1) * fp(n1 + l) * fp(n2 + l) * fp(n - l - 1)
                    / (fp(n1) * fp(n2) * fp(n + l)))
        scale = Fraction(1, default_table().factorial_int(l))
        return RadicalSum.from_sqrt(radicand) * scale
    if which == "n-1":
        l = n - 1
        _check_l(p, l)
        radicand = (fp(n1 + n2) * fp(n1 + n2 + 2 * m)
                    / (fp(n1) * fp(n2) * fp(2 * n - 2) * fp(n1 + m) * fp(n2 + m)))
        scale = Fraction(default_table().factorial_int(n - 1)) * _neg1(n2)
        return RadicalSum.from_sqrt(radicand) * scale
    # which == "n-2"
    l = n - 2
    if n1 + n2 < 1:
        raise DomainError(f"l = n-2 lies outside the manifold of {p}")
    _check_l(p, l)
    if n1 == n2:
        return RadicalSum.zero()
    radicand = (PFRational.from_int(2 * n - 3) * fp(n1 + n2 - 1)
                * fp(n1 + n2 + 2 * m - 1)
                / (fp(n1) * fp(n2) * fp(2 * n - 2) * fp(n1 + m) * fp(n2 + m)))
    scale = Fraction((n1 - n2) * default_table().factorial_int(n - 1)) * _neg1(n2)
    return RadicalSum.from_sqrt(radicand) * scale


def b_squared_asymptotic(n: int, l: int) -> float:
    """(2l+1)/n * exp(-l(l+1)/n): the m = 0 large-n, l << n approximation.

    Diagnostic only; exact paths never consult it. The approximated quantity
    is the l-distribution of the extremal-q parabolic states (see tests).
    """
    if not 0 <= l <= n - 1:
        raise DomainError(f"need 0 <= l <= n-1, got l = {l}, n = {n}")
    return (2 * l + 1) / n * exp(-l * (l + 1) / n)


# -- whole-manifold transforms -----------------------------------------

@lru_cache(maxsize=None)
def b_matrix(n: int, m: int) -> tuple[tuple[RadicalSum, ...], ...]:
    """Rows indexed by n1 (q increasing), columns by l - |m|."""
    rows = []
    upper = n - abs(m) - 1
    for n1 in range(upper + 1):
        p = ParabolicLabel(n1, upper - n1, m)
        rows.append(tuple(b_coeff(p, l) for l in spherical_ls(n, m)))
    return tuple(rows)


def to_spherical(state: ManifoldState) -> ManifoldState:
    """Expand a parabolic-basis state over |n l m>; exactly norm-preserving."""
    if state.basis != "parabolic":
        raise DomainError("to_spherical expects a parabolic-basis state")
    B = b_matrix(state.n, state.m)
    out = tuple(dot(state.coeffs, col) for col in zip(*B))
    return ManifoldState("spherical", state.n, state.m, out)


def to_parabolic(state: ManifoldState) -> ManifoldState:
    """Inverse of to_spherical (the B matrix is orthogonal)."""
    if state.basis != "spherical":
        raise DomainError("to_parabolic expects a spherical-basis state")
    B = b_matrix(state.n, state.m)
    out = tuple(dot(state.coeffs, row) for row in B)
    return ManifoldState("parabolic", state.n, state.m, out)


def hypergeometric_sign_survey(n_max: int) -> dict:
    """Measure sign(b_coeff / b_coeff_3f2) over all m >= 0 manifolds, n <= n_max.

    Returns the sample count and whether the ratio equals (-1)^(n1+n2)
    throughout; the relation is measured, never assumed.
    """
    samples = 0
    matches = True
    for n in range(1, n_max + 1):
        for m in range(0, n):
            upper = n - m - 1
            for n1 in range(upper + 1):
                p = ParabolicLabel(n1, upper - n1, m)
                for l in spherical_ls(n, m):
                    direct = b_coeff(p, l)
                    hyper = b_coeff_3f2(p, l)
                    if direct.is_zero:
                        continue
                    samples += 1
                    if direct != hyper * _neg1(n1 + upper - n1):
                        matches = False
    return {"samples": samples, "ratio_is_neg1_pow_n1_plus_n2": matches}
