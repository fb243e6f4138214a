"""Exact evaluation of the Runge-Lenz sum rules and generic A_z / L^2 moments.

Every A_z^k rule and moment has one canonical route: the contraction
<p| A_z^k |p> = B . (A_z^k) . B of the state's B row with the A_z power
matrix built from the beta coefficients. The L^2 rule sums B^2(l) l(l+1).
For k = 2, 3, 4 the explicit weight-ratio forms as printed in the source
material are re-derived verbatim and diffed against the canonical value, so
suspected misprints surface as reported discrepancies, never as silent
corrections.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .basis import ParabolicLabel, b_coeff, b_matrix, spherical_ls
from .errors import DomainError, InternalConsistencyError
from .operators import (
    az_power_matrix,
    beta,
    beta_squared,
    expression_apply,
    l_squared_expression,
)
from .pfrational import PFRational
from .radical import RadicalSum, dot, render_exact

AZ_MOMENT_POWER_BOUND = 8
L2_MOMENT_POWER_BOUND = 4


@dataclass
class SumRuleReport:
    """Outcome of one sum-rule evaluation at one parameter tuple.

    verdict is "exact-match" iff the canonical LHS is rational and equals the
    analytic RHS; otherwise "mismatch" with the exact difference. When the
    printed explicit form exists it is carried alongside with its own verdict
    ("exact-match", "mismatch" or "not-evaluable") -- printed-form issues are
    warnings, not failures of the canonical route.
    """

    rule: str
    n: int
    m: int
    n1: int
    n2: int
    power: int
    lhs: RadicalSum
    rhs: Fraction
    verdict: str = field(init=False)
    difference: RadicalSum | None = field(init=False)
    printed_lhs: RadicalSum | None = None
    printed_rhs: Fraction | None = None
    printed_verdict: str | None = None
    printed_note: str | None = None

    def __post_init__(self):
        if self.lhs.is_rational and self.lhs.as_fraction() == self.rhs:
            self.verdict = "exact-match"
            self.difference = None
        else:
            self.verdict = "mismatch"
            self.difference = self.lhs - RadicalSum.from_rational(self.rhs)
        if self.printed_lhs is not None and self.printed_verdict is None:
            assert self.printed_rhs is not None
            if (self.printed_lhs.is_rational
                    and self.printed_lhs.as_fraction() == self.printed_rhs):
                self.printed_verdict = "exact-match"
            else:
                self.printed_verdict = "mismatch"

    @property
    def ok(self) -> bool:
        return self.verdict == "exact-match"

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "params": {"n": self.n, "m": self.m, "n1": self.n1,
                       "n2": self.n2, "p": self.power},
            "lhs": render_exact(self.lhs),
            "rhs": render_exact(self.rhs),
            "verdict": self.verdict,
        }
        if self.difference is not None:
            out["difference"] = render_exact(self.difference)
        if self.printed_verdict is not None:
            printed = {"verdict": self.printed_verdict}
            if self.printed_lhs is not None:
                printed["lhs"] = render_exact(self.printed_lhs)
            if self.printed_rhs is not None:
                printed["rhs"] = render_exact(self.printed_rhs)
            if self.printed_lhs is not None and self.printed_rhs is not None \
                    and self.printed_verdict == "mismatch":
                printed["difference"] = render_exact(
                    self.printed_lhs - RadicalSum.from_rational(self.printed_rhs))
            if self.printed_note:
                printed["note"] = self.printed_note
            out["printed"] = printed
        return out


def sum_rule_l2(p: ParabolicLabel) -> SumRuleReport:
    """sum_l B^2(l) l(l+1) = [n^2 - 1 + m^2 - (n1-n2)^2] / 2."""
    lhs = RadicalSum.zero()
    for l in spherical_ls(p.n, p.m):
        B = b_coeff(p, l)
        lhs = lhs + B * B * Fraction(l * (l + 1))
    rhs = Fraction(p.n**2 - 1 + p.m**2 - p.q**2, 2)
    return SumRuleReport("l2", p.n, p.m, p.n1, p.n2, 1, lhs, rhs)


def _az_contraction(p: ParabolicLabel, power: int) -> RadicalSum:
    """<p| A_z^power |p> = v . (M v), v the B row of p, M = A_z^power."""
    v = b_matrix(p.n, p.m)[p.n1]
    M = az_power_matrix(p.n, p.m, power)
    return dot(v, [dot(row, v) for row in M])


def _sqrt_of_int_product(factors: list[int]) -> RadicalSum | None:
    """sqrt(prod factors) for small integers; None if the product is negative."""
    product_sign = 1
    pf = PFRational.one()
    for f in factors:
        if f == 0:
            return RadicalSum.zero()
        if f < 0:
            product_sign = -product_sign
            f = -f
        pf = pf * PFRational.from_int(f)
    if product_sign < 0:
        return None
    return RadicalSum.from_sqrt(pf)


def _printed_ratio_sqrt(numerators: list[int], denominators: list[int]) -> RadicalSum | None:
    """sqrt(prod(numerators)/prod(denominators)) evaluated verbatim."""
    num = _sqrt_of_int_product(numerators)
    den = _sqrt_of_int_product(denominators)
    if num is None or den is None:
        if num is not None and num.is_zero:
            return RadicalSum.zero()
        return None
    if num.is_zero:
        return num
    # denominators here are nonzero odd integers (4x^2 - 1 products)
    (d, c), = den.terms()
    inv = RadicalSum({d: 1 / (c * d)})  # 1/(c sqrt(d)) = sqrt(d)/(c d)
    return num * inv


def _threejm_pair(p: ParabolicLabel, l: int, lp: int) -> RadicalSum:
    """T(l) T(l') with T the bare 3jm of the B definition (lenient zeros)."""
    from .wigner import _threejm_twice

    n, m, q = p.n, p.m, p.q
    a = _threejm_twice(n - 1, n - 1, 2 * l, m - q, m + q, -2 * m)
    if a.is_zero:
        return a
    b = _threejm_twice(n - 1, n - 1, 2 * lp, m - q, m + q, -2 * m)
    if b.is_zero:
        return b
    return a * b


def _printed_az_form(p: ParabolicLabel, power: int) -> tuple[RadicalSum | None, str | None]:
    """The explicit weight-ratio LHS exactly as printed; (value, note).

    value is None when a term is not evaluable over the reals (negative
    radicand), which the power-2 form hits through its third-term denominator.
    """
    n, m = p.n, p.m
    lhs = RadicalSum.zero()

    def bsq(l: int) -> Fraction:
        return beta_squared(n, l, m) if l >= 0 else Fraction(0)

    def chain(*ls: int) -> RadicalSum:
        acc = RadicalSum.from_rational(1)
        for l in ls:
            if l < 0:
                return RadicalSum.zero()
            acc = acc * beta(n, l, m)
        return acc

    for l in spherical_ls(n, m):
        if power == 2:
            diag = (Fraction((l * l - m * m) * (n * n - l * l), 4 * l * l - 1)
                    + Fraction(((l + 1) ** 2 - m * m) * (n * n - (l + 1) ** 2),
                               4 * (l + 1) ** 2 - 1))
            pair = _threejm_pair(p, l, l)
            lhs = lhs + pair * (diag * (2 * l + 1))
            pieces = [
                # (l-2): weight sqrt((2l+1)(2l-3)), denominators (4l^2-1)(4(l-1)^2-1)
                (l - 2, [2 * l + 1, 2 * l - 3],
                 [l * l - m * m, n * n - l * l,
                  (l - 1) ** 2 - m * m, n * n - (l - 1) ** 2],
                 [4 * l * l - 1, 4 * (l - 1) ** 2 - 1]),
                # (l+2): denominators (4l^2-1)(4(l+1)^2-1) as printed -- the
                # suspected typo; beta_(l+1) beta_(l+2) would need
                # (4(l+1)^2-1)(4(l+2)^2-1)
                (l + 2, [2 * l + 1, 2 * l + 5],
                 [(l + 2) ** 2 - m * m, n * n - (l + 2) ** 2,
                  (l + 1) ** 2 - m * m, n * n - (l + 1) ** 2],
                 [4 * l * l - 1, 4 * (l + 1) ** 2 - 1]),
            ]
            for lp, wfac, rnum, rden in pieces:
                pair = _threejm_pair(p, l, lp)
                if pair.is_zero:
                    continue
                weight = _sqrt_of_int_product(wfac)
                ratio = _printed_ratio_sqrt(rnum, rden)
                if weight is None or ratio is None:
                    return None, (f"term (l={l} -> l'={lp}) has a negative "
                                  f"radicand as printed")
                lhs = lhs + pair * weight * ratio
        elif power == 3:
            pieces = [
                (l - 3, [2 * l + 1, 2 * l - 5], chain(l - 2, l - 1, l)),
                (l - 1, [4 * l * l - 1],
                 chain(l) * (bsq(l - 1) + bsq(l) + bsq(l + 1))),
                (l + 1, [2 * l + 1, 2 * l + 3],
                 chain(l + 1) * (bsq(l) + bsq(l + 1) + bsq(l + 2))),
                (l + 3, [2 * l + 1, 2 * l + 7], chain(l + 1, l + 2, l + 3)),
            ]
            for lp, wfac, betas in pieces:
                if betas.is_zero:
                    continue
                pair = _threejm_pair(p, l, lp)
                if pair.is_zero:
                    continue
                weight = _sqrt_of_int_product(wfac)
                if weight is None:
                    return None, (f"term (l={l} -> l'={lp}) has a negative "
                                  f"weight radicand as printed")
                lhs = lhs + pair * weight * betas
        else:
            diag = (bsq(l + 1) * (bsq(l) + bsq(l + 1) + bsq(l + 2))
                    + bsq(l) * (bsq(l - 1) + bsq(l) + bsq(l + 1)))
            pair = _threejm_pair(p, l, l)
            lhs = lhs + pair * (diag * (2 * l + 1))
            pieces = [
                (l - 4, [2 * l + 1, 2 * l - 7], chain(l - 3, l - 2, l - 1, l)),
                (l - 2, [2 * l + 1, 2 * l - 3],
                 chain(l - 1, l) * (bsq(l - 2) + bsq(l - 1) + bsq(l) + bsq(l + 1))),
                (l + 2, [2 * l + 1, 2 * l + 5],
                 chain(l + 1, l + 2) * (bsq(l) + bsq(l + 1) + bsq(l + 2) + bsq(l + 3))),
                (l + 4, [2 * l + 1, 2 * l + 9], chain(l + 1, l + 2, l + 3, l + 4)),
            ]
            for lp, wfac, betas in pieces:
                if betas.is_zero:
                    continue
                pair = _threejm_pair(p, l, lp)
                if pair.is_zero:
                    continue
                weight = _sqrt_of_int_product(wfac)
                if weight is None:
                    return None, (f"term (l={l} -> l'={lp}) has a negative "
                                  f"weight radicand as printed")
                lhs = lhs + pair * weight * betas
    return lhs, None


def sum_rule_az(p: ParabolicLabel, power: int) -> SumRuleReport:
    """The A_z^power rule, power in {2, 3, 4} (the powers with a printed form).

    Canonical route: the contraction v . A_z^power . v shared with
    az_moment_generic; RHS = (n1-n2)^power. Printed route: the explicit
    weight-ratio form, against its own printed RHS (which for power 3 is
    (n2-n1)^3; both statements are consistent, the sign being the
    (-1)^(l+l') phase between B-products and bare-3jm products).
    """
    if power not in (2, 3, 4):
        raise DomainError(f"power must be 2, 3 or 4, got {power}")
    lhs = _az_contraction(p, power)
    rhs = Fraction(p.q**power)
    printed_lhs, note = _printed_az_form(p, power)
    printed_rhs = Fraction((p.n2 - p.n1) ** power)
    if printed_lhs is None:
        return SumRuleReport(f"az{power}", p.n, p.m, p.n1, p.n2, power, lhs, rhs,
                             printed_lhs=None, printed_rhs=printed_rhs,
                             printed_verdict="not-evaluable", printed_note=note)
    return SumRuleReport(f"az{power}", p.n, p.m, p.n1, p.n2, power, lhs, rhs,
                         printed_lhs=printed_lhs, printed_rhs=printed_rhs)


def az_moment_generic(p: ParabolicLabel, power: int,
                      bound: int = AZ_MOMENT_POWER_BOUND) -> SumRuleReport:
    """<p| A_z^power |p> = (n1-n2)^power through the B-vector contraction."""
    if power < 0:
        raise DomainError("power must be >= 0")
    if power > bound:
        raise DomainError(f"power {power} exceeds the configured bound {bound}")
    lhs = _az_contraction(p, power)
    rhs = Fraction(p.q**power)
    return SumRuleReport("az-moment", p.n, p.m, p.n1, p.n2, power, lhs, rhs)


def l2_power_moment(p: ParabolicLabel, power: int,
                    bound: int = L2_MOMENT_POWER_BOUND) -> Fraction:
    """sum_l B^2(l) [l(l+1)]^power, via (L^2)^power in the operator engine.

    The engine expectation must equal the explicit spherical-basis sum
    exactly; disagreement halts with InternalConsistencyError.
    """
    from .basis import unit_parabolic

    if power < 1:
        raise DomainError("power must be >= 1")
    if power > bound:
        raise DomainError(f"power {power} exceeds the configured bound {bound}")
    expr = l_squared_expression()
    state = unit_parabolic(p)
    for _ in range(power):
        state = expression_apply(expr, state)
    engine = state.coeffs[p.n1]

    direct = Fraction(0)
    for l in spherical_ls(p.n, p.m):
        B = b_coeff(p, l)
        direct += (B * B).as_fraction() * Fraction(l * (l + 1)) ** power
    if not engine.is_rational or engine.as_fraction() != direct:
        raise InternalConsistencyError(
            f"(L^2)^{power} engine expectation {engine} differs from the "
            f"explicit sum {direct} at {p}")
    return direct
