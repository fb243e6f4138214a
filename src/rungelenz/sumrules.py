"""Exact evaluation of the Runge-Lenz sum rules and generic A_z / L^2 moments.

Every rule runs over Q on the rational gauge of basis.b_block: B[n1, l] =
s (-1)^l sqrt(a(n1) b(l)) r(n1, l) with r the Racah alternating sum of B's
3jm, and A_z conjugated by diag(sqrt b) is the block's rational tridiagonal J.
The block stores rho = R/D with rho = (-1)^l r, b = N/b_den and J's bands as
U/Delta and W/Delta. The L^2 rule sums a sum N R^2 l(l+1) over b_den D^2.
Every A_z^k rule and moment reads <p| A_z^k |p> = a sum_l b rho (J^k rho)
from one identity per row, checked once per block: r comes from the Racah
sum, never from J's recurrence, and the block's az_eigenvalues checks J rho
= q rho on every row in integers, J^T (N R) = q Delta (N R), mirrored rows
included, halting with InternalConsistencyError on a row that fails. With
the row's norm guard a sum N R^2 = b_den D^2 (b_block's) that gives q^k for
every k at once, so every row reads q^k. Each report compares that with the
analytic right-hand side.

For k = 2, 3, 4 the explicit weight-ratio forms as printed in the source
material are re-derived verbatim in one route: each term one monomial c
sqrt(d) built from reduced (num, den) int pairs (a rational scale times the
roots of the term's radicands: weight, ratio and each beta^2 of a chain,
joined with the block's roots of the 3jm pair). Per (n, |m|, k) the terms,
summed per (l <= l') and radicand into P, are kept only as their exact
difference Delta from the canonical S = b J^k, P = (-1)^k S + Delta, over one
denominator, plus the terms with a negative radicand as printed. A label's
printed LHS is then (-1)^k times its canonical LHS plus a rho^T Delta rho;
Delta is whatever the transcription gives (one band at k = 2, empty at 3 and
4), so suspected misprints surface as reported discrepancies, never as
silent corrections.

A SumRuleReport keeps the canonical LHS and RHS as Fractions and the printed
LHS as those integer numerators per radicand over one denominator, and goes
from them straight to text: a rational as num/den, the printed form in the
fixed grammar with one gcd per term (radical._over_parts), its difference as
the same radical terms with the RHS taken from the rational one, and the
JSON object in the package's JSON layout, the text
json.dumps(to_dict(), indent=2) gives. Its lhs, printed_lhs and difference
are RadicalSums built on demand.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .basis import (ParabolicLabel, _is_int, _over_lcm, _pair_sum, _ratio, b_block,
                    beta_squared, spherical_ls, unit_parabolic)
from .errors import DomainError, InternalConsistencyError
from .operators import expression_apply, l_squared_expression
from .radical import (RadicalSum, _combine_radicands, _joined, _json_object,
                      _json_str, _over_parts, _split_radicand)
from .wigner import _neg1


# a printed LHS: integer numerators by squarefree radicand, and their one
# positive denominator
PrintedForm = tuple[dict[int, int], int]


class SumRuleReport:
    """Outcome of one sum-rule evaluation at one parameter tuple.

    verdict is "exact-match" iff the canonical LHS equals the analytic RHS;
    otherwise "mismatch" with the exact difference. Both are kept as
    Fractions (a RadicalSum lhs must be rational). When the printed explicit
    form exists it is carried alongside with its own verdict ("exact-match",
    "mismatch" or "not-evaluable") -- printed-form issues are warnings, not
    failures of the canonical route. The printed LHS is kept as integer
    numerators per squarefree radicand over one positive denominator,
    printed=(nums, den), and rendered from them; lhs, printed_lhs and
    difference are RadicalSums built on demand.
    """

    __slots__ = ("rule", "n", "m", "n1", "n2", "power", "_lhs", "rhs", "verdict",
                 "_printed", "printed_rhs", "printed_verdict", "printed_note")

    def __init__(self, rule: str, n: int, m: int, n1: int, n2: int, power: int,
                 lhs, rhs, printed: PrintedForm | None = None,
                 printed_rhs: Fraction | None = None,
                 printed_verdict: str | None = None,
                 printed_note: str | None = None):
        self.rule, self.n, self.m, self.n1, self.n2, self.power = rule, n, m, n1, n2, power
        self._lhs = _fraction(lhs)
        self.rhs = _fraction(rhs)
        self.verdict = "exact-match" if self._lhs == self.rhs else "mismatch"
        self._printed = printed
        self.printed_rhs = printed_rhs
        self.printed_note = printed_note
        if printed is not None and printed_verdict is None:
            nums, den = printed
            exact = (printed_rhs is not None
                     and not any(c for d, c in nums.items() if d != 1)
                     and nums.get(1, 0) * printed_rhs.denominator
                     == printed_rhs.numerator * den)
            printed_verdict = "exact-match" if exact else "mismatch"
        self.printed_verdict = printed_verdict

    @property
    def ok(self) -> bool:
        return self.verdict == "exact-match"

    @property
    def lhs(self) -> RadicalSum:
        return RadicalSum.from_rational(self._lhs)

    @property
    def difference(self) -> RadicalSum | None:
        return None if self.ok else RadicalSum.from_rational(self._lhs - self.rhs)

    @property
    def printed_lhs(self) -> RadicalSum | None:
        return None if self._printed is None else _radical(*self._printed)

    def to_json(self, indent: str = "") -> str:
        """The report as JSON text, laid out as json.dumps(to_dict(), indent=2)
        with every line after the first indented by `indent`: the fixed head
        (rule, params, lhs, rhs, verdict) in one f-string, then the optional
        difference and printed fields."""
        inner = indent + "  "
        deep = inner + "  "
        lhs, rhs = self._lhs, self.rhs
        head = (f'{{\n{inner}"rule": {_json_str(self.rule)},\n{inner}"params": {{\n'
                f'{deep}"n": {self.n!r},\n{deep}"m": {self.m!r},\n'
                f'{deep}"n1": {self.n1!r},\n{deep}"n2": {self.n2!r},\n'
                f'{deep}"p": {self.power!r}\n{inner}}},\n'
                f'{inner}"lhs": "{lhs.numerator}/{lhs.denominator}",\n'
                f'{inner}"rhs": "{rhs.numerator}/{rhs.denominator}",\n'
                f'{inner}"verdict": "{self.verdict}"')
        fields = []
        if not self.ok:
            fields.append(("difference", _json_str(_rational_text(lhs - rhs))))
        if self.printed_verdict is not None:
            printed = [("verdict", _json_str(self.printed_verdict))]
            if self._printed is not None:
                parts = _over_parts(*self._printed)
                printed.append(("lhs", _json_str(_joined(parts))))
            if self.printed_rhs is not None:
                printed.append(("rhs", _json_str(_rational_text(self.printed_rhs))))
                if self._printed is not None and self.printed_verdict == "mismatch":
                    printed.append(("difference",
                                    _json_str(self._printed_difference(parts))))
            if self.printed_note:
                printed.append(("note", _json_str(self.printed_note)))
            fields.append(("printed", _json_object(printed, inner)))
        tail = "".join(f',\n{inner}"{key}": {value}' for key, value in fields)
        return f"{head}{tail}\n{indent}}}"

    def to_dict(self) -> dict:
        """The report as a dict, parsed from to_json so the two cannot differ."""
        return json.loads(self.to_json())

    def lhs_text(self) -> str:
        return _rational_text(self._lhs)

    def rhs_text(self) -> str:
        return _rational_text(self.rhs)

    def _printed_difference(self, parts: list[str]) -> str:
        """printed_lhs - printed_rhs from the printed LHS's signed parts: only
        the rational part changes, to (c q - p den)/(den q) for c on radicand 1
        and printed_rhs = p/q; the radical parts are reused as rendered."""
        nums, den = self._printed
        p, q = self.printed_rhs.numerator, self.printed_rhs.denominator
        radical = parts[1:] if nums.get(1) else parts
        return _joined(_over_parts({1: nums.get(1, 0) * q - p * den}, den * q) + radical)

    def __repr__(self) -> str:
        return f"SumRuleReport({self.to_json()})"


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return x.as_fraction() if isinstance(x, RadicalSum) else Fraction(x)


def _rational_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _radical(nums: dict[int, int], den: int) -> RadicalSum:
    return RadicalSum({d: Fraction(c, den) for d, c in nums.items()})


def _check_power(power: int, least: int) -> None:
    if not _is_int(power) or power < least:
        raise DomainError(f"power = {power!r} must be an int >= {least}")


def _b_squared_sum(p: ParabolicLabel, f) -> Fraction:
    """sum_l B^2(l) f(l) = a sum_l b(l) rho(l)^2 f(l) for an integer f,
    summed as a sum_l N R^2 f over b_den D^2."""
    blk = b_block(p.n, p.m)
    d = blk.rho_den[p.n1]
    total = sum(w * x * x * f(l) for l, w, x in zip(
        spherical_ls(p.n, p.m), blk.b_num, blk.rho_num[p.n1]))
    return Fraction(blk.a[p.n1] * total, blk.b_den * d * d)


def sum_rule_l2(p: ParabolicLabel) -> SumRuleReport:
    """sum_l B^2(l) l(l+1) = [n^2 - 1 + m^2 - (n1-n2)^2] / 2."""
    lhs = _b_squared_sum(p, lambda l: l * (l + 1))
    rhs = Fraction(p.n**2 - 1 + p.m**2 - p.q**2, 2)
    return SumRuleReport("l2", p.n, p.m, p.n1, p.n2, 1, lhs, rhs)


def _az_contraction(p: ParabolicLabel, power: int) -> Fraction:
    """<p| A_z^power |p> = a sum_l rho(l) b(l) (J^power rho)(l) = q^power, q
    read from the block's az_eigenvalues: J rho = q rho and the row's norm
    give it for every power at once."""
    return Fraction(b_block(p.n, p.m).az_eigenvalues[p.n1] ** power)


def _sqrt_term(scale: tuple[int, int],
               *radicands: tuple[int, int]) -> tuple[tuple[int, int], int] | None:
    """scale prod sqrt(r) over the rational radicands r = (p, q) in lowest
    terms, q > 0, of one printed term as ((c, e), d), c/e sqrt(d) with c/e in
    lowest terms and d squarefree; ((0, 1), 1) if the scale or some r is 0,
    else None if some r is negative (not evaluable over the reals)."""
    num, den = scale
    if not num or not all(p for p, _ in radicands):
        return (0, 1), 1
    if any(p < 0 for p, _ in radicands):
        return None
    d = 1
    for p, q in radicands:
        # sqrt(p/q) = a sqrt(e)/q with p q = a^2 e
        a, e = _split_radicand(p * q)
        g, d = _combine_radicands(d, e)
        num *= a * g
        den *= q
    return _ratio(num, den), d


def _printed_terms(n: int, m: int, power: int) -> tuple[tuple[tuple, ...], int]:
    """The printed A_z^power form of the (n, m) block as terms (i, j, C, d,
    note) over one denominator E: each term is C/E sqrt(d); not kept.

    The bare 3jm of B's definition is T(l) = (-1)^m sqrt(a) r(l) u(l) sqrt(e(l))
    in the gauge, so every printed term is a rho(l) rho(l') c sqrt(d), with
    c sqrt(d) the pair's roots u sqrt(e) times the term's _sqrt_term (its
    weight, ratio or beta chain) and i, j = l - |m|, l' - |m|. The u are put over
    their lcm V, so a term is an integer pair part over V^2 times a small
    rational kernel, and E = V^2 K with K the lcm of the kernels'
    denominators. Every factor is a reduced (num, den) int pair. A term with a
    negative radicand as printed carries its note instead; a term that
    vanishes for every label of the block is left out. Every factor depends on
    m through m^2 only, so callers pass |m|.
    """
    am = abs(m)
    ls = spherical_ls(n, m)
    roots = b_block(n, m).roots
    us, v = _over_lcm([u for u, _ in roots])

    def pair(l: int, lp: int) -> tuple:
        i, j = l - am, lp - am
        g, d = _combine_radicands(roots[i][1], roots[j][1])
        return _neg1(l + lp) * us[i] * us[j] * g, d

    # beta^2(l) for am - 3 <= l <= n + 3, 0 below l = 0, at index l - am + 3
    b2 = [beta_squared(n, l, m).as_integer_ratio() if l >= 0 else (0, 1)
          for l in range(am - 3, n + 4)]

    def bsq(l: int) -> tuple[int, int]:
        return b2[l - am + 3]

    out = []
    for l in ls:
        if power == 2:
            x = (l * l - m * m) * (n * n - l * l)
            y = ((l + 1) ** 2 - m * m) * (n * n - (l + 1) ** 2)
            e0, e1 = 4 * l * l - 1, 4 * (l + 1) ** 2 - 1
            diag = _pair_sum((x, e0), (y, e1))
            pieces = [
                # (l-2): weight sqrt((2l+1)(2l-3)), denominators (4l^2-1)(4(l-1)^2-1)
                (l - 2, (1, 1), ((2 * l + 1) * (2 * l - 3), 1), _ratio(
                    x * ((l - 1) ** 2 - m * m) * (n * n - (l - 1) ** 2),
                    e0 * (4 * (l - 1) ** 2 - 1))),
                # (l+2): denominators (4l^2-1)(4(l+1)^2-1) as printed -- the
                # suspected typo; beta_(l+1) beta_(l+2) would need
                # (4(l+1)^2-1)(4(l+2)^2-1)
                (l + 2, (1, 1), ((2 * l + 1) * (2 * l + 5), 1), _ratio(
                    ((l + 2) ** 2 - m * m) * (n * n - (l + 2) ** 2) * y, e0 * e1)),
            ]
        elif power == 3:
            diag = None
            pieces = [
                (l - 3, (1, 1), ((2 * l + 1) * (2 * l - 5), 1),
                 bsq(l - 2), bsq(l - 1), bsq(l)),
                (l - 1, _pair_sum(bsq(l - 1), bsq(l), bsq(l + 1)),
                 (4 * l * l - 1, 1), bsq(l)),
                (l + 1, _pair_sum(bsq(l), bsq(l + 1), bsq(l + 2)),
                 ((2 * l + 1) * (2 * l + 3), 1), bsq(l + 1)),
                (l + 3, (1, 1), ((2 * l + 1) * (2 * l + 7), 1),
                 bsq(l + 1), bsq(l + 2), bsq(l + 3)),
            ]
        else:
            (p0, q0), (p1, q1) = bsq(l + 1), bsq(l)
            (s0, t0), (s1, t1) = (_pair_sum(bsq(l), bsq(l + 1), bsq(l + 2)),
                                  _pair_sum(bsq(l - 1), bsq(l), bsq(l + 1)))
            diag = _pair_sum((p0 * s0, q0 * t0), (p1 * s1, q1 * t1))
            pieces = [
                (l - 4, (1, 1), ((2 * l + 1) * (2 * l - 7), 1),
                 bsq(l - 3), bsq(l - 2), bsq(l - 1), bsq(l)),
                (l - 2, _pair_sum(bsq(l - 2), bsq(l - 1), bsq(l), bsq(l + 1)),
                 ((2 * l + 1) * (2 * l - 3), 1), bsq(l - 1), bsq(l)),
                (l + 2, _pair_sum(bsq(l), bsq(l + 1), bsq(l + 2), bsq(l + 3)),
                 ((2 * l + 1) * (2 * l + 5), 1), bsq(l + 1), bsq(l + 2)),
                (l + 4, (1, 1), ((2 * l + 1) * (2 * l + 9), 1),
                 bsq(l + 1), bsq(l + 2), bsq(l + 3), bsq(l + 4)),
            ]
        i = l - am
        if diag is not None:
            c, d = pair(l, l)
            out.append((i, i, c, _ratio(diag[0] * (2 * l + 1), diag[1]), d, None))
        for lp, scale, *radicands in pieces:
            if lp not in ls:
                continue
            kernel = _sqrt_term(scale, *radicands)
            if kernel is None:
                out.append((i, lp - am, 0, (0, 1), 1, f"term (l={l} -> l'={lp}) has "
                                                      f"a negative radicand as printed"))
            elif kernel[0][0]:
                c, d = pair(l, lp)
                g, d = _combine_radicands(d, kernel[1])
                out.append((i, lp - am, c * g, kernel[0], d, None))
    den = lcm(*(k for _, _, _, (_, k), _, _ in out))
    return tuple((i, j, c * k * (den // e), d, note)
                 for i, j, c, (k, e), d, note in out), v * v * den


@lru_cache(maxsize=None)
def _printed_delta(n: int, m: int, power: int) -> tuple[tuple, tuple, int]:
    """The printed A_z^power form of the (n, |m|) block as its exact
    difference from the canonical one: (notes, delta, L).

    A label's printed LHS is a rho^T P rho, with P the block's printed terms
    summed per (i <= j) and radicand, and its canonical LHS is a rho^T S rho,
    S = b J^power, summed the same way. delta lists the nonzero entries
    (i, j, d, c) of P - (-1)^power S, each c sqrt(d) / L with L = lcm(E,
    b_den Delta^power), in integers. notes lists the printed terms with a
    negative radicand as (i, j, note), in printed order. Nothing is assumed
    about where P and S differ: a changed printed term changes delta.
    """
    blk = b_block(n, m)
    terms, e = _printed_terms(n, m, power)
    s_den = blk.b_den * blk.j_den ** power
    big_l = lcm(e, s_den)
    minus_s = -_neg1(power) * (big_l // s_den)
    entries = [(i, j, d, c * (big_l // e)) for i, j, c, d, note in terms if not note]
    entries += [(i, j, 1, x * minus_s) for j, col in enumerate(blk.b_j_power(power))
                for i, x in enumerate(col) if x]
    acc: dict[tuple[int, int, int], int] = {}
    for i, j, d, c in entries:
        key = (min(i, j), max(i, j), d)
        acc[key] = acc.get(key, 0) + c
    return (tuple((i, j, note) for i, j, _, _, note in terms if note),
            tuple((i, j, d, c) for (i, j, d), c in acc.items() if c), big_l)


def _printed_az_ints(p: ParabolicLabel, power: int,
                     lhs: Fraction) -> tuple[PrintedForm | None, str | None]:
    """The explicit weight-ratio LHS exactly as printed, as integer numerators
    per radicand over one denominator; ((nums, den), note). lhs is the
    canonical LHS, a rho^T S rho.

    The form is None when a term is not evaluable over the reals (negative
    radicand), which the power-2 form hits through its third-term denominator;
    the note names the first such term, in the printed order, whose 3jm pair
    does not vanish. Otherwise it is (-1)^power lhs + a rho^T delta rho from
    the block's _printed_delta: each radicand's coefficient is a sum_(i <= j)
    R_i R_j c over D^2 L, plus (-1)^power lhs D^2 L on radicand 1.
    """
    blk = b_block(p.n, p.m)
    rho = blk.rho_num[p.n1]
    notes, delta, big_l = _printed_delta(p.n, abs(p.m), power)
    for i, j, note in notes:
        if rho[i] and rho[j]:
            return None, note
    acc: dict[int, int] = {}
    for i, j, d, c in delta:
        acc[d] = acc.get(d, 0) + rho[i] * rho[j] * c
    a = blk.a[p.n1]
    nums = {d: c * a for d, c in acc.items()}
    den = blk.rho_den[p.n1] ** 2 * big_l
    nums[1] = (nums.get(1, 0)
               + _neg1(power) * lhs.numerator * (den // lhs.denominator))
    return (nums, den), None


def sum_rule_az(p: ParabolicLabel, power: int) -> SumRuleReport:
    """The A_z^power rule, power in {2, 3, 4} (the powers with a printed form).

    Canonical route: <p| A_z^power |p> = a sum b rho (J^power rho) by
    _az_contraction, shared with az_moment_generic; RHS = (n1-n2)^power.
    Printed route: the explicit weight-ratio form, read from the canonical
    LHS and the block's _printed_delta, against its own printed RHS (which
    for power 3 is (n2-n1)^3; both statements are consistent, the sign being
    the (-1)^(l+l') phase between B-products and bare-3jm products).
    """
    if not _is_int(power) or power not in (2, 3, 4):
        raise DomainError(f"power must be the int 2, 3 or 4, got {power!r}")
    lhs = _az_contraction(p, power)
    printed, note = _printed_az_ints(p, power, lhs)
    return SumRuleReport(f"az{power}", p.n, p.m, p.n1, p.n2, power,
                         lhs, Fraction(p.q**power),
                         printed=printed, printed_rhs=Fraction((p.n2 - p.n1) ** power),
                         printed_verdict="not-evaluable" if note else None,
                         printed_note=note)


def az_moment_generic(p: ParabolicLabel, power: int) -> SumRuleReport:
    """<p| A_z^power |p> = (n1-n2)^power, the LHS by _az_contraction."""
    _check_power(power, 0)
    lhs = _az_contraction(p, power)
    rhs = Fraction(p.q**power)
    return SumRuleReport("az-moment", p.n, p.m, p.n1, p.n2, power, lhs, rhs)


def l2_power_moment(p: ParabolicLabel, power: int) -> Fraction:
    """sum_l B^2(l) [l(l+1)]^power, via (L^2)^power in the operator engine.

    The engine expectation must equal the explicit spherical-basis sum
    exactly; disagreement halts with InternalConsistencyError.
    """
    _check_power(power, 1)
    expr = l_squared_expression()
    state = unit_parabolic(p)
    for _ in range(power):
        state = expression_apply(expr, state)
    engine = state.coeffs[p.n1]

    direct = _b_squared_sum(p, lambda l: (l * (l + 1)) ** power)
    if engine != direct:
        raise InternalConsistencyError(
            f"(L^2)^{power} engine expectation {engine} differs from the "
            f"explicit sum {direct} at {p}")
    return direct
