"""Field-averaged angular-momentum transfer within an n-manifold.

The evolution operator e^(i chi A_z) is never exponentiated numerically:
within a manifold its matrix elements come spectrally from the exact basis
change and the integer A_z eigenvalues q. B, C, the floats of B and C and the
Gram matrix of C^2 are all read from the B/C block of basis.b_block, each
float rounded once from integers; _p_block reads the block's b_floats and
c_floats directly, so B's floats carry the sign of the block's stored rows,
the one its az_eigenvalues checks. Blocks m and -m are one block, so every
sum over m reads each block once per |m|. The time-averaged table P-bar is
fully rational: its C^2 double sum is one entry of each block's Gram matrix,
the |m| > 0 entries counted twice, and it is checked entry by entry against
sum_j X(j)^2, X(j) = {l l' j; J J J}, J = (n-1)/2, j from |l-l'| to
j_max = min(l+l', n-1). Schulten and Gordon's recurrence in j (J. Math.
Phys. 16, 1961 (1975)) gives X(j)^2 = y(j)^2 H(j) / (n sum_j (2j+1) y(j)^2
H(j)), run in integers down from y(j_max+1) = 0 and y(j_max) = 1:

    g(j) = (j^2 - (l-l')^2) ((l+l'+1)^2 - j^2) (n^2 - j^2)
    y(j-1) = -g(j+1) y(j+1) - (2j+1) (l(l+1) + l'(l'+1) - j(j+1)) y(j)
    H(j) = g(|l-l'|+1) g(|l-l'|+2) ... g(j), each g > 0

and seeded by 6j orthogonality, sum_j (2j+1) n X(j)^2 = 1. So the 6j side
reads no factorial and shares nothing with the Gram route, whose blocks come
from a 3jm seed and L^2's recurrence in q: a wrong coefficient or scale on
either side moves its sum and trips the guard. Each route is one integer
pair (num, den), compared by cross-multiplying, and one Fraction is built
per entry. pbar_table runs both routes for l <= l' only: the 6j symbol is
symmetric under l <-> l', so (2l+1) P-bar(l, l') = (2l'+1) P-bar(l', l)
exactly, and one pair gives both entries. The oscillatory P at given chi,
the only floating output, comes from one kernel over a set of (l, l') pairs
(p_table: every pair; p_transition: one): each |m| block gives a pair the
spectral |sum_q B_l' B_l e^(i q chi)|^2 and, as its guard, the C route
|sum_q C_l C_l' e^(i q chi)|^2, the printed quadruple cosine sum factored by
cos(a - b) = cos a cos b + sin a sin b; both come from one pass over q per
pair, each of the four float sums in q order. n must be an int >= 1, l and
l' ints in 0..n-1 and chi a real with chi*(n-1) a finite float; anything
else is a DomainError. The P-bar routes check the blocks' (2n-1)!, the
largest k! they read, against the factorial table's limit before they build
any block. csv is imported inside TransitionTable.to_csv, so importing the
package, or writing a table as JSON, does not pay for it.
"""
from __future__ import annotations

import io
import json
from fractions import Fraction
from itertools import accumulate
from math import cos, sin
from operator import mul

from .basis import _check_n, _finite_real, _is_int, _pair_sum, b_block, q_values
from .errors import DomainError, InternalConsistencyError
from .pfrational import default_table
from .radical import RadicalSum, render_exact
from .record import Record

P_AGREEMENT_TOL = 1e-12


def _check_l(n: int, *ls: int) -> None:
    """DomainError unless n is an int >= 1 and every l an int in 0..n-1."""
    _check_n(n)
    for l in ls:
        if not _is_int(l) or not 0 <= l <= n - 1:
            raise DomainError(f"need int 0 <= l <= n-1, got l = {l!r}, n = {n}")


def _check_pbar(n: int, *ls: int) -> None:
    """_check_l, then FactorialLimitError unless the default table reaches
    (2n-1)!, the largest k! that P-bar reads (the blocks of n), before any
    block is built."""
    _check_l(n, *ls)
    default_table().require(2 * n - 1)


def c_coefficient(n: int, q: int, l: int, m: int) -> RadicalSum:
    """C(q l m) = 3jm((n-1)/2 (n-1)/2 l; (m-q)/2 (m+q)/2 -m), from the block.

    n >= 1, q, l and m must be ints, not bools (DomainError otherwise). Int
    arguments outside the (n, m) block, which the 3jm selection rules send to
    zero, give zero; it never raises for them.
    """
    _check_n(n)
    if not all(map(_is_int, (q, l, m))):
        raise DomainError(f"q, l, m = {q!r}, {l!r}, {m!r} must be ints, not bools")
    upper = n - abs(m) - 1
    if not (abs(m) <= l <= n - 1 and abs(q) <= upper and (q + upper) % 2 == 0):
        return RadicalSum.zero()
    c, d = b_block(n, m).c_monomials[(q + upper) // 2][l - abs(m)]
    return RadicalSum({d: c})


def _sixj_squares(n: int, l: int, lp: int) -> tuple[list[int], int]:
    """([y(j)^2 H(j) for j = |l-l'|..j_max], n sum_j (2j+1) y(j)^2 H(j)):
    the squares X(j)^2 over one den, by the module docstring's recurrence;
    arguments unchecked."""
    lo, hi = abs(l - lp), min(l + lp, n - 1)
    s, top, nn, mid = lo * lo, (l + lp + 1) ** 2, n * n, l * (l + 1) + lp * (lp + 1)
    g = [(j * j - s) * (top - j * j) * (nn - j * j) for j in range(lo, hi + 2)]
    y = [0] * (hi - lo + 2)  # y(j) at y[j - lo]; g(hi + 1) = 0 = y(hi + 1)
    y[hi - lo] = 1
    for j in range(hi, lo, -1):
        i = j - lo
        y[i - 1] = -g[i + 1] * y[i + 1] - (2 * j + 1) * (mid - j * (j + 1)) * y[i]
    w = [x * x * h for x, h in zip(y, accumulate(g[1:-1], mul, initial=1))]
    return w, n * sum((2 * j + 1) * x for j, x in enumerate(w, lo))


def p_bar_6j_terms(n: int, l: int, lp: int) -> dict[int, Fraction]:
    """Squared-6j contributions {l l' j; J J J}^2 to P-bar by recoupling rank j,
    J = (n-1)/2, from the recurrence in j of the module docstring.

    j runs over every triangle-admissible value, not only 0..l-l': the extra
    terms do not vanish (callers can inspect this directly). l and l' must
    lie in the manifold (DomainError otherwise).
    """
    _check_l(n, l, lp)
    w, den = _sixj_squares(n, l, lp)
    return {j: Fraction(x, den) for j, x in enumerate(w, abs(l - lp))}


def _p_bar_pair(n: int, l: int, lp: int) -> tuple[int, int]:
    """P-bar(l, l') / (2l'+1), symmetric in l <-> l', as (num, den), not
    reduced: sum_m sum_q C^2(q l m) C^2(q l' m), one Gram entry per block |m|
    (counted twice for |m| > 0) over the lcm of their denominators, once the
    6j sum equals it (InternalConsistencyError otherwise); arguments unchecked.
    """
    grams = [b_block(n, am).c_gram for am in range(min(l, lp) + 1)]
    num, den = _pair_sum(*((g[l - am][lp - am] * (2 if am else 1), d)
                           for am, (g, d) in enumerate(grams)))
    w, den6 = _sixj_squares(n, l, lp)
    num6 = sum(w)
    if num * den6 != num6 * den:
        raise InternalConsistencyError(
            f"P-bar({l},{lp}) routes disagree at n={n}: "
            f"double-sum {Fraction((2 * lp + 1) * num, den)} "
            f"vs 6j {Fraction((2 * lp + 1) * num6, den6)}")
    return num, den


def p_bar(n: int, l: int, lp: int) -> Fraction:
    """Time-averaged l -> l' transfer probability, exact.

    The C^2 double sum (one Gram entry per m-block) must equal the
    squared-6j sum exactly (InternalConsistencyError otherwise).
    """
    _check_pbar(n, l, lp)
    num, den = _p_bar_pair(n, l, lp)
    return Fraction((2 * lp + 1) * num, den)


def p_bar_closed(n: int, lp: int, l_init: int) -> Fraction:
    """The printed closed forms for initial l = 0 and l = 1, verbatim.

    l_init = 0: 1/n. l_init = 1: the printed expression, whose numerator term
    "-2(l+1)+1" is compared against the double-sum oracle by
    closed_form_report; agreement is not assumed. l' must lie in the
    manifold (DomainError otherwise).
    """
    _check_l(n, lp)
    if not _is_int(l_init) or l_init not in (0, 1):
        raise DomainError(f"closed forms exist for l_init in (0, 1), got {l_init!r}")
    if l_init == 0:
        return Fraction(1, n)
    if n < 2:
        raise DomainError("the initial-l=1 form needs n >= 2")
    l = lp
    return Fraction(n * n * (4 * l * (l + 1) - 1) - 2 * (l + 1) + 1,
                    n * (n * n - 1) * (2 * l - 1) * (2 * l + 3))


def closed_form_report(n: int, l_init: int) -> list[dict]:
    """Printed closed form vs the exact double-sum oracle, per final l'.

    Each record preserves both values; a "mismatch" verdict documents the
    discrepancy rather than failing.
    """
    _check_n(n)
    out = []
    for lp in range(n):
        printed = p_bar_closed(n, lp, l_init)
        oracle = p_bar(n, l_init, lp)
        rec = {
            "n": n, "l_init": l_init, "l_final": lp,
            "printed": render_exact(printed), "oracle": render_exact(oracle),
            "verdict": "exact-match" if printed == oracle else "mismatch",
        }
        if printed != oracle:
            rec["difference"] = render_exact(printed - oracle)
        out.append(rec)
    return out


def chi_from_time(n: int, t: float) -> float:
    """The accumulated phase chi = 3 n t / 2 of a constant field over time t;
    n must be an int >= 1 and t a real, not a bool, with t and chi finite."""
    _check_n(n)
    if not _finite_real(t, 1.5, n):
        raise DomainError(f"t = {t!r} must be finite and real, with 3 n t / 2 finite")
    return 1.5 * n * t


class TransitionTable(Record):
    """P or P-bar over one manifold: rows l, columns l'.

    kind "pbar" holds exact Fractions (or ints, not bools); kind "p" holds
    floats at the stored chi, which must be a finite real, not a bool. n
    must be an int >= 1 and entries an n x n tuple of rows. Every entry lies
    in [0, 1], and every row of a "pbar" table sums to 1 exactly
    (DomainError otherwise).
    """

    n: int
    kind: str
    entries: tuple[tuple, ...]
    chi: float | None = None

    def __post_init__(self):
        if self.kind not in ("pbar", "p"):
            raise DomainError(f"kind must be 'pbar' or 'p', got {self.kind!r}")
        if self.kind == "p" and not _finite_real(self.chi):
            raise DomainError(f"kind 'p' needs a finite real chi, got {self.chi!r}")
        _check_n(self.n)
        n, e = self.n, self.entries
        if self.kind == "pbar":
            types, what = (Fraction, int), "Fractions or ints"
        else:
            types, what = float, "floats"
        if not (isinstance(e, tuple) and len(e) == n and all(
                isinstance(row, tuple) and len(row) == n and all(
                    isinstance(x, types) and not isinstance(x, bool) for x in row)
                for row in e)):
            raise DomainError(f"entries of a {self.kind!r} table with n = {n} must "
                              f"be a {n} x {n} tuple of rows of {what}")
        slack = 0 if self.kind == "pbar" else 1e-12  # float rounding headroom
        for l, row in enumerate(e):
            for x in row:
                if not -slack <= x <= 1 + slack:
                    raise DomainError(f"entry {x} outside [0, 1]")
            if self.kind == "pbar":
                num, den = _pair_sum(*(x.as_integer_ratio() for x in row))
                if num != den:
                    raise DomainError(f"row l={l} of a 'pbar' table sums to "
                                      f"{Fraction(num, den)}, not 1")

    def to_csv(self) -> str:
        import csv  # not at module level: only a CSV table pays its import

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["l"] + [f"lp{lp}" for lp in range(self.n)])
        for l, row in enumerate(self.entries):
            if self.kind == "pbar":
                writer.writerow([l] + [render_exact(x) for x in row])
            else:
                writer.writerow([l] + [repr(x) for x in row])
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {"n": self.n, "kind": self.kind}
        if self.kind == "pbar":
            payload["entries"] = [[render_exact(x) for x in row]
                                  for row in self.entries]
        else:
            chi = self.chi  # an int or float as given, another real as its binary64
            payload["chi"] = chi if isinstance(chi, (int, float)) else float(chi)
            payload["entries"] = [list(row) for row in self.entries]
        return json.dumps(payload, indent=2)


def pbar_table(n: int) -> TransitionTable:
    """P-bar(l, l') for every l, l' of the manifold, exact.

    n and the factorial bound are checked once. Both routes and their guard
    run for l <= l' only, n(n+1)/2 pairs; each pair (num, den) gives both
    P-bar(l, l') = (2l'+1) num/den and, by detailed balance, P-bar(l', l) =
    (2l+1) num/den, which holds exactly because the 6j symbol
    {l l' j; J J J} is symmetric under l <-> l'.
    """
    _check_pbar(n)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for l in range(n):
        for lp in range(l, n):
            num, den = _p_bar_pair(n, l, lp)
            rows[l][lp] = Fraction((2 * lp + 1) * num, den)
            rows[lp][l] = Fraction((2 * l + 1) * num, den)
    return TransitionTable(n, "pbar", tuple(map(tuple, rows)))


def _phases(n: int, chi: float) -> dict[int, tuple[float, float]]:
    """{q: (cos(chi*q), sin(chi*q))} for |q| <= n-1; DomainError unless
    _finite_real(chi, n - 1), so that every phase is finite."""
    if not _finite_real(chi, n - 1):
        raise DomainError(f"chi = {chi!r} must be finite and real, "
                          f"with chi*(n-1) finite at n = {n}")
    return {q: (cos(chi * q), sin(chi * q)) for q in range(1 - n, n)}


def _p_block(n: int, am: int, phase: dict, pairs) -> list[tuple]:
    """(l, l', |U_m[l, l']|^2, C-route term) of the block |m| = am, for each
    (l, l') of pairs with am <= l <= l'.

    U_m = B^T diag(e^(i q chi)) B. B's floats are those of |m| and q_values
    is the same set for +-m, so both terms are the same for m and -m.
    x * y == y * x in binary64, so U_m is symmetric to the last bit and one
    pair serves both entries. Both routes share one pass over q, each sum
    taken in q order: |sum_q B_l' B_l e^(i q chi)|^2 and, as its guard,
    |sum_q C_l C_l' e^(i q chi)|^2. A zero weight w is added, not skipped:
    adding +-0.0 leaves a nonzero sum as it is, and a sum that starts at
    +0.0 is never -0.0 (x + y rounds to -0.0 only when both are -0.0), so
    each sum equals the one that skips w == 0.
    """
    cosq, sinq = zip(*(phase[q] for q in q_values(n, am)))
    blk = b_block(n, am)
    b, c = list(zip(*blk.b_floats)), list(zip(*blk.c_floats))
    out = []
    for l, lp in pairs:
        if l < am:
            continue
        re_b = im_b = re_c = im_c = 0.0
        for x, y, u, v, co, si in zip(b[lp - am], b[l - am], c[l - am], c[lp - am],
                                      cosq, sinq):
            w = x * y
            re_b += w * co
            im_b += w * si
            w = u * v
            re_c += w * co
            im_c += w * si
        out.append((l, lp, re_b * re_b + im_b * im_b, re_c * re_c + im_c * im_c))
    return out


def _p_entries(n: int, chi: float, blocks: list, wanted) -> list[float]:
    """P(l, l'; chi) for each (l, l') of wanted, from blocks[|m|] = _p_block.

    Each pair's terms are added for m ascending and divided by 2l+1, and the
    entry must agree to P_AGREEMENT_TOL with (2l'+1) times the C route
    (InternalConsistencyError otherwise).
    """
    spectral = [[0.0] * n for _ in range(n)]
    c_route = [[0.0] * n for _ in range(n)]
    for m in range(1 - len(blocks), len(blocks)):
        for l, lp, u, h in blocks[abs(m)]:
            spectral[l][lp] += u
            c_route[l][lp] += h
    out = []
    for l, lp in wanted:
        i, j = min(l, lp), max(l, lp)
        p = spectral[i][j] / (2 * l + 1)
        other = (2 * lp + 1) * c_route[i][j]
        if abs(p - other) > P_AGREEMENT_TOL:
            raise InternalConsistencyError(
                f"P({l},{lp};chi={chi}) routes disagree at n={n}: "
                f"{p} vs {other}")
        out.append(p)
    return out


def p_transition(n: int, l: int, lp: int, chi: float) -> float:
    """P(l, l'; chi): l -> l' transfer probability after accumulated phase chi.

    p_table's kernel over the one pair and the blocks |m| <= min(l, l'),
    guard included (InternalConsistencyError on failure).
    """
    _check_l(n, l, lp)
    phase, pair = _phases(n, chi), [(min(l, lp), max(l, lp))]
    blocks = [_p_block(n, am, phase, pair) for am in range(min(l, lp) + 1)]
    return _p_entries(n, chi, blocks, [(l, lp)])[0]


def p_table(n: int, chi: float) -> TransitionTable:
    """P(l, l'; chi) for every l, l' of the manifold, one pass per |m|.

    Block m contributes |U_m[l, l']|^2, the same for m and -m, so each block
    is computed once per |m|. Every row of every U_m must have unit norm,
    checked once per |m|, and every entry passes p_transition's C-route
    guard (InternalConsistencyError on failure).
    """
    _check_n(n)
    phase = _phases(n, chi)
    pairs = [(l, lp) for l in range(n) for lp in range(l, n)]
    blocks = [_p_block(n, am, phase, pairs) for am in range(n)]
    for am, block in enumerate(blocks):
        norms = [0.0] * n
        for l, lp, u, _ in block:
            norms[l] += u
            if lp != l:
                norms[lp] += u
        for l in range(am, n):
            if abs(norms[l] - 1.0) > P_AGREEMENT_TOL:
                raise InternalConsistencyError(
                    f"U_m(chi={chi}) is not unitary at n={n}, m={am}: "
                    f"row l={l} has norm^2 {norms[l]}")
    p = _p_entries(n, chi, blocks, [(l, lp) for l in range(n) for lp in range(n)])
    rows = tuple(tuple(p[l * n:(l + 1) * n]) for l in range(n))
    return TransitionTable(n, "p", rows, chi=chi)
