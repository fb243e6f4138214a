"""Field-averaged angular-momentum transfer within an n-manifold.

The evolution operator e^(i chi A_z) is never exponentiated numerically:
within a manifold its matrix elements come spectrally from the exact basis
change and the integer A_z eigenvalues q. B, C, the floats of B and C and the
Gram matrix of C^2 are all read from the B/C block of basis.b_block, each
float rounded once from integers; _p_block reads the block's b_floats and
c_floats directly, so B's floats carry the sign of the block's stored rows,
the one its az_eigenvalues checks. Blocks m and -m are one block, so every
sum over m reads each block once per |m|. The time-averaged table P-bar is fully
rational: its C^2 double sum is one entry of each block's Gram matrix, the
|m| > 0 entries counted twice, and it is checked entry by entry against the
sum of squared 6j symbols {l l' j; J J J}^2, each one Fraction of integers
(wigner._sixj_squared). pbar_table runs both routes for l <= l' only: the 6j
symbol is symmetric under l <-> l', so (2l+1) P-bar(l, l') = (2l'+1)
P-bar(l', l) exactly, and the entries l > l' are filled from it. The
oscillatory P at given chi, the only floating output, comes from one kernel
over a set of (l, l') pairs (p_table: every
pair; p_transition: one): each |m| block gives a pair the spectral
|sum_q B_l' B_l e^(i q chi)|^2 and, as its guard, the C route
|sum_q C_l C_l' e^(i q chi)|^2, the printed quadruple cosine sum factored by
cos(a - b) = cos a cos b + sin a sin b. n must be an int >= 1, l and l' ints
in 0..n-1 and chi a real with chi*(n-1) a finite float; anything else is a
DomainError. The P-bar routes check the largest k! they read against the
factorial table's limit before they build any block or series: (2n-1)! for
the blocks, (n+l+l')! for the 6j series, so (3n-2)! for pbar_table. csv is
imported inside TransitionTable.to_csv, so importing the package, or writing
a table as JSON, does not pay for it.
"""
from __future__ import annotations

import io
import json
from fractions import Fraction
from math import cos, sin

from .basis import _check_n, _finite_real, _is_int, b_block, q_values
from .errors import DomainError, InternalConsistencyError
from .pfrational import default_table
from .radical import RadicalSum, render_exact
from .record import Record
from .wigner import _sixj_squared

P_AGREEMENT_TOL = 1e-12


def _check_l(n: int, *ls: int) -> None:
    """DomainError unless n is an int >= 1 and every l an int in 0..n-1."""
    _check_n(n)
    for l in ls:
        if not _is_int(l) or not 0 <= l <= n - 1:
            raise DomainError(f"need int 0 <= l <= n-1, got l = {l!r}, n = {n}")


def _check_pbar(n: int, l: int, lp: int) -> None:
    """_check_l, then FactorialLimitError unless the default table reaches
    the largest k! that P-bar(l, l') reads, before any block or series is
    built: (2n-1)! for the blocks of n and (n+l+l')! for the 6j series."""
    _check_l(n, l, lp)
    default_table().require(max(2 * n - 1, n + l + lp))


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


def _pbar_double_sum(n: int, l: int, lp: int) -> Fraction:
    """(2l'+1) sum_m sum_q C^2(q l m) C^2(q l' m), one Gram entry per block.

    Blocks m and -m are one block, so the |m| > 0 entries count twice.
    """
    total = Fraction(0)
    for am in range(min(l, lp) + 1):
        gram, den = b_block(n, am).c_gram
        total += Fraction(gram[l - am][lp - am] * (2 if am else 1), den)
    return (2 * lp + 1) * total


def p_bar_6j_terms(n: int, l: int, lp: int) -> dict[int, Fraction]:
    """Squared-6j contributions {l l' j; J J J}^2 to P-bar by recoupling rank j,
    J = (n-1)/2.

    j runs over every triangle-admissible value, not only 0..l-l': the extra
    terms do not vanish (callers can inspect this directly). l and l' must
    lie in the manifold (DomainError otherwise).
    """
    _check_l(n, l, lp)
    default_table().require(n + l + lp)  # the largest k! of the series
    tJ = n - 1
    return {tj // 2: _sixj_squared(2 * l, 2 * lp, tj, tJ)
            for tj in range(2 * abs(l - lp), 2 * min(l + lp, n - 1) + 1, 2)}


def p_bar(n: int, l: int, lp: int) -> Fraction:
    """Time-averaged l -> l' transfer probability, exact.

    Computed by the C^2 double sum (one Gram entry per m-block) and by the
    squared-6j sum; the two must agree exactly (InternalConsistencyError
    otherwise).
    """
    _check_pbar(n, l, lp)
    double = _pbar_double_sum(n, l, lp)
    sixj = (2 * lp + 1) * sum(p_bar_6j_terms(n, l, lp).values(), Fraction(0))
    if double != sixj:
        raise InternalConsistencyError(
            f"P-bar({l},{lp}) routes disagree at n={n}: "
            f"double-sum {double} vs 6j {sixj}")
    return double


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
    in [0, 1]; rows of "p" tables sum to 1 to within 1e-12 (exactly, for
    "pbar").
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
        for row in self.entries:
            for x in row:
                if not -slack <= x <= 1 + slack:
                    raise DomainError(f"entry {x} outside [0, 1]")

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

    p_bar, both routes and their guard, runs for l <= l' only, n(n+1)/2
    calls; each entry below the diagonal is filled by detailed balance,
    P-bar(l', l) = (2l+1)/(2l'+1) P-bar(l, l'), which holds exactly because
    the 6j symbol {l l' j; J J J} is symmetric under l <-> l'.
    """
    _check_n(n)
    default_table().require(3 * n - 2)  # P-bar(n-1, n-1)'s, the largest k!
    rows = [[Fraction(0)] * n for _ in range(n)]
    for l in range(n):
        for lp in range(l, n):
            rows[l][lp] = x = p_bar(n, l, lp)
            rows[lp][l] = x * Fraction(2 * l + 1, 2 * lp + 1)
    return TransitionTable(n, "pbar", tuple(map(tuple, rows)))


def _phases(n: int, chi: float) -> dict[int, tuple[float, float]]:
    """{q: (cos(chi*q), sin(chi*q))} for |q| <= n-1; DomainError unless
    _finite_real(chi, n - 1), so that every phase is finite."""
    if not _finite_real(chi, n - 1):
        raise DomainError(f"chi = {chi!r} must be finite and real, "
                          f"with chi*(n-1) finite at n = {n}")
    return {q: (cos(chi * q), sin(chi * q)) for q in range(1 - n, n)}


def _phase_norm(a, b, cosq, sinq) -> float:
    """|sum_q a_q b_q e^(i q chi)|^2, summed in q order."""
    re = im = 0.0
    for x, y, c, s in zip(a, b, cosq, sinq):
        w = x * y
        if w != 0.0:
            re += w * c
            im += w * s
    return re * re + im * im


def _p_block(n: int, am: int, phase: dict, pairs) -> list[tuple]:
    """(l, l', |U_m[l, l']|^2, C-route term) of the block |m| = am, for each
    (l, l') of pairs with am <= l <= l'.

    U_m = B^T diag(e^(i q chi)) B. B's floats are those of |m| and q_values
    is the same set for +-m, so both terms are the same for m and -m.
    x * y == y * x in binary64, so U_m is symmetric to the last bit and one
    pair serves both entries.
    """
    cosq, sinq = zip(*(phase[q] for q in q_values(n, am)))
    blk = b_block(n, am)
    b, c = list(zip(*blk.b_floats)), list(zip(*blk.c_floats))
    return [(l, lp, _phase_norm(b[lp - am], b[l - am], cosq, sinq),
             _phase_norm(c[l - am], c[lp - am], cosq, sinq))
            for l, lp in pairs if l >= am]


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
