"""Low-field diamagnetic operators on one n-manifold, in generator form.

H1 carries the overall scale gamma^2 n^2 / 16 and H2 the scale
(gamma^2/8)^2 n^6 / 48; matrices here are the dimensionless brace contents,
exact over the parabolic index. H2 is encoded monomial by monomial from its
published expression (see H2_AUDIT) so the transcription stays reviewable;
its symmetry is checked, and any failure is reported per monomial rather
than patched.

Each block is one integer pass of operators._expression_matrix over its
columns, with the expressions built and compiled once per n
(_memo_expression); h2_symmetry_report builds from the current monomial
table instead. The memoised entries of a block (n, |m|) render their JSON
rows once, for m and -m both.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import isfinite

from .basis import _check_n, _finite_real, check_block, q_values
from .errors import DomainError, InternalConsistencyError
from .operators import OperatorExpression, _expression_matrix, l_squared_expression
from .radical import RadicalSum, _json_array, _json_object, _json_str, render_exact
from .record import Record


class DiamagneticParams(Record):
    """gamma = cyclotron frequency / Rydberg constant; the manifold's n.

    The constructor raises DomainError unless both scales are finite floats,
    so h1_scale and h2_scale never overflow once the params exist.
    """

    gamma: float
    n: int

    def __post_init__(self):
        if not (_finite_real(self.gamma) and self.gamma >= 0):
            raise DomainError(f"gamma = {self.gamma!r} must be finite and >= 0")
        _check_n(self.n)
        try:
            finite = isfinite(self.h1_scale()) and isfinite(self.h2_scale())
        except OverflowError:  # a float power, or an int or Fraction, too large
            finite = False
        if not finite:
            raise DomainError(f"gamma = {self.gamma!r}, n = {self.n}: the H1 or H2 "
                              "scale overflows a float")

    def h1_scale(self) -> float:
        return self.gamma**2 * self.n**2 / 16

    def h2_scale(self) -> float:
        return (self.gamma**2 / 8) ** 2 * self.n**6 / 48


def h1_generator_expression(n: int) -> OperatorExpression:
    """3n^2 + 1 - 4 j1z^2 - 4 j2z^2 + 4 j1z j2z - 4 j1+ j2- - 4 j1- j2+."""
    return OperatorExpression.build(
        (3 * n * n + 1, ()),
        (-4, ("j1z", "j1z")), (-4, ("j2z", "j2z")), (4, ("j1z", "j2z")),
        (-4, ("j1plus", "j2minus")), (-4, ("j1minus", "j2plus")),
    )


def h1_invariant_expression(n: int) -> OperatorExpression:
    """n^2 + 3 + L_z^2 + 4 A^2 - 5 A_z^2 with A^2 = n^2 - 1 - L^2."""
    lz_sq = OperatorExpression.build(
        (1, ("j1z", "j1z")), (2, ("j1z", "j2z")), (1, ("j2z", "j2z")))
    az_sq = OperatorExpression.build(
        (1, ("j1z", "j1z")), (-2, ("j1z", "j2z")), (1, ("j2z", "j2z")))
    scalar = OperatorExpression.build((n * n + 3 + 4 * (n * n - 1), ()))
    return (scalar + lz_sq + l_squared_expression().scaled(-4)
            + az_sq.scaled(-5))


def _h2_monomials(n: int) -> list[tuple[str, list[tuple[Fraction, tuple[str, ...]]]]]:
    n2, n4 = n * n, n**4
    lad_pm = ("j1plus", "j2minus")
    lad_mp = ("j1minus", "j2plus")
    rows: list[tuple[str, list[tuple[Fraction, tuple[str, ...]]]]] = [
        ("-223 n^4 - 598 n^2 - 27",
         [(Fraction(-223 * n4 - 598 * n2 - 27), ())]),
        ("+192 (j1z^4 + j2z^4)",
         [(Fraction(192), ("j1z",) * 4), (Fraction(192), ("j2z",) * 4)]),
        ("+144 j1z^2 j2z^2",
         [(Fraction(144), ("j1z", "j1z", "j2z", "j2z"))]),
        ("-(176 n^2 + 752) j1z j2z",
         [(Fraction(-(176 * n2 + 752)), ("j1z", "j2z"))]),
        ("+(j1z^2 + j2z^2)(-32 j1z j2z + 284 n^2 + 372)",
         [(Fraction(-32), ("j1z", "j1z", "j1z", "j2z")),
          (Fraction(284 * n2 + 372), ("j1z", "j1z")),
          (Fraction(-32), ("j2z", "j2z", "j1z", "j2z")),
          (Fraction(284 * n2 + 372), ("j2z", "j2z"))]),
        ("+8 (j1+ j2- + j1- j2+)[53 n^2 + 153 + 20 (j1z^2 + j2z^2) - 12 j1z j2z]",
         [(Fraction(8 * (53 * n2 + 153)), lad_pm),
          (Fraction(160), lad_pm + ("j1z", "j1z")),
          (Fraction(160), lad_pm + ("j2z", "j2z")),
          (Fraction(-96), lad_pm + ("j1z", "j2z")),
          (Fraction(8 * (53 * n2 + 153)), lad_mp),
          (Fraction(160), lad_mp + ("j1z", "j1z")),
          (Fraction(160), lad_mp + ("j2z", "j2z")),
          (Fraction(-96), lad_mp + ("j1z", "j2z"))]),
        ("+208 (j1+ j2- - j1- j2+)(j1z - j2z)",
         [(Fraction(208), lad_pm + ("j1z",)), (Fraction(-208), lad_pm + ("j2z",)),
          (Fraction(-208), lad_mp + ("j1z",)), (Fraction(208), lad_mp + ("j2z",))]),
        ("+48 (j1+^2 j2-^2 + j1-^2 j2+^2)",
         [(Fraction(48), ("j1plus", "j1plus", "j2minus", "j2minus")),
          (Fraction(48), ("j1minus", "j1minus", "j2plus", "j2plus"))]),
    ]
    return rows


#: Printed-monomial -> generator-word audit table (words act rightmost first).
H2_AUDIT: tuple[str, ...] = tuple(label for label, _ in _h2_monomials(1))


def h2_expression(n: int) -> OperatorExpression:
    terms = []
    for _, words in _h2_monomials(n):
        terms.extend(words)
    return OperatorExpression.build(*terms)


Matrix = tuple[tuple[RadicalSum, ...], ...]


@lru_cache(maxsize=None)
def _memo_expression(build, n: int) -> OperatorExpression:
    """build(n), built and compiled once per (builder, n); keyed by the
    builder itself, so a replaced module-level builder is never served an
    expression built by the one it replaced."""
    return build(n)


class _Entries(tuple):
    """A matrix's rows, which render their JSON text once, on first use: the
    memoised blocks hold them, so the blocks m and -m share one rendering."""

    @cached_property
    def json_rows(self) -> str:
        return _json_array([_json_array([_json_str(render_exact(x)) for x in row],
                                        "    ") for row in self], "  ")


class OperatorMatrix(Record):
    """An exact matrix over the parabolic index of one (n, m) block.

    Rows/columns are ordered by q increasing; scale_text names the symbolic
    prefactor the entries were stripped of. The entries are kept as
    _Entries, so each entries object is rendered once.
    """

    n: int
    m: int
    scale_text: str
    entries: Matrix

    def __post_init__(self):
        check_block(self.n, self.m)
        dim = self.n - abs(self.m)
        e = self.entries
        if not (isinstance(e, tuple) and len(e) == dim and all(
                isinstance(row, tuple) and len(row) == dim
                and all(isinstance(x, RadicalSum) for x in row) for row in e)):
            raise DomainError(f"entries of the (n, m) = ({self.n}, {self.m}) block "
                              f"must be a {dim} x {dim} tuple of RadicalSum rows")
        if not isinstance(e, _Entries):
            object.__setattr__(self, "entries", _Entries(e))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def qs(self) -> list[int]:
        return list(q_values(self.n, self.m))

    def is_symmetric(self) -> bool:
        d = self.dim
        return all(self.entries[i][j] == self.entries[j][i]
                   for i in range(d) for j in range(i + 1, d))

    def trace(self) -> RadicalSum:
        return sum((row[i] for i, row in enumerate(self.entries)), RadicalSum.zero())

    def to_json(self) -> str:
        """The matrix as JSON text, laid out as json.dumps(..., indent=2)."""
        return _json_object([
            ("n", repr(self.n)), ("m", repr(self.m)),
            ("scale", _json_str(self.scale_text)),
            ("q", _json_array([repr(q) for q in self.qs()], "  ")),
            ("entries", self.entries.json_rows)])


@lru_cache(maxsize=None)
def _h1_entries(n: int, m: int) -> _Entries:
    """H1 over the (n, m) block, m >= 0, checked against its invariant form.

    The map |n1, m> -> |n1, -m> takes j1z to -j2z and j1+- to -j2-+, which
    leaves every word of H1 and H2 unchanged, so the block of -m has the same
    entries as that of m and is served from here.
    """
    gen = _expression_matrix(_memo_expression(h1_generator_expression, n), n, m)
    inv = _expression_matrix(_memo_expression(h1_invariant_expression, n), n, m)
    if gen != inv:
        raise InternalConsistencyError(
            f"H1 generator and invariant forms disagree on (n={n}, m={m})")
    return _Entries(gen)


@lru_cache(maxsize=None)
def _h2_entries(n: int, m: int) -> _Entries:
    """H2 over the (n, m) block, m >= 0; the block of -m has the same entries."""
    return _Entries(_expression_matrix(_memo_expression(h2_expression, n), n, m))


def h1_matrix(n: int, m: int) -> OperatorMatrix:
    """The first-order operator over the (n, m) block (scale gamma^2 n^2/16).

    Assembled from the generator form and verified entry-for-entry against
    the invariant form; the two are one identity, so disagreement raises.
    One check serves the blocks m and -m.
    """
    check_block(n, m)
    return OperatorMatrix(n, m, "gamma^2*n^2/16", _h1_entries(n, abs(m)))


def h2_matrix(n: int, m: int) -> OperatorMatrix:
    """The second-order operator over the (n, m) block (scale (gamma^2/8)^2 n^6/48)."""
    check_block(n, m)
    return OperatorMatrix(n, m, "(gamma^2/8)^2*n^6/48", _h2_entries(n, abs(m)))


def h2_symmetry_report(n: int, m: int) -> list[dict]:
    """Entries where the verbatim H2 encoding breaks symmetry, with the
    per-monomial contributions to both sides; empty when symmetric.

    The matrix is built from the current monomial table, not the memo.
    """
    check_block(n, m)
    entries = _expression_matrix(h2_expression(n), n, m)
    failures = []
    parts = None  # per-monomial matrices, built at the first asymmetric entry
    qs = q_values(n, m)
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if entries[i][j] == entries[j][i]:
                continue
            if parts is None:
                parts = [(label, _expression_matrix(
                    OperatorExpression.build(*words), n, m))
                    for label, words in _h2_monomials(n)]
            contributions = []
            for label, part in parts:
                if part[i][j] != part[j][i]:
                    contributions.append({
                        "monomial": label,
                        "upper": render_exact(part[i][j]),
                        "lower": render_exact(part[j][i]),
                    })
            failures.append({
                "q_row": qs[i], "q_col": qs[j],
                "upper": render_exact(entries[i][j]),
                "lower": render_exact(entries[j][i]),
                "monomials": contributions,
            })
    return failures
