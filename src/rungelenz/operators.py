"""Runge-Lenz and SU(2)xSU(2) generator actions on manifold states.

A_z acts tridiagonally on the spherical basis through the beta coefficients,
its powers read from the B/C block's gauge J (basis.b_block); on the parabolic
basis it is diagonal with eigenvalue q = n1 - n2. The six generators are those
of the spins j1 = (L + A)/2 and j2 = (L - A)/2, each with j = (n - 1)/2, whose
product state is |n1 n2 m> with 2 m1 = m + q and 2 m2 = m - q. Ladder
coefficients vanish exactly at the manifold boundary, which is enforced, not
assumed.

Every generator maps a parabolic basis state to at most one basis state, so a
generator word is walked on (2 m1, 2 m2) with plain integers: the image of
|n1, m> is one basis state times +-(integer) * sqrt(squarefree) / 2^len.
An expression is compiled once into integer word scales over one denominator,
so one table (_images) sums the images of chosen columns |n1, m> as integers
and makes each term one Fraction at the end. Everything that walks words reads
that table: _expression_matrix (the diamagnetic H1/H2 blocks) takes all the
columns of an (n, m) block, the state actions (generator_apply, word_apply,
expression_apply) multiply a state's nonzero columns into it, and
expression_expectation reads one diagonal cell. az_power_matrix walks no words.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .basis import (ManifoldState, ParabolicLabel, _is_int,
                    b_block, beta_squared, block_state, check_block,
                    spherical_ls)
from .errors import DomainError, InternalConsistencyError
from .radical import RadicalSum, _combine_radicands, _split_radicand
from .record import Record


def _check_ints(what: str, *args) -> None:
    if not all(map(_is_int, args)):
        raise DomainError(f"{what}{args!r} needs int arguments, not bools")


def beta(n: int, l: int, m: int) -> RadicalSum:
    """The off-diagonal A_z matrix element between adjacent-l states; (n, m)
    must be a block of the manifold, and l = |m| or l = n gives 0."""
    _check_ints("beta", n, l, m)
    check_block(n, m)
    return RadicalSum.from_sqrt(beta_squared(n, l, m))


@lru_cache(maxsize=None, typed=True)
def az_power_matrix(n: int, m: int, k: int) -> tuple[tuple[RadicalSum, ...], ...]:
    """<n l' m| A_z^k |n l m> over the manifold; symmetric, bandwidth k,
    vanishing unless l' - l has the parity of k. With J = D^-1 A_z D, D =
    diag(sqrt b), the block's gauge, entry (l, l') is the monomial
    (b J^k)[l, l'] / sqrt(b(l) b(l')); column l' of b J^k is (J^T)^k (b e_l'),
    k integer steps of the block's b_j_power (a loop, so any k >= 0 works)."""
    _check_ints("az_power_matrix", n, m, k)
    check_block(n, m)
    if k < 0:
        raise DomainError(f"power k = {k} must be >= 0")
    blk = b_block(n, m)  # that of |m|: A_z depends on m only through m^2
    roots = []  # sqrt(b(l)) = c sqrt(s): u sqrt(e) = sqrt(b(l)/(2l+1)) and sqrt(2l+1)
    for l, (u, e) in zip(spherical_ls(n, m), blk.roots):
        u2, e2 = _split_radicand(2 * l + 1)
        g, s = _combine_radicands(e, e2)
        roots.append((u * u2 * g, s))
    den = blk.b_den * blk.j_den ** k
    cols = []
    for v, (cj, sj) in zip(blk.b_j_power(k), roots):
        col = []
        for x, (ci, si) in zip(v, roots):
            g, r = _combine_radicands(si, sj)  # 1/sqrt(si sj) = sqrt(r)/(g r)
            col.append(RadicalSum({r: Fraction(x, den * g * r) / (ci * cj)}))
        cols.append(col)
    return tuple(zip(*cols))


# -- parabolic generator engine -----------------------------------------

# (spin, step, sign) per generator: spin 0 is j1 and 1 is j2; step 0 is the
# diagonal jz, +-1 a ladder. The j2 ladders carry an overall minus sign: the
# basis-change coefficient B fixes the relative phases of the parabolic states
# (they differ from the plain product-basis convention by (-1)^(n1 + min(m, 0))),
# and requiring the assembled L^2 to act diagonally with l(l+1) after that
# basis change forces sign(j2+-) = -1 while j1+- keep the printed positive
# coefficients. The L^2-diagonality test pins this; it is a derived reading,
# not an assumption.
_GENERATORS = {
    "j1z": (0, 0, 1),
    "j2z": (1, 0, 1),
    "j1plus": (0, 1, 1),
    "j1minus": (0, -1, 1),
    "j2plus": (1, 1, -1),
    "j2minus": (1, -1, -1),
}
GENERATORS = tuple(_GENERATORS)


def _word_image(steps: tuple[str, ...], n: int, m: int,
                n1: int) -> tuple[int, int, int, int] | None:
    """The word on the basis state |n1, m>, its generators in walk order.

    Every generator maps a basis state to one basis state, so the image is
    num * sqrt(d) / 2^len(steps) |n1', m'>; returns (m', n1', d, num), or None
    when it vanishes. The walk runs on mu = (m + q, m - q), twice the j1z and
    j2z eigenvalues, with an integer numerator and a squarefree radicand. A
    negative radicand, or a nonvanishing step that leaves the manifold
    (|mu[spin]| > n - 1), is a bug and halts with InternalConsistencyError.
    """
    q = 2 * n1 - (n - abs(m) - 1)
    mu = [m + q, m - q]
    num, d = 1, 1
    for gen in steps:
        spin, step, sign = _GENERATORS[gen]
        if not step:
            num *= mu[spin]
            if num == 0:
                return None
            continue
        rad = (n - 1 - step * mu[spin]) * (n + 1 + step * mu[spin])
        if rad < 0:
            raise InternalConsistencyError(
                f"negative radicand {rad} for {gen} on (n={n}, mu={tuple(mu)}): "
                f"ladder coefficients must vanish before leaving the manifold")
        if rad == 0:
            return None
        mu[spin] += 2 * step
        if abs(mu[spin]) > n - 1:
            raise InternalConsistencyError(
                f"{gen} maps (n={n}) to mu={tuple(mu)}, outside the manifold with "
                f"nonvanishing coefficient")
        a, r = _split_radicand(rad)
        g, d = _combine_radicands(d, r)
        num *= sign * a * g
    m, q = (mu[0] + mu[1]) // 2, (mu[0] - mu[1]) // 2
    return m, (n - abs(m) - 1 + q) // 2, d, num


def _word_block(gens: tuple[str, ...], n: int, m: int) -> int:
    """The m block a word's image lies in, also when the image vanishes.

    A ladder into an existing block moves there; a ladder off the manifold
    leaves the (zero) image in the block it started from.
    """
    for gen in reversed(gens):
        step = 0 if gen == "identity" else _GENERATORS[gen][1]
        if abs(m + step) <= n - 1:
            m += step
    return m


def _require_parabolic(state: ManifoldState, caller: str) -> None:
    if state.basis != "parabolic":
        raise DomainError(f"{caller} expects a parabolic-basis state")


def _images(expr: "OperatorExpression", n: int, m: int,
            cols) -> dict[tuple[int, int, int], dict[int, Fraction]]:
    """The nonzero terms of expr |n1, m> for every n1 in cols, keyed
    (m', n1', n1) -> {radicand: coefficient}.

    Every word image is summed as an integer over the expression's
    denominator L; each term that does not cancel becomes one Fraction.
    """
    den, words = expr.compiled
    acc: dict[tuple[int, int, int, int], int] = {}
    for n1 in cols:
        for k, steps in words:
            image = _word_image(steps, n, m, n1)
            if image is not None:
                new_m, new_n1, d, num = image
                key = (new_m, new_n1, n1, d)
                acc[key] = acc.get(key, 0) + k * num
    cells: dict[tuple[int, int, int], dict[int, Fraction]] = {}
    for (new_m, new_n1, n1, d), v in acc.items():
        if v:
            cells.setdefault((new_m, new_n1, n1), {})[d] = Fraction(v, den)
    return cells


def _apply_words(expr: "OperatorExpression",
                 state: ManifoldState) -> dict[tuple[int, int], RadicalSum]:
    """expr |state> as one RadicalSum per output basis state, keyed (m', n1'):
    the images of the state's nonzero columns times their coefficients,
    without the outputs that cancel to zero."""
    coeffs = {n1: c for n1, c in enumerate(state.coeffs) if not c.is_zero}
    out: dict[tuple[int, int], RadicalSum] = {}
    for (new_m, new_n1, n1), cell in _images(expr, state.n, state.m, coeffs).items():
        term = RadicalSum(cell) * coeffs[n1]
        key = (new_m, new_n1)
        out[key] = out[key] + term if key in out else term
    return {key: v for key, v in out.items() if not v.is_zero}


def _expression_matrix(expr: "OperatorExpression", n: int,
                       m: int) -> tuple[tuple[RadicalSum, ...], ...]:
    """The matrix of expr over the parabolic basis of the (n, m) block, rows
    and columns by n1: column n1 is the image of |n1, m>, read from one
    _images table over all columns; the zero entries share one RadicalSum.
    A nonzero term outside the block raises DomainError.
    """
    check_block(n, m)
    dim = n - abs(m)
    cells = {}
    for (new_m, row, col), terms in _images(expr, n, m, range(dim)).items():
        if new_m != m:
            raise DomainError(f"expression does not preserve m = {m} "
                              f"(a term lands in m = {new_m})")
        cells[row, col] = RadicalSum(terms)
    zero = RadicalSum.zero()
    return tuple(tuple(cells.get((i, j), zero) for j in range(dim)) for i in range(dim))


def generator_apply(gen: str, state: ManifoldState) -> ManifoldState:
    """One generator on a parabolic-basis state.

    Ladder generators move the state into the (n, m +- 1) block; steps that
    would exit the manifold carry an exactly vanishing radicand, and when the
    target block does not exist the zero image stays in the source block.
    """
    _require_parabolic(state, "generator_apply")
    return word_apply(GeneratorWord((gen,)), state)


def _rational(value, what: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be a finite rational, got {value!r}") from None


class GeneratorWord(Record):
    """An ordered product of generators (rightmost acts first); its
    coefficient lives on the OperatorExpression term."""

    gens: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.gens, str):
            raise DomainError(
                f"gens must be a tuple of generator names, got the string {self.gens!r}")
        object.__setattr__(self, "gens", tuple(self.gens))
        for g in self.gens:
            if g not in GENERATORS and g != "identity":
                raise DomainError(f"unknown generator {g!r}")


class OperatorExpression(Record):
    """A rational linear combination of generator words."""

    terms: tuple[tuple[Fraction, GeneratorWord], ...]

    def __post_init__(self):
        terms = []
        for term in self.terms:
            try:
                c, w = term
            except (TypeError, ValueError):
                w = None
            if not isinstance(w, GeneratorWord):
                raise DomainError(f"an expression term must be a (coefficient, "
                                  f"GeneratorWord) pair, got {term!r}")
            terms.append((_rational(c, "coefficient"), w))
        object.__setattr__(self, "terms", tuple(terms))

    @classmethod
    def build(cls, *terms) -> "OperatorExpression":
        """From (coefficient, generator-name-tuple) pairs."""
        return cls(tuple((c, GeneratorWord(w)) for c, w in terms))

    def __add__(self, other: "OperatorExpression") -> "OperatorExpression":
        return OperatorExpression(self.terms + other.terms)

    def scaled(self, factor) -> "OperatorExpression":
        f = _rational(factor, "scale factor")
        return OperatorExpression(tuple((c * f, w) for c, w in self.terms))

    @cached_property
    def compiled(self) -> tuple[int, tuple[tuple[int, tuple[str, ...]], ...]]:
        """The walk form (L, ((k, steps), ...)), one entry per distinct word.

        steps are the word's generators in walk order, identities dropped.
        k / L is the sum of coefficient / 2^len(steps) over the terms with
        that word, and L = lcm(den(coefficient) * 2^len(steps)) over all terms.
        """
        words = []
        for c, w in self.terms:
            steps = tuple(gen for gen in reversed(w.gens) if gen != "identity")
            words.append((c.numerator, c.denominator << len(steps), steps))
        common = lcm(*(den for _, den, _ in words))
        scales: dict[tuple[str, ...], int] = {}
        for num, den, steps in words:
            scales[steps] = scales.get(steps, 0) + num * (common // den)
        return common, tuple((k, steps) for steps, k in scales.items())


def word_apply(word: GeneratorWord, state: ManifoldState) -> ManifoldState:
    """The word on a parabolic-basis state, summed over its basis images."""
    _require_parabolic(state, "word_apply")
    entries = _apply_words(OperatorExpression(((1, word),)), state)
    block = _word_block(word.gens, state.n, state.m)
    return block_state("parabolic", state.n, block,
                       {n1: v for (_, n1), v in entries.items()})


def expression_apply(expr: OperatorExpression, state: ManifoldState) -> ManifoldState:
    """Apply the expression; the result must stay within a single (n, m) block."""
    _require_parabolic(state, "expression_apply")
    blocks: dict[int, dict[int, RadicalSum]] = {}
    for (m, n1), v in _apply_words(expr, state).items():
        blocks.setdefault(m, {})[n1] = v
    if not blocks:
        return block_state("parabolic", state.n, state.m, {})
    if len(blocks) > 1:
        raise DomainError(
            f"expression output spans m blocks {sorted(blocks)}; "
            f"apply its words separately")
    m, entries = blocks.popitem()
    return block_state("parabolic", state.n, m, entries)


def expression_expectation(expr: OperatorExpression, p: ParabolicLabel) -> RadicalSum:
    """<p| expr |p>: the coefficient of |p> in the image of |p>."""
    return RadicalSum(_images(expr, p.n, p.m, [p.n1]).get((p.m, p.n1, p.n1)))


def l_squared_expression() -> OperatorExpression:
    """L^2 = j1^2 + j2^2 + 2 j1.j2 spelled out over the seven generators.

    j_i^2 = j_iz^2 + (j_i+ j_i- + j_i- j_i+)/2 and
    j1.j2 = j1z j2z + (j1+ j2- + j1- j2+)/2, independent of n.
    """
    half = Fraction(1, 2)
    return OperatorExpression.build(
        (1, ("j1z", "j1z")), (half, ("j1plus", "j1minus")), (half, ("j1minus", "j1plus")),
        (1, ("j2z", "j2z")), (half, ("j2plus", "j2minus")), (half, ("j2minus", "j2plus")),
        (2, ("j1z", "j2z")), (1, ("j1plus", "j2minus")), (1, ("j1minus", "j2plus")),
    )
