"""Runge-Lenz and SU(2)xSU(2) generator actions on manifold states.

A_z acts tridiagonally on the spherical basis through the beta coefficients;
on the parabolic basis it is diagonal with eigenvalue q = n1 - n2. The ladder
generators shift the pair (m, q) by one unit each: coefficients vanish exactly
at the manifold boundary, which is enforced, not assumed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .basis import ManifoldState, ParabolicLabel, SphericalLabel, spherical_ls
from .errors import DomainError, InternalConsistencyError
from .radical import RadicalSum, dot

GENERATORS = ("j1z", "j2z", "j1plus", "j1minus", "j2plus", "j2minus")


@lru_cache(maxsize=None)
def beta_squared(n: int, l: int, m: int) -> Fraction:
    """(n^2-l^2)(l^2-m^2)/(4l^2-1), clamped to 0 outside the manifold.

    The numerator vanishes at l = n and l^2 = m^2; indices beyond those
    boundaries (where the product goes negative) also give 0, mirroring the
    vanishing boundary factors in every chain they appear in.
    """
    if l < 0:
        raise DomainError(f"beta needs l >= 0, got {l}")
    num = (n * n - l * l) * (l * l - m * m)
    if num <= 0:
        return Fraction(0)
    return Fraction(num, 4 * l * l - 1)


def beta(n: int, l: int, m: int) -> RadicalSum:
    """The off-diagonal A_z matrix element between adjacent-l states."""
    return RadicalSum.from_sqrt(beta_squared(n, l, m))


def az_apply_spherical(state: ManifoldState) -> ManifoldState:
    """A_z on a spherical-basis state: couples l to l +- 1."""
    if state.basis != "spherical":
        raise DomainError("az_apply_spherical expects a spherical-basis state")
    n, m = state.n, state.m
    am = abs(m)
    out = [RadicalSum.zero()] * state.dim
    for i, l in enumerate(spherical_ls(n, m)):
        c = state.coeffs[i]
        if c.is_zero:
            continue
        up = beta(n, l + 1, m)
        if l + 1 <= n - 1 and not up.is_zero:
            out[i + 1] = out[i + 1] + c * up
        down = beta(n, l, m)
        if l - 1 >= am and not down.is_zero:
            out[i - 1] = out[i - 1] + c * down
    return ManifoldState("spherical", n, m, tuple(out))


Matrix = tuple[tuple[RadicalSum, ...], ...]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in cols) for row in a)


def _identity(dim: int) -> Matrix:
    one = RadicalSum.from_rational(1)
    zero = RadicalSum.zero()
    return tuple(tuple(one if i == j else zero for j in range(dim))
                 for i in range(dim))


@lru_cache(maxsize=None)
def az_power_matrix(n: int, m: int, k: int) -> Matrix:
    """<n l' m| A_z^k |n l m> over the manifold; symmetric, bandwidth k,
    vanishing unless l' - l has the parity of k."""
    if k < 0:
        raise DomainError(f"power k = {k} must be >= 0")
    dim = n - abs(m)
    if k == 0:
        return _identity(dim)
    if k == 1:
        ls = list(spherical_ls(n, m))
        zero = RadicalSum.zero()
        rows = [[zero] * dim for _ in range(dim)]
        for i in range(dim - 1):
            b = beta(n, ls[i] + 1, m)
            rows[i][i + 1] = b
            rows[i + 1][i] = b
        return tuple(tuple(r) for r in rows)
    return _mat_mul(az_power_matrix(n, m, k - 1), az_power_matrix(n, m, 1))


# -- parabolic generator engine -----------------------------------------

# ladder action as shifts of (m, q); z-generators are diagonal.
# The j2 ladder carries an overall minus sign: the basis-change coefficient
# B fixes the relative phases of the parabolic states (they differ from the
# plain product-basis convention by (-1)^(n1 + min(m, 0))), and requiring the
# assembled L^2 to act diagonally with l(l+1) after that basis change forces
# sign(j2+-) = -1 while j1+- keep the printed positive coefficients. The
# L^2-diagonality test pins this; it is a derived reading, not an assumption.
_LADDER = {
    "j1plus": (1, 1, 1),
    "j1minus": (-1, -1, 1),
    "j2plus": (1, -1, -1),
    "j2minus": (-1, 1, -1),
}


def _ladder_radicand(gen: str, n: int, m: int, q: int) -> int:
    """4 * (coefficient)^2: the product of the two bracketed integers."""
    tj = n - 1
    mu1, mu2 = m + q, m - q  # twice the j1z / j2z eigenvalues
    if gen == "j1plus":
        return (tj - mu1) * (tj + mu1 + 2)
    if gen == "j1minus":
        return (tj + mu1) * (tj - mu1 + 2)
    if gen == "j2plus":
        return (tj - mu2) * (tj + mu2 + 2)
    return (tj + mu2) * (tj - mu2 + 2)  # j2minus


def generator_apply(gen: str, state: ManifoldState) -> ManifoldState:
    """One generator on a parabolic-basis state.

    Ladder generators move the state into the (n, m +- 1) block; steps that
    would exit the manifold carry an exactly vanishing radicand. A negative
    radicand or an invalid target strictly inside the manifold is a bug and
    halts with InternalConsistencyError.
    """
    if state.basis != "parabolic":
        raise DomainError("generator_apply expects a parabolic-basis state")
    if gen == "identity":
        return state
    if gen not in GENERATORS:
        raise DomainError(f"unknown generator {gen!r}")
    n, m = state.n, state.m
    upper = n - abs(m) - 1

    if gen in ("j1z", "j2z"):
        out = []
        for n1, c in enumerate(state.coeffs):
            q = 2 * n1 - upper
            eig = Fraction(m + q, 2) if gen == "j1z" else Fraction(m - q, 2)
            out.append(c * eig)
        return ManifoldState("parabolic", n, m, tuple(out))

    dm, dq, ladder_sign = _LADDER[gen]
    new_m = m + dm
    new_upper = n - abs(new_m) - 1
    target_exists = abs(new_m) <= n - 1
    out = [RadicalSum.zero()] * (new_upper + 1 if target_exists else 0)
    for n1, c in enumerate(state.coeffs):
        if c.is_zero:
            continue
        q = 2 * n1 - upper
        rad = _ladder_radicand(gen, n, m, q)
        if rad < 0:
            raise InternalConsistencyError(
                f"negative radicand {rad} for {gen} on "
                f"(n={n}, m={m}, q={q}): ladder coefficients must vanish "
                f"before leaving the manifold")
        if rad == 0:
            continue
        new_q = q + dq
        if not target_exists or abs(new_q) > new_upper or (new_upper + new_q) % 2:
            raise InternalConsistencyError(
                f"{gen} maps (n={n}, m={m}, q={q}) outside the manifold with "
                f"nonvanishing coefficient")
        new_n1 = (new_upper + new_q) // 2
        root = RadicalSum.from_sqrt(rad, ladder_sign)
        out[new_n1] = out[new_n1] + c * root * Fraction(1, 2)
    if target_exists:
        return ManifoldState("parabolic", n, new_m, tuple(out))
    # every amplitude vanished at the boundary; stay in the source block
    return ManifoldState("parabolic", n, m,
                         tuple(RadicalSum.zero() for _ in state.coeffs))


@dataclass(frozen=True)
class GeneratorWord:
    """An ordered product of generators (rightmost acts first) with a scalar."""

    gens: tuple[str, ...]
    scalar: Fraction = field(default=Fraction(1))

    def __post_init__(self):
        for g in self.gens:
            if g not in GENERATORS and g != "identity":
                raise DomainError(f"unknown generator {g!r}")
        object.__setattr__(self, "scalar", Fraction(self.scalar))


@dataclass(frozen=True)
class OperatorExpression:
    """A rational linear combination of generator words."""

    terms: tuple[tuple[Fraction, GeneratorWord], ...]

    @classmethod
    def build(cls, *terms) -> "OperatorExpression":
        """From (coefficient, generator-name-tuple) pairs."""
        packed = tuple((Fraction(c), GeneratorWord(tuple(w))) for c, w in terms)
        return cls(packed)

    def __add__(self, other: "OperatorExpression") -> "OperatorExpression":
        return OperatorExpression(self.terms + other.terms)

    def scaled(self, factor) -> "OperatorExpression":
        f = Fraction(factor)
        return OperatorExpression(tuple((c * f, w) for c, w in self.terms))


def word_apply(word: GeneratorWord, state: ManifoldState) -> ManifoldState:
    out = state
    for gen in reversed(word.gens):
        out = generator_apply(gen, out)
    if word.scalar != 1:
        out = ManifoldState(out.basis, out.n, out.m,
                            tuple(c * word.scalar for c in out.coeffs))
    return out


def expression_apply(expr: OperatorExpression, state: ManifoldState) -> ManifoldState:
    """Apply the expression; the result must stay within a single (n, m) block."""
    blocks: dict[int, list[RadicalSum]] = {}
    for coeff, word in expr.terms:
        res = word_apply(word, state)
        if res.is_zero:
            continue
        acc = blocks.get(res.m)
        if acc is None:
            acc = blocks[res.m] = [RadicalSum.zero()] * res.dim
        for i, c in enumerate(res.coeffs):
            if not c.is_zero:
                acc[i] = acc[i] + c * coeff
    blocks = {m: cs for m, cs in blocks.items() if any(not c.is_zero for c in cs)}
    if not blocks:
        return ManifoldState(state.basis, state.n, state.m,
                             tuple(RadicalSum.zero() for _ in state.coeffs))
    if len(blocks) > 1:
        raise DomainError(
            f"expression output spans m blocks {sorted(blocks)}; "
            f"apply its words separately")
    m, coeffs = blocks.popitem()
    return ManifoldState(state.basis, state.n, m, tuple(coeffs))


def expression_expectation(expr: OperatorExpression, p: ParabolicLabel) -> RadicalSum:
    """<p| expr |p>: the coefficient of |p> in the image of |p>."""
    from .basis import unit_parabolic

    start = unit_parabolic(p)
    total = RadicalSum.zero()
    for coeff, word in expr.terms:
        res = word_apply(word, start)
        if res.m != p.m:
            continue
        c = res.coeffs[p.n1]
        if not c.is_zero:
            total = total + c * coeff
    return total


def az_expression() -> OperatorExpression:
    """A_z = j1z - j2z."""
    return OperatorExpression.build((1, ("j1z",)), (-1, ("j2z",)))


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


def a_squared_expectation(s: SphericalLabel) -> Fraction:
    """<n l m| A^2 |n l m> = n^2 - 1 - l(l+1)."""
    return Fraction(s.n * s.n - 1 - s.l * (s.l + 1))
