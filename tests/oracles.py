"""Independent brute-force oracles for the exact routes under test.

Everything here is plain Fraction arithmetic over math.factorial: no prime
factorization, no RadicalSum, no imports from the package. Values are carried
as (sign, square) pairs so irrational symbols stay exactly comparable.

The exceptions are former package routes. Ten are kept as the reference
for what replaced them: the dense generator walk, which works on the package's
ManifoldState and RadicalSum but spells out its own (m, q) shifts, signs and
ladder radicands (the generator engine's per-generator loop over dense
coefficient vectors, replaced by the basis-state walk on the two spins), the
printed A_z^2,3,4 forms over RadicalSum (replaced by terms built in integers
in sumrules), the transcription of those printed terms from Fractions
(replaced by reduced int pairs in sumrules), B(l) by its single-3jm definition
(replaced by the rational block per (n, m) in basis), the dense A_z^k matrix
products (replaced by powers of the block's gauge J of A_z; their k = 1 matrix
also applies A_z to spherical states), the rational gauge and its kernels over
Fraction (replaced by integers over a few denominators in the block and in
sumrules), the B and C floats rounded from the block's monomials (replaced by
floats rounded from integers in the block), P(l, l'; chi) by the literal
quadruple cosine sum over the C floats (replaced by the factored C route in
stark), the B/C block with a Racah sum per entry and every row joined
(replaced by the block that builds the rows q <= 0 and mirrors the rest), and
the report and matrix serialisers over RadicalSum and json.dumps
(replaced by JSON text written directly, from integers for the reports). The
block's monomials now come from the same integer pass as its floats, so the
float tests also round B and C from the single-3jm route above.

The rest left the package because no package path ran them: B by its Regge
partner (equal to the block), by the terminating 3F2 and by the closed forms
at l = m, n-1, n-2 (equal in square), the 3F2 sign survey, the large-n form of
B^2, the triangle rule, the Regge map of 3jm arguments, A_z as a generator
expression and <A^2> in closed form.
"""
from fractions import Fraction
from math import factorial


def neg1(k: int) -> int:
    return -1 if k & 1 else 1


def tri_ok(ta: int, tb: int, tc: int) -> bool:
    return abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0


def _f(tx: int) -> int:
    # tx is a twice-value that must be even and nonnegative here
    assert tx % 2 == 0 and tx >= 0, tx
    return factorial(tx // 2)


def threejm_sq(tj1, tj2, tj3, tm1, tm2, tm3):
    """(sign, square) of a 3jm symbol, arguments in twice-units."""
    if tm1 + tm2 + tm3 != 0 or not tri_ok(tj1, tj2, tj3):
        return 0, Fraction(0)
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0, Fraction(0)
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj3 + tm3) % 2:
        return 0, Fraction(0)
    kmin = max(0, -(tj3 - tj2 + tm1), -(tj3 - tj1 - tm2))
    kmax = min(tj1 + tj2 - tj3, tj1 - tm1, tj2 + tm2)
    s = Fraction(0)
    for tk in range(kmin, kmax + 1, 2):
        den = (_f(tk) * _f(tj1 + tj2 - tj3 - tk) * _f(tj1 - tm1 - tk)
               * _f(tj2 + tm2 - tk) * _f(tj3 - tj2 + tm1 + tk)
               * _f(tj3 - tj1 - tm2 + tk))
        s += Fraction(neg1(tk // 2), den)
    if s == 0:
        return 0, Fraction(0)
    delta = Fraction(_f(tj1 + tj2 - tj3) * _f(tj1 - tj2 + tj3) * _f(-tj1 + tj2 + tj3),
                     _f(tj1 + tj2 + tj3 + 2))
    mpart = (_f(tj1 + tm1) * _f(tj1 - tm1) * _f(tj2 + tm2) * _f(tj2 - tm2)
             * _f(tj3 + tm3) * _f(tj3 - tm3))
    sign = neg1((tj1 - tj2 - tm3) // 2) * (1 if s > 0 else -1)
    return sign, delta * mpart * s * s


def sixj_sq(ta, tb, tc, td, te, tf):
    """(sign, square) of a 6j symbol, arguments in twice-units."""
    for (x, y, z) in ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc)):
        if not tri_ok(x, y, z):
            return 0, Fraction(0)

    def tri(x, y, z):
        return Fraction(_f(x + y - z) * _f(x - y + z) * _f(-x + y + z),
                        _f(x + y + z + 2))

    pref = tri(ta, tb, tc) * tri(ta, te, tf) * tri(td, tb, tf) * tri(td, te, tc)
    kmin = max(ta + tb + tc, ta + te + tf, td + tb + tf, td + te + tc)
    kmax = min(ta + tb + td + te, tb + tc + te + tf, ta + tc + td + tf)
    s = Fraction(0)
    for tk in range(kmin, kmax + 1, 2):
        den = (_f(tk - ta - tb - tc) * _f(tk - ta - te - tf)
               * _f(tk - td - tb - tf) * _f(tk - td - te - tc)
               * _f(ta + tb + td + te - tk) * _f(tb + tc + te + tf - tk)
               * _f(ta + tc + td + tf - tk))
        s += Fraction(neg1(tk // 2) * _f(tk + 2), den)
    if s == 0:
        return 0, Fraction(0)
    return (1 if s > 0 else -1), pref * s * s


def cg_sq(tj1, tm1, tj2, tm2, tj3, tm3):
    """(sign, square) of <j1 m1 j2 m2 | j3 m3> via the 3jm relation."""
    if tm1 + tm2 != tm3:
        return 0, Fraction(0)
    sign, sq = threejm_sq(tj1, tj2, tj3, tm1, tm2, -tm3)
    if sign == 0:
        return 0, Fraction(0)
    return sign * neg1((tj1 - tj2 + tm3) // 2), sq * (tj3 + 1)


def b_sq(n, n1, n2, m, l):
    """(sign, square) of the parabolic->spherical coefficient."""
    q = n1 - n2
    sign, sq = threejm_sq(n - 1, n - 1, 2 * l, m - q, m + q, -2 * m)
    return sign * neg1(n2 + (m - abs(m)) // 2 + l), sq * (2 * l + 1)


def pbar_double(n, l, lp):
    """P-bar by the C^2 double sum, exact."""
    total = Fraction(0)
    for m in range(-(n - 1), n):
        upper = n - abs(m) - 1
        for n1 in range(upper + 1):
            q = 2 * n1 - upper
            _, a = threejm_sq(n - 1, n - 1, 2 * l, m - q, m + q, -2 * m)
            if a == 0:
                continue
            _, b = threejm_sq(n - 1, n - 1, 2 * lp, m - q, m + q, -2 * m)
            total += a * b
    return (2 * lp + 1) * total


# -- dense generator walk ----------------------------------------------

# ladder action as shifts of (m, q) and an overall sign; the j2 ladders carry
# the minus sign that L^2's diagonality in the spherical basis forces
_LADDER = {
    "j1plus": (1, 1, 1),
    "j1minus": (-1, -1, 1),
    "j2plus": (1, -1, -1),
    "j2minus": (-1, 1, -1),
}


def _ladder_radicand(gen, n, m, q):
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


def dense_generator_apply(gen, state):
    """One generator on a parabolic-basis state, one dense RadicalSum vector
    per step, with its own (m, q) shifts, signs and ladder radicands; only
    the generator names come from rungelenz.operators."""
    from rungelenz import operators
    from rungelenz.errors import InternalConsistencyError

    if state.basis != "parabolic":
        raise DomainError("generator_apply expects a parabolic-basis state")
    if gen == "identity":
        return state
    if gen not in operators.GENERATORS:
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


def dense_word_apply(word, state):
    out = state
    for gen in reversed(word.gens):
        out = dense_generator_apply(gen, out)
    return out


def dense_expression_apply(expr, state):
    blocks = {}
    for coeff, word in expr.terms:
        res = dense_word_apply(word, state)
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


# -- the printed A_z^2,3,4 forms over RadicalSum ---------------------------
#
# The printed-form route as it stood before it moved to per-label 3jm rows
# and monomial products, kept verbatim (only its package imports are
# spelled out, and its integer square roots are split on factorize's prime
# exponents, apart from the package's own splitter) as the reference the
# monomial route must reproduce value for value and note for note.

from rungelenz.basis import ParabolicLabel, spherical_ls  # noqa: E402
from rungelenz.operators import beta, beta_squared  # noqa: E402
from rungelenz.pfrational import factorize  # noqa: E402
from rungelenz.radical import RadicalSum  # noqa: E402


def _sqrt_of_int_product(factors: list[int]) -> RadicalSum | None:
    """sqrt(prod factors) for small integers; None if the product is negative."""
    product_sign = 1
    exponents: dict[int, int] = {}
    for f in factors:
        if f == 0:
            return RadicalSum.zero()
        if f < 0:
            product_sign = -product_sign
            f = -f
        for p, e in factorize(f).items():
            exponents[p] = exponents.get(p, 0) + e
    if product_sign < 0:
        return None
    c = d = 1
    for p, e in exponents.items():
        c *= p ** (e // 2)
        d *= p ** (e % 2)
    return RadicalSum({d: c})


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
    from rungelenz.wigner import _threejm_twice

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
            continue
        if power == 3:
            pieces = [
                (l - 3, [2 * l + 1, 2 * l - 5], chain(l - 2, l - 1, l)),
                (l - 1, [4 * l * l - 1],
                 chain(l) * (bsq(l - 1) + bsq(l) + bsq(l + 1))),
                (l + 1, [2 * l + 1, 2 * l + 3],
                 chain(l + 1) * (bsq(l) + bsq(l + 1) + bsq(l + 2))),
                (l + 3, [2 * l + 1, 2 * l + 7], chain(l + 1, l + 2, l + 3)),
            ]
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


# -- B(l) by its single-3jm definition and by its Regge partner -------------
#
# The package's B(l) route as it stood before every B and C moved to one
# rational block per (n, m), kept verbatim (only its package imports are
# spelled out) as the reference each block entry must equal; the former
# package route b_coeff_regge reads the same phase and sqrt(2l+1) off the
# Regge-partner 3jm.

from rungelenz.basis import _check_l  # noqa: E402
from rungelenz.wigner import _neg1, _threejm_twice  # noqa: E402


def b_coeff(p: ParabolicLabel, l: int, regge: bool = False) -> RadicalSum:
    """B(l): <n l m | n1 n2 m> via the single-3jm definition, or via its
    Regge partner with m3 = 0 when regge is set; the two are equal exactly."""
    _check_l(p, l)
    n, m, q = p.n, p.m, p.q
    if regge:
        sym = _threejm_twice(n - 1 + m, n - 1 - m, 2 * l, -q, q, 0)
    else:
        sym = _threejm_twice(n - 1, n - 1, 2 * l, m - q, m + q, -2 * m)
    phase = _neg1(p.n2 + (m - abs(m)) // 2 + l)
    root = RadicalSum.from_sqrt(2 * l + 1)
    return sym * root * phase


def b_coeff_regge(p: ParabolicLabel, l: int) -> RadicalSum:
    """B(l) through the Regge-partner 3jm with m3 = 0; equals b_coeff exactly."""
    return b_coeff(p, l, regge=True)


# -- A_z^k as dense products of the beta tridiagonal matrix -------------------
#
# The package's az_power_matrix as it stood before it was read from the B/C
# block's gauge J, kept verbatim (only its package imports are spelled out)
# as the reference every power must equal; az_apply is its k = 1 matrix on a
# state, built from beta alone, so it does not read the block.

from functools import lru_cache  # noqa: E402

from rungelenz.basis import ManifoldState  # noqa: E402
from rungelenz.errors import DomainError  # noqa: E402
from rungelenz.radical import dot  # noqa: E402

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


def az_apply(state: ManifoldState) -> ManifoldState:
    """A_z on a spherical-basis state: the dense k = 1 matrix times its
    coefficients."""
    rows = az_power_matrix(state.n, state.m, 1)
    return ManifoldState("spherical", state.n, state.m,
                         tuple(dot(row, state.coeffs) for row in rows))


# -- the 24 symmetry images of a 6j symbol -----------------------------------

def sixj_images(t: tuple[int, ...]) -> list[tuple[int, ...]]:
    """{a b c; d e f} under every column permutation, with upper and lower
    swapped in none or exactly two columns: 24 images, t among them."""
    a, b, c, d, e, f = t
    cols = ((a, d), (b, e), (c, f))
    images = []
    for p in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        cp = [cols[i] for i in p]
        for flips in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)):
            up, lo = zip(*((lo, up) if fl else (up, lo) for (up, lo), fl in zip(cp, flips)))
            images.append(up + lo)
    return images


# -- the printed A_z^2,3,4 terms built from Fractions -------------------------
#
# The package's transcription of the printed forms as it stood before its
# factors became reduced (num, den) int pairs: every beta^2, weight, ratio and
# kernel a Fraction, the term list memoised per (n, |m|, k). Kept verbatim
# (only its package imports are spelled out) as the reference the integer
# transcription, sumrules._printed_terms, must equal term for term.

from rungelenz.basis import _over_lcm, b_block  # noqa: E402
from rungelenz.radical import _combine_radicands, _split_radicand  # noqa: E402


def _sqrt_term(scale, *radicands) -> tuple[Fraction, int] | None:
    """scale prod sqrt(r) over the rational radicands r of one printed term
    as c sqrt(d), d squarefree; (0, 1) if the scale or some r is 0, else
    None if some r is negative (not evaluable over the reals)."""
    if not scale or not all(radicands):
        return 0, 1
    if min(radicands) < 0:
        return None
    num, den = scale.as_integer_ratio()
    d = 1
    for r in radicands:
        # sqrt(p/q) = a sqrt(e)/q with p q = a^2 e
        p, q = r.as_integer_ratio()
        a, e = _split_radicand(p * q)
        g, d = _combine_radicands(d, e)
        num *= a * g
        den *= q
    return Fraction(num, den), d


@lru_cache(maxsize=None)
def _printed_terms(n: int, m: int, power: int) -> tuple[tuple[tuple, ...], int]:
    """The printed A_z^power form of the (n, m) block as terms (i, j, C, d,
    note) over one denominator E: each term is C/E sqrt(d).

    The bare 3jm of B's definition is T(l) = (-1)^m sqrt(a) r(l) u(l) sqrt(e(l))
    in the gauge, so every printed term is a rho(l) rho(l') c sqrt(d), with
    c sqrt(d) the pair's roots u sqrt(e) times the term's _sqrt_term (its
    weight, ratio or beta chain) and i, j = l - |m|, l' - |m|. The u are put over
    their lcm V, so a term is an integer pair part over V^2 times a small
    rational kernel, and E = V^2 K with K the lcm of the kernels'
    denominators. A term with a negative radicand as printed carries its note
    instead; a term that vanishes for every label of the block is left out.
    Every factor depends on m through m^2 only, so callers pass |m|.
    """
    am = abs(m)
    ls = spherical_ls(n, m)
    roots = b_block(n, m).roots
    us, v = _over_lcm([u for u, _ in roots])

    def pair(l: int, lp: int) -> tuple:
        i, j = l - am, lp - am
        g, d = _combine_radicands(roots[i][1], roots[j][1])
        return _neg1(l + lp) * us[i] * us[j] * g, d

    def bsq(l: int) -> Fraction:
        return beta_squared(n, l, m) if l >= 0 else Fraction(0)

    out = []
    for l in ls:
        if power == 2:
            diag = (Fraction((l * l - m * m) * (n * n - l * l), 4 * l * l - 1)
                    + Fraction(((l + 1) ** 2 - m * m) * (n * n - (l + 1) ** 2),
                               4 * (l + 1) ** 2 - 1))
            pieces = [
                # (l-2): weight sqrt((2l+1)(2l-3)), denominators (4l^2-1)(4(l-1)^2-1)
                (l - 2, _sqrt_term(1, (2 * l + 1) * (2 * l - 3), Fraction(
                    (l * l - m * m) * (n * n - l * l)
                    * ((l - 1) ** 2 - m * m) * (n * n - (l - 1) ** 2),
                    (4 * l * l - 1) * (4 * (l - 1) ** 2 - 1)))),
                # (l+2): denominators (4l^2-1)(4(l+1)^2-1) as printed -- the
                # suspected typo; beta_(l+1) beta_(l+2) would need
                # (4(l+1)^2-1)(4(l+2)^2-1)
                (l + 2, _sqrt_term(1, (2 * l + 1) * (2 * l + 5), Fraction(
                    ((l + 2) ** 2 - m * m) * (n * n - (l + 2) ** 2)
                    * ((l + 1) ** 2 - m * m) * (n * n - (l + 1) ** 2),
                    (4 * l * l - 1) * (4 * (l + 1) ** 2 - 1)))),
            ]
        elif power == 3:
            diag = None
            pieces = [
                (l - 3, _sqrt_term(1, (2 * l + 1) * (2 * l - 5),
                                   bsq(l - 2), bsq(l - 1), bsq(l))),
                (l - 1, _sqrt_term(bsq(l - 1) + bsq(l) + bsq(l + 1),
                                   4 * l * l - 1, bsq(l))),
                (l + 1, _sqrt_term(bsq(l) + bsq(l + 1) + bsq(l + 2),
                                   (2 * l + 1) * (2 * l + 3), bsq(l + 1))),
                (l + 3, _sqrt_term(1, (2 * l + 1) * (2 * l + 7),
                                   bsq(l + 1), bsq(l + 2), bsq(l + 3))),
            ]
        else:
            diag = (bsq(l + 1) * (bsq(l) + bsq(l + 1) + bsq(l + 2))
                    + bsq(l) * (bsq(l - 1) + bsq(l) + bsq(l + 1)))
            pieces = [
                (l - 4, _sqrt_term(1, (2 * l + 1) * (2 * l - 7),
                                   bsq(l - 3), bsq(l - 2), bsq(l - 1), bsq(l))),
                (l - 2, _sqrt_term(bsq(l - 2) + bsq(l - 1) + bsq(l) + bsq(l + 1),
                                   (2 * l + 1) * (2 * l - 3), bsq(l - 1), bsq(l))),
                (l + 2, _sqrt_term(bsq(l) + bsq(l + 1) + bsq(l + 2) + bsq(l + 3),
                                   (2 * l + 1) * (2 * l + 5), bsq(l + 1), bsq(l + 2))),
                (l + 4, _sqrt_term(1, (2 * l + 1) * (2 * l + 9),
                                   bsq(l + 1), bsq(l + 2), bsq(l + 3), bsq(l + 4))),
            ]
        i = l - am
        if diag is not None:
            c, d = pair(l, l)
            out.append((i, i, c, diag * (2 * l + 1), d, None))
        for lp, kernel in pieces:
            if lp not in ls:
                continue
            if kernel is None:
                out.append((i, lp - am, 0, 0, 1, f"term (l={l} -> l'={lp}) has a "
                                                 f"negative radicand as printed"))
            elif kernel[0]:
                c, d = pair(l, lp)
                g, d = _combine_radicands(d, kernel[1])
                out.append((i, lp - am, c * g, kernel[0], d, None))
    ks, den = _over_lcm([k for _, _, _, k, _, _ in out])
    return tuple((i, j, c * k, d, note)
                 for (i, j, c, _, d, note), k in zip(out, ks)), v * v * den


# -- the rational gauge and its kernels over Fraction -------------------------
#
# The package's B/C block gauge (b, rho and J's bands as Fractions), its
# b J^k rho memo, the A_z^k contraction, the L^2 sum and the printed-form
# accumulation as they stood before the block moved to integers over a few
# denominators, kept verbatim (only their package imports are spelled out,
# b is a Fraction of integer factorials rather than of split roots, the
# printed terms are those of the Fraction-built transcription above, and the
# block keeps only what these kernels read) as the reference the integer
# kernels must equal exactly.

from dataclasses import dataclass, field  # noqa: E402

from rungelenz.basis import q_values  # noqa: E402
from rungelenz.pfrational import default_table  # noqa: E402
from rungelenz.wigner import _racah_sum  # noqa: E402


@dataclass(frozen=True)
class FractionBlock:
    a: tuple[int, ...]
    b: tuple[Fraction, ...]
    rho: tuple[tuple[Fraction, ...], ...]
    up: tuple[Fraction, ...]  # J[l, l+1] = (l+1)((l+1)^2 - m^2)/(2l+1)
    down: tuple[Fraction, ...]  # J[l+1, l] = J[l, l+1] b(l)/b(l+1)
    _j_memo: list = field(default_factory=lambda: [(None, ())], init=False,
                          compare=False, repr=False)

    def b_j_power_rho(self, n1: int, power: int) -> tuple[Fraction, ...]:
        """b (J^power rho) of row n1 = (J^T)^power (b rho), as b J is symmetric."""
        row, vecs = self._j_memo[0]
        if row != n1:
            vecs = (tuple(bl * x for bl, x in zip(self.b, self.rho[n1])),)
        while len(vecs) <= power:
            v = vecs[-1]
            out = [0] * len(v)
            for i, (j_up, j_down) in enumerate(zip(self.up, self.down)):
                out[i] += j_down * v[i + 1]
                out[i + 1] += j_up * v[i]
            vecs += (tuple(out),)
        self._j_memo[0] = (n1, vecs)
        return vecs[power]


@lru_cache(maxsize=None)
def fraction_block(n: int, m: int) -> FractionBlock:
    """The gauge of (n, m) over Fraction, unchecked."""
    fi = default_table().factorial_int
    ls = spherical_ls(n, m)
    b = []
    for l in ls:
        c = Fraction(fi(n - 1 - l) * fi(l) ** 2 * fi(l + m) * fi(l - m), fi(n + l))
        b.append(c * (2 * l + 1))
    a, rho = [], []
    for q in q_values(n, m):
        a.append(fi((n - 1 + m - q) // 2) * fi((n - 1 - m + q) // 2)
                 * fi((n - 1 + m + q) // 2) * fi((n - 1 - m - q) // 2))
        rho.append(tuple(_neg1(l) * _racah_sum(n - 1, n - 1, 2 * l, m - q, m + q, -2 * m)
                         for l in ls))
    up = tuple(Fraction((l + 1) * ((l + 1) ** 2 - m * m), 2 * l + 1) for l in ls[:-1])
    down = tuple(j * b[i] / b[i + 1] for i, j in enumerate(up))
    return FractionBlock(tuple(a), tuple(b), tuple(rho), up, down)


def b_squared_sum(p: ParabolicLabel, f) -> Fraction:
    """sum_l B^2(l) f(l) = a sum_l b(l) rho(l)^2 f(l)."""
    blk = fraction_block(p.n, p.m)
    return blk.a[p.n1] * sum(w * x * f(l) for l, w, x in zip(
        spherical_ls(p.n, p.m), blk.b_j_power_rho(p.n1, 0), blk.rho[p.n1]))


def az_contraction(p: ParabolicLabel, power: int) -> Fraction:
    """<p| A_z^power |p> = a sum_l rho(l) b(l) (J^power rho)(l)."""
    blk = fraction_block(p.n, p.m)
    return blk.a[p.n1] * sum(x * y for x, y in
                             zip(blk.rho[p.n1], blk.b_j_power_rho(p.n1, power)))


def printed_az_accumulation(p: ParabolicLabel,
                            power: int) -> tuple[RadicalSum | None, str | None]:
    """The printed A_z^power LHS of p as (value, note): the block's printed
    terms c sqrt(d) weighted by rho(l) rho(l') and summed per radicand."""
    blk = fraction_block(p.n, p.m)
    rho = blk.rho[p.n1]
    terms, e = _printed_terms(p.n, p.m, power)
    acc: dict[int, Fraction] = {}
    for i, j, c, d, note in terms:
        if rho[i] and rho[j]:
            if note:
                return None, note
            acc[d] = acc.get(d, 0) + rho[i] * rho[j] * Fraction(c, e)
    a = blk.a[p.n1]
    return RadicalSum({d: c * a for d, c in acc.items()}), None


# -- the B and C floats from the block's monomials ----------------------------
#
# The package's float route as it stood before the floats were built from an
# integer num, den and radicand per entry, kept verbatim as the reference those
# floats must equal bit for bit. The monomials it rounds now come from that
# same integer pass, so it checks the rounding, not the entries.

from math import sqrt  # noqa: E402


def floats(monomials) -> tuple[tuple[float, ...], ...]:
    """c sqrt(d) per entry, rounded as RadicalSum.to_float rounds one term."""
    return tuple(tuple(float(c) * sqrt(d) for c, d in row) for row in monomials)


# -- the B/C block with every row built -------------------------------------
#
# The package's block route before the rows q > 0 were mirrored from the rows
# q < 0: one _racah_sum per (q, l), every row joined into its B and C entries,
# and the Gram matrix of C^2 summed over every row. Kept verbatim (only its
# package imports are spelled out, and the block's _entries and c_gram are
# overridden in a subclass) as the reference the half-built block must equal.

from functools import cached_property  # noqa: E402
from math import lcm, prod  # noqa: E402
from operator import mul  # noqa: E402

from rungelenz.basis import BBlock, _a_factorials, _over_lcm  # noqa: E402
from rungelenz.pfrational import _join, factorial_root  # noqa: E402
from rungelenz.radical import _combine_radicands, _split_radicand  # noqa: E402


class EveryRowBlock(BBlock):
    def _entries(self):
        ls = spherical_ls(self.n, self.m)
        upper = self.n - self.m - 1
        table = default_table()
        odd = [_split_radicand(2 * l + 1) for l in ls]  # sqrt(2l+1) = u2 sqrt(e2)
        for n1, (q, row, d) in enumerate(zip(q_values(self.n, self.m),
                                             self.rho_num, self.rho_den)):
            ua, ea = _join(table, _a_factorials(self.n, self.m, q))
            b_row, c_row = [], []
            for l, x, (u, e), (u2, e2) in zip(ls, row, self.roots, odd):
                g, rad = _combine_radicands(ea, e)
                num = _neg1(self.m + l) * ua * x * u.numerator * g
                den = d * u.denominator
                c_row.append((num, den, rad))
                g, rad = _combine_radicands(rad, e2)
                b_row.append((_neg1(upper - n1 + l) * num * u2 * g, den, rad))
            yield b_row, c_row

    @cached_property
    def c_gram(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        ls = spherical_ls(self.n, self.m)
        cols = []
        for l, nl, col in zip(ls, self.b_num, zip(*self.rho_num)):
            f, e = Fraction(nl, self.b_den * (2 * l + 1)).as_integer_ratio()
            cols.append([Fraction(a * x * x * f, d * d * e)
                         for a, x, d in zip(self.a, col, self.rho_den)])
        big_l = lcm(*(x.denominator for col in cols for x in col))
        cols = [[x.numerator * (big_l // x.denominator) for x in col] for col in cols]
        gram = [[0] * len(cols) for _ in cols]
        for i, ci in enumerate(cols):
            for j in range(i, len(cols)):
                gram[i][j] = gram[j][i] = sum(map(mul, ci, cols[j]))
        return tuple(map(tuple, gram)), big_l * big_l


def every_row_block(n: int, m: int) -> EveryRowBlock:
    """The block of (n, m), m >= 0, with one Racah sum per (q, l), unchecked."""
    ls = spherical_ls(n, m)
    b, roots = [], []
    for l in ls:
        u, e = factorial_root((n - 1 - l, l, l, l + m, l - m), (n + l,))
        b.append(u * u * e * (2 * l + 1))
        roots.append((u, e))
    a, rho_num, rho_den = [], [], []
    # the m-factorials run from 0 at q = +-(n - |m| - 1) up to n - 1
    f = default_table().factorial_ints(0, n - 1)
    for q in q_values(n, m):
        a.append(prod(f[k] for k in _a_factorials(n, m, q)))
        row, d = _over_lcm([_neg1(l) * _racah_sum(n - 1, n - 1, 2 * l, m - q, m + q,
                                                  -2 * m) for l in ls])
        rho_num.append(row)
        rho_den.append(d)
    up = [Fraction((l + 1) * ((l + 1) ** 2 - m * m), 2 * l + 1) for l in ls[:-1]]
    down = [j * b[i] / b[i + 1] for i, j in enumerate(up)]
    bands, j_den = _over_lcm(up + down)
    return EveryRowBlock(n, m, tuple(a), *_over_lcm(b), tuple(roots), tuple(rho_num),
                         tuple(rho_den), bands[:len(up)], bands[len(up):], j_den)


# -- P(l, l'; chi) by the literal quadruple cosine sum ------------------------
#
# The package's _p_herrick, p_transition's guard before it became the C route
# |sum_q C_l C_l' e^(i q chi)|^2 that p_table checks, kept verbatim (only its
# package imports are spelled out and the block's C floats read directly) as
# the reference for the printed form, which no runtime route evaluates now.

from math import cos  # noqa: E402

from rungelenz.basis import b_block, q_values  # noqa: E402


def p_herrick(n: int, l: int, lp: int, chi: float) -> float:
    total = 0.0
    for m in range(-min(l, lp), min(l, lp) + 1):
        qs = list(q_values(n, m))
        C = b_block(n, m).c_floats
        cl = [row[l - abs(m)] for row in C]
        clp = [row[lp - abs(m)] for row in C]
        for i, q in enumerate(qs):
            for j, qp in enumerate(qs):
                w = cl[i] * cl[j] * clp[i] * clp[j]
                if w != 0.0:
                    total += w * cos(chi * (q - qp))
    return (2 * lp + 1) * total


# -- the report and matrix serialisers before they wrote text directly ------
#
# SumRuleReport.to_dict and OperatorMatrix.to_json as they were: every value a
# RadicalSum rendered by the former render_exact (sorted terms, abs of each
# coefficient), and json.dumps(indent=2) as the serialiser.

import json  # noqa: E402


def render_exact(value) -> str:
    if isinstance(value, (int, Fraction)):
        value = Fraction(value)
        return f"{value.numerator}/{value.denominator}"
    if value.is_zero:
        return "0/1"
    parts = []
    for i, (d, c) in enumerate(value.terms()):
        mag = abs(c)
        if d == 1:
            body = f"{mag.numerator}/{mag.denominator}"
        else:
            body = f"({mag.numerator}/{mag.denominator})*sqrt({d})"
        if i == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def report_dict(r) -> dict:
    """The report's dict, from its RadicalSum-valued fields."""
    out = {
        "rule": r.rule,
        "params": {"n": r.n, "m": r.m, "n1": r.n1, "n2": r.n2, "p": r.power},
        "lhs": render_exact(r.lhs),
        "rhs": render_exact(r.rhs),
        "verdict": r.verdict,
    }
    if r.difference is not None:
        out["difference"] = render_exact(r.difference)
    if r.printed_verdict is not None:
        printed = {"verdict": r.printed_verdict}
        if r.printed_lhs is not None:
            printed["lhs"] = render_exact(r.printed_lhs)
        if r.printed_rhs is not None:
            printed["rhs"] = render_exact(r.printed_rhs)
        if r.printed_lhs is not None and r.printed_rhs is not None \
                and r.printed_verdict == "mismatch":
            printed["difference"] = render_exact(r.printed_lhs - r.printed_rhs)
        if r.printed_note:
            printed["note"] = r.printed_note
        out["printed"] = printed
    return out


def matrix_json(mat) -> str:
    return json.dumps({
        "n": mat.n, "m": mat.m, "scale": mat.scale_text,
        "q": mat.qs(),
        "entries": [[render_exact(x) for x in row] for row in mat.entries],
    }, indent=2)


# -- B by the terminating 3F2 and the closed forms at l = m, n-1, n-2 --------
#
# Former package routes (m >= 0 only, as published), with the 3F2 sign survey
# and the large-n form of B^2; k! is math.factorial.

from math import exp  # noqa: E402

from rungelenz import basis  # noqa: E402
from rungelenz.basis import _check_n, _is_int  # noqa: E402


def b_coeff_3f2(p: ParabolicLabel, l: int) -> RadicalSum:
    """B(l) = 3F2[{l+m+1, -(l-m), -n1}; {m+1, -(n-m-1)}; 1] times
    (-1)^(l-m) (n-m-1)!/m! sqrt[(2l+1) (l+m)! (n1+m)! (n2+m)! / (n1! n2!
    (l-m)! (n-l-1)! (n+l)!)], the prefactor fixed by B^2 agreement (the
    printed one fails normalization); (-1)^(n1+n2) times the block's sign."""
    if p.m < 0:
        raise DomainError(
            "the hypergeometric form is printed for m >= 0 only; "
            "use b_coeff for signed m")
    _check_l(p, l)
    n, n1, n2, m = p.n, p.n1, p.n2, p.m
    term = series = Fraction(1)  # the terminating series, exact
    for k in range(min(l - m, n1)):
        term *= Fraction((l + m + 1 + k) * (-(l - m) + k) * (-n1 + k),
                         (m + 1 + k) * (-(n - m - 1) + k) * (k + 1))
        series += term
    if series == 0:
        return RadicalSum.zero()
    c, d = factorial_root((l + m, n1 + m, n2 + m), (n1, n2, l - m, n - l - 1, n + l))
    scale = series * Fraction(factorial(n - m - 1), factorial(m)) * _neg1(l - m)
    return RadicalSum.from_sqrt(2 * l + 1) * RadicalSum({d: c * scale})


B_SPECIAL_CASES = ("l-eq-m", "n-1", "n-2")


def b_special(p: ParabolicLabel, which: str) -> RadicalSum:
    """Closed forms for B at l = m, n-1, n-2 (m >= 0), signed as published;
    the case fixes l, and an inconsistent one raises DomainError."""
    if which not in B_SPECIAL_CASES:
        raise DomainError(f"which must be one of {B_SPECIAL_CASES}, got {which!r}")
    if p.m < 0:
        raise DomainError("the closed forms are printed for m >= 0 only")
    n, n1, n2, m = p.n, p.n1, p.n2, p.m
    if which == "l-eq-m":
        l = m
        _check_l(p, l)
        c, d = factorial_root((2 * l + 1, n1 + l, n2 + l, n - l - 1), (n1, n2, n + l))
        return RadicalSum({d: c / factorial(l)})
    if which == "n-1":
        l = n - 1
        _check_l(p, l)
        c, d = factorial_root((n1 + n2, n1 + n2 + 2 * m),
                              (n1, n2, 2 * n - 2, n1 + m, n2 + m))
        return RadicalSum({d: c * factorial(n - 1) * _neg1(n2)})
    # which == "n-2"
    l = n - 2
    if n1 + n2 < 1:
        raise DomainError(f"l = n-2 lies outside the manifold of {p}")
    _check_l(p, l)
    if n1 == n2:
        return RadicalSum.zero()
    c, d = factorial_root((n1 + n2 - 1, n1 + n2 + 2 * m - 1),
                          (n1, n2, 2 * n - 2, n1 + m, n2 + m))
    scale = (n1 - n2) * factorial(n - 1) * _neg1(n2)
    return RadicalSum.from_sqrt(2 * n - 3) * RadicalSum({d: c * scale})


def hypergeometric_sign_survey(n_max: int) -> dict:
    """The sample count of B / b_coeff_3f2 (B the package's block route) over
    every m >= 0 block with n <= n_max, and whether it is (-1)^(n1+n2) on all."""
    pairs = [(basis.b_coeff(p, l), b_coeff_3f2(p, l) * _neg1(p.n1 + p.n2))
             for n in range(1, n_max + 1) for m in range(n)
             for p in (ParabolicLabel(n1, n - m - 1 - n1, m) for n1 in range(n - m))
             for l in spherical_ls(n, m)]
    pairs = [(direct, hyper) for direct, hyper in pairs if not direct.is_zero]
    return {"samples": len(pairs),
            "ratio_is_neg1_pow_n1_plus_n2": all(d == h for d, h in pairs)}


def b_squared_asymptotic(n: int, l: int) -> float:
    """(2l+1)/n exp(-l(l+1)/n): B^2 of the extremal-q state, m = 0, l << n."""
    _check_n(n)
    if not (_is_int(l) and 0 <= l <= n - 1):
        raise DomainError(f"need an int 0 <= l <= n-1, got l = {l!r}, n = {n}")
    return (2 * l + 1) / n * exp(-l * (l + 1) / n)


# -- the triangle rule and the Regge map of 3jm arguments ---------------------
#
# Former package routes, with the error the map raised.

from rungelenz.wigner import ThreeJmArgs, twice  # noqa: E402


class ReggeInadmissibleError(DomainError):
    """The Regge transform of the given arguments is not a valid symbol."""


def triangle_ok(a, b, c) -> bool:
    """Triangle rule |a-b| <= c <= a+b with integer perimeter."""
    return tri_ok(twice(a), twice(b), twice(c))


def regge_transform(args: ThreeJmArgs) -> ThreeJmArgs:
    """(j1 j2 j3; m1 m2 m3) -> (j1, (j2+j3+m1)/2, (j2+j3-m1)/2; j2-j3,
    (j3-j2+m1)/2 + m2, (j3-j2+m1)/2 + m3), the Regge map fixing column 1; an
    image that is no valid symbol raises ReggeInadmissibleError."""
    tj1, tj2, tj3, tm1, tm2, tm3 = args.twices()
    if (tj2 + tj3 + tm1) % 2:
        raise ReggeInadmissibleError(
            "transform needs j2 + j3 + m1 to be an integer")
    tj2p = (tj2 + tj3 + tm1) // 2
    tj3p = (tj2 + tj3 - tm1) // 2
    shift = (tj3 - tj2 + tm1) // 2
    new = (tj1, tj2p, tj3p, tj2 - tj3, shift + tm2, shift + tm3)
    if tj2p < 0 or tj3p < 0:
        raise ReggeInadmissibleError(f"transform of {args} has negative j")
    try:
        return ThreeJmArgs(*(Fraction(t, 2) for t in new))
    except DomainError as exc:
        raise ReggeInadmissibleError(str(exc)) from exc


# -- A_z as a generator expression and <A^2> in closed form ------------------
#
# Former package routes.

from rungelenz.basis import SphericalLabel  # noqa: E402
from rungelenz.operators import OperatorExpression  # noqa: E402


def az_expression() -> OperatorExpression:
    """A_z = j1z - j2z."""
    return OperatorExpression.build((1, ("j1z",)), (-1, ("j2z",)))


def a_squared_expectation(s: SphericalLabel) -> Fraction:
    """<n l m| A^2 |n l m> = n^2 - 1 - l(l+1)."""
    return Fraction(s.n * s.n - 1 - s.l * (s.l + 1))


# -- helpers the test modules share -------------------------------------------

def all_labels(n):
    """Every parabolic label |n1 n2 m> of the n-manifold."""
    for m in range(-(n - 1), n):
        upper = n - abs(m) - 1
        for n1 in range(upper + 1):
            yield ParabolicLabel(n1, upper - n1, m)


def sign_square(value):
    """(sign, square) of a one-term radical, for oracle comparison."""
    if value.is_zero:
        return 0, Fraction(0)
    (d, c), = value.terms()
    return (1 if c > 0 else -1), c * c * d
