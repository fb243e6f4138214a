"""Parabolic <-> spherical basis machinery within one hydrogenic n-manifold.

B(l) = <n l m | n1 n2 m> and its bare 3jm C are read from one cached block per
(n, |m|), built over Q from one row of Racah sums of that 3jm and L^2's
three-term recurrence in q (b_block), which also holds A_z in that rational
gauge (J); b_coeff, b_matrix, the Stark module's C and float tables, every
sum rule and az_power_matrix read it. C is even in m, and B(n, -m) = (-1)^m
B(n, m). Only the rows q <= 0 are built: the stretched row n1 = 0 from Racah
sums of one term each, every later one in integers from the two before it.
C's 3jm couples two equal spins (n-1)/2, and swapping them (q -> -q)
multiplies it by (-1)^(n-1+l), so the rows q > 0 of rho are mirror images,
with the a, D and R^2 of their sources; that mirror and its sign are made
once, in the stored rows, which every B and C entry reads. The square roots of
the block are ratios of factorials, split by pfrational.factorial_root
without factoring anything. The block stores its
gauge as integers over a few denominators (each rho row as R over D, b as N
over b_den, J's bands as U and W over one Delta), and its build checks in
integers that every B row is normalised (a sum_l N R^2 = b_den D^2) and that
J matches beta^2 (U W = beta^2 Delta^2). The sum rules read a third guard,
checked once per block: every row is an eigenvector of J with its own q
(J^T (N R) = q Delta (N R)), mirrored rows and their sign included. Every B
and C entry, its monomial and its float alike, comes from one integer pass
over the block's stored rows: a numerator, a denominator and a squarefree
radicand, whose sign is its row's. n, m, l and every label field must be
ints, not bools (check_block, the labels, ManifoldState, _check_l). The
block is the package's one route to B; the single-3jm definition, its Regge
partner, the terminating 3F2 and the fixed-l closed forms are test oracles.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isfinite, lcm, prod, sqrt
from numbers import Real
from operator import add, mul

from .errors import DomainError, InternalConsistencyError
from .pfrational import _join, default_table, factorial_root
from .radical import RadicalSum, _combine_radicands, _split_radicand, dot
from .record import Record
from .wigner import _neg1, _racah_sum


class SphericalLabel(Record):
    """|n l m> with |m| <= l <= n-1, all ints (not bools)."""

    n: int
    l: int
    m: int

    def __post_init__(self):
        _check_n(self.n)
        if not (_is_int(self.l) and _is_int(self.m)):
            raise DomainError(f"need int l and m, not bool, got {self}")
        if not abs(self.m) <= self.l <= self.n - 1:
            raise DomainError(f"need |m| <= l <= n-1, got {self}")


class ParabolicLabel(Record):
    """|n1 n2 m> with n = n1 + n2 + |m| + 1; q = n1 - n2 is the A_z eigenvalue."""

    n1: int
    n2: int
    m: int

    def __post_init__(self):
        if not (_is_int(self.n1) and _is_int(self.n2) and _is_int(self.m)):
            raise DomainError(f"parabolic quantum numbers must be ints, got {self}")
        if self.n1 < 0 or self.n2 < 0:
            raise DomainError(f"parabolic quantum numbers must be >= 0, got {self}")

    @property
    def n(self) -> int:
        return self.n1 + self.n2 + abs(self.m) + 1

    @property
    def q(self) -> int:
        return self.n1 - self.n2


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _finite_real(x, *factors) -> bool:
    """x is a real, not a bool, and x and x * prod(factors) are finite floats."""
    try:
        return (isinstance(x, Real) and not isinstance(x, bool) and isfinite(x)
                and isfinite(prod(factors) * x))
    except OverflowError:  # an int or Fraction beyond the float range
        return False


def _check_n(n: int) -> None:
    if not _is_int(n) or n < 1:
        raise DomainError(f"n = {n!r} must be an int >= 1")


def check_block(n: int, m: int) -> None:
    """DomainError unless n and m are ints, not bools, and (n, m) is a block
    of the manifold."""
    if not (_is_int(n) and _is_int(m)):
        raise DomainError(f"(n, m) = ({n!r}, {m!r}) is not a block of the "
                          f"manifold: need int n and m, not bool")
    if n < 1 or abs(m) > n - 1:
        raise DomainError(f"(n, m) = ({n}, {m}) is not a block of the manifold: "
                          f"need n >= 1 and |m| <= n-1")


def spherical_ls(n: int, m: int) -> range:
    """The l index set of the (n, m) manifold."""
    return range(abs(m), n)


def q_values(n: int, m: int) -> range:
    """The electric quantum numbers of the (n, m) manifold, increasing."""
    upper = n - abs(m) - 1
    return range(-upper, upper + 1, 2)


class ManifoldState(Record):
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
        check_block(self.n, self.m)
        if not (isinstance(self.coeffs, tuple)
                and all(isinstance(c, RadicalSum) for c in self.coeffs)):
            raise DomainError(f"coeffs must be a tuple of RadicalSums, "
                              f"got {self.coeffs!r}")
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


def block_state(basis: str, n: int, m: int, entries: dict) -> ManifoldState:
    """The (n, m) state with entries[i] at index i (l - |m| or n1), else 0."""
    coeffs = [RadicalSum.zero()] * (n - abs(m))
    for i, value in entries.items():
        coeffs[i] = value
    return ManifoldState(basis, n, m, tuple(coeffs))


def unit_spherical(label: SphericalLabel) -> ManifoldState:
    return block_state("spherical", label.n, label.m,
                       {label.l - abs(label.m): RadicalSum.from_rational(1)})


def unit_parabolic(label: ParabolicLabel) -> ManifoldState:
    return block_state("parabolic", label.n, label.m,
                       {label.n1: RadicalSum.from_rational(1)})


@lru_cache(maxsize=None, typed=True)  # beta_squared(3.0, 1, 0) is not (3, 1, 0)
def beta_squared(n: int, l: int, m: int) -> Fraction:
    """(n^2-l^2)(l^2-m^2)/(4l^2-1), clamped to 0 outside the manifold.

    The numerator vanishes at l = n and l^2 = m^2; indices beyond those
    boundaries (where the product goes negative) also give 0, mirroring the
    vanishing boundary factors in every chain they appear in. Every argument
    must be an int, not a bool.
    """
    if not (_is_int(n) and _is_int(l) and _is_int(m)):
        raise DomainError(f"beta_squared{(n, l, m)!r} needs int arguments, not bools")
    if l < 0:
        raise DomainError(f"beta needs l >= 0, got {l}")
    num = (n * n - l * l) * (l * l - m * m)
    if num <= 0:
        return Fraction(0)
    return Fraction(num, 4 * l * l - 1)


# -- the B/C block of one (n, m) ----------------------------------------

class BBlock(Record):
    """B and its bare 3jm C over one (n, |m|) block, in a rational gauge.

    C(q, l, m) = 3jm((n-1)/2 (n-1)/2 l; (m-q)/2 (m+q)/2 -m)
    = (-1)^m sqrt(a(n1)) r(n1, l) u(l) sqrt(e(l)), with r the Racah
    alternating sum of that 3jm at its own (uncanonicalised) arguments, a(n1)
    the product of its four m-factorials and u sqrt(e) = sqrt(b(l)/(2l+1)),
    b(l) = (2l+1)(n-1-l)! (l!)^2 (l+m)! (l-m)!/(n+l)!. C(q, l, -m) =
    C(q, l, m), so a, b, r and J are those of |m| and the block holds m >= 0.
    There B[n1, l] = (-1)^(n2 + m + l) sqrt(a b) r, and rho = (-1)^l r; B's
    only dependence on the sign of m is B(n, -m) = (-1)^m B(n, m), which
    b_matrix applies (b_floats are those of |m|, which the Stark products
    square away). Rows are indexed by n1 (q increasing), entries by l - |m|.
    A_z in this gauge is J = D^-1 A_z D, D = diag(sqrt b): rational,
    tridiagonal.

    Only the first ceil(rows/2) rows, q <= 0, are built. Row n1 = 0 is the
    stretched state (m - q)/2 = (n-1)/2, where each Racah sum has one term.
    L^2 is diagonal in l and tridiagonal in q, so every column of rho obeys
    its three-term recurrence, with t = n-1 and a row outside the block
    counting as 0:

        C+(q) rho(q+2) = [4l(l+1) - 2t(t+2) - 2(m^2-q^2)] rho(q) - C-(q) rho(q-2),
        C-(q) = (t+m-q+2)(t-m-q+2),  C+(q) = (t-m+q+2)(t+m+q+2) > 0,

    which builds the rows n1 = 1 .. ceil(rows/2) - 1 from the seed, each over
    its own reduced D exactly as the Racah sums give it. The recurrence is
    L^2's, not A_z's, so the row identity J rho = q rho stays an independent
    check of every row the recurrence builds.

    Swapping the two spins of C's 3jm maps q to -q and multiplies it by
    (-1)^(2(n-1)/2 + l) = (-1)^(n-1+l), and permutes a's four m-factorials, so
    row upper - n1 is row n1 with rho times (-1)^(n-1+l) and the same a and D.
    The norm guard of b_block reads a, D and R^2 only, which a mirrored row
    shares with its source, so a mirrored row passes it exactly when its
    source does. The row identity J rho = q rho sees rho's mirror sign: J has
    a zero diagonal, so diag((-1)^l) J diag((-1)^l) = -J, and a mirrored row
    satisfies the identity with its own q = -q(source) exactly when its
    source does and the sign (-1)^(n-1+l) is right. _entries multiplies out
    every stored row, so that is the only sign a mirrored B or C entry carries.

    The gauge is stored as integers over a few denominators: row n1 of rho as
    R = rho_num[n1] over D = rho_den[n1], the lcm of that row's denominators;
    b as N = b_num over b_den; J's bands as U = up and W = down over one
    j_den (Delta), so J^k carries Delta^k. b, U and W are formed in
    integers, each entry a reduced (num, den) pair, then put over the lcm of
    their denominators: b(l) = (2l+1) u^2 e from the root u sqrt(e) that
    pfrational.factorial_root splits, so the norm and beta guards on b also
    see the roots the entries read; U = (l+1)((l+1)^2 - m^2)/(2l+1); and
    W = U b(l)/b(l+1), taken from b, so the beta guard ties b's factorials to
    A_z. Only j_transpose reads the bands,
    one step per power: the row identity of az_eigenvalues, and the columns
    of b J^k (b_j_power) that az_power_matrix and the printed forms read.
    az_eigenvalues is checked once per block, on first read, by the sum
    rules; the Stark tables, which read R^2 and _entries only, do not pay
    for it, and their unitarity check sees the same sign in the B floats.
    One integer pass (_entries, not kept) gives every B and C entry as num,
    den and a squarefree rad; B's and C's monomials (num/den, rad) and their
    floats (num / den * sqrt(rad), rounded once) all read it. C's
    monomials, the floats and the integer Gram matrix of C^2 (c_gram, for
    P-bar) are built on first use and kept.
    """

    n: int
    m: int
    a: tuple[int, ...]
    b_num: tuple[int, ...]  # N: b(l) = N / b_den
    b_den: int
    roots: tuple[tuple[Fraction, int], ...]  # sqrt(b(l)/(2l+1)) = u sqrt(e)
    rho_num: tuple[tuple[int, ...], ...]  # R: rho[n1] = R / rho_den[n1]
    rho_den: tuple[int, ...]
    up: tuple[int, ...]  # U: J[l, l+1] = U / j_den = (l+1)((l+1)^2 - m^2)/(2l+1)
    down: tuple[int, ...]  # W: J[l+1, l] = W / j_den = J[l, l+1] b(l)/b(l+1)
    j_den: int

    def b_j_power(self, power: int) -> list[tuple[int, ...]]:
        """The columns of b J^power, symmetric as b J is, column l' being
        (J^T)^power (b e_l'), in integers over b_den j_den^power; not kept."""
        cols = []
        for j, nj in enumerate(self.b_num):
            v = [0] * len(self.b_num)
            v[j] = nj
            for _ in range(power):
                v = self.j_transpose(v)
            cols.append(tuple(v))
        return cols

    def j_transpose(self, v) -> tuple[int, ...]:
        """J^T v, Delta times as integral as v: U[i-1] v[i-1] + W[i] v[i+1]."""
        return tuple(map(add, [0, *map(mul, self.up, v)],
                         [*map(mul, self.down, v[1:]), 0]))

    @cached_property
    def az_eigenvalues(self) -> tuple[int, ...]:
        """The A_z eigenvalue q of each row n1, once every row's rho is shown
        an eigenvector of J with that q, in integers as J^T (N R) = q Delta
        (N R), b J being symmetric: O(dim) per row, mirrored rows included.
        A row that fails halts with InternalConsistencyError."""
        qs = tuple(q_values(self.n, self.m))
        for n1, (q, row) in enumerate(zip(qs, self.rho_num)):
            b_rho = tuple(map(mul, self.b_num, row))
            if self.j_transpose(b_rho) != tuple(map((q * self.j_den).__mul__, b_rho)):
                raise InternalConsistencyError(
                    f"B row n1={n1} of (n={self.n}, m={self.m}) is not an eigenvector "
                    f"of J with q={q}: J rho != q rho in the rational gauge")
        return qs

    def _entries(self):
        """Each row's B and C entries as (num, den, rad), the value num / den
        sqrt(rad) with rad squarefree, built in ints; a generator, not kept.

        sqrt(a) comes from the factorial table (pfrational._join over the four
        m-factorials of a), C joins it with the row of rho and the root u
        sqrt(e), and B = (-1)^(n2 + l) sqrt(2l+1) C for m >= 0. Every stored
        row is multiplied out, mirrored rows included, so an entry's sign is
        its row of rho's, the one az_eigenvalues checks. The joins themselves
        carry no sign: q and -q permute the same four m-factorials, so both
        rows read the factors joined once per |q|.
        """
        ls = spherical_ls(self.n, self.m)
        upper = self.n - self.m - 1
        table = default_table()
        odd = [_split_radicand(2 * l + 1) for l in ls]  # sqrt(2l+1) = u2 sqrt(e2)
        joins = {}  # |q| -> per l, C's factor and rad, B's factor and rad
        for n1, (q, row, d) in enumerate(zip(q_values(self.n, self.m),
                                             self.rho_num, self.rho_den)):
            if abs(q) not in joins:
                ua, ea = _join(table, _a_factorials(self.n, self.m, q))
                factors = []
                for l, (u, e), (u2, e2) in zip(ls, self.roots, odd):
                    g, rad = _combine_radicands(ea, e)
                    g2, rad2 = _combine_radicands(rad, e2)
                    factors.append((_neg1(self.m + l) * ua * u.numerator * g,
                                    u.denominator, rad, u2 * g2, rad2))
                joins[abs(q)] = factors
            b_row, c_row = [], []
            for l, x, (f, u_den, rad, f2, rad2) in zip(ls, row, joins[abs(q)]):
                num = f * x
                den = d * u_den
                c_row.append((num, den, rad))
                b_row.append((_neg1(upper - n1 + l) * num * f2, den, rad2))
            yield b_row, c_row

    @cached_property
    def c_monomials(self) -> tuple[tuple[tuple[Fraction, int], ...], ...]:
        return tuple(tuple((Fraction(num, den), rad) for num, den, rad in c_row)
                     for _, c_row in self._entries())

    def b_monomials(self) -> list[list[tuple[Fraction, int]]]:
        """B's monomials (c, d) = c sqrt(d); not kept."""
        return [[(Fraction(num, den), rad) for num, den, rad in b_row]
                for b_row, _ in self._entries()]

    @cached_property
    def _float_tables(self) -> tuple[tuple[tuple[float, ...], ...], ...]:
        """(B floats, C floats), each entry rounded once as num / den * sqrt(rad).

        Int true division rounds correctly, as float(Fraction) does, so each
        float equals c * sqrt(d) rounded from its monomial (c, d).
        """
        return tuple(tuple(tuple(num / den * sqrt(rad) for num, den, rad in row)
                           for row in rows) for rows in zip(*self._entries()))

    @property
    def b_floats(self) -> tuple[tuple[float, ...], ...]:
        return self._float_tables[0]

    @property
    def c_floats(self) -> tuple[tuple[float, ...], ...]:
        return self._float_tables[1]

    @cached_property
    def c_gram(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(G, L^2) with G[i][j] / L^2 = sum over rows of C^2[., i] C^2[., j].

        C^2 = a R^2 N/(D^2 b_den (2l+1)) needs no root split; each entry is
        reduced. C^2 is even in q (row upper - n1 has the a, D and R^2 of row
        n1), so only the rows q <= 0 are read: L C^2 is integral for L the lcm
        of their reduced C^2 denominators, and G = (L C^2)^T (L C^2) is summed
        in ints, once per pair i <= j, as twice the rows q < 0 plus the row
        q = 0 when there is one.
        """
        ls = spherical_ls(self.n, self.m)
        rows = len(self.a)
        mid = rows % 2  # the row q = 0, its own mirror
        cols = []
        for l, nl, col in zip(ls, self.b_num, zip(*self.rho_num)):
            f, e = Fraction(nl, self.b_den * (2 * l + 1)).as_integer_ratio()
            cols.append([Fraction(a * x * x * f, d * d * e) for a, x, d in
                         zip(self.a[:(rows + 1) // 2], col, self.rho_den)])
        big_l = lcm(*(x.denominator for col in cols for x in col))
        cols = [[x.numerator * (big_l // x.denominator) for x in col] for col in cols]
        gram = [[0] * len(cols) for _ in cols]
        for i, ci in enumerate(cols):
            for j in range(i, len(cols)):
                cj = cols[j]
                gram[i][j] = gram[j][i] = (2 * sum(map(mul, ci, cj))
                                           - mid * ci[-1] * cj[-1])
        return tuple(map(tuple, gram)), big_l * big_l


def _over_lcm(xs: list) -> tuple[tuple[int, ...], int]:
    """Rationals xs as integer numerators over one denominator, the lcm of theirs."""
    return _pairs_over_lcm([x.as_integer_ratio() for x in xs])


def _pairs_over_lcm(pairs: list) -> tuple[tuple[int, ...], int]:
    """Reduced (num, den) pairs as integer numerators over one denominator,
    the lcm of theirs."""
    den = lcm(*(d for _, d in pairs))
    return tuple(x * (den // d) for x, d in pairs), den


def _ratio(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator, as an int pair."""
    g = gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


def _pair_sum(*pairs: tuple[int, int]) -> tuple[int, int]:
    """The sum of rationals given as (num, den) int pairs, den != 0, over
    the positive lcm of the dens; not reduced."""
    den = lcm(*(q for _, q in pairs))
    return sum(p * (den // q) for p, q in pairs), den


def _a_factorials(n: int, m: int, q: int) -> tuple[int, int, int, int]:
    """The four m-factorials of C's 3jm at q, whose product is a(n1)."""
    return ((n - 1 + m - q) // 2, (n - 1 - m + q) // 2,
            (n - 1 + m + q) // 2, (n - 1 - m - q) // 2)


def _block_entries(n: int, m: int) -> BBlock:
    """The block of (n, m), unchecked: a, rho and the gauge of BBlock in
    integers, with no Fraction arithmetic past the Racah sums and the roots."""
    ls = spherical_ls(n, m)
    b, roots = [], []
    for l in ls:
        u, e = factorial_root((n - 1 - l, l, l, l + m, l - m), (n + l,))
        roots.append((u, e))
        # b(l) = (2l+1) u^2 e as a reduced (num, den)
        r, s = u.as_integer_ratio()
        b.append(_ratio(r * r * (2 * l + 1) * e, s * s))
    # the m-factorials run from 0 at q = +-(n - |m| - 1) up to n - 1
    f = default_table().factorial_ints(0, n - 1)
    qs = q_values(n, m)
    half = (len(qs) + 1) // 2
    a = [prod(f[k] for k in _a_factorials(n, m, q)) for q in qs[:half]]
    # the stretched row n1 = 0, one Racah term per l: rho = (-1)^l r
    q, t = qs[0], n - 1
    r, d = _over_lcm([_racah_sum(t, t, 2 * l, m - q, m + q, -2 * m) for l in ls])
    rho_num = [tuple(-x if l & 1 else x for l, x in zip(ls, r))]
    rho_den = [d]
    # the rows q <= 0 after it from L^2's recurrence in q (see BBlock), each
    # over lcm(D(q), D(q-2)) and C+(q), reduced to its canonical R over D
    prev, prev_d = (0,) * len(ls), 1
    for q in qs[:half - 1]:
        row, d = rho_num[-1], rho_den[-1]
        c_minus = (t + m - q + 2) * (t - m - q + 2)
        c_plus = (t - m + q + 2) * (t + m + q + 2)
        big_l = lcm(d, prev_d)
        s, s_prev = big_l // d, c_minus * (big_l // prev_d)
        shift = 2 * t * (t + 2) + 2 * (m * m - q * q)
        nums = [(4 * l * (l + 1) - shift) * s * x - s_prev * y
                for l, x, y in zip(ls, row, prev)]
        den = c_plus * big_l
        g = gcd(den, *nums)  # D is the lcm of the row's reduced denominators
        prev, prev_d = row, d
        rho_num.append(tuple(x // g for x in nums))
        rho_den.append(den // g)
    # q -> -q swaps the two equal spins of C's 3jm, a factor (-1)^(n-1+l), and
    # permutes a's four m-factorials: row upper - n1 is that sign times row n1
    for n1 in range(len(qs) - half - 1, -1, -1):
        a.append(a[n1])
        rho_num.append(tuple(-x if (n - 1 + l) & 1 else x
                             for l, x in zip(ls, rho_num[n1])))
        rho_den.append(rho_den[n1])
    # J's bands U and W (see BBlock), each entry a reduced (num, den)
    up, down = [], []
    for l, (bn, bd), (bn1, bd1) in zip(ls, b, b[1:]):
        num, den = (l + 1) * ((l + 1) ** 2 - m * m), 2 * l + 1
        up.append(_ratio(num, den))
        down.append(_ratio(num * bn * bd1, den * bd * bn1))
    bands, j_den = _pairs_over_lcm(up + down)
    return BBlock(n, m, tuple(a), *_pairs_over_lcm(b), tuple(roots), tuple(rho_num),
                  tuple(rho_den), bands[:len(up)], bands[len(up):], j_den)


@lru_cache(maxsize=None, typed=True)  # b_block(2.0, 0) is not b_block(2, 0)
def b_block(n: int, m: int) -> BBlock:
    """The checked block of (n, |m|); needs the factorial table up to (2n-1)!.

    Every B row must have a sum_l b rho^2 = 1, which ties a, b, the Racah
    row and the rows L^2's recurrence builds from it to B and C, and
    J[l, l+1] J[l+1, l] must equal beta^2(n, l+1, m), which ties J's closed
    form and b's factorials to A_z; a failure halts with
    InternalConsistencyError. Both run on the integer fields: a sum_l N R^2
    = b_den D^2 per row, and U W den(beta^2) = num(beta^2) Delta^2 per band.
    The third guard, J rho = q rho per row, is the block's az_eigenvalues,
    which halts the same way on the sum rules' first read; it is A_z's
    identity, not L^2's, so no row passes it by construction.
    """
    check_block(n, m)
    default_table().require(2 * n - 1)
    if m < 0:
        return b_block(n, -m)
    blk = _block_entries(n, m)
    for n1, (a, row, d) in enumerate(zip(blk.a, blk.rho_num, blk.rho_den)):
        norm = a * sum(nl * x * x for nl, x in zip(blk.b_num, row))
        if norm != blk.b_den * d * d:
            raise InternalConsistencyError(
                f"B row n1={n1} of (n={n}, m={m}) has squared norm "
                f"{Fraction(norm, blk.b_den * d * d)} in the rational gauge, not 1")
    delta2 = blk.j_den ** 2
    for l, j_up, j_down in zip(spherical_ls(n, m), blk.up, blk.down):
        bsq = beta_squared(n, l + 1, m)
        if j_up * j_down * bsq.denominator != bsq.numerator * delta2:
            raise InternalConsistencyError(
                f"gauge J[{l}, {l + 1}] J[{l + 1}, {l}] = "
                f"{Fraction(j_up * j_down, delta2)} differs "
                f"from beta^2 = {bsq} at (n={n}, m={m})")
    return blk


# -- the transformation coefficient -------------------------------------

def _check_l(p: ParabolicLabel, l: int) -> None:
    if not _is_int(l):
        raise DomainError(f"l = {l!r} must be an int, not a bool")
    if not abs(p.m) <= l <= p.n - 1:
        raise DomainError(f"l = {l} outside the manifold range "
                          f"[{abs(p.m)}, {p.n - 1}] of {p}")


def b_coeff(p: ParabolicLabel, l: int) -> RadicalSum:
    """B(l): <n l m | n1 n2 m>, read from the (n, m) block."""
    _check_l(p, l)
    return b_matrix(p.n, p.m)[p.n1][l - abs(p.m)]


# -- whole-manifold transforms -----------------------------------------

@lru_cache(maxsize=None, typed=True)
def b_matrix(n: int, m: int) -> tuple[tuple[RadicalSum, ...], ...]:
    """Rows indexed by n1 (q increasing), columns by l - |m|."""
    sign = _neg1(m) if m < 0 else 1
    return tuple(tuple(RadicalSum({d: sign * c}) for c, d in row)
                 for row in b_block(n, m).b_monomials())


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
