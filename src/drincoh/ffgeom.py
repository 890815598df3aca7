"""Finite-field geometry: extension fields F_{q^m}, subspaces in reduced row
echelon form, flags as canonical models of parabolic cosets, and brute-force
point enumeration on projective spaces and Drinfeld half spaces.

Conventions
-----------
* q is prime everywhere in this module; extension fields F_{q^m} are built as
  F_q[t]/(f) for the monic irreducible f of degree m with the least
  coefficient encoding (so all runs agree bit for bit).
* Field elements are ints in 0..q^m-1, base-q digits = polynomial
  coefficients, constant term last digit (value c in F_q embeds as c).
* A subspace is identified with its unique reduced-row-echelon basis; a flag
  of type I is the strictly increasing chain of subspaces whose dimensions
  are the interior partial sums of I's composition.  The group action is by
  right multiplication with g^{-1} on row coordinates; it is never
  materialized, since every map needed downstream is a chain-forgetting or
  point-membership relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from .errors import DeskScaleExceeded
from .qarith import is_prime
from .rootdata import ParabolicType

POINT_GUARD = 10**8


# ---------------------------------------------------------------------------
# extension fields
# ---------------------------------------------------------------------------


def _poly_mul_mod(a: tuple[int, ...], b: tuple[int, ...], mod: tuple[int, ...], q: int):
    """Multiply coefficient tuples (index = degree) modulo the monic poly `mod`."""
    deg_m = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    for d in range(len(out) - 1, deg_m - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            for j in range(deg_m):
                out[d - deg_m + j] = (out[d - deg_m + j] - c * mod[j]) % q
    return tuple(out[:deg_m]) + (0,) * (deg_m - len(out))


def _encode(coeffs, q: int) -> int:
    v = 0
    for d, c in enumerate(coeffs):
        v += c * q**d
    return v


def _decode(v: int, q: int, m: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        out.append(v % q)
        v //= q
    return tuple(out)


def _is_irreducible(f: tuple[int, ...], q: int) -> bool:
    """Trial division by all monic polys of degree 1..deg(f)//2."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(q**d):
            g = _decode(enc, q, d) + (1,)
            # long division remainder of f by g
            rem = list(f)
            for k in range(len(rem) - 1, d - 1, -1):
                c = rem[k] % q
                if c:
                    rem[k] = 0
                    for j in range(d):
                        rem[k - d + j] = (rem[k - d + j] - c * g[j]) % q
            if not any(x % q for x in rem):
                return False
    return True


class GaloisField:
    """F_{q^m} with int-encoded elements and exp/log multiplication tables."""

    def __init__(self, q: int, m: int):
        if not is_prime(q):
            raise ValueError(f"q must be prime, got {q}")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.q = q
        self.m = m
        self.size = q**m
        self.modulus = self._least_irreducible(q, m)
        self._build_tables()

    @staticmethod
    def _least_irreducible(q: int, m: int) -> tuple[int, ...]:
        for enc in range(q**m):
            f = _decode(enc, q, m) + (1,)
            if _is_irreducible(f, q):
                return f
        raise AssertionError("no irreducible polynomial found")  # unreachable

    def _build_tables(self):
        q, m, N = self.q, self.m, self.size
        mod = self.modulus

        def raw_mul(a: int, b: int) -> int:
            return _encode(_poly_mul_mod(_decode(a, q, m), _decode(b, q, m), mod, q), q)

        # find a multiplicative generator by brute force
        order = N - 1
        for g in range(2 if N > 2 else 1, N):
            x, k = g, 1
            while x != 1:
                x = raw_mul(x, g)
                k += 1
            if k == order:
                break
        else:
            g = 1  # F_2: trivial group
        exp = [1] * max(order, 1)
        for i in range(1, order):
            exp[i] = raw_mul(exp[i - 1], g)
        log = [0] * N
        for i, v in enumerate(exp):
            log[v] = i
        self._exp, self._log = exp, log

    def add(self, a: int, b: int) -> int:
        q = self.q
        if self.m == 1:
            return (a + b) % q
        s = 0
        mult = 1
        while a or b:
            s += ((a + b) % q) * mult
            a //= q
            b //= q
            mult *= q
        return s

    def neg(self, a: int) -> int:
        q = self.q
        if self.m == 1:
            return (-a) % q
        s = 0
        mult = 1
        while a:
            s += (-a % q) * mult
            a //= q
            mult *= q
        return s

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        order = self.size - 1
        return self._exp[(self._log[a] + self._log[b]) % order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        order = self.size - 1
        return self._exp[(-self._log[a]) % order]

    def __repr__(self):
        return f"GaloisField(q={self.q}, m={self.m})"


@lru_cache(maxsize=None)
def field(q: int, m: int = 1) -> GaloisField:
    return GaloisField(q, m)


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------


def projective_points(n: int, F: GaloisField) -> list[tuple[int, ...]]:
    """All points of P^n(F), as normalized coordinate tuples, sorted."""
    pts = []
    for lead in range(n + 1):
        for tail in product(range(F.size), repeat=n - lead):
            pts.append((0,) * lead + (1,) + tail)
    pts.sort()
    return pts


def rational_forms(n: int, q: int) -> list[tuple[int, ...]]:
    """Nonzero F_q-linear forms on F_q^{n+1}, one per hyperplane (normalized)."""
    return projective_points(n, field(q, 1))


def _form_vanishes(form: tuple[int, ...], pt: tuple[int, ...], F: GaloisField) -> bool:
    s = 0
    for a, x in zip(form, pt):
        if a and x:
            s = F.add(s, F.mul(a, x))
    return s == 0


def on_rational_hyperplane(pt: tuple[int, ...], forms, F: GaloisField) -> bool:
    return any(_form_vanishes(f, pt, F) for f in forms)


def _check_point_guard(n: int, q: int, m: int):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if q ** (m * (n + 1)) >= POINT_GUARD:
        raise DeskScaleExceeded(
            f"q^(m(n+1)) = {q ** (m * (n + 1))} exceeds the {POINT_GUARD} vector guard"
        )


def drinfeld_points(n: int, q: int, m: int) -> int:
    """Number of F_{q^m}-points of P^n avoiding every F_q-rational hyperplane."""
    _check_point_guard(n, q, m)
    F = field(q, m)
    forms = rational_forms(n, q)
    return sum(
        1 for pt in projective_points(n, F) if not on_rational_hyperplane(pt, forms, F)
    )


def hyperplane_union_points(n: int, q: int, m: int) -> list[tuple[int, ...]]:
    """Sorted F_{q^m}-points of the union of all F_q-rational hyperplanes in P^n."""
    _check_point_guard(n, q, m)
    F = field(q, m)
    forms = rational_forms(n, q)
    return [pt for pt in projective_points(n, F) if on_rational_hyperplane(pt, forms, F)]


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Subspace:
    """A nonzero subspace of F_q^{ambient}, stored as its unique RREF basis.

    `basis` is a tuple of row tuples with entries in 0..q-1.
    """

    q: int
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains_vector(self, vec) -> bool:
        return not any(_reduce_mod_basis(list(vec), self.basis, self.q))

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(row) for row in other.basis)


def _reduce_mod_basis(vec: list[int], basis, q: int) -> list[int]:
    """Subtract multiples of the RREF basis rows; the result has zeros at pivots."""
    for row in basis:
        piv = next(j for j, x in enumerate(row) if x)
        c = vec[piv] % q
        if c:
            for j in range(piv, len(vec)):
                vec[j] = (vec[j] - c * row[j]) % q
    return vec


def rref(rows, q: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over F_q (prime), zero rows dropped."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c] % q), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, q)
        mat[r] = [(x * inv) % q for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] % q:
                f = mat[i][c] % q
                mat[i] = [(x - f * y) % q for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in mat[:r] if any(row))


def span(rows, q: int, ambient_dim: int | None = None) -> Subspace:
    basis = rref(rows, q)
    if not basis:
        raise ValueError("span of zero vectors is not a Subspace")
    ambient = ambient_dim if ambient_dim is not None else len(rows[0])
    return Subspace(q, ambient, basis)


@lru_cache(maxsize=None)
def enumerate_subspaces(ambient_dim: int, d: int, q: int) -> tuple[Subspace, ...]:
    """All d-dimensional subspaces of F_q^{ambient_dim}, sorted by RREF basis.

    Generated directly from RREF patterns (pivot column choice plus free
    entries), so each subspace appears exactly once.
    """
    if not 1 <= d <= ambient_dim:
        raise ValueError(f"need 1 <= d <= ambient_dim, got d={d}")
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    out = []
    for pivots in combinations(range(ambient_dim), d):
        free = [
            (i, j)
            for i in range(d)
            for j in range(pivots[i] + 1, ambient_dim)
            if j not in pivots
        ]
        for values in product(range(q), repeat=len(free)):
            mat = [[0] * ambient_dim for _ in range(d)]
            for i, p in enumerate(pivots):
                mat[i][p] = 1
            for (i, j), v in zip(free, values):
                mat[i][j] = v
            out.append(Subspace(q, ambient_dim, tuple(tuple(r) for r in mat)))
    out.sort()
    return tuple(out)


def intersect_subspaces(U: Subspace, V: Subspace) -> Subspace | None:
    """Intersection of two subspaces; None if it is zero."""
    if U.q != V.q or U.ambient_dim != V.ambient_dim:
        raise ValueError("subspaces must share the field and the ambient space")
    q, N = U.q, U.ambient_dim
    a, b = U.dim, V.dim
    # kernel of the (a+b) x N stack [U; V] gives coefficients (x, y) with
    # x.U = -y.V, i.e. vectors of the intersection
    stacked = [list(r) for r in U.basis] + [list(r) for r in V.basis]
    # row-reduce the transpose-augmented system: solve z . stacked = 0
    cols = list(zip(*stacked))  # N rows of length a+b
    reduced = rref(cols, q)
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
    vectors = []
    for f in range(a + b):
        if f in pivots:
            continue
        z = [0] * (a + b)
        z[f] = 1
        for row, p in zip(reduced, pivots):
            z[p] = (-row[f]) % q
        vec = [0] * N
        for coeff, row in zip(z[:a], U.basis):
            if coeff:
                for j in range(N):
                    vec[j] = (vec[j] + coeff * row[j]) % q
        if any(vec):
            vectors.append(vec)
    if not vectors:
        return None
    return span(vectors, q, N)


def subspace_points(U: Subspace, m: int = 1) -> list[tuple[int, ...]]:
    """Sorted F_{q^m}-points of P(U), as normalized ambient coordinate tuples.

    Normalized linear combinations of an RREF basis are already normalized
    as ambient vectors, so no rescaling is needed.
    """
    F = field(U.q, m)
    d, N = U.dim, U.ambient_dim
    pts = []
    for lead in range(d):
        for tail in product(range(F.size), repeat=d - lead - 1):
            lam = (0,) * lead + (1,) + tail
            vec = [0] * N
            for coeff, row in zip(lam, U.basis):
                if coeff:
                    for j in range(N):
                        if row[j]:
                            vec[j] = F.add(vec[j], F.mul(coeff, row[j]))
            pts.append(tuple(vec))
    pts.sort()
    return pts


def in_extension_span(pt: tuple[int, ...], U: Subspace, F: GaloisField) -> bool:
    """Whether an F_{q^m}-point lies on P(U), i.e. its vector is in U ⊗ F_{q^m}."""
    vec = list(pt)
    for row in U.basis:
        piv = next(j for j, x in enumerate(row) if x)
        c = vec[piv]
        if c:
            for j in range(piv, len(vec)):
                if row[j]:
                    vec[j] = F.add(vec[j], F.neg(F.mul(c, row[j])))
    return not any(vec)


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Flag:
    """A nested chain of subspaces realizing one coset of G/P_I.

    The chain dimensions are the interior partial sums of I's composition
    (the full space itself is omitted).
    """

    type: ParabolicType
    chain: tuple[Subspace, ...]

    @property
    def q(self) -> int:
        return self.chain[0].q


def chain_dims(I: ParabolicType) -> tuple[int, ...]:
    comp = I.to_composition()
    sums = []
    s = 0
    for part in comp[:-1]:
        s += part
        sums.append(s)
    return tuple(sums)


@lru_cache(maxsize=None)
def enumerate_flags(I: ParabolicType, q: int) -> tuple[Flag, ...]:
    """All flags of type I over F_q, in canonical (chain-lex) order."""
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    n = I.n
    dims = chain_dims(I)
    if not dims:  # I is the full subset: the single coset G/G
        return (Flag(I, ()),)
    levels = [enumerate_subspaces(n + 1, d, q) for d in dims]
    flags = []

    def extend(chain, level):
        if level == len(levels):
            flags.append(Flag(I, tuple(chain)))
            return
        for U in levels[level]:
            if not chain or U.contains(chain[-1]):
                extend(chain + [U], level + 1)

    extend([], 0)
    flags.sort()
    return tuple(flags)


def forget(f: Flag, J: ParabolicType) -> Flag:
    """Project a flag of type I to the flag of type J ⊇ I under its coset map."""
    I = f.type
    if not J.contains(I):
        raise ValueError(f"cannot forget {I.subset_str()} to non-superset {J.subset_str()}")
    if J == I:
        return f
    keep = set(chain_dims(J))
    chain = tuple(U for U in f.chain if U.dim in keep)
    return Flag(J, chain)


def flag_subvariety(f: Flag) -> Subspace:
    """The subspace U with g.Y_I = P(U): the first (smallest) chain member."""
    if not f.chain:
        raise ValueError("the full-group coset has no associated proper subvariety")
    return f.chain[0]
