"""Test-only helpers and reference implementations.

Nothing in `drincoh` calls these; the tests use them as independent oracles
for the library's builders and as conveniences for writing small cases.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product

from drincoh.errors import ExactnessError
from drincoh.ffgeom import (
    Flag,
    _digits,
    _vanishing_masks,
    chain_dims,
    enumerate_subspaces,
    flag_keys,
    projective_points,
    rational_forms,
    subspace_points,
)
from drincoh.gmodules import interval_levels
from drincoh.homalg import ChainComplex, ExactMatrix
from drincoh.qarith import is_prime, parabolic_index
from drincoh.rootdata import ParabolicType, standard_subset, subsets_of_size
from drincoh.tables import CohomologyTable, TwistedModule, summand


# -- the reference field ---------------------------------------------------------
#
# F_{q^m} = F_q[t]/(f) for the monic irreducible f of degree m with the least
# coefficient encoding, with exp/log multiplication tables.  Elements are
# ints whose base-q digits are the polynomial coefficients, constant term
# first, the encoding drincoh.ffgeom uses.


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



def projective_points_over(n: int, F: GaloisField) -> list[tuple[int, ...]]:
    """All points of P^n(F), as normalized coordinate tuples, sorted."""
    pts = []
    for lead in range(n + 1):
        for tail in product(range(F.size), repeat=n - lead):
            pts.append((0,) * lead + (1,) + tail)
    pts.sort()
    return pts


def _form_vanishes(form: tuple[int, ...], pt: tuple[int, ...], F: GaloisField) -> bool:
    s = 0
    for a, x in zip(form, pt):
        if a and x:
            s = F.add(s, F.mul(a, x))
    return s == 0


def vanishing_masks_by_evaluation(forms, q: int) -> dict[tuple[int, ...], int]:
    """Vector of F_q^{n+1} -> bitmask of the forms (bit b for forms[b]) that
    vanish on it, every form evaluated on every vector, in lex order."""
    return {
        vec: sum(
            1 << b for b, form in enumerate(forms) if sum(a * x for a, x in zip(form, vec)) % q == 0
        )
        for vec in product(range(q), repeat=len(forms[0]))
    }


def split_by_rational_hyperplanes(n: int, q: int, m: int):
    """(points of P^n(F_{q^m}) on some F_q-rational hyperplane, the others),
    each sorted, every form tested at every point in the field."""
    F = field(q, m)
    forms = projective_points_over(n, field(q, 1))
    on, off = [], []
    for pt in projective_points_over(n, F):
        (on if any(_form_vanishes(f, pt, F) for f in forms) else off).append(pt)
    return on, off


def split_by_digit_planes(n: int, q: int, m: int):
    """(points of projective_points(n, q, m) on some F_q-rational hyperplane,
    the others), in order, one point at a time: the masks of the forms
    vanishing on each digit plane are ANDed, and a point is on a hyperplane
    iff some form is left."""
    masks, digits = _vanishing_masks(tuple(rational_forms(n, q)), q), _digits(q, m)
    on, off = [], []
    for pt in projective_points(n, q, m):
        common = -1
        for plane in zip(*[digits[x] for x in pt]):
            common &= masks[plane]
        (on if common else off).append(pt)
    return on, off


def normalized_by_product(length: int, size: int) -> list[tuple[int, ...]]:
    """Nonzero vectors over 0..size-1 whose first nonzero entry is 1, in lex
    order, filtered from every vector."""
    vectors = product(range(size), repeat=length)
    return [v for v in vectors if any(v) and next(filter(None, v)) == 1]


def subspace_points_over(U, q: int, m: int = 1) -> list[tuple[int, ...]]:
    """Sorted F_{q^m}-points of P(U), as normalized ambient coordinate tuples.

    Normalized linear combinations of an RREF basis are already normalized
    as ambient vectors, so no rescaling is needed.
    """
    F = field(q, m)
    d, N = len(U), len(U[0])
    pts = []
    for lead in range(d):
        for tail in product(range(F.size), repeat=d - lead - 1):
            lam = (0,) * lead + (1,) + tail
            vec = [0] * N
            for coeff, row in zip(lam, U):
                if coeff:
                    for j in range(N):
                        if row[j]:
                            vec[j] = F.add(vec[j], F.mul(coeff, row[j]))
            pts.append(tuple(vec))
    pts.sort()
    return pts


# -- subsets --------------------------------------------------------------------


def from_composition(comp) -> ParabolicType:
    """Inverse of ParabolicType.to_composition."""
    comp = tuple(comp)
    if not comp or any(p <= 0 for p in comp):
        raise ValueError(f"composition parts must be positive, got {comp}")
    n = sum(comp) - 1
    mask = 0
    pos = 0
    for part in comp:
        for j in range(pos, pos + part - 1):
            mask |= 1 << j
        pos += part
    return ParabolicType(n, mask)


# -- subspaces and flags --------------------------------------------------------
#
# A subspace is its RREF basis, a tuple of row tuples, as in drincoh.ffgeom;
# the field size q is passed alongside.


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


def contains_vector(U, vec, q: int) -> bool:
    """Whether vec lies in U: it reduces to zero modulo U's RREF basis."""
    vec = list(vec)
    for row in U:
        piv = next(j for j, x in enumerate(row) if x)
        c = vec[piv] % q
        if c:
            for j in range(piv, len(vec)):
                vec[j] = (vec[j] - c * row[j]) % q
    return not any(vec)


def contains(U, V, q: int) -> bool:
    return all(contains_vector(U, row, q) for row in V)


def flags_by_containment(I: ParabolicType, q: int) -> tuple[Flag, ...]:
    """Type-I flags by pairwise containment tests, sorted: the bottom-up
    enumeration that flag_keys replaced."""
    dims = chain_dims(I)
    if not dims:
        return (Flag(I, ()),)
    levels = [enumerate_subspaces(I.n + 1, d, q) for d in dims]
    flags = []

    def extend(chain, level):
        if level == len(levels):
            flags.append(Flag(I, tuple(chain)))
            return
        for U in levels[level]:
            if not chain or contains(U, chain[-1], q):
                extend(chain + [U], level + 1)

    extend([], 0)
    flags.sort()
    return tuple(flags)


def span(rows, q: int):
    """The subspace spanned by the rows: their RREF basis."""
    basis = rref(rows, q)
    if not basis:
        raise ValueError("span of zero vectors is not a subspace")
    return basis


def intersect_subspaces(U, V, q: int):
    """Intersection of two subspaces; None if it is zero."""
    if len(U[0]) != len(V[0]):
        raise ValueError("subspaces must share the ambient space")
    N = len(U[0])
    a, b = len(U), len(V)
    # kernel of the (a+b) x N stack [U; V] gives coefficients (x, y) with
    # x.U = -y.V, i.e. vectors of the intersection
    stacked = [list(r) for r in U] + [list(r) for r in V]
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
        for coeff, row in zip(z[:a], U):
            if coeff:
                for j in range(N):
                    vec[j] = (vec[j] + coeff * row[j]) % q
        if any(vec):
            vectors.append(vec)
    if not vectors:
        return None
    return span(vectors, q)


def in_extension_span(pt: tuple[int, ...], U, F: GaloisField) -> bool:
    """Whether an F_{q^m}-point lies on P(U), i.e. its vector is in U ⊗ F_{q^m}."""
    vec = list(pt)
    for row in U:
        piv = next(j for j, x in enumerate(row) if x)
        c = vec[piv]
        if c:
            for j in range(piv, len(vec)):
                if row[j]:
                    vec[j] = F.add(vec[j], F.neg(F.mul(c, row[j])))
    return not any(vec)


# -- matrices and complexes -------------------------------------------------------


def from_dict(rows: int, cols: int, entries=None) -> ExactMatrix:
    """The matrix whose entries are a dict mapping (i, j) to an int, zeros
    dropped: each row its own row block and each column its own column
    block, so that such matrices share each term's layout in a complex,
    and each entry its own cover.  ValueError for an entry outside
    rows x cols; the constructor raises TypeError on a value that is not
    an int (bool included)."""
    entries = entries or {}
    covers: list[list] = [[] for _ in range(rows)]
    # int zeros are dropped; any other value is kept for the type check
    for (i, j), v in sorted(entries.items()):
        if not 0 <= i < rows or not 0 <= j < cols:
            raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
        if v or type(v) is not int:
            covers[i].append((j, v, [j]))
    return ExactMatrix([(str(i), 1) for i in range(rows)],
                       [(str(j), 1) for j in range(cols)], covers)


def rows_of(M: ExactMatrix) -> list[dict[int, int]]:
    """Row by row, M's entries as {col: value}, read from M.entries."""
    out: list[dict[int, int]] = [{} for _ in range(M.rows)]
    for (i, j), v in M.entries.items():
        out[i][j] = v
    return out


def identity(n: int) -> ExactMatrix:
    """The n x n identity as one cover of value 1."""
    return ExactMatrix([("", n)], [("", n)], [[(0, 1, list(range(n)))]])


def zero(rows: int, cols: int) -> ExactMatrix:
    return from_dict(rows, cols)


def transpose(M: ExactMatrix) -> ExactMatrix:
    return from_dict(M.cols, M.rows, {(j, i): v for (i, j), v in M.entries.items()})


def product_rows(A: ExactMatrix, B: ExactMatrix):
    """Row by row, the entries of A·B as {col: value}, 0 where terms cancel;
    rows come in order, one per row of A.  The generic product over rows_of,
    one dict per row, with no use of any block layout."""
    b_rows = rows_of(B)
    for a_row in rows_of(A):
        acc: dict[int, int] = {}
        for c, x in a_row.items():
            for j, y in b_rows[c].items():
                acc[j] = acc.get(j, 0) + x * y
        yield acc


def matmul(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """The product A·B from product_rows, with cancelled entries dropped;
    ValueError on a shape mismatch."""
    if A.cols != B.rows:
        raise ValueError(f"shape mismatch {A.rows}x{A.cols} @ {B.rows}x{B.cols}")
    return from_dict(A.rows, B.cols, {
        (i, j): v for i, acc in enumerate(product_rows(A, B)) for j, v in acc.items()
    })


def reference_product(A: ExactMatrix, B: ExactMatrix) -> dict[tuple[int, int], int]:
    """The nonzero entries of A·B as {(i, j): value}, summed over a
    dict of (i, j) tuples independently of any row layout."""
    b_rows: dict[int, list[tuple[int, int]]] = {}
    for (k, j), w in B.entries.items():
        b_rows.setdefault(k, []).append((j, w))
    out: dict[tuple[int, int], int] = {}
    for (i, k), v in A.entries.items():
        for j, w in b_rows.get(k, ()):
            out[(i, j)] = out.get((i, j), 0) + v * w
    return {key: v for key, v in out.items() if v}


def reference_dd_failure(diffs) -> tuple[int, int, int, int] | None:
    """(t, row, col, value) of the first nonzero entry of the first nonzero
    product d_{t+1}·d_t, from reference_product; None when d∘d = 0."""
    for t in range(len(diffs) - 1):
        product = reference_product(diffs[t + 1], diffs[t])
        if product:
            first = min(product)
            return (t, *first, product[first])
    return None


def form_matrix(form, rows, cols) -> ExactMatrix:
    """The matrix of a cover form with the (label, size) blocks `rows` and
    `cols`, whether the form is well made or not: cover (b, v, image) of a
    row block puts v at (row r of the block, image[r]) for each r of its
    image, summed where entries meet, through from_dict."""
    entries: dict[tuple[int, int], int] = {}
    r0 = 0
    for (_, size), block in zip(rows, form):
        for _, v, image in block:
            for r, c in enumerate(image, r0):
                entries[r, c] = entries.get((r, c), 0) + v
        r0 += size
    return from_dict(r0, sum(size for _, size in cols), entries)


def reported_dd_failure(diffs) -> tuple[int, int, int, int] | None:
    """(t, row, col, value) that the ChainComplex constructor reports for a
    d∘d failure of the differentials `diffs`, None when it passes; a shape
    or layout error propagates."""
    terms = (diffs[0].cols, *(d.rows for d in diffs))
    try:
        ChainComplex(terms, tuple(diffs))
    except ExactnessError as exc:
        match = re.fullmatch(
            r"d∘d != 0 between positions (\d+) and (\d+), blocks \(K, L\) = \(.*\): "
            r"entry \((\d+),(\d+)\) of d_(\d+)∘d_(\d+) is (-?\d+)",
            str(exc),
        )
        if not match:
            raise
        t, t2, row, col, hi, lo, value = map(int, match.groups())
        assert (t2, hi, lo) == (t + 2, t + 1, t), str(exc)
        return t, row, col, value
    return None


def from_dense(data) -> ExactMatrix:
    rows = len(data)
    cols = len(data[0]) if rows else 0
    entries = {
        (i, j): v for i, row in enumerate(data) for j, v in enumerate(row) if v
    }
    return from_dict(rows, cols, entries)


def reindexed(M: ExactMatrix, row_perm, col_perm) -> ExactMatrix:
    """Apply basis permutations: entry (i, j) moves to (row_perm[i], col_perm[j])."""
    return from_dict(
        M.rows,
        M.cols,
        {(row_perm[i], col_perm[j]): v for (i, j), v in M.entries.items()},
    )


def parse_dump(text: str) -> ExactMatrix:
    """Inverse of ExactMatrix.dump."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rows, cols, nnz = (int(x) for x in lines[0].split())
    entries = {}
    for ln in lines[1 : nnz + 1]:
        si, sj, sv = ln.split()
        num, den = sv.split("/")
        if int(den) != 1:
            raise ValueError(f"non-integral entry {sv!r} in dump")
        entries[(int(si), int(sj))] = int(num)
    return from_dict(rows, cols, entries)


def function_complex_summands(n: int, q: int, m: int):
    """The summands of the function complex on Y(F_{q^m}) after Y, level by
    level: the subsets I ⊊ Δ by size from n-1 down to 0, each in
    subsets_of_size order, and for each type-I flag in flag_keys order one
    (I, U, points of P(U)), U the flag's first member.  Read from the flags
    and the subspace points themselves, not from the builder's closed-form
    layout."""
    levels = []
    for size in range(n - 1, -1, -1):
        level = []
        for I in subsets_of_size(n, size, proper=True):
            firsts = enumerate_subspaces(n + 1, chain_dims(I)[0], q)
            for key in flag_keys(I, q):
                U = firsts[key[0]]
                level.append((I, U, subspace_points(U, q, m)))
        levels.append(level)
    return levels


def euler_characteristic(cx: ChainComplex) -> int:
    return sum((-1) ** i * t for i, t in enumerate(cx.terms))


# -- tables and pages ---------------------------------------------------------------


def hc_of_affine_space(n: int, q: int) -> CohomologyTable:
    entries = {2 * n: TwistedModule.of(summand("K", None, 1, -n))}
    return CohomologyTable(n, q, "Hc(A^n)", entries)


def h_of_affine_space(n: int, q: int) -> CohomologyTable:
    entries = {0: TwistedModule.of(summand("K", None, 1, 0))}
    return CohomologyTable(n, q, "H(A^n)", entries)


def build_e1_page(n: int, q: int) -> dict[tuple[int, int], TwistedModule]:
    """Term contents of the first page: (r, s) -> ⊕ Ind(I)(-s/2), over the
    subsets I ⊇ I_{s/2} of codimension r + 1 (the constant term dropped)."""
    page = {}
    for s in range(0, 2 * n - 1, 2):
        j = s // 2
        for r, pos in enumerate(interval_levels(standard_subset(n, j))[1:]):
            page[(r, s)] = TwistedModule.of(
                *(summand("Ind", I, parabolic_index(I, q), -j) for I in pos)
            )
    return page
