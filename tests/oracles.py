"""Test-only helpers and reference implementations.

Nothing in `drincoh` calls these; the tests use them as independent oracles
for the library's builders and as conveniences for writing small cases.
"""

from __future__ import annotations

from drincoh.ffgeom import (
    Flag,
    GaloisField,
    Subspace,
    chain_dims,
    enumerate_subspaces,
    rref,
    span,
)
from drincoh.homalg import ChainComplex, ExactMatrix
from drincoh.orlik import _guard_page, build_e1_row
from drincoh.qarith import parabolic_index
from drincoh.rootdata import ParabolicType
from drincoh.tables import CohomologyTable, TwistedModule, summand


# -- subspaces and flags --------------------------------------------------------


def contains_vector(U: Subspace, vec) -> bool:
    """Whether vec lies in U: it reduces to zero modulo U's RREF basis."""
    vec = list(vec)
    for row in U.basis:
        piv = next(j for j, x in enumerate(row) if x)
        c = vec[piv] % U.q
        if c:
            for j in range(piv, len(vec)):
                vec[j] = (vec[j] - c * row[j]) % U.q
    return not any(vec)


def contains(U: Subspace, V: Subspace) -> bool:
    return all(contains_vector(U, row) for row in V.basis)


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
            if not chain or contains(U, chain[-1]):
                extend(chain + [U], level + 1)

    extend([], 0)
    flags.sort()
    return tuple(flags)


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


# -- matrices and complexes -------------------------------------------------------


def from_dense(data) -> ExactMatrix:
    rows = len(data)
    cols = len(data[0]) if rows else 0
    entries = {
        (i, j): v for i, row in enumerate(data) for j, v in enumerate(row) if v
    }
    return ExactMatrix(rows, cols, entries)


def reindexed(M: ExactMatrix, row_perm, col_perm) -> ExactMatrix:
    """Apply basis permutations: entry (i, j) moves to (row_perm[i], col_perm[j])."""
    return ExactMatrix(
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
    return ExactMatrix(rows, cols, entries)


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
    """Term contents of the first page: (r, s) -> ⊕ Ind(I)(-s/2)."""
    _guard_page(n, q)
    page = {}
    for s in range(0, 2 * n - 1, 2):
        row = build_e1_row(s, n, q)
        for r, pos in enumerate(row.subsets):
            page[(r, s)] = TwistedModule.of(
                *(summand("Ind", I, parabolic_index(I, q), row.twist) for I in pos)
            )
    return page
