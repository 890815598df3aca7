"""Permutation modules on flag varieties and generalized Steinberg data.

The induced module Ind_{P_I}^G K is modeled as the space of K-valued
functions on the flag set of type I, in its canonical order.  Pullback
along coset projections gives the 0/1 matrices out of which all complexes
downstream are assembled.

The generalized Steinberg representation attached to J is the quotient of
Ind_{P_J}^G K by the sum of the inductions from all strictly larger
parabolics.  Its dimension is computed twice: as the top cokernel of the
explicit resolution and by inclusion-exclusion over the interval [J, Δ] of
the subset lattice.
"""

from __future__ import annotations

from itertools import accumulate, chain

from .errors import ExactnessError
from .ffgeom import flag_keys, forget_map
from .homalg import ChainComplex, ExactMatrix
from .qarith import parabolic_index
from .rootdata import ParabolicType, cover_sign, subsets_of_size


def pullback_matrix(I: ParabolicType, J: ParabolicType, q: int) -> ExactMatrix:
    """Matrix of precomposition with G/P_I -> G/P_J on function spaces.

    Maps functions on type-J flags to functions on type-I flags: one 1 per
    row, at the column of the row flag's image under forgetting.  Requires
    I ⊆ J; forget_map raises ValueError otherwise.
    """
    image = forget_map(I, J, q)
    rows = len(image)
    return ExactMatrix.from_csr(
        rows, len(flag_keys(J, q)), list(range(rows + 1)), list(image), [1] * rows
    )


def _interval_levels(J: ParabolicType) -> list[list[ParabolicType]]:
    """Subsets I with J ⊆ I ⊆ Δ, grouped by codimension #(Δ∖I) = 0..n-#J."""
    n = J.n
    return [
        subsets_of_size(n, n - c, containing=J, proper=False)
        for c in range(n - J.size + 1)
    ]


def lattice_differential(
    sources: list[ParabolicType],
    targets: list[ParabolicType],
    dims: dict[ParabolicType, int],
    q: int,
) -> ExactMatrix:
    """Signed block matrix of pullbacks for one layer of the subset lattice.

    Block (I, J) is cover_sign(I, a) * pullback(I, J) when J = I ∪ {a},
    zero otherwise.  Rows are written in order, each with one entry per
    cover J of its block's I; sources follow col_off, so columns come out
    sorted.
    """
    col_off = list(accumulate((dims[J] for J in sources), initial=0))
    indptr, indices, data = [0], [], []
    for bi, I in enumerate(targets):
        shifted, signs = [], []
        for bj, J in enumerate(sources):
            diff = J.mask & ~I.mask
            if J.contains(I) and diff.bit_count() == 1:
                image = forget_map(I, J, q)
                if len(image) != dims[I] or len(flag_keys(J, q)) != dims[J]:
                    raise ValueError(f"block ({bi},{bj}) has wrong shape")
                shifted.append(map(col_off[bj].__add__, image))
                signs.append(cover_sign(I, diff.bit_length() - 1))
        if signs:
            w = len(signs)
            indices.extend(chain.from_iterable(zip(*shifted)))
            data.extend(signs * dims[I])
            indptr.extend(range(indptr[-1] + w, len(data) + 1, w))
        else:
            indptr.extend([indptr[-1]] * dims[I])
    return ExactMatrix.from_csr(len(indptr) - 1, col_off[-1], indptr, indices, data)


class SteinbergData:
    """The resolution complex of one generalized Steinberg representation."""

    __slots__ = ("J", "q", "resolution", "levels", "dim_v")

    def __init__(self, J: ParabolicType, q: int, resolution: ChainComplex,
                 levels: tuple[tuple[ParabolicType, ...], ...], dim_v: int):
        self.J = J
        self.q = q
        self.resolution = resolution
        self.levels = levels
        self.dim_v = dim_v


def steinberg_dim(J: ParabolicType, q: int) -> int:
    """Inclusion-exclusion dimension of the generalized Steinberg module of J.

    Sum of (-1)^{#I - #J} [G : P_I] over J ⊆ I ⊆ Δ.  For J = Δ this is the
    trivial module, dimension 1.
    """
    total = 0
    for levels in _interval_levels(J):
        for I in levels:
            sign = -1 if (I.size - J.size) % 2 else 1
            total += sign * parabolic_index(I, q)
    if total <= 0:
        raise ExactnessError("inclusion-exclusion must give a positive dimension")
    return total


def steinberg_resolution(J: ParabolicType, q: int) -> SteinbergData:
    """Build and verify the resolution of the generalized Steinberg module of J.

    The complex runs through ⊕ Ind_{P_I}^G K over J ⊆ I ⊆ Δ, graded by
    #(Δ∖I) from 0 (the constants, I = Δ) to n-#J (I = J itself); it must be
    exact everywhere except at the final position, whose cokernel is the
    Steinberg module.  Any other homology raises ExactnessError.
    """
    if not J.is_proper:
        raise ValueError("the full subset has no resolution (trivial module)")
    levels = _interval_levels(J)
    dims = {I: parabolic_index(I, q) for level in levels for I in level}
    terms = tuple(sum(dims[I] for I in level) for level in levels)
    diffs = tuple(
        lattice_differential(levels[c], levels[c + 1], dims, q)
        for c in range(len(levels) - 1)
    )
    complex_ = ChainComplex(terms, diffs)
    top = len(terms) - 1
    ok, report = complex_.is_exact_except({top})
    if not ok:
        raise ExactnessError(
            f"Steinberg resolution for J={J.subset_str()}, q={q} is not exact: "
            f"homology {complex_.homology_dims()}"
        )
    dim_v = report[top]
    expected = steinberg_dim(J, q)
    if dim_v != expected:
        raise ExactnessError(
            f"Steinberg cokernel dim {dim_v} != inclusion-exclusion value {expected} "
            f"for J={J.subset_str()}, q={q}"
        )
    return SteinbergData(J, q, complex_, tuple(tuple(l) for l in levels), dim_v)
