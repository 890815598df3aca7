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

This module owns the one walk over the subset lattice (lattice_rows): the
Steinberg resolutions, orlik's E1 rows and, expanded to points, orlik's
function complex are all built from it.
"""

from __future__ import annotations

from itertools import accumulate, chain, pairwise

from .errors import ExactnessError
from .ffgeom import check_flag_guard, flag_keys, forget_map
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


def interval_levels(J: ParabolicType) -> list[list[ParabolicType]]:
    """Subsets I with J ⊆ I ⊆ Δ, grouped by codimension #(Δ∖I) = 0..n-#J."""
    n = J.n
    return [
        subsets_of_size(n, n - c, containing=J, proper=False)
        for c in range(n - J.size + 1)
    ]


def lattice_rows(sources: list[ParabolicType], targets: list[ParabolicType],
                 dims: dict[ParabolicType, int], q: int):
    """For each target I, the signs cover_sign(I, a) of its covers J = I ∪ {a}
    among the sources, and an iterator over the type-I flags giving each
    flag's source columns: its images under forget_map(I, J, q), shifted by
    J's offset.  Covers go in source order, so the columns of a flag are
    sorted and line up with the signs.
    """
    col_off = list(accumulate((dims[J] for J in sources), initial=0))
    for I in targets:
        shifted, signs = [], []
        for J, off in zip(sources, col_off):
            diff = J.mask & ~I.mask
            if J.contains(I) and diff.bit_count() == 1:
                image = forget_map(I, J, q)
                if len(image) != dims[I] or len(flag_keys(J, q)) != dims[J]:
                    raise ValueError(f"block ({I.subset_str()}, {J.subset_str()}) has wrong shape")
                shifted.append(map(off.__add__, image))
                signs.append(cover_sign(I, diff.bit_length() - 1))
        yield signs, zip(*shifted)


def lattice_differential(
    sources: list[ParabolicType],
    targets: list[ParabolicType],
    dims: dict[ParabolicType, int],
    q: int,
) -> ExactMatrix:
    """Signed block matrix of pullbacks for one layer of the subset lattice.

    Block (I, J) is cover_sign(I, a) * pullback(I, J) when J = I ∪ {a},
    zero otherwise.  Rows are written in order from lattice_rows, each with
    one entry per cover of its block's I.
    """
    indptr, indices, data = [0], [], []
    for I, (signs, rows) in zip(targets, lattice_rows(sources, targets, dims, q)):
        w = len(signs)
        indices.extend(chain.from_iterable(rows))
        data.extend(signs * dims[I])
        indptr.extend(range(indptr[-1] + w, len(data) + 1, w) if w else [indptr[-1]] * dims[I])
    cols = sum(dims[J] for J in sources)
    return ExactMatrix.from_csr(len(indptr) - 1, cols, indptr, indices, data)


def lattice_complex(J: ParabolicType, q: int, start: int = 0) -> tuple[tuple, ChainComplex]:
    """The levels interval_levels(J)[start:] and the complex over them of
    ⊕ Ind_{P_I}^G K, level by level, with lattice_differential between.  The
    flag guard comes first, before any subset is listed.  A d∘d failure is
    raised again naming J, q and start."""
    check_flag_guard(J.n, q)
    levels = tuple(map(tuple, interval_levels(J)[start:]))
    dims = {I: parabolic_index(I, q) for level in levels for I in level}
    terms = tuple(sum(dims[I] for I in level) for level in levels)
    diffs = tuple(lattice_differential(*pair, dims, q) for pair in pairwise(levels))
    try:
        return levels, ChainComplex(terms, diffs)
    except ExactnessError as exc:
        where = f"lattice complex J={J.subset_str()}, q={q}, start={start}"
        raise ExactnessError(f"{where}: {exc}") from exc


class SteinbergData:
    """The resolution complex of one generalized Steinberg representation."""

    __slots__ = ("resolution", "levels", "dim_v")

    def __init__(self, resolution: ChainComplex,
                 levels: tuple[tuple[ParabolicType, ...], ...], dim_v: int):
        self.resolution = resolution
        self.levels = levels
        self.dim_v = dim_v


def steinberg_dim(J: ParabolicType, q: int) -> int:
    """Inclusion-exclusion dimension of the generalized Steinberg module of J.

    Sum of (-1)^{#I - #J} [G : P_I] over J ⊆ I ⊆ Δ.  For J = Δ this is the
    trivial module, dimension 1.
    """
    total = 0
    for levels in interval_levels(J):
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
    levels, complex_ = lattice_complex(J, q)
    top = len(levels) - 1
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
    return SteinbergData(complex_, levels, dim_v)
