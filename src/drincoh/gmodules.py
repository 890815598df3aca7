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

from itertools import accumulate

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
    entries = {(row, col): 1 for row, col in enumerate(image)}
    return ExactMatrix(len(image), len(flag_keys(J, q)), entries)


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
    zero otherwise.  Each entry is written once, from forget_map.
    """
    row_off = list(accumulate((dims[I] for I in targets), initial=0))
    col_off = list(accumulate((dims[J] for J in sources), initial=0))
    entries = {}
    for bj, J in enumerate(sources):
        for bi, I in enumerate(targets):
            diff = J.mask & ~I.mask
            if J.contains(I) and diff.bit_count() == 1:
                image = forget_map(I, J, q)
                if len(image) != dims[I] or len(flag_keys(J, q)) != dims[J]:
                    raise ValueError(f"block ({bi},{bj}) has wrong shape")
                sign = cover_sign(I, diff.bit_length() - 1)
                r0, c0 = row_off[bi], col_off[bj]
                for row, col in enumerate(image):
                    entries[(r0 + row, c0 + col)] = sign
    return ExactMatrix(row_off[-1], col_off[-1], entries)


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
