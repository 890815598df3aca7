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

from dataclasses import dataclass

from .errors import ExactnessError
from .ffgeom import enumerate_flags, forget
from .homalg import ChainComplex, ExactMatrix
from .qarith import parabolic_index
from .rootdata import ParabolicType, cover_sign, subsets_of_size


def pullback_matrix(I: ParabolicType, J: ParabolicType, q: int) -> ExactMatrix:
    """Matrix of precomposition with G/P_I -> G/P_J on function spaces.

    Maps functions on type-J flags to functions on type-I flags: one 1 per
    row, at the column of the row flag's image under forgetting.  Requires
    I ⊆ J.
    """
    if not J.contains(I):
        raise ValueError(
            f"pullback needs I ⊆ J, got I={I.subset_str()}, J={J.subset_str()}"
        )
    source = enumerate_flags(J, q)
    target = enumerate_flags(I, q)
    col_of = {f: idx for idx, f in enumerate(source)}
    entries = {(row, col_of[forget(f, J)]): 1 for row, f in enumerate(target)}
    return ExactMatrix(len(target), len(source), entries)


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
    zero otherwise.
    """
    blocks = {}
    for bj, J in enumerate(sources):
        for bi, I in enumerate(targets):
            diff = J.mask & ~I.mask
            if J.contains(I) and diff.bit_count() == 1:
                a = diff.bit_length() - 1
                block = pullback_matrix(I, J, q).scaled(cover_sign(I, a))
                blocks[(bi, bj)] = block
    return ExactMatrix.from_blocks(
        [dims[I] for I in targets], [dims[J] for J in sources], blocks
    )


@dataclass(frozen=True)
class SteinbergData:
    """The resolution complex of one generalized Steinberg representation."""

    J: ParabolicType
    q: int
    resolution: ChainComplex
    levels: tuple[tuple[ParabolicType, ...], ...]
    dim_v: int


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
