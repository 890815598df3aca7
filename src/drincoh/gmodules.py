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
Steinberg resolutions and, expanded to points, orlik's function complex are
built from it.  Each resolution is built, ranked and checked once per
(J, q) and run: steinberg_resolution keeps only its verified homology, and
orlik reads the E1 rows from that.
"""

from __future__ import annotations

from functools import lru_cache
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


def lattice_complex(J: ParabolicType, q: int) -> tuple[tuple, ChainComplex]:
    """The levels interval_levels(J) and the complex over them of
    ⊕ Ind_{P_I}^G K, level by level, with lattice_differential between.  The
    flag guard comes first, before any subset is listed.  A d∘d failure is
    raised again naming J and q."""
    check_flag_guard(J.n, q)
    levels = tuple(map(tuple, interval_levels(J)))
    dims = {I: parabolic_index(I, q) for level in levels for I in level}
    terms = tuple(sum(dims[I] for I in level) for level in levels)
    diffs = tuple(lattice_differential(*pair, dims, q) for pair in pairwise(levels))
    try:
        return levels, ChainComplex(terms, diffs)
    except ExactnessError as exc:
        raise ExactnessError(f"lattice complex J={J.subset_str()}, q={q}: {exc}") from exc


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


@lru_cache(maxsize=None)
def steinberg_resolution(J: ParabolicType, q: int) -> tuple[int, ...]:
    """Build, rank and verify the resolution of the generalized Steinberg
    module of J; return its homology (0, ..., 0, dim v(J)).

    The complex is lattice_complex(J, q): ⊕ Ind_{P_I}^G K over J ⊆ I ⊆ Δ,
    graded by #(Δ∖I) from 0 (the constants, I = Δ) to n-#J (I = J itself).
    It must be exact everywhere except at the final position, whose
    cokernel is the Steinberg module; any other homology, or a cokernel
    dimension other than steinberg_dim, raises ExactnessError.  Only the
    homology is kept, once per (J, q) and process; a failed build is not
    cached, so it raises again on the next call.
    """
    if not J.is_proper:
        raise ValueError("the full subset has no resolution (trivial module)")
    homology = lattice_complex(J, q)[1].homology_dims()
    if any(homology[:-1]):
        raise ExactnessError(
            f"Steinberg resolution for J={J.subset_str()}, q={q} is not exact: "
            f"homology {homology}"
        )
    expected = steinberg_dim(J, q)
    if homology[-1] != expected:
        raise ExactnessError(
            f"Steinberg cokernel dim {homology[-1]} != inclusion-exclusion value {expected} "
            f"for J={J.subset_str()}, q={q}"
        )
    return homology


# bound to the cache itself, so it still works where a wrapper replaced
# steinberg_resolution
clear_resolutions = steinberg_resolution.cache_clear
