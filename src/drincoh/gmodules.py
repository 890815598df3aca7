"""Permutation modules on flag varieties and generalized Steinberg data.

The induced module Ind_{P_I}^G K is modeled as the space of K-valued
functions on the flag set of type I, in its canonical order.  Pullback
along coset projections gives the 0/1 matrices out of which all complexes
downstream are assembled.

The generalized Steinberg representation attached to J is the quotient of
Ind_{P_J}^G K by the sum of the inductions from all strictly larger
parabolics.  Its dimension is computed twice: as the top cokernel of the
explicit resolution and by inclusion-exclusion over the interval [J, Δ] of
the subset lattice (qarith.steinberg_dim).

This module owns the one walk over the subset lattice (lattice_rows): the
Steinberg resolutions and, expanded to points, orlik's function complex are
built from it, both as ExactMatrix differentials in cover form: per row
block, its covers (b, sign, image), each a map of its rows into column
block b with one sign.  The ChainComplex constructor checks d∘d = 0 on
the covers the ExactMatrix constructor validated, so rank and the check
read the same lists.  Each resolution is built, ranked and checked once
per (J, q) and run: steinberg_resolution keeps only its verified
homology, and orlik reads the E1 rows from that.  The closed forms parabolic_index and
steinberg_dim live in qarith, cached per (I, q).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, pairwise

from .errors import ExactnessError
from .ffgeom import check_flag_guard, flag_keys, forget_map
from .homalg import ChainComplex, ExactMatrix
from .qarith import parabolic_index, steinberg_dim
from .rootdata import ParabolicType, cover_sign, subsets_of_size


def pullback_matrix(I: ParabolicType, J: ParabolicType, q: int) -> ExactMatrix:
    """Matrix of precomposition with G/P_I -> G/P_J on function spaces.

    Maps functions on type-J flags to functions on type-I flags: one cover
    of value 1, its column map the row flags' images under forgetting.
    Requires I ⊆ J; forget_map raises ValueError otherwise.
    """
    image = list(forget_map(I, J, q))
    return ExactMatrix([(I.subset_str(), len(image))],
                       [(J.subset_str(), len(flag_keys(J, q)))], [[(0, 1, image)]])


def interval_levels(J: ParabolicType) -> list[list[ParabolicType]]:
    """Subsets I with J ⊆ I ⊆ Δ, grouped by codimension #(Δ∖I) = 0..n-#J."""
    n = J.n
    return [
        subsets_of_size(n, n - c, containing=J, proper=False)
        for c in range(n - J.size + 1)
    ]


def lattice_rows(sources: list[ParabolicType], targets: list[ParabolicType],
                 dims: dict[ParabolicType, int], q: int):
    """For each target I: its covers J = I ∪ {a} among the sources, their
    signs cover_sign(I, a) and their column maps, each forget_map(I, J, q)
    (one column per type-I flag) shifted by J's offset, as an iterator.
    Covers go in source order, so the columns of each row come out sorted
    and line up with the signs.
    """
    col_off = list(accumulate((dims[J] for J in sources), initial=0))
    for I in targets:
        covers, signs, images = [], [], []
        for J, off in zip(sources, col_off):
            diff = J.mask & ~I.mask
            if J.contains(I) and diff.bit_count() == 1:
                image = forget_map(I, J, q)
                if len(image) != dims[I] or len(flag_keys(J, q)) != dims[J]:
                    raise ValueError(f"block ({I.subset_str()}, {J.subset_str()}) has wrong shape")
                covers.append(J)
                signs.append(cover_sign(I, diff.bit_length() - 1))
                images.append(map(off.__add__, image))
        yield covers, signs, images


def lattice_differential(
    sources: list[ParabolicType],
    targets: list[ParabolicType],
    dims: dict[ParabolicType, int],
    q: int,
) -> ExactMatrix:
    """Signed block matrix of pullbacks for one layer of the subset lattice.

    Block (I, J) is cover_sign(I, a) * pullback(I, J) when J = I ∪ {a},
    zero otherwise: row block I has one cover per such J, its column map
    lattice_rows' as a list.
    """
    covers = [
        [(sources.index(J), sign, list(image)) for J, sign, image in zip(*row)]
        for row in lattice_rows(sources, targets, dims, q)
    ]
    return ExactMatrix([(I.subset_str(), dims[I]) for I in targets],
                       [(J.subset_str(), dims[J]) for J in sources], covers)


def lattice_complex(J: ParabolicType, q: int) -> tuple[tuple, ChainComplex]:
    """The levels interval_levels(J) and the complex over them of
    ⊕ Ind_{P_I}^G K, level by level, with lattice_differential between.  The
    flag guard comes first, before any subset is listed.  The ChainComplex
    constructor checks d∘d = 0, one block per subset; a failure is raised
    again naming J and q."""
    check_flag_guard(J.n, q)
    levels = tuple(map(tuple, interval_levels(J)))
    dims = {I: parabolic_index(I, q) for level in levels for I in level}
    terms = tuple(sum(dims[I] for I in level) for level in levels)
    diffs = tuple(lattice_differential(*pair, dims, q) for pair in pairwise(levels))
    try:
        cx = ChainComplex(terms, diffs)
    except ExactnessError as exc:
        raise ExactnessError(f"lattice complex J={J.subset_str()}, q={q}: {exc}") from exc
    return levels, cx


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
