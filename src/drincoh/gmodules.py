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

This module owns the one builder of a subset-lattice layer,
lattice_differential: an ExactMatrix in cover form, its block sizes the
closed form parabolic_index, per row block its covers (b, sign, image),
each a map of its rows into column block b with one sign.  The Steinberg
resolutions are chain complexes of these layers, and orlik's function
complex expands their validated covers to points.  The ChainComplex
constructor reads the terms off the blocks and checks d∘d = 0 on the
covers the ExactMatrix constructor validated, so rank and the check read
the same lists.  Each resolution is built, ranked and checked once per
(J, q) and run: steinberg_resolution keeps only its verified homology,
and orlik reads the E1 rows from that.  The closed forms parabolic_index
and steinberg_dim live in qarith, cached per (I, q).
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


def lattice_differential(
    sources: list[ParabolicType], targets: list[ParabolicType], q: int
) -> ExactMatrix:
    """Signed block matrix of pullbacks for one layer of the subset lattice,
    its blocks of parabolic_index(·, q) flags: row block I has one cover
    (b, cover_sign(I, a), image) per source J = I ∪ {a}, b its index, in
    source order, so each row's columns rise; image is forget_map(I, J, q),
    one column per type-I flag, shifted by J's offset.  The ExactMatrix
    constructor rejects an enumeration that disagrees with the closed form."""
    cols = [(J.subset_str(), parabolic_index(J, q)) for J in sources]
    col_off = list(accumulate((size for _, size in cols), initial=0))
    covers = []
    for I in targets:
        block = []
        for b, (J, off) in enumerate(zip(sources, col_off)):
            diff = J.mask & ~I.mask
            if J.contains(I) and diff.bit_count() == 1:
                image = list(map(off.__add__, forget_map(I, J, q)))
                block.append((b, cover_sign(I, diff.bit_length() - 1), image))
        covers.append(block)
    return ExactMatrix([(I.subset_str(), parabolic_index(I, q)) for I in targets], cols, covers)


def lattice_complex(J: ParabolicType, q: int) -> tuple[tuple, ChainComplex]:
    """The levels interval_levels(J) and the complex over them of
    ⊕ Ind_{P_I}^G K, level by level, with lattice_differential between.  The
    flag guard comes first, before any subset is listed.  The ChainComplex
    reads its terms off the blocks and checks d∘d = 0, one block per
    subset; a failure of a layer or of the complex is raised again naming
    J and q."""
    check_flag_guard(J.n, q)
    levels = tuple(map(tuple, interval_levels(J)))
    try:
        cx = ChainComplex(tuple(lattice_differential(*pair, q) for pair in pairwise(levels)))
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
