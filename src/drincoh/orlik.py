"""Builders for the two incarnations of the acyclic subset-lattice complex.

(a) The function complex: K-valued functions on the F_{q^m}-points of the
    union Y of all rational hyperplanes in P^n, resolved by functions on the
    translates g.Y_I = P(U) indexed by proper subsets I and cosets of G/P_I.
    Its acyclicity, the finite shadow of the sheaf-level statement, is
    certified by drincoh.matching's rational-hull matching, not by rank,
    so its differentials stay cover column maps, never CSR matrices.
    It is E1 row 0 expanded to points: after the augmentation, a type-I
    flag stands for the #P^{i(I)}(F_{q^m}) points of P(U), U its first
    member, so one closed-form layout gives the block sizes, the guard and
    the nonzeros; the covers and signs are those of gmodules.lattice_rows.

(b) The E1 rows of the spectral sequence: for each even s, a complex of
    induced modules over the subsets containing the prefix I_{s/2}, with the
    uniform Tate twist -s/2 carried along as a label.  Row s is the
    Steinberg resolution of I_{s/2} without its first (constant) term, so
    its homology is read from that resolution's, built once per (J, q) and
    run by gmodules.steinberg_resolution.  Row homology gives the E2 page,
    which is checked position by position against the closed forms for
    Steinberg and induced-module dimensions.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import add, itemgetter
from typing import NamedTuple

from .errors import DeskScaleExceeded, ExactnessError, shown
from .ffgeom import (
    chain_dims,
    check_flag_guard,
    enumerate_subspaces,
    flag_keys,
    hyperplane_union_points,
    point_positions,
    subspace_points,
)
from .gmodules import (
    check_block_dd,
    interval_levels,
    lattice_rows,
    steinberg_dim,
    steinberg_resolution,
)
from .qarith import parabolic_index, projective_count
from .rootdata import ParabolicType, i_of_I, standard_subset
from .tables import TwistedModule, summand

FUNCTION_COMPLEX_GUARD = 2 * 10**4


# ---------------------------------------------------------------------------
# the function complex on rational points
# ---------------------------------------------------------------------------


def function_complex_layout(n: int, q: int, m: int):
    """(levels, dims, points) of build_function_complex(n, q, m): the subsets
    I ⊊ Δ by level, #I = n-1 down to ∅, and, keyed by I, the [G:P_I] summands
    and the #P^{i(I)}(F_{q^m}) points of each.  Its guards raise before any
    subset (the flag guard) or point (FUNCTION_COMPLEX_GUARD on the closed-
    form total dimension, #P^n(F_{q^m}) for Y) is listed."""
    check_flag_guard(n, q)
    levels = interval_levels(ParabolicType.empty(n))[1:]
    dims = {I: parabolic_index(I, q) for level in levels for I in level}
    points = {I: projective_count(i_of_I(I), q, m) for I in dims}
    bound = projective_count(n, q, m) + sum(dims[I] * points[I] for I in dims)
    if bound > FUNCTION_COMPLEX_GUARD:
        raise DeskScaleExceeded(
            f"function complex dimension {shown(bound)} exceeds {FUNCTION_COMPLEX_GUARD}"
        )
    return levels, dims, points


class FunctionComplex(NamedTuple):
    """Term dimensions and each differential's cover form (gmodules)."""

    terms: tuple[int, ...]
    covers: tuple[list, ...]


def _augmentation(level, points_of, y_points, q: int) -> list[list[tuple]]:
    """The cover form of d_0: per top-level subset, one cover of sign 1."""
    y_index = {pt: k for k, pt in enumerate(y_points)}
    return [
        [(0, 1, list(map(y_index.__getitem__, chain.from_iterable(
            points_of[i_of_I(I) + 1][key[0]] for key in flag_keys(I, q)
        ))))]
        for I in level
    ]


def build_function_complex(n: int, q: int, m: int) -> FunctionComplex:
    """The complex 0 -> Fun(Y) -> ⊕_{#I=n-1} ⊕_g Fun(g.Y_I) -> ... -> ⊕_{G/B} -> 0.

    After the augmentation, each differential is the lattice differential
    of E1 row 0 expanded to points: a flag's row is repeated once per
    point of its summand, and each source flag's column moves to that
    point's column in the source summand: its position in P(V), V the
    source's subspace (which contains the target's U), looked up by its
    entries on V's pivot columns (ffgeom.point_positions).  Distinct cosets
    keep separate summands even when they cut out the same subvariety, but
    each subvariety's points are listed once.  The block sizes and each
    source summand's first column come from function_complex_layout.

    Each differential is kept as its cover form, one block per subset and
    Y as d_0's, each cover of lattice_rows one list of columns: ranges if
    source and target summands share U, else the positions of P(U) in
    P(V), listed once per (U, V) and differential.  d∘d = 0 is checked by
    gmodules.check_block_dd, then exactness by matching.check_matching; a
    failure, or a point off Y, raises ExactnessError naming (n, q, m).
    """
    subsets, dims, points = function_complex_layout(n, q, m)
    y_points = hyperplane_union_points(n, q, m)
    # every subspace U with 0 < dim U <= n is the first member of some flag;
    # points_of[d][k] lists the points of P(U) once, U the k-th of dim d
    points_of = {
        d: [subspace_points(U, q, m) for U in enumerate_subspaces(n + 1, d, q)]
        for d in range(1, n + 1)
    }
    where = f"function complex (n, q, m) = ({n}, {q}, {m})"
    blocks = [[("Y", len(y_points))]] + [
        [(I.subset_str(), dims[I] * points[I]) for I in level] for level in subsets
    ]
    terms = tuple(sum(size for _, size in sizes) for sizes in blocks)
    try:
        covers = [_augmentation(subsets[0], points_of, y_points, q)]
    except KeyError as exc:
        raise ExactnessError(f"{where}: summand point {exc} is not in Y") from exc

    for t in range(len(subsets) - 1):
        # the first column of each source summand: each source subset J has
        # dims[J] summands of points[J] columns, in flag order
        col0 = list(accumulate(
            chain.from_iterable(repeat(points[J], dims[J]) for J in subsets[t]), initial=0
        ))
        # (dim U, dim V) -> {(index of U, index of V): the positions in P(V)
        # of the points of P(U)}, each list built once per differential
        embedded: dict = {}
        form = []
        # lattice_rows' column maps index the source summands
        rows = lattice_rows(subsets[t], subsets[t + 1], dims, q)
        for I, (sources, signs, images) in zip(subsets[t + 1], rows):
            p = points[I]  # each summand of I has p points
            keys, members = flag_keys(I, q), chain_dims(I)
            block = []
            for J, sign, image in zip(sources, signs, images):
                # each target summand's source summand, by its first column
                starts = list(map(col0.__getitem__, image))
                d = chain_dims(J)[0]
                if d == members[0]:
                    # the cover keeps each flag's first member U, so each
                    # source summand is P(U) again, its points in order
                    columns = chain.from_iterable(map(range, starts, map(p.__add__, starts)))
                else:
                    # the source's subspace V is the flag's member of dim d:
                    # its points' places in P(V) follow U's and V's keys
                    UV = itemgetter(0, members.index(d))
                    table = embedded.setdefault((members[0], d), {})
                    Vs, U_points = enumerate_subspaces(n + 1, d, q), points_of[members[0]]
                    positions = point_positions(d, q, m)
                    for u, v in set(map(UV, keys)).difference(table):
                        pivots = itemgetter(*map(tuple.index, Vs[v], repeat(1)))
                        table[u, v] = list(map(positions.__getitem__, map(pivots, U_points[u])))
                    columns = map(add, chain.from_iterable(map(repeat, starts, repeat(p))),
                                  chain.from_iterable(map(table.__getitem__, map(UV, keys))))
                block.append((subsets[t].index(J), sign, list(columns)))
            form.append(block)
        covers.append(form)
    del points_of  # the checks' temporaries need not stack on it at the peak
    from .matching import check_matching, function_complex_labels

    try:
        check_block_dd(covers, blocks)
        check_matching(covers, blocks, function_complex_labels(subsets, dims, terms[0], q, m))
    except ExactnessError as exc:
        raise ExactnessError(f"{where}: {exc}") from exc
    return FunctionComplex(terms, tuple(covers))


# ---------------------------------------------------------------------------
# E1 rows and the E2 page
# ---------------------------------------------------------------------------


def build_e1_row(s: int, n: int, q: int) -> tuple[int, ...]:
    """Homology of the Steinberg resolution of I_{s/2} without its constant
    term.  Dropping the term moves every position down one; the new
    position 0 also gains the rank of d_0, which is 1 - H_0."""
    if s % 2 or not 0 <= s <= 2 * n - 2:
        raise ValueError(f"rows live at even s in 0..{2 * n - 2}, got s={s}")
    h = steinberg_resolution(standard_subset(n, s // 2), q)
    return (h[1] + 1 - h[0],) + h[2:]


def e2_page(n: int, q: int) -> dict[tuple[int, int], TwistedModule]:
    """Homology of the E1 rows, labeled and checked against closed forms.

    Nonzero entries: the Steinberg module v(I_{s/2})(-s/2) at the row end,
    the trivial module K(-s/2) at r = 0 for the longer rows, and the full
    induced module at the single-term row s = 2n-2.  Any computed dimension
    that disagrees with its closed form raises ExactnessError.
    """
    if n < 1:  # with no rows the page would come out empty
        raise ValueError(f"n must be >= 1, got {n}")
    page: dict[tuple[int, int], TwistedModule] = {}
    for s in range(0, 2 * n - 1, 2):
        hom = build_e1_row(s, n, q)  # the flag guard comes first
        j = s // 2
        base = standard_subset(n, j)
        if s == 2 * n - 2:
            expected = {0: parabolic_index(base, q)}
            labels = {0: summand("Ind", base, expected[0], -j)}
        else:
            top = n - 1 - j
            expected = {0: 1, top: steinberg_dim(base, q)}
            labels = {
                0: summand("K", None, 1, -j),
                top: summand("v", base, expected[top], -j),
            }
        for r, h in enumerate(hom):
            if h != expected.get(r, 0):
                raise ExactnessError(
                    f"E2 mismatch at (r={r}, s={s}) for n={n}, q={q}: "
                    f"computed {h}, closed form {expected.get(r, 0)}"
                )
            if h:
                page[(r, s)] = TwistedModule.of(labels[r])
    return page
