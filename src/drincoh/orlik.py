"""Builders for the two incarnations of the acyclic subset-lattice complex.

(a) The function complex: K-valued functions on the F_{q^m}-points of the
    union Y of all rational hyperplanes in P^n, resolved by functions on the
    translates g.Y_I = P(U) indexed by proper subsets I and cosets of G/P_I.
    Its acyclicity is the finite shadow of the sheaf-level statement and is
    what the verify suite checks.  It is E1 row 0 expanded to points: after
    the augmentation, each flag of type I stands for the points of its
    stratum, and the covers and signs are those of gmodules.lattice_rows.

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

from .errors import DeskScaleExceeded, ExactnessError
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
    write_covers,
)
from .homalg import ChainComplex, ExactMatrix
from .qarith import parabolic_index, projective_count
from .rootdata import ParabolicType, i_of_I, standard_subset
from .tables import TwistedModule, summand

FUNCTION_COMPLEX_GUARD = 2 * 10**4


# ---------------------------------------------------------------------------
# the function complex on rational points
# ---------------------------------------------------------------------------


class StratumSummand:
    """One summand: the points of P(U)(F_{q^m}) for U the flag's first member,
    which `subspace` holds as its RREF basis."""

    __slots__ = ("I", "subspace", "points")

    def __init__(self, I: ParabolicType, subspace: tuple[tuple[int, ...], ...],
                 points: tuple[tuple[int, ...], ...]):
        self.I = I
        self.subspace = subspace
        self.points = points


class FunctionComplex:
    __slots__ = ("y_points", "levels", "complex")

    def __init__(self, y_points: tuple[tuple[int, ...], ...],
                 levels: tuple[tuple[StratumSummand, ...], ...], complex: ChainComplex):
        self.y_points = y_points
        self.levels = levels
        self.complex = complex


def build_function_complex(n: int, q: int, m: int) -> FunctionComplex:
    """The complex 0 -> Fun(Y) -> ⊕_{#I=n-1} ⊕_g Fun(g.Y_I) -> ... -> ⊕_{G/B} -> 0.

    After the augmentation, each differential is the lattice differential
    of E1 row 0 expanded to points: a flag's row is repeated once per
    point of its summand, and each source flag's column moves to that
    point's column in the source summand: its position in P(V), V the
    source's subspace (which contains the target's U), looked up by its
    entries on V's pivot columns (ffgeom.point_positions).  Distinct cosets
    keep separate summands even when they cut out the same subvariety, but
    each subvariety's points are listed once.  The flag guard comes
    first, before any subset is listed.

    Every differential is written one subset's row block at a time by
    gmodules.write_covers, each cover of lattice_rows as one column map:
    a cover whose source and target summands share U writes each summand's
    columns as a range; any other reads the position list P(U) -> P(V),
    built once per (U, V) pair and differential and keyed by the indices of
    U and V in the flag's key.  The augmentation is one cover of sign 1 per
    subset.  d∘d = 0 is checked by gmodules.check_block_dd with one block
    per subset (its summands, which are contiguous) and Y as the
    augmentation's one source block; a failure is raised again naming
    (n, q, m).
    """
    check_flag_guard(n, q)
    subsets = interval_levels(ParabolicType.empty(n))[1:]
    dims = {I: parabolic_index(I, q) for level in subsets for I in level}
    # closed-form size estimate first, so oversize requests fail fast
    bound = projective_count(n, q, m) + sum(
        dims[I] * projective_count(i_of_I(I), q, m) for I in dims
    )
    if bound > FUNCTION_COMPLEX_GUARD:
        raise DeskScaleExceeded(
            f"function complex dimension {bound} exceeds {FUNCTION_COMPLEX_GUARD}"
        )

    y_points = tuple(hyperplane_union_points(n, q, m))
    points_of: dict[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] = {}
    levels = []
    # d∘d is checked on blocks: Y, then each subset's summands
    blocks = [[("Y", len(y_points))]]
    for level_subsets in subsets:
        level, sizes = [], []
        for I in level_subsets:
            firsts = enumerate_subspaces(n + 1, chain_dims(I)[0], q)
            size = 0
            for key in flag_keys(I, q):
                U = firsts[key[0]]
                if U not in points_of:
                    points_of[U] = tuple(subspace_points(U, q, m))
                level.append(StratumSummand(I, U, points_of[U]))
                size += len(points_of[U])
            sizes.append((I.subset_str(), size))
        levels.append(tuple(level))
        blocks.append(sizes)
    terms = [sum(size for _, size in sizes) for sizes in blocks]

    y_set = set(y_points)
    covered = set()
    for pts in points_of.values():
        if not y_set.issuperset(pts):
            raise ExactnessError("summand points escape the hyperplane union")
        covered.update(pts)
    if covered != y_set:
        raise ExactnessError("summands do not cover the hyperplane union")
    # augmentation: restriction of functions on Y to each top-level summand,
    # one cover of sign 1 per subset
    y_index = {pt: k for k, pt in enumerate(y_points)}
    csr, r = ([0], [], []), 0
    for I, (_, size) in zip(subsets[0], blocks[1]):
        block, r = levels[0][r:r + dims[I]], r + dims[I]
        write_covers(csr, [1], [[y_index[pt] for s in block for pt in s.points]], size)
    diffs = [ExactMatrix.from_csr(len(csr[0]) - 1, len(y_points), *csr)]

    for t in range(len(levels) - 1):
        col0 = list(accumulate((len(s.points) for s in levels[t]), initial=0))
        # (dim U, dim V) -> {(index of U, index of V): the positions in P(V)
        # of the points of P(U)}, each list built once per differential
        embedded: dict = {}
        csr = [0], [], []
        # summands follow the flags subset by subset, so the row blocks come
        # out in order; lattice_rows' column maps index the source summands
        rows = lattice_rows(subsets[t], subsets[t + 1], dims, q)
        for I, (covers, signs, images), (_, size) in zip(subsets[t + 1], rows, blocks[t + 2]):
            p = size // dims[I]  # each summand of I has p points
            keys, members = flag_keys(I, q), chain_dims(I)
            columns = []
            for J, image in zip(covers, images):
                # each target summand's source summand, by its first column
                starts = list(map(col0.__getitem__, image))
                d = chain_dims(J)[0]
                if d == members[0]:
                    # the cover keeps each flag's first member U, so each
                    # source summand is P(U) again, its points in order
                    columns.append(chain.from_iterable(map(range, starts, map(p.__add__, starts))))
                    continue
                # the source's subspace V is the flag's member of dim d: its
                # points' positions in P(V) follow the key entries of U and V
                UV = itemgetter(0, members.index(d))
                table = embedded.setdefault((members[0], d), {})
                Us, Vs = (enumerate_subspaces(n + 1, e, q) for e in (members[0], d))
                positions = point_positions(d, q, m)
                for u, v in set(map(UV, keys)).difference(table):
                    pivots = itemgetter(*map(tuple.index, Vs[v], repeat(1)))
                    table[u, v] = list(map(positions.__getitem__, map(pivots, points_of[Us[u]])))
                columns.append(map(add, chain.from_iterable(map(repeat, starts, repeat(p))),
                                   chain.from_iterable(map(table.__getitem__, map(UV, keys)))))
            write_covers(csr, signs, columns, size)
        diffs.append(ExactMatrix.from_csr(len(csr[0]) - 1, col0[-1], *csr))
    cx = ChainComplex(tuple(terms), tuple(diffs))
    try:
        check_block_dd(diffs, blocks)
    except ExactnessError as exc:
        raise ExactnessError(f"function complex (n, q, m) = ({n}, {q}, {m}): {exc}") from exc
    return FunctionComplex(y_points, tuple(levels), cx)


def function_complex_nnz(n: int, q: int, m: int) -> int:
    """Nonzeros of all the differentials of build_function_complex(n, q, m),
    in closed form: each point of a type-I summand has a row with one entry
    per cover (the augmentation's rows, #I = n-1, one each), so the sum is
    Σ_{I⊊Δ} (n-#I)·[G:P_I]·#P^{i(I)}(F_{q^m})."""
    return sum(
        (n - I.size) * parabolic_index(I, q) * projective_count(i_of_I(I), q, m)
        for level in interval_levels(ParabolicType.empty(n))[1:] for I in level
    )


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
