"""Builders for the two incarnations of the acyclic subset-lattice complex.

(a) The function complex: K-valued functions on the F_{q^m}-points of the
    union Y of all rational hyperplanes in P^n, resolved by functions on the
    translates g.Y_I = P(U) indexed by proper subsets I and cosets of G/P_I.
    Its acyclicity is the finite shadow of the sheaf-level statement and is
    what the verify suite checks.

(b) The E1 rows of the spectral sequence: for each even s, a complex of
    induced modules over the subsets containing the prefix I_{s/2}, with the
    uniform Tate twist -s/2 carried along as a label.  Row homology gives
    the E2 page, which is checked position by position against the closed
    forms for Steinberg and induced-module dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DeskScaleExceeded, ExactnessError
from .ffgeom import (
    Flag,
    Subspace,
    enumerate_flags,
    flag_subvariety,
    forget,
    hyperplane_union_points,
    subspace_points,
)
from .gmodules import lattice_differential, steinberg_dim
from .homalg import ChainComplex, ExactMatrix
from .qarith import parabolic_index, projective_count
from .rootdata import ParabolicType, cover_sign, i_of_I, standard_subset, subsets_of_size
from .tables import TwistedModule, summand

FUNCTION_COMPLEX_GUARD = 2 * 10**4
E2_FLAG_GUARD = 2500


# ---------------------------------------------------------------------------
# the function complex on rational points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StratumSummand:
    """One summand: the points of P(U)(F_{q^m}) for U the flag's first member."""

    I: ParabolicType
    flag: Flag
    subspace: Subspace
    points: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FunctionComplex:
    n: int
    q: int
    m: int
    y_points: tuple[tuple[int, ...], ...]
    levels: tuple[tuple[StratumSummand, ...], ...]
    complex: ChainComplex


def _restriction_block(
    target: StratumSummand, source_index: dict[tuple[int, ...], int], sign: int
) -> ExactMatrix:
    entries = {
        (row, source_index[pt]): sign for row, pt in enumerate(target.points)
    }
    return ExactMatrix(len(target.points), len(source_index), entries)


def build_function_complex(n: int, q: int, m: int) -> FunctionComplex:
    """The complex 0 -> Fun(Y) -> ⊕_{#I=n-1} ⊕_g Fun(g.Y_I) -> ... -> ⊕_{G/B} -> 0.

    Differentials are signed point-restriction maps; distinct cosets keep
    separate summands even when they cut out the same subvariety.
    """
    # closed-form size estimate first, so oversize requests fail fast
    bound = projective_count(n, q, m)
    for size in range(n):
        for I in subsets_of_size(n, size, proper=True):
            bound += parabolic_index(I, q) * projective_count(i_of_I(I), q, m)
    if bound > FUNCTION_COMPLEX_GUARD:
        raise DeskScaleExceeded(
            f"function complex dimension {bound} exceeds {FUNCTION_COMPLEX_GUARD}"
        )

    y_points = tuple(hyperplane_union_points(n, q, m))
    levels = []
    for size in range(n - 1, -1, -1):
        level = []
        for I in subsets_of_size(n, size, proper=True):
            for f in enumerate_flags(I, q):
                U = flag_subvariety(f)
                level.append(StratumSummand(I, f, U, tuple(subspace_points(U, m))))
        levels.append(tuple(level))
    terms = [len(y_points)] + [sum(len(s.points) for s in lv) for lv in levels]

    y_set = set(y_points)
    covered = set()
    for lv in levels:
        for s in lv:
            if not set(s.points) <= y_set:
                raise ExactnessError("summand points escape the hyperplane union")
            covered.update(s.points)
    if covered != y_set:
        raise ExactnessError("summands do not cover the hyperplane union")

    diffs = []
    # augmentation: restriction of functions on Y to each top-level summand
    y_index = {pt: k for k, pt in enumerate(y_points)}
    blocks = {
        (bi, 0): _restriction_block(s, y_index, 1) for bi, s in enumerate(levels[0])
    }
    diffs.append(
        ExactMatrix.from_blocks(
            [len(s.points) for s in levels[0]], [len(y_points)], blocks
        )
    )
    for t in range(len(levels) - 1):
        sources, targets = levels[t], levels[t + 1]
        src_pos = {(s.I, s.flag): k for k, s in enumerate(sources)}
        src_index = [
            {pt: k for k, pt in enumerate(s.points)} for s in sources
        ]
        blocks = {}
        for bi, tgt in enumerate(targets):
            for a in range(n):
                if tgt.I.mask >> a & 1:
                    continue
                J = tgt.I.union(a)
                if not J.is_proper:
                    continue
                h = forget(tgt.flag, J)
                bj = src_pos[(J, h)]
                blocks[(bi, bj)] = _restriction_block(
                    tgt, src_index[bj], cover_sign(tgt.I, a)
                )
        diffs.append(
            ExactMatrix.from_blocks(
                [len(s.points) for s in targets],
                [len(s.points) for s in sources],
                blocks,
            )
        )
    cx = ChainComplex(tuple(terms), tuple(diffs))
    return FunctionComplex(n, q, m, y_points, tuple(levels), cx)


# ---------------------------------------------------------------------------
# E1 rows and the E2 page
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class E1Row:
    """Row s: permutation modules over subsets containing I_{s/2}, twist -s/2."""

    s: int
    n: int
    q: int
    twist: int
    subsets: tuple[tuple[ParabolicType, ...], ...]
    complex: ChainComplex


def build_e1_row(s: int, n: int, q: int) -> E1Row:
    if s % 2 or not 0 <= s <= 2 * n - 2:
        raise ValueError(f"rows live at even s in 0..{2 * n - 2}, got s={s}")
    j = s // 2
    base = standard_subset(n, j)
    positions = [
        tuple(subsets_of_size(n, n - 1 - r, containing=base, proper=True))
        for r in range(n - j)
    ]
    dims = {I: parabolic_index(I, q) for pos in positions for I in pos}
    terms = tuple(sum(dims[I] for I in pos) for pos in positions)
    diffs = tuple(
        lattice_differential(list(positions[r]), list(positions[r + 1]), dims, q)
        for r in range(len(positions) - 1)
    )
    return E1Row(s, n, q, -j, tuple(positions), ChainComplex(terms, diffs))


def _guard_page(n: int, q: int):
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if parabolic_index(ParabolicType.empty(n), q) > E2_FLAG_GUARD:
        raise DeskScaleExceeded(
            f"full flag variety of GL_{n + 1}(F_{q}) exceeds the {E2_FLAG_GUARD} guard"
        )


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


def e2_page(n: int, q: int) -> dict[tuple[int, int], TwistedModule]:
    """Homology of the E1 rows, labeled and checked against closed forms.

    Nonzero entries: the Steinberg module v(I_{s/2})(-s/2) at the row end,
    the trivial module K(-s/2) at r = 0 for the longer rows, and the full
    induced module at the single-term row s = 2n-2.  Any computed dimension
    that disagrees with its closed form raises ExactnessError.
    """
    _guard_page(n, q)
    page: dict[tuple[int, int], TwistedModule] = {}
    for s in range(0, 2 * n - 1, 2):
        j = s // 2
        row = build_e1_row(s, n, q)
        hom = row.complex.homology_dims()
        base = standard_subset(n, j)
        if s == 2 * n - 2:
            expected = {0: parabolic_index(base, q)}
            labels = {0: summand("Ind", base, expected[0], row.twist)}
        else:
            top = n - 1 - j
            expected = {0: 1, top: steinberg_dim(base, q)}
            labels = {
                0: summand("K", None, 1, row.twist),
                top: summand("v", base, expected[top], row.twist),
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

