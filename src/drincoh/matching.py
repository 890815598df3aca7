"""Exactness from an acyclic matching, checked on the matrices themselves.

A matching labels each cell (basis vector) of each term of a complex as
matched down, paired with a cell of the term below, or matched up.  For
d_t from term t to term t+1, check_matching asks that every matched-down
row of term t+1 has exactly one entry in a matched-up column of term t,
and that these partner columns are distinct and are every matched-up cell
of term t; term 0 has no matched-down cell and the top term no matched-up
cell.  Then the rows of matched-down cells and the columns of their
partners cut out of d_t a permutation with nonzero entries, so rank d_t is
at least the number of matched-up cells of term t, whatever the values.
With d∘d = 0, which the builder checks first, every homology group over Q
is 0 (Forman, Adv. Math. 134, 1998).  The labels are only hints: a wrong
one can make the check fail, never pass.

The function complex of orlik is split point by point.  The cells over a
point x of Y are the flags whose first member U has x in P(U), that is
U ⊇ W_x, W_x the rational hull of x (the smallest F_q-subspace with x in
P(W_x); Schneider–Stuhler, Invent. Math. 105, 1991), and Y's own cell.
Over x these form a cone with apex W_x, so toggling W_x as the smallest
member is a perfect matching: a flag cell is matched down iff U = W_x,
i.e. iff x is generic in U (hull_mask), and every other cell is matched up.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, count, islice, repeat
from operator import and_, not_, sub, truth

from .errors import ExactnessError
from .ffgeom import _point_masks
from .rootdata import i_of_I


@lru_cache(maxsize=None)
def hull_mask(d: int, q: int, m: int) -> bytes:
    """Byte k is 1 iff the k-th point of P^{d-1}(F_{q^m}), in the normalized
    lex order that every P(U) with dim U = d lists its points in, lies off
    every rational hyperplane of F_q^d: the point x = Σ lam_i U_i has
    rational hull U iff its lam does.  For d = 1 the one point is generic."""
    if d == 1:
        return b"\x01"
    return bytes(map(not_, _point_masks(d - 1, q, m)[1]))


def function_complex_labels(levels, dims, y_size: int, q: int, m: int) -> list[bytes]:
    """The matched-down masks of the terms of orlik.build_function_complex
    with the layout (levels, dims) and y_size points of Y: Y's cells are all
    matched up, and subset I's row block is its summands' hull_mask in turn,
    dims[I] times, the dimension of the first member of a type-I flag being
    i(I) + 1."""
    return [bytes(y_size)] + [
        b"".join(hull_mask(i_of_I(I) + 1, q, m) * dims[I] for I in level) for level in levels
    ]


def _cell(blocks, k: int) -> str:
    """Cell k of a term whose blocks are (label, size) pairs, named by block."""
    for label, size in blocks:
        if k < size:
            return f"cell {k} of block {label}"
        k -= size
    raise IndexError(k)


def _first_difference(got: list, want: list) -> int:
    """The smaller entry at the first position where two sorted lists differ."""
    for a, b in zip(got, want):
        if a != b:
            return min(a, b)
    return max(got, want, key=len)[min(len(got), len(want))]


def check_matching(diffs, blocks, down) -> None:
    """Raise ExactnessError unless `down` is an acyclic matching of the
    complex with differentials `diffs`, d_t from term t to term t+1.

    `down[t]` is a byte mask over term t's cells, nonzero for a matched-down
    cell, and `blocks[t]` lists term t's (label, size) blocks, used only to
    name a failure.  Per d_t, one byte per stored entry marks the entries
    in a matched-down row and a matched-up column; their rows, read in
    storage order, must be the matched-down rows once each, and their
    columns, sorted, the matched-up columns once each.
    """
    if len(down) != len(diffs) + 1:
        raise ValueError(f"{len(down)} label masks for {len(diffs) + 1} terms")
    first = next(compress(count(), down[0]), None)
    if first is not None:
        raise ExactnessError(f"term 0, {_cell(blocks[0], first)}: matched down, with no term below")
    last = len(diffs)
    first = next(compress(count(), map(not_, down[last])), None)
    if first is not None:
        raise ExactnessError(
            f"term {last}, {_cell(blocks[last], first)}: matched up, with no term above"
        )
    for t, d in enumerate(diffs):
        rows_down, up = bytes(map(truth, down[t + 1])), bytes(map(not_, down[t]))
        if (len(rows_down), len(up)) != (d.rows, d.cols):
            raise ValueError(
                f"d_{t} is {d.rows}x{d.cols}, its labels give {len(rows_down)}x{len(up)}"
            )
        ptr = d.indptr
        lengths = list(map(sub, islice(ptr, 1, None), ptr))
        hits = bytes(map(and_, chain.from_iterable(map(repeat, rows_down, lengths)),
                         map(up.__getitem__, d.indices)))
        got = list(compress(d._row_ids(), hits))
        want = list(compress(range(d.rows), rows_down))
        if got != want:
            r = _first_difference(got, want)
            raise ExactnessError(
                f"d_{t}, row {_cell(blocks[t + 1], r)}: matched down with "
                f"{got.count(r)} entries in matched-up columns, not 1"
            )
        got = sorted(compress(d.indices, hits))
        want = list(compress(range(d.cols), up))
        if got != want:
            c = _first_difference(got, want)
            raise ExactnessError(
                f"d_{t}, column {_cell(blocks[t], c)}: matched up and the partner of "
                f"{got.count(c)} matched-down rows, not 1"
            )
