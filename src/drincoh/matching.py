"""Exactness from an acyclic matching, checked on the differentials themselves.

A matching labels each cell (basis vector) of each term of a complex as
matched down, paired with a cell of the term below, or matched up.  For
d_t from term t to term t+1 of a ChainComplex, an ExactMatrix read through
its validated covers, check_matching asks that every matched-down row of
term t+1 has exactly one entry in a matched-up column of term t, of value
±1, and that these partner columns are distinct and are every matched-up
cell of term t; term 0 has no matched-down cell and the top term no
matched-up cell.  Then the rows of matched-down cells and the columns of
their partners cut out of d_t a signed permutation, so rank d_t is at
least the number of matched-up cells of term t, over Q and over every
F_ℓ.  With d∘d = 0, which the ChainComplex constructor checked, every
homology group is 0, over Z too (Forman, Adv. Math. 134, 1998).  The
labels are only hints: a wrong one can make the check fail, never pass.

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
from itertools import compress, count, islice
from operator import add, lt, not_, truth

from .errors import ExactnessError
from .ffgeom import _mask_blocks
from .rootdata import i_of_I


@lru_cache(maxsize=None)
def hull_mask(d: int, q: int, m: int) -> bytes:
    """Byte k is 1 iff the k-th point of P^{d-1}(F_{q^m}), in the normalized
    lex order that every P(U) with dim U = d lists its points in, lies off
    every rational hyperplane of F_q^d: the point x = Σ lam_i U_i has
    rational hull U iff its lam does.  For d = 1 the one point is generic."""
    if d == 1:
        return b"\x01"
    return bytes(map(not_, _mask_blocks(d - 1, q, m)))


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


def _nth(mask: bytes, k: int) -> int:
    """The position of the k-th nonzero byte of mask."""
    return next(islice(compress(count(), mask), k, None))


def check_matching(cx, down) -> None:
    """Raise ExactnessError unless `down` is an acyclic matching with unit
    partners of the ChainComplex `cx`; ValueError if it has no
    differentials.

    `down[t]` is a byte mask over term t's cells, nonzero for a matched-down
    cell; the cells are named by the differentials' blocks.  Per cover, one
    byte per matched-down row marks whether its column is matched up, and
    these bytes, summed over a row block's covers, must all be 1.  The
    partners' columns must be the matched-up columns once each, and a cover
    with a partner must have sign ±1.
    """
    diffs = cx.diffs
    if not diffs:
        raise ValueError("no differentials to match across")
    if len(down) != len(diffs) + 1:
        raise ValueError(f"{len(down)} label masks for {len(diffs) + 1} terms")
    first = next(compress(count(), down[0]), None)
    if first is not None:
        raise ExactnessError(
            f"term 0, {_cell(diffs[0].col_blocks, first)}: matched down, with no term below"
        )
    last = len(diffs)
    first = next(compress(count(), map(not_, down[last])), None)
    if first is not None:
        raise ExactnessError(
            f"term {last}, {_cell(diffs[-1].row_blocks, first)}: matched up, with no term above"
        )
    for t, d in enumerate(diffs):
        rows_down, up = bytes(map(truth, down[t + 1])), bytes(map(not_, down[t]))
        if (len(rows_down), len(up)) != (d.rows, d.cols):
            raise ValueError(
                f"d_{t} is {d.rows}x{d.cols}, its labels give {len(rows_down)}x{len(up)}"
            )
        cols, r0 = [], 0
        for (_, size), block in zip(d.row_blocks, d.covers):
            mask = rows_down[r0:r0 + size]
            acc = bytes(mask.count(1))
            for _, sign, image in block:
                # the cover's columns in the matched-down rows, and which of
                # them are matched up
                sel = list(compress(image, mask))
                hits = bytes(map(up.__getitem__, sel))
                if sign != 1 and sign != -1 and 1 in hits:
                    r = r0 + _nth(mask, hits.index(1))
                    raise ExactnessError(
                        f"d_{t}, row {_cell(d.row_blocks, r)}: matched down with the "
                        f"partner entry {sign}, not ±1"
                    )
                acc = bytes(map(add, acc, hits))
                cols += compress(sel, hits)
            if acc != b"\x01" * len(acc):
                k = next(k for k, c in enumerate(acc) if c != 1)
                r = r0 + _nth(mask, k)
                raise ExactnessError(
                    f"d_{t}, row {_cell(d.row_blocks, r)}: matched down with "
                    f"{acc[k]} entries in matched-up columns, not 1"
                )
            r0 += size
        # the partners are matched-up columns: once sorted, they are every
        # one once iff they rise strictly and number #up
        cols.sort()
        if len(cols) != up.count(1) or not all(map(lt, cols, islice(cols, 1, None))):
            c = _first_difference(cols, list(compress(range(len(up)), up)))
            raise ExactnessError(
                f"d_{t}, column {_cell(d.col_blocks, c)}: matched up and the partner of "
                f"{cols.count(c)} matched-down rows, not 1"
            )
