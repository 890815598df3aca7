"""Exact sparse integer matrices and chain-complex homology dimensions.

A matrix is stored in cover form, the block layout of every differential
built here: its row and column (label, size) blocks, and per row block its
covers (b, value, image), each a column map `image` of the block's rows
into column block b with the one value `value`.  Row r of a block holds
image[r] of each of its covers, so its columns must rise strictly along
them.  The one constructor takes that form and keeps it once it has
validated it (the layout, the values, the rising columns); every check
raises, so it holds under python -O.  The d∘d check below and
matching.check_matching read the same validated form, so nothing converts
or checks it again.

Every entry is a Python int, and ranks are ranks over the rationals, never
numerical.  They come from one fraction-free row reduction against a pivot
table: rows are taken in index order, each read as dict(zip(columns,
values)) from its block's covers, and reduced against the pivot stored for
its largest column until it is zero or that column has no pivot yet, and
then it becomes that column's pivot.  A unit pivot clears by integer
subtraction, any other by scaling the reduced row first.  Homology ranks
its differentials with clearing: the pivot rows of d_i are columns of
d_{i+1} that lie in the span of its other columns (d∘d = 0), so they are
skipped.

A chain complex checks the shapes of its differentials and then d∘d = 0
on their covers when it is built, so homology, which relies on d∘d = 0,
never ranks an unchecked complex.  Both complexes are chain complexes of
these matrices, but only the Steinberg resolutions are ranked here; the
function complex (orlik) is certified exact by drincoh.matching.
"""

from __future__ import annotations

from itertools import accumulate, pairwise, repeat
from operator import lt, sub
from types import MappingProxyType

from .errors import ExactnessError


class ExactMatrix:
    """An integer matrix in cover form, ranked over Q.

    `row_blocks` and `col_blocks` list (label, size) blocks, and `covers`
    holds per row block its covers (b, value, image): value at column
    image[r] of each row r of the block, image inside column block b.  The
    constructor raises TypeError on a value or column that is not an int
    (bool included), ValueError on a zero value, a negative block size or
    columns that do not rise strictly along a row's covers, and
    ExactnessError unless there is one list of covers per row block and
    each cover maps its block's rows into its column block b, under
    python -O too.  `rank` reads the rows off the covers; `entries` is a
    read-only dict copy for tests and debugging.  The matrix acts on
    coordinate columns of its source: a map V -> W with dim V = cols and
    dim W = rows.
    """

    __slots__ = ("rows", "cols", "row_blocks", "col_blocks", "covers")

    def __init__(self, row_blocks, col_blocks, covers):
        # C-level passes over each cover; raises, never asserts, so the
        # checks hold under python -O
        if any(size < 0 for _, size in (*row_blocks, *col_blocks)):
            raise ValueError("negative block size")
        if len(covers) != len(row_blocks):
            raise ExactnessError(f"{len(covers)} row blocks of covers, not {len(row_blocks)}")
        col_off = list(accumulate((size for _, size in col_blocks), initial=0))
        for (label, size), block in zip(row_blocks, covers):
            for k, (b, value, image) in enumerate(block):
                if type(value) is not int:
                    raise TypeError(f"entry {value!r} is not an int")
                if not value:
                    raise ValueError("a cover's value is zero")
                if not set(map(type, image)) <= {int}:
                    raise TypeError("columns must be ints")
                if len(image) != size or not 0 <= b < len(col_blocks) or image and (
                    min(image) < col_off[b] or max(image) >= col_off[b + 1]
                ):
                    raise ExactnessError(f"row block {label}: entry {k} of its rows does "
                                         f"not map its {size} rows into block {b}")
            for k, (low, high) in enumerate(pairwise(image for _, _, image in block), 1):
                if not all(map(lt, low, high)):
                    raise ValueError(f"row block {label}: the columns of entry {k} do not "
                                     f"lie right of entry {k - 1} in every row")
        self.rows = sum(size for _, size in row_blocks)
        self.cols = sum(size for _, size in col_blocks)
        self.row_blocks, self.col_blocks, self.covers = row_blocks, col_blocks, covers

    @staticmethod
    def from_blocks(row_dims, col_dims, blocks) -> "ExactMatrix":
        """Assemble from a dict mapping (block_row, block_col) to ExactMatrix:
        block column j is column block j, and each row is its own row block,
        its entries one cover each.  ValueError on a block index outside the
        grid or a block of the wrong shape."""
        row_off = list(accumulate(row_dims, initial=0))
        col_off = list(accumulate(col_dims, initial=0))
        rows: list[list] = [[] for _ in range(row_off[-1])]
        for (bi, bj), block in blocks.items():
            if not (0 <= bi < len(row_dims) and 0 <= bj < len(col_dims)):
                raise ValueError(f"block ({bi},{bj}) lies outside the "
                                 f"{len(row_dims)}x{len(col_dims)} grid")
            if block.rows != row_dims[bi] or block.cols != col_dims[bj]:
                raise ValueError(f"block ({bi},{bj}) has wrong shape")
            for (i, j), v in block.entries.items():
                rows[row_off[bi] + i].append((col_off[bj] + j, bj, v))
        return ExactMatrix(
            [(str(i), 1) for i in range(row_off[-1])],
            [(str(j), size) for j, size in enumerate(col_dims)],
            [[(b, v, [j]) for j, b, v in sorted(row)] for row in rows],
        )

    @property
    def nnz(self) -> int:
        return sum(len(image) for block in self.covers for _, _, image in block)

    @property
    def entries(self):
        """A read-only {(i, j): value} copy, rebuilt on every access (for tests
        and debugging; nothing on the build and rank path reads it)."""
        return MappingProxyType({
            (i, j): v for i, columns, values in self._rows() for j, v in zip(columns, values)
        })

    def _rows(self):
        """(i, columns, values) for each row i of a row block with covers, in
        order: the columns are the row's entry of each cover, zip(*images)."""
        i = 0
        for (_, size), block in zip(self.row_blocks, self.covers):
            if block:
                values = [v for _, v, _ in block]
                for r, columns in enumerate(zip(*[image for _, _, image in block]), i):
                    yield r, columns, values
            i += size

    def __eq__(self, other) -> bool:
        """Equal shapes and entries, whatever the block layouts."""
        return isinstance(other, ExactMatrix) and self.dump() == other.dump()

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    # -- rank ---------------------------------------------------------------

    def rank(self, *, skip_cols=(), pivot_rows=None) -> int:
        """Rank over Q by fraction-free row reduction over the integers.

        Columns in `skip_cols` are left out.  If `pivot_rows` is a list, the
        index of each row that became a pivot is appended to it, in order;
        those rows, without the skipped columns, are independent and span
        the row space.
        """
        skip = set(skip_cols)
        pivots: dict[int, dict] = {}  # column -> the row with it as largest column
        for i, columns, values in self._rows():
            if skip and not skip.isdisjoint(columns):
                row = {j: v for j, v in zip(columns, values) if j not in skip}
                if not row:
                    continue
            else:
                row = dict(zip(columns, values))
            lead = max(row)
            while lead in pivots:
                pivot = pivots[lead]
                pv = pivot[lead]
                if pv == 1 or pv == -1:
                    f = row[lead] * pv
                else:  # row <- pv * row - row[lead] * pivot keeps integers
                    f = row[lead]
                    for j in row:
                        row[j] *= pv
                for j, pvv in pivot.items():
                    new = row.get(j, 0) - f * pvv
                    if new:
                        row[j] = new
                    else:
                        del row[j]
                if not row:
                    break
                lead = max(row)
            else:
                pivots[lead] = row
                if pivot_rows is not None:
                    pivot_rows.append(i)
        return len(pivots)

    # -- debug dump ----------------------------------------------------------

    def dump(self) -> str:
        """Text dump: header 'rows cols nnz', then 'i j value/1' lines, by
        rows and, within a row, by column."""
        lines = [f"{self.rows} {self.cols} {self.nnz}"]
        for i, columns, values in self._rows():
            lines += (f"{i} {j} {v}/1" for j, v in zip(columns, values))
        return "\n".join(lines) + "\n"


def _first_nonzero_row(paths):
    """(row, col, value) of the first nonzero entry of Σ sign·P(image) over
    the paths, P(image) having one 1 per row at its image; None if zero."""
    signs = [sign for sign, _ in paths]
    for r, cols in enumerate(zip(*(image for _, image in paths))):
        acc: dict[int, int] = {}
        for sign, c in zip(signs, cols):
            acc[c] = acc.get(c, 0) + sign
        nonzero = [c for c, v in acc.items() if v]
        if nonzero:
            c = min(nonzero)
            return r, c, acc[c]
    return None


def _check_pair(low: ExactMatrix, high: ExactMatrix, t: int) -> None:
    """d_{t+1}∘d_t = 0 from the covers of d_t (low) and d_{t+1} (high).

    For a row block L of d_{t+1} and a column block K of d_t, block (L, K)
    of the product is the sum over the paths K -> J -> L of the signed
    composite maps.  Two paths with equal maps and opposite signs cancel;
    any other block is summed row by row, and the first nonzero entry of
    the product (by row, then column) raises ExactnessError.
    """
    mid_off = list(accumulate((size for _, size in high.col_blocks), initial=0))
    row0 = 0
    for (label, size), covers in zip(high.row_blocks, high.covers):
        paths: dict[int, list] = {}
        for j, s1, image1 in covers:
            # d_t's images are indexed by the rows of block J
            local = list(map(sub, image1, repeat(mid_off[j]))) if mid_off[j] else image1
            for b, s2, image2 in low.covers[j]:
                paths.setdefault(b, []).append((s1 * s2, list(map(image2.__getitem__, local))))
        bad = []
        for b, group in paths.items():
            if len(group) == 2 and group[0][0] == -group[1][0] and group[0][1] == group[1][1]:
                continue
            first = _first_nonzero_row(group)
            if first is not None:
                bad.append((*first, low.col_blocks[b][0]))
        if bad:
            r, c, v, source = min(bad)
            raise ExactnessError(
                f"d∘d != 0 between positions {t} and {t + 2}, blocks (K, L) = "
                f"({source}, {label}): entry ({row0 + r},{c}) of d_{t + 1}∘d_{t} is {v}"
            )
        row0 += size


class ChainComplex:
    """A finite complex 0 -> V_0 -> V_1 -> ... -> V_k -> 0 of Q-vector spaces.

    `diffs[i]` maps V_i to V_{i+1}.  __post_init__ raises ValueError unless
    there is one differential of the right shape between consecutive terms,
    then checks d∘d = 0 on the differentials' own covers: ExactnessError
    names a term whose block sizes differ between the rows of d_t and the
    columns of d_{t+1}, or the first nonzero entry of the first nonzero
    product.  So every complex that is ranked or matched has d∘d = 0,
    under python -O too.
    """

    __slots__ = ("terms", "diffs")

    def __init__(self, terms: tuple[int, ...], diffs: tuple[ExactMatrix, ...]):
        self.terms = terms
        self.diffs = diffs
        self.__post_init__()

    def __post_init__(self):
        if len(self.diffs) != max(len(self.terms) - 1, 0):
            raise ValueError("need exactly one differential between consecutive terms")
        for i, d in enumerate(self.diffs):
            if d.cols != self.terms[i] or d.rows != self.terms[i + 1]:
                raise ValueError(
                    f"differential {i} is {d.rows}x{d.cols}, expected "
                    f"{self.terms[i + 1]}x{self.terms[i]}"
                )
        for t, (low, high) in enumerate(pairwise(self.diffs)):
            if [size for _, size in low.row_blocks] != [size for _, size in high.col_blocks]:
                raise ExactnessError(f"d∘d check: term {t + 1}'s block sizes differ between "
                                     f"the rows of d_{t} and the columns of d_{t + 1}")
            _check_pair(low, high, t)

    def homology_dims(self) -> tuple[int, ...]:
        """dim H_i = dim V_i - rank(d_i) - rank(d_{i-1}), off-end ranks zero.

        The pivot rows of d_i carry a nonsingular minor of d_i, so by
        d∘d = 0 (which the constructor checked) the same columns of d_{i+1}
        are combinations of its other columns, and d_{i+1} is ranked without
        them.
        """
        ranks = [0]
        cleared: list[int] = []
        for d in self.diffs:
            pivot_rows: list[int] = []
            ranks.append(d.rank(skip_cols=cleared, pivot_rows=pivot_rows))
            cleared = pivot_rows
        ranks.append(0)
        out = []
        for i, t in enumerate(self.terms):
            h = t - ranks[i + 1] - ranks[i]
            if h < 0:
                raise ExactnessError(f"negative homology dim at {i}: rank bookkeeping broken")
            out.append(h)
        return tuple(out)
