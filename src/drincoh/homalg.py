"""Exact sparse integer matrices and chain-complex homology dimensions.

A matrix is stored in compressed sparse row (CSR) form: three flat lists,
`indptr` (row i's entries sit at positions indptr[i]:indptr[i+1]),
`indices` (their columns, strictly increasing within a row) and `data`
(their values, nonzero Python ints).  The builders write rows in order
and hand the lists to the one constructor, so no (i, j) tuple is made
between a builder and the rank.  Validation runs at C level over the
lists (types, zeros, column range, row order, the last against a byte
mask of the row starts) and raises, so it holds under python -O.

Every entry is a Python int, and ranks are ranks over the rationals, never
numerical.  They come from one fraction-free row reduction against a pivot
table: rows are read from the flat lists in one pass, one zip over row
ids, columns and values, and taken in index order; each is reduced against
the pivot stored for its largest column until it is zero or that column
has no pivot yet, and then it becomes that column's pivot.  A unit pivot
clears by integer subtraction, any other by scaling the reduced row first.
Homology ranks its differentials with clearing: the pivot rows of d_i are
columns of d_{i+1} that lie in the span of its other columns (d∘d = 0), so
they are skipped.

A chain complex checks only the shapes of its differentials.  Homology
relies on d∘d = 0, which gmodules.check_block_dd checks first.  Only the
Steinberg resolutions are stored and ranked here; the function complex
stays cover forms (gmodules), certified exact by drincoh.matching.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, islice, repeat
from operator import ge, getitem, le, sub
from types import MappingProxyType

from .errors import ExactnessError


class ExactMatrix:
    """A rows x cols integer matrix in compressed sparse row storage, ranked over Q.

    Row i's entries sit at positions indptr[i]:indptr[i+1] of `indices`
    (their columns, strictly increasing) and `data` (their values, nonzero
    ints); `indptr` runs from 0 to nnz in rows + 1 steps.  The builders hand
    over these three lists, rows written in order, and the constructor keeps
    them once it has validated them: it raises TypeError on a value that is
    not an int (bool included) and ValueError on a malformed layout, under
    python -O too.  `rank` reads the rows back in one pass over the lists;
    `entries` is a read-only dict copy for tests and debugging.  The matrix
    acts on coordinate columns of its source: a map V -> W with dim V = cols
    and dim W = rows.
    """

    __slots__ = ("rows", "cols", "indptr", "indices", "data")

    def __init__(self, rows: int, cols: int, indptr, indices, data):
        # C-level passes over the flat lists; raises, never asserts, so the
        # checks hold under python -O
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if {type(indptr), type(indices), type(data)} != {list}:
            raise TypeError("CSR storage is three lists")
        nnz = len(data)
        if len(indptr) != rows + 1 or len(indices) != nnz:
            raise ValueError(
                f"CSR lists of lengths {len(indptr)}, {len(indices)}, {nnz} "
                f"do not fit {rows} rows"
            )
        if not set(map(type, indptr)) | set(map(type, indices)) <= {int}:
            raise TypeError("CSR row offsets and columns must be ints")
        if indptr[0] != 0 or indptr[-1] != nnz or not all(
            map(le, indptr, islice(indptr, 1, None))
        ):
            raise ValueError("indptr must rise from 0 to nnz")
        if not set(map(type, data)) <= {int}:
            bad = next(v for v in data if type(v) is not int)
            raise TypeError(f"entry {bad!r} is not an int")
        if 0 in data:
            raise ValueError("a stored entry is zero")
        if indices and (min(indices) < 0 or max(indices) >= cols):
            raise ValueError(f"a column lies outside 0..{cols - 1}")
        # a column not above its predecessor may only start a row; the row
        # starts are marked in a byte mask, not hashed into a set
        starts = bytearray(nnz + 1)
        for k in indptr:
            starts[k] = 1
        descents = compress(range(1, nnz), map(ge, indices, islice(indices, 1, None)))
        if not all(map(getitem, repeat(starts), descents)):
            raise ValueError("columns must be strictly increasing within each row")
        self.rows, self.cols = rows, cols
        self.indptr, self.indices, self.data = indptr, indices, data

    @staticmethod
    def from_blocks(row_dims, col_dims, blocks) -> "ExactMatrix":
        """Assemble from a dict mapping (block_row, block_col) to ExactMatrix."""
        col_off = list(accumulate(col_dims, initial=0))
        for (bi, bj), block in blocks.items():
            if block.rows != row_dims[bi] or block.cols != col_dims[bj]:
                raise ValueError(f"block ({bi},{bj}) has wrong shape")
        indptr, indices, data = [0], [], []
        for bi, dim in enumerate(row_dims):
            # this block row's blocks left to right, so columns come out sorted
            parts = sorted((bj, b) for (i, bj), b in blocks.items() if i == bi)
            for i in range(dim):
                for bj, b in parts:
                    s, e = b.indptr[i], b.indptr[i + 1]
                    indices.extend(map(col_off[bj].__add__, b.indices[s:e]))
                    data.extend(b.data[s:e])
                indptr.append(len(data))
        return ExactMatrix(len(indptr) - 1, col_off[-1], indptr, indices, data)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def entries(self):
        """A read-only {(i, j): value} copy, rebuilt on every access (for tests
        and debugging; nothing on the build and rank path reads it)."""
        return MappingProxyType(dict(zip(zip(self._row_ids(), self.indices), self.data)))

    def _row_ids(self):
        """The row of each stored entry, in storage order."""
        ptr = self.indptr
        return chain.from_iterable(
            map(repeat, range(self.rows), map(sub, islice(ptr, 1, None), ptr))
        )

    def _rows(self, skip):
        """(i, {col: value}) for each row i with an entry outside `skip`, in
        order, read in one pass over the flat lists.  Each row is a fresh dict
        made when the previous one is handed out, so rows a caller drops are
        freed as it goes."""
        row, cur = {}, -1
        for i, j, v in zip(self._row_ids(), self.indices, self.data):
            if i != cur:
                if row:
                    yield cur, row
                    row = {}
                cur = i
            if j not in skip:
                row[j] = v
        if row:
            yield cur, row

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.indptr == other.indptr
            and self.indices == other.indices
            and self.data == other.data
        )

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
        pivots: dict[int, dict] = {}  # column -> the row with it as largest column
        for i, row in self._rows(set(skip_cols)):
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
        """Text dump: header 'rows cols nnz', then 'i j value/1' lines."""
        lines = [f"{self.rows} {self.cols} {self.nnz}"]
        for i, j, v in zip(self._row_ids(), self.indices, self.data):
            lines.append(f"{i} {j} {v}/1")
        return "\n".join(lines) + "\n"


class ChainComplex:
    """A finite complex 0 -> V_0 -> V_1 -> ... -> V_k -> 0 of Q-vector spaces.

    `diffs[i]` maps V_i to V_{i+1}; __post_init__ checks their number and
    shapes and raises ValueError.  d∘d = 0 is not checked here: homology_dims
    relies on it, so a builder checks it first (gmodules.check_block_dd).
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

    def homology_dims(self) -> tuple[int, ...]:
        """dim H_i = dim V_i - rank(d_i) - rank(d_{i-1}), off-end ranks zero.

        The pivot rows of d_i carry a nonsingular minor of d_i, so by
        d∘d = 0 (which the builder checked) the same columns of d_{i+1} are
        combinations of its other columns, and d_{i+1} is ranked without them.
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
