"""Exact sparse integer matrices and chain-complex homology dimensions.

Every entry is a Python int, and ranks are ranks over the rationals, never
numerical.  They come from one fraction-free row reduction against a pivot
table: rows are taken in index order, each is reduced against the pivot
stored for its largest column until it is zero or that column has no pivot
yet, and then it becomes that column's pivot.  A unit pivot clears by
integer subtraction, any other by scaling the reduced row first.  Homology
ranks its differentials with clearing: the pivot rows of d_i are columns of
d_{i+1} that lie in the span of its other columns (d∘d = 0), so they are
skipped.
"""

from __future__ import annotations

from .errors import ExactnessError


class ExactMatrix:
    """A rows x cols integer matrix with sparse storage, ranked over Q.

    `entries` maps (i, j) to a nonzero int; any other entry type raises
    TypeError.  The matrix acts on coordinate columns of its source: a map
    V -> W with dim V = cols and dim W = rows.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not 0 <= i < rows or not 0 <= j < cols:
                    raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                if type(v) is not int:
                    raise TypeError(f"entry ({i},{j}) is {v!r}, not an int")
                if v:
                    self.entries[(i, j)] = v

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def zero(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix(rows, cols)

    @staticmethod
    def from_blocks(row_dims, col_dims, blocks) -> "ExactMatrix":
        """Assemble from a dict mapping (block_row, block_col) to ExactMatrix."""
        row_off = [0]
        for d in row_dims:
            row_off.append(row_off[-1] + d)
        col_off = [0]
        for d in col_dims:
            col_off.append(col_off[-1] + d)
        entries = {}
        for (bi, bj), block in blocks.items():
            if block.rows != row_dims[bi] or block.cols != col_dims[bj]:
                raise ValueError(f"block ({bi},{bj}) has wrong shape")
            r0, c0 = row_off[bi], col_off[bj]
            for (i, j), v in block.entries.items():
                key = (r0 + i, c0 + j)
                w = entries.get(key, 0) + v
                if w:
                    entries[key] = w
                else:
                    entries.pop(key, None)
        return ExactMatrix(row_off[-1], col_off[-1], entries)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={self.nnz})"

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        by_col = {}
        for (i, k), v in self.entries.items():
            by_col.setdefault(k, []).append((i, v))
        out = {}
        for (k, j), w in other.entries.items():
            for i, v in by_col.get(k, ()):
                key = (i, j)
                s = out.get(key, 0) + v * w
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return ExactMatrix(self.rows, other.cols, out)

    # -- rank ---------------------------------------------------------------

    def rank(self, *, skip_cols=(), pivot_rows=None) -> int:
        """Rank over Q by fraction-free row reduction over the integers.

        Columns in `skip_cols` are left out.  If `pivot_rows` is a list, the
        index of each row that became a pivot is appended to it, in order;
        those rows, without the skipped columns, are independent and span
        the row space.
        """
        skip = set(skip_cols)
        rows: dict[int, dict] = {}
        for (i, j), v in self.entries.items():
            if j not in skip:
                rows.setdefault(i, {})[j] = v
        pivots: dict[int, dict] = {}  # column -> the row with it as largest column
        for i in sorted(rows):
            row = rows[i]
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
        for (i, j) in sorted(self.entries):
            lines.append(f"{i} {j} {self.entries[(i, j)]}/1")
        return "\n".join(lines) + "\n"


class ChainComplex:
    """A finite complex 0 -> V_0 -> V_1 -> ... -> V_k -> 0 of Q-vector spaces.

    `diffs[i]` maps V_i to V_{i+1}; d∘d = 0 is verified at construction, in
    __post_init__, and a violation raises ExactnessError (it means the
    builder's signs or indexing are wrong, so computing anything further
    would be meaningless).
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
        for i in range(len(self.diffs) - 1):
            if not (self.diffs[i + 1] @ self.diffs[i]).is_zero():
                raise ExactnessError(f"d∘d != 0 between positions {i} and {i + 2}")

    def homology_dims(self) -> tuple[int, ...]:
        """dim H_i = dim V_i - rank(d_i) - rank(d_{i-1}), off-end ranks zero.

        The pivot rows of d_i carry a nonsingular minor of d_i, so by
        d∘d = 0 (checked at construction) the same columns of d_{i+1} are
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

    def is_exact_except(self, allowed) -> tuple[bool, dict[int, int]]:
        """Whether homology vanishes outside `allowed`; reports dims at allowed spots."""
        allowed = set(allowed)
        dims = self.homology_dims()
        ok = all(h == 0 for i, h in enumerate(dims) if i not in allowed)
        report = {i: dims[i] for i in sorted(allowed) if i < len(dims)}
        return ok, report
