"""Exact sparse integer matrices and chain-complex homology dimensions.

Every entry is a Python int, and ranks are ranks over the rationals, never
numerical.  They come from one sparse, fraction-free Gaussian elimination
with Markowitz-style pivoting: a unit pivot clears its column by integer
subtraction, any other pivot by scaling the target row first.  The pivot
column comes from a lazy min-heap keyed on (column count, index), so no
step scans every column; it picks the same column as a full scan would.
Elimination is deterministic: pivot ties are broken by index.
"""

from __future__ import annotations

import heapq

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

    def rank(self) -> int:
        """Rank over Q by fraction-free elimination over the integers.

        Pivot columns come from a pivot queue, a lazy min-heap of (count,
        column), in the same order as a scan over all active columns.
        """
        rows: dict[int, dict] = {}
        cols: dict[int, set] = {}
        for (i, j), v in sorted(self.entries.items()):
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
        # every active column keeps one entry with its current count
        queue = [(len(rs), j) for j, rs in cols.items()]
        heapq.heapify(queue)
        rank = 0
        while cols:
            # cheapest active column, then its best row: unit pivot first,
            # then fewest entries; index-ordered ties
            k, c = heapq.heappop(queue)
            if c not in cols or len(cols[c]) != k:
                continue  # stale entry
            i = min(
                cols[c],
                key=lambda r: (0 if abs(rows[r][c]) == 1 else 1, len(rows[r]), r),
            )
            pivot_row = rows.pop(i)
            pv = pivot_row[c]
            for j in pivot_row:
                cols[j].discard(i)
                if not cols[j]:
                    del cols[j]
            targets = list(cols.get(c, ()))
            for r in targets:
                row = rows[r]
                if pv == 1 or pv == -1:
                    f = row[c] * pv
                else:  # row <- pv * row - row[c] * pivot_row keeps integers
                    f = row[c]
                    for j in row:
                        row[j] *= pv
                for j, pvv in pivot_row.items():
                    new = row.get(j, 0) - f * pvv
                    if new:
                        if j not in row:
                            cols.setdefault(j, set()).add(r)
                        row[j] = new
                    elif j in row:
                        del row[j]
                        colset = cols.get(j)
                        if colset is not None:
                            colset.discard(r)
                            if not colset:
                                del cols[j]
                if not row:
                    del rows[r]
            # only the pivot row's columns lost the pivot row or took fill-in
            for j in pivot_row:
                if j in cols:
                    heapq.heappush(queue, (len(cols[j]), j))
            rank += 1
        return rank

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
        """dim H_i = dim V_i - rank(d_i) - rank(d_{i-1}), off-end ranks zero."""
        ranks = [0] + [d.rank() for d in self.diffs] + [0]
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
