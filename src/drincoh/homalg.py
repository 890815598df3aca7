"""Exact rational sparse matrices and chain-complex homology dimensions.

Ranks are computed by Gaussian elimination over the rationals, never
numerically: entries are Python ints as long as pivots are units (the usual
case for the signed incidence matrices built here) and fall back to
`fractions.Fraction` otherwise.  Elimination is sparse with Markowitz-style
pivoting and deterministic: pivot ties are broken by index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ExactnessError


def _norm(x):
    """Collapse integral Fractions back to int to keep arithmetic fast."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


class ExactMatrix:
    """A rows x cols matrix over Q with sparse storage.

    `entries` maps (i, j) to a nonzero int or Fraction.  The matrix acts on
    coordinate columns of its source: a map V -> W with dim V = cols and
    dim W = rows.
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
                v = _norm(v)
                if v:
                    self.entries[(i, j)] = v

    @staticmethod
    def from_dense(data) -> "ExactMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {
            (i, j): v for i, row in enumerate(data) for j, v in enumerate(row) if v
        }
        return ExactMatrix(rows, cols, entries)

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
                w = _norm(entries.get(key, 0) + v)
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

    def scaled(self, c) -> "ExactMatrix":
        return ExactMatrix(
            self.rows, self.cols, {k: c * v for k, v in self.entries.items()}
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
                s = _norm(out.get(key, 0) + v * w)
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return ExactMatrix(self.rows, other.cols, out)

    def reindexed(self, row_perm, col_perm) -> "ExactMatrix":
        """Apply basis permutations: entry (i, j) moves to (row_perm[i], col_perm[j])."""
        return ExactMatrix(
            self.rows,
            self.cols,
            {(row_perm[i], col_perm[j]): v for (i, j), v in self.entries.items()},
        )

    # -- rank ---------------------------------------------------------------

    def rank(self) -> int:
        rows: dict[int, dict] = {}
        cols: dict[int, set] = {}
        for (i, j), v in sorted(self.entries.items()):
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
        rank = 0
        while cols:
            # cheapest active column, then its best row: unit pivot first,
            # then fewest entries; index-ordered ties
            c = min(cols, key=lambda j: (len(cols[j]), j))
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
                f = row[c] if pv == 1 else (-row[c] if pv == -1 else _norm(Fraction(row[c]) / pv))
                for j, pvv in pivot_row.items():
                    new = _norm(row.get(j, 0) - f * pvv)
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
            rank += 1
        return rank

    # -- debug dump ----------------------------------------------------------

    def dump(self) -> str:
        """Text dump: header 'rows cols nnz', then 'i j numerator/denominator' lines."""
        lines = [f"{self.rows} {self.cols} {self.nnz}"]
        for (i, j) in sorted(self.entries):
            v = Fraction(self.entries[(i, j)])
            lines.append(f"{i} {j} {v.numerator}/{v.denominator}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse_dump(text: str) -> "ExactMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        rows, cols, nnz = (int(x) for x in lines[0].split())
        entries = {}
        for ln in lines[1 : nnz + 1]:
            si, sj, sv = ln.split()
            num, den = sv.split("/")
            entries[(int(si), int(sj))] = Fraction(int(num), int(den))
        return ExactMatrix(rows, cols, entries)


@dataclass(frozen=True)
class ChainComplex:
    """A finite complex 0 -> V_0 -> V_1 -> ... -> V_k -> 0 of Q-vector spaces.

    `diffs[i]` maps V_i to V_{i+1}; d∘d = 0 is verified at construction and
    a violation raises ExactnessError (it means the builder's signs or
    indexing are wrong, so computing anything further would be meaningless).
    """

    terms: tuple[int, ...]
    diffs: tuple[ExactMatrix, ...]
    _rank_cache: dict = field(default_factory=dict, compare=False, repr=False)

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

    def _rank(self, i: int) -> int:
        if i not in self._rank_cache:
            self._rank_cache[i] = self.diffs[i].rank()
        return self._rank_cache[i]

    def homology_dims(self) -> tuple[int, ...]:
        """dim H_i = dim V_i - rank(d_i) - rank(d_{i-1}), off-end ranks zero."""
        out = []
        for i, t in enumerate(self.terms):
            r_out = self._rank(i) if i < len(self.diffs) else 0
            r_in = self._rank(i - 1) if i > 0 else 0
            h = t - r_out - r_in
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

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * t for i, t in enumerate(self.terms))
