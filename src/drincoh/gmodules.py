"""Permutation modules on flag varieties and generalized Steinberg data.

The induced module Ind_{P_I}^G K is modeled as the space of K-valued
functions on the flag set of type I, in its canonical order.  Pullback
along coset projections gives the 0/1 matrices out of which all complexes
downstream are assembled.

The generalized Steinberg representation attached to J is the quotient of
Ind_{P_J}^G K by the sum of the inductions from all strictly larger
parabolics.  Its dimension is computed twice: as the top cokernel of the
explicit resolution and by inclusion-exclusion over the interval [J, Δ] of
the subset lattice.

This module owns the one walk over the subset lattice (lattice_rows): the
Steinberg resolutions and, expanded to points, orlik's function complex are
built from it, and the one d∘d check (check_block_dd) reads both as cover
forms: per row block, its covers (b, sign, image), each a map of its rows
into column block b with one sign.  Only the resolutions, being ranked, are
written in CSR (write_covers: cover k of a row block of w entries per row
is the slice indices[s+k:e:w]) and read back (_read_covers).  Each is built,
ranked and checked once per (J, q) and run: steinberg_resolution keeps
only its verified homology, and orlik reads the E1 rows from that.  The
closed forms parabolic_index and steinberg_dim are cached per (I, q).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, pairwise, repeat
from operator import sub

from .errors import ExactnessError
from .ffgeom import check_flag_guard, flag_keys, forget_map
from .homalg import ChainComplex, ExactMatrix
from .qarith import parabolic_index
from .rootdata import ParabolicType, cover_sign, subsets_of_size


def pullback_matrix(I: ParabolicType, J: ParabolicType, q: int) -> ExactMatrix:
    """Matrix of precomposition with G/P_I -> G/P_J on function spaces.

    Maps functions on type-J flags to functions on type-I flags: one 1 per
    row, at the column of the row flag's image under forgetting.  Requires
    I ⊆ J; forget_map raises ValueError otherwise.
    """
    image = forget_map(I, J, q)
    rows = len(image)
    return ExactMatrix(
        rows, len(flag_keys(J, q)), list(range(rows + 1)), list(image), [1] * rows
    )


def interval_levels(J: ParabolicType) -> list[list[ParabolicType]]:
    """Subsets I with J ⊆ I ⊆ Δ, grouped by codimension #(Δ∖I) = 0..n-#J."""
    n = J.n
    return [
        subsets_of_size(n, n - c, containing=J, proper=False)
        for c in range(n - J.size + 1)
    ]


def lattice_rows(sources: list[ParabolicType], targets: list[ParabolicType],
                 dims: dict[ParabolicType, int], q: int):
    """For each target I: its covers J = I ∪ {a} among the sources, their
    signs cover_sign(I, a) and their column maps, each forget_map(I, J, q)
    (one column per type-I flag) shifted by J's offset, as an iterator.
    Covers go in source order, so the columns of each row come out sorted
    and line up with the signs.
    """
    col_off = list(accumulate((dims[J] for J in sources), initial=0))
    for I in targets:
        covers, signs, images = [], [], []
        for J, off in zip(sources, col_off):
            diff = J.mask & ~I.mask
            if J.contains(I) and diff.bit_count() == 1:
                image = forget_map(I, J, q)
                if len(image) != dims[I] or len(flag_keys(J, q)) != dims[J]:
                    raise ValueError(f"block ({I.subset_str()}, {J.subset_str()}) has wrong shape")
                covers.append(J)
                signs.append(cover_sign(I, diff.bit_length() - 1))
                images.append(map(off.__add__, image))
        yield covers, signs, images


def write_covers(csr: tuple[list, list, list], signs: list[int], images, size: int) -> None:
    """Append a row block of `size` rows to the CSR lists csr = (indptr,
    indices, data): entry k of every row is cover k, whose columns are
    images[k] (one per row, any iterable) and whose value is signs[k].
    Cover k is written with one slice assignment, indices[s+k:e:w] = image,
    which is the slice _read_covers reads it back from.
    """
    indptr, indices, data = csr
    w, s = len(signs), len(indices)
    e = s + w * size
    indices += repeat(0, e - s)
    for k, image in enumerate(images, s):
        indices[k:e:w] = image
    data += signs * size
    indptr += range(s + w, e + 1, w) if w else repeat(s, size)


def lattice_differential(
    sources: list[ParabolicType],
    targets: list[ParabolicType],
    dims: dict[ParabolicType, int],
    q: int,
) -> ExactMatrix:
    """Signed block matrix of pullbacks for one layer of the subset lattice.

    Block (I, J) is cover_sign(I, a) * pullback(I, J) when J = I ∪ {a},
    zero otherwise.  Each row block I is written by write_covers from
    lattice_rows' column maps, one entry per cover in every row.
    """
    csr = [0], [], []
    for I, (_, signs, images) in zip(targets, lattice_rows(sources, targets, dims, q)):
        write_covers(csr, signs, images, dims[I])
    cols = sum(dims[J] for J in sources)
    return ExactMatrix(len(csr[0]) - 1, cols, *csr)


def _read_covers(d: ExactMatrix, t: int, rows, cols) -> list[list[tuple]]:
    """The cover form of d = d_t, `rows` and `cols` the (label, size) blocks
    of its target and source: in a row block of w entries per row, cover k
    is entry k of every row, b the block of its first column.  Rows of
    unequal length or a cover of two values raise ExactnessError."""
    col_off = list(accumulate((size for _, size in cols), initial=0))
    n_rows = sum(size for _, size in rows)
    if (d.rows, d.cols) != (n_rows, col_off[-1]):
        raise ExactnessError(
            f"d∘d check: d_{t} is {d.rows}x{d.cols}, its blocks give {n_rows}x{col_off[-1]}"
        )
    ptr, idx, val = d.indptr, d.indices, d.data
    out, r = [], 0
    for label, size in rows:
        s, e = ptr[r], ptr[r + size]
        w = (e - s) // size if size else 0
        if ptr[r:r + size + 1] != (list(range(s, e + 1, w)) if w else [s] * (size + 1)):
            raise ExactnessError(
                f"d∘d check: d_{t}, row block {label}: rows hold different numbers of entries"
            )
        covers = []
        for k in range(w):
            sign = val[s + k]
            if val[s + k:e:w].count(sign) != size:
                raise ExactnessError(
                    f"d∘d check: d_{t}, row block {label}: entry {k} of its rows "
                    "is not one constant sign"
                )
            covers.append((bisect_right(col_off, idx[s + k]) - 1, sign, idx[s + k:e:w]))
        out.append(covers)
        r += size
    return out


def check_covers(covers, t: int, rows, cols, check: str) -> None:
    """Raise ExactnessError, prefixed by `check`, unless each cover (b, sign,
    image) of the form `covers` of d_t maps its row block into block b."""
    col_off = list(accumulate((size for _, size in cols), initial=0))
    if len(covers) != len(rows):
        raise ExactnessError(f"{check}: d_{t} has {len(covers)} row blocks, not {len(rows)}")
    for (label, size), block in zip(rows, covers):
        for k, (b, _, image) in enumerate(block):
            if len(image) != size or not 0 <= b < len(cols) or image and (
                min(image) < col_off[b] or max(image) >= col_off[b + 1]
            ):
                raise ExactnessError(f"{check}: d_{t}, row block {label}: entry {k} of its "
                                     f"rows does not map its {size} rows into block {b}")


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


def _check_pair(low, high, t: int, blocks) -> None:
    """d_{t+1}∘d_t = 0 from the covers of d_t (low) and d_{t+1} (high).

    For a row block L of d_{t+1} and a column block K of d_t, block (L, K)
    of the product is the sum over the paths K -> J -> L of the signed
    composite maps.  Two paths with equal maps and opposite signs cancel;
    any other block is summed row by row, and the first nonzero entry of
    the product (by row, then column) raises ExactnessError.
    """
    mid_off = list(accumulate((size for _, size in blocks[t + 1]), initial=0))
    row0 = 0
    for (label, size), covers in zip(blocks[t + 2], high):
        paths: dict[int, list] = {}
        for j, s1, image1 in covers:
            # d_t's images are indexed by the rows of block J
            local = list(map(sub, image1, repeat(mid_off[j]))) if mid_off[j] else image1
            for b, s2, image2 in low[j]:
                paths.setdefault(b, []).append((s1 * s2, list(map(image2.__getitem__, local))))
        bad = []
        for b, group in paths.items():
            if len(group) == 2 and group[0][0] == -group[1][0] and group[0][1] == group[1][1]:
                continue
            first = _first_nonzero_row(group)
            if first is not None:
                bad.append((*first, blocks[t][b][0]))
        if bad:
            r, c, v, source = min(bad)
            raise ExactnessError(
                f"d∘d != 0 between positions {t} and {t + 2}, blocks (K, L) = "
                f"({source}, {label}): entry ({row0 + r},{c}) of d_{t + 1}∘d_{t} is {v}"
            )
        row0 += size


def check_block_dd(covers, blocks) -> None:
    """Check d∘d = 0 for the cover forms `covers` of d_t, term t to t+1, each
    checked first against the (label, size) blocks `blocks[t]` of each term.
    Only two adjacent forms of the iterable `covers` are held at a time."""
    low = None
    for t, high in enumerate(covers):
        check_covers(high, t, blocks[t + 1], blocks[t], "d∘d check")
        if low is not None:
            _check_pair(low, high, t - 1, blocks)
        low = high


def lattice_complex(J: ParabolicType, q: int) -> tuple[tuple, ChainComplex]:
    """The levels interval_levels(J) and the complex over them of
    ⊕ Ind_{P_I}^G K, level by level, with lattice_differential between.  The
    flag guard comes first, before any subset is listed.  d∘d = 0 is checked
    by check_block_dd, one block per subset, on the covers read back from
    the CSR; a failure is raised again naming J and q."""
    check_flag_guard(J.n, q)
    levels = tuple(map(tuple, interval_levels(J)))
    dims = {I: parabolic_index(I, q) for level in levels for I in level}
    terms = tuple(sum(dims[I] for I in level) for level in levels)
    diffs = tuple(lattice_differential(*pair, dims, q) for pair in pairwise(levels))
    cx = ChainComplex(terms, diffs)
    blocks = [[(I.subset_str(), dims[I]) for I in level] for level in levels]
    try:
        check_block_dd(
            (_read_covers(d, t, blocks[t + 1], blocks[t]) for t, d in enumerate(diffs)), blocks
        )
    except ExactnessError as exc:
        raise ExactnessError(f"lattice complex J={J.subset_str()}, q={q}: {exc}") from exc
    return levels, cx


@lru_cache(maxsize=None)
def steinberg_dim(J: ParabolicType, q: int) -> int:
    """Inclusion-exclusion dimension of the generalized Steinberg module of J.

    Sum of (-1)^{#I - #J} [G : P_I] over J ⊆ I ⊆ Δ.  For J = Δ this is the
    trivial module, dimension 1.  Cached per (J, q) and process, like
    parabolic_index; a failed sum raises again on the next call.
    """
    total = 0
    for levels in interval_levels(J):
        for I in levels:
            sign = -1 if (I.size - J.size) % 2 else 1
            total += sign * parabolic_index(I, q)
    if total <= 0:
        raise ExactnessError("inclusion-exclusion must give a positive dimension")
    return total


@lru_cache(maxsize=None)
def steinberg_resolution(J: ParabolicType, q: int) -> tuple[int, ...]:
    """Build, rank and verify the resolution of the generalized Steinberg
    module of J; return its homology (0, ..., 0, dim v(J)).

    The complex is lattice_complex(J, q): ⊕ Ind_{P_I}^G K over J ⊆ I ⊆ Δ,
    graded by #(Δ∖I) from 0 (the constants, I = Δ) to n-#J (I = J itself).
    It must be exact everywhere except at the final position, whose
    cokernel is the Steinberg module; any other homology, or a cokernel
    dimension other than steinberg_dim, raises ExactnessError.  Only the
    homology is kept, once per (J, q) and process; a failed build is not
    cached, so it raises again on the next call.
    """
    if not J.is_proper:
        raise ValueError("the full subset has no resolution (trivial module)")
    homology = lattice_complex(J, q)[1].homology_dims()
    if any(homology[:-1]):
        raise ExactnessError(
            f"Steinberg resolution for J={J.subset_str()}, q={q} is not exact: "
            f"homology {homology}"
        )
    expected = steinberg_dim(J, q)
    if homology[-1] != expected:
        raise ExactnessError(
            f"Steinberg cokernel dim {homology[-1]} != inclusion-exclusion value {expected} "
            f"for J={J.subset_str()}, q={q}"
        )
    return homology


# bound to the cache itself, so it still works where a wrapper replaced
# steinberg_resolution
clear_resolutions = steinberg_resolution.cache_clear
