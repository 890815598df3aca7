"""Pullback matrices, Steinberg resolutions and the block d∘d check."""

import itertools
import random

import pytest

from drincoh import gmodules, orlik
from drincoh.errors import DeskScaleExceeded, ExactnessError
from drincoh.gmodules import (
    lattice_complex,
    pullback_matrix,
    steinberg_dim,
    steinberg_resolution,
)
from drincoh.homalg import ExactMatrix
from drincoh.orlik import build_function_complex, e2_page
from drincoh.qarith import parabolic_index
from drincoh.rootdata import ParabolicType, subsets_of_size
from oracles import (
    cover_matrix,
    identity,
    materialized,
    matmul,
    read_covers,
    reference_dd_failure,
    reindexed,
    reported_dd_failure,
)


def inclusion_exclusion_dim(J, q):
    """Independent oracle: alternating sum of indices over the interval [J, Δ]."""
    n = J.n
    total = 0
    for mask in range(1 << n):
        I = ParabolicType(n, mask)
        if I.contains(J):
            total += (-1) ** (I.size - J.size) * parabolic_index(I, q)
    return total


def test_pullback_identity():
    I = ParabolicType.of(2, [0])
    assert pullback_matrix(I, I, 2) == identity(7)


def test_pullback_constants():
    M = pullback_matrix(ParabolicType.empty(1), ParabolicType.full(1), 2)
    assert (M.rows, M.cols) == (3, 1)
    assert all(v == 1 for v in M.entries.values()) and M.nnz == 3


def test_pullback_shape_properties():
    M = pullback_matrix(ParabolicType.empty(2), ParabolicType.of(2, [0]), 2)
    assert (M.rows, M.cols) == (21, 7)
    per_row = {}
    col_sums = [0] * 7
    for (i, j), v in M.entries.items():
        assert v == 1
        per_row[i] = per_row.get(i, 0) + 1
        col_sums[j] += 1
    assert all(c == 1 for c in per_row.values()) and len(per_row) == 21
    assert col_sums == [3] * 7


def test_pullback_rejects_non_nested():
    with pytest.raises(ValueError):
        pullback_matrix(ParabolicType.of(2, [0]), ParabolicType.of(2, [1]), 2)


def test_pullback_functoriality_exhaustive_small():
    n, q = 2, 2
    all_subsets = [ParabolicType(n, m) for m in range(1 << n)]
    for I in all_subsets:
        for J in all_subsets:
            for L in all_subsets:
                if L.contains(J) and J.contains(I):
                    assert matmul(
                        pullback_matrix(I, J, q), pullback_matrix(J, L, q)
                    ) == pullback_matrix(I, L, q)


def test_steinberg_dim_examples():
    assert steinberg_dim(ParabolicType.empty(1), 3) == 3
    assert steinberg_dim(ParabolicType.of(2, [1]), 2) == 6
    assert steinberg_dim(ParabolicType.empty(2), 3) == 27
    assert steinberg_dim(ParabolicType.full(2), 5) == 1  # trivial module


def test_steinberg_dim_closed_form_is_inclusion_exclusion():
    for n in (1, 2, 3):
        for q in (2, 3):
            for mask in range(1 << n):
                J = ParabolicType(n, mask)
                assert steinberg_dim(J, q) == inclusion_exclusion_dim(J, q)


def test_steinberg_dim_of_borel_is_q_power():
    for n in (1, 2, 3):
        for q in (2, 3):
            assert steinberg_dim(ParabolicType.empty(n), q) == q ** (n * (n + 1) // 2)


def test_steinberg_resolution_examples():
    assert steinberg_resolution(ParabolicType.empty(1), 2)[-1] == 2
    assert steinberg_resolution(ParabolicType.empty(2), 2)[-1] == 8
    assert lattice_complex(ParabolicType.empty(2), 2)[1].terms == (1, 14, 21)
    assert steinberg_resolution(ParabolicType.of(2, [0]), 2)[-1] == 6
    assert steinberg_resolution(ParabolicType.empty(3), 2)[-1] == 64


def test_steinberg_resolution_exact_except_augmentation():
    for n, q in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        for mask in range((1 << n) - 1):
            J = ParabolicType(n, mask)
            homology = steinberg_resolution(J, q)
            dims = lattice_complex(J, q)[1].homology_dims()
            assert all(h == 0 for h in dims[:-1])
            assert dims[-1] == homology[-1] == steinberg_dim(J, q)


def test_steinberg_resolution_rejects_full_subset():
    with pytest.raises(ValueError):
        steinberg_resolution(ParabolicType.full(2), 2)


def test_sum_of_larger_inductions_has_top_differential_rank():
    # the image of the final differential is the full sum of the images of
    # the pullbacks from all strictly larger parabolics, not just the covers
    n, q = 2, 2
    J = ParabolicType.empty(n)
    top = lattice_complex(J, q)[1].diffs[-1]
    larger = [
        I
        for c in range(J.size + 1, n + 1)
        for I in subsets_of_size(n, c, proper=False)
        if I.contains(J)
    ]
    # glue columns side by side: rank of [P_{J,I1} | P_{J,I2} | ...]
    side_by_side = ExactMatrix.from_blocks(
        [parabolic_index(J, q)],
        [parabolic_index(I, q) for I in larger],
        {(0, bi): pullback_matrix(J, I, q) for bi, I in enumerate(larger)},
    )
    assert side_by_side.rank() == top.rank()
    assert parabolic_index(J, q) - top.rank() == steinberg_resolution(J, q)[-1]


def test_resolution_levels_metadata():
    levels = lattice_complex(ParabolicType.empty(2), 2)[0]
    assert levels[0] == (ParabolicType.full(2),)
    assert levels[-1] == (ParabolicType.empty(2),)


def test_flag_guard_stops_resolutions_and_pullbacks():
    # flag_keys checks the flag guard, so these fail before any matrix:
    # |G/B| is 615195 at (5,2) and 251680 at (4,3)
    with pytest.raises(DeskScaleExceeded):
        steinberg_resolution(ParabolicType.empty(5), 2)
    with pytest.raises(DeskScaleExceeded):
        pullback_matrix(ParabolicType.empty(4), ParabolicType.of(4, [0]), 3)


def test_flag_guard_comes_before_the_subset_lattice(monkeypatch):
    # the lattice builders check the guard before listing the 2^n subsets,
    # so an oversize (n, q) never reaches subsets_of_size
    def refuse(*args, **kwargs):
        raise AssertionError("subsets listed before the flag guard")

    monkeypatch.setattr(gmodules, "subsets_of_size", refuse)
    with pytest.raises(DeskScaleExceeded):
        steinberg_resolution(ParabolicType.empty(5), 2)
    with pytest.raises(DeskScaleExceeded):
        e2_page(5, 2)


# -- the block d∘d check against the reference product ------------------------------


@pytest.fixture
def checked(monkeypatch):
    """Every (cover forms, blocks) the builders pass to check_block_dd."""
    calls = []

    def recording(covers, blocks, _check=gmodules.check_block_dd):
        covers = tuple(covers)
        calls.append((covers, blocks))
        return _check(covers, blocks)

    for mod in (gmodules, orlik):
        monkeypatch.setattr(mod, "check_block_dd", recording)
    return calls


def test_block_dd_check_matches_reference_product_on_desk_complexes(checked):
    points = [(n, q) for n in (1, 2, 3) for q in (2, 3)] + [(4, 2)]
    for n, q in points:
        for mask in range((1 << n) - 1):
            lattice_complex(ParabolicType(n, mask), q)
    for n, q in points[:-1]:
        for m in (1, 2):
            build_function_complex(n, q, m)
    lattice = sum(2**n - 1 for n, _ in points)
    assert len(checked) == lattice + 12
    for covers, blocks in checked:
        diffs = [cover_matrix(form, sum(size for _, size in blocks[t]))
                 for t, form in enumerate(covers)]
        # the builders' block sizes tile every term, and every pair is zero
        assert [sum(size for _, size in term) for term in blocks] == [
            diffs[0].cols, *(d.rows for d in diffs)
        ]
        assert reference_dd_failure(diffs) is None
        assert reported_dd_failure(diffs, blocks) is None


def test_lattice_nnz_is_the_nnz_of_the_built_complex():
    # each type-I flag's row holds one entry per cover I ∪ {a}, so the
    # differentials hold Σ_{J⊆I⊊Δ} (n-#I)·[G:P_I] nonzeros
    points = [(n, q) for n in (1, 2, 3) for q in (2, 3)] + [(4, 2)]
    points += [(n, q) for n in (1, 2) for q in (5, 7)]
    for n, q in points:
        for mask in range((1 << n) - 1):
            J = ParabolicType(n, mask)
            levels, cx = lattice_complex(J, q)
            nnz = sum((n - I.size) * parabolic_index(I, q) for level in levels for I in level)
            assert nnz == sum(d.nnz for d in cx.diffs), (n, q, J)


def test_read_covers_returns_the_maps_the_writer_wrote(monkeypatch, checked):
    written = []

    def recording(csr, signs, images, size, _write=gmodules.write_covers):
        images = [list(image) for image in images]
        written.append(list(zip(signs, images)))
        return _write(csr, signs, images, size)

    monkeypatch.setattr(gmodules, "write_covers", recording)
    points = [(n, q) for n in (1, 2, 3) for q in (2, 3)] + [(4, 2)]
    for n, q in points:
        for mask in range((1 << n) - 1):
            written.clear()
            lattice_complex(ParabolicType(n, mask), q)
            covers, _ = checked[-1]
            read = [[(sign, image) for _, sign, image in block] for form in covers for block in form]
            assert written and read == written
    # the function complex writes no CSR; its cover forms, written by the
    # reference materializer and read back, are the forms it checked
    written.clear()
    for n, q in points[:-1]:
        for m in (1, 2):
            build_function_complex(n, q, m)
            covers, blocks = checked[-1]
            assert not written
            diffs = [cover_matrix(form, sum(size for _, size in blocks[t]))
                     for t, form in enumerate(covers)]
            assert list(read_covers(diffs, blocks)) == [list(form) for form in covers]
    assert len(checked) == sum(2**n - 1 for n, _ in points) + 12


def _covers(d, rows):
    """(s, e, w) for each nonempty row block of d: its entries lie at
    s..e-1, w to a row."""
    out, r = [], 0
    for _, size in rows:
        s, e = d.indptr[r], d.indptr[r + size]
        if size:
            out.append((s, e, (e - s) // size))
        r += size
    return out


def _mutate(d, indices=None, data=None):
    return ExactMatrix(d.rows, d.cols, d.indptr, indices or d.indices, data or d.data)


def _flipped_entry(d, rows, cols):
    s, e, w = next(c for c in _covers(d, rows) if c[1] - c[0] > c[2])
    data = list(d.data)
    data[s + w] = -data[s + w]  # entry 0 of the block's second row
    return _mutate(d, data=data)


def _scaled_entry(d, rows, cols):
    s, e, w = next(c for c in _covers(d, rows) if c[1] - c[0] > c[2])
    data = list(d.data)
    data[s] *= 2
    return _mutate(d, data=data)


def _dropped_entry(d, rows, cols):
    s, e, w = _covers(d, rows)[0]
    indptr = d.indptr[:1] + [k - (k > s) for k in d.indptr[1:]]
    return ExactMatrix(d.rows, d.cols, indptr, d.indices[:s] + d.indices[s + 1:],
                                d.data[:s] + d.data[s + 1:])


def _flipped_cover_sign(d, rows, cols):
    s, e, w = _covers(d, rows)[0]
    data = list(d.data)
    data[s:e:w] = [-v for v in data[s:e:w]]
    return _mutate(d, data=data)


def _swapped_columns(d, rows, cols):
    for s, e, w in _covers(d, rows):
        image = d.indices[s:e:w]
        other = next((i for i, c in enumerate(image) if c != image[0]), None)
        if other is not None:
            indices = list(d.indices)
            indices[s], indices[s + w * other] = image[other], image[0]
            return _mutate(d, indices=indices)
    raise AssertionError("no cover map with two distinct columns")


def _shifted_cover(d, rows, cols):
    # cover k moves to a neighbouring column block that holds no other cover
    # of its rows, as far as the block's size allows
    col_off = list(itertools.accumulate((size for _, size in cols), initial=0))
    block_of = {c: j for j in range(len(cols)) for c in range(col_off[j], col_off[j + 1])}
    for s, e, w in _covers(d, rows):
        used = [block_of[c] for c in d.indices[s:s + w]]
        for k, j in enumerate(used):
            for nb in (j - 1, j + 1):
                if not 0 <= nb < len(cols) or nb in used:
                    continue
                image = d.indices[s + k:e:w]
                if max(image) - col_off[j] >= cols[nb][1]:
                    continue
                order = sorted([*used[:k], nb, *used[k + 1:]])
                if order != [*used[:k], nb, *used[k + 1:]]:
                    continue
                indices = list(d.indices)
                indices[s + k:e:w] = [c - col_off[j] + col_off[nb] for c in image]
                return _mutate(d, indices=indices)
    raise AssertionError("no cover can move to a neighbouring block")


MUTATIONS = {
    "dropped entry": (_dropped_entry, "rows hold different numbers of entries"),
    "flipped entry": (_flipped_entry, "is not one constant sign"),
    "scaled entry": (_scaled_entry, "is not one constant sign"),
    "flipped cover sign": (_flipped_cover_sign, None),
    "swapped columns": (_swapped_columns, None),
    "shifted cover": (_shifted_cover, None),
}


def _complex_and_blocks(kind, checked):
    # the function complex is mutated in its materialized CSR, and both
    # kinds are read back by _read_covers, as lattice_complex reads them
    if kind == "lattice":
        diffs = lattice_complex(ParabolicType.empty(3), 2)[1].diffs
    else:
        diffs = materialized(build_function_complex(3, 2, 1)).diffs
    covers, blocks = checked[-1]
    assert tuple(read_covers(diffs, blocks)) == covers
    return diffs, blocks


@pytest.mark.parametrize("kind", ["lattice", "function"])
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_block_dd_check_rejects_mutations(name, kind, checked):
    mutation, layout_error = MUTATIONS[name]
    diffs, blocks = _complex_and_blocks(kind, checked)
    t = 1  # a middle differential: d_0∘... and ...∘d_2 both see it
    mutated = list(diffs)
    mutated[t] = mutation(diffs[t], blocks[t + 1], blocks[t])
    assert mutated[t] != diffs[t]
    want = reference_dd_failure(mutated)
    assert want is not None  # every mutation is a real d∘d failure
    if layout_error:
        where = rf"^d∘d check: d_{t}, row block \S+: .*{layout_error}"
        with pytest.raises(ExactnessError, match=where):
            gmodules.check_block_dd(read_covers(mutated, blocks), blocks)
    else:
        assert reported_dd_failure(mutated, blocks) == want


def test_block_dd_check_rejects_a_permuted_basis():
    # d∘d = 0 still holds, but the layout no longer fits: the intended strictness
    rng = random.Random(17)
    levels, cx = lattice_complex(ParabolicType.empty(2), 2)
    blocks = [[(I.subset_str(), parabolic_index(I, 2)) for I in level] for level in levels]
    perms = [rng.sample(range(t), t) for t in cx.terms]
    diffs = [reindexed(d, perms[i + 1], perms[i]) for i, d in enumerate(cx.diffs)]
    assert reference_dd_failure(diffs) is None
    # the columns are checked by check_block_dd after _read_covers, whose
    # constant-sign check sees the permuted layout first
    where = r"^d∘d check: d_1, row block \{\}: entry 0 of its rows is not one constant sign"
    with pytest.raises(ExactnessError, match=where):
        gmodules.check_block_dd(read_covers(diffs, blocks), blocks)
