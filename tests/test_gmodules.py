"""Pullback matrices, Steinberg resolutions and the block d∘d check."""

import itertools
import random

import pytest

from drincoh import gmodules
from drincoh.errors import DeskScaleExceeded, ExactnessError
from drincoh.gmodules import (
    lattice_complex,
    pullback_matrix,
    steinberg_resolution,
)
from drincoh.homalg import ChainComplex, ExactMatrix
from drincoh.orlik import build_function_complex, e2_page
from drincoh.qarith import parabolic_index, steinberg_dim
from drincoh.rootdata import ParabolicType, subsets_of_size
from oracles import (
    form_matrix,
    identity,
    matmul,
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
    """The differentials of every ChainComplex whose constructor's checks,
    d∘d = 0 among them, passed."""
    calls = []
    check = ChainComplex.__post_init__

    def recording(cx):
        check(cx)
        calls.append(cx.diffs)

    monkeypatch.setattr(ChainComplex, "__post_init__", recording)
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
    built = list(checked)  # reported_dd_failure builds complexes of its own
    assert len(built) == lattice + 12
    for diffs in built:
        # adjacent differentials share each term's blocks, and every pair is zero
        assert [d.row_blocks for d in diffs[:-1]] == [d.col_blocks for d in diffs[1:]]
        assert reference_dd_failure(diffs) is None
        assert reported_dd_failure(diffs) is None


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


def test_lattice_complex_checks_the_covers_rank_reads(checked, monkeypatch):
    # the d∘d check reads the very matrices that rank reads, not copies
    ranked = []
    rank = ExactMatrix.rank
    monkeypatch.setattr(ExactMatrix, "rank", lambda M, **kw: ranked.append(M) or rank(M, **kw))
    points = [(n, q) for n in (1, 2, 3) for q in (2, 3)] + [(4, 2)]
    for n, q in points:
        for mask in range((1 << n) - 1):
            ranked.clear()
            levels, cx = lattice_complex(ParabolicType(n, mask), q)
            cx.homology_dims()
            diffs = checked[-1]
            assert len(diffs) == len(ranked) == len(cx.diffs)
            assert all(d is M for d, M in zip(diffs, ranked))
    assert len(checked) == sum(2**n - 1 for n, _ in points)


def _first_block(form):
    """The index of the first row block with a cover."""
    return next(k for k, block in enumerate(form) if block)


def _replaced(form, k, block):
    return [block if i == k else b for i, b in enumerate(form)]


def _dropped_entry(form, rows, cols):
    # the first cover of a block loses the column of its last row
    k = _first_block(form)
    (b, sign, image), *rest = form[k]
    return _replaced(form, k, [(b, sign, image[:-1]), *rest])


def _scaled_entry(form, rows, cols):
    # the value of the last cover of the last block is doubled
    k = len(form) - 1
    *rest, (b, sign, image) = form[k]
    return _replaced(form, k, [*rest, (b, 2 * sign, image)])


def _flipped_cover_sign(form, rows, cols):
    k = _first_block(form)
    (b, sign, image), *rest = form[k]
    return _replaced(form, k, [(b, -sign, image), *rest])


def _swapped_columns(form, rows, cols):
    for k, block in enumerate(form):
        for c, (b, sign, image) in enumerate(block):
            other = next((i for i, col in enumerate(image) if col != image[0]), None)
            if other is not None:
                image = list(image)
                image[0], image[other] = image[other], image[0]
                return _replaced(form, k, [*block[:c], (b, sign, image), *block[c + 1:]])
    raise AssertionError("no cover map with two distinct columns")


def _shifted_cover(form, rows, cols):
    # a cover moves to a neighbouring column block that holds no other cover
    # of its rows, as far as the block's size allows
    col_off = list(itertools.accumulate((size for _, size in cols), initial=0))
    for k, block in enumerate(form):
        used = [b for b, _, _ in block]
        for c, (j, sign, image) in enumerate(block):
            for nb in (j - 1, j + 1):
                if not 0 <= nb < len(cols) or nb in used:
                    continue
                if max(image) - col_off[j] >= cols[nb][1]:
                    continue
                moved = (nb, sign, [col - col_off[j] + col_off[nb] for col in image])
                return _replaced(form, k, [*block[:c], moved, *block[c + 1:]])
    raise AssertionError("no cover can move to a neighbouring block")


MUTATIONS = {
    "dropped entry": (_dropped_entry, "does not map its"),
    "scaled entry": (_scaled_entry, None),
    "flipped cover sign": (_flipped_cover_sign, None),
    "swapped columns": (_swapped_columns, None),
    "shifted cover": (_shifted_cover, None),
}


def _checked_diffs(kind, checked):
    if kind == "lattice":
        lattice_complex(ParabolicType.empty(3), 2)
    else:
        build_function_complex(3, 2, 1)
    return checked[-1]


@pytest.mark.parametrize("kind", ["lattice", "function"])
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_block_dd_check_rejects_mutations(name, kind, checked):
    mutation, layout_error = MUTATIONS[name]
    diffs = list(_checked_diffs(kind, checked))
    t = 1  # a middle differential: d_0∘... and ...∘d_2 both see it
    d = diffs[t]
    form = mutation(d.covers, d.row_blocks, d.col_blocks)
    assert form != d.covers
    want = reference_dd_failure([
        form_matrix(form, d.row_blocks, d.col_blocks) if u == t else e for u, e in enumerate(diffs)
    ])
    assert want is not None  # every mutation is a real d∘d failure
    if layout_error:
        # the constructor rejects a form that the d∘d check could not read
        with pytest.raises(ExactnessError, match=rf"^row block \S+: .*{layout_error}"):
            ExactMatrix(d.row_blocks, d.col_blocks, form)
    else:
        diffs[t] = ExactMatrix(d.row_blocks, d.col_blocks, form)
        assert reported_dd_failure(diffs) == want


def test_chain_complex_rejects_blocks_that_differ_on_a_shared_term():
    # d_0 splits term 1 of the edge's complex as 1 + 1, d_1 reads it as one
    # block of 2: the products agree entry by entry, the layouts do not
    d0 = ExactMatrix([("a", 1), ("b", 1)], [("Y", 1)], [[(0, 1, [0])], [(0, 1, [0])]])
    d1 = ExactMatrix([("E", 1)], [("V", 2)], [[(0, -1, [0]), (0, 1, [1])]])
    d1_split = ExactMatrix([("E", 1)], [("a", 1), ("b", 1)], [[(0, -1, [0]), (1, 1, [1])]])
    assert d1.entries == d1_split.entries
    assert reference_dd_failure([d0, d1]) is None
    ChainComplex((d0, d1_split))
    with pytest.raises(ExactnessError, match=r"^term 1's block sizes differ: \(1, 1\) in the "
                                             r"rows of d_0, \(2,\) in the columns of d_1$"):
        ChainComplex((d0, d1))
    # a later term is named too, here split as 1 + 0
    d2 = ExactMatrix([("F", 1)], [("E0", 1), ("E1", 0)], [[]])
    with pytest.raises(ExactnessError, match=r"^term 2's block sizes differ: \(1,\) in the "
                                             r"rows of d_1, \(1, 0\) in the columns of d_2$"):
        ChainComplex((d0, d1_split, d2))


def test_block_dd_check_rejects_a_permuted_basis():
    # term 1 of the (2,2) resolution of ∅ trades its blocks {a0} and {a1},
    # shuffled within: d∘d = 0 still holds, but the layout no longer fits
    rng = random.Random(17)
    levels, cx = lattice_complex(ParabolicType.empty(2), 2)
    blocks = [[(I.subset_str(), parabolic_index(I, 2)) for I in level] for level in levels]
    d0, d1 = cx.diffs
    perm = [7 + c for c in rng.sample(range(7), 7)] + rng.sample(range(7), 7)
    permuted = [reindexed(d0, perm, [0]), reindexed(d1, list(range(21)), perm)]
    assert reference_dd_failure(permuted) is None
    # each block of d_0 is one cover of the one constant column, so the
    # permuted d_0 is its two blocks traded; d_1's columns move with perm,
    # across its column blocks, so the constructor rejects its cover form
    # and the d∘d check never sees it
    forms = [d0.covers[::-1], [[(b, sign, [perm[c] for c in image]) for b, sign, image in block]
                               for block in d1.covers]]
    assert [form_matrix(form, blocks[t + 1], blocks[t]) for t, form in enumerate(forms)] == permuted
    where = r"^row block \{\}: entry 0 of its rows does not map its 21 rows into block 0$"
    with pytest.raises(ExactnessError, match=where):
        ExactMatrix(d1.row_blocks, d1.col_blocks, forms[1])
