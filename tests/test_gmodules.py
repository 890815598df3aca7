"""Pullback matrices and Steinberg resolutions."""

import pytest

from drincoh.gmodules import (
    pullback_matrix,
    steinberg_dim,
    steinberg_resolution,
)
from drincoh.homalg import ExactMatrix
from drincoh.qarith import parabolic_index
from drincoh.rootdata import ParabolicType, subsets_of_size


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
    assert pullback_matrix(I, I, 2) == ExactMatrix.identity(7)


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
                    assert pullback_matrix(I, J, q) @ pullback_matrix(
                        J, L, q
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
    assert steinberg_resolution(ParabolicType.empty(1), 2).dim_v == 2
    data = steinberg_resolution(ParabolicType.empty(2), 2)
    assert data.dim_v == 8
    assert data.resolution.terms == (1, 14, 21)
    assert steinberg_resolution(ParabolicType.of(2, [0]), 2).dim_v == 6
    assert steinberg_resolution(ParabolicType.empty(3), 2).dim_v == 64


def test_steinberg_resolution_exact_except_augmentation():
    for n, q in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        for mask in range((1 << n) - 1):
            J = ParabolicType(n, mask)
            data = steinberg_resolution(J, q)
            dims = data.resolution.homology_dims()
            assert all(h == 0 for h in dims[:-1])
            assert dims[-1] == data.dim_v == steinberg_dim(J, q)


def test_steinberg_resolution_rejects_full_subset():
    with pytest.raises(ValueError):
        steinberg_resolution(ParabolicType.full(2), 2)


def test_sum_of_larger_inductions_has_top_differential_rank():
    # the image of the final differential is the full sum of the images of
    # the pullbacks from all strictly larger parabolics, not just the covers
    n, q = 2, 2
    J = ParabolicType.empty(n)
    data = steinberg_resolution(J, q)
    top = data.resolution.diffs[-1]
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
    assert parabolic_index(J, q) - top.rank() == data.dim_v


def test_resolution_levels_metadata():
    data = steinberg_resolution(ParabolicType.empty(2), 2)
    assert data.levels[0] == (ParabolicType.full(2),)
    assert data.levels[-1] == (ParabolicType.empty(2),)
