"""Exact linear algebra: ranks against a naive oracle, homology bookkeeping."""

import random
from fractions import Fraction

import pytest

from drincoh.errors import ExactnessError
from drincoh.ffgeom import enumerate_subspaces
from drincoh.homalg import ChainComplex, ExactMatrix
from drincoh.rootdata import ParabolicType


def naive_rank(matrix: ExactMatrix) -> int:
    """Plain dense fraction elimination, written independently of the package."""
    rows = [[Fraction(0)] * matrix.cols for _ in range(matrix.rows)]
    for (i, j), v in matrix.entries.items():
        rows[i][j] = Fraction(v)
    rank = 0
    for col in range(matrix.cols):
        pivot = None
        for r in range(rank, matrix.rows):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(matrix.rows):
            if r != rank and rows[r][col]:
                f = rows[r][col] / pv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def point_line_incidence():
    """7 x 21 incidence of points of P^2(F_2) versus point-in-line pairs."""
    points = enumerate_subspaces(3, 1, 2)
    lines = enumerate_subspaces(3, 2, 2)
    pairs = [(p, l) for l in lines for p in points if l.contains(p)]
    assert len(pairs) == 21
    entries = {}
    for col, (p, l) in enumerate(pairs):
        row = points.index(p)
        entries[(row, col)] = 1
    return ExactMatrix(7, 21, entries)


def test_rank_examples():
    assert ExactMatrix.zero(3, 3).rank() == 0
    assert ExactMatrix.identity(4).rank() == 4
    M = point_line_incidence()
    assert M.rank() == naive_rank(M) == 7


def test_rank_transpose_battery():
    rng = random.Random(7)
    for trial in range(25):
        rows = rng.randrange(1, 12)
        cols = rng.randrange(1, 12)
        entries = {}
        for _ in range(rng.randrange(0, rows * cols + 1)):
            entries[(rng.randrange(rows), rng.randrange(cols))] = rng.choice(
                [-2, -1, 1, 2, Fraction(1, 2), 3]
            )
        M = ExactMatrix(rows, cols, entries)
        r = M.rank()
        assert r == naive_rank(M)
        assert r == M.transpose().rank()


def test_rank_of_tall_sparse_matrix_matches_naive():
    rng = random.Random(11)
    entries = {}
    for _ in range(600):
        entries[(rng.randrange(300), rng.randrange(40))] = rng.choice([-1, 1, 2, -3])
    M = ExactMatrix(300, 40, entries)
    assert M.rank() == naive_rank(M)


def test_sparse_path_without_unit_pivots():
    entries = {(i, j): 2 * (i + 1) if i == j else 0 for i in range(3) for j in range(3)}
    entries[(0, 1)] = 6
    M = ExactMatrix(3, 3, {k: v for k, v in entries.items() if v})
    assert M.rank() == naive_rank(M) == 3


def test_matmul_and_blocks():
    A = ExactMatrix.from_dense([[1, 2], [0, 1]])
    B = ExactMatrix.from_dense([[1, 0], [-1, 1]])
    assert A @ B == ExactMatrix.from_dense([[-1, 2], [-1, 1]])
    with pytest.raises(ValueError):
        A @ ExactMatrix.zero(3, 3)
    C = ExactMatrix.from_blocks([2, 1], [2], {(0, 0): A.scaled(1) @ B, (1, 0): ExactMatrix.from_dense([[1, 1]])})
    assert C.rows == 3 and C.cols == 2
    assert C.entries[(2, 0)] == 1 and C.entries[(2, 1)] == 1


def test_homology_examples():
    # 0 -> Q -> Q -> 0 with the identity: no homology
    cx = ChainComplex((1, 1), (ExactMatrix.identity(1),))
    assert cx.homology_dims() == (0, 0)
    # a single term survives whole
    assert ChainComplex((1,), ()).homology_dims() == (1,)
    # zero map between nonzero terms leaves both alive
    cx = ChainComplex((2, 2), (ExactMatrix.zero(2, 2),))
    assert cx.homology_dims() == (2, 2)
    ok, report = cx.is_exact_except({0})
    assert not ok and report == {0: 2}


def test_is_exact_except_reports():
    # 0 -> Q -> Q^3 -> 0, injective: exact except at the end, cokernel dim 2
    inc = ExactMatrix.from_dense([[1], [1], [1]])
    cx = ChainComplex((1, 3), (inc,))
    ok, report = cx.is_exact_except({1})
    assert ok and report == {1: 2}
    ok, _ = cx.is_exact_except(set())
    assert not ok


def test_chain_complex_validation():
    with pytest.raises(ValueError):
        ChainComplex((2, 2), ())
    with pytest.raises(ValueError):
        ChainComplex((2, 3), (ExactMatrix.zero(2, 2),))
    # d∘d != 0 must be fatal
    d0 = ExactMatrix.identity(2)
    d1 = ExactMatrix.identity(2)
    with pytest.raises(ExactnessError):
        ChainComplex((2, 2, 2), (d0, d1))


def test_euler_characteristic_equals_alternating_homology():
    inc = ExactMatrix.from_dense([[1], [1], [1]])
    proj = ExactMatrix.from_dense([[1, -1, 0], [0, 1, -1]])
    cx = ChainComplex((1, 3, 2), (inc, proj))
    dims = cx.homology_dims()
    assert cx.euler_characteristic() == sum((-1) ** i * h for i, h in enumerate(dims))


def test_homology_invariant_under_basis_permutation():
    from drincoh.gmodules import steinberg_resolution

    rng = random.Random(5)
    data = steinberg_resolution(ParabolicType.empty(2), 2)
    cx = data.resolution
    perms = []
    for t in cx.terms:
        p = list(range(t))
        rng.shuffle(p)
        perms.append(p)
    new_diffs = tuple(
        d.reindexed(perms[i + 1], perms[i]) for i, d in enumerate(cx.diffs)
    )
    permuted = ChainComplex(cx.terms, new_diffs)
    assert permuted.homology_dims() == cx.homology_dims()


def test_dump_format_golden():
    M = ExactMatrix(2, 3, {(0, 0): 1, (1, 2): Fraction(-1, 2)})
    assert M.dump() == "2 3 2\n0 0 1/1\n1 2 -1/2\n"
    assert ExactMatrix.parse_dump(M.dump()) == M
    assert ExactMatrix.parse_dump(ExactMatrix.zero(5, 0).dump()) == ExactMatrix.zero(5, 0)


def test_reindexed_roundtrip():
    M = ExactMatrix.from_dense([[1, 2, 0], [0, 0, 3]])
    rp, cp = [1, 0], [2, 0, 1]
    N = M.reindexed(rp, cp)
    assert N.entries[(1, 2)] == 1 and N.entries[(1, 0)] == 2 and N.entries[(0, 1)] == 3
    rp_inv = [rp.index(i) for i in range(2)]
    cp_inv = [cp.index(j) for j in range(3)]
    assert N.reindexed(rp_inv, cp_inv) == M
