"""Exact linear algebra: ranks against a naive oracle, homology bookkeeping."""

import gc
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import drincoh
from drincoh.errors import ExactnessError
from drincoh.ffgeom import enumerate_subspaces
from drincoh.homalg import ChainComplex, ExactMatrix
from drincoh.rootdata import ParabolicType
from oracles import (
    contains,
    euler_characteristic,
    from_dense,
    from_dict,
    identity,
    matmul,
    parse_dump,
    product_rows,
    reference_dd_failure,
    reference_product,
    reindexed,
    reported_dd_failure,
    transpose,
    zero,
)


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
    pairs = [(p, l) for l in lines for p in points if contains(l, p, 2)]
    assert len(pairs) == 21
    entries = {}
    for col, (p, l) in enumerate(pairs):
        row = points.index(p)
        entries[(row, col)] = 1
    return from_dict(7, 21, entries)


def test_rank_examples():
    assert zero(3, 3).rank() == 0
    assert identity(4).rank() == 4
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
                [-2, -1, 1, 2, 5, 3]
            )
        M = from_dict(rows, cols, entries)
        r = _check_rank(M)
        # the pivot rows are independent and span the row space
        pivot_rows = []
        M.rank(pivot_rows=pivot_rows)
        assert pivot_rows == sorted(set(pivot_rows)) and len(pivot_rows) == r
        kept = from_dict(r, cols, {(pivot_rows.index(i), j): v
                                   for (i, j), v in entries.items() if i in pivot_rows})
        assert naive_rank(kept) == r
    with pytest.raises(TypeError):
        from_dict(1, 1, {(0, 0): Fraction(1, 2)})


def test_rank_of_tall_sparse_matrix_matches_naive():
    rng = random.Random(11)
    entries = {}
    for _ in range(600):
        entries[(rng.randrange(300), rng.randrange(40))] = rng.choice([-1, 1, 2, -3])
    M = from_dict(300, 40, entries)
    assert M.rank() == naive_rank(M)


def test_sparse_path_without_unit_pivots():
    entries = {(i, j): 2 * (i + 1) if i == j else 0 for i in range(3) for j in range(3)}
    entries[(0, 1)] = 6
    M = from_dict(3, 3, {k: v for k, v in entries.items() if v})
    assert M.rank() == naive_rank(M) == 3


def test_matmul_and_blocks():
    A = from_dense([[1, 2], [0, 1]])
    B = from_dense([[1, 0], [-1, 1]])
    assert matmul(A, B) == from_dense([[-1, 2], [-1, 1]])
    with pytest.raises(ValueError):
        matmul(A, zero(3, 3))
    C = ExactMatrix.from_blocks([2, 1], [2], {(0, 0): matmul(A, B), (1, 0): from_dense([[1, 1]])})
    assert C.rows == 3 and C.cols == 2
    assert C.entries[(2, 0)] == 1 and C.entries[(2, 1)] == 1
    # blocks side by side and a block row left empty
    D = ExactMatrix.from_blocks([2, 1], [2, 1], {(0, 1): from_dense([[3], [0]]), (0, 0): A})
    assert D == from_dense([[1, 2, 3], [0, 1, 0], [0, 0, 0]])
    assert D.col_blocks == [("0", 2), ("1", 1)] and D.rank() == naive_rank(D) == 2


@pytest.mark.parametrize("key", [(-1, 0), (0, -1), (2, 0), (0, 1)])
def test_from_blocks_rejects_a_block_outside_the_grid(key):
    # a negative index also fits row_dims[-1] and col_dims[-1] in shape
    I2 = identity(2)
    with pytest.raises(ValueError, match=rf"^block \({key[0]},{key[1]}\) lies outside the 2x1 grid$"):
        ExactMatrix.from_blocks([2, 2], [2], {(0, 0): I2, key: I2})


def test_homology_examples():
    # 0 -> Q -> Q -> 0 with the identity: no homology
    cx = ChainComplex((identity(1),))
    assert cx.homology_dims() == (0, 0)
    # zero map between nonzero terms leaves both alive
    cx = ChainComplex((zero(2, 2),))
    assert cx.homology_dims() == (2, 2)


def test_chain_complex_validation(monkeypatch):
    # the layout and d∘d checks are the __post_init__ hook, called once per
    # construction
    calls = []
    check = ChainComplex.__post_init__
    monkeypatch.setattr(ChainComplex, "__post_init__", lambda cx: calls.append(cx) or check(cx))
    cx = ChainComplex((identity(2),))
    assert calls == [cx]
    # the terms are read off the differentials: V_0 from d_0's columns, V_1
    # from its rows, so a complex needs one
    assert ChainComplex((zero(3, 2),)).terms == (2, 3)
    with pytest.raises(ValueError, match="at least one differential"):
        ChainComplex(())
    # d∘d != 0 is fatal at construction, so no such complex is ever ranked
    with pytest.raises(ExactnessError, match=r"^d∘d != 0 between positions 0 and 2"):
        ChainComplex((identity(2), identity(2)))


def test_euler_characteristic_equals_alternating_homology():
    inc = from_dense([[1], [1], [1]])
    proj = from_dense([[1, -1, 0], [0, 1, -1]])
    cx = ChainComplex((inc, proj))
    dims = cx.homology_dims()
    assert euler_characteristic(cx) == sum((-1) ** i * h for i, h in enumerate(dims))


def test_homology_invariant_under_basis_permutation():
    from drincoh.gmodules import lattice_complex

    rng = random.Random(5)
    cx = lattice_complex(ParabolicType.empty(2), 2)[1]
    perms = []
    for t in cx.terms:
        p = list(range(t))
        rng.shuffle(p)
        perms.append(p)
    new_diffs = tuple(
        reindexed(d, perms[i + 1], perms[i]) for i, d in enumerate(cx.diffs)
    )
    permuted = ChainComplex(new_diffs)
    assert permuted.homology_dims() == cx.homology_dims()


def test_dump_format_golden():
    M = from_dict(2, 3, {(0, 0): 1, (1, 2): -1})
    assert M.dump() == "2 3 2\n0 0 1/1\n1 2 -1/1\n"
    assert parse_dump(M.dump()) == M
    assert parse_dump(zero(5, 0).dump()) == zero(5, 0)
    with pytest.raises(ValueError):
        parse_dump("2 3 1\n1 2 -1/2\n")


def test_reindexed_roundtrip():
    M = from_dense([[1, 2, 0], [0, 0, 3]])
    rp, cp = [1, 0], [2, 0, 1]
    N = reindexed(M, rp, cp)
    assert N.entries[(1, 2)] == 1 and N.entries[(1, 0)] == 2 and N.entries[(0, 1)] == 3
    rp_inv = [rp.index(i) for i in range(2)]
    cp_inv = [cp.index(j) for j in range(3)]
    assert reindexed(N, rp_inv, cp_inv) == M


def _random_sparse(rng, rows, cols, density, values):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = rng.choice(values)
    return from_dict(rows, cols, entries)


def _check_rank(M):
    r = M.rank()
    assert r == transpose(M).rank() == naive_rank(M), M
    # the pivot order follows the row and column order, the rank does not
    rng = random.Random(M.nnz)
    for _ in range(3):
        rows, cols = list(range(M.rows)), list(range(M.cols))
        rng.shuffle(rows)
        rng.shuffle(cols)
        assert reindexed(M, rows, cols).rank() == r, M
    return r


def test_rank_with_non_unit_pivots_only():
    rng = random.Random(101)
    for _ in range(30):
        M = _random_sparse(rng, rng.randrange(1, 15), rng.randrange(1, 15), 0.3,
                           [-6, -4, -3, -2, 2, 3, 4, 6, 9])
        _check_rank(M)


def test_rank_with_many_count_ties():
    # every column has exactly two entries and every row about the same
    # number, so many rows share a largest column and reduce in chains
    rng = random.Random(102)
    for _ in range(30):
        rows, cols = rng.randrange(2, 16), rng.randrange(1, 25)
        entries = {}
        for j in range(cols):
            a, b = rng.sample(range(rows), 2)
            entries[(a, j)] = rng.choice([1, 2, -3])
            entries[(b, j)] = rng.choice([-1, 2, 5])
        _check_rank(from_dict(rows, cols, entries))


def test_rank_when_cancellation_empties_columns():
    # rows that are integer combinations of earlier rows cancel to zero,
    # emptying their columns part-way through the elimination
    rng = random.Random(103)
    for _ in range(30):
        base = _random_sparse(rng, rng.randrange(1, 6), rng.randrange(2, 14), 0.4,
                              [-2, -1, 1, 3])
        dense = [[base.entries.get((i, j), 0) for j in range(base.cols)]
                 for i in range(base.rows)]
        for _ in range(rng.randrange(1, 6)):
            a, b = rng.choice([-2, -1, 1, 2]), rng.choice([-1, 1, 3])
            r1, r2 = rng.choice(dense), rng.choice(dense)
            dense.append([a * x + b * y for x, y in zip(r1, r2)])
        rng.shuffle(dense)
        M = from_dense(dense)
        assert _check_rank(M) <= base.rows


def test_rank_with_duplicate_rows():
    rng = random.Random(104)
    for _ in range(20):
        base = _random_sparse(rng, rng.randrange(1, 8), rng.randrange(1, 12), 0.35,
                              [-1, 1, 2, -5])
        dense = [[base.entries.get((i, j), 0) for j in range(base.cols)]
                 for i in range(base.rows)]
        dense += [list(row) for row in rng.choices(dense, k=rng.randrange(1, 8))]
        rng.shuffle(dense)
        M = from_dense(dense)
        assert _check_rank(M) == base.rank()


def test_rank_of_empty_shapes():
    for k in (0, 1, 5):
        assert from_dict(0, k).rank() == 0
        assert from_dict(k, 0).rank() == 0


def test_rank_of_large_graph_incidence_with_non_unit_scaling():
    # signed vertex-edge incidence of a random multigraph, columns scaled by
    # non-units: rank = vertices - components, over Q whatever the scaling
    rng = random.Random(105)
    vertices, edges = 700, 2400
    parent = list(range(vertices))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    entries = {}
    for j in range(edges):
        a, b = rng.sample(range(vertices), 2)
        c = rng.choice([1, -1, 2, 3, -4])
        entries[(a, j)], entries[(b, j)] = c, -c
        parent[root(a)] = root(b)
    components = len({root(v) for v in range(vertices)})
    M = from_dict(vertices, edges, entries)
    assert M.rank() == vertices - components
    assert transpose(M).rank() == vertices - components


def _coboundaries(rng, vertices, facets):
    """Coboundary matrices d_i: C^i -> C^{i+1} of the simplicial complex
    generated by `facets` random faces on `vertices` vertices."""
    faces = set()
    for _ in range(facets):
        top = rng.sample(range(vertices), rng.randrange(2, 5))
        for k in range(1, len(top) + 1):
            faces.update(itertools.combinations(sorted(top), k))
    by_dim = [sorted(f for f in faces if len(f) == k + 1) for k in range(max(map(len, faces)))]
    index = [{f: n for n, f in enumerate(fs)} for fs in by_dim]
    diffs = []
    for k in range(len(by_dim) - 1):
        entries = {}
        for row, f in enumerate(by_dim[k + 1]):
            for pos in range(len(f)):
                entries[(row, index[k][f[:pos] + f[pos + 1:]])] = (-1) ** pos
        diffs.append(from_dict(len(by_dim[k + 1]), len(by_dim[k]), entries))
    return [len(fs) for fs in by_dim], diffs


def _add_row(M, a, b, c):
    """Row a += c * row b."""
    out = dict(M.entries)
    for (i, j), v in M.entries.items():
        if i == b:
            w = out.get((a, j), 0) + c * v
            if w:
                out[(a, j)] = w
            else:
                del out[(a, j)]
    return from_dict(M.rows, M.cols, out)


def _unimodular(rng, n):
    """A random unimodular integer matrix U and its inverse, built from row
    operations E = I + c e_ab with non-unit c."""
    U, U_inv = identity(n), identity(n)
    for _ in range(3 * n if n > 1 else 0):
        a, b = rng.sample(range(n), 2)
        c = rng.choice([-3, -2, 2, 3, 5])
        U = _add_row(U, a, b, c)
        # U_inv <- U_inv E^-1, i.e. column b -= c * column a
        U_inv = transpose(_add_row(transpose(U_inv), b, a, -c))
    return U, U_inv


def _naive_homology(terms, diffs):
    ranks = [0] + [naive_rank(d) for d in diffs] + [0]
    return tuple(t - ranks[i] - ranks[i + 1] for i, t in enumerate(terms))


def test_homology_with_clearing_matches_naive_ranks(monkeypatch):
    # random simplicial cochain complexes, read in both directions and
    # conjugated by unimodular base changes, so entries are not units
    rng = random.Random(106)
    calls = []
    rank = ExactMatrix.rank

    def recording(M, **kwargs):
        r = rank(M, **kwargs)
        calls.append((M, list(kwargs.get("skip_cols", ())), r))
        return r

    monkeypatch.setattr(ExactMatrix, "rank", recording)
    non_trivial = 0
    for _ in range(12):
        terms, diffs = _coboundaries(rng, rng.randrange(5, 9), rng.randrange(3, 8))
        if rng.random() < 0.5:  # the chain complex of the same simplices
            terms, diffs = terms[::-1], [transpose(d) for d in reversed(diffs)]
        bases = [_unimodular(rng, t) for t in terms]
        diffs = [matmul(matmul(bases[i + 1][0], d), bases[i][1]) for i, d in enumerate(diffs)]
        assert any(v not in (1, -1) for d in diffs for v in d.entries.values())
        cx = ChainComplex(tuple(diffs))
        dims = cx.homology_dims()
        assert dims == _naive_homology(terms, diffs)
        non_trivial += any(dims[1:-1])
    assert non_trivial >= 3
    cleared = [(M, skip, r) for M, skip, r in calls if skip]
    assert len(cleared) >= 10
    for M, skip, r in cleared:
        # the cleared columns never change the rank
        assert r == rank(M) == naive_rank(M)


# -- the cover form -----------------------------------------------------------------

# constructor arguments that must raise, as source text so that the same cases
# also run in a `python -O` interpreter: the values, the columns, the row
# layout (the row blocks against the covers and their images) and the
# order of the columns along a row's covers
BAD_COVERS = {
    "bool value": ("[('A', 1)], [('B', 2)], [[(0, True, [0])]]", TypeError),
    "float value": ("[('A', 1)], [('B', 2)], [[(0, 1.0, [0])]]", TypeError),
    "Fraction value": ("[('A', 1)], [('B', 2)], [[(0, Fraction(1), [0])]]", TypeError),
    "stored zero": ("[('A', 2)], [('B', 2)], [[(0, 3, [0, 1]), (0, 0, [1, 0])]]", ValueError),
    "float column": ("[('A', 1)], [('B', 3)], [[(0, 1, [1.0])]]", TypeError),
    "column too large": ("[('A', 1)], [('B', 2)], [[(0, 1, [2])]]", ExactnessError),
    "negative column": ("[('A', 1)], [('B', 2)], [[(0, 1, [-1])]]", ExactnessError),
    "column in another block": ("[('A', 1)], [('B', 1), ('C', 1)], [[(0, 1, [1])]]",
                                ExactnessError),
    "block not there": ("[('A', 1)], [('B', 2)], [[(1, 1, [0])]]", ExactnessError),
    "image too short": ("[('A', 2)], [('B', 2)], [[(0, 1, [0])]]", ExactnessError),
    "more cover lists than row blocks": ("[('A', 1)], [('B', 2)], [[(0, 1, [0])], [(0, 1, [1])]]",
                                         ExactnessError),
    "fewer cover lists than row blocks": ("[('A', 1), ('C', 1)], [('B', 2)], [[(0, 1, [0])]]",
                                          ExactnessError),
    "negative row block size": ("[('A', -1)], [('B', 2)], [[]]", ValueError),
    "image too long": ("[('A', 1)], [('B', 2)], [[(0, 1, [0, 1])]]", ExactnessError),
    "repeated column": ("[('A', 1)], [('B', 3)], [[(0, 1, [1]), (0, 1, [1])]]", ValueError),
    "unsorted row": ("[('A', 2)], [('B', 3)], [[(0, 1, [0, 2]), (0, 1, [1, 1])]]", ValueError),
}


def _constructor_source(args: str):
    return eval(f"ExactMatrix({args})", {"ExactMatrix": ExactMatrix, "Fraction": Fraction})


@pytest.mark.parametrize("case", sorted(BAD_COVERS))
def test_csr_constructor_rejects(case):
    args, error = BAD_COVERS[case]
    with pytest.raises(error):
        _constructor_source(args)


def test_constructor_rejects_under_python_o():
    # the checks raise rather than assert, so they hold with asserts stripped
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from drincoh.homalg import ExactMatrix\n"
        "assert False\n"  # stripped by -O
        "for args in sys.argv[1:]:\n"
        "    try:\n"
        "        eval(f'ExactMatrix({args})')\n"
        "        print('accepted')\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    cases = sorted(BAD_COVERS)
    src = str(Path(drincoh.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script, *(BAD_COVERS[c][0] for c in cases)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    assert out == [BAD_COVERS[c][1].__name__ for c in cases]


def test_constructor_accepts_descents_at_row_starts():
    # a cover's columns may fall from one row to the next
    M = ExactMatrix([("A", 2), ("C", 1)], [("B", 3)],
                    [[(0, 1, [1, 0]), (0, -1, [2, 1])], [(0, 5, [0])]])
    assert M == from_dict(3, 3, {(0, 1): 1, (0, 2): -1, (1, 0): 1, (1, 1): -1, (2, 0): 5})
    assert M.entries == {(0, 1): 1, (0, 2): -1, (1, 0): 1, (1, 1): -1, (2, 0): 5}
    assert M.dump() == "3 3 5\n0 1 1/1\n0 2 -1/1\n1 0 1/1\n1 1 -1/1\n2 0 5/1\n"
    assert (M.rows, M.cols, M.nnz) == (3, 3, 5)
    with pytest.raises(TypeError):
        M.entries[(0, 1)] = 2  # a read-only view


def test_row_order_check_allows_a_descent_only_at_a_row_start():
    # covers 0 and 1 rise in both rows; cover 2 falls below cover 1 in row 1
    ok = [(0, 1, [0, 0]), (1, 1, [1, 2])]
    M = ExactMatrix([("A", 2)], [("B", 1), ("C", 2)], [ok])
    assert M.entries == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 2): 1}
    for bad in ([(1, 1, [2, 1])], [(1, 1, [2, 2])]):
        with pytest.raises(ValueError, match="^row block A: the columns of entry 2 do not "
                                             "lie right of entry 1 in every row$"):
            ExactMatrix([("A", 2)], [("B", 1), ("C", 2)], [ok + bad])


def test_dict_constructor_drops_zeros_and_rejects_non_ints():
    M = from_dict(2, 2, {(1, 1): 0, (1, 0): 4, (0, 1): -2})
    assert M.covers == [[(1, -2, [1])], [(0, 4, [0])]]
    assert M.col_blocks == [("0", 1), ("1", 1)]
    for bad in (True, False, 1.0, 0.0, Fraction(2)):
        with pytest.raises(TypeError):
            from_dict(2, 2, {(0, 0): bad})
    for key in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError):
            from_dict(2, 2, {key: 1})


def _random_layout(rng, rows, cols, signs):
    """A random differential in cover form over the (label, size) blocks
    `rows` and `cols`: each row block takes a random increasing list of
    column blocks as its covers, each with a constant sign and a random
    column map."""
    col_off = list(itertools.accumulate((size for _, size in cols), initial=0))
    nonempty = [b for b, (_, size) in enumerate(cols) if size]
    covers = []
    for _, size in rows:
        chosen = sorted(rng.sample(nonempty, rng.randrange(len(nonempty) + 1)))
        covers.append([
            (b, rng.choice(signs), [rng.randrange(col_off[b], col_off[b + 1]) for _ in range(size)])
            for b in chosen
        ])
    return ExactMatrix(rows, cols, covers)


def test_product_and_dd_check_match_reference_product():
    rng = random.Random(107)
    for _ in range(60):
        n, k, m = (rng.randrange(0, 9) for _ in range(3))
        density = rng.choice([0.05, 0.2, 0.5])
        d0 = _random_sparse(rng, k, n, density, [-3, -1, 1, 2])
        d1 = _random_sparse(rng, m, k, density, [-2, -1, 1, 1, 4])
        want = reference_product(d1, d0)
        assert matmul(d1, d0).entries == want
        assert [{j: v for j, v in acc.items() if v} for acc in product_rows(d1, d0)] == [
            {j: v for (i, j), v in want.items() if i == r} for r in range(d1.rows)
        ]
    # the block check reports the reference product's first nonzero entry
    zero_products = 0
    for _ in range(200):
        sizes = [[rng.choice([0, 1, 1, 2, 3]) for _ in range(rng.randrange(1, 4))]
                 for _ in range(3)]
        blocks = [[(f"b{t}.{i}", size) for i, size in enumerate(term)]
                  for t, term in enumerate(sizes)]
        diffs = [_random_layout(rng, blocks[t + 1], blocks[t], [-2, -1, -1, 1, 1, 3]) for t in (0, 1)]
        want = reference_dd_failure(diffs)
        assert reported_dd_failure(diffs) == want
        zero_products += want is None
    assert 20 <= zero_products <= 180


def _split_complex(rng, dims, density):
    """A random complex with d∘d = 0 by construction: each middle term is
    K_i ⊕ C_i, d_{i-1} lands in K_i and d_i kills K_i; each middle term is
    then mixed by a unimodular base change.  `dims` lists (k_i, c_i)."""
    blocks = [
        _random_sparse(rng, dims[i + 1][0], dims[i][1], density, [-2, -1, 1, 3])
        for i in range(len(dims) - 1)
    ]
    diffs = []
    for i, B in enumerate(blocks):
        k0, c0 = dims[i]
        # columns: K_i then C_i; rows: K_{i+1} then C_{i+1}
        entries = {(r, k0 + c): v for (r, c), v in B.entries.items()}
        diffs.append(from_dict(sum(dims[i + 1]), k0 + c0, entries))
    terms = [sum(d) for d in dims]
    bases = [_unimodular(rng, t) for t in terms]
    return terms, [matmul(matmul(bases[i + 1][0], d), bases[i][1]) for i, d in enumerate(diffs)]


def test_homology_of_random_split_complexes_matches_naive_ranks():
    rng = random.Random(108)
    non_trivial = 0
    for _ in range(15):
        length = rng.randrange(2, 6)
        dims = [(0 if i == 0 else rng.randrange(0, 6), rng.randrange(0, 6)) for i in range(length)]
        dims[-1] = (dims[-1][0], 0)
        terms, diffs = _split_complex(rng, dims, rng.choice([0.2, 0.5, 0.9]))
        cx = ChainComplex(tuple(diffs))
        homology = cx.homology_dims()
        assert homology == _naive_homology(terms, diffs)
        non_trivial += any(homology[1:-1])
    assert non_trivial >= 3


def test_dd_check_reports_a_perturbed_entry_of_random_complexes():
    # one entry of a random complex with d∘d = 0 is changed; from_dict gives
    # each row and each column its own block, so the constructor's check
    # reads every entry as its own cover
    rng = random.Random(109)
    failures = 0
    for k in range(40):
        if k % 2:
            _, diffs = _coboundaries(rng, rng.randrange(5, 9), rng.randrange(3, 8))
        else:
            middle = [(rng.randrange(1, 5), rng.randrange(1, 5)) for _ in range(rng.randrange(1, 4))]
            dims = [(0, rng.randrange(1, 5)), *middle, (rng.randrange(1, 5), 0)]
            _, diffs = _split_complex(rng, dims, rng.choice([0.2, 0.5, 0.9]))
        assert reported_dd_failure(diffs) is None
        t = rng.randrange(len(diffs))
        d = diffs[t]
        entries = dict(d.entries)
        key = rng.randrange(d.rows), rng.randrange(d.cols)
        entries[key] = entries.get(key, 0) + rng.choice([-2, -1, 1, 3])
        diffs[t] = from_dict(d.rows, d.cols, entries)
        want = reference_dd_failure(diffs)
        assert reported_dd_failure(diffs) == want
        failures += want is not None
    assert failures >= 30


def test_dd_failure_names_the_first_nonzero_entry():
    blocks = [[("K", 1)], [("J1", 1), ("J2", 1)], [("L", 1)]]
    covers = [[[(0, 1, [0])], [(0, 1, [0])]], [[(0, 1, [0]), (1, 1, [1])]]]
    diffs = [ExactMatrix(blocks[t + 1], blocks[t], form) for t, form in enumerate(covers)]
    with pytest.raises(ExactnessError, match=r"positions 0 and 2, blocks \(K, L\) = \(K, L\): "
                       r"entry \(0,0\) of d_1∘d_0 is 2"):
        ChainComplex(tuple(diffs))
    # one cover's sign flipped in a Steinberg resolution: the report is the
    # first nonzero entry of the product, found by the reference product
    from drincoh.gmodules import lattice_complex

    d0, d1 = lattice_complex(ParabolicType.empty(2), 2)[1].diffs
    assert reported_dd_failure((d0, d1)) is None
    # the row block of ∅ holds rows 0..20, with two covers
    (first, (b, sign, image)), = d1.covers
    flipped = ExactMatrix(d1.row_blocks, d1.col_blocks, [[first, (b, -sign, image)]])
    want = reference_dd_failure((d0, flipped))
    assert want is not None
    assert reported_dd_failure((d0, flipped)) == want


def _stored_bytes_per_nonzero(build, nnz):
    build()  # warm the flag and point caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stored = build()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return size / nnz(stored)


def test_stored_matrices_take_at_most_40_bytes_per_nonzero():
    # both complexes keep one list of columns per cover in their ExactMatrix
    # differentials
    from drincoh.gmodules import lattice_complex
    from drincoh.orlik import build_function_complex

    def nnz(diffs):
        return sum(d.nnz for d in diffs)

    for build in (lambda: build_function_complex(3, 3, 2).diffs,
                  lambda: lattice_complex(ParabolicType.empty(3), 3)[1].diffs):
        assert _stored_bytes_per_nonzero(build, nnz) <= 40
