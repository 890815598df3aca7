"""Acceptance criteria, one test per criterion.

Every assertion is exact (integer equality); the stated runtime budgets are
asserted as upper bounds.  Each test prints one PASS line on success (visible
with `pytest -s` or in captured output on failure).
"""

import random
import time
from itertools import product

from drincoh import cli
from drincoh.cohomology import (
    closed_form_h_of_y,
    expected_h_of_x,
    expected_hc_of_x,
    h_of_x,
    h_of_y,
    hc_of_x,
    lefschetz_count,
)
from drincoh.ffgeom import (
    chain_dims,
    drinfeld_points,
    enumerate_subspaces,
)
from drincoh.gmodules import lattice_complex, steinberg_resolution
from drincoh.orlik import build_function_complex, e2_page
from drincoh.qarith import gauss_binomial, parabolic_index, steinberg_dim
from drincoh.rootdata import ParabolicType, standard_subset, subsets_of_size
from drincoh.tables import TwistedModule, summand

STEINBERG_GRID = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]  # (3,3) excluded from CI
FULL_GRID = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]
ORLIK_GRID = [(1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1)]
LEFSCHETZ_GRID = (
    [(1, q, m) for q in (2, 3, 5) for m in (1, 2, 3, 4)]
    + [(2, q, m) for q in (2, 3) for m in (1, 2, 3)]
    + [(3, 2, m) for m in (1, 2)]
)


def _report(k: int, message: str, t0: float):
    print(f"ACCEPTANCE {k}: PASS — {message} ({time.time() - t0:.1f}s)")


def test_criterion_1_steinberg_resolutions():
    t0 = time.time()
    for n, q in STEINBERG_GRID:
        for mask in range((1 << n) - 1):
            J = ParabolicType(n, mask)
            homology = steinberg_resolution(J, q)
            dims = lattice_complex(J, q)[1].homology_dims()
            assert all(h == 0 for h in dims[:-1]), (n, q, J)
            assert dims[-1] == homology[-1] == steinberg_dim(J, q)
    assert steinberg_resolution(ParabolicType.empty(2), 2)[-1] == 8
    assert steinberg_resolution(ParabolicType.empty(3), 2)[-1] == 64
    assert steinberg_resolution(ParabolicType.empty(2), 3)[-1] == 27
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(1, "Steinberg resolutions exact; cokernels match inclusion-exclusion", t0)


def test_criterion_2_function_complex_acyclicity():
    t0 = time.time()
    for n, q, m in ORLIK_GRID:
        dims = build_function_complex(n, q, m).homology_dims()
        assert dims == (0,) * len(dims), (n, q, m, dims)
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(2, f"function complexes acyclic on {ORLIK_GRID}", t0)


def expected_e2(n, q):
    page = {}
    for s in range(0, 2 * n - 1, 2):
        j = s // 2
        base = standard_subset(n, j)
        if s == 2 * n - 2:
            page[(0, s)] = TwistedModule.of(
                summand("Ind", base, parabolic_index(base, q), -j)
            )
        else:
            page[(0, s)] = TwistedModule.of(summand("K", None, 1, -j))
            page[(n - 1 - j, s)] = TwistedModule.of(
                summand("v", base, steinberg_dim(base, q), -j)
            )
    return page


def test_criterion_3_e2_page():
    t0 = time.time()
    for n, q in FULL_GRID:
        assert e2_page(n, q) == expected_e2(n, q), (n, q)
    page = e2_page(2, 2)
    assert {k: mod.dim for k, mod in page.items()} == {
        (1, 0): 8,
        (0, 0): 1,
        (0, 2): 7,
    }
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(3, "E2 pages match the closed-form case table on the full grid", t0)


def test_criterion_4_h_of_y_closed_form():
    t0 = time.time()
    for n, q in FULL_GRID:
        got = h_of_y(n, q)
        want = closed_form_h_of_y(n, q)
        assert got == want, (n, q, got.render_text(), want.render_text())
    _report(4, "H*(Y) equals the closed-form tables, twists included", t0)


def test_criterion_5_hc_of_x():
    t0 = time.time()
    for n, q in FULL_GRID:
        assert hc_of_x(h_of_y(n, q)) == expected_hc_of_x(n, q), (n, q)
    t = hc_of_x(h_of_y(2, 2))
    assert [t.module(d).dim for d in (2, 3, 4)] == [8, 6, 1]
    assert hc_of_x(h_of_y(3, 2)).module(3).dim == 64
    _report(5, "LES solver reproduces ⊕ v(P_{I_i})(-i)[-n-i] exactly", t0)


def test_criterion_6_duality():
    t0 = time.time()
    for n, q in FULL_GRID:
        hc = hc_of_x(h_of_y(n, q))
        hx = h_of_x(hc)
        assert hx == expected_h_of_x(n, q)
        for j in range(2 * n + 1):
            a, b = hx.module(j), hc.module(2 * n - j)
            assert a.dim == b.dim
            for s, tpiece in zip(a.summands, b.summands):
                assert s.twist + tpiece.twist == -n
                assert s.dim == tpiece.dim and s.subset == tpiece.subset
                assert (s.kind, tpiece.kind) in {
                    ("K", "K"), ("v'", "v"), ("v", "v'"), ("Ind", "Ind")
                }
    _report(6, "duality: dims equal, twist sums -n, labels dualize v ↦ v'", t0)


def test_criterion_7_lefschetz_cross_validation():
    t0 = time.time()
    for n, q, m in LEFSCHETZ_GRID:
        assert lefschetz_count(n, q, m) == drinfeld_points(n, q, m), (n, q, m)
    assert lefschetz_count(2, 2, 3) == drinfeld_points(2, 2, 3) == 24
    elapsed = time.time() - t0
    assert elapsed < 180
    _report(7, f"Lefschetz counts match enumeration on {len(LEFSCHETZ_GRID)} grid points", t0)


def subspace_vector_set(U, q):
    out = set()
    for coeffs in product(range(q), repeat=len(U)):
        out.add(
            tuple(
                sum(c * row[i] for c, row in zip(coeffs, U)) % q
                for i in range(len(U[0]))
            )
        )
    return frozenset(out)


class ContainmentOracle:
    """Brute-force flag counting through materialized containment relations."""

    def __init__(self, N, q):
        self.N, self.q = N, q
        self.levels = {d: enumerate_subspaces(N, d, q) for d in range(1, N)}
        self.vsets = {
            d: [subspace_vector_set(U, q) for U in subs] for d, subs in self.levels.items()
        }
        self._adj = {}

    def adjacency(self, a, b):
        """For each dim-a subspace, the indices of dim-b subspaces containing it."""
        if (a, b) not in self._adj:
            vs = self.vsets[b]
            self._adj[(a, b)] = [
                [k for k, vset in enumerate(vs) if all(row in vset for row in U)]
                for U in self.levels[a]
            ]
        return self._adj[(a, b)]

    def count_flags(self, I):
        dims = chain_dims(I)
        if not dims:
            return 1
        counts = [1] * len(self.levels[dims[-1]])
        for pos in range(len(dims) - 2, -1, -1):
            adj = self.adjacency(dims[pos], dims[pos + 1])
            counts = [sum(counts[k] for k in sups) for sups in adj]
        return sum(counts)


def test_criterion_8_combinatorial_oracles():
    t0 = time.time()
    for N in range(1, 6):
        for q in (2, 3):
            for d in range(1, N + 1):
                assert len(enumerate_subspaces(N, d, q)) == gauss_binomial(N, d, q)
    for N in range(2, 6):
        n = N - 1
        for q in (2, 3):
            oracle = ContainmentOracle(N, q)
            for mask in range(1 << n):
                I = ParabolicType(n, mask)
                assert oracle.count_flags(I) == parabolic_index(I, q), (N, q, I)
    rng = random.Random(2024)
    desk = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]
    for _ in range(200):
        n, q = desk[rng.randrange(len(desk))]
        I, J, L = cli.sample_nested_triple(rng, n)
        cli._check_triple({}, I, J, L, q)
    _report(8, "enumeration oracles and 200 seeded pullback triples pass", t0)
