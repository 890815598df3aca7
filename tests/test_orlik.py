"""Function-complex acyclicity and the spectral-sequence pages."""

from collections import Counter
from itertools import accumulate

import pytest

from drincoh import cli, gmodules, orlik
from drincoh.errors import DeskScaleExceeded, ExactnessError
from drincoh.ffgeom import enumerate_subspaces
from drincoh.gmodules import (
    clear_resolutions,
    lattice_complex,
    steinberg_dim,
    steinberg_resolution,
)
from drincoh.homalg import ChainComplex
from drincoh.orlik import build_e1_row, build_function_complex, e2_page
from drincoh.qarith import parabolic_index
from drincoh.rootdata import ParabolicType, standard_subset
from drincoh.tables import TwistedModule, summand
from oracles import (
    build_e1_page,
    euler_characteristic,
    field,
    in_extension_span,
    intersect_subspaces,
)


def test_function_complex_shapes():
    fc = build_function_complex(1, 2, 1)
    assert fc.complex.terms == (3, 3)
    fc = build_function_complex(2, 2, 1)
    assert fc.complex.terms == (7, 28, 21)
    # term sizes over F_4 recomputed from the point enumeration itself:
    # 21 points of P^2(F_4) are all on rational lines, 7 lines with 5 points
    # each plus 7 single-point strata, then 21 full-flag strata
    fc = build_function_complex(2, 2, 2)
    assert fc.complex.terms == (21, 42, 21)


def test_function_complex_acyclic_on_grid():
    for n, q, m in [(1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 3, 1)]:
        fc = build_function_complex(n, q, m)
        assert fc.complex.homology_dims() == (0,) * len(fc.complex.terms)
        assert euler_characteristic(fc.complex) == 0


@pytest.mark.parametrize(
    "n, q, m",
    [(n, q, m) for n in (1, 2, 3) for q in (2, 3) for m in (1, 2)]
    + [(n, q, m) for n in (1, 2) for q in (5, 7) for m in (1, 2)],
)
def test_function_complex_nnz_is_the_nnz_of_the_built_complex(n, q, m):
    diffs = build_function_complex(n, q, m).complex.diffs
    assert orlik.function_complex_nnz(n, q, m) == sum(d.nnz for d in diffs)


def test_function_complex_summand_invariants():
    fc = build_function_complex(2, 2, 2)
    y = set(fc.y_points)
    covered = set()
    for level in fc.levels:
        for s in level:
            assert set(s.points) <= y
            covered |= set(s.points)
    assert covered == y
    # ordering: subsets by size descending, flags in canonical order
    assert [s.I.size for s in fc.levels[0]] == [1] * len(fc.levels[0])
    assert [s.I.size for s in fc.levels[1]] == [0] * len(fc.levels[1])


def test_function_complex_guard(monkeypatch):
    with pytest.raises(DeskScaleExceeded):
        build_function_complex(4, 2, 1)

    # over the flag guard, nothing of the subset lattice is listed
    def no_lattice(J):
        raise AssertionError("interval_levels called over the flag guard")

    monkeypatch.setattr(orlik, "interval_levels", no_lattice)
    with pytest.raises(DeskScaleExceeded, match="flag"):
        build_function_complex(16, 2, 1)


def test_intersection_closure_witness():
    # for each point of the hyperplane union, the set of proper nonzero
    # subspaces whose projectivization contains it is nonempty and closed
    # under pairwise intersection
    for n, q, m in [(2, 2, 1), (2, 2, 2)]:
        F = field(q, m)
        fc = build_function_complex(n, q, m)
        all_proper = [
            U for d in range(1, n + 1) for U in enumerate_subspaces(n + 1, d, q)
        ]
        for pt in fc.y_points:
            family = [U for U in all_proper if in_extension_span(pt, U, F)]
            assert family
            for U in family:
                for V in family:
                    W = intersect_subspaces(U, V, q)
                    assert W is not None
                    assert any(W == X for X in family)


def _e1_row(page, s):
    """The terms of row s of an E1 page, in order of r."""
    return [page[key] for key in sorted(page) if key[1] == s]


def _twists(row):
    return {piece.twist for term in row for piece in term.summands}


def test_e1_row_shapes():
    page = build_e1_page(2, 2)
    row = _e1_row(page, 0)
    assert [term.dim for term in row] == [14, 21]
    assert _twists(row) == {0}
    row = _e1_row(page, 2)
    assert [term.dim for term in row] == [7]
    assert _twists(row) == {-1}
    assert [[piece.subset for piece in term.summands] for term in row] == [[standard_subset(2, 1)]]
    # the top row is always the single induced module of the full prefix
    for n, q in [(1, 2), (2, 2), (3, 2)]:
        row = _e1_row(build_e1_page(n, q), 2 * n - 2)
        assert len(row) == 1
        assert row[0].dim == parabolic_index(standard_subset(n, n - 1), q)


def test_e1_rows_are_truncated_steinberg_resolutions():
    # row s is the resolution of I_{s/2} without its constant term; its
    # homology, read from the resolution's, must equal that of the truncated
    # complex ranked on its own
    for n, q in [(n, q) for n in (1, 2, 3) for q in (2, 3)] + [(4, 2)]:
        for s in range(0, 2 * n - 1, 2):
            cx = lattice_complex(standard_subset(n, s // 2), q)[1]
            truncated = ChainComplex(cx.terms[1:], cx.diffs[1:])
            assert build_e1_row(s, n, q) == truncated.homology_dims(), (n, q, s)


def test_function_complex_is_e1_row_0_expanded_to_points():
    # after the augmentation, the row of each point of a flag's summand maps
    # back, summand by summand, to that flag's row of E1 row 0, with the same
    # signs, and each entry restricts to the same point of the source summand
    for n, q, m in [(2, 2, 1), (2, 3, 2), (3, 2, 1)]:
        fc = build_function_complex(n, q, m)
        row0 = lattice_complex(ParabolicType.empty(n), q)[1].diffs[1:]
        assert len(fc.complex.diffs) == len(row0) + 1
        for t, flag_d in enumerate(row0):
            d = fc.complex.diffs[t + 1]
            sources, targets = fc.levels[t], fc.levels[t + 1]
            assert (flag_d.rows, flag_d.cols) == (len(targets), len(sources))
            src_of = [g for g, s in enumerate(sources) for _ in s.points]
            src_off = list(accumulate((len(s.points) for s in sources), initial=0))
            point_rows = iter(range(d.rows))
            for f, target in enumerate(targets):
                lo, hi = flag_d.indptr[f], flag_d.indptr[f + 1]
                want = dict(zip(flag_d.indices[lo:hi], flag_d.data[lo:hi]))
                for pt in target.points:
                    i = next(point_rows)
                    lo, hi = d.indptr[i], d.indptr[i + 1]
                    got = {}
                    for c, v in zip(d.indices[lo:hi], d.data[lo:hi]):
                        g = src_of[c]
                        assert g not in got
                        assert sources[g].points[c - src_off[g]] == pt
                        got[g] = v
                    assert got == want, (n, q, m, t, f)
            assert next(point_rows, None) is None


def test_e1_row_rejects_bad_s():
    with pytest.raises(ValueError):
        build_e1_row(1, 2, 2)
    with pytest.raises(ValueError):
        build_e1_row(4, 2, 2)
    with pytest.raises(ValueError):
        build_e1_row(-2, 2, 2)


def test_e1_page_entries():
    page = build_e1_page(2, 2)
    assert page[(0, 0)].dim == 14
    assert page[(1, 0)].dim == 21
    assert page[(0, 2)].dim == 7
    assert set(page) == {(0, 0), (1, 0), (0, 2)}
    for (r, s), mod in page.items():
        assert s % 2 == 0
        assert all(piece.twist == -s // 2 for piece in mod.summands)


def test_e2_page_n2_q2():
    page = e2_page(2, 2)
    B = ParabolicType.empty(2)
    assert page[(1, 0)] == TwistedModule.of(summand("v", B, 8, 0))
    assert page[(0, 0)] == TwistedModule.of(summand("K", None, 1, 0))
    assert page[(0, 2)] == TwistedModule.of(
        summand("Ind", standard_subset(2, 1), 7, -1)
    )
    assert set(page) == {(1, 0), (0, 0), (0, 2)}


def test_e2_page_n1():
    page = e2_page(1, 2)
    assert set(page) == {(0, 0)}
    assert page[(0, 0)] == TwistedModule.of(
        summand("Ind", standard_subset(1, 0), 3, 0)
    )


def test_e2_page_n3_q2_steinberg_corner():
    page = e2_page(3, 2)
    assert page[(2, 0)].dim == 64
    (piece,) = page[(2, 0)].summands
    assert piece.kind == "v" and piece.twist == 0


def test_e2_euler_identity_per_row():
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        e1 = build_e1_page(n, q)
        e2 = e2_page(n, q)
        for s in range(0, 2 * n - 1, 2):
            lhs = sum((-1) ** r * mod.dim for (r, t), mod in e1.items() if t == s)
            rhs = sum((-1) ** r * mod.dim for (r, t), mod in e2.items() if t == s)
            assert lhs == rhs


def test_e2_matches_steinberg_dims():
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        page = e2_page(n, q)
        for s in range(0, 2 * n - 4 + 1, 2):
            top = n - 1 - s // 2
            assert page[(top, s)].dim == steinberg_dim(standard_subset(n, s // 2), q)


def test_page_guard():
    with pytest.raises(DeskScaleExceeded):
        e2_page(5, 2)


def test_function_complex_is_reproducible_bit_for_bit():
    fc = build_function_complex(1, 2, 1)
    assert fc.y_points == ((0, 1), (1, 0), (1, 1))
    assert fc.complex.diffs[0].dump() == "3 3 3\n0 0 1/1\n1 1 1/1\n2 2 1/1\n"
    again = build_function_complex(1, 2, 1)
    assert [d.dump() for d in again.complex.diffs] == [
        d.dump() for d in fc.complex.diffs
    ]


def test_each_resolution_is_built_once_per_run(monkeypatch, capsys):
    # the steinberg and e2 suites, and cohomology through e2_page, all read
    # the one record of each (J, q)
    calls = []
    real = gmodules.lattice_complex

    def counting(J, q):
        calls.append((J, q))
        return real(J, q)

    monkeypatch.setattr(gmodules, "lattice_complex", counting)
    assert cli.main(["verify", "--n-max", "2", "--q", "2,3", "--m-max", "1"]) == cli.EXIT_OK
    proper = [ParabolicType(n, mask) for n in (1, 2) for mask in range((1 << n) - 1)]
    assert Counter(calls) == Counter((J, q) for J in proper for q in (2, 3))


def test_failed_resolution_is_not_cached(monkeypatch):
    monkeypatch.setattr(gmodules, "steinberg_dim", lambda J, q: steinberg_dim(J, q) + 1)
    clear_resolutions()
    for _ in range(2):
        with pytest.raises(ExactnessError, match="inclusion-exclusion"):
            steinberg_resolution(ParabolicType.empty(2), 2)
    monkeypatch.undo()
    assert steinberg_resolution(ParabolicType.empty(2), 2) == (0, 0, 8)


def test_cli_run_clears_the_resolutions(monkeypatch, capsys):
    steinberg_resolution(ParabolicType.empty(2), 2)  # recorded from correct code
    monkeypatch.setattr(gmodules, "steinberg_dim", lambda J, q: steinberg_dim(J, q) + 1)
    args = ["verify", "--suite", "e2", "--n-max", "2", "--q", "2"]
    assert cli.main(args) == cli.EXIT_FAIL
    assert "FAIL  e2          n=2 q=2" in capsys.readouterr().out
    monkeypatch.undo()
    assert cli.main(args) == cli.EXIT_OK
