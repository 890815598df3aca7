"""Function-complex acyclicity and the spectral-sequence pages."""

import pytest

from drincoh.errors import DeskScaleExceeded, ExactnessError
from drincoh.ffgeom import enumerate_subspaces, field, in_extension_span, intersect_subspaces
from drincoh.gmodules import steinberg_dim
from drincoh.orlik import (
    build_e1_page,
    build_e1_row,
    build_function_complex,
    e2_page,
)
from drincoh.qarith import parabolic_index
from drincoh.rootdata import ParabolicType, standard_subset
from drincoh.tables import TwistedModule, summand


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
        assert fc.complex.euler_characteristic() == 0


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


def test_function_complex_guard():
    with pytest.raises(DeskScaleExceeded):
        build_function_complex(4, 2, 1)


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
                    W = intersect_subspaces(U, V)
                    assert W is not None
                    assert any(W == X for X in family)


def test_e1_row_shapes():
    row = build_e1_row(0, 2, 2)
    assert row.complex.terms == (14, 21)
    assert row.twist == 0
    row = build_e1_row(2, 2, 2)
    assert row.complex.terms == (7,)
    assert row.twist == -1
    assert row.subsets == ((standard_subset(2, 1),),)
    # the top row is always the single induced module of the full prefix
    for n, q in [(1, 2), (2, 2), (3, 2)]:
        row = build_e1_row(2 * n - 2, n, q)
        assert len(row.complex.terms) == 1
        assert row.complex.terms[0] == parabolic_index(standard_subset(n, n - 1), q)


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
