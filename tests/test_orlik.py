"""Function-complex acyclicity and the spectral-sequence pages."""

from collections import Counter
from itertools import accumulate

import pytest

from drincoh import cli, ffgeom, gmodules, matching, orlik
from drincoh.errors import DeskScaleExceeded, ExactnessError
from drincoh.ffgeom import enumerate_subspaces, hyperplane_union_points, projective_points
from drincoh.gmodules import (
    clear_resolutions,
    lattice_complex,
    steinberg_resolution,
)
from drincoh.homalg import ChainComplex, ExactMatrix
from drincoh.matching import check_matching, function_complex_labels, hull_mask
from drincoh.orlik import build_e1_row, build_function_complex, e2_page
from drincoh.qarith import parabolic_index, steinberg_dim
from drincoh.rootdata import ParabolicType, i_of_I, standard_subset
from drincoh.tables import TwistedModule, summand
from oracles import (
    build_e1_page,
    euler_characteristic,
    field,
    function_complex_summands,
    in_extension_span,
    intersect_subspaces,
    rows_of,
)


# every desk point, and past q = 3 at n <= 2
FUNCTION_COMPLEX_GRID = [(n, q, m) for n in (1, 2, 3) for q in (2, 3) for m in (1, 2)] + [
    (n, q, m) for n in (1, 2) for q in (5, 7) for m in (1, 2)
]


def test_function_complex_shapes():
    fc = build_function_complex(1, 2, 1)
    assert fc.terms == (3, 3)
    fc = build_function_complex(2, 2, 1)
    assert fc.terms == (7, 28, 21)
    # term sizes over F_4 recomputed from the point enumeration itself:
    # 21 points of P^2(F_4) are all on rational lines, 7 lines with 5 points
    # each plus 7 single-point strata, then 21 full-flag strata
    fc = build_function_complex(2, 2, 2)
    assert fc.terms == (21, 42, 21)


def test_function_complex_acyclic_on_grid():
    for n, q, m in [(1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 3, 1)]:
        fc = build_function_complex(n, q, m)
        assert fc.homology_dims() == (0,) * len(fc.terms)
        assert euler_characteristic(fc) == 0


# hulls of dimension 3 first appear at m = 3
MATCHING_GRID = FUNCTION_COMPLEX_GRID + [(3, 2, 3), (3, 2, 4)]


def _labels(n, q, m):
    levels, dims, _ = orlik.function_complex_layout(n, q, m)
    return levels, dims, function_complex_labels(
        levels, dims, len(hyperplane_union_points(n, q, m)), q, m
    )


@pytest.mark.parametrize("n, q, m", MATCHING_GRID)
def test_hull_matching_agrees_with_homology_dims(n, q, m):
    # the builder certified the complex acyclic by the matching; the
    # reference ranks agree, and each rank is exactly the number of matched
    # pairs across it
    cx = build_function_complex(n, q, m)
    assert cx.homology_dims() == (0,) * len(cx.terms)
    _, _, down = _labels(n, q, m)
    assert list(map(len, down)) == list(cx.terms)
    for t, d in enumerate(cx.diffs):
        assert d.rank() == down[t].count(0) == down[t + 1].count(1), (n, q, m, t)


@pytest.mark.parametrize("n, q, m", MATCHING_GRID)
def test_matched_down_cells_are_the_closed_form_hull_counts(n, q, m):
    # a type-I summand's matched-down points are the F_{q^m}-points of its
    # P(U) off every rational hyperplane: #Ω^{d-1}(F_{q^m}) = ∏_{i=1}^{d-1}(q^m - q^i)
    levels, dims, down = _labels(n, q, m)
    assert down[0].count(1) == 0
    for level, mask in zip(levels, down[1:]):
        expected = 0
        for I in level:
            generic = 1
            for i in range(1, i_of_I(I) + 1):
                generic *= q**m - q**i
            expected += dims[I] * generic
        assert mask.count(1) == expected, (n, q, m, level)


@pytest.mark.parametrize("d, q, m", [(1, 2, 1), (2, 2, 1), (2, 3, 2), (3, 2, 2),
                                     (3, 2, 3), (3, 3, 2), (4, 2, 2)])
def test_hull_mask_is_the_brute_force_rational_hull(d, q, m):
    # a point of P^{d-1}(F_{q^m}) is generic iff no proper rational subspace
    # of F_q^d holds it, checked in the reference field
    F = field(q, m)
    proper = [W for k in range(1, d) for W in enumerate_subspaces(d, k, q)]
    points = projective_points(d - 1, q, m)
    generic = bytes(not any(in_extension_span(x, W, F) for W in proper) for x in points)
    assert hull_mask(d, q, m) == generic


@pytest.mark.parametrize("d, q, m", [(3, 2, 3), (4, 3, 2)])
def test_hull_mask_reads_the_masks_without_listing_points(d, q, m, monkeypatch):
    on = set(hyperplane_union_points(d - 1, q, m))
    want = bytes(x not in on for x in projective_points(d - 1, q, m))

    def listed(n, q, m=1, _orig=ffgeom.projective_points):
        # the forms, P^{d-1}(F_q), are listed through rational_forms
        if m > 1:
            raise AssertionError(f"P^{n}(F_{{{q}^{m}}}) listed")
        return _orig(n, q, m)

    monkeypatch.setattr(ffgeom, "projective_points", listed)
    hull_mask.cache_clear()  # a cached mask would not reach the pass
    assert hull_mask(d, q, m) == want


def _interval(d1_covers=((0, -1, [0]), (0, 1, [1]))):
    # the augmented cochain complex of an edge: Y's one cell, two vertices,
    # one edge, matched as Y-a and b-edge
    blocks = [[("Y", 1)], [("V", 2)], [("E", 1)]]
    covers = [[[(0, 1, [0, 0])]], [list(d1_covers)]]
    diffs = tuple(ExactMatrix(blocks[t + 1], blocks[t], form) for t, form in enumerate(covers))
    return ChainComplex((1, 2, 1), diffs), [b"\x00", b"\x01\x00", b"\x01"]


def test_check_matching_on_a_hand_built_complex():
    cx, down = _interval()
    check_matching(cx, down)
    # a partner entry must be ±1, so that the matched minor is a signed
    # permutation over Z
    doubled, _ = _interval(((0, -2, [0]), (0, 2, [1])))
    with pytest.raises(ExactnessError, match=r"^d_1, row cell 0 of block E: .* entry 2, not ±1"):
        check_matching(doubled, down)
    # the ends: nothing below term 0, nothing above the top term
    with pytest.raises(ExactnessError, match=r"^term 0, cell 0 of block Y: matched down"):
        check_matching(cx, [b"\x01", b"\x01\x00", b"\x01"])
    with pytest.raises(ExactnessError, match=r"^term 2, cell 0 of block E: matched up"):
        check_matching(cx, [b"\x00", b"\x01\x00", b"\x00"])
    # a d_0 with no covers keeps d∘d = 0, but H_0 = 1 shows as a row short
    empty = ChainComplex(cx.terms, (ExactMatrix([("V", 2)], [("Y", 1)], [[]]), cx.diffs[1]))
    with pytest.raises(ExactnessError, match=r"^d_0, row cell 0 of block V: .* 0 entries"):
        check_matching(empty, down)
    with pytest.raises(ValueError):
        check_matching(cx, down[:2])
    with pytest.raises(ValueError, match="no differentials"):
        check_matching(ChainComplex((1,), ()), [b"\x00"])


def test_check_matching_rejects_a_row_with_two_partners():
    # the edge's row meets both matched-up vertices
    d = ExactMatrix([("E", 1)], [("V", 2)], [[(0, -1, [0]), (0, 1, [1])]])
    with pytest.raises(ExactnessError, match=r"^d_0, row cell 0 of block E: .* 2 entries"):
        check_matching(ChainComplex((2, 1), (d,)), [b"\x00\x00", b"\x01"])
    # two covers of the edge's row cannot both meet the one matched-up
    # vertex b, where their entries would sum to 0: the constructor wants
    # the columns of a row to rise strictly along its covers
    with pytest.raises(ValueError, match="columns of entry 1 do not lie right of entry 0"):
        _interval(((0, 1, [1]), (0, -1, [1])))


def test_check_matching_rejects_an_unmatched_or_doubly_matched_cell():
    # vertex a is matched up, but no matched-down row has an entry there
    d = ExactMatrix([("E", 1)], [("V", 2)], [[(0, 1, [1])]])
    with pytest.raises(ExactnessError, match=r"^d_0, column cell 0 of block V: .* of 0 "):
        check_matching(ChainComplex((2, 1), (d,)), [b"\x00\x00", b"\x01"])
    # both vertices claim Y's one cell
    d = ExactMatrix([("V", 2)], [("Y", 1)], [[(0, 1, [0, 0])]])
    with pytest.raises(ExactnessError, match=r"^d_0, column cell 0 of block Y: .* of 2 "):
        check_matching(ChainComplex((1, 2), (d,)), [b"\x00", b"\x01\x01"])


@pytest.mark.parametrize("cover", [
    (0, 1, [0]),  # an image of the wrong length
    (0, 1, [0, 0, 0]),
    (0, 1, [0, 1]),  # a column outside its block
    (1, 1, [0, 0]),  # a block that is not there
])
def test_both_checks_reject_a_malformed_cover_form(cover):
    # both checks read only a ChainComplex's ExactMatrix differentials, and
    # their constructor validates each cover form once, so a malformed one
    # never reaches them
    cx, down = _interval()
    check_matching(cx, down)
    with pytest.raises(ExactnessError, match=r"^2 row blocks of covers, not 1$"):
        ExactMatrix([("E", 1)], [("V", 2)], cx.diffs[1].covers * 2)
    where = rf"^row block V: entry 0 of its rows does not map its 2 rows into block {cover[0]}$"
    with pytest.raises(ExactnessError, match=where):
        ExactMatrix([("V", 2)], [("Y", 1)], [[cover]])


def test_matching_failure_names_the_function_complex(monkeypatch):
    def flipped(d, q, m, _orig=hull_mask):
        mask = _orig(d, q, m)
        return bytes([1 - mask[0]]) + mask[1:] if d == 2 else mask

    monkeypatch.setattr(matching, "hull_mask", flipped)
    where = r"^function complex \(n, q, m\) = \(2, 2, 1\): d_0, column cell 0 of block Y"
    with pytest.raises(ExactnessError, match=where) as exc:
        build_function_complex(2, 2, 1)
    assert isinstance(exc.value.__cause__, ExactnessError)


def test_summand_point_off_y_names_the_function_complex(monkeypatch):
    monkeypatch.setattr(orlik, "hyperplane_union_points",
                        lambda n, q, m: hyperplane_union_points(n, q, m)[:-1])
    where = r"^function complex \(n, q, m\) = \(2, 2, 1\): summand point .* is not in Y"
    with pytest.raises(ExactnessError, match=where) as exc:
        build_function_complex(2, 2, 1)
    assert isinstance(exc.value.__cause__, KeyError)


def test_orlik_suite_ranks_nothing(monkeypatch, capsys):
    # the function complex's differentials are ExactMatrix objects, but the
    # hull matching certifies it: nothing is ranked
    def no_rank(*args, **kwargs):
        raise AssertionError("a matrix ranked on the orlik path")

    monkeypatch.setattr(ExactMatrix, "rank", no_rank)
    argv = ["verify", "--suite", "orlik", "--n-max", "3", "--q", "2,3", "--m-max", "2"]
    assert cli.main(argv) == cli.EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("n, q, m", FUNCTION_COMPLEX_GRID)
def test_function_complex_nnz_is_the_nnz_of_the_built_complex(n, q, m):
    # each point of a type-I summand has a row with one entry per cover (the
    # augmentation's rows, #I = n-1, one each), so the differentials hold
    # Σ_{I⊊Δ} (n-#I)·[G:P_I]·#P^{i(I)}(F_{q^m}) nonzeros
    _, dims, points = orlik.function_complex_layout(n, q, m)
    diffs = build_function_complex(n, q, m).diffs
    assert sum((n - I.size) * dims[I] * points[I] for I in dims) == sum(d.nnz for d in diffs)


def test_function_complex_summand_invariants():
    levels = function_complex_summands(2, 2, 2)
    y = set(hyperplane_union_points(2, 2, 2))
    covered = set()
    for level in levels:
        for _, _, points in level:
            assert set(points) <= y
            covered |= set(points)
    assert covered == y
    # ordering: subsets by size descending, flags in canonical order
    assert [I.size for I, _, _ in levels[0]] == [1] * len(levels[0])
    assert [I.size for I, _, _ in levels[1]] == [0] * len(levels[1])


@pytest.mark.parametrize("n, q, m", FUNCTION_COMPLEX_GRID)
def test_function_complex_layout_is_the_summands_of_the_built_complex(n, q, m):
    # the closed-form layout against the flags and points themselves: each
    # subset's block holds [G:P_I] summands of #P^{i(I)}(F_{q^m}) points
    levels, dims, points = orlik.function_complex_layout(n, q, m)
    summands = function_complex_summands(n, q, m)
    assert levels == [list(dict.fromkeys(I for I, _, _ in level)) for level in summands]
    for level in summands:
        for I in dict.fromkeys(I for I, _, _ in level):
            sizes = [len(pts) for J, _, pts in level if J == I]
            assert sizes == [points[I]] * dims[I], (n, q, m, I)
    cx = build_function_complex(n, q, m)
    y = hyperplane_union_points(n, q, m)
    assert cx.terms == (len(y),) + tuple(
        sum(dims[I] * points[I] for I in level) for level in levels
    )
    assert cx.terms[1:] == tuple(sum(len(pts) for _, _, pts in level) for level in summands)


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
        all_proper = [
            U for d in range(1, n + 1) for U in enumerate_subspaces(n + 1, d, q)
        ]
        for pt in hyperplane_union_points(n, q, m):
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
        levels = function_complex_summands(n, q, m)
        row0 = lattice_complex(ParabolicType.empty(n), q)[1].diffs[1:]
        assert len(fc.diffs) == len(row0) + 1
        for t, flag_d in enumerate(row0):
            d = fc.diffs[t + 1]
            sources, targets = levels[t], levels[t + 1]
            assert (flag_d.rows, flag_d.cols) == (len(targets), len(sources))
            src_of = [g for g, (_, _, pts) in enumerate(sources) for _ in pts]
            src_off = list(accumulate((len(pts) for _, _, pts in sources), initial=0))
            flag_rows, point_rows = rows_of(flag_d), iter(rows_of(d))
            for f, (_, _, target_points) in enumerate(targets):
                want = flag_rows[f]
                for pt in target_points:
                    got = {}
                    for c, v in next(point_rows).items():
                        g = src_of[c]
                        assert g not in got
                        assert sources[g][2][c - src_off[g]] == pt
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
    assert hyperplane_union_points(1, 2, 1) == [(0, 1), (1, 0), (1, 1)]
    assert fc.diffs[0].dump() == "3 3 3\n0 0 1/1\n1 1 1/1\n2 2 1/1\n"
    again = build_function_complex(1, 2, 1)
    assert [d.dump() for d in again.diffs] == [
        d.dump() for d in fc.diffs
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
