"""Final tables: H*(Y), H*_c(X), H*(X), and the Lefschetz cross-check."""

import math

import pytest

from drincoh.cohomology import (
    closed_form_h_of_y,
    dual_table,
    expected_h_of_x,
    expected_hc_of_x,
    h_of_projective_space,
    h_of_x,
    h_of_y,
    hc_of_x,
    lefschetz_count,
    _restriction_cokernel,
)
from drincoh.errors import LESUnderdetermined
from drincoh.ffgeom import drinfeld_points
from drincoh.qarith import projective_count
from drincoh.rootdata import ParabolicType, standard_subset
from drincoh.tables import TwistedModule, summand
from oracles import h_of_affine_space, hc_of_affine_space


def test_reference_tables_trace_to_point_counts():
    for n in (1, 2, 3):
        for q in (2, 3):
            for m in (1, 2):
                assert h_of_projective_space(n, q).euler_trace(m) == projective_count(n, q, m)
                assert hc_of_affine_space(n, q).euler_trace(m) == q ** (n * m)
                assert h_of_affine_space(n, q).euler_trace(m) == 1


def test_h_of_y_n2_q2_exact_table():
    t = h_of_y(2, 2)
    assert t.module(0) == TwistedModule.of(summand("K", None, 1, 0))
    assert t.module(1) == TwistedModule.of(summand("v", ParabolicType.empty(2), 8, 0))
    assert t.module(2) == TwistedModule.of(summand("Ind", standard_subset(2, 1), 7, -1))
    assert t.degrees() == [0, 1, 2]


def test_h_of_y_n1_is_the_induced_module():
    t = h_of_y(1, 2)
    assert t.degrees() == [0]
    assert t.module(0) == TwistedModule.of(summand("Ind", standard_subset(1, 0), 3, 0))


def test_h_of_y_matches_closed_form():
    for n in (1, 2, 3):
        for q in (2, 3):
            assert h_of_y(n, q) == closed_form_h_of_y(n, q)


def test_h_of_y_trace_counts_points_of_the_union():
    for n, q in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        t = h_of_y(n, q)
        for m in (1, 2):
            expected = projective_count(n, q, m) - drinfeld_points(n, q, m)
            assert t.euler_trace(m) == expected


def test_hc_of_x_examples():
    t = hc_of_x(h_of_y(1, 2))
    assert t.module(1) == TwistedModule.of(summand("v", ParabolicType.empty(1), 2, 0))
    assert t.module(2) == TwistedModule.of(summand("K", None, 1, -1))
    t = hc_of_x(h_of_y(2, 2))
    assert [t.module(d).dim for d in (2, 3, 4)] == [8, 6, 1]
    assert [next(iter(t.module(d).summands)).twist for d in (2, 3, 4)] == [0, -1, -2]
    assert t.degrees() == [2, 3, 4]
    t = hc_of_x(h_of_y(3, 2))
    assert t.module(3).dim == 64


def test_hc_of_x_matches_theorem_table():
    for n in (1, 2, 3):
        for q in (2, 3):
            got = hc_of_x(h_of_y(n, q))
            want = expected_hc_of_x(n, q)
            assert got == want
            # exactly one pure summand per degree n..2n
            for i in range(n + 1):
                mod = got.module(n + i)
                assert len(mod.summands) == 1
                (piece,) = mod.summands
                assert piece.twist == -i
                if i < n:
                    assert piece.kind == "v" and piece.subset == standard_subset(n, i)
                else:
                    assert piece.kind == "K"


def test_h_of_x_examples_and_duality():
    t = h_of_x(hc_of_x(h_of_y(2, 2)))
    assert [t.module(d).dim for d in (0, 1, 2)] == [1, 6, 8]
    assert t.module(1) == TwistedModule.of(summand("v'", standard_subset(2, 1), 6, -1))
    for n in (1, 2, 3):
        for q in (2, 3):
            hc = hc_of_x(h_of_y(n, q))
            hx = h_of_x(hc)
            assert hx == expected_h_of_x(n, q)
            for j in range(2 * n + 1):
                a, b = hx.module(j), hc.module(2 * n - j)
                assert a.dim == b.dim
                for s, tpiece in zip(a.summands, b.summands):
                    assert s.twist + tpiece.twist == -n
                    assert s.dim == tpiece.dim
                    assert s.subset == tpiece.subset
                    assert (s.kind, tpiece.kind) in {
                        ("K", "K"), ("v'", "v"), ("v", "v'"), ("Ind", "Ind")
                    }


def test_dual_table_is_an_involution_on_dims():
    t = hc_of_x(h_of_y(2, 3))
    tt = dual_table(dual_table(t, "H(X)"), "Hc(X)")
    assert {d: m.dim for d, m in tt.entries.items()} == {
        d: m.dim for d, m in t.entries.items()
    }


def test_lefschetz_count_examples():
    assert lefschetz_count(1, 2, 1) == 0
    assert lefschetz_count(1, 2, 2) == 2
    assert lefschetz_count(2, 2, 3) == 8 - 6 * 8 + 64 == 24


def test_lefschetz_equals_trace_of_hc():
    for n, q in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        t = hc_of_x(h_of_y(n, q))
        for m in (1, 2, 3):
            assert t.euler_trace(m) == lefschetz_count(n, q, m)


def test_lefschetz_is_the_count_of_spanning_digit_plane_tuples():
    # a vector over F_{q^m} avoids every F_q-rational hyperplane iff its m
    # digit planes span F_q^{n+1}: prod_{i=0..n} (q^m - q^i) vectors, the
    # full-rank (n+1) x m matrices over F_q; dividing by the q^m - 1 scalars
    # leaves prod_{i=1..n}, which is 0 for m <= n, where m planes cannot span
    for n in range(1, 5):
        for q in (2, 3, 5):
            for m in range(1, 7):
                want = math.prod(q**m - q**i for i in range(1, n + 1))
                assert lefschetz_count(n, q, m) == want, (n, q, m)
                assert (want == 0) == (m <= n)


def test_lefschetz_matches_enumeration_spot_checks():
    for n, q, m in [(1, 2, 3), (1, 3, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 3, 4)]:
        assert lefschetz_count(n, q, m) == drinfeld_points(n, q, m)


def test_restriction_cokernel_rules():
    B = ParabolicType.empty(2)
    K0 = TwistedModule.of(summand("K", None, 1, 0))
    # no source: the whole target survives
    coker, injective = _restriction_cokernel(0, TwistedModule.zero(), K0, 2)
    assert coker == K0 and injective
    # twist mismatch: the map must vanish
    target = TwistedModule.of(summand("v", B, 8, -3))
    coker, injective = _restriction_cokernel(0, K0, target, 2)
    assert coker == target and not injective
    # ambiguity: two summands with the matching twist
    messy = TwistedModule.of(summand("v", B, 8, 0), summand("K", None, 1, 0))
    with pytest.raises(LESUnderdetermined):
        _restriction_cokernel(0, K0, messy, 2)
    # a Steinberg summand cannot absorb the constants without a name
    with pytest.raises(LESUnderdetermined):
        _restriction_cokernel(0, K0, TwistedModule.of(summand("v", B, 8, 0)), 2)
    # an induced module of a maximal parabolic can: the quotient is Steinberg
    ind = TwistedModule.of(summand("Ind", standard_subset(2, 1), 7, 0))
    coker, injective = _restriction_cokernel(0, K0, ind, 2)
    assert injective
    assert coker == TwistedModule.of(summand("v", standard_subset(2, 1), 6, 0))


def test_input_validation():
    with pytest.raises(ValueError):
        lefschetz_count(0, 2, 1)
    with pytest.raises(ValueError):
        lefschetz_count(1, 2, 0)
