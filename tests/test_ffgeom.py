"""Field towers, subspace/flag enumeration, and point counts."""

from itertools import product

import pytest

from drincoh.errors import DeskScaleExceeded
from drincoh.ffgeom import (
    Flag,
    Subspace,
    chain_dims,
    drinfeld_points,
    enumerate_flags,
    enumerate_subspaces,
    field,
    flag_subvariety,
    forget,
    hyperplane_union_points,
    in_extension_span,
    intersect_subspaces,
    projective_points,
    rational_forms,
    rref,
    span,
    subspace_points,
)
from drincoh.qarith import gauss_binomial, parabolic_index, projective_count
from drincoh.rootdata import ParabolicType


# -- fields -------------------------------------------------------------------


def test_least_irreducible_moduli_are_the_classical_ones():
    assert field(2, 2).modulus == (1, 1, 1)  # t^2 + t + 1
    assert field(2, 3).modulus == (1, 1, 0, 1)  # t^3 + t + 1
    assert field(3, 2).modulus == (1, 0, 1)  # t^2 + 1
    assert field(5, 1).modulus == (0, 1)  # prime field: t itself


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_field_axioms(q, m):
    F = field(q, m)
    elems = range(F.size)
    for a in elems:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a, b, c in product(elems, repeat=3):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_prime_subfield_embeds_as_constants():
    F = field(2, 3)
    assert F.add(1, 1) == 0
    assert F.mul(1, 1) == 1
    G = field(3, 2)
    assert G.add(1, 2) == 0
    assert G.mul(2, 2) == 1


def test_field_rejects_nonprime():
    with pytest.raises(ValueError):
        field(4, 1)


# -- projective points ----------------------------------------------------------


def test_projective_points_counts_and_normalization():
    for n, q, m in [(1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 3, 1), (1, 5, 1)]:
        F = field(q, m)
        pts = projective_points(n, F)
        assert len(pts) == projective_count(n, q, m)
        assert len(set(pts)) == len(pts)
        assert pts == sorted(pts)
        for pt in pts:
            lead = next(x for x in pt if x)
            assert lead == 1


def test_rational_forms_are_projective_points_of_the_prime_field():
    assert len(rational_forms(2, 2)) == 7
    assert len(rational_forms(1, 5)) == 6


# -- subspaces -------------------------------------------------------------------


def brute_subspaces_via_spans(N, d, q):
    """Independent oracle: all d-dim subspaces as frozensets of their vectors."""
    vectors = [v for v in product(range(q), repeat=N) if any(v)]
    spans = set()
    for gens in product(vectors, repeat=d):
        seen = set()
        for coeffs in product(range(q), repeat=d):
            seen.add(
                tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) % q for i in range(N))
            )
        if len(seen) == q**d:
            spans.add(frozenset(seen))
    return spans


def subspace_vector_set(U):
    out = set()
    for coeffs in product(range(U.q), repeat=U.dim):
        out.add(
            tuple(
                sum(c * row[i] for c, row in zip(coeffs, U.basis)) % U.q
                for i in range(U.ambient_dim)
            )
        )
    return frozenset(out)


def test_enumerate_subspaces_examples():
    assert len(enumerate_subspaces(2, 1, 2)) == 3
    assert len(enumerate_subspaces(3, 1, 2)) == 7
    whole = enumerate_subspaces(3, 3, 2)
    assert len(whole) == 1
    assert whole[0].basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_enumerate_subspaces_matches_span_oracle():
    got = {subspace_vector_set(U) for U in enumerate_subspaces(3, 2, 2)}
    assert got == brute_subspaces_via_spans(3, 2, 2)
    got = {subspace_vector_set(U) for U in enumerate_subspaces(4, 1, 3)}
    assert got == brute_subspaces_via_spans(4, 1, 3)


def test_enumerate_subspaces_counts_and_canonical_form():
    for N in range(1, 5):
        for d in range(1, N + 1):
            for q in (2, 3):
                subs = enumerate_subspaces(N, d, q)
                assert len(subs) == gauss_binomial(N, d, q)
                assert len(set(subs)) == len(subs)
                assert list(subs) == sorted(subs)
                for U in subs:
                    assert rref(U.basis, q) == U.basis  # already reduced


def test_span_and_rref():
    U = span([(1, 1, 0), (0, 1, 1)], 2)
    assert U.dim == 2
    assert U.basis == ((1, 0, 1), (0, 1, 1))
    assert U.contains_vector((1, 0, 1))
    assert not U.contains_vector((1, 0, 0))
    with pytest.raises(ValueError):
        span([(0, 0, 0)], 2)


def test_intersect_subspaces():
    q = 2
    U = span([(1, 0, 0), (0, 1, 0)], q)
    V = span([(0, 1, 0), (0, 0, 1)], q)
    W = intersect_subspaces(U, V)
    assert W is not None and W.basis == ((0, 1, 0),)
    L1 = span([(1, 0, 0)], q)
    L2 = span([(0, 1, 0)], q)
    assert intersect_subspaces(L1, L2) is None
    # intersection with itself
    assert intersect_subspaces(U, U) == U


def test_intersection_agrees_with_vector_sets():
    for q in (2, 3):
        subs = enumerate_subspaces(3, 2, q)
        for U in subs[:5]:
            for V in subs[:5]:
                W = intersect_subspaces(U, V)
                expected = subspace_vector_set(U) & subspace_vector_set(V)
                if W is None:
                    assert len(expected) == 1  # just zero
                else:
                    assert subspace_vector_set(W) == expected


# -- flags -----------------------------------------------------------------------


def test_enumerate_flags_examples():
    assert len(enumerate_flags(ParabolicType.empty(1), 2)) == 3
    assert len(enumerate_flags(ParabolicType.empty(2), 2)) == 21
    assert len(enumerate_flags(ParabolicType.of(2, [0]), 2)) == 7
    full = enumerate_flags(ParabolicType.full(2), 2)
    assert len(full) == 1 and full[0].chain == ()


def test_enumerate_flags_counts_match_parabolic_index():
    for n in (1, 2, 3):
        for q in (2, 3):
            for mask in range(1 << n):
                I = ParabolicType(n, mask)
                flags = enumerate_flags(I, q)
                assert len(flags) == parabolic_index(I, q)
                assert len(set(flags)) == len(flags)
                assert list(flags) == sorted(flags)


def test_flag_chains_are_strictly_nested_with_prescribed_dims():
    I = ParabolicType.of(3, [1])  # composition (1,2,1) -> dims (1, 3)
    assert chain_dims(I) == (1, 3)
    for f in enumerate_flags(I, 2):
        assert tuple(U.dim for U in f.chain) == (1, 3)
        assert f.chain[1].contains(f.chain[0])


def test_forget_examples():
    full = enumerate_flags(ParabolicType.empty(2), 2)[0]
    J = ParabolicType.of(2, [0])  # keeps only the 2-dim member
    g = forget(full, J)
    assert g.type == J
    assert g.chain == (full.chain[1],)
    assert forget(full, full.type) is full
    # n = 3: type {a0, a2} has composition (2,2), keeping only dimension 2
    full3 = enumerate_flags(ParabolicType.empty(3), 2)[0]
    J3 = ParabolicType.of(3, [0, 2])
    assert chain_dims(J3) == (2,)
    assert forget(full3, J3).chain == (full3.chain[1],)
    with pytest.raises(ValueError):
        forget(g, ParabolicType.of(2, [1]))  # {a1} does not contain {a0}


def test_forget_fibers_are_constant():
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        I = ParabolicType.empty(n)
        for mask in range(1, 1 << n):
            J = ParabolicType(n, mask)
            if not J.is_proper:
                continue
            images = {}
            for f in enumerate_flags(I, q):
                images.setdefault(forget(f, J), 0)
                images[forget(f, J)] += 1
            fiber = parabolic_index(I, q) // parabolic_index(J, q)
            assert set(images) == set(enumerate_flags(J, q))  # surjective
            assert all(v == fiber for v in images.values())


def test_flag_subvariety_is_first_member():
    I = ParabolicType.of(2, [0])
    f = enumerate_flags(I, 2)[0]
    assert flag_subvariety(f) == f.chain[0]
    top = enumerate_flags(ParabolicType.full(2), 2)[0]
    with pytest.raises(ValueError):
        flag_subvariety(top)


# -- point counts -----------------------------------------------------------------


def union_count_closed_form(n, q, m):
    """Hyperplane-union size for n = 2: rational points plus, per line, its
    non-rational points (two rational lines only ever meet rationally)."""
    assert n == 2
    lines = projective_count(2, q, 1)  # dually: one line per rational form
    per_line_new = projective_count(1, q, m) - projective_count(1, q, 1)
    return projective_count(2, q, 1) + lines * per_line_new


def test_drinfeld_points_examples():
    assert drinfeld_points(1, 2, 1) == 0
    assert drinfeld_points(1, 2, 2) == 2
    assert drinfeld_points(2, 2, 3) == 73 - union_count_closed_form(2, 2, 3) == 24


def test_drinfeld_points_vanish_over_the_prime_field():
    for n in (1, 2, 3):
        for q in (2, 3):
            assert drinfeld_points(n, q, 1) == 0


def test_drinfeld_complement_partition():
    for n, q, m in [(1, 2, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2)]:
        union = hyperplane_union_points(n, q, m)
        assert len(union) + drinfeld_points(n, q, m) == projective_count(n, q, m)
        assert union == sorted(union)


def test_drinfeld_size_guard():
    with pytest.raises(DeskScaleExceeded):
        drinfeld_points(3, 5, 3)


def test_subspace_points():
    e0 = span([(1, 0, 0)], 2)
    assert subspace_points(e0, 1) == [(1, 0, 0)]
    plane = span([(1, 0, 0), (0, 1, 0)], 2)
    assert len(subspace_points(plane, 1)) == 3 == projective_count(1, 2, 1)
    assert len(subspace_points(plane, 2)) == 5 == projective_count(1, 2, 2)
    F = field(2, 2)
    for pt in subspace_points(plane, 2):
        lead = next(x for x in pt if x)
        assert lead == 1
        assert in_extension_span(pt, plane, F)
    assert not in_extension_span((0, 0, 1), plane, F)
    assert subspace_points(plane, 2) == sorted(subspace_points(plane, 2))
