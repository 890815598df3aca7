"""Field towers, subspace/flag enumeration, and point counts."""

from itertools import product
from operator import itemgetter

import pytest

from drincoh import ffgeom
from drincoh.errors import DeskScaleExceeded
from drincoh.ffgeom import (
    FLAG_GUARD,
    MASK_GUARD,
    POINT_GUARD,
    Flag,
    chain_dims,
    drinfeld_points,
    enumerate_flags,
    enumerate_subspaces,
    flag_keys,
    forget,
    forget_map,
    hyperplane_union_points,
    point_positions,
    projective_points,
    rational_forms,
    subspace_points,
    _normalized,
    _superspaces,
    _vanishing_masks,
)
from drincoh.qarith import gauss_binomial, parabolic_index, projective_count
from drincoh.rootdata import ParabolicType
from oracles import (
    contains,
    contains_vector,
    field,
    flags_by_containment,
    in_extension_span,
    intersect_subspaces,
    normalized_by_product,
    rref,
    span,
    split_by_digit_planes,
    split_by_rational_hyperplanes,
    subspace_points_over,
    vanishing_masks_by_evaluation,
)


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
        pts = projective_points(n, q, m)
        assert len(pts) == projective_count(n, q, m)
        assert len(set(pts)) == len(pts)
        assert pts == sorted(pts)
        for pt in pts:
            lead = next(x for x in pt if x)
            assert lead == 1


@pytest.mark.parametrize(
    "length,size", [(1, 2), (1, 9), (2, 2), (2, 5), (3, 3), (4, 2), (4, 4), (5, 3), (7, 2)]
)
def test_normalized_matches_product_reference(length, size):
    assert list(_normalized(length, size)) == normalized_by_product(length, size)


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


def test_enumerate_subspaces_examples():
    assert len(enumerate_subspaces(2, 1, 2)) == 3
    assert len(enumerate_subspaces(3, 1, 2)) == 7
    whole = enumerate_subspaces(3, 3, 2)
    assert len(whole) == 1
    assert whole[0] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_enumerate_subspaces_matches_span_oracle():
    got = {subspace_vector_set(U, 2) for U in enumerate_subspaces(3, 2, 2)}
    assert got == brute_subspaces_via_spans(3, 2, 2)
    got = {subspace_vector_set(U, 3) for U in enumerate_subspaces(4, 1, 3)}
    assert got == brute_subspaces_via_spans(4, 1, 3)


def test_enumerate_subspaces_counts_and_canonical_form():
    for N in range(1, 5):
        for d in range(1, N + 1):
            for q in (2, 3):
                subs = enumerate_subspaces(N, d, q)
                assert len(subs) == gauss_binomial(N, d, q)
                assert len(set(subs)) == len(subs)
                # subspaces sort as their bases, from any starting order
                assert list(subs) == sorted(subs[::-1])
                for U in subs:
                    assert len(U) == d and all(len(row) == N for row in U)
                    assert rref(U, q) == U  # already reduced


def test_span_and_rref():
    U = span([(1, 1, 0), (0, 1, 1)], 2)
    assert U == ((1, 0, 1), (0, 1, 1))
    assert contains_vector(U, (1, 0, 1), 2)
    assert not contains_vector(U, (1, 0, 0), 2)
    with pytest.raises(ValueError):
        span([(0, 0, 0)], 2)


def test_intersect_subspaces():
    q = 2
    U = span([(1, 0, 0), (0, 1, 0)], q)
    V = span([(0, 1, 0), (0, 0, 1)], q)
    W = intersect_subspaces(U, V, q)
    assert W == ((0, 1, 0),)
    L1 = span([(1, 0, 0)], q)
    L2 = span([(0, 1, 0)], q)
    assert intersect_subspaces(L1, L2, q) is None
    # intersection with itself
    assert intersect_subspaces(U, U, q) == U


def test_intersection_agrees_with_vector_sets():
    for q in (2, 3):
        subs = enumerate_subspaces(3, 2, q)
        for U in subs[:5]:
            for V in subs[:5]:
                W = intersect_subspaces(U, V, q)
                expected = subspace_vector_set(U, q) & subspace_vector_set(V, q)
                if W is None:
                    assert len(expected) == 1  # just zero
                else:
                    assert subspace_vector_set(W, q) == expected


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
                # flags sort as their (type, chain) tuples, from any starting order
                assert list(flags) == sorted(flags[::-1])
                assert list(flags) == sorted(flags, key=lambda f: (f.type, f.chain))


def test_flag_chains_are_strictly_nested_with_prescribed_dims():
    I = ParabolicType.of(3, [1])  # composition (1,2,1) -> dims (1, 3)
    assert chain_dims(I) == (1, 3)
    for f in enumerate_flags(I, 2):
        assert tuple(len(U) for U in f.chain) == (1, 3)
        assert contains(f.chain[1], f.chain[0], 2)


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


SMALL = [(n, q) for n in (1, 2, 3) for q in (2, 3)]


def all_subsets(n):
    return [ParabolicType(n, mask) for mask in range(1 << n)]


@pytest.mark.parametrize("n,q", SMALL)
def test_enumerate_flags_matches_containment_oracle(n, q):
    for I in all_subsets(n):
        flags = enumerate_flags(I, q)
        assert flags == flags_by_containment(I, q)
        levels = [enumerate_subspaces(n + 1, d, q) for d in chain_dims(I)]
        for f, key in zip(flags, flag_keys(I, q), strict=True):
            assert f.chain == tuple(level[k] for level, k in zip(levels, key))


def test_full_flags_n4_match_containment_oracle():
    I = ParabolicType.empty(4)
    assert enumerate_flags(I, 2) == flags_by_containment(I, 2)


@pytest.mark.parametrize("n,q", SMALL + [(1, 5), (2, 5)])
def test_superspaces_match_containment_oracle(n, q):
    N = n + 1
    for small in range(1, N):
        for big in range(small + 1, N + 1):
            smalls = enumerate_subspaces(N, small, q)
            bigs = enumerate_subspaces(N, big, q)
            expected = tuple(
                tuple(v for v, V in enumerate(bigs) if contains(V, U, q)) for U in smalls
            )
            assert _superspaces(N, small, big, q) == expected
            # the images W·V it looks up are RREF bases as they stand
            for V in bigs:
                for W in enumerate_subspaces(big, small, q):
                    WV = tuple(
                        tuple(sum(a * x for a, x in zip(w, col)) % q for col in zip(*V))
                        for w in W
                    )
                    assert rref(WV, q) == WV


@pytest.mark.parametrize("n,q", SMALL)
def test_forget_map_matches_forget(n, q):
    for I in all_subsets(n):
        flags = enumerate_flags(I, q)
        for J in all_subsets(n):
            if not J.contains(I):
                with pytest.raises(ValueError):
                    forget_map(I, J, q)
                continue
            position = {g: k for k, g in enumerate(enumerate_flags(J, q))}
            assert forget_map(I, J, q) == tuple(position[forget(f, J)] for f in flags)


def test_flag_guard_decides_by_full_flags():
    # |G/B| is 9765 at (4,2), whose full flags are built above, and 29016 at
    # (3,5): every type of (3,5) is refused, even the 156 lines
    assert parabolic_index(ParabolicType.empty(3), 5) > FLAG_GUARD
    for I in (ParabolicType.empty(3), ParabolicType.of(3, [1, 2])):
        with pytest.raises(DeskScaleExceeded):
            flag_keys(I, 5)
        with pytest.raises(DeskScaleExceeded):
            enumerate_flags(I, 5)


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


def test_drinfeld_mask_table_guard():
    # 5^6 candidates pass the vector guard, but the mask table would hold a
    # bit for each of 3906 forms on 15625 vectors; (4,5) needs 781 * 3125
    assert 5**6 < POINT_GUARD
    with pytest.raises(DeskScaleExceeded, match="vanishing-mask"):
        drinfeld_points(5, 5, 1)
    with pytest.raises(DeskScaleExceeded, match="vanishing-mask"):
        hyperplane_union_points(5, 5, 1)
    assert projective_count(4, 5, 1) * 5**5 <= MASK_GUARD


@pytest.mark.parametrize(
    "n,q", [(n, q) for q in (2, 3) for n in (1, 2, 3, 4)] + [(n, 5) for n in (1, 2, 3)]
)
def test_vanishing_masks_match_evaluation(n, q):
    forms = tuple(rational_forms(n, q))
    masks = _vanishing_masks(forms, q)
    want = vanishing_masks_by_evaluation(forms, q)
    assert masks == want
    assert list(masks) == list(want)


def test_point_counts_reject_nonprime_q():
    with pytest.raises(ValueError, match="prime"):
        drinfeld_points(1, 4, 2)
    with pytest.raises(ValueError, match="prime"):
        hyperplane_union_points(1, 4, 2)


REFERENCE_POINTS = [
    (n, q, m)
    for n in (1, 2, 3)
    for q in (2, 3, 5)
    for m in (1, 2, 3)
    if q ** (m * (n + 1)) <= 10**6
]


@pytest.mark.parametrize("n,q,m", REFERENCE_POINTS)
def test_point_counts_match_reference_field(n, q, m):
    on, off = split_by_rational_hyperplanes(n, q, m)
    assert hyperplane_union_points(n, q, m) == on
    assert drinfeld_points(n, q, m) == len(off)


PLANE_REFERENCE_POINTS = [(n, 2, m) for n in (1, 2, 3) for m in range(1, 6)] + [
    (3, 3, 3),
    (2, 5, 2),
    (4, 5, 1),
    (1, 3, 6),
    (1, 2, 13),  # the largest n = 1 point the guard admits: one coordinate outgrows a block
    (2, 3, 5),  # m odd: the low half has one plane more than the high half
]


@pytest.mark.parametrize("chunk", [ffgeom.POINT_CHUNK, 7, 1])
def test_point_counts_match_per_point_reference(chunk, monkeypatch):
    # a block holds at most `chunk` codes of the last coordinates: at 7 the
    # tail is at most one coordinate at q < 7, and at 1 no coordinate fits,
    # so every head code is a block of one point
    monkeypatch.setattr(ffgeom, "POINT_CHUNK", chunk)
    for n, q, m in PLANE_REFERENCE_POINTS:
        on, off = split_by_digit_planes(n, q, m)
        assert len(on) + len(off) == projective_count(n, q, m)
        assert hyperplane_union_points(n, q, m) == on, (n, q, m)
        assert drinfeld_points(n, q, m) == len(off), (n, q, m)


@pytest.mark.parametrize(
    "n,q,m",
    [(n, q, m) for n in (1, 2, 3) for q in (2, 3) for m in (1, 2, 3)]
    + [(n, 5, m) for n in (1, 2) for m in (1, 2)],
)
def test_subspace_points_match_reference_field(n, q, m):
    for d in range(1, n + 2):
        for U in enumerate_subspaces(n + 1, d, q):
            assert subspace_points(U, q, m) == subspace_points_over(U, q, m), U


@pytest.mark.parametrize(
    "n,q,m",
    [(n, q, m) for n in (1, 2, 3) for q in (2, 3) for m in (1, 2)]
    + [(n, 5, m) for n in (1, 2) for m in (1, 2)],
)
def test_points_sit_at_the_position_of_their_pivot_entries(n, q, m):
    for d in range(1, n + 2):
        positions = point_positions(d, q, m)
        assert sorted(positions.values()) == list(range(projective_count(d - 1, q, m)))
        for U in enumerate_subspaces(n + 1, d, q):
            pivots = itemgetter(*[row.index(1) for row in U])
            for k, pt in enumerate(subspace_points(U, q, m)):
                assert positions[pivots(pt)] == k, (U, pt)


def test_subspace_points():
    e0 = span([(1, 0, 0)], 2)
    assert subspace_points(e0, 2, 1) == [(1, 0, 0)]
    plane = span([(1, 0, 0), (0, 1, 0)], 2)
    assert len(subspace_points(plane, 2, 1)) == 3 == projective_count(1, 2, 1)
    assert len(subspace_points(plane, 2, 2)) == 5 == projective_count(1, 2, 2)
    F = field(2, 2)
    for pt in subspace_points(plane, 2, 2):
        lead = next(x for x in pt if x)
        assert lead == 1
        assert in_extension_span(pt, plane, F)
    assert not in_extension_span((0, 0, 1), plane, F)
    assert subspace_points(plane, 2, 2) == sorted(subspace_points(plane, 2, 2))
