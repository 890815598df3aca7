"""Subset/composition dictionary, the lattice sign convention, and the
semantics of the frozen value classes."""

import pickle

import pytest

from drincoh.ffgeom import Flag
from drincoh.rootdata import (
    Frozen,
    ParabolicType,
    cover_sign,
    i_of_I,
    standard_subset,
    subsets_of_size,
)
from drincoh.tables import Summand, TwistedModule
from oracles import from_composition


def all_compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in all_compositions(total - first):
            yield (first,) + rest


def test_to_composition_examples():
    assert ParabolicType.of(2, [0]).to_composition() == (2, 1)
    assert ParabolicType.empty(2).to_composition() == (1, 1, 1)
    assert ParabolicType.full(3).to_composition() == (4,)
    assert ParabolicType.of(3, [0, 2]).to_composition() == (2, 2)
    assert ParabolicType.of(3, [1, 2]).to_composition() == (1, 3)


def test_composition_round_trips():
    for n in range(1, 6):
        for mask in range(1 << n):
            I = ParabolicType(n, mask)
            assert from_composition(I.to_composition()) == I
        for comp in all_compositions(n + 1):
            assert from_composition(comp).to_composition() == comp


def test_i_of_I():
    assert i_of_I(ParabolicType.of(2, [0])) == 1
    assert i_of_I(ParabolicType.empty(2)) == 0
    assert i_of_I(ParabolicType.of(3, [0, 1])) == 2
    for n in range(1, 6):
        for j in range(n):
            assert i_of_I(standard_subset(n, j)) == j
    with pytest.raises(ValueError):
        i_of_I(ParabolicType.full(2))


def test_standard_subset_shape():
    assert standard_subset(3, 0) == ParabolicType.empty(3)
    assert standard_subset(3, 2).members == (0, 1)
    assert standard_subset(3, 3) == ParabolicType.full(3)
    assert standard_subset(3, 2).to_composition() == (3, 1)
    with pytest.raises(ValueError):
        standard_subset(3, 4)


def test_subsets_of_size_examples():
    assert subsets_of_size(2, 1) == [ParabolicType.of(2, [0]), ParabolicType.of(2, [1])]
    assert subsets_of_size(2, 2) == []  # the full set is excluded when proper
    assert subsets_of_size(3, 2, containing=ParabolicType.of(3, [0])) == [
        ParabolicType.of(3, [0, 1]),
        ParabolicType.of(3, [0, 2]),
    ]
    assert subsets_of_size(3, 3, proper=False) == [ParabolicType.full(3)]


def test_subsets_of_size_exhaustive_and_ordered():
    for n in range(1, 5):
        for c in range(n + 1):
            got = subsets_of_size(n, c, proper=False)
            expected = sorted(
                (
                    ParabolicType(n, mask)
                    for mask in range(1 << n)
                    if bin(mask).count("1") == c
                ),
            )
            assert got == expected
            assert got == sorted(got)


def test_covering_counts():
    # each proper I is covered by exactly #(Δ∖I) supersets inside the full lattice
    for n in range(1, 5):
        for mask in range((1 << n) - 1):
            I = ParabolicType(n, mask)
            covers = [
                J
                for c in range(n + 1)
                for J in subsets_of_size(n, c, proper=False)
                if J.contains(I) and J.size == I.size + 1
            ]
            assert len(covers) == n - I.size


def test_cover_sign_alternates_over_missing_roots():
    I = ParabolicType.empty(3)
    assert [cover_sign(I, a) for a in range(3)] == [1, -1, 1]
    J = ParabolicType.of(3, [1])
    assert [cover_sign(J, a) for a in (0, 2)] == [1, -1]
    with pytest.raises(ValueError):
        cover_sign(J, 1)


def test_cover_sign_square_identity():
    # removing two roots in either order must produce opposite signs
    for n in range(1, 6):
        for mask in range(1 << n):
            I = ParabolicType(n, mask)
            missing = [a for a in range(n) if not mask >> a & 1]
            for a in missing:
                for b in missing:
                    if a == b:
                        continue
                    first = cover_sign(I.union(b), a) * cover_sign(I, b)
                    second = cover_sign(I.union(a), b) * cover_sign(I, a)
                    assert first == -second


def test_rendering():
    I = ParabolicType.of(2, [0])
    assert I.subset_str() == "{a0}"
    assert I.composition_str() == "(2,1)"
    assert str(I) == "(2,1)"
    assert ParabolicType.empty(2).subset_str() == "{}"


def test_mask_validation():
    with pytest.raises(ValueError):
        ParabolicType(2, 1 << 2)
    with pytest.raises(ValueError):
        ParabolicType(0, 0)


K0 = "Summand(kind='K', subset=None, dim=1, twist=0)"
# (builder, a field, the repr a frozen dataclass of the same fields gives)
VALUES = {
    "ParabolicType": (lambda: ParabolicType(3, 5), "mask", "ParabolicType(n=3, mask=5)"),
    "Flag": (
        lambda: Flag(ParabolicType(1, 0), (((0, 1),),)),
        "chain",
        "Flag(type=ParabolicType(n=1, mask=0), chain=(((0, 1),),))",
    ),
    "Summand": (
        lambda: Summand("v", ParabolicType(3, 5), 2, -1),
        "twist",
        "Summand(kind='v', subset=ParabolicType(n=3, mask=5), dim=2, twist=-1)",
    ),
    "TwistedModule": (
        lambda: TwistedModule((Summand("K", None, 1, 0),)),
        "summands",
        f"TwistedModule(summands=({K0},))",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_classes_are_frozen_and_compare_by_fields(name):
    make, field, text = VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != getattr(a, field)  # another type never compares equal
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert pickle.loads(pickle.dumps(a)) == a


def test_equal_fields_of_another_class_are_unequal():
    class Twin(Frozen):
        __slots__ = ("n", "mask")

        def __init__(self, n, mask):
            object.__setattr__(self, "n", n)
            object.__setattr__(self, "mask", mask)

    twin, I = Twin(3, 5), ParabolicType(3, 5)
    assert twin == Twin(3, 5) and hash(twin) == hash(I)  # same field tuple
    assert twin != I and I != twin


@pytest.mark.parametrize("name", VALUES)
def test_value_classes_hash_and_pickle_as_their_slot_tuple(name):
    # one attrgetter per class reads the fields, and a one-slot class still
    # gives a tuple; no class defines its own hashing or equality
    a = VALUES[name][0]()
    cls = type(a)
    fields = tuple(getattr(a, f) for f in cls.__slots__)
    assert hash(a) == hash(fields)
    assert a.__reduce__() == (cls, fields)
    assert "__hash__" not in vars(cls) and "__eq__" not in vars(cls)


def test_one_slot_classes_with_equal_fields_are_unequal():
    class Single(Frozen):
        __slots__ = ("summands",)

        def __init__(self, summands):
            object.__setattr__(self, "summands", summands)

    single, module = Single(()), TwistedModule(())
    assert single == Single(()) and hash(single) == hash(module) == hash(((),))
    assert single != module and module != single
