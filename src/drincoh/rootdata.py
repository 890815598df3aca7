"""Type A_n root combinatorics: subsets of the simple roots, compositions,
and the subset lattice indexing parabolic subgroups of GL_{n+1}.

The n simple roots are indexed 0..n-1.  A subset I is stored as a bitmask;
I determines (and is determined by) a composition of n+1: the composition's
interior partial sums are exactly the positions j+1 with root j missing
from I.
"""

from __future__ import annotations

from itertools import combinations
from operator import attrgetter


class Frozen:
    """Base of the immutable value classes.  Their fields are their
    __slots__, set once in __init__ through object.__setattr__; assigning
    or deleting one afterwards raises AttributeError.  repr and pickling go
    through the fields in slot order, which is also __init__'s argument
    order.  Two values are equal when they are of the same class and their
    field tuples are equal, and they hash as that tuple.  Each class writes
    its own __init__.

    The field tuple is read by one operator.attrgetter per class, set when
    the class is made, so hashing and comparing build it at C level.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        # a plain callable, not a method: called as self._fields(self); the
        # getter of one slot returns the bare value, so that is wrapped
        cls._fields = get if len(cls.__slots__) > 1 else staticmethod(lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)


class ParabolicType(Frozen):
    """A subset of the n simple roots, as a bitmask over {0, ..., n-1}.

    Ordering is lexicographic on the sorted member tuple, so lists of
    subsets sort the same way on every run.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        if n < 1:
            raise ValueError(f"rank must be >= 1, got n={n}")
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#b} has bits outside 0..{n - 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __lt__(self, other: "ParabolicType") -> bool:
        if self.n != other.n:
            return self.n < other.n
        return self.members < other.members

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if self.mask >> j & 1)

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    @property
    def is_proper(self) -> bool:
        return self.mask != (1 << self.n) - 1

    def contains(self, other: "ParabolicType") -> bool:
        return self.n == other.n and other.mask & ~self.mask == 0

    def union(self, *roots: int) -> "ParabolicType":
        m = self.mask
        for j in roots:
            m |= 1 << j
        return ParabolicType(self.n, m)

    @staticmethod
    def full(n: int) -> "ParabolicType":
        return ParabolicType(n, (1 << n) - 1)

    @staticmethod
    def empty(n: int) -> "ParabolicType":
        return ParabolicType(n, 0)

    @staticmethod
    def of(n: int, members) -> "ParabolicType":
        m = 0
        for j in members:
            m |= 1 << j
        return ParabolicType(n, m)

    def to_composition(self) -> tuple[int, ...]:
        """The composition of n+1 whose interior cuts sit after each missing root."""
        parts = []
        start = 0
        for j in range(self.n):
            if not self.mask >> j & 1:
                parts.append(j + 1 - start)
                start = j + 1
        parts.append(self.n + 1 - start)
        return tuple(parts)

    def subset_str(self) -> str:
        return "{" + ",".join(f"a{j}" for j in self.members) + "}"

    def composition_str(self) -> str:
        return "(" + ",".join(str(p) for p in self.to_composition()) + ")"

    def __str__(self) -> str:
        return self.composition_str()


def standard_subset(n: int, j: int) -> ParabolicType:
    """The prefix subset {0, ..., j-1}; empty for j = 0, full for j = n."""
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")
    return ParabolicType(n, (1 << j) - 1)


def i_of_I(I: ParabolicType) -> int:
    """Smallest root index missing from I.  Rejects the full subset."""
    if not I.is_proper:
        raise ValueError("i_of_I is undefined for the full subset")
    j = 0
    while I.mask >> j & 1:
        j += 1
    return j


def cover_sign(I: ParabolicType, a: int) -> int:
    """Sign attached to the lattice covering J = I ∪ {a} -> I.

    Equals (-1)^k where k is the position of root a among the roots missing
    from I.  This is the unique alternating convention (up to global basis
    rescaling) making the subset-lattice differentials square to zero,
    including against the augmentation term.
    """
    if I.mask >> a & 1:
        raise ValueError(f"root {a} is not missing from {I.subset_str()}")
    missing_below = (~I.mask & ((1 << a) - 1)).bit_count()
    return -1 if missing_below % 2 else 1


def subsets_of_size(
    n: int,
    c: int,
    containing: ParabolicType | None = None,
    proper: bool = True,
) -> list[ParabolicType]:
    """All size-c subsets of the n simple roots, optionally constrained.

    Ordered lexicographically by member tuple.
    """
    if not 0 <= c <= n:
        raise ValueError(f"need 0 <= c <= n, got c={c}")
    lower = containing if containing is not None else ParabolicType.empty(n)
    if lower.n != n:
        raise ValueError(f"containing has rank {lower.n}, expected {n}")
    out = []
    for members in combinations(range(n), c):
        I = ParabolicType.of(n, members)
        if not I.contains(lower):
            continue
        if proper and not I.is_proper:
            continue
        out.append(I)
    return out
