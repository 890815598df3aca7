"""Finite-field geometry: points over F_{q^m} as F_q digit planes, subspaces
in reduced row echelon form, flags as canonical models of parabolic cosets,
and brute-force point enumeration on projective spaces and Drinfeld half
spaces.

Conventions
-----------
* q is prime everywhere in this module, and the only arithmetic is % q.
* An element of F_{q^m} is an int in 0..q^m-1 whose base-q digits are its
  coordinates over F_q in a fixed F_q-basis 1, t, ..., t^{m-1} (digit k is
  the coefficient of t^k, so c in F_q is the int c).  No modulus is fixed
  here: nothing multiplies two elements of F_{q^m}.  Point counts,
  rational-hyperplane tests and subspace points are F_q-linear, so they do
  not depend on one.
* Digit k of every coordinate of a point forms its digit plane k, a vector
  in F_q^{n+1}.  A form with F_q coefficients vanishes at the point iff it
  vanishes on every digit plane, and an F_q-scalar acts on each plane alone.
  A point's code for the low (first ceil(m/2)) or high half of its planes
  is sum(p_k R^k) over the lex indices p_k < R = q^(n+1) of the half's
  planes, and it indexes that half's table of the AND of their masks.  It
  is also sum(q^(n-j) c(x_j)), c(x) being the code of one coordinate x, so
  the point counts take the points in blocks: those with the same leading
  1 and the same head coordinates, whose codes are the head's code plus
  each code of the last coordinates, listed once per leading 1 (at most
  POINT_CHUNK of them).
* A subspace is its unique reduced-row-echelon basis, a tuple of row tuples
  with entries in 0..q-1; subspaces compare, hash and sort as these tuples,
  and q is passed alongside wherever it is needed.  Coordinate j of the
  points of P(U) depends only on column j of U, and a point's lam is its
  entries on U's pivot columns, so subspaces share both tables.  A flag of
  type I is the strictly increasing chain of subspaces whose dimensions are
  the interior partial sums of I's composition.  The group action is by right
  multiplication with g^{-1} on row coordinates; it is never materialized,
  since every map needed downstream is a chain-forgetting or
  point-membership relation.
* The subspaces of one dimension are indexed by their enumerate_subspaces
  order, and a flag is keyed by the indices of its chain members
  (flag_keys).  Keys are built bottom-up: a cached table lists, for each
  subspace, the sorted indices of its superspaces one step up in the
  chain, so the keys come out sorted.  Forgetting is the integer column
  map forget_map, so pullbacks and restrictions are assembled without
  building or hashing Flag objects.
* Guards raise DeskScaleExceeded before any work: FLAG_GUARD on |G/B| in
  check_flag_guard (n <= 4 at q = 2, n <= 3 at q = 3), which flag_keys, the
  only source of flags, and the lattice builders of gmodules call first,
  before any subset is listed; and POINT_GUARD and MASK_GUARD on a point
  count and its mask table.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from itertools import accumulate, chain, combinations, compress, count, pairwise, product, repeat
from operator import add, and_, countOf, itemgetter, mul

from .errors import DeskScaleExceeded, shown
from .qarith import is_prime, parabolic_index, projective_count
from .rootdata import Frozen, ParabolicType

POINT_GUARD = 10**8  # candidate vectors q^(m(n+1))
MASK_GUARD = 10**7  # forms x vectors, the bits of the vanishing-mask table
FLAG_GUARD = 10**4  # full flags |G/B|, the largest flag set of one (n, q)
POINT_CHUNK = 1024  # codes per block of _mask_blocks


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------


def _normalized(length: int, size: int):
    """Nonzero vectors of the given length over 0..size-1 whose first nonzero
    entry is 1, in increasing lex order."""
    return chain.from_iterable(
        map(add, repeat((0,) * lead + (1,)), product(range(size), repeat=length - 1 - lead))
        for lead in range(length - 1, -1, -1)
    )


@lru_cache(maxsize=None)
def _digits(q: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Entry x: the m base-q digits of x, digit 0 (the constant) first."""
    return tuple(tuple(x // q**k % q for k in range(m)) for x in range(q**m))


def projective_points(n: int, q: int, m: int = 1) -> list[tuple[int, ...]]:
    """All points of P^n(F_{q^m}), as normalized coordinate tuples, sorted."""
    return list(_normalized(n + 1, q**m))


def rational_forms(n: int, q: int) -> list[tuple[int, ...]]:
    """Nonzero F_q-linear forms on F_q^{n+1}, one per hyperplane (normalized)."""
    return projective_points(n, q)


@lru_cache(maxsize=None)
def _vanishing_masks(forms: tuple[tuple[int, ...], ...], q: int) -> dict[tuple[int, ...], int]:
    """Vector of F_q^{n+1} -> bitmask of the forms (bit b for forms[b]) that
    vanish on it, in lex order of the vectors.

    Built one coordinate at a time.  For a vector prefix, res[r] is the
    bitmask of forms whose partial sum over the prefix is r.  Appending digit
    x at coordinate k moves each form by f_k x, so the new residue-r set is
    the union over s of (old residue r - s) & (forms with f_k x = s); these
    pieces are disjoint, so the union is their sum, and res[r - s] wraps mod
    q since res has q entries.  A vector's mask is its residue-0 set.
    """
    level = [((), [(1 << len(forms)) - 1] + [0] * (q - 1))]
    for k in range(len(forms[0])):
        shifts = [[0] * q for _ in range(q)]  # shifts[x][s]: forms with f_k x = s
        for b, form in enumerate(forms):
            for x in range(q):
                shifts[x][form[k] * x % q] |= 1 << b
        level = [
            (prefix + (x,), [sum(res[r - s] & by_s[s] for s in range(q)) for r in range(q)])
            for prefix, res in level
            for x, by_s in enumerate(shifts)
        ]
    return {vec: res[0] for vec, res in level}


def check_point_guard(n: int, q: int, m: int):
    """Raise DeskScaleExceeded unless a point pass is within both guards."""
    if q ** (m * (n + 1)) >= POINT_GUARD:
        raise DeskScaleExceeded(
            f"q^(m(n+1)) = {shown(q ** (m * (n + 1)))} exceeds the {POINT_GUARD} vector guard"
        )
    bits = projective_count(n, q) * q ** (n + 1)
    if bits > MASK_GUARD:
        raise DeskScaleExceeded(
            f"vanishing-mask table needs {bits} form-vector bits, over the {MASK_GUARD} guard"
        )


def _mask_blocks(n: int, q: int, m: int):
    """An iterator over the mask of the forms vanishing on all digit planes
    of each point of projective_points(n, q, m), in its order, once the
    guards pass: 0 iff the point is off every rational hyperplane.  The AND
    tables are built per call and hold at most R^ceil(m/2) < sqrt(POINT_GUARD
    R) entries each, as R^m < POINT_GUARD, where R = q^(n+1) < MASK_GUARD.

    The tail is the last coordinates, as many as have at most POINT_CHUNK
    values together, and the head the free coordinates before it.  A block
    is the points with their leading 1 at one coordinate and one value of
    the head: its codes are the head's code plus each tail code, for both
    halves in lockstep, so blocks and points come in lex order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    check_point_guard(n, q, m)
    R, split, width = q ** (n + 1), (m + 1) // 2, 0
    masks, tables = list(_vanishing_masks(tuple(rational_forms(n, q)), q).values()), [[-1]]
    for _ in range(split):  # prefix products: the next plane is the most significant
        tables.append([a & b for a in masks for b in tables[-1]])
    low, high = tables[split].__getitem__, tables[m - split].__getitem__
    # each element's code in the low and in the high half (all 0 at m = 1, where
    # the high half is empty and its table is [-1])
    codes = [[sum(d[k] * R**j for j, k in enumerate(ks)) for d in _digits(q, m)]
             for ks in (range(split), range(split, m))]
    while q ** (m * (width + 1)) <= POINT_CHUNK:
        width += 1

    def outer(start, coords):
        """Each half's codes of the vectors over coords, in lex order, plus its start."""
        out = [[s] for s in start]
        for j in coords:
            w = q ** (n - j)
            out = [[s + w * c for s in half for c in cs] for half, cs in zip(out, codes)]
        return out

    def blocks():
        for lead in range(n, -1, -1):
            cut, one = max(lead + 1, n + 1 - width), q ** (n - lead)
            tail_low, tail_high = outer((0, 0), range(cut, n + 1))
            for a, b in zip(*outer((one * codes[0][1], one * codes[1][1]), range(lead + 1, cut))):
                yield map(and_, map(low, map(a.__add__, tail_low)),
                          map(high, map(b.__add__, tail_high)))

    return chain.from_iterable(blocks())


def _point_masks(n: int, q: int, m: int):
    """projective_points(n, q, m), once the guards pass, and _mask_blocks's
    iterator over its points' masks.  drinfeld_points reads only the masks;
    the list is what bench/tracer.py counts as the points it tested."""
    masks = _mask_blocks(n, q, m)
    return projective_points(n, q, m), masks


def drinfeld_points(n: int, q: int, m: int) -> int:
    """Number of F_{q^m}-points of P^n avoiding every F_q-rational hyperplane."""
    return countOf(_point_masks(n, q, m)[1], 0)


def hyperplane_union_points(n: int, q: int, m: int) -> list[tuple[int, ...]]:
    """Sorted F_{q^m}-points of the union of all F_q-rational hyperplanes in P^n."""
    return list(compress(*_point_masks(n, q, m)))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def enumerate_subspaces(
    ambient_dim: int, d: int, q: int
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All d-dimensional subspaces of F_q^{ambient_dim}, as sorted RREF bases.

    Generated directly from RREF patterns (pivot column choice plus free
    entries), so each subspace appears exactly once.
    """
    if not 1 <= d <= ambient_dim:
        raise ValueError(f"need 1 <= d <= ambient_dim, got d={d}")
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    out = []
    for pivots in combinations(range(ambient_dim), d):
        free = [(i, j) for i, p in enumerate(pivots) for j in range(p + 1, ambient_dim)
                if j not in pivots]
        for values in product(range(q), repeat=len(free)):
            mat = [[int(j == p) for j in range(ambient_dim)] for p in pivots]
            for (i, j), v in zip(free, values):
                mat[i][j] = v
            out.append(tuple(map(tuple, mat)))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _digit_planes(d: int, q: int, m: int) -> list[list[tuple[int, ...]]]:
    """Entry [i][k]: digit k of lam_i for each normalized lam of F_{q^m}^d, in order."""
    lams, digits = list(_normalized(d, q**m)), _digits(q, m)
    return [list(zip(*map(digits.__getitem__, map(itemgetter(i), lams)))) for i in range(d)]


@lru_cache(maxsize=None)
def _coordinate(c: tuple[int, ...], q: int, m: int) -> tuple[int, ...]:
    """sum(c_i lam_i) for each normalized lam of F_{q^m}^d in order, d = len(c):
    the coordinate that a basis column c gives the points it spans.  Digit
    k is sum(c_i * digit k of lam_i) % q, reduced by one lookup."""
    planes = _digit_planes(len(c), q, m)
    mod = tuple(x % q for x in range(len(c) * (q - 1) ** 2 + 1))
    out = repeat(0)  # Horner's rule over the digits, the highest first
    for k in reversed(range(m)):
        digit = repeat(0, len(planes[0][k]))
        for a, plane in zip(c, planes):
            if a:
                digit = map(add, digit, map(a.__mul__, plane[k]))
        out = map(add, map(mod.__getitem__, digit), map(q.__mul__, out))
    return tuple(out)


def subspace_points(U: tuple[tuple[int, ...], ...], q: int, m: int = 1) -> list[tuple[int, ...]]:
    """Sorted F_{q^m}-points of P(U), as normalized ambient coordinate tuples:
    sum(lam_i U_i) over the normalized lam in lex order, which U in RREF
    keeps normalized and in lex order.  Coordinate j depends only on column
    j of U: it is the cached tuple _coordinate(column j, q, m)."""
    return list(zip(*[_coordinate(c, q, m) for c in zip(*U)]))


@lru_cache(maxsize=None)
def point_positions(d: int, q: int, m: int) -> dict:
    """Position in subspace_points(U, q, m) of each point of P(U), for every
    d-dimensional U, keyed by the point's entries on U's pivot columns: its
    normalized lam, as itemgetter(*pivots) returns it (the int 1 for d = 1)."""
    return dict(zip(map(itemgetter(*range(d)), _normalized(d, q**m)), count()))


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------


@total_ordering
class Flag(Frozen):
    """A nested chain of subspaces (RREF bases) realizing one coset of G/P_I.

    The chain dimensions are the interior partial sums of I's composition
    (the full space itself is omitted).  Flags compare and sort as their
    (type, chain) tuples.
    """

    __slots__ = ("type", "chain")

    def __init__(self, type: ParabolicType, chain: tuple[tuple[tuple[int, ...], ...], ...]):
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "chain", chain)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.type, self.chain) < (other.type, other.chain)


def chain_dims(I: ParabolicType) -> tuple[int, ...]:
    return tuple(accumulate(I.to_composition()[:-1]))


@lru_cache(maxsize=None)
def _subspace_lookup(ambient_dim: int, d: int, q: int) -> dict:
    """RREF basis -> index in enumerate_subspaces(ambient_dim, d, q)."""
    return {U: k for k, U in enumerate(enumerate_subspaces(ambient_dim, d, q))}


@lru_cache(maxsize=None)
def _superspaces(N: int, small: int, big: int, q: int) -> tuple[tuple[int, ...], ...]:
    """For each small-dimensional subspace U of F_q^N, the sorted indices of
    the big-dimensional subspaces that contain it.

    Every small subspace of V is the image W·V of exactly one small subspace
    W of F_q^big under the coordinates of V's basis.  W·V is already in
    RREF: on V's pivot columns it equals W, and each row of W·V starts at
    the V-pivot of its W-pivot, since the rows of V it combines all start
    there or later; so its pivots are V's pivots at W's pivot positions,
    with zeros above and below.  The images of the distinct rows of the
    local Ws are computed once per V, and a non-canonical W·V would raise
    KeyError at the lookup.  The Vs are walked in index order, so every
    list is sorted.
    """
    lookup = _subspace_lookup(N, small, q)
    local = enumerate_subspaces(big, small, q)
    rows = set(chain.from_iterable(local))
    supers = tuple([] for _ in range(len(lookup)))
    for v, V in enumerate(enumerate_subspaces(N, big, q)):
        cols = list(zip(*V))
        image = {w: tuple([sum(map(mul, w, col)) % q for col in cols]) for w in rows}
        for W in local:
            supers[lookup[tuple(map(image.__getitem__, W))]].append(v)
    return tuple(map(tuple, supers))


def check_flag_guard(n: int, q: int):
    """Raise unless q is prime and GL_{n+1}(F_q) has at most FLAG_GUARD full
    flags, so a whole (n, q) is in or out."""
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    full = parabolic_index(ParabolicType.empty(n), q)
    if full > FLAG_GUARD:
        raise DeskScaleExceeded(
            f"full flag variety of GL_{n + 1}(F_{q}) has {shown(full)} flags, "
            f"over the {FLAG_GUARD} guard"
        )


@lru_cache(maxsize=None)
def flag_keys(I: ParabolicType, q: int) -> tuple[tuple[int, ...], ...]:
    """The type-I flags as index chains, in the order of enumerate_flags.

    Entry l of a key is the index of the chain's l-th member in
    enumerate_subspaces(n+1, chain_dims(I)[l], q).  Chains grow bottom-up,
    from each smallest member through the sorted lists of its superspaces
    one step up (_superspaces), so the keys come out in lex order, which is
    the chain-lex order of the flags, with no sort.  Raises
    DeskScaleExceeded, before any key is built, when |G/B| exceeds
    FLAG_GUARD (check_flag_guard).
    """
    check_flag_guard(I.n, q)
    N = I.n + 1
    dims = chain_dims(I)
    if not dims:  # I is the full subset: the single coset G/G
        return ((),)
    keys = [(k,) for k in range(len(enumerate_subspaces(N, dims[0], q)))]
    for small, big in pairwise(dims):
        supers = _superspaces(N, small, big, q)
        keys = [key + (k,) for key in keys for k in supers[key[-1]]]
    return tuple(keys)


def enumerate_flags(I: ParabolicType, q: int) -> tuple[Flag, ...]:
    """All flags of type I over F_q, in canonical (chain-lex) order: a view
    of flag_keys as Flag objects, built on each call."""
    levels = [enumerate_subspaces(I.n + 1, d, q) for d in chain_dims(I)]
    return tuple(
        Flag(I, tuple(level[k] for level, k in zip(levels, key))) for key in flag_keys(I, q)
    )


@lru_cache(maxsize=None)
def forget_map(I: ParabolicType, J: ParabolicType, q: int) -> tuple[int, ...]:
    """The column map of forget: entry k is the position in flag_keys(J, q)
    of the image of the k-th type-I flag.  Raises ValueError unless I ⊆ J.

    The type-I keys are projected to J's members by one itemgetter and
    mapped through one dict of J's key positions, both at C level.
    """
    if not J.contains(I):
        raise ValueError(f"cannot forget {I.subset_str()} to non-superset {J.subset_str()}")
    dims = chain_dims(I)
    keep = [dims.index(d) for d in chain_dims(J)]
    keys = flag_keys(I, q)
    if not keep:  # J is the full subset: every flag goes to the one coset
        return (0,) * len(keys)
    images = map(itemgetter(*keep), keys)
    if len(keep) == 1:  # one member is kept: J's keys are (k,) for k in order
        return tuple(images)
    target = flag_keys(J, q)
    return tuple(map(dict(zip(target, range(len(target)))).__getitem__, images))


def forget(f: Flag, J: ParabolicType) -> Flag:
    """Project a flag of type I to the flag of type J ⊇ I under its coset map."""
    I = f.type
    if not J.contains(I):
        raise ValueError(f"cannot forget {I.subset_str()} to non-superset {J.subset_str()}")
    if J == I:
        return f
    keep = set(chain_dims(J))
    chain = tuple(U for U in f.chain if len(U) in keep)
    return Flag(J, chain)

