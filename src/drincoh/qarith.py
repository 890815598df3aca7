"""q-analog arithmetic: Gaussian binomials, flag counts, projective point counts,
and the inclusion-exclusion dimensions of the generalized Steinberg modules.

Everything returns Python ints (arbitrary precision).  All divisions are
exact integer divisions guarded by a divisibility check, so a formula
bug surfaces immediately instead of corrupting downstream dimensions.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ExactnessError
from .rootdata import ParabolicType, subsets_of_size


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def prime_power_base(q: int) -> int | None:
    """Return p if q = p^e for a prime p, else None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            return q  # q itself is prime
        if q % p == 0:
            while q % p == 0:
                q //= p
            return p if q == 1 else None
    return None


def _exact_div(num: int, den: int) -> int:
    if den == 0 or num % den:
        raise ExactnessError(f"nonexact division {num}/{den}")
    return num // den


def gauss_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (q any prime power >= 2)."""
    if q < 2 or prime_power_base(q) is None:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return _exact_div(num, den)


def gauss_multinomial(parts: tuple[int, ...] | list[int], q: int) -> int:
    """Number of flags with successive quotient dimensions `parts` in F_q^N.

    Equals the telescoping product of Gaussian binomials
    [N, i_0] [N-i_0, i_1] ... for N = sum(parts).
    """
    if any(p <= 0 for p in parts):
        raise ValueError(f"parts must be positive, got {tuple(parts)}")
    remaining = sum(parts)
    result = 1
    for p in parts:
        result *= gauss_binomial(remaining, p, q)
        remaining -= p
    return result


@lru_cache(maxsize=None)
def parabolic_index(I: ParabolicType, q: int) -> int:
    """Cardinality of G/P_I for G = GL_{n+1}(F_q), i.e. the flag count of I's
    type.  Cached per (I, q) and process: the builders and checks ask for the
    same few dozen values about a thousand times per desk grid."""
    return gauss_multinomial(I.to_composition(), q)


@lru_cache(maxsize=None)
def steinberg_dim(J: ParabolicType, q: int) -> int:
    """Inclusion-exclusion dimension of the generalized Steinberg module of J.

    Sum of (-1)^{#I - #J} [G : P_I] over J ⊆ I ⊆ Δ.  For J = Δ this is the
    trivial module, dimension 1.  Cached per (J, q) and process, like
    parabolic_index; a failed sum raises again on the next call.
    """
    total = 0
    for size in range(J.size, J.n + 1):
        sign = -1 if (size - J.size) % 2 else 1
        for I in subsets_of_size(J.n, size, containing=J, proper=False):
            total += sign * parabolic_index(I, q)
    if total <= 0:
        raise ExactnessError("inclusion-exclusion must give a positive dimension")
    return total


def projective_count(n: int, q: int, m: int = 1) -> int:
    """Number of F_{q^m}-points of projective n-space, (q^{m(n+1)}-1)/(q^m-1)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    Q = q**m
    return _exact_div(Q ** (n + 1) - 1, Q - 1)
