"""Assembly of the cohomology tables of the Drinfeld half space X and its
complement Y, plus the Lefschetz point-count consequence.

H*(Y) is read off the degenerate spectral sequence (the filtration splits
because summands of different Tate twist admit no nontrivial maps).
H*_c(X) is then deduced degreewise from the long exact sequence of the pair
(X open, Y closed) in P^n, using three facts and nothing else:

  R1. maps between summands of different twist vanish;
  R2. the twist -j class of H^{2j}(P^n) restricts injectively to H^{2j}(Y)
      whenever H^{2j}(Y) contains a twist -j summand;
  R3. compactly supported cohomology of an affine n-fold vanishes below
      degree n.

If those rules fail to pin a degree down, LESUnderdetermined is raised;
nothing is ever guessed.  H*(X) is the Poincaré dual (pairing into
K(-n)[-2n]), and the alternating Frobenius trace over H*_c(X) yields the
closed-form point count of X over F_{q^m}, which the verify suite compares
with brute-force enumeration.
"""

from __future__ import annotations

from .errors import LESUnderdetermined
from .qarith import parabolic_index, steinberg_dim
from .rootdata import standard_subset
from .tables import CohomologyTable, Summand, TwistedModule, summand

_DUAL_NOTE = (
    "twist_convention",
    "dual twists satisfy twist(H^j) + twist(Hc^{2n-j}) = -n (pairing into "
    "K(-n)[-2n]); an alternative global normalization shifts every twist by -n",
)


# -- fixed reference tables --------------------------------------------------


def h_of_projective_space(n: int, q: int) -> CohomologyTable:
    """H^{2i}(P^n) = K(-i), everything else zero."""
    entries = {
        2 * i: TwistedModule.of(summand("K", None, 1, -i)) for i in range(n + 1)
    }
    return CohomologyTable(n, q, "H(P^n)", entries)


# -- H*(Y) --------------------------------------------------------------------


def h_of_y(n: int, q: int) -> CohomologyTable:
    """H*(Y) assembled from computed E2 homology (split filtration).  The
    only computed table, so the only one that loads the E2 page's layers."""
    from .orlik import e2_page

    page = e2_page(n, q)
    entries: dict[int, TwistedModule] = {}
    for (r, s), mod in page.items():
        d = r + s
        entries[d] = entries.get(d, TwistedModule.zero()) + mod
    return CohomologyTable(n, q, "H(Y)", entries)


def closed_form_h_of_y(n: int, q: int) -> CohomologyTable:
    """The closed-form table for H*(Y); the oracle h_of_y is checked against."""
    entries: dict[int, TwistedModule] = {}
    for s in range(0, 2 * n - 1):
        parts: list[Summand] = []
        if s == 2 * n - 2:
            I = standard_subset(n, n - 1)
            parts.append(summand("Ind", I, parabolic_index(I, q), -(n - 1)))
        else:
            if s % 2 == 0 and s <= n - 2:
                parts.append(summand("K", None, 1, -s // 2))
            if n - 1 <= s <= 2 * n - 3:
                if s % 2 == 0:
                    parts.append(summand("K", None, 1, -s // 2))
                I = standard_subset(n, s - n + 1)
                parts.append(summand("v", I, steinberg_dim(I, q), n - 1 - s))
        if parts:
            entries[s] = TwistedModule.of(*parts)
    return CohomologyTable(n, q, "H(Y)", entries)


# -- H*_c(X) via the long exact sequence --------------------------------------


def _restriction_cokernel(
    degree: int, h_p: TwistedModule, h_y: TwistedModule, n: int
) -> tuple[TwistedModule, bool]:
    """Cokernel of H^degree(P^n) -> H^degree(Y) and whether the map is injective."""
    if h_p.is_zero():
        return h_y, True  # zero map out of zero space
    (src,) = h_p.summands
    hits = [s for s in h_y.summands if s.twist == src.twist]
    if not hits:
        return h_y, False  # R1: no matching twist, the map is zero
    if len(hits) > 1:
        raise LESUnderdetermined(
            f"degree {degree}: several twist-{src.twist} summands in H(Y): {h_y}"
        )
    hit = hits[0]
    rest = [s for s in h_y.summands if s is not hit]
    if hit.kind == "K":
        if hit.dim != 1:
            raise LESUnderdetermined(f"degree {degree}: K summand of dim {hit.dim}")
        return TwistedModule.of(*rest), True
    if hit.kind == "Ind" and hit.subset is not None and hit.subset.size == n - 1:
        # constants inside a maximal induced module: quotient is Steinberg
        rest.append(summand("v", hit.subset, hit.dim - 1, hit.twist))
        return TwistedModule.of(*rest), True
    raise LESUnderdetermined(
        f"degree {degree}: cannot name the cokernel of K({src.twist}) -> {hit}"
    )


def hc_of_x(hy: CohomologyTable) -> CohomologyTable:
    """H*_c(X) solved degreewise from the long exact sequence with purity.

    `hy` is the H*(Y) table (from h_of_y), which fixes n and q.  For each
    degree i the sequence pins H^i_c between the cokernel of the restriction
    in degree i-1 and the kernel in degree i.  Rules R1-R3 must determine
    every degree; a violation (or any nonzero answer below degree n, or a
    mixed-twist answer) raises LESUnderdetermined.
    """
    n, q = hy.n, hy.q
    hp = h_of_projective_space(n, q)
    cokers: dict[int, TwistedModule] = {}
    injective: dict[int, bool] = {}
    for d in range(0, 2 * n + 1):
        cokers[d], injective[d] = _restriction_cokernel(
            d, hp.module(d), hy.module(d), n
        )
    entries: dict[int, TwistedModule] = {}
    for i in range(0, 2 * n + 1):
        left = cokers.get(i - 1, TwistedModule.zero())
        right = hp.module(i) if not injective[i] else TwistedModule.zero()
        total = left + right
        if total.is_zero():
            continue
        if i < n:
            raise LESUnderdetermined(
                f"H^{i}_c(X) = {total} nonzero below degree n={n}: rules inconsistent"
            )
        twists = {s.twist for s in total.summands}
        if len(twists) > 1:
            raise LESUnderdetermined(
                f"H^{i}_c(X) = {total} mixes Tate twists {sorted(twists)}; purity fails"
            )
        entries[i] = total
    return CohomologyTable(n, q, "Hc(X)", entries)


def expected_hc_of_x(n: int, q: int) -> CohomologyTable:
    """Closed form: one Steinberg summand v(I_i)(-i) in each degree n+i."""
    entries = {}
    for i in range(n + 1):
        I = standard_subset(n, i)
        entries[n + i] = TwistedModule.of(
            summand("v", I, steinberg_dim(I, q), -i)
        )
    return CohomologyTable(n, q, "Hc(X)", entries)


# -- H*(X) via duality ---------------------------------------------------------


def dual_table(table: CohomologyTable, theorem: str) -> CohomologyTable:
    """Poincaré dual: degree j <- 2n - j, twist t -> -n - t, labels dualized."""
    n = table.n
    entries = {
        2 * n - d: mod.dual(pairing_twist=-n) for d, mod in table.entries.items()
    }
    return CohomologyTable(n, table.q, theorem, entries, metadata=(_DUAL_NOTE,))


def h_of_x(hc: CohomologyTable) -> CohomologyTable:
    """H*(X) as the Poincaré dual of the H*_c(X) table (from hc_of_x)."""
    return dual_table(hc, "H(X)")


def expected_h_of_x(n: int, q: int) -> CohomologyTable:
    return dual_table(expected_hc_of_x(n, q), "H(X)")


# -- Lefschetz -----------------------------------------------------------------


def lefschetz_count(n: int, q: int, m: int) -> int:
    """#X(F_{q^m}) from the closed-form Hc table: no matrices involved.

    The alternating Frobenius trace over expected_hc_of_x, that is the sum
    of (-1)^{n+i} dim v(I_i) q^{im} over i = 0..n.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    return expected_hc_of_x(n, q).euler_trace(m)
