"""Twisted modules and cohomology tables: the output currency of every
top-level computation.

A summand is (label, dimension, Tate twist); labels are the trivial module
K, an induced module Ind(I), a generalized Steinberg module v(I), or its
dual v'(I), with I rendered as a composition of n+1.  The degenerate labels
Ind(Δ), v(Δ), v'(Δ) all denote the trivial module and are normalized to K
at construction.

A twist of -l contributes q^{lm} per dimension to the trace of the m-th
Frobenius power; this is the only way twists are consumed numerically.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .rootdata import ParabolicType

_KINDS = ("K", "Ind", "v", "v'")


@dataclass(frozen=True)
class Summand:
    kind: str
    subset: ParabolicType | None
    dim: int
    twist: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown label kind {self.kind!r}")
        if (self.kind == "K") != (self.subset is None):
            raise ValueError("label K carries no subset; others need one")
        if self.dim <= 0:
            raise ValueError(f"summand dims must be positive, got {self.dim}")

    @property
    def label(self) -> str:
        if self.kind == "K":
            return "K"
        return f"{self.kind}{self.subset.composition_str()}"

    def __str__(self) -> str:
        return f"{self.label}({self.twist})"


def summand(kind: str, subset: ParabolicType | None, dim: int, twist: int) -> Summand:
    """Build a summand, normalizing trivial-module labels to K."""
    if subset is not None and not subset.is_proper:
        if dim != 1:
            raise ValueError(f"{kind}(Δ) is the trivial module, so dim must be 1")
        kind, subset = "K", None
    return Summand(kind, subset, dim, twist)


_LABEL_RE = re.compile(r"^(K|Ind|v'|v)(?:\(([0-9,]+)\))?$")


def parse_label(label: str) -> tuple[str, ParabolicType | None]:
    m = _LABEL_RE.match(label)
    if not m:
        raise ValueError(f"cannot parse label {label!r}")
    kind, comp = m.group(1), m.group(2)
    if kind == "K":
        if comp is not None:
            raise ValueError("label K carries no composition")
        return "K", None
    if comp is None:
        raise ValueError(f"label kind {kind} needs a composition")
    parts = tuple(int(x) for x in comp.split(","))
    return kind, ParabolicType.from_composition(parts)


@dataclass(frozen=True)
class TwistedModule:
    """A formal direct sum of summands, canonically sorted by (twist, label)."""

    summands: tuple[Summand, ...]

    @staticmethod
    def of(*parts: Summand) -> "TwistedModule":
        merged: dict[tuple, int] = {}
        for s in parts:
            key = (s.twist, s.kind, s.subset)
            merged[key] = merged.get(key, 0) + s.dim
        out = [
            Summand(kind, subset, dim, twist)
            for (twist, kind, subset), dim in merged.items()
        ]
        out.sort(key=lambda s: (s.twist, s.label))
        return TwistedModule(tuple(out))

    @staticmethod
    def zero() -> "TwistedModule":
        return TwistedModule(())

    def is_zero(self) -> bool:
        return not self.summands

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.summands)

    def __add__(self, other: "TwistedModule") -> "TwistedModule":
        return TwistedModule.of(*self.summands, *other.summands)

    def dual(self, pairing_twist: int) -> "TwistedModule":
        """K-dual with twists reflected through the pairing: t -> pairing_twist - t."""
        flip = {"K": "K", "Ind": "Ind", "v": "v'", "v'": "v"}
        return TwistedModule.of(
            *(
                Summand(flip[s.kind], s.subset, s.dim, pairing_twist - s.twist)
                for s in self.summands
            )
        )

    def trace_frobenius(self, q: int, m: int):
        """Trace of the m-th Frobenius power: each twist -l piece gives dim * q^{lm}."""
        total = 0
        for s in self.summands:
            l = -s.twist
            if l >= 0:
                total += s.dim * q ** (l * m)
            else:
                total += Fraction(s.dim, q ** (-l * m))
        return total

    def __str__(self) -> str:
        if not self.summands:
            return "0"
        return " + ".join(
            (f"{s.label}({s.twist})" if s.dim == 1 else f"{s.label}({s.twist})^{s.dim}")
            for s in self.summands
        )


@dataclass(frozen=True, eq=False)
class CohomologyTable:
    """Map degree -> TwistedModule plus (n, q, which computation) metadata."""

    n: int
    q: int
    theorem: str
    entries: dict[int, TwistedModule] = field(default_factory=dict)
    metadata: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        clean = {d: mod for d, mod in self.entries.items() if not mod.is_zero()}
        object.__setattr__(self, "entries", clean)

    def module(self, degree: int) -> TwistedModule:
        return self.entries.get(degree, TwistedModule.zero())

    def degrees(self) -> list[int]:
        return sorted(self.entries)

    def euler_trace(self, m: int):
        """Alternating sum over degrees of Frobenius traces (Lefschetz number)."""
        return sum(
            (-1) ** d * mod.trace_frobenius(self.q, m) for d, mod in self.entries.items()
        )

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "q": self.q,
            "theorem": self.theorem,
            "entries": [
                {
                    "degree": d,
                    "summands": [
                        {"label": s.label, "dim": s.dim, "twist": s.twist}
                        for s in self.entries[d].summands
                    ],
                }
                for d in self.degrees()
            ],
        }
        if self.metadata:
            out["metadata"] = dict(self.metadata)
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "CohomologyTable":
        entries = {}
        for e in data["entries"]:
            parts = []
            for s in e["summands"]:
                kind, subset = parse_label(s["label"])
                parts.append(Summand(kind, subset, s["dim"], s["twist"]))
            entries[e["degree"]] = TwistedModule.of(*parts)
        return CohomologyTable(
            n=data["n"],
            q=data["q"],
            theorem=data["theorem"],
            entries=entries,
            metadata=tuple(sorted(data.get("metadata", {}).items())),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohomologyTable)
            and (self.n, self.q, self.theorem) == (other.n, other.q, other.theorem)
            and self.entries == other.entries
            and dict(self.metadata) == dict(other.metadata)
        )

    def render_text(self) -> str:
        lines = [f"{self.theorem}  n={self.n} q={self.q}"]
        for d in self.degrees():
            mod = self.entries[d]
            lines.append(f"  H^{d} = {mod}   (dim {mod.dim})")
        if not self.entries:
            lines.append("  (zero)")
        for k, v in self.metadata:
            lines.append(f"  # {k}: {v}")
        return "\n".join(lines)
