"""Twisted-module bookkeeping and table serialization."""

import pytest

from drincoh.rootdata import ParabolicType
from drincoh.tables import (
    CohomologyTable,
    Summand,
    TwistedModule,
    summand,
)


def test_summand_normalizes_trivial_labels():
    s = summand("v", ParabolicType.full(2), 1, -2)
    assert s.kind == "K" and s.subset is None
    s = summand("Ind", ParabolicType.full(3), 1, 0)
    assert s.kind == "K"
    with pytest.raises(ValueError):
        summand("v", ParabolicType.full(2), 5, 0)  # trivial label with dim > 1


def test_summand_validation():
    with pytest.raises(ValueError):
        Summand("w", None, 1, 0)
    with pytest.raises(ValueError):
        Summand("K", ParabolicType.empty(2), 1, 0)
    with pytest.raises(ValueError):
        Summand("v", None, 1, 0)
    with pytest.raises(ValueError):
        Summand("K", None, 0, 0)


def test_labels():
    B = ParabolicType.empty(2)
    assert summand("v", B, 8, 0).label == "v(1,1,1)"
    assert summand("v'", ParabolicType.of(2, [0]), 6, -1).label == "v'(2,1)"
    assert summand("K", None, 1, -2).label == "K"


def test_twisted_module_merging_and_order():
    B = ParabolicType.empty(2)
    a = summand("v", B, 3, 0)
    b = summand("v", B, 5, 0)
    c = summand("K", None, 1, -1)
    mod = TwistedModule.of(a, c, b)
    assert mod.dim == 9
    assert [s.dim for s in mod.summands] == [1, 8]
    assert [s.twist for s in mod.summands] == [-1, 0]
    assert mod == TwistedModule.of(b, a) + TwistedModule.of(c)


def test_dual():
    B = ParabolicType.empty(2)
    mod = TwistedModule.of(summand("v", B, 8, 0), summand("K", None, 1, -2))
    dual = mod.dual(pairing_twist=-2)
    by_label = {s.label: s for s in dual.summands}
    assert by_label["v'(1,1,1)"].twist == -2
    assert by_label["K"].twist == 0
    assert dual.dual(pairing_twist=-2) == mod


def test_trace_frobenius():
    B = ParabolicType.empty(2)
    mod = TwistedModule.of(summand("Ind", ParabolicType.of(2, [0]), 7, -1))
    assert mod.trace_frobenius(2, 1) == 14
    assert mod.trace_frobenius(2, 3) == 7 * 8
    assert TwistedModule.of(summand("v", B, 8, 0)).trace_frobenius(2, 5) == 8
    with pytest.raises(ValueError):
        TwistedModule.of(summand("K", None, 1, 1)).trace_frobenius(2, 1)


def test_table_rendering():
    from drincoh.cohomology import h_of_x, h_of_y, hc_of_x

    hy = h_of_y(2, 2)
    hc = hc_of_x(hy)
    for table in [hy, hc, h_of_x(hc), h_of_y(1, 3)]:
        text = table.render_text()
        assert f"n={table.n} q={table.q}" in text


def test_table_drops_zero_entries_and_traces():
    t = CohomologyTable(1, 2, "H(Y)", {0: TwistedModule.zero()})
    assert t.entries == {}
    t2 = CohomologyTable(
        1, 2, "test", {0: TwistedModule.of(summand("K", None, 1, 0)),
                       1: TwistedModule.of(summand("K", None, 1, -1))}
    )
    assert t2.euler_trace(1) == 1 - 2
    assert t2.euler_trace(2) == 1 - 4
