"""Tests for named operator shorthand and the standard example specs."""

import pytest

from qubus.catalog import canonical_spec, cyclic_set, diff_tables, named_operator, qutrit_y
from qubus.perms import compose, identity, parse_cycles


def test_named_qubit_operators():
    assert named_operator("q1", 2).mapping == (1, 0, 3, 2)
    assert named_operator("q2", 2).mapping == (2, 3, 0, 1)
    assert named_operator("q3", 2).mapping == (3, 2, 1, 0)
    assert named_operator("r1", 2).mapping == (1, 2, 3, 0)
    assert named_operator("r2", 2).mapping == parse_cycles("(0,1,3,2)", 4).mapping
    assert named_operator("R3", 2).mapping == parse_cycles("(0,2,1,3)", 4).mapping


def test_named_qubit_operators_need_four_label_bus():
    with pytest.raises(ValueError):
        named_operator("q1", 3)
    with pytest.raises(ValueError):
        named_operator("q1", 2, m=3)


def test_named_y_operators():
    assert named_operator("y00", 3).is_identity()
    h = named_operator("y01", 3)
    v = named_operator("y10", 3)
    assert h.cycles() == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    assert v.cycles() == ((0, 3, 6), (1, 4, 7), (2, 5, 8))
    assert named_operator("y12", 3).mapping == compose(v, h.power(2)).mapping
    assert compose(h, v).mapping == compose(v, h).mapping


def test_qutrit_y_group_law():
    for n1 in range(3):
        for m1 in range(3):
            for n2 in range(3):
                for m2 in range(3):
                    product = compose(qutrit_y(n1, m1), qutrit_y(n2, m2))
                    assert product.mapping == qutrit_y((n1 + n2) % 3, (m1 + m2) % 3).mapping


def test_named_x_powers():
    assert named_operator("x1", 3).mapping == tuple((s + 1) % 9 for s in range(9))
    assert named_operator("x3", 3).mapping == tuple((s + 3) % 9 for s in range(9))
    assert named_operator("x8", 3).mapping == named_operator("x1", 3).inverse().mapping
    assert named_operator("x0", 2).is_identity()
    assert named_operator("x4", 2).is_identity()
    assert named_operator("x1000000001", 3, 2) == named_operator("x2", 3, 2)


def test_named_operator_cycle_fallback():
    assert named_operator("(0,1)(2,3)", 2).mapping == (1, 0, 3, 2)
    assert named_operator("(0,4)", 5, m=1).mapping == (4, 1, 2, 3, 0)
    with pytest.raises(ValueError):
        named_operator("nonsense", 2)


def test_cyclic_set_requires_distinct_powers():
    q1 = named_operator("q1", 2)
    opset = cyclic_set(q1, 2)
    assert opset.members[0].is_identity()
    assert opset.members[1].mapping == q1.mapping
    with pytest.raises(ValueError):
        cyclic_set(identity(4), 2)
    with pytest.raises(ValueError):
        cyclic_set(q1, 3)


def test_canonical_specs_validate():
    for name in (
        "qubit-local",
        "qubit-entangling",
        "qubit-combined",
        "qutrit-local",
        "qutrit-entangling",
        "qutrit-maximal",
        "qutrit-shift",
    ):
        spec = canonical_spec(name)
        reports = spec.validate()
        assert all(report.valid for report in reports)
    with pytest.raises(ValueError):
        canonical_spec("nonsense")


def test_canonical_qutrit_set_orderings():
    local = canonical_spec("qutrit-local")
    assert [m.mapping for m in local.alice_sets[0].members] == [
        qutrit_y(0, 0).mapping,
        qutrit_y(0, 1).mapping,
        qutrit_y(0, 2).mapping,
    ]
    assert [m.mapping for m in local.bob_sets[0].members] == [
        qutrit_y(0, 0).mapping,
        qutrit_y(0, 2).mapping,
        qutrit_y(0, 1).mapping,
    ]
    shift = canonical_spec("qutrit-shift")
    x = named_operator("x1", 3)
    assert [m.mapping for m in shift.alice_sets[0].members] == [
        x.power(k).mapping for k in (0, 1, 2)
    ]
    assert [m.mapping for m in shift.bob_sets[0].members] == [
        x.power(k).mapping for k in (0, 8, 7)
    ]
    assert [m.mapping for m in shift.bob_sets[1].members] == [
        x.power(k).mapping for k in (0, 6, 3)
    ]


def test_diff_tables_reports_cells():
    base = ((0, 1), (2, 3))
    assert diff_tables(base, ((0, 1), (2, 3))) == ()
    assert diff_tables(base, ((0, 9), (2, 3))) == ((0, 1, 1, 9),)
    with pytest.raises(ValueError):
        diff_tables(base, ((0, 1),))
