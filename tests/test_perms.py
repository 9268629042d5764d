"""Tests for permutation primitives, cycle notation, and set validity."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from qubus.perms import (
    CycleParseError,
    OperatorSet,
    Permutation,
    build_hv_sets,
    build_shift_sets,
    bus_registers,
    combined_operators,
    compose,
    derangement_count,
    digits_to_label,
    enumerate_derangements,
    format_cycles,
    hs_inner,
    identity,
    is_derangement,
    label_digits,
    parse_cycles,
    registers_to_label,
    validate_interaction_sets,
)

Q1 = Permutation((1, 0, 3, 2))
Q2 = Permutation((2, 3, 0, 1))
Q3 = Permutation((3, 2, 1, 0))
R1 = Permutation((1, 2, 3, 0))
R2 = Permutation((1, 3, 0, 2))
R3 = Permutation((2, 3, 1, 0))

perm4 = st.permutations(range(4)).map(lambda images: Permutation(tuple(images)))


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1, 3))


def test_permutation_call_and_size():
    assert Q1.size == 4
    assert [Q1(s) for s in range(4)] == [1, 0, 3, 2]
    assert identity(4).is_identity()
    assert not Q1.is_identity()


def test_compose_applies_right_argument_first():
    swap01 = Permutation((1, 0, 2))
    cycle = Permutation((1, 2, 0))
    assert compose(swap01, cycle).mapping == (0, 2, 1)
    assert compose(cycle, swap01).mapping == (2, 1, 0)
    with pytest.raises(ValueError):
        compose(swap01, identity(4))


def test_compose_squares_of_four_cycles():
    assert compose(R1, R1).mapping == Q2.mapping
    assert compose(R2, R2).mapping == Q3.mapping
    assert compose(R3, R3).mapping == Q1.mapping


def test_inverse_and_power():
    assert compose(R1, R1.inverse()).is_identity()
    assert R1.power(0).is_identity()
    assert R1.power(3).mapping == R1.inverse().mapping
    assert R1.power(-1).mapping == R1.inverse().mapping
    assert R1.power(4).is_identity()
    assert Q1.power(2).is_identity()


def test_fixed_points_and_derangements():
    assert identity(4).fixed_points() == (0, 1, 2, 3)
    assert Q1.fixed_points() == ()
    assert is_derangement(Q1)
    assert is_derangement(R1)
    assert not is_derangement(Permutation((0, 2, 1)))
    assert not is_derangement(identity(3))


def test_hs_inner_counts_agreements():
    assert hs_inner(Q1, Q1) == 4
    assert hs_inner(identity(4), Q1) == 0
    assert hs_inner(R1, R2) == 1
    assert hs_inner(Q1, Q2) == 0
    with pytest.raises(ValueError):
        hs_inner(Q1, identity(3))


def test_cycles_canonical_form():
    assert Q1.cycles() == ((0, 1), (2, 3))
    assert R1.cycles() == ((0, 1, 2, 3),)
    assert identity(4).cycles() == ()
    assert Permutation((0, 2, 1)).cycles() == ((1, 2),)


def test_format_cycles_round_trip():
    for p in (Q1, Q2, Q3, R1, R2, R3):
        assert parse_cycles(format_cycles(p), 4).mapping == p.mapping
    assert format_cycles(identity(4)) == ""


def test_parse_cycles_grammar():
    assert parse_cycles("(0,1)(2,3)", 4).mapping == Q1.mapping
    assert parse_cycles(" ( 0 , 1 ) ( 2 , 3 ) ", 4).mapping == Q1.mapping
    assert parse_cycles("(0,1,2,3)", 4).mapping == R1.mapping
    assert parse_cycles("(1,2)", 4).mapping == (0, 2, 1, 3)
    assert parse_cycles("", 4).is_identity()
    assert parse_cycles("  ", 4).is_identity()


def test_parse_cycles_rejects_malformed_text():
    for text in ("(0)", "(0,1", "0,1)", "(0,4)", "(0,1)(1,2)", "(0,a)", "x", "()"):
        with pytest.raises(CycleParseError):
            parse_cycles(text, 4)


def test_operator_set_requires_identity_first():
    OperatorSet(2, (identity(4), Q1))
    with pytest.raises(ValueError):
        OperatorSet(2, (Q1, identity(4)))
    with pytest.raises(ValueError):
        OperatorSet(2, (identity(4),))
    with pytest.raises(ValueError):
        OperatorSet(2, (identity(4), identity(3)))


def test_operator_set_inverses():
    inv = OperatorSet(2, (identity(4), R1)).inverses()
    assert inv.members[0].is_identity()
    assert inv.members[1].mapping == R1.inverse().mapping


def test_combined_operators_odometer_order():
    sets = build_hv_sets(2)
    combined = combined_operators(sets)
    assert len(combined) == 4
    assert [op(0) for op in combined] == [0, 2, 1, 3]
    sets3 = build_hv_sets(3)
    combined3 = combined_operators(sets3)
    assert [combined3[3 * i + j](0) for i in range(3) for j in range(3)] == [
        i + 3 * j for i in range(3) for j in range(3)
    ]


def test_validity_pairwise_sets():
    report = validate_interaction_sets(
        (OperatorSet(2, (identity(4), Q1)), OperatorSet(2, (identity(4), Q3))), 2, 2
    )
    assert report.valid
    assert report.violating_pair is None
    table = report.fixed_point_counts
    assert all(table[i][i] == 4 for i in range(4))
    assert all(table[i][j] == 0 for i in range(4) for j in range(4) if i != j)


def test_validity_four_cycle_pair_fails():
    report = validate_interaction_sets(
        (OperatorSet(2, (identity(4), R1)), OperatorSet(2, (identity(4), R2))), 2, 2
    )
    assert not report.valid
    assert report.violating_pair == ((0, 0), (1, 1))
    assert report.fixed_point_counts[0][3] == 1


def test_validity_requires_matching_shape():
    sets = build_hv_sets(2)
    with pytest.raises(ValueError):
        validate_interaction_sets(sets, 3, 2)
    with pytest.raises(ValueError):
        validate_interaction_sets(sets, 2, 3)


def test_hv_sets_valid_for_small_dimensions():
    for d in (2, 3, 4, 5):
        sets = build_hv_sets(d)
        assert validate_interaction_sets(sets, d, 2).valid
        inverted = tuple(s.inverses() for s in sets)
        assert validate_interaction_sets(inverted, d, 2).valid


def test_shift_sets_valid_for_small_shapes():
    for d in (2, 3, 4):
        for m in (1, 2, 3):
            sets = build_shift_sets(d, m)
            assert len(sets) == m
            assert validate_interaction_sets(sets, d, m).valid


def test_hv_and_shift_generators_have_expected_cycle_structure():
    for d in (2, 3, 4):
        h = build_hv_sets(d)[0].members[1]
        v = build_hv_sets(d)[1].members[1]
        assert len(h.cycles()) == d and all(len(c) == d for c in h.cycles())
        assert len(v.cycles()) == d and all(len(c) == d for c in v.cycles())
        assert compose(h, v).mapping == compose(v, h).mapping
        x = build_shift_sets(d, 2)[0].members[1]
        assert x.cycles() == (tuple(range(d * d)),)


def test_derangement_count_values():
    assert [derangement_count(n) for n in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]
    with pytest.raises(ValueError):
        derangement_count(21)
    with pytest.raises(ValueError):
        derangement_count(-1)


def test_derangement_count_matches_enumeration():
    for n in range(8):
        assert len(enumerate_derangements(n, limit=8)) == derangement_count(n)


def test_enumerate_derangements_of_four_labels():
    derangements = enumerate_derangements(4)
    assert len(derangements) == 9
    mappings = [p.mapping for p in derangements]
    assert mappings == sorted(mappings)
    pairwise = [p for p in derangements if p.power(2).is_identity()]
    four_cycles = [p for p in derangements if not p.power(2).is_identity()]
    assert len(pairwise) == 3
    assert len(four_cycles) == 6
    assert {p.mapping for p in pairwise} == {Q1.mapping, Q2.mapping, Q3.mapping}


def test_enumerate_derangements_respects_limit():
    with pytest.raises(ValueError):
        enumerate_derangements(10)


def test_label_digit_round_trip():
    for d, m in ((2, 2), (3, 2), (2, 3), (4, 2)):
        for label in range(d**m):
            digits = label_digits(label, d, m)
            assert digits_to_label(digits, d) == label
    assert label_digits(5, 2, 3) == (1, 0, 1)
    assert digits_to_label((1, 2), 3) == 5


def test_bus_registers_round_trip():
    for d in (2, 3, 4):
        for label in range(d * d):
            first, second = bus_registers(label, d)
            assert registers_to_label(first, second, d) == label
    assert bus_registers(5, 3) == (2, 1)


@given(perm4, perm4, perm4)
def test_compose_is_associative(p, q, r):
    left = compose(compose(p, q), r)
    right = compose(p, compose(q, r))
    assert left.mapping == right.mapping


@given(perm4)
def test_inverse_law(p):
    assert compose(p, p.inverse()).is_identity()
    assert compose(p.inverse(), p).is_identity()


@given(perm4, st.integers(-6, 6), st.integers(-6, 6))
def test_power_addition(p, a, b):
    assert compose(p.power(a), p.power(b)).mapping == p.power(a + b).mapping


@st.composite
def permutation_and_exponent(draw):
    images = draw(st.integers(1, 9).flatmap(lambda n: st.permutations(range(n))))
    n = len(images)
    return Permutation(tuple(images)), draw(st.integers(-2 * n, 2 * n))


@given(permutation_and_exponent())
def test_power_matches_repeated_compose(case):
    p, exponent = case
    base = p.inverse() if exponent < 0 else p
    expected = identity(p.size)
    for _ in range(abs(exponent)):
        expected = compose(base, expected)
    assert p.power(exponent).mapping == expected.mapping


def test_validation_memory_stays_quadratic_in_bus_size():
    sets = build_hv_sets(32)
    tracemalloc.start()
    try:
        report = validate_interaction_sets(sets, 32, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid
    # A (D, D, D) boolean array at D = 1024 would take 1 GiB.
    assert peak < 128 * 2**20


@given(perm4, perm4)
def test_hs_inner_is_composition_invariant(p, q):
    r = compose(p, q.inverse())
    assert hs_inner(p, q) == len(r.fixed_points())
    assert (hs_inner(p, q) == 0) == is_derangement(r)
