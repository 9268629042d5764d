"""Property tests of the compiled combination tables against brute-force
references built from ``compose`` and ``hs_inner`` alone."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qubus.mappings import (
    InteractionSpec,
    InvalidInteractionError,
    outcome_permutation,
    premeasurement_matrix,
)
from qubus.perms import (
    OperatorSet,
    Permutation,
    build_shift_sets,
    compose,
    hs_inner,
    identity,
    validate_interaction_sets,
)

SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]


def reference_combinations(sets, d, m):
    """Digit tuples and combinations in odometer order, set 1 applied first."""
    out = []
    for digits in itertools.product(range(d), repeat=m):
        combo = identity(d**m)
        for opset, k in zip(sets, digits):
            combo = compose(opset.members[k], combo)
        out.append((digits, combo))
    return out


def reference_validity(sets, d, m):
    """(valid, violating_pair, fixed_point_counts) by pairwise ``hs_inner``."""
    combos = reference_combinations(sets, d, m)
    counts = tuple(tuple(hs_inner(a, b) for _, b in combos) for _, a in combos)
    pairs = (
        (combos[a][0], combos[b][0])
        for a in range(len(combos))
        for b in range(len(combos))
        if a != b and counts[a][b]
    )
    pair = next(pairs, None)
    return pair is None, pair, counts


def _permutations(size):
    return st.permutations(range(size)).map(lambda images: Permutation(tuple(images)))


def _conjugated(sets, pi):
    """The family relabelled by ``pi``; relabelling keeps validity."""
    members = (tuple(compose(pi, compose(m, pi.inverse())) for m in s.members) for s in sets)
    return tuple(OperatorSet(len(ms), ms) for ms in members)


def parties(d, m):
    """One party's operator sets: arbitrary members (mostly invalid for large
    buses) or a relabelled shift family, possibly inverse-ordered (valid)."""
    bus = d**m
    arbitrary = st.lists(
        st.lists(_permutations(bus), min_size=d - 1, max_size=d - 1), min_size=m, max_size=m
    ).map(lambda slots: tuple(OperatorSet(d, (identity(bus), *members)) for members in slots))
    shifts = (build_shift_sets(d, m), tuple(s.inverses() for s in build_shift_sets(d, m)))
    shift = st.builds(_conjugated, st.sampled_from(shifts), _permutations(bus))
    return st.one_of(arbitrary, shift)


shaped_party = st.sampled_from(SHAPES).flatmap(
    lambda shape: st.tuples(st.just(shape), parties(*shape))
)
shaped_spec = st.sampled_from(SHAPES).flatmap(
    lambda shape: st.tuples(st.just(shape), parties(*shape), parties(*shape))
)


@settings(max_examples=80, deadline=None)
@given(shaped_party)
def test_validity_matches_pairwise_reference(case):
    (d, m), sets = case
    report = validate_interaction_sets(sets, d, m)
    valid, pair, counts = reference_validity(sets, d, m)
    assert report.valid == valid
    assert report.violating_pair == pair
    assert report.fixed_point_counts == counts


@settings(max_examples=60, deadline=None)
@given(shaped_spec)
def test_matrix_is_latin_and_outcomes_invert_columns(case):
    (d, m), alice_sets, bob_sets = case
    spec = InteractionSpec(d, m, alice_sets, bob_sets)
    alice_valid = reference_validity(alice_sets, d, m)[0]
    bob_valid = reference_validity(bob_sets, d, m)[0]
    if not (alice_valid and bob_valid):
        with pytest.raises(InvalidInteractionError) as err:
            premeasurement_matrix(spec)
        assert err.value.party == ("alice" if not alice_valid else "bob")
        return
    alice = [combo for _, combo in reference_combinations(alice_sets, d, m)]
    bob = [combo for _, combo in reference_combinations(bob_sets, d, m)]
    for direction in ("transfer", "teleport"):
        matrix = premeasurement_matrix(spec, direction)
        if direction == "transfer":
            expected = tuple(tuple(b(a(0)) for a in alice) for b in bob)
        else:
            expected = tuple(tuple(a(b(0)) for a in alice) for b in bob)
        assert matrix.entries == expected
        assert matrix.is_latin()
        for label in range(d**m):
            sigma = outcome_permutation(matrix, label)
            assert all(matrix.entries[sigma(c)][c] == label for c in range(d**m))
