"""Tests for pre-measurement matrices, mapping classification, and search."""

import itertools

import pytest

from qubus import mappings
from qubus.catalog import (
    QUBIT_COMBINED_TABLE,
    QUBIT_ENTANGLING_TABLE,
    QUBIT_LOCAL_TABLE,
    QUTRIT_ENTANGLING_TABLE,
    QUTRIT_LOCAL_TABLE,
    QUTRIT_MAXIMAL_TABLE_AS_TRANSCRIBED,
    QUTRIT_SHIFT_TABLE,
    canonical_spec,
    corrupted_cross_party_spec,
    corrupted_qutrit_spec,
    diff_tables,
)
from qubus.mappings import (
    InteractionSpec,
    InvalidInteractionError,
    block_criteria,
    classify_mapping,
    factor_composite,
    is_maximally_entangling,
    outcome_permutation,
    premeasurement_matrix,
    search_sets,
    strip_local_factor,
)
from qubus.perms import (
    OperatorSet,
    Permutation,
    compose,
    enumerate_derangements,
    identity,
    parse_cycles,
    validate_interaction_sets,
)

CNOT = Permutation((0, 1, 3, 2))
SWAP = Permutation((0, 2, 1, 3))


def local_product(a, b, d):
    """Independent per-digit action on composite labels, first digit by a."""
    return Permutation(tuple(a(i) * d + b(j) for i in range(d) for j in range(d)))


def spec_members(spec):
    return (
        tuple(tuple(m.mapping for m in s.members) for s in spec.alice_sets),
        tuple(tuple(m.mapping for m in s.members) for s in spec.bob_sets),
    )


def test_qubit_matrices_match_frozen_tables():
    for name, table in (
        ("qubit-local", QUBIT_LOCAL_TABLE),
        ("qubit-entangling", QUBIT_ENTANGLING_TABLE),
        ("qubit-combined", QUBIT_COMBINED_TABLE),
    ):
        matrix = premeasurement_matrix(canonical_spec(name))
        assert diff_tables(matrix.entries, table) == ()
        assert matrix.is_latin()


def test_qutrit_matrices_match_frozen_tables():
    for name, table in (
        ("qutrit-local", QUTRIT_LOCAL_TABLE),
        ("qutrit-entangling", QUTRIT_ENTANGLING_TABLE),
        ("qutrit-shift", QUTRIT_SHIFT_TABLE),
    ):
        matrix = premeasurement_matrix(canonical_spec(name))
        assert diff_tables(matrix.entries, table) == ()
        assert matrix.is_latin()


def test_qutrit_maximal_table_has_exactly_one_misprinted_cell():
    matrix = premeasurement_matrix(canonical_spec("qutrit-maximal"))
    assert matrix.is_latin()
    diffs = diff_tables(matrix.entries, QUTRIT_MAXIMAL_TABLE_AS_TRANSCRIBED)
    assert diffs == ((2, 2, 1, 3),)


def test_invalid_pair_is_rejected():
    spec = InteractionSpec(
        d=2,
        m=2,
        alice_sets=(OperatorSet(2, (identity(4), parse_cycles("(0,1,2,3)", 4))),
                    OperatorSet(2, (identity(4), parse_cycles("(0,1,3,2)", 4)))),
        bob_sets=canonical_spec("qubit-local").bob_sets,
    )
    with pytest.raises(InvalidInteractionError) as err:
        premeasurement_matrix(spec)
    assert err.value.party == "alice"
    assert err.value.report.violating_pair == ((0, 0), (1, 1))


def test_corrupted_fixtures_are_rejected():
    for spec in (corrupted_cross_party_spec(), corrupted_qutrit_spec()):
        with pytest.raises(InvalidInteractionError):
            spec.validate()
        with pytest.raises(InvalidInteractionError):
            premeasurement_matrix(spec)


def test_spec_structural_checks():
    good = canonical_spec("qubit-local")
    with pytest.raises(ValueError):
        InteractionSpec(d=2, m=2, alice_sets=good.alice_sets[:1], bob_sets=good.bob_sets)
    with pytest.raises(ValueError):
        InteractionSpec(d=3, m=2, alice_sets=good.alice_sets, bob_sets=good.bob_sets)


def test_teleport_matrix_direction():
    spec = canonical_spec("qubit-local")
    teleport = premeasurement_matrix(spec, "teleport")
    assert teleport.direction == "teleport"
    assert teleport.is_latin()
    assert teleport.entries == premeasurement_matrix(spec, "transfer").entries
    with pytest.raises(ValueError):
        premeasurement_matrix(spec, "sideways")


def test_outcome_permutations_of_local_spec():
    matrix = premeasurement_matrix(canonical_spec("qubit-local"))
    expected = {
        0: (0, 1, 2, 3),
        1: (2, 3, 0, 1),
        2: (3, 2, 1, 0),
        3: (1, 0, 3, 2),
    }
    for outcome, mapping in expected.items():
        assert outcome_permutation(matrix, outcome).mapping == mapping
    with pytest.raises(ValueError):
        outcome_permutation(matrix, 4)


def test_factor_composite_against_brute_force():
    for d in (2, 3):
        singles = [Permutation(p) for p in itertools.permutations(range(d))]
        for a, b in itertools.product(singles, singles):
            p = local_product(a, b, d)
            factors = factor_composite(p, (d, d))
            assert factors is not None
            assert factors[0].mapping == a.mapping
            assert factors[1].mapping == b.mapping
    assert factor_composite(CNOT, (2, 2)) is None
    nine_cycle = Permutation(tuple((s + 1) % 9 for s in range(9)))
    assert factor_composite(nine_cycle, (3, 3)) is None


def test_factor_composite_three_subsystems():
    a = Permutation((1, 0))
    b = Permutation((0, 1))
    c = Permutation((1, 0))
    p = Permutation(tuple(a(s // 4) * 4 + b(s // 2 % 2) * 2 + c(s % 2) for s in range(8)))
    factors = factor_composite(p, (2, 2, 2))
    assert [f.mapping for f in factors] == [(1, 0), (0, 1), (1, 0)]
    assert factor_composite(Permutation((0, 1, 3, 2, 4, 5, 6, 7)), (2, 2, 2)) is None


def test_factor_composite_matches_exhaustive_search():
    singles = [Permutation(p) for p in itertools.permutations(range(2))]
    products = {local_product(a, b, 2).mapping for a in singles for b in singles}
    for images in itertools.permutations(range(4)):
        factors = factor_composite(Permutation(images), (2, 2))
        assert (factors is not None) == (images in products)
        if factors is not None:
            assert local_product(factors[0], factors[1], 2).mapping == images


def test_strip_local_factor_recovers_entangling_core():
    matrix = premeasurement_matrix(canonical_spec("qubit-entangling"))
    for outcome in range(4):
        sigma = outcome_permutation(matrix, outcome)
        (a, b), residual = strip_local_factor(sigma, 2)
        assert residual.mapping == CNOT.mapping
        assert compose(local_product(a, b, 2), residual).mapping == sigma.mapping


def test_strip_local_factor_identity_for_local_branches():
    matrix = premeasurement_matrix(canonical_spec("qubit-local"))
    for outcome in range(4):
        sigma = outcome_permutation(matrix, outcome)
        (a, b), residual = strip_local_factor(sigma, 2)
        assert residual.is_identity()
        assert local_product(a, b, 2).mapping == sigma.mapping


def test_block_criteria_known_cases():
    maximal = premeasurement_matrix(canonical_spec("qutrit-maximal"))
    for outcome in range(9):
        assert block_criteria(outcome_permutation(maximal, outcome), 3) == (
            True,
            True,
            True,
            True,
        )
    entangling = premeasurement_matrix(canonical_spec("qutrit-entangling"))
    for outcome in range(9):
        criteria = block_criteria(outcome_permutation(entangling, outcome), 3)
        assert criteria[1] is False
    assert block_criteria(identity(9), 3) == (False, False, True, True)


def test_is_maximally_entangling_qubit_classes():
    assert is_maximally_entangling(CNOT, 2)
    assert is_maximally_entangling(compose(SWAP, CNOT), 2)
    assert not is_maximally_entangling(identity(4), 2)
    assert not is_maximally_entangling(SWAP, 2)
    assert not is_maximally_entangling(local_product(Permutation((1, 0)), identity(2), 2), 2)


def test_classify_mapping_accepts_spec_or_matrix():
    spec = canonical_spec("qubit-combined")
    from_spec = classify_mapping(spec)
    matrix = premeasurement_matrix(spec)
    from_matrix = classify_mapping(matrix, 2)
    assert from_spec == from_matrix
    assert from_spec.kind == "combined"
    assert from_spec.per_outcome == ("entangling", "local", "entangling", "local")
    with pytest.raises(ValueError):
        classify_mapping(matrix, 3)


def test_classify_canonical_specs():
    expected = {
        "qubit-local": ("local", False),
        "qubit-entangling": ("entangling", True),
        "qubit-combined": ("combined", False),
        "qutrit-local": ("local", False),
        "qutrit-entangling": ("entangling", False),
        "qutrit-maximal": ("entangling", True),
        "qutrit-shift": ("combined", False),
    }
    for name, (kind, maximal) in expected.items():
        mapping = classify_mapping(canonical_spec(name))
        assert mapping.kind == kind
        assert mapping.maximal == maximal


def test_qutrit_shift_outcome_split():
    mapping = classify_mapping(canonical_spec("qutrit-shift"))
    local_outcomes = tuple(
        n for n, label in enumerate(mapping.per_outcome) if label == "local"
    )
    assert local_outcomes == (0, 3, 6)


def test_search_pairwise_cyclic_counts():
    per_party = 0
    generators = enumerate_derangements(4)
    for g1, g2 in itertools.product(generators, generators):
        sets = (OperatorSet(2, (identity(4), g1)), OperatorSet(2, (identity(4), g2)))
        if validate_interaction_sets(sets, 2, 2).valid:
            per_party += 1
    assert per_party == 18
    result = search_sets(2, "pairwise+cyclic", "any-valid")
    assert result.examined == 9**4
    assert not result.budget_exceeded
    assert len(result.hits) == per_party**2
    kinds = {}
    for hit in result.hits:
        kinds[hit.mapping.kind] = kinds.get(hit.mapping.kind, 0) + 1
    assert kinds == {"local": 18, "combined": 72, "entangling": 234}


def test_search_finds_canonical_qubit_specs():
    result = search_sets(2, "pairwise+cyclic", "any-valid")
    found = {spec_members(hit.spec): hit.mapping.kind for hit in result.hits}
    assert found[spec_members(canonical_spec("qubit-local"))] == "local"
    assert found[spec_members(canonical_spec("qubit-entangling"))] == "entangling"
    assert found[spec_members(canonical_spec("qubit-combined"))] == "combined"


def test_search_maximal_objective():
    result = search_sets(2, "pairwise+cyclic", "maximal")
    assert len(result.hits) == 144
    assert all(hit.mapping.maximal for hit in result.hits)
    qutrit = search_sets(3, "hv_products", "maximal")
    assert qutrit.examined == 64 * 64
    assert len(qutrit.hits) == 384
    targets = {spec_members(hit.spec) for hit in qutrit.hits}
    assert spec_members(canonical_spec("qutrit-maximal")) in targets


def test_search_budget_exceeded():
    result = search_sets(3, "hv_products", "maximal", budget=10)
    assert result.budget_exceeded
    assert result.examined == 10
    full = search_sets(3, "hv_products", "maximal", budget=64 * 64)
    assert not full.budget_exceeded


def test_search_rejects_unknown_family_and_objective():
    with pytest.raises(ValueError):
        search_sets(2, "nonsense", "local")
    with pytest.raises(ValueError):
        search_sets(2, "pairwise+cyclic", "nonsense")
    with pytest.raises(ValueError):
        search_sets(3, "pairwise+cyclic", "local")


def test_search_shift_powers_family():
    result = search_sets(2, "shift_powers", "any-valid")
    assert len(result.hits) >= 1
    assert all(hit.spec.d == 2 for hit in result.hits)


def test_classify_mapping_factors_each_qubit_outcome_at_most_twice(monkeypatch):
    calls = []

    def counting_factor(*args):
        calls.append(args)
        return factor_composite(*args)

    monkeypatch.setattr(mappings, "factor_composite", counting_factor)
    hits = search_sets(2, "pairwise+cyclic", "any-valid").hits
    assert {(hit.mapping.kind, hit.mapping.maximal) for hit in hits} == {
        ("local", False),
        ("entangling", False),
        ("entangling", True),
        ("combined", False),
    }
    for hit in hits:
        matrix = premeasurement_matrix(hit.spec)
        labels = tuple(
            "local" if factor_composite(sigma, (2, 2)) is not None else "entangling"
            for sigma in matrix.outcomes
        )
        maximal = all(is_maximally_entangling(sigma, 2) for sigma in matrix.outcomes)
        calls.clear()
        mapping = classify_mapping(matrix)
        assert len(calls) <= 2 * matrix.size
        assert mapping.per_outcome == hit.mapping.per_outcome == labels
        assert mapping.maximal == hit.mapping.maximal == maximal
