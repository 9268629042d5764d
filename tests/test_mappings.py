"""Tests for pre-measurement matrices, mapping classification, and search."""

import functools
import itertools
import tracemalloc

import numpy as np
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
    DEFAULT_SEARCH_BUDGET,
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
    combined_operators,
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


def exchange_of(p, d):
    """``exchange o p``: the two digits of every image swapped."""
    return Permutation(tuple(s % d * d + s // d for s in p.mapping))


def test_table_masks_match_per_permutation_oracles_on_two_qubits():
    table = np.array(list(itertools.permutations(range(4))), dtype=np.intp)
    local = mappings._local_mask(table, 2, 2)
    maximal = mappings._maximal_mask(table, 2)
    for images, is_local, is_maximal in zip(table.tolist(), local, maximal):
        p = Permutation(tuple(images))
        assert is_local == (factor_composite(p, (2, 2)) is not None)
        assert is_maximal == is_maximally_entangling(p, 2)
    # 4 local products, 4 exchange composites of them, 16 maximal.
    assert (int(local.sum()), int(maximal.sum())) == (4, 16)


def test_table_masks_on_every_two_qutrit_permutation():
    table = np.array(list(itertools.permutations(range(9))), dtype=np.intp)
    local = mappings._local_mask(table, 3, 2)
    maximal = mappings._maximal_mask(table, 3)
    # Counts of the exhaustive per-permutation reference over all 9!
    # permutations.  With no false positive among the flagged rows, equal
    # counts also rule out false negatives.
    assert (int(local.sum()), int(maximal.sum())) == (36, 72)
    for images in table[local].tolist():
        assert factor_composite(Permutation(tuple(images)), (3, 3)) is not None
    for images in table[maximal].tolist():
        assert block_criteria(Permutation(tuple(images)), 3) == (True, True, True, True)
    assert not (local & maximal).any()


@pytest.mark.parametrize("d", [2, 3])
def test_local_mask_on_three_qudits(d):
    rng = np.random.default_rng(5)
    size = d**3
    singles = [Permutation(p) for p in itertools.permutations(range(d))]
    products = [
        tuple(a(i) * d * d + b(j) * d + c(k) for i in range(d) for j in range(d) for k in range(d))
        for a, b, c in itertools.product(singles, repeat=3)
    ]
    # A local product with two labels swapped is never local.
    nearly = []
    for images in products[:: len(singles)]:
        s, t = rng.choice(size, 2, replace=False)
        swapped = list(images)
        swapped[s], swapped[t] = swapped[t], swapped[s]
        nearly.append(tuple(swapped))
    shuffled = [tuple(rng.permutation(size).tolist()) for _ in range(200)]
    rows = products + nearly + shuffled
    local = mappings._local_mask(np.array(rows, dtype=np.intp), d, 3)
    for images, is_local in zip(rows, local):
        assert is_local == (factor_composite(Permutation(images), (d, d, d)) is not None)
    assert local[: len(products)].all()
    assert not local[len(products) : len(products) + len(nearly)].any()


@functools.cache
def reference_candidates(d, family, m=2):
    """Every candidate of a family in search order, each with its spec and,
    when both parties are valid, its classification as a
    ``(kind, per_outcome, maximal)`` triple from factor_composite and
    block_criteria one outcome at a time."""
    slots = list(mappings._slot_sets(d, m, family)())
    size = d**m
    out = []
    for alice_sets, bob_sets in itertools.product(itertools.product(slots, repeat=m), repeat=2):
        spec = InteractionSpec(d=d, m=m, alice_sets=alice_sets, bob_sets=bob_sets)
        valid = all(validate_interaction_sets(sets, d, m).valid for sets in (alice_sets, bob_sets))
        if not valid:
            out.append((spec, None))
            continue
        alice, bob = combined_operators(alice_sets), combined_operators(bob_sets)
        labels, maximal = [], m == 2
        for label in range(size):
            images = tuple(
                next(r for r in range(size) if bob[r](alice[c](0)) == label) for c in range(size)
            )
            sigma = Permutation(images)
            local = factor_composite(sigma, (d,) * m) is not None
            labels.append("local" if local else "entangling")
            if d == 2:
                maximal = maximal and not local and factor_composite(exchange_of(sigma, d), (d, d)) is None
            else:
                maximal = maximal and all(block_criteria(sigma, d))
        kind = "local" if set(labels) == {"local"} else "entangling" if set(labels) == {"entangling"} else "combined"
        out.append((spec, (kind, tuple(labels), maximal)))
    return out


def reference_search(d, family, objective, budget):
    candidates = reference_candidates(d, family)
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    hits = [
        (spec, mapping)
        for spec, mapping in candidates[:limit]
        if mapping is not None
        and (
            objective == "any-valid"
            or (objective == "local" and mapping[0] == "local")
            or (objective == "entangling" and mapping[0] == "entangling")
            or (objective == "maximal" and mapping[2])
        )
    ]
    return hits, min(limit, len(candidates)), limit < len(candidates)


@pytest.mark.parametrize(
    "d, family",
    [
        (2, "pairwise+cyclic"),
        (2, "hv_products"),
        (3, "hv_products"),
        (2, "shift_powers"),
        (3, "shift_powers"),
        (2, "exhaustive"),
    ],
)
def test_search_matches_per_candidate_reference(d, family):
    # 100 runs out partway through the second Alice party where a party has
    # 64 or 81 choices; one short of all candidates runs out within the last.
    last = len(reference_candidates(d, family)) - 1
    for objective in ("any-valid", "local", "entangling", "maximal"):
        for budget in (1, 100, last, None):
            result = search_sets(d, family, objective, budget=budget)
            hits, examined, exceeded = reference_search(d, family, objective, budget)
            assert (result.examined, result.budget_exceeded) == (examined, exceeded)
            assert [
                (hit.spec, (hit.mapping.kind, hit.mapping.per_outcome, hit.mapping.maximal))
                for hit in result.hits
            ] == hits, (objective, budget)


def test_search_batches_flushed_at_the_size_cap_keep_hits_in_order(monkeypatch):
    # Five 9x9 outcome tables per batch: each Alice party's valid Bob
    # parties are classified over several batches.
    monkeypatch.setattr(mappings, "DEFAULT_DIMENSION_CAP", 5 * 81)
    for objective in ("any-valid", "maximal"):
        for budget in (100, None):
            result = search_sets(3, "hv_products", objective, budget=budget)
            hits, examined, exceeded = reference_search(3, "hv_products", objective, budget)
            assert (result.examined, result.budget_exceeded) == (examined, exceeded)
            assert [
                (hit.spec, (hit.mapping.kind, hit.mapping.per_outcome, hit.mapping.maximal))
                for hit in result.hits
            ] == hits


def test_search_refuses_oversized_bus_before_building():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="bus dimension 33\\*\\*2 exceeds the limit 1024"):
            search_sets(33, "hv_products", "any-valid")
        with pytest.raises(ValueError, match="bus dimension 2\\*\\*11 exceeds the limit 1024"):
            search_sets(2, "shift_powers", "any-valid", m=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
