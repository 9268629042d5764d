"""Tests for transfer/teleport branches, feed-forward, and repetition."""

import itertools
import tracemalloc

import numpy as np
import pytest

from qubus import protocol
from qubus.catalog import canonical_spec, corrupted_cross_party_spec, corrupted_qutrit_spec
from qubus.mappings import (
    InteractionSpec,
    InvalidInteractionError,
    outcome_permutation,
    premeasurement_matrix,
)
from qubus.perms import Permutation, build_shift_sets
from qubus.protocol import (
    derive_feedforward,
    repeat_until_entangled,
    run_teleport,
    run_transfer,
    target_gate_label,
)
from qubus.states import ZeroProbabilityError, basis_state, random_state, uniform_state

ATOL = 1e-12
CATALOG = (
    "qubit-local",
    "qubit-entangling",
    "qubit-combined",
    "qutrit-local",
    "qutrit-entangling",
    "qutrit-maximal",
    "qutrit-shift",
)


def shift_spec(d, m):
    sets = build_shift_sets(d, m)
    return InteractionSpec(d, m, sets, sets)


def test_feedforward_of_local_spec():
    matrix = premeasurement_matrix(canonical_spec("qubit-local"))
    expected_sigma_inverse = {
        0: (0, 1, 2, 3),
        1: (2, 3, 0, 1),
        2: (3, 2, 1, 0),
        3: (1, 0, 3, 2),
    }
    for outcome, mapping in expected_sigma_inverse.items():
        correction = derive_feedforward(matrix, outcome, (1, 0))
        assert correction.permutation.mapping == mapping
        assert correction.phase_powers == (1, 0)


def test_target_gate_labels():
    assert target_gate_label(Permutation((0, 1, 3, 2)), 2, 2) == "cnot"
    assert target_gate_label(Permutation((0, 3, 2, 1)), 2, 2) == "cnot"
    assert target_gate_label(Permutation((0, 1, 2, 3)), 2, 2) == "identity"
    assert target_gate_label(Permutation((2, 3, 0, 1)), 2, 2) == "identity"
    assert target_gate_label(Permutation((0, 2, 1, 3)), 2, 2) == "perm:(1,2)"


def test_transfer_enumerate_covers_all_branches():
    spec = canonical_spec("qubit-local")
    psi = random_state((2, 2), np.random.default_rng(1))
    traces = run_transfer(psi, spec, policy="enumerate")
    assert len(traces) == 16
    assert abs(sum(t.probability for t in traces) - 1.0) <= 1e-10
    assert all(abs(t.probability - 1 / 16) <= ATOL for t in traces)
    assert all(abs(t.fidelity - 1.0) <= ATOL for t in traces)
    assert all(t.target_gate == "identity" for t in traces)
    keys = [(t.alice_outcomes, t.bus_outcome) for t in traces]
    assert len(set(keys)) == 16
    assert keys == sorted(keys)


def test_transfer_trace_bookkeeping():
    spec = canonical_spec("qubit-entangling")
    trace = run_transfer(
        basis_state((2, 2), 2), spec, policy="forced", alice_outcomes=(1, 0), bus_outcome=3
    )
    assert trace.direction == "transfer"
    assert trace.alice_outcomes == (1, 0)
    assert trace.bus_outcome == 3
    assert len(trace.records) == 3
    assert [r.subsystem for r in trace.records] == [0, 1, 2]
    assert [r.basis for r in trace.records] == ["conjugate", "conjugate", "computational"]
    assert trace.correction.phase_powers == (1, 0)
    assert trace.target_gate == "cnot"
    assert abs(trace.fidelity - 1.0) <= ATOL


def test_forced_matches_enumerated_branch():
    # The basis input leaves most bus outcomes at zero probability.
    for name, runner in itertools.product(CATALOG, (run_transfer, run_teleport)):
        spec = canonical_spec(name)
        dims = (spec.d,) * spec.m
        for psi in (random_state(dims, np.random.default_rng(4)), basis_state(dims, 1)):
            check_enumerated_against_forced(runner, psi, spec)


def check_enumerated_against_forced(runner, psi, spec):
    forced = {}
    for alice in itertools.product(range(spec.d), repeat=spec.m):
        for bus in range(spec.bus_dim):
            try:
                forced[alice, bus] = runner(
                    psi, spec, policy="forced", alice_outcomes=alice, bus_outcome=bus
                )
            except ZeroProbabilityError:
                continue
    enumerated = runner(psi, spec, policy="enumerate")
    keys = [(t.alice_outcomes, t.bus_outcome) for t in enumerated]
    assert keys == sorted(forced)
    for key, trace in zip(keys, enumerated):
        assert trace == forced[key]


def test_enumerate_measures_each_alice_prefix_once(monkeypatch):
    measure = protocol.measure
    subsystems = []

    def counting_measure(state, subsystem, *args, **kwargs):
        subsystems.append(subsystem)
        return measure(state, subsystem, *args, **kwargs)

    monkeypatch.setattr(protocol, "measure", counting_measure)
    sets = build_shift_sets(3, 3)
    spec = InteractionSpec(3, 3, sets, tuple(opset.inverses() for opset in sets))
    psi = random_state((3, 3, 3), np.random.default_rng(8))
    for runner in (run_transfer, run_teleport):
        subsystems.clear()
        assert len(runner(psi, spec, policy="enumerate")) == 27 * 27
        # Alice's qudit 0 once per outcome of each prefix (1, 3 and 9 prefixes),
        # then the bus (subsystem 3) of each of the 27 leaves once per bus outcome.
        assert subsystems.count(0) == 3 + 9 + 27
        assert subsystems.count(3) == 27 * 27
        assert len(subsystems) == 3 + 9 + 27 + 27 * 27


def test_oversized_register_is_refused_before_building():
    rng = np.random.default_rng(2)
    teleport_spec = shift_spec(2, 10)
    transfer_spec = shift_spec(2, 11)
    teleport_input = random_state((2,) * 10, rng)
    transfer_input = random_state((2,) * 11, rng)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="1073741824 amplitudes, above the limit 1048576"):
            run_teleport(teleport_input, teleport_spec, policy="enumerate")
        with pytest.raises(ValueError, match="4194304 amplitudes, above the limit 1048576"):
            run_transfer(transfer_input, transfer_spec, policy="sample", seed=0)
        with pytest.raises(ValueError, match="above the limit 1048576"):
            repeat_until_entangled(transfer_spec, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The refused registers would take 16 GiB and 64 MiB.
    assert peak < 1 << 20


def test_sampling_is_seed_deterministic():
    spec = canonical_spec("qutrit-maximal")
    psi = random_state((3, 3), np.random.default_rng(9))
    first = run_transfer(psi, spec, policy="sample", seed=42)
    second = run_transfer(psi, spec, policy="sample", seed=42)
    assert first.alice_outcomes == second.alice_outcomes
    assert first.bus_outcome == second.bus_outcome
    assert abs(first.fidelity - second.fidelity) <= ATOL


def test_forced_policy_argument_validation():
    spec = canonical_spec("qubit-local")
    psi = basis_state((2, 2), 0)
    with pytest.raises(ValueError):
        run_transfer(psi, spec, policy="forced")
    with pytest.raises(ValueError):
        run_transfer(psi, spec, policy="forced", alice_outcomes=(0,), bus_outcome=0)
    with pytest.raises(ValueError):
        run_transfer(psi, spec, policy="bogus")
    with pytest.raises(ValueError):
        run_transfer(basis_state((2, 3), 0), spec, policy="sample", seed=0)


def test_transfer_fidelity_across_shapes():
    cases = (
        (canonical_spec("qubit-local"), (2, 2)),
        (canonical_spec("qutrit-entangling"), (3, 3)),
        (shift_spec(2, 3), (2, 2, 2)),
    )
    rng = np.random.default_rng(17)
    for spec, dims in cases:
        psi = random_state(dims, rng)
        traces = run_transfer(psi, spec, policy="enumerate")
        assert len(traces) == spec.bus_dim**2
        assert abs(sum(t.probability for t in traces) - 1.0) <= 1e-10
        assert all(abs(t.fidelity - 1.0) <= ATOL for t in traces)


def test_teleport_fidelity_and_targets():
    rng = np.random.default_rng(23)
    spec = canonical_spec("qubit-entangling")
    traces = run_teleport(random_state((2, 2), rng), spec, policy="enumerate")
    assert len(traces) == 16
    assert all(abs(t.fidelity - 1.0) <= ATOL for t in traces)
    assert all(t.direction == "teleport" for t in traces)
    assert all(t.target_gate == "cnot" for t in traces)
    shift = canonical_spec("qutrit-shift")
    shift_traces = run_teleport(random_state((3, 3), rng), shift, policy="enumerate")
    assert len(shift_traces) == 81
    assert all(abs(t.fidelity - 1.0) <= ATOL for t in shift_traces)
    assert abs(sum(t.probability for t in shift_traces) - 1.0) <= 1e-10


def test_teleport_transfer_duality():
    for name in ("qubit-entangling", "qubit-combined", "qutrit-shift"):
        spec = canonical_spec(name)
        swapped = InteractionSpec(spec.d, spec.m, spec.bob_sets, spec.alice_sets)
        teleport = premeasurement_matrix(spec, "teleport")
        transfer = premeasurement_matrix(swapped, "transfer")
        for outcome in range(teleport.size):
            tele_sigma = outcome_permutation(teleport, outcome)
            swap_sigma = outcome_permutation(transfer, outcome)
            assert tele_sigma.mapping == swap_sigma.inverse().mapping


def test_corrupted_specs_rejected_before_simulation():
    psi2 = basis_state((2, 2), 0)
    psi3 = basis_state((3, 3), 0)
    with pytest.raises(InvalidInteractionError):
        run_transfer(psi2, corrupted_cross_party_spec(), policy="enumerate")
    with pytest.raises(InvalidInteractionError):
        run_teleport(psi2, corrupted_cross_party_spec(), policy="enumerate")
    with pytest.raises(InvalidInteractionError):
        run_transfer(psi3, corrupted_qutrit_spec(), policy="enumerate")
    with pytest.raises(InvalidInteractionError):
        run_teleport(psi3, corrupted_qutrit_spec(), policy="enumerate")


def test_repeat_until_entangled_combined_spec():
    stats = repeat_until_entangled(canonical_spec("qubit-combined"), seed=123, trials=300)
    assert len(stats.rounds_per_trial) == 300
    assert stats.successes == 300
    assert 1.6 <= stats.mean_rounds <= 2.5
    assert abs(stats.min_fidelity - 1.0) <= ATOL


def test_repeat_until_entangled_entangling_spec_needs_one_round():
    stats = repeat_until_entangled(canonical_spec("qubit-entangling"), seed=7, trials=50)
    assert stats.mean_rounds == 1.0
    assert stats.successes == 50


def test_repeat_until_entangled_fixed_input():
    stats = repeat_until_entangled(
        canonical_spec("qubit-combined"), seed=11, trials=40, input_state=uniform_state((2, 2))
    )
    assert stats.successes == 40
    assert abs(stats.min_fidelity - 1.0) <= ATOL


def test_repeat_until_entangled_rejects_local_spec():
    with pytest.raises(ValueError):
        repeat_until_entangled(canonical_spec("qubit-local"), seed=1, trials=5)
    with pytest.raises(ValueError):
        repeat_until_entangled(canonical_spec("qubit-combined"), seed=1, trials=0)
