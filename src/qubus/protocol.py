"""Bus-mediated state transfer and teleportation with feed-forward.

Transfer: the bus starts in label 0, Alice conditionally couples her qudits
in order and measures them in the conjugate basis; Bob prepares uniform
blanks, couples his qudits, and measures the bus computationally.  Teleport
runs Bob's couplings first, ships the bus to Alice, and lets Alice measure
both her qudits (conjugate) and the bus (computational).  Either way the bus
outcome selects a permutation linking the two parties' conditional
combinations, and the feed-forward consists of that permutation's inverse
plus single-qudit phase corrections for Alice's conjugate outcomes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .mappings import (
    InteractionSpec,
    PreMeasurementMatrix,
    classify_mapping,
    factor_composite,
    outcome_permutation,
    premeasurement_matrix,
    strip_local_factor,
)
from .perms import Permutation, format_cycles, identity
from .states import (
    DEFAULT_DIMENSION_CAP,
    MeasurementRecord,
    StateVector,
    ZeroProbabilityError,
    apply_conditional,
    apply_label_permutation,
    apply_local,
    basis_state,
    fidelity,
    measure,
    random_state,
    tensor,
    uniform_state,
)

__all__ = [
    "Correction",
    "ProtocolTrace",
    "RepeatStats",
    "check_register_size",
    "derive_feedforward",
    "repeat_until_entangled",
    "run_teleport",
    "run_transfer",
    "target_gate_label",
]

FIDELITY_ATOL = 1e-12
DEFAULT_MAX_ROUNDS = 64


@dataclass(frozen=True, slots=True)
class Correction:
    """Receiver-side feed-forward: relabel the register by ``permutation``
    (the inverse of the bus outcome's permutation), then raise each qudit's
    phase gate to the matching conjugate outcome."""

    permutation: Permutation
    phase_powers: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class ProtocolTrace:
    """Full record of one protocol branch.

    ``target_gate`` names the residual gate the branch implements once local
    corrections are absorbed (``"identity"`` for faithful transfer, ``"cnot"``
    for the two-qubit controlled flip, ``"perm:<cycles>"`` otherwise);
    ``fidelity`` compares Bob's feed-forward-completed state against
    ``target_gate`` applied to the input.
    """

    direction: str
    records: tuple[MeasurementRecord, ...]
    alice_outcomes: tuple[int, ...]
    bus_outcome: int
    correction: Correction
    target_gate: str
    fidelity: float
    probability: float


@dataclass(frozen=True, slots=True)
class RepeatStats:
    """Outcome of repeated transfer attempts until an entangling branch."""

    rounds_per_trial: tuple[int, ...]
    successes: int
    mean_rounds: float
    min_fidelity: float


def derive_feedforward(
    matrix: PreMeasurementMatrix, bus_outcome: int, phase_outcomes: tuple[int, ...] | list[int]
) -> Correction:
    """Correction for one branch: inverse of the bus outcome's permutation
    plus the conjugate-outcome phase powers.

    Raises:
        ValueError: the bus outcome is outside the bus.
    """
    sigma = outcome_permutation(matrix, bus_outcome)
    return Correction(permutation=sigma.inverse(), phase_powers=tuple(int(a) for a in phase_outcomes))


def target_gate_label(sigma: Permutation, d: int, m: int) -> str:
    """Name the gate a bus outcome implements on the receiver, local factors
    stripped: ``identity``, ``cnot`` (two qubits), or ``perm:<cycles>``."""
    if m == 2:
        _, residual = strip_local_factor(sigma, d)
    else:
        factors = factor_composite(sigma, (d,) * m)
        residual = identity(sigma.size) if factors is not None else sigma
    if residual.is_identity():
        return "identity"
    if d == 2 and m == 2 and residual.mapping in ((0, 1, 3, 2), (0, 3, 2, 1)):
        return "cnot"
    return f"perm:{format_cycles(residual)}"


def check_register_size(spec: InteractionSpec, direction: str) -> None:
    """Refuse a run whose largest register, the one Alice measures, would
    hold more than ``DEFAULT_DIMENSION_CAP`` amplitudes.  That register holds
    her qudits and the bus (``d**m * D`` amplitudes, ``D = d**m``); in
    teleport it also holds Bob's qudits (``d**(2m) * D``).

    Raises:
        ValueError: naming the register size and the limit.
    """
    register = spec.bus_dim ** (2 if direction == "transfer" else 3)
    if register > DEFAULT_DIMENSION_CAP:
        raise ValueError(
            f"{direction} measures {register} amplitudes, above the limit {DEFAULT_DIMENSION_CAP}"
        )


def _bob_couplings(state: StateVector, spec: InteractionSpec) -> StateVector:
    """Place Bob's uniform blanks in front of ``state`` (bus last) and couple
    each of them to the bus."""
    state = tensor(uniform_state((spec.d,) * spec.m), state)
    for j in range(spec.m):
        state = apply_conditional(state, j, spec.bob_sets[j])
    return state


def _couple(direction: str, input_state: StateVector, spec: InteractionSpec) -> StateVector:
    """Every coupling before Alice's measurement; none depends on the branch.

    Transfer starts the bus in label 0 beside Alice's input.  Teleport first
    couples Bob's uniform blanks to the bus and places the input in front.
    Alice's couplings follow either way, so her qudits lead the register.
    """
    bus = basis_state((spec.bus_dim,), 0)
    state = tensor(input_state, bus if direction == "transfer" else _bob_couplings(bus, spec))
    for j in range(spec.m):
        state = apply_conditional(state, j, spec.alice_sets[j])
    return state


_Targets = tuple[tuple[str, Permutation], ...]


def _targets(matrix: PreMeasurementMatrix) -> _Targets:
    """Per bus outcome: its target-gate label and the inverse permutation
    that the feed-forward applies."""
    return tuple(
        (target_gate_label(sigma, matrix.d, matrix.m), derive_feedforward(matrix, k, ()).permutation)
        for k, sigma in enumerate(matrix.outcomes)
    )


def _finish(
    input_state: StateVector,
    state: StateVector,
    records: tuple[MeasurementRecord, ...],
    direction: str,
    targets: _Targets,
) -> tuple[ProtocolTrace, StateVector]:
    """Feed-forward once the bus is measured (the last record): relabel the
    receiver's register by the bus outcome's inverse permutation, then raise
    each qudit's phase gate to Alice's conjugate outcome on it."""
    alice_outcomes = tuple(r.outcome for r in records[:-1])
    bus_outcome = records[-1].outcome
    target, inverse = targets[bus_outcome]
    corrected = apply_label_permutation(state, inverse)
    for j, power in enumerate(alice_outcomes):
        corrected = apply_local(corrected, j, ("z", power))
    trace = ProtocolTrace(
        direction=direction,
        records=records,
        alice_outcomes=alice_outcomes,
        bus_outcome=bus_outcome,
        correction=Correction(permutation=inverse, phase_powers=alice_outcomes),
        target_gate=target,
        fidelity=fidelity(corrected, input_state),
        probability=math.prod(r.probability for r in records),
    )
    return trace, corrected


def _branch(
    input_state: StateVector,
    coupled: StateVector,
    spec: InteractionSpec,
    direction: str,
    targets: _Targets,
    forced: tuple[tuple[int, ...] | None, int | None],
    rng: np.random.Generator | None,
) -> tuple[ProtocolTrace, StateVector]:
    """One branch from the coupled register of :func:`_couple`: Alice's
    conjugate measurements, Bob's blanks and couplings (transfer only), the
    bus measurement and the feed-forward.  Outcomes left as None are
    sampled with ``rng``."""
    forced_alice, forced_bus = forced
    state = coupled
    records: list[MeasurementRecord] = []
    for j in range(spec.m):
        forced_outcome = None if forced_alice is None else forced_alice[j]
        state, record = measure(state, 0, "conjugate", forced_outcome=forced_outcome, rng=rng)
        records.append(replace(record, subsystem=j))
    if direction == "transfer":
        state = _bob_couplings(state, spec)
    state, record = measure(state, spec.m, "computational", forced_outcome=forced_bus, rng=rng)
    return _finish(input_state, state, (*records, record), direction, targets)


def _possible_outcomes(
    state: StateVector, subsystem: int, basis: str, count: int
) -> Iterator[tuple[StateVector, MeasurementRecord]]:
    """Measure ``subsystem`` of ``state`` once per outcome in ascending
    order, skipping outcomes of zero probability."""
    for outcome in range(count):
        try:
            measured = measure(state, subsystem, basis, forced_outcome=outcome)
        except ZeroProbabilityError:
            continue
        yield measured


def _enumerate(
    input_state: StateVector,
    coupled: StateVector,
    spec: InteractionSpec,
    direction: str,
    targets: _Targets,
) -> list[ProtocolTrace]:
    """Every branch of nonzero probability, as a walk over the prefix tree of
    Alice's outcomes.

    Level ``j`` holds one register per possible prefix of her first ``j``
    outcomes, so each prefix is measured once rather than once per branch
    below it, and a zero-probability outcome prunes its subtree.  Bob's
    couplings (transfer) run once per complete Alice outcome, and each such
    leaf is measured once per bus outcome.  Traces come in odometer order of
    Alice's outcomes, then bus outcome ascending.
    """
    level: list[tuple[tuple[MeasurementRecord, ...], StateVector]] = [((), coupled)]
    for j in range(spec.m):
        level = [
            ((*records, replace(record, subsystem=j)), child)
            for records, state in level
            for child, record in _possible_outcomes(state, 0, "conjugate", spec.d)
        ]
    traces = []
    for records, state in level:
        if direction == "transfer":
            state = _bob_couplings(state, spec)
        for measured, record in _possible_outcomes(state, spec.m, "computational", spec.bus_dim):
            trace, _ = _finish(input_state, measured, (*records, record), direction, targets)
            traces.append(trace)
    return traces


def _run(
    direction: str,
    input_state: StateVector,
    spec: InteractionSpec,
    policy: str,
    seed: int | None,
    alice_outcomes: tuple[int, ...] | list[int] | None,
    bus_outcome: int | None,
) -> ProtocolTrace | list[ProtocolTrace]:
    if input_state.dims != (spec.d,) * spec.m:
        raise ValueError(f"input dims {input_state.dims} do not match spec {(spec.d,) * spec.m}")
    check_register_size(spec, direction)
    matrix = premeasurement_matrix(spec, direction)
    shared = (spec, direction, _targets(matrix))
    if policy == "sample":
        rng = np.random.default_rng(seed)
        coupled = _couple(direction, input_state, spec)
        trace, _ = _branch(input_state, coupled, *shared, (None, None), rng)
        return trace
    if policy == "forced":
        if alice_outcomes is None or bus_outcome is None:
            raise ValueError("forced policy needs alice_outcomes and bus_outcome")
        if len(alice_outcomes) != spec.m:
            raise ValueError(f"need {spec.m} conjugate outcomes, got {len(alice_outcomes)}")
        forced = (tuple(int(a) for a in alice_outcomes), int(bus_outcome))
        coupled = _couple(direction, input_state, spec)
        trace, _ = _branch(input_state, coupled, *shared, forced, None)
        return trace
    if policy == "enumerate":
        return _enumerate(input_state, _couple(direction, input_state, spec), *shared)
    raise ValueError(f"unknown policy {policy!r}; expected sample, forced, or enumerate")


def run_transfer(
    input_state: StateVector,
    spec: InteractionSpec,
    policy: str = "sample",
    seed: int | None = None,
    alice_outcomes: tuple[int, ...] | list[int] | None = None,
    bus_outcome: int | None = None,
) -> ProtocolTrace | list[ProtocolTrace]:
    """Run bus-mediated transfer of ``input_state`` from Alice to Bob.

    Args:
        input_state: state of Alice's ``m`` qudits, dims ``(d,)*m``.
        spec: interaction spec; validated before any simulation.
        policy: ``"sample"`` (one Born-sampled branch), ``"forced"`` (fixed
            outcomes), or ``"enumerate"`` (every branch with nonzero
            probability: conjugate outcomes in odometer order, then bus
            outcome ascending).
        seed: RNG seed for ``sample``; each run owns its generator.
        alice_outcomes: conjugate outcomes for ``forced``.
        bus_outcome: bus outcome for ``forced``.

    Returns:
        One ProtocolTrace, or a list of them under ``enumerate``.

    Raises:
        InvalidInteractionError: the spec fails validation.
        ZeroProbabilityError: a forced outcome cannot occur.
        ValueError: the register Alice measures would exceed
            ``DEFAULT_DIMENSION_CAP`` amplitudes (see
            :func:`check_register_size`), or a bad policy or argument.
    """
    return _run("transfer", input_state, spec, policy, seed, alice_outcomes, bus_outcome)


def run_teleport(
    input_state: StateVector,
    spec: InteractionSpec,
    policy: str = "sample",
    seed: int | None = None,
    alice_outcomes: tuple[int, ...] | list[int] | None = None,
    bus_outcome: int | None = None,
) -> ProtocolTrace | list[ProtocolTrace]:
    """Teleport ``input_state`` onto Bob's pre-coupled blanks; same policies,
    arguments, and trace layout as :func:`run_transfer`."""
    return _run("teleport", input_state, spec, policy, seed, alice_outcomes, bus_outcome)


def repeat_until_entangled(
    spec: InteractionSpec,
    seed: int | None = None,
    trials: int = 1,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    input_state: StateVector | None = None,
) -> RepeatStats:
    """Repeat sampled transfers, feeding the corrected state back in, until a
    branch lands on an entangling target.

    Requires a spec whose mapping has at least one entangling outcome; local
    branches leave the (corrected) state intact, so retrying is free.

    Args:
        spec: interaction spec with kind ``combined`` or ``entangling``.
        seed: seed for the single generator driving all trials.
        trials: independent repetitions.
        max_rounds: per-trial cap; hitting it counts as failure.
        input_state: fixed input; fresh random states per trial when None.

    Raises:
        ValueError: the spec's mapping is purely local, or the transfer
            register would exceed ``DEFAULT_DIMENSION_CAP`` amplitudes.
    """
    check_register_size(spec, "transfer")
    matrix = premeasurement_matrix(spec, "transfer")
    if classify_mapping(matrix).kind == "local":
        raise ValueError("mapping has no entangling outcome; repetition cannot succeed")
    if trials < 1 or max_rounds < 1:
        raise ValueError("trials and max_rounds must be positive")
    rng = np.random.default_rng(seed)
    shared = (spec, "transfer", _targets(matrix))
    rounds_per_trial: list[int] = []
    successes = 0
    min_fidelity = 1.0
    for _ in range(trials):
        state = input_state if input_state is not None else random_state((spec.d,) * spec.m, rng)
        rounds = 0
        while rounds < max_rounds:
            rounds += 1
            coupled = _couple("transfer", state, spec)
            trace, corrected = _branch(state, coupled, *shared, (None, None), rng)
            min_fidelity = min(min_fidelity, trace.fidelity)
            if trace.target_gate != "identity":
                successes += 1
                break
            state = corrected
        rounds_per_trial.append(rounds)
    return RepeatStats(
        rounds_per_trial=tuple(rounds_per_trial),
        successes=successes,
        mean_rounds=sum(rounds_per_trial) / len(rounds_per_trial),
        min_fidelity=min_fidelity,
    )
