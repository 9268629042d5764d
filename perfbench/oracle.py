"""Independent checks of qubus outputs.

Everything here is plain Python over image tuples: operator-set members are
built from digit arithmetic or read as data, combinations are composed
directly, and nothing calls ``qubus.mappings``.  Each ``check_*`` function
raises :class:`CheckFailed` with a message naming the first violation.
"""

from __future__ import annotations

import itertools
import json
import math
import re

FIDELITY_ATOL = 1e-12
PROBABILITY_ATOL = 1e-12
# Standard errors the pooled mean round count of a run may stray from D/E.
MEAN_ROUNDS_SIGMAS = 5.0
# Relative slack on the capacity inequalities, far below any off-by-one.
CAPACITY_RTOL = 1e-9

_CYCLE = re.compile(r"\(([^()]*)\)")


class CheckFailed(AssertionError):
    """An output disagrees with the independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- permutations as image tuples -------------------------------------------------


def parse_cycles(text: str, size: int) -> tuple[int, ...]:
    """Image tuple of disjoint cycle notation such as ``(0,1)(2,3)``."""
    images = list(range(size))
    cycles = _CYCLE.findall(text)
    _require("".join(f"({cycle})" for cycle in cycles) == text, f"malformed cycles {text!r}")
    moved = 0
    for cycle in cycles:
        labels = [int(part) for part in cycle.split(",")]
        _require(len(labels) >= 2 and 0 <= min(labels) and max(labels) < size, f"bad cycle ({cycle})")
        for a, b in zip(labels, labels[1:] + labels[:1]):
            images[a] = b
        moved += len(labels)
    _require(
        sorted(images) == list(range(size)) and moved == sum(s != t for s, t in enumerate(images)),
        f"cycles {text!r} are not disjoint",
    )
    return tuple(images)


def inverse(images: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(images)
    for s, image in enumerate(images):
        out[image] = s
    return tuple(out)


def cyclic_members(step, d: int, size: int) -> list[tuple[int, ...]]:
    """Members ``g**j`` (``j < d``) of the set generated by ``step(s, j) = g**j(s)``."""
    return [tuple(step(s, j) for s in range(size)) for j in range(d)]


def block_members(n: int, k: int, d: int) -> list[tuple[int, ...]]:
    """Powers of ``V**n H**k`` on ``d*d`` labels: the high digit advances by
    ``n`` and the low digit by ``k`` per power (the ``y{n}{k}`` sets)."""
    return cyclic_members(
        lambda s, j: ((s // d + j * n) % d) * d + (s % d + j * k) % d, d, d * d
    )


def hv_members(d: int, inverse_order: bool = False) -> list[list[tuple[int, ...]]]:
    """The row/column cycling family; ``inverse_order`` replaces each member
    by its inverse (``hv:inverse``)."""
    sign = -1 if inverse_order else 1
    return [block_members(0, sign, d), block_members(sign, 0, d)]


def shift_members(d: int, m: int, inverse_order: bool = False) -> list[list[tuple[int, ...]]]:
    """Set ``j`` holds the powers of the full bus cycle with stride ``d**j``."""
    bus = d**m
    sign = -1 if inverse_order else 1
    return [
        cyclic_members(lambda s, k, j=j: (s + sign * k * d**j) % bus, d, bus)
        for j in range(m)
    ]


def combinations(sets) -> list[tuple[int, ...]]:
    """Composite combinations in odometer order, first set applied first and
    most significant."""
    combos = [tuple(range(len(sets[0][0])))]
    for members in sets:
        combos = [tuple(member[x] for x in combo) for combo in combos for member in members]
    return combos


def premeasurement(alice: list[tuple[int, ...]], bob: list[tuple[int, ...]], direction: str):
    """``entries[r][c]``: ``B_r(A_c(0))`` in transfer, ``A_c(B_r(0))`` in teleport."""
    if direction == "transfer":
        return [[b[a[0]] for a in alice] for b in bob]
    return [[a[b[0]] for a in alice] for b in bob]


def outcome_permutations(entries) -> list[tuple[int, ...]]:
    """``sigma[label][c]`` is the row holding ``label`` in column ``c``."""
    size = len(entries)
    sigma = [[-1] * size for _ in range(size)]
    for r, row in enumerate(entries):
        for c, label in enumerate(row):
            sigma[label][c] = r
    return [tuple(row) for row in sigma]


def is_latin(entries) -> bool:
    full = set(range(len(entries)))
    return all(set(row) == full for row in entries) and all(
        set(column) == full for column in zip(*entries)
    )


def party_valid(combos: list[tuple[int, ...]]) -> bool:
    """Distinct combinations disagree on every label."""
    return all(len(set(column)) == len(combos) for column in zip(*combos))


def is_local(sigma: tuple[int, ...], d: int, m: int) -> bool:
    """Whether each output digit depends on the matching input digit alone."""
    for position in range(m):
        stride = d ** (m - 1 - position)
        seen: dict[int, int] = {}
        for s, image in enumerate(sigma):
            key = s // stride % d
            if seen.setdefault(key, image // stride % d) != image // stride % d:
                return False
    return True


def latin_digits(sigma: tuple[int, ...], d: int) -> bool:
    """Whether both output digits of a two-qudit permutation are Latin
    squares in the input digits (maximal entangling for ``d >= 3``)."""
    return is_latin([[sigma[i * d + j] // d for j in range(d)] for i in range(d)]) and is_latin(
        [[sigma[i * d + j] % d for j in range(d)] for i in range(d)]
    )


def kind_of(labels: list[str]) -> str:
    if all(label == "local" for label in labels):
        return "local"
    if all(label == "entangling" for label in labels):
        return "entangling"
    return "combined"


def transfer_outcomes(alice_sets, bob_sets, d: int, m: int):
    """Transfer outcome permutations, and for each whether it factors."""
    entries = premeasurement(combinations(alice_sets), combinations(bob_sets), "transfer")
    sigmas = outcome_permutations(entries)
    return sigmas, ["local" if is_local(sigma, d, m) else "entangling" for sigma in sigmas]


def non_local_count(alice_sets, bob_sets, d: int, m: int) -> int:
    """``E``: transfer outcomes whose permutation does not factor."""
    return transfer_outcomes(alice_sets, bob_sets, d, m)[1].count("entangling")


# --- protocol outputs --------------------------------------------------------------


def check_enumerate(traces, direction: str, alice_sets, bob_sets, d: int, m: int) -> None:
    """Every branch of an enumerated transfer or teleport.

    Branch count and probabilities are uniform, the correction's inverse
    ``sigma`` links every Alice combination ``c`` to Bob's ``sigma(c)`` through
    the bus outcome, phase powers repeat the conjugate outcomes, and the
    corrected state matches the input.
    """
    bus = d**m
    entries = premeasurement(combinations(alice_sets), combinations(bob_sets), direction)
    expected = d**m * bus
    _require(len(traces) == expected, f"{direction}: {len(traces)} branches, expected {expected}")
    keys = {(tuple(t.alice_outcomes), t.bus_outcome) for t in traces}
    _require(len(keys) == expected, f"{direction}: repeated branches")
    for trace in traces:
        where = f"{direction} branch {trace.alice_outcomes}/{trace.bus_outcome}"
        _require(trace.direction == direction, f"{where}: direction {trace.direction}")
        _require(
            abs(trace.probability - 1.0 / expected) <= PROBABILITY_ATOL,
            f"{where}: probability {trace.probability}",
        )
        _require(abs(trace.fidelity - 1.0) <= FIDELITY_ATOL, f"{where}: fidelity {trace.fidelity}")
        _require(
            tuple(trace.correction.phase_powers) == tuple(trace.alice_outcomes),
            f"{where}: phase powers {trace.correction.phase_powers}",
        )
        sigma = inverse(trace.correction.permutation.mapping)
        _require(
            all(entries[sigma[c]][c] == trace.bus_outcome for c in range(bus)),
            f"{where}: correction does not link the parties through the bus outcome",
        )


def check_repeat(stats, trials: int) -> None:
    """Repeat-until-entangled statistics of one call: every trial succeeds at
    fidelity 1, and ``mean_rounds`` is the mean of the recorded rounds."""
    _require(len(stats.rounds_per_trial) == trials, f"{len(stats.rounds_per_trial)} trials")
    _require(stats.successes == trials, f"{stats.successes} of {trials} trials succeeded")
    _require(stats.min_fidelity >= 1.0 - FIDELITY_ATOL, f"min fidelity {stats.min_fidelity}")
    _require(min(stats.rounds_per_trial) >= 1, "a trial took no round")
    mean = sum(stats.rounds_per_trial) / trials
    _require(abs(stats.mean_rounds - mean) <= 1e-12, f"mean_rounds {stats.mean_rounds} != {mean}")


def check_mean_rounds(rounds: int, trials: int, bus: int, entangling: int) -> None:
    """``rounds`` over ``trials`` pooled trials is the mean of a geometric law
    with success ``E/D``, within a few standard errors."""
    p = entangling / bus
    mean = rounds / trials
    stderr = math.sqrt((1.0 - p) / p**2 / trials)
    _require(
        abs(mean - 1.0 / p) <= MEAN_ROUNDS_SIGMAS * stderr,
        f"mean rounds {mean:.4f} over {trials} trials, expected {1.0 / p:.4f} +- {stderr:.4f}",
    )


# --- command-line outputs ----------------------------------------------------------


def check_matrix(text: str, alice_sets, bob_sets, d: int, m: int) -> None:
    """``qubus matrix`` JSON against the directly composed transfer matrix."""
    payload = json.loads(text)
    entries = premeasurement(combinations(alice_sets), combinations(bob_sets), "transfer")
    size = d**m
    _require((payload["d"], payload["m"]) == (d, m), f"matrix dims {payload['d']}, {payload['m']}")
    _require(payload["entries"] == entries, "matrix entries differ from B_r(A_c(0))")
    _require(is_latin(payload["entries"]), "matrix is not a Latin square")
    cycles = payload["outcome_permutations"]
    _require(len(cycles) == size, f"{len(cycles)} outcome permutations")
    labels = []
    maximal = m == 2 and d >= 3
    for label, text_cycles in enumerate(cycles):
        sigma = parse_cycles(text_cycles, size)
        _require(
            all(entries[sigma[c]][c] == label for c in range(size)),
            f"outcome permutation {label} does not map columns to the rows holding {label}",
        )
        labels.append("local" if is_local(sigma, d, m) else "entangling")
        maximal = maximal and latin_digits(sigma, d)
    _require(payload["per_outcome"] == labels, "per-outcome classes differ from factorisation")
    _require(payload["kind"] == kind_of(labels), f"kind {payload['kind']!r} differs")
    _require(payload["maximal"] == maximal, f"maximal {payload['maximal']} differs")


def family_parties(family: str, d: int) -> list[tuple[tuple[tuple[int, ...], ...], ...]]:
    """One party's candidate operator-set pairs, in the family's order."""
    if family == "hv_products":
        slots = []
        for n, k in itertools.product(range(d), repeat=2):
            if (n, k) == (0, 0):
                continue
            members = block_members(n, k, d)
            if len(set(members)) == d:
                slots.append(tuple(members))
    elif family == "pairwise+cyclic":
        identity = tuple(range(4))
        slots = [
            (identity, images)
            for images in itertools.permutations(range(4))
            if all(image != s for s, image in enumerate(images))
        ]
    else:
        raise ValueError(f"no reference enumeration for family {family!r}")
    return list(itertools.product(slots, repeat=2))


def objective_met(alice_sets, bob_sets, d: int, objective: str) -> tuple[bool, list[str]]:
    """Whether a valid two-qudit spec meets ``local`` or ``maximal`` (``d >= 3``),
    with its per-outcome classes."""
    sigmas, labels = transfer_outcomes(alice_sets, bob_sets, d, 2)
    if objective == "local":
        return all(label == "local" for label in labels), labels
    if objective == "maximal" and d >= 3:
        return all(latin_digits(sigma, d) for sigma in sigmas), labels
    raise ValueError(f"no reference for objective {objective!r} at d={d}")


def expected_hits(family: str, d: int, objective: str) -> tuple[int, set]:
    """Family size and the set of hits, by direct enumeration."""
    parties = family_parties(family, d)
    valid = {party: party_valid(combinations(party)) for party in parties}
    hits = set()
    for alice in parties:
        if not valid[alice]:
            continue
        for bob in parties:
            if valid[bob] and objective_met(alice, bob, d, objective)[0]:
                hits.add((alice, bob))
    return len(parties) ** 2, hits


def check_search(text: str, d: int, objective: str, examined: int, hits: set) -> None:
    """``qubus search`` JSON lines: every hit is valid and meets the objective,
    and hit count and examined count match the direct enumeration."""
    lines = [json.loads(line) for line in text.splitlines() if line]
    summary = lines[-1]["summary"]
    found = set()
    size = d * d
    for record in lines[:-1]:
        party = {}
        for name in ("alice", "bob"):
            party[name] = tuple(
                tuple(parse_cycles(member, size) for member in opset) for opset in record[name]
            )
            _require(
                party[name] and all(opset[0] == tuple(range(size)) for opset in party[name]),
                f"hit {name} sets must start with the identity",
            )
            _require(
                party_valid(combinations(party[name])),
                f"hit {name} sets are invalid: {record[name]}",
            )
        met, labels = objective_met(party["alice"], party["bob"], d, objective)
        _require(met, f"hit misses objective {objective}: {record['alice']} / {record['bob']}")
        _require(record["per_outcome"] == labels, "hit per-outcome classes differ")
        _require(record["kind"] == kind_of(labels), f"hit kind {record['kind']!r} differs")
        if objective == "maximal":
            _require(record["maximal"] is True, "maximal hit not flagged maximal")
        found.add((party["alice"], party["bob"]))
    _require(len(found) == len(lines) - 1, "repeated search hits")
    _require(summary["hits"] == len(lines) - 1, f"summary counts {summary['hits']} hits")
    _require(summary["examined"] == examined, f"examined {summary['examined']}, family has {examined}")
    _require(found == hits, f"{len(found)} hits, direct enumeration finds {len(hits)}")
    _require(summary["budget_exceeded"] is False, "budget exceeded")


def check_cvbus(text: str, alphas: list[float], epsilons: list[float]) -> None:
    """``qubus cvbus`` sweep CSV: one row per (epsilon, alpha), epsilons
    outermost, and each ``d_max`` is the largest slot count whose adjacent
    overlap ``exp(alpha**2 (cos(2 pi/D) - 1))`` stays at or below epsilon."""
    lines = text.splitlines()
    _require(lines[0] == "alpha,epsilon,theta,d_max_real,d_max,qubit_capacity", "csv header")
    rows = lines[1:]
    grid = [(alpha, epsilon) for epsilon in epsilons for alpha in alphas]
    _require(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} points")

    def overlap(alpha: float, slots: int) -> float:
        return math.exp(alpha**2 * (math.cos(2.0 * math.pi / slots) - 1.0))

    for line, (alpha, epsilon) in zip(rows, grid):
        fields = line.split(",")
        _require(
            math.isclose(float(fields[0]), alpha, rel_tol=1e-11)
            and math.isclose(float(fields[1]), epsilon, rel_tol=1e-11),
            f"row {line!r} is not point ({alpha}, {epsilon})",
        )
        d_max = int(fields[4])
        _require(d_max >= 1, f"row {line!r}: d_max below 1")
        _require(int(fields[5]) == d_max.bit_length() - 1, f"row {line!r}: qubit capacity")
        _require(
            epsilon < overlap(alpha, d_max + 1) * (1.0 + CAPACITY_RTOL),
            f"row {line!r}: {d_max + 1} slots would also fit",
        )
        if d_max == 1:
            _require(fields[2] == "nan", f"row {line!r}: capacity-1 row needs NaN theta")
        else:
            _require(
                overlap(alpha, d_max) <= epsilon * (1.0 + CAPACITY_RTOL),
                f"row {line!r}: {d_max} slots overlap above epsilon",
            )
