"""Command-line front end: simulate protocols, print matrices, search set
families, and compute coherent-bus capacity.

Subcommands: ``simulate``, ``matrix``, ``search``, ``cvbus``.  Parameters are
taken from flags, optionally seeded by a JSON config file (flags override the
file; unknown file keys are rejected).  Output is byte-deterministic for a
fixed config and seed.  Exit codes: 0 success, 1 unexpected numerical
failure, 2 invalid input or spec, 3 search budget exceeded (partial results
are still emitted).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .catalog import cyclic_set, named_operator
from .cvbus import max_dimension, sweep, sweep_csv
from .mappings import (
    DEFAULT_SEARCH_BUDGET,
    InteractionSpec,
    SEARCH_FAMILIES,
    SEARCH_OBJECTIVES,
    check_bus_dim,
    classify_mapping,
    premeasurement_matrix,
    search_sets,
)
from .perms import CycleParseError, OperatorSet, build_hv_sets, build_shift_sets, format_cycles, identity
from .protocol import ProtocolTrace, check_register_size, run_teleport, run_transfer
from .states import (
    DEFAULT_DIMENSION_CAP,
    StateVector,
    basis_state,
    make_state,
    random_state,
    uniform_state,
)

__all__ = ["RunConfig", "main"]

FIDELITY_TOL = 1e-12

_DEFAULTS: dict[str, dict[str, object]] = {
    "simulate": {
        "direction": "transfer",
        "d": 2,
        "m": 2,
        "alice": None,
        "bob": None,
        "input": None,
        "policy": "enumerate",
        "seed": None,
        "alice_outcomes": None,
        "bus_outcome": None,
        "format": "json",
        "out": None,
    },
    "matrix": {
        "direction": "transfer",
        "d": 2,
        "m": 2,
        "alice": None,
        "bob": None,
        "format": "json",
        "out": None,
    },
    "search": {
        "d": 2,
        "m": 2,
        "family": "pairwise+cyclic",
        "objective": "any-valid",
        "budget": None,
        "format": "json",
        "out": None,
    },
    "cvbus": {
        "alpha": None,
        "epsilon": None,
        "alphas": None,
        "epsilons": None,
        "format": None,
        "out": None,
    },
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "simulate": ("alice", "bob"),
    "matrix": ("alice", "bob"),
    "search": (),
    "cvbus": (),
}


class CliError(Exception):
    """User-facing failure carrying the process exit code."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RunConfig:
    """One fully validated command invocation."""

    command: str
    parameters: dict[str, object]
    seed: int | None
    output_format: str | None


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside parentheses or braces."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
            if depth < 0:
                raise CliError(f"unbalanced brackets in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise CliError(f"unbalanced brackets in {text!r}")
    parts.append("".join(current))
    return [part.strip() for part in parts]


def _resolve_operator(text: str, d: int, m: int):
    try:
        return named_operator(text, d, m)
    except (CycleParseError, ValueError) as err:
        raise CliError(f"bad operator {text!r}: {err}") from err


def _parse_slot(text: str, d: int, m: int) -> OperatorSet:
    if text.startswith("{") and text.endswith("}"):
        member_texts = [part.strip() for part in text[1:-1].split("|") if part.strip()]
        members = [identity(d**m)] + [_resolve_operator(part, d, m) for part in member_texts]
        if len(members) != d:
            raise CliError(f"{text!r} lists {len(members) - 1} members; need {d - 1}")
        try:
            return OperatorSet(d, tuple(members))
        except ValueError as err:
            raise CliError(str(err)) from err
    generator = _resolve_operator(text, d, m)
    try:
        return cyclic_set(generator, d)
    except ValueError as err:
        raise CliError(f"bad slot {text!r}: {err}") from err


def _parse_party(text: str, d: int, m: int) -> tuple[OperatorSet, ...]:
    """Parse one party's set specification.

    Either a family shorthand (``hv``, ``hv:inverse``, ``shift``,
    ``shift:inverse``) or ``m`` comma-separated slots, each a named operator,
    cycle notation (the set is the generator's powers), or an explicit
    ``{member|member}`` list of the non-identity members.
    """
    key = text.strip().lower()
    if key in ("hv", "hv:inverse"):
        if m != 2:
            raise CliError("the hv family is defined for m=2")
        sets = build_hv_sets(d)
        return tuple(s.inverses() for s in sets) if key == "hv:inverse" else sets
    if key in ("shift", "shift:inverse"):
        sets = build_shift_sets(d, m)
        return tuple(s.inverses() for s in sets) if key == "shift:inverse" else sets
    slots = _split_top_level(text)
    if len(slots) != m:
        raise CliError(f"need {m} comma-separated slots in {text!r}, got {len(slots)}")
    return tuple(_parse_slot(slot, d, m) for slot in slots)


def _build_spec(params: dict[str, object]) -> InteractionSpec:
    d = int(params["d"])
    m = int(params["m"])
    try:
        check_bus_dim(d, m)
        spec = InteractionSpec(
            d=d,
            m=m,
            alice_sets=_parse_party(str(params["alice"]), d, m),
            bob_sets=_parse_party(str(params["bob"]), d, m),
        )
        spec.validate()
    except ValueError as err:
        raise CliError(str(err)) from err
    return spec


def _parse_input(text: str | None, d: int, m: int, policy: str) -> list[tuple[str, StateVector]]:
    dims = (d,) * m
    if text is None:
        if policy == "enumerate":
            return [(f"basis:{label}", basis_state(dims, label)) for label in range(d**m)]
        return [("plus", uniform_state(dims))]
    text = text.strip()
    try:
        if text.startswith("basis:"):
            return [(text, basis_state(dims, int(text.split(":", 1)[1])))]
        if text == "plus":
            return [(text, uniform_state(dims))]
        if text == "random" or text.startswith("random:"):
            seed = int(text.split(":", 1)[1]) if ":" in text else 0
            rng = np.random.default_rng(seed)
            return [(f"random:{seed}", random_state(dims, rng))]
        amplitudes = [complex(part.strip().replace(" ", "")) for part in text.split(",")]
        return [(text, make_state(dims, amplitudes))]
    except (ValueError, IndexError) as err:
        raise CliError(f"bad input specification {text!r}: {err}") from err


def _party_json(sets: tuple[OperatorSet, ...]) -> list[list[str]]:
    return [[format_cycles(member) for member in opset.members] for opset in sets]


def _spec_json(spec: InteractionSpec, party=_party_json) -> dict[str, object]:
    return {
        "d": spec.d,
        "m": spec.m,
        "alice": party(spec.alice_sets),
        "bob": party(spec.bob_sets),
    }


def _trace_json(
    trace: ProtocolTrace, spec_json: dict[str, object], input_label: str
) -> dict[str, object]:
    return {
        "direction": trace.direction,
        "spec": spec_json,
        "input": input_label,
        "alice_outcomes": list(trace.alice_outcomes),
        "bus_outcome": trace.bus_outcome,
        "correction": {
            "permutation_cycles": format_cycles(trace.correction.permutation),
            "phase_powers": list(trace.correction.phase_powers),
        },
        "target_gate": trace.target_gate,
        "fidelity": trace.fidelity,
        "probability": trace.probability,
    }


def cmd_simulate(config: RunConfig) -> tuple[str, int]:
    """Run transfer or teleport branches and emit one JSON record per branch."""
    params = config.parameters
    spec = _build_spec(params)
    policy = str(params["policy"])
    if policy not in ("sample", "forced", "enumerate"):
        raise CliError(f"unknown policy {policy!r}")
    direction = str(params["direction"])
    if direction not in ("transfer", "teleport"):
        raise CliError(f"unknown direction {direction!r}")
    try:
        check_register_size(spec, direction)
    except ValueError as err:
        raise CliError(str(err)) from err
    runner = run_transfer if direction == "transfer" else run_teleport
    inputs = _parse_input(
        params["input"] if params["input"] is None else str(params["input"]),
        spec.d,
        spec.m,
        policy,
    )
    alice_outcomes = None
    if params["alice_outcomes"] is not None:
        alice_outcomes = tuple(int(part) for part in str(params["alice_outcomes"]).split(","))
    bus_outcome = None if params["bus_outcome"] is None else int(params["bus_outcome"])
    rows: list[tuple[str, ProtocolTrace]] = []
    for label, state in inputs:
        try:
            result = runner(
                state,
                spec,
                policy=policy,
                seed=config.seed,
                alice_outcomes=alice_outcomes,
                bus_outcome=bus_outcome,
            )
        except ValueError as err:
            raise CliError(str(err)) from err
        traces = result if isinstance(result, list) else [result]
        rows.extend((label, trace) for trace in traces)
    ok = all(abs(trace.fidelity - 1.0) <= FIDELITY_TOL for _, trace in rows)
    if config.output_format == "json":
        spec_json = _spec_json(spec)
        lines = [json.dumps(_trace_json(trace, spec_json, label)) for label, trace in rows]
    elif config.output_format == "pretty":
        lines = [
            f"{trace.direction} input={label} alice={trace.alice_outcomes} "
            f"bus={trace.bus_outcome} target={trace.target_gate} "
            f"correction={format_cycles(trace.correction.permutation) or 'identity'} "
            f"fidelity={trace.fidelity:.12f} probability={trace.probability:.6f}"
            for label, trace in rows
        ]
    else:
        raise CliError(f"unsupported format {config.output_format!r} for simulate")
    return "\n".join(lines) + "\n", 0 if ok else 1


def cmd_matrix(config: RunConfig) -> tuple[str, int]:
    """Emit the pre-measurement matrix and its mapping classification."""
    params = config.parameters
    spec = _build_spec(params)
    direction = str(params["direction"])
    try:
        matrix = premeasurement_matrix(spec, direction)
    except ValueError as err:
        raise CliError(str(err)) from err
    mapping = classify_mapping(matrix if direction == "transfer" else spec)
    outcome_cycles = [format_cycles(sigma) for sigma in matrix.outcomes]
    if config.output_format == "json":
        payload = {
            "d": spec.d,
            "m": spec.m,
            "direction": direction,
            "entries": [list(row) for row in matrix.entries],
            "kind": mapping.kind,
            "per_outcome": list(mapping.per_outcome),
            "maximal": mapping.maximal,
            "outcome_permutations": outcome_cycles,
        }
        return json.dumps(payload) + "\n", 0
    if config.output_format == "pretty":
        d = spec.d
        lines = []
        for r, row in enumerate(matrix.entries):
            if r and r % d == 0:
                lines.append("")
            cells = []
            for c, entry in enumerate(row):
                if c and c % d == 0:
                    cells.append("|")
                cells.append(f"λ{entry}")
            lines.append(" ".join(cells))
        lines.append("")
        lines.append(f"kind: {mapping.kind}")
        lines.append(f"per_outcome: {' '.join(mapping.per_outcome)}")
        lines.append(f"maximal: {str(mapping.maximal).lower()}")
        return "\n".join(lines) + "\n", 0
    raise CliError(f"unsupported format {config.output_format!r} for matrix")


def cmd_search(config: RunConfig) -> tuple[str, int]:
    """Stream search hits as JSON records plus a summary line."""
    params = config.parameters
    family = str(params["family"])
    objective = str(params["objective"])
    if family not in SEARCH_FAMILIES:
        raise CliError(f"unknown family {family!r}; expected one of {SEARCH_FAMILIES}")
    if objective not in SEARCH_OBJECTIVES:
        raise CliError(f"unknown objective {objective!r}; expected one of {SEARCH_OBJECTIVES}")
    budget = None if params["budget"] is None else int(params["budget"])
    d, m = int(params["d"]), int(params["m"])
    try:
        result = search_sets(d, family, objective, m=m, budget=budget)
    except ValueError as err:
        raise CliError(str(err)) from err
    if config.output_format != "json":
        raise CliError(f"unsupported format {config.output_format!r} for search")
    # Hits share parties, so each party's cycles are formatted once.
    party = functools.cache(_party_json)
    lines = []
    for hit in result.hits:
        payload = _spec_json(hit.spec, party)
        payload["kind"] = hit.mapping.kind
        payload["per_outcome"] = list(hit.mapping.per_outcome)
        payload["maximal"] = hit.mapping.maximal
        lines.append(json.dumps(payload))
    lines.append(
        json.dumps(
            {
                "summary": {
                    "hits": len(result.hits),
                    "examined": result.examined,
                    "budget": DEFAULT_SEARCH_BUDGET if budget is None else budget,
                    "budget_exceeded": result.budget_exceeded,
                }
            }
        )
    )
    return "\n".join(lines) + "\n", 3 if result.budget_exceeded else 0


def _parse_float_list(text: str) -> list[float]:
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise CliError(f"range spec {text!r} must be start:stop:step")
        start, stop, step = (float(piece) for piece in pieces)
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise CliError(f"range spec {text!r} must be finite")
        if step <= 0:
            raise CliError("range step must be positive")
        # The loop below yields about floor((stop + 1e-9 - start) / step) + 1 points.
        if (stop + 1e-9 - start) / step >= DEFAULT_DIMENSION_CAP:
            raise CliError(f"range spec {text!r} has more than {DEFAULT_DIMENSION_CAP} points")
        values = []
        current = start
        while current <= stop + 1e-9:
            values.append(round(current, 12))
            current += step
        return values
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as err:
        raise CliError(f"bad number list {text!r}") from err


def _bound_json(bound) -> dict[str, object]:
    return {
        "alpha": bound.alpha,
        "epsilon": bound.epsilon,
        "theta": None if math.isnan(bound.theta) else bound.theta,
        "d_max_real": None if math.isnan(bound.d_max_real) else bound.d_max_real,
        "d_max": bound.d_max,
        "qubit_capacity": bound.qubit_capacity,
    }


def cmd_cvbus(config: RunConfig) -> tuple[str, int]:
    """Single capacity point (JSON) or an (alpha, epsilon) sweep (CSV)."""
    params = config.parameters
    point_mode = params["alpha"] is not None or params["epsilon"] is not None
    sweep_mode = params["alphas"] is not None or params["epsilons"] is not None
    if point_mode == sweep_mode:
        raise CliError("give either --alpha and --epsilon, or --alphas and --epsilons")
    try:
        if point_mode:
            if params["alpha"] is None or params["epsilon"] is None:
                raise CliError("point mode needs both --alpha and --epsilon")
            bound = max_dimension(float(params["alpha"]), float(params["epsilon"]))
            fmt = config.output_format or "json"
            if fmt == "json":
                return json.dumps(_bound_json(bound)) + "\n", 0
            if fmt == "csv":
                return sweep_csv([bound]), 0
            raise CliError(f"unsupported format {fmt!r} for cvbus")
        if params["alphas"] is None or params["epsilons"] is None:
            raise CliError("sweep mode needs both --alphas and --epsilons")
        alphas = _parse_float_list(str(params["alphas"]))
        epsilons = _parse_float_list(str(params["epsilons"]))
        if len(alphas) * len(epsilons) > DEFAULT_DIMENSION_CAP:
            raise CliError(f"sweep has more than {DEFAULT_DIMENSION_CAP} points")
        bounds = sweep(alphas, epsilons)
    except ValueError as err:
        raise CliError(str(err)) from err
    fmt = config.output_format or "csv"
    if fmt == "csv":
        return sweep_csv(bounds), 0
    if fmt == "json":
        return "\n".join(json.dumps(_bound_json(bound)) for bound in bounds) + "\n", 0
    raise CliError(f"unsupported format {fmt!r} for cvbus")


_COMMANDS = {
    "simulate": cmd_simulate,
    "matrix": cmd_matrix,
    "search": cmd_search,
    "cvbus": cmd_cvbus,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubus",
        description="Bus-mediated qudit transfer: simulation, matrices, search, capacity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run transfer or teleport branches")
    simulate.add_argument("--direction", choices=("transfer", "teleport"))
    simulate.add_argument("--d", type=int)
    simulate.add_argument("--m", type=int)
    simulate.add_argument("--alice", help="operator sets, e.g. 'q1,q3' or 'hv:inverse'")
    simulate.add_argument("--bob")
    simulate.add_argument("--input", help="basis:K | plus | random[:SEED] | amplitudes")
    simulate.add_argument("--policy", choices=("sample", "forced", "enumerate"))
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--alice-outcomes", dest="alice_outcomes", help="forced conjugate outcomes, e.g. '0,1'")
    simulate.add_argument("--bus-outcome", dest="bus_outcome", type=int)

    matrix = sub.add_parser("matrix", help="pre-measurement matrix and classification")
    matrix.add_argument("--direction", choices=("transfer", "teleport"))
    matrix.add_argument("--d", type=int)
    matrix.add_argument("--m", type=int)
    matrix.add_argument("--alice")
    matrix.add_argument("--bob")

    search = sub.add_parser("search", help="search operator-set families")
    search.add_argument("--d", type=int)
    search.add_argument("--m", type=int)
    search.add_argument("--family", choices=SEARCH_FAMILIES)
    search.add_argument("--objective", choices=SEARCH_OBJECTIVES)
    search.add_argument("--budget", type=int)

    cvbus = sub.add_parser("cvbus", help="coherent-bus capacity bounds")
    cvbus.add_argument("--alpha", type=float)
    cvbus.add_argument("--epsilon", type=float)
    cvbus.add_argument("--alphas", help="comma list or start:stop:step")
    cvbus.add_argument("--epsilons", help="comma list")

    for name, subparser in (
        ("simulate", simulate),
        ("matrix", matrix),
        ("search", search),
        ("cvbus", cvbus),
    ):
        subparser.add_argument("--format", choices=("json", "csv", "pretty"))
        subparser.add_argument("--out", help="write output to this file instead of stdout")
        subparser.add_argument("--config", help="JSON file with default parameter values")
        subparser.set_defaults(command=name)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    defaults = dict(_DEFAULTS[command])
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_values = json.load(handle)
        except (OSError, json.JSONDecodeError) as err:
            raise CliError(f"cannot read config file: {err}") from err
        if not isinstance(file_values, dict):
            raise CliError("config file must hold a JSON object")
        for key in file_values:
            if key not in defaults and key != "seed":
                raise CliError(f"unknown config key {key!r} for command {command!r}")
        for key, value in file_values.items():
            if key != "seed":
                defaults[key] = value
        if "seed" in file_values and getattr(args, "seed", None) is None:
            args.seed = int(file_values["seed"])
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            defaults[key] = flag_value
    for key in _REQUIRED[command]:
        if defaults[key] is None:
            raise CliError(f"missing required parameter --{key}")
    output_format = defaults.pop("format")
    defaults.pop("out", None)
    return RunConfig(
        command=command,
        parameters=defaults,
        seed=getattr(args, "seed", None),
        output_format=str(output_format) if output_format is not None else None,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        text, code = _COMMANDS[config.command](config)
    except CliError as err:
        sys.stderr.write(
            json.dumps({"error": {"code": err.code, "message": str(err)}}) + "\n"
        )
        return err.code
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
