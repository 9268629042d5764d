"""The benchmark's three workloads, built from the qubus sources of this checkout.

Every timed call of a workload does the same fixed work, so its median stays
in one place:

- ``enumerate``: enumerated transfer and teleport of a fresh random 3-qutrit
  input over the shift sets (``d=3, m=3``), 729 + 729 branches.
- ``repeat``: repeat-until-entangled on ``qubit-combined`` and
  ``qutrit-shift``, a fixed trial count each, fresh seeds per call.
- ``analysis``: searches, two large matrices and a capacity sweep through
  ``qubus.cli.main``, output captured.

qubus and numpy are imported inside :func:`load`, never at module import, so
the set-up probe times them.  Calls reach qubus through module attributes
(``protocol.run_transfer``), which is what lets the traced run patch them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SourceMissing(RuntimeError):
    """The checkout holds no qubus sources to benchmark."""


class CallFailed(RuntimeError):
    """A command exited with a non-zero code."""


def use_checkout_source() -> None:
    """Put this checkout's ``src`` first on the path and import qubus from it,
    refusing any other installed copy."""
    package = SRC / "qubus"
    if not (package / "__init__.py").is_file():
        raise SourceMissing(f"no qubus package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qubus

    if Path(qubus.__file__).resolve().parent != package.resolve():
        raise SourceMissing(f"qubus was imported from {qubus.__file__}, not {package}")


class Enumerate:
    """Transfer and teleport of one random 3-qutrit input, every branch."""

    D, M = 3, 3
    traced_calls = 6

    def __init__(self, seed: int):
        from qubus import mappings, perms

        self.seed = seed
        alice = perms.build_shift_sets(self.D, self.M)
        self.spec = mappings.InteractionSpec(
            self.D, self.M, alice, tuple(opset.inverses() for opset in alice)
        )

    def prepare(self, index: int):
        import numpy as np
        from qubus import states

        rng = np.random.default_rng([self.seed, index])
        return states.random_state((self.D,) * self.M, rng)

    def call(self, state):
        from qubus import protocol

        return (
            protocol.run_transfer(state, self.spec, policy="enumerate"),
            protocol.run_teleport(state, self.spec, policy="enumerate"),
        )

    def check(self, state, output) -> None:
        alice = oracle.shift_members(self.D, self.M)
        bob = oracle.shift_members(self.D, self.M, inverse_order=True)
        for direction, traces in zip(("transfer", "teleport"), output):
            oracle.check_enumerate(traces, direction, alice, bob, self.D, self.M)

    def finish(self) -> None:
        """Every check of this workload is per call."""

    def counts(self, output) -> dict[str, float]:
        traces = output[0] + output[1]
        return {
            "protocol.branches": len(traces),
            "protocol.entangling": sum(t.target_gate != "identity" for t in traces),
        }


# Members of the two repeat specs as image tuples, for the reference.
_R1, _Q2 = (1, 2, 3, 0), (2, 3, 0, 1)
_QUBIT_COMBINED = [[(0, 1, 2, 3), _R1], [(0, 1, 2, 3), _Q2]]


def _shift_powers(*strides: int) -> list[list[tuple[int, ...]]]:
    return [oracle.cyclic_members(lambda s, j, k=k: (s + j * k) % 9, 3, 9) for k in strides]


class Repeat:
    """Repeat-until-entangled with a fixed trial count on two small specs."""

    SPECS = (
        ("qubit-combined", 2, _QUBIT_COMBINED, _QUBIT_COMBINED),
        ("qutrit-shift", 3, _shift_powers(1, 3), _shift_powers(8, 6)),
    )
    TRIALS = 400
    traced_calls = 8

    def __init__(self, seed: int):
        from qubus import catalog

        self.seed = seed
        self.specs = [catalog.canonical_spec(name) for name, *_ in self.SPECS]
        self._entangling: list[int] | None = None
        # Rounds and trials of every checked call, per spec, for finish().
        self._rounds = [0] * len(self.SPECS)
        self._trials = 0

    def prepare(self, index: int) -> list[int]:
        return [(self.seed * 1_000_003 + index) * len(self.SPECS) + k for k in range(len(self.SPECS))]

    def call(self, seeds):
        from qubus import protocol

        return [
            protocol.repeat_until_entangled(spec, seed=seed, trials=self.TRIALS)
            for spec, seed in zip(self.specs, seeds)
        ]

    def check(self, seeds, output) -> None:
        for stats in output:
            oracle.check_repeat(stats, self.TRIALS)
        for k, stats in enumerate(output):
            self._rounds[k] += sum(stats.rounds_per_trial)
        self._trials += self.TRIALS

    def finish(self) -> None:
        """The mean round count, pooled over every checked call of the run,
        is that of the success share ``E/D`` the reference counts."""
        if self._entangling is None:
            self._entangling = [
                oracle.non_local_count(alice, bob, d, 2) for _, d, alice, bob in self.SPECS
            ]
        for (_, d, _, _), entangling, rounds in zip(self.SPECS, self._entangling, self._rounds):
            oracle.check_mean_rounds(rounds, self._trials, d * d, entangling)

    def counts(self, output) -> dict[str, float]:
        return {
            "protocol.branches": sum(sum(stats.rounds_per_trial) for stats in output),
            "protocol.entangling": sum(stats.successes for stats in output),
        }


class Analysis:
    """A fixed list of ``qubus`` commands run in-process, output captured."""

    SEARCHES = (
        (3, "hv_products", "maximal"),
        (2, "pairwise+cyclic", "local"),
    )
    MATRICES = (
        (16, "y01,y10", "y21,y11"),
        (12, "hv", "hv:inverse"),
    )
    SWEEP_ALPHAS = 100
    SWEEP_EPSILONS = 8
    traced_calls = 2

    def __init__(self, seed: int):
        from qubus import cli  # noqa: F401  (the import is part of set-up)

        rng = random.Random(seed)
        self.alphas = [round(rng.uniform(0.5, 80.0), 6) for _ in range(self.SWEEP_ALPHAS)]
        self.epsilons = [
            float(f"{10.0 ** -rng.uniform(1.0, 9.0):.6g}") for _ in range(self.SWEEP_EPSILONS)
        ]
        self.commands = (
            [
                ["search", "--d", str(d), "--family", family, "--objective", objective]
                for d, family, objective in self.SEARCHES
            ]
            + [["matrix", "--d", str(d), "--alice", a, "--bob", b] for d, a, b in self.MATRICES]
            + [
                [
                    "cvbus",
                    "--alphas",
                    ",".join(map(repr, self.alphas)),
                    "--epsilons",
                    ",".join(map(repr, self.epsilons)),
                ]
            ]
        )
        self._hits: list[tuple[int, set]] | None = None

    def prepare(self, index: int) -> None:
        return None

    def call(self, _):
        from qubus import cli

        outputs = []
        for argv in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            if code != 0:
                raise CallFailed(f"qubus {argv[0]} exited {code}: {err.getvalue().strip()}")
            outputs.append(out.getvalue())
        return outputs

    def check(self, _, output) -> None:
        if self._hits is None:
            self._hits = [oracle.expected_hits(f, d, o) for d, f, o in self.SEARCHES]
        searches, matrices, sweep = output[:2], output[2:4], output[4]
        for (d, _, objective), (examined, hits), text in zip(self.SEARCHES, self._hits, searches):
            oracle.check_search(text, d, objective, examined, hits)
        for (d, alice, bob), text in zip(self.MATRICES, matrices):
            oracle.check_matrix(text, _party_members(alice, d), _party_members(bob, d), d, 2)
        oracle.check_cvbus(sweep, self.alphas, self.epsilons)

    def finish(self) -> None:
        """Every check of this workload is per call."""

    def counts(self, output) -> dict[str, float]:
        summaries = [json.loads(text.splitlines()[-1])["summary"] for text in output[:2]]
        return {
            "cli.output_bytes": sum(len(text.encode()) for text in output),
            "search.hits": sum(s["hits"] for s in summaries),
            "search.examined": sum(s["examined"] for s in summaries),
        }


def _party_members(text: str, d: int) -> list[list[tuple[int, ...]]]:
    """Reference members for the matrix commands' ``hv`` families and
    ``y{n}{k}`` slots."""
    if text in ("hv", "hv:inverse"):
        return oracle.hv_members(d, inverse_order=text == "hv:inverse")
    return [oracle.block_members(int(slot[1]), int(slot[2]), d) for slot in text.split(",")]


WORKLOADS = {"enumerate": Enumerate, "repeat": Repeat, "analysis": Analysis}


def load(name: str, seed: int):
    """Import qubus from this checkout and build one workload: the work
    ``setup_s`` covers, apart from the first call's input."""
    use_checkout_source()
    return WORKLOADS[name](seed)
