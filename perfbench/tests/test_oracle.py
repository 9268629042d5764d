"""The benchmark's output checks accept real qubus output and reject
corrupted output.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import contextlib
import dataclasses
import io
import json

import pytest

import oracle
import run
import workloads
from qubus import catalog, cli, perms, protocol

QUTRIT_MAXIMAL = ("y01,y10", "y21,y22")


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def members(text: str, d: int):
    return workloads._party_members(text, d)


@pytest.fixture(scope="module")
def enumerated():
    workload = workloads.Enumerate(seed=1)
    state = workload.prepare(1)
    return workload, state, workload.call(state)


def test_enumerate_check_accepts_both_directions(enumerated):
    workload, state, output = enumerated
    workload.check(state, output)


@pytest.mark.parametrize("direction", [0, 1])
def test_enumerate_check_rejects_transposed_correction(enumerated, direction):
    workload, state, output = enumerated
    traces = list(output[direction])
    trace = traces[100]
    images = list(trace.correction.permutation.mapping)
    images[0], images[1] = images[1], images[0]
    bad = dataclasses.replace(trace.correction, permutation=perms.Permutation(tuple(images)))
    traces[100] = dataclasses.replace(trace, correction=bad)
    corrupted = (traces, output[1]) if direction == 0 else (output[0], traces)
    with pytest.raises(oracle.CheckFailed, match="does not link"):
        workload.check(state, corrupted)


def test_enumerate_check_rejects_lost_fidelity(enumerated):
    workload, state, output = enumerated
    traces = list(output[0])
    traces[5] = dataclasses.replace(traces[5], fidelity=1.0 - 1e-9)
    with pytest.raises(oracle.CheckFailed, match="fidelity"):
        workload.check(state, (traces, output[1]))


def test_matrix_check_accepts_qutrit_maximal():
    text = run_cli(["matrix", "--d", "3", "--alice", QUTRIT_MAXIMAL[0], "--bob", QUTRIT_MAXIMAL[1]])
    oracle.check_matrix(text, members(QUTRIT_MAXIMAL[0], 3), members(QUTRIT_MAXIMAL[1], 3), 3, 2)
    assert json.loads(text)["maximal"] is True


def test_matrix_check_rejects_transcribed_maximal_table():
    payload = json.loads(
        run_cli(["matrix", "--d", "3", "--alice", QUTRIT_MAXIMAL[0], "--bob", QUTRIT_MAXIMAL[1]])
    )
    payload["entries"] = [list(row) for row in catalog.QUTRIT_MAXIMAL_TABLE_AS_TRANSCRIBED]
    assert not oracle.is_latin(payload["entries"])
    with pytest.raises(oracle.CheckFailed, match="entries differ"):
        oracle.check_matrix(
            json.dumps(payload), members(QUTRIT_MAXIMAL[0], 3), members(QUTRIT_MAXIMAL[1], 3), 3, 2
        )


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda p: p["outcome_permutations"].reverse(), "does not map"),
        (lambda p: p.update(kind="local"), "kind"),
        (lambda p: p.update(maximal=not p["maximal"]), "maximal"),
    ],
)
def test_matrix_check_rejects_wrong_analysis(corrupt, message):
    payload = json.loads(run_cli(["matrix", "--d", "4", "--alice", "hv", "--bob", "y11,y21"]))
    args = (members("hv", 4), members("y11,y21", 4), 4, 2)
    oracle.check_matrix(json.dumps(payload), *args)
    corrupt(payload)
    with pytest.raises(oracle.CheckFailed, match=message):
        oracle.check_matrix(json.dumps(payload), *args)


def _search_line(spec, kind: str) -> str:
    def party(sets):
        return [[perms.format_cycles(member) for member in opset.members] for opset in sets]

    return json.dumps(
        {"d": spec.d, "m": spec.m, "alice": party(spec.alice_sets), "bob": party(spec.bob_sets),
         "kind": kind, "per_outcome": [kind] * spec.bus_dim, "maximal": False}
    )


def test_search_check_rejects_corrupted_qutrit_spec():
    summary = {"hits": 1, "examined": 4096, "budget": 6561, "budget_exceeded": False}
    text = _search_line(catalog.corrupted_qutrit_spec(), "local") + "\n"
    text += json.dumps({"summary": summary}) + "\n"
    with pytest.raises(oracle.CheckFailed, match="alice sets are invalid"):
        oracle.check_search(text, 3, "local", 4096, set())


def test_search_check_matches_direct_enumeration():
    text = run_cli(["search", "--d", "2", "--family", "pairwise+cyclic", "--objective", "local"])
    examined, hits = oracle.expected_hits("pairwise+cyclic", 2, "local")
    assert (examined, len(hits)) == (6561, 18)
    oracle.check_search(text, 2, "local", examined, hits)
    lines = text.splitlines()
    with pytest.raises(oracle.CheckFailed, match="hits"):
        oracle.check_search("\n".join(lines[1:]) + "\n", 2, "local", examined, hits)


def test_search_reference_counts_maximal_qutrit_hits():
    examined, hits = oracle.expected_hits("hv_products", 3, "maximal")
    assert (examined, len(hits)) == (4096, 384)


def test_repeat_check_rejects_failed_trial():
    spec_name = workloads.Repeat.SPECS[0][0]
    stats = protocol.repeat_until_entangled(catalog.canonical_spec(spec_name), seed=5, trials=300)
    oracle.check_repeat(stats, 300)
    with pytest.raises(oracle.CheckFailed, match="succeeded"):
        oracle.check_repeat(dataclasses.replace(stats, successes=299), 300)
    with pytest.raises(oracle.CheckFailed, match="mean_rounds"):
        oracle.check_repeat(dataclasses.replace(stats, mean_rounds=stats.mean_rounds + 0.5), 300)


@pytest.fixture(scope="module")
def pooled_repeat():
    """A repeat workload after as many calls as its traced run makes."""
    workload = workloads.Repeat(seed=1)
    for index in range(1, workload.traced_calls + 1):
        seeds = workload.prepare(index)
        workload.check(seeds, workload.call(seeds))
    return workload


def test_repeat_pooled_mean_accepts_real_rounds(pooled_repeat):
    pooled_repeat.finish()


@pytest.mark.parametrize("slip", [-1, 1])
def test_repeat_pooled_mean_rejects_entangling_count_off_by_one(pooled_repeat, slip):
    # On qutrit-shift E = 6 of D = 9: a mean of 1.5 rounds, against 9/7 or 9/5
    # had one outcome too many or too few been counted as entangling.
    k = 1
    _, d, alice, bob = workloads.Repeat.SPECS[k]
    entangling = oracle.non_local_count(alice, bob, d, 2)
    assert (d * d, entangling) == (9, 6)
    rounds, trials = pooled_repeat._rounds[k], pooled_repeat._trials
    oracle.check_mean_rounds(rounds, trials, d * d, entangling)
    with pytest.raises(oracle.CheckFailed, match="mean rounds"):
        oracle.check_mean_rounds(rounds, trials, d * d, entangling + slip)


def test_repeat_pooled_mean_rejects_single_round_trials():
    with pytest.raises(oracle.CheckFailed, match="mean rounds"):
        oracle.check_mean_rounds(400, 400, 9, 6)


def test_cvbus_check_rejects_off_by_one_capacity():
    alphas, epsilons = [0.5, 3.0, 40.0], [1e-2, 1e-6]
    text = run_cli(["cvbus", "--alphas", "0.5,3.0,40.0", "--epsilons", "1e-2,1e-6"])
    oracle.check_cvbus(text, alphas, epsilons)
    lines = text.splitlines()
    assert "nan" in lines[1]
    fields = lines[3].split(",")
    fields[4] = str(int(fields[4]) + 1)
    lines[3] = ",".join(fields)
    with pytest.raises(oracle.CheckFailed, match="overlap above epsilon"):
        oracle.check_cvbus("\n".join(lines) + "\n", alphas, epsilons)


class _WrongOutput:
    """A workload whose calls succeed and whose outputs fail their check."""

    def __init__(self, error: Exception):
        self.error = error

    def prepare(self, index):
        return index

    def call(self, data):
        return data

    def check(self, data, output):
        raise self.error

    def finish(self):
        raise oracle.CheckFailed("pooled check")


@pytest.mark.parametrize(
    "error", [oracle.CheckFailed("wrong"), json.JSONDecodeError("bad", "", 0), KeyError("kind")]
)
def test_wrong_or_malformed_output_counts_as_failed(error):
    tally = run.Tally(_WrongOutput(error))
    elapsed, output = tally.run(1)
    assert output is None and elapsed >= 0.0
    assert (tally.attempted, tally.failed, tally.correct) == (1, 1, False)


def test_failed_run_level_check_clears_correct():
    tally = run.Tally(_WrongOutput(ValueError("unused")))
    tally.finish()
    assert (tally.attempted, tally.failed, tally.correct) == (0, 0, False)
