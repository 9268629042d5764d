"""Tests for the command-line interface: records, exit codes, determinism."""

import json
import subprocess
import sys

from qubus.cli import main

RECORD_KEYS = [
    "direction",
    "spec",
    "input",
    "alice_outcomes",
    "bus_outcome",
    "correction",
    "target_gate",
    "fidelity",
    "probability",
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_default_sweep_emits_one_record_per_branch(capsys):
    code, out, err = run_cli(
        capsys, ["simulate", "--d", "2", "--alice", "q1,q3", "--bob", "q1,q3"]
    )
    assert code == 0
    assert err == ""
    lines = out.strip().split("\n")
    assert len(lines) == 64
    records = [json.loads(line) for line in lines]
    assert all(abs(record["fidelity"] - 1.0) <= 1e-12 for record in records)
    assert all(record["target_gate"] == "identity" for record in records)
    assert {record["input"] for record in records} == {f"basis:{k}" for k in range(4)}


def test_simulate_record_field_names(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--d", "2", "--alice", "q1,q3", "--bob", "q1,q3", "--input", "basis:0"],
    )
    assert code == 0
    record = json.loads(out.strip().split("\n")[0])
    assert list(record) == RECORD_KEYS
    assert list(record["correction"]) == ["permutation_cycles", "phase_powers"]
    assert record["spec"]["d"] == 2
    assert record["spec"]["m"] == 2
    assert record["spec"]["alice"] == [["", "(0,1)(2,3)"], ["", "(0,3)(1,2)"]]


def test_simulate_correction_table_for_local_spec(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--d", "2", "--alice", "q1,q3", "--bob", "q1,q3", "--input", "basis:0"],
    )
    assert code == 0
    corrections = {}
    for line in out.strip().split("\n"):
        record = json.loads(line)
        if record["alice_outcomes"] == [0, 0]:
            corrections[record["bus_outcome"]] = record["correction"]["permutation_cycles"]
    assert corrections == {0: "", 1: "(0,2)(1,3)", 2: "(0,3)(1,2)", 3: "(0,1)(2,3)"}


def test_simulate_output_is_byte_deterministic(capsys):
    argv = [
        "simulate",
        "--d",
        "2",
        "--alice",
        "r1,q2",
        "--bob",
        "r1,q2",
        "--policy",
        "sample",
        "--seed",
        "31",
        "--input",
        "random:4",
    ]
    code_a, out_a, _ = run_cli(capsys, argv)
    code_b, out_b, _ = run_cli(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_simulate_invalid_pair_exits_2(capsys):
    code, out, err = run_cli(
        capsys, ["simulate", "--d", "2", "--alice", "r1,r2", "--bob", "q1,q3"]
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"]["code"] == 2
    assert "invalid" in error["error"]["message"]


def test_simulate_teleport_forced_branch(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--direction",
            "teleport",
            "--d",
            "2",
            "--alice",
            "q1,q3",
            "--bob",
            "q2,q3",
            "--input",
            "basis:1",
            "--policy",
            "forced",
            "--alice-outcomes",
            "1,0",
            "--bus-outcome",
            "2",
        ],
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 1
    record = records[0]
    assert record["direction"] == "teleport"
    assert record["alice_outcomes"] == [1, 0]
    assert record["bus_outcome"] == 2
    assert record["target_gate"] == "cnot"
    assert abs(record["fidelity"] - 1.0) <= 1e-12


def test_simulate_explicit_amplitudes_and_pretty(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "simulate",
            "--d",
            "2",
            "--alice",
            "q1,q3",
            "--bob",
            "q1,q3",
            "--input",
            "0.6,0,0,0.8j",
            "--format",
            "pretty",
        ],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 16
    assert all("fidelity=1.000000000000" in line for line in lines)


def test_simulate_bad_input_spec_exits_2(capsys):
    code, _, err = run_cli(
        capsys,
        ["simulate", "--d", "2", "--alice", "q1,q3", "--bob", "q1,q3", "--input", "basis:9"],
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2


def test_matrix_json_matches_expected_table(capsys):
    code, out, _ = run_cli(capsys, ["matrix", "--d", "2", "--alice", "q1,q3", "--bob", "q2,q3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [[0, 3, 1, 2], [3, 0, 2, 1], [2, 1, 3, 0], [1, 2, 0, 3]]
    assert payload["kind"] == "entangling"
    assert payload["maximal"] is True
    assert payload["outcome_permutations"][0] == "(2,3)"


def test_matrix_pretty_uses_block_ruling(capsys):
    code, out, _ = run_cli(
        capsys,
        ["matrix", "--d", "2", "--alice", "q1,q3", "--bob", "q1,q3", "--format", "pretty"],
    )
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "λ0 λ3 | λ1 λ2"
    assert lines[2] == ""
    assert "kind: local" in out


def test_matrix_braced_slots_match_generator_shorthand(capsys):
    code_a, out_a, _ = run_cli(capsys, ["matrix", "--d", "3", "--alice", "y01,y10", "--bob", "y02,y20"])
    code_b, out_b, _ = run_cli(
        capsys,
        ["matrix", "--d", "3", "--alice", "{y01|y02},{y10|y20}", "--bob", "{y02|y01},{y20|y10}"],
    )
    assert code_a == code_b == 0
    assert json.loads(out_a)["entries"] == json.loads(out_b)["entries"]


def test_family_shorthand_matches_named_sets(capsys):
    code_a, out_a, _ = run_cli(capsys, ["matrix", "--d", "3", "--alice", "shift", "--bob", "shift:inverse"])
    code_b, out_b, _ = run_cli(capsys, ["matrix", "--d", "3", "--alice", "x1,x3", "--bob", "x8,x6"])
    assert code_a == code_b == 0
    assert json.loads(out_a)["entries"] == json.loads(out_b)["entries"]


def test_search_exits_3_when_budget_exceeded(capsys):
    code, out, _ = run_cli(
        capsys,
        ["search", "--d", "3", "--family", "hv_products", "--objective", "maximal", "--budget", "10"],
    )
    assert code == 3
    summary = json.loads(out.strip().split("\n")[-1])["summary"]
    assert summary["budget_exceeded"] is True
    assert summary["examined"] == 10


def test_search_reports_hits(capsys):
    code, out, _ = run_cli(
        capsys, ["search", "--d", "2", "--family", "pairwise+cyclic", "--objective", "local"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    summary = json.loads(lines[-1])["summary"]
    assert summary["hits"] == 18
    assert len(lines) == 19
    first = json.loads(lines[0])
    assert first["kind"] == "local"


def test_cvbus_point_json(capsys):
    code, out, _ = run_cli(capsys, ["cvbus", "--alpha", "100", "--epsilon", "1e-5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["d_max"] == 130
    assert payload["qubit_capacity"] == 7
    code, out, _ = run_cli(capsys, ["cvbus", "--alpha", "0.1", "--epsilon", "0.5"])
    payload = json.loads(out)
    assert payload["theta"] is None
    assert payload["d_max_real"] is None
    assert payload["d_max"] == 1
    assert payload["qubit_capacity"] == 0


def test_cvbus_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, ["cvbus", "--alphas", "5:15:5", "--epsilons", "1e-2,1e-3"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,epsilon,theta,d_max_real,d_max,qubit_capacity"
    assert len(lines) == 7
    assert lines[1].startswith("5,0.01,")


def test_cvbus_requires_exactly_one_mode(capsys):
    code, _, err = run_cli(capsys, ["cvbus", "--alpha", "5"])
    assert code == 2
    assert json.loads(err)["error"]["code"] == 2
    code, _, _ = run_cli(capsys, ["cvbus"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["cvbus", "--alpha", "5", "--alphas", "1,2"])
    assert code == 2


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"d": 2, "alice": "q1,q3", "bob": "q2,q3", "input": "basis:0"})
    )
    code, out, _ = run_cli(capsys, ["simulate", "--config", str(config)])
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert len(records) == 16
    assert all(record["target_gate"] == "cnot" for record in records)
    code, out, _ = run_cli(
        capsys, ["simulate", "--config", str(config), "--bob", "q1,q3"]
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().split("\n")]
    assert all(record["target_gate"] == "identity" for record in records)


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"d": 2, "bogus": True}))
    code, _, err = run_cli(
        capsys, ["simulate", "--config", str(config), "--alice", "q1,q3", "--bob", "q1,q3"]
    )
    assert code == 2
    assert "bogus" in json.loads(err)["error"]["message"]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys,
        ["cvbus", "--alphas", "5,10", "--epsilons", "1e-2", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("alpha,epsilon,")
    assert len(text.strip().split("\n")) == 3


def test_missing_required_parameter_exits_2(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--d", "2", "--alice", "q1,q3"])
    assert code == 2
    assert "bob" in json.loads(err)["error"]["message"]


def test_oversized_requests_exit_2_before_building(capsys):
    spec = ["--alice", "q1,q3", "--bob", "q1,q3"]
    hv = ["--alice", "hv", "--bob", "hv"]
    for argv, limit in (
        (["cvbus", "--alphas", "0:1e12:1e-3", "--epsilons", "1e-2"], "1048576"),
        (["cvbus", "--alphas", "0:1100:1", "--epsilons", "0:1000:1"], "1048576"),
        (["cvbus", "--alphas", "0:inf:1", "--epsilons", "1e-2"], "finite"),
        (["simulate", "--d", "2", "--m", "1000000000", *spec], "1024"),
        (["matrix", "--d", "33", "--m", "2", *spec], "1024"),
        (["search", "--d", "2", "--m", "1000000000", "--family", "shift_powers"], "1024"),
        (["simulate", "--direction", "teleport", "--d", "11", *hv], "1048576"),
    ):
        code, out, err = run_cli(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert limit in json.loads(err)["error"]["message"]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qubus.cli", "cvbus", "--alpha", "100", "--epsilon", "1e-5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d_max"] == 130
