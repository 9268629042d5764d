"""qubus benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload {enumerate,repeat,analysis} \\
        --seed N [--seconds S] --trace {0,1}

Run from the root of a checkout; qubus is imported from its ``src``.  With
``--trace 0`` the run times calls for ``S`` seconds (by default
``run_seconds`` of ``BENCHMARK.json``) and reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it makes a fixed
number of calls, untraced and then traced, and reports the per-layer metrics.
Every output is checked against ``oracle``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The same
object, with the call durations, and the spans of a traced run are written
to ``perfbench/results/``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy can be imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gzip
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
# Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def benchmark_spec() -> dict:
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def metric_specs(trace: bool) -> list[dict]:
    return benchmark_spec()["per_layer" if trace else "end_to_end"]


def measure_setup(name: str, seed: int) -> float:
    """Median over fresh processes of the time from before ``import qubus``
    to the first call's input being ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=workloads.ROOT,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr.strip()}")
        samples.append(float(probe.stdout.split()[-1]))
    return statistics.median(samples)


class Tally:
    """Attempted, failed and checked calls of one run."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, index: int, recorder: tracing.SpanRecorder | None = None):
        """One call on input ``index``, checked; returns (seconds, output),
        with ``output`` None when the call raised or its output failed the
        check.  Both count as failed; a wrong output also clears ``correct``."""
        data = self.workload.prepare(index)
        self.attempted += 1
        span = recorder.timed_call(index) if recorder else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                output = self.workload.call(data)
        except Exception as err:  # a failed call is counted and the run goes on
            elapsed = time.perf_counter() - start
            self.failed += 1
            print(f"call {index} failed: {type(err).__name__}: {err}", file=sys.stderr)
            return elapsed, None
        elapsed = time.perf_counter() - start
        try:
            self.workload.check(data, output)
        except Exception as err:  # a malformed output fails its check too
            self.failed += 1
            self.correct = False
            print(f"call {index} output is wrong: {type(err).__name__}: {err}", file=sys.stderr)
            return elapsed, None
        return elapsed, output

    def finish(self) -> None:
        """Checks over all the run's calls together, after the last one."""
        try:
            self.workload.finish()
        except Exception as err:
            self.correct = False
            print(f"run output is wrong: {type(err).__name__}: {err}", file=sys.stderr)


def timed_run(tally: Tally, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_s = measure_setup(name, seed)
    tally.run(0)  # warm-up
    durations = []
    completed = 0
    while sum(durations) < seconds:
        elapsed, output = tally.run(len(durations) + 1)
        durations.append(elapsed)
        completed += output is not None
    values = {
        "call_p50_ms": statistics.median(durations) * 1e3,
        "calls_per_s": completed / sum(durations),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"durations_s": durations}


def traced_run(tally: Tally, name: str, seed: int) -> tuple[dict, dict]:
    calls = tally.workload.traced_calls
    tally.run(0)  # warm-up
    recorder = tracing.SpanRecorder()
    plain, traced, counts = [], [], {}
    # Each input runs untraced and then traced, so drift in machine speed
    # shifts both sides of the overhead alike; the overhead is the median of
    # the per-input differences.
    for index in range(1, calls + 1):
        plain.append(tally.run(index)[0])
        with tracing.attached(recorder):
            elapsed, output = tally.run(index, recorder)
        traced.append(elapsed)
        if output is not None:
            for key, value in tally.workload.counts(output).items():
                counts[key] = counts.get(key, 0) + value
    values = {}
    for span_name, totals in recorder.layer_totals().items():
        values[f"{span_name}.calls"] = totals["calls"] / calls
        values[f"{span_name}.self_ms"] = totals["self_ns"] / 1e6 / calls
    for module_name, functions in tracing.TRACED.items():
        for fn_name in functions:
            values.setdefault(f"{module_name}.{fn_name}.calls", 0.0)
            values.setdefault(f"{module_name}.{fn_name}.self_ms", 0.0)
    branches = counts.get("protocol.branches", 0)
    examined = counts.get("search.examined", 0)
    values.update(
        {
            "perms.Permutation.constructions": recorder.constructions / calls,
            "states.amplitude_bytes": recorder.amplitude_bytes / calls,
            "protocol.branches": branches / calls,
            "protocol.success_ratio": counts.get("protocol.entangling", 0) / branches if branches else 0.0,
            "mappings.search_sets.hit_ratio": counts.get("search.hits", 0) / examined if examined else 0.0,
            "cli.output_bytes": counts.get("cli.output_bytes", 0) / calls,
            "trace.overhead_ms": statistics.median(t - p for t, p in zip(traced, plain)) * 1e3,
        }
    )
    spans_path = RESULTS / f"spans-{name}-seed{seed}.json.gz"
    with gzip.open(spans_path, "wt", encoding="utf-8") as handle:
        json.dump(recorder.export(), handle)
    return values, {"untraced_s": plain, "traced_s": traced, "spans": str(spans_path.relative_to(workloads.ROOT))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="timed length of a --trace 0 run (default: run_seconds of BENCHMARK.json); "
        "a --trace 1 run makes a fixed number of calls and ignores it",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        specs = metric_specs(bool(args.trace))
        seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
        workload = workloads.load(args.workload, args.seed)
        RESULTS.mkdir(exist_ok=True)
        tally = Tally(workload)
        if args.trace:
            values, detail = traced_run(tally, args.workload, args.seed)
        else:
            values, detail = timed_run(tally, args.workload, args.seed, seconds)
        tally.finish()
    except (OSError, RuntimeError, subprocess.SubprocessError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    missing = [spec["name"] for spec in specs if spec["name"] not in values]
    if missing:
        print(f"benchmark computed no value for {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs
        },
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, **detail)
    record["python"] = platform.python_version()
    record["numpy"] = sys.modules["numpy"].__version__
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
