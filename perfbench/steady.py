"""Steadiness report: run each workload several times and summarise.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--traced]

Each workload of ``BENCHMARK.json`` runs ``runs`` times, each time as
``run.py`` in its own process with seeds 1 to ``runs``.  For
every end-to-end metric the report gives the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread ``(q3 - q1) / median``,
against the metric's bound in ``BENCHMARK.json``; the target is a spread
below a third of the bound.  With ``--traced`` each workload also makes two
traced runs on seed 1 and the report lists every per-layer count (any unit
but ``ms``) that differs between them.  The report is also written to
``perfbench/results/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    report: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench_run(workload, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        entry: dict[str, object] = {
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "correct": all(r["correct"] for r in runs),
        }
        print(f"{workload}: {args.runs} runs, correct={entry['correct']}, "
              f"failed share {entry['failed_share']}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            stats = summarise(values)
            stats["values"] = values
            entry[metric["name"]] = stats
            verdict = "ok" if stats["spread"] < metric["bound"] / 3 else "WIDE"
            print(f"  {metric['name']:12s} median {stats['median']:12.4f} {metric['unit']:4s} "
                  f"q1 {stats['q1']:12.4f} q3 {stats['q3']:12.4f} spread {stats['spread']:.4f} "
                  f"bound {metric['bound']} {verdict}")
        if args.traced:
            first, second = (bench_run(workload, 1, args.seconds, 1) for _ in range(2))
            differ = [
                name for name, value in first["metrics"].items()
                if value["unit"] != "ms" and value["value"] != second["metrics"][name]["value"]
            ]
            entry["traced_counts_differ"] = differ
            print(f"  traced runs: per-layer counts differ on {differ or 'nothing'}")
        report[workload] = entry
    (HERE / "results").mkdir(exist_ok=True)
    out = HERE / "results" / "steady.json"
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
