"""Run every workload, untraced several times and then traced once.

    python3 perfbench/suite.py [--runs 3]

Each run is a separate ``perfbench/run.py`` process, with seeds 1..N,
and measures for ``run_seconds`` from ``BENCHMARK.json``; the traced run
uses seed 1.  Prints, per workload, every
end-to-end metric's median and quartiles with its unit, the error rate,
the traced run's per-layer metrics and self-time shares, and the
tracing overhead (traced ``wall_s`` minus the untraced median).  Writes
everything to ``perfbench/results/latest.json``.
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (END_TO_END, PER_LAYER,  # noqa: E402
                                 WORKLOADS)


def run_once(workload: str, seed: int, seconds: float,
             trace: bool) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("self_time_shares "):
            result["shares"] = json.loads(line.split(" ", 1)[1])
        if line.startswith("provenance "):
            result["provenance"] = json.loads(line.split(" ", 1)[1])
    return result


def spread(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    seconds = json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report: dict[str, dict] = {}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, False)
                for seed in range(1, args.runs + 1)]
        traced = run_once(workload, 1, seconds, True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {name: spread([r["metrics"][name]["value"]
                                 for r in runs])
                   for name in END_TO_END}
        overhead = (traced["metrics"]["trace.wall_s"]["value"]
                    - summary["wall_s"]["median"])
        report[workload] = {
            "end_to_end": summary, "error_rate": failed / attempted,
            "per_layer": {name: traced["metrics"][name]["value"]
                          for name in PER_LAYER},
            "self_time_shares": traced.get("shares", {}),
            "tracing_overhead_s": overhead,
            "provenance": [r["provenance"] for r in runs]
            + [traced["provenance"]],
        }
        print(f"== {workload}: {args.runs} runs, error_rate "
              f"{failed / attempted:.4f} ({failed}/{attempted})")
        for name, unit in END_TO_END.items():
            s = summary[name]
            print(f"  {name:16s} {s['median']:12.5g} {unit:5s} "
                  f"(q1 {s['q1']:.5g}, q3 {s['q3']:.5g})")
        print(f"  tracing overhead {overhead:+.3f} s on wall_s")
        for name, unit in PER_LAYER.items():
            print(f"  {name:28s} {report[workload]['per_layer'][name]:12.5g}"
                  f" {unit}")
        for name, share in traced.get("shares", {}).items():
            print(f"  share {name:24s} {100 * share:6.2f}%")
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / "latest.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
