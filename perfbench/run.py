"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid_cold --seed 1 --seconds 20 \\
        --trace 0

Prints the provenance stamp and every metric by name and unit, then, as
the last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Everything it writes stays under
``.perfbench_work/`` in the checkout and is removed when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no src/repro under {ROOT}; run from a checkout")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from perfbench.workloads import END_TO_END, PER_LAYER  # noqa: E402

def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    load_before = os.getloadavg()
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = workloads.run_workload(args.workload, args.seed,
                                     args.seconds, bool(args.trace),
                                     work_dir)
        if args.trace:
            values, units = run.per_layer(), PER_LAYER
        else:
            values, units = run.end_to_end(), END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):   # still in use by another run
            work_dir.parent.rmdir()
    load_after = os.getloadavg()

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": cpus, "jobs": run.jobs, "scale": workloads.SCALE,
        "rounds": len(run.rounds),
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
        "loaded_host": load_before[0] > cpus,
        "python": platform.python_version(),
        "revision": git_revision(),
    }
    print("provenance " + json.dumps(provenance))
    if provenance["loaded_host"]:
        print(f"WARNING: load average {load_before[0]:.2f} exceeded "
              f"nproc {cpus} when the run started")
    for message in run.failures:
        print(f"failure: {message}")
    print(f"error_rate {run.error_rate():.4f} "
          f"({run.failed}/{run.attempted})")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    if args.trace:
        print("self_time_shares " + json.dumps(
            {name: round(share, 4) for name, share in run.shares.items()}))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
