"""Regenerate the expected-output digests the benchmark checks against.

    python3 perfbench/expected.py

* ``expected/grid.json`` — sha1 of every table over the benchmark's
  grid, rendered by the serial runner
  (:func:`repro.experiments.runner.run_tables`), not by the campaign
  under test.
* ``expected/serve.json`` — sha1 of the canonical JSON of every request
  ``serve_explore`` can send, computed in process by
  :func:`repro.service.ops.execute_op` on the normalised parameters.

Regenerate only after a change that is meant to alter outputs.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

WORK = ROOT / ".perfbench_work"


def grid_digests(cache_dir: Path) -> dict[str, str]:
    from repro.experiments.runner import run_tables
    from repro.pipeline.session import Session
    with workloads.restricted_grid():
        tables = run_tables(Session(workloads.SCALE, cache_dir=cache_dir),
                            echo=False)
    return {str(number): workloads.table_digest(table.render())
            for number, table in sorted(tables.items())}


def _program_digests(items: list[tuple]) -> dict[str, str]:
    """Worker: every request of one program, in a private store dir."""
    from repro.service import ops, protocol
    directory = WORK / f"expected-{multiprocessing.current_process().pid}"
    sources = workloads._Sources()
    result = {}
    with workloads.served_stores(directory):
        for item in items:
            item = workloads.Item(*item)
            line = json.dumps({"op": item.op, "params": item.params(
                sources.get(item.workload, item.input_name))})
            request = protocol.parse_request(line.encode())
            output = ops.execute_op(request.op, request.params)
            result[item.descriptor] = workloads.digest(
                json.loads(json.dumps(output)))
    shutil.rmtree(directory, ignore_errors=True)
    return result


def serve_digests() -> dict[str, str]:
    by_program: dict[tuple, list] = {}
    for item in workloads.all_items():
        key = (item.workload, item.input_name, item.optimize)
        by_program.setdefault(key, []).append(
            (item.workload, item.input_name, item.optimize, item.op,
             item.choice))
    tasks = list(by_program.values())
    context = multiprocessing.get_context("spawn")
    digests: dict[str, str] = {}
    with ProcessPoolExecutor(max_workers=os.cpu_count() or 1,
                             mp_context=context) as pool:
        for done, result in enumerate(pool.map(_program_digests, tasks)):
            digests.update(result)
            print(f"  serve: {done + 1}/{len(tasks)} programs",
                  flush=True)
    return dict(sorted(digests.items()))


def main() -> int:
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    cache_dir = WORK / "expected-grid"
    shutil.rmtree(cache_dir, ignore_errors=True)
    digests = grid_digests(cache_dir)
    shutil.rmtree(cache_dir, ignore_errors=True)
    (workloads.EXPECTED_DIR / "grid.json").write_text(
        json.dumps(digests, indent=1) + "\n")
    print(f"grid: {len(digests)} table digests")
    digests = serve_digests()
    (workloads.EXPECTED_DIR / "serve.json").write_text(
        json.dumps(digests, indent=1) + "\n")
    print(f"serve: {len(digests)} request digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
