"""Execution-engine benchmark: blocks vs closures trace generation.

Times full traced executions of the standard workload sweep under both
:class:`Machine` engines and records the speedups in
``BENCH_machine.json`` at the repository root, so the numbers ride with
the commit that produced them.  Every timed pair is also checked for
the engines' core contract — byte-identical trace columns and an
identical :class:`ExecutionResult` — so the benchmark doubles as an
end-to-end equivalence gate at realistic scale.

Environment knobs:

* ``REPRO_SCALE`` — workload size multiplier (default 0.1),
* ``REPRO_MACHINE_WORKLOADS`` — comma-separated workload names to
  restrict the sweep (CI uses a reduced sweep).
"""

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.compiler.driver import compile_source
from repro.machine.simulator import (ENGINE_BLOCKS, ENGINE_CLOSURES,
                                     Machine)
from repro.workloads.registry import get

SCALE = float(os.environ.get("REPRO_SCALE", "0.1"))
_DEFAULT_SWEEP = ("129.compress", "181.mcf", "099.go",
                  "164.gzip", "183.equake", "124.m88ksim")
SWEEP = tuple(
    name.strip()
    for name in os.environ.get("REPRO_MACHINE_WORKLOADS", "").split(",")
    if name.strip()) or _DEFAULT_SWEEP
ROUNDS = 3
REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_machine.json"

#: The acceptance gate: block compilation must at least halve trace
#: generation time over the sweep.
REQUIRED_SPEEDUP = 2.0

_results: dict = {}


def _flush() -> None:
    payload = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "scale": SCALE,
        "rounds": ROUNDS,
        "results": _results,
    }
    try:
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    except OSError:
        pass


def _timed_pair(program):
    """Best-of-rounds wall time for one traced execution under each
    engine, plus the blocks engine's round-1 time.

    A fresh Machine is built outside the timed region each round.  The
    blocks engine compiles a block's code on its first dispatch and
    keeps it on the program, so round 1 includes compiling the blocks
    the run reaches, and later rounds reuse that code and time
    execution alone.  Rounds interleave the engines so clock-speed
    drift on a busy host biases both sides equally instead of skewing
    the ratio."""
    best = {ENGINE_CLOSURES: float("inf"), ENGINE_BLOCKS: float("inf")}
    first_blocks_s = None
    outcome = {}
    for _ in range(ROUNDS):
        for engine in (ENGINE_CLOSURES, ENGINE_BLOCKS):
            machine = Machine(program, trace_memory=True, engine=engine)
            start = time.perf_counter()
            result = machine.run()
            elapsed = time.perf_counter() - start
            best[engine] = min(best[engine], elapsed)
            if engine == ENGINE_BLOCKS and first_blocks_s is None:
                first_blocks_s = elapsed
            outcome[engine] = (result, machine)
    return best, first_blocks_s, outcome


@pytest.fixture(scope="module")
def programs():
    return {name: compile_source(get(name).generate("input1",
                                                    scale=SCALE))
            for name in SWEEP}


def test_block_engine_speedup(programs):
    total_closures = total_blocks = 0.0
    per_workload = {}
    for name, program in programs.items():
        best, first_blocks_s, outcome = _timed_pair(program)
        closures_s = best[ENGINE_CLOSURES]
        blocks_s = best[ENGINE_BLOCKS]
        ref, ref_machine = outcome[ENGINE_CLOSURES]
        out, out_machine = outcome[ENGINE_BLOCKS]
        # The speedup only counts if the engines agree bit for bit.
        assert out_machine._block_engine is not None, \
            f"{name}: blocks engine fell back to closures"
        assert out.steps == ref.steps
        assert out.exit_code == ref.exit_code
        assert out.output == ref.output
        assert out.block_counts == ref.block_counts
        assert (out_machine.trace.pcs.tobytes()
                == ref_machine.trace.pcs.tobytes())
        assert (out_machine.trace.addresses.tobytes()
                == ref_machine.trace.addresses.tobytes())
        assert (out_machine.trace.kinds.tobytes()
                == ref_machine.trace.kinds.tobytes())
        total_closures += closures_s
        total_blocks += blocks_s
        per_workload[name] = {
            "steps": ref.steps,
            "accesses": len(ref_machine.trace),
            "closures_s": round(closures_s, 4),
            "blocks_s": round(blocks_s, 4),
            # Unguarded: round 1 pays the lazy compile of the blocks
            # the run reaches, which the best-of-rounds time hides.
            "blocks_first_run_s": round(first_blocks_s, 4),
            "speedup": round(closures_s / blocks_s, 2),
        }
    aggregate = total_closures / total_blocks
    _results["trace_generation"] = {
        "workloads": per_workload,
        "closures_total_s": round(total_closures, 4),
        "blocks_total_s": round(total_blocks, 4),
        "aggregate_speedup": round(aggregate, 2),
    }
    _flush()
    assert aggregate >= REQUIRED_SPEEDUP, (
        f"blocks engine {aggregate:.2f}x < {REQUIRED_SPEEDUP}x "
        f"over {', '.join(SWEEP)}")
