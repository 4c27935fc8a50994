"""Experiment-engine benchmarks.

Times the single-pass multi-configuration replay against N serial
:func:`simulate_trace` calls, and records the measured speedup in
``BENCH_engine.json`` at the repository root so the number rides with
the commit that produced it.

The multi-config speedup comes from sharing the trace decode, kind
dispatch, block division and per-PC access counting across configs —
it is expected on any machine.  Parallel fan-out is measured where it
lives: the campaign engine (``BENCH_campaign.json``) and ``perfbench``.
"""

import json
import os
import platform
import time
from pathlib import Path

import pytest

from repro.cache.config import (BASELINE_CONFIG, TRAINING_CONFIG,
                                associativity_sweep, size_sweep)
from repro.cache.model import simulate_trace, simulate_trace_multi
from repro.compiler.driver import compile_source
from repro.machine.simulator import Machine
from repro.workloads.registry import get

WORKLOAD = "129.compress"
SCALE = float(os.environ.get("REPRO_SCALE", "0.15"))
REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_PATH = REPO_ROOT / "BENCH_engine.json"

#: The shapes the table suite actually sweeps.
CONFIGS = list(dict.fromkeys(
    [BASELINE_CONFIG, TRAINING_CONFIG]
    + associativity_sweep() + size_sweep()))

_results: dict = {}


def _flush() -> None:
    payload = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "scale": SCALE,
        "results": _results,
    }
    try:
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    except OSError:
        pass


def _best(fn, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def trace():
    source = get(WORKLOAD).generate("input1", scale=SCALE)
    return Machine(compile_source(source)).run().trace


def test_multi_config_replay_speedup(trace):
    serial = _best(lambda: [simulate_trace(trace, config)
                            for config in CONFIGS])
    multi = _best(lambda: simulate_trace_multi(trace, CONFIGS))
    speedup = serial / multi
    _results["multi_config_replay"] = {
        "configs": len(CONFIGS),
        "accesses": len(trace),
        "serial_s": round(serial, 4),
        "multi_s": round(multi, 4),
        "speedup": round(speedup, 2),
    }
    _flush()
    # "measurably faster": well clear of timer noise, far below the
    # ~2x actually measured, so the gate never flakes.
    assert speedup > 1.2
