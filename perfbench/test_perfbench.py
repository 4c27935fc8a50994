"""The benchmark's own tests (``python3 -m pytest perfbench -q``).

Each workload runs once, smoke-sized (one round) and traced; the tests
check the metrics it reports, the spans it records, and that it leaves
the repository's own cache alone.  About a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench_run  # noqa: E402
from perfbench import tracer, workloads  # noqa: E402

WORK = ROOT / ".perfbench_work" / "tests"

#: Wrapped callable -> the workload whose traced run must record it
#: (the layer table in perfbench/README.md).
EXPECTED_SPANS = {
    "repro.compiler.driver.compile_source": "serve_explore",
    "repro.patterns.builder.build_load_infos": "serve_explore",
    "repro.heuristic.classifier.DelinquencyClassifier.classify":
        "serve_explore",
    "repro.machine.simulator.Machine.__init__": "grid_cold",
    "repro.machine.simulator.Machine.run": "serve_explore",
    "repro.machine.simulator.Machine.run_streaming": "grid_cold",
    "repro.store.tracestore.TraceStoreWriter.__call__": "grid_cold",
    "repro.store.tracestore.TraceStoreWriter.close": "grid_cold",
    "repro.store.tracestore.TraceStore.open": "grid_replay",
    "repro.machine.trace.ChunkStream.__iter__": "grid_replay",
    "repro.cache.stackdist.simulate_sweep": "grid_replay",
    "repro.cache.model.simulate_trace_multi": "grid_replay",
    "repro.cache.model.simulate_trace": "serve_explore",
    "repro.cache.stackdist.ProfileStore.get": "grid_replay",
    "repro.cache.stackdist.ProfileStore.get_analytic": "serve_explore",
    "repro.analytic.engine.predict_profile": "grid_cold",
    "repro.tlb.model.simulate_tlb": "grid_replay",
    "repro.tlb.pcax.pcax_profile": "grid_replay",
    "repro.redundancy.analyzer.analyze_redundancy": "grid_replay",
    "repro.pipeline.session.Session.stats_multi": "grid_cold",
    "repro.campaign.engine.Campaign.run": "grid_cold",
    "repro.api.analyze_program": "serve_explore",
    "repro.service.ops.execute_op": "serve_explore",
}

#: Wrapped but legitimately silent on a healthy run: the store deletes
#: an entry only when it fails to decode.
FALLBACK_ONLY = {"repro.store.tracestore.TraceStore.delete"}


def _cache_snapshot() -> list[tuple[str, int, int]]:
    root = ROOT / ".repro_cache"
    if not root.exists():
        return []
    return sorted((str(path.relative_to(root)), path.stat().st_size,
                   path.stat().st_mtime_ns)
                  for path in root.rglob("*") if path.is_file())


@pytest.fixture(scope="module")
def traced():
    """One traced smoke round of every workload, plus cache snapshots."""
    before = _cache_snapshot()
    runs = {}
    for name in workloads.WORKLOADS:
        run = workloads.run_workload(name, seed=7, seconds=0, trace=True,
                                     work_dir=WORK / name, min_rounds=1)
        run.layers = run.per_layer()
        runs[name] = run
    shutil.rmtree(WORK, ignore_errors=True)
    return runs, before, _cache_snapshot()


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench_run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric(traced, name):
    run = traced[0][name]
    assert run.attempted > 0 and run.failed == 0, run.failures
    end_to_end = run.end_to_end()
    assert set(end_to_end) == set(bench_run.END_TO_END)
    assert all(value > 0 for value in end_to_end.values()), end_to_end
    assert set(run.layers) == set(bench_run.PER_LAYER)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_layer_spans_cover_the_wall(traced, name):
    assert traced[0][name].layers["trace.coverage"] >= 0.95


def test_every_wrapped_function_records_a_span(traced):
    runs = traced[0]
    recorded = {name: {span["fn"] for span in run.spans}
                for name, run in runs.items()}
    wrapped = {site for run in runs.values()
               for site in run.tracer.sites} - FALLBACK_ONLY
    wrapped.discard("repro.experiments.runner.EXPERIMENTS")
    assert wrapped == set(EXPECTED_SPANS)
    missing = [fn for fn, workload in EXPECTED_SPANS.items()
               if fn not in recorded[workload]]
    assert not missing
    tables = {span["ref"] for span in runs["grid_replay"].spans
              if span["name"] == "experiments.table"}
    assert tables == {f"table:{n:02d}" for n in range(1, 18)}


def test_replay_grid_runs_no_executions(traced):
    layers = traced[0]["grid_replay"].layers
    assert layers["machine.steps"] == 0
    assert layers["store.bytes_written"] == 0
    assert layers["store.open_hits"] > 0


def test_runs_leave_the_repository_cache_unchanged(traced):
    _, before, after = traced
    assert before == after


@pytest.mark.parametrize("name", ["grid_cold", "serve_explore"])
def test_corrupted_digest_fails_every_output(name):
    kind = "grid" if name.startswith("grid") else "serve"
    corrupted = {key: "0" * 40
                 for key in workloads.load_expected(kind)}
    run = workloads.run_workload(name, seed=3, seconds=0, trace=False,
                                 work_dir=WORK / f"corrupt-{name}",
                                 min_rounds=1, expected=corrupted)
    shutil.rmtree(WORK, ignore_errors=True)
    assert run.attempted > 0
    assert run.error_rate() == 1.0


def test_failed_campaign_counts_its_tables_as_attempted(monkeypatch):
    from repro.campaign.engine import Campaign

    def broken(self, **kwargs):
        raise RuntimeError("broken on purpose")
    monkeypatch.setattr(Campaign, "run", broken)
    expected = workloads.load_expected("grid")
    run = workloads.Run("grid_cold", None)
    run.attempted = len(expected)       # a clean round before this one
    with workloads.restricted_grid():
        workloads._grid_round(WORK / "broken", 0.0, 1, expected, run)
    shutil.rmtree(WORK, ignore_errors=True)
    assert run.failed == len(expected)
    assert run.error_rate() == 0.5


def test_fails_without_the_program_sources():
    checkout = WORK / "bare"
    shutil.rmtree(checkout, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", checkout / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=180)
    shutil.rmtree(WORK, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_union_and_self_time():
    spans = [
        {"id": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "b", "parent": "a", "start": 1.0, "end": 4.0},
        {"id": "c", "parent": "a", "start": 3.0, "end": 6.0},
    ]
    assert tracer.union_length([(1, 4), (3, 6), (8, 9)]) == 6
    assert tracer.self_times(spans) == {"a": 5.0, "b": 3.0, "c": 3.0}
