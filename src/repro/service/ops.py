"""The compute behind the scheduled operations.

These functions are deliberately **pure and picklable** (module-level,
plain-dict in / plain-dict out) so the scheduler can run them unchanged
on a thread or in a persistent worker process.  ``analyze`` and
``classify`` return exactly :func:`repro.export.report_to_dict` of the
equivalent in-process :func:`repro.api.analyze_program` call — the wire
schema *is* the export schema, so batch files and served responses are
interchangeable.

Every op takes its program from :data:`_PROGRAMS`, the process's
bounded memo of compiled programs and their load infos, so a worker
compiles and analyses a program once however many ops it serves on it
(and one request compiles at most once).  Traces and results are not
memoized here: they stay in the trace store and the result tier.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.api import ProgramMemo, analyze_program
from repro.cache.config import CacheConfig
from repro.cache.model import stats_to_row
from repro.cache.stackdist import ProfileStore, simulate_sweep
from repro.export import report_to_dict
from repro.heuristic.classes import Weights
from repro.pipeline.session import default_cache_dir
from repro.store.handle import TraceHandle
from repro.store.tracestore import TraceStore, trace_key

# Both stores are read at call time: the server rebinds them from its
# ``cache_dir`` / ``use_disk_cache`` config before its pool forks.

#: Stack-distance profiles for the ``simulate`` op, sharing the
#: pipeline/service warm directory: a re-sweep of a known program with
#: new LRU geometries is answered from histograms, not a trace replay.
_PROFILE_STORE = ProfileStore(disk_dir=default_cache_dir() / "stackdist")

#: Chunked trace store shared with the pipeline session (same content
#: keys): a request for a known program skips execution entirely and
#: streams the stored trace; a cold request streams its execution into
#: the store, so the server never holds a whole trace per request.
#: None (``serve --no-disk-cache``): every trace is materialized.
_TRACE_STORE: Optional[TraceStore] = TraceStore(default_cache_dir()
                                                / "traces")

#: Compiled programs and their load infos, keyed by (source, optimize),
#: for the life of the process: a pool worker lives for one server, and
#: the server empties this memo when it starts, before its pool forks.
#: Eight programs cover a client exploring a handful of programs at
#: both optimization levels.
_PROGRAMS = ProgramMemo(8)


def run_analysis(params: dict[str, Any]) -> dict[str, Any]:
    """``analyze`` / ``classify``: the full pipeline, export schema out.

    ``params`` must be normalized (see ``protocol.normalize``);
    ``execute=False`` is the purely static ``classify`` configuration.
    """
    report = analyze_program(
        params["source"],
        optimize=params["optimize"],
        execute=params["execute"],
        cache=CacheConfig(**params["cache"]),
        weights=Weights.from_dict(params["weights"]),
        delta=params["delta"],
        max_steps=params["max_steps"],
        store=_TRACE_STORE,
        programs=_PROGRAMS,
    )
    return report_to_dict(report)


def _trace(params: dict[str, Any]) -> TraceHandle:
    """The request's trace handle over the shared trace store."""
    return TraceHandle(
        _PROGRAMS.program(params["source"], params["optimize"]),
        trace_key(params["source"], params["optimize"],
                  params["max_steps"]),
        _TRACE_STORE, params["max_steps"])


def run_simulate(params: dict[str, Any]) -> dict[str, Any]:
    """``simulate``: at most one execution ever, streamed replays.

    Routes through the dispatching sweep engine
    (:func:`repro.cache.stackdist.simulate_sweep`): a request for N
    configs costs at most one trace pass, and LRU geometry sweeps
    collapse to one pass per set mapping with the per-PC distance
    profile cached on disk.  The
    trace itself comes from a :class:`~repro.store.handle.TraceHandle`
    (chunked trace store, one execution ever).
    """
    configs = [CacheConfig(**entry) for entry in params["configs"]]
    handle = _trace(params)
    sweep = handle.replay(
        lambda source: simulate_sweep(source, configs,
                                      store=_PROFILE_STORE))
    response = {
        "steps": handle.steps,
        "num_loads": handle.program.num_loads(),
        # Full per-PC store and prefetch columns: a client can
        # rebuild a complete CacheStats from this response.
        "results": [stats_to_row(stats) for stats in sweep],
    }
    # The block profile lets a client reconstruct the
    # BlockProfile (hotspot loads, exec counts) without executing.
    if handle.block_counts:
        response["block_counts"] = {str(a): int(c) for a, c in
                                    handle.block_counts.items()}
    return response


def run_predict(params: dict[str, Any]) -> dict[str, Any]:
    """``predict``: per-PC misses for every config, zero executions.

    Serves LRU geometries from the analytic reuse profile (cached in
    the profile store's ``an-`` keyspace, keyed by program content).
    When static coverage is below the confidence threshold — pointer
    chasing, unresolved trip counts — the request degrades to the
    measured ``simulate`` path unless ``fallback`` is off, in which
    case the low-coverage prediction is returned as-is with its
    confidence reported.  Either way the per-config result rows mirror
    ``simulate``'s schema, plus the analytic provenance fields.
    """
    from repro.analytic import analytic_answer, program_digest

    program = _PROGRAMS.program(params["source"], params["optimize"])
    configs = [CacheConfig(**entry) for entry in params["configs"]]
    answer = analytic_answer(
        program, program_digest(params["source"], params["optimize"]),
        configs, _PROFILE_STORE)
    if not answer.confident and params["fallback"]:
        response = run_simulate(params)
        response["analytic"] = False
        response["coverage"] = answer.coverage
        return response
    return {
        "steps": 0,                       # no machine execution
        "num_loads": program.num_loads(),
        "results": [stats_to_row(stats, loads_only=True)
                    for stats in answer.evaluate(configs)],
        "analytic": True,
        "coverage": answer.coverage,
        "low_confidence_pcs": {
            f"{pc:#x}": list(reasons)
            for pc, reasons in sorted(answer.low_confidence_pcs.items())},
    }


def _delinquent_set(params: dict[str, Any],
                    handle: TraceHandle) -> set[int]:
    """The heuristic's delinquent set for one traced workload.

    Exec counts and hotspots come from the block profile the trace
    handle guarantees (stored meta or the execution itself), so the set
    is identical on cold and store-warmed paths.
    """
    from repro.heuristic.classifier import DelinquencyClassifier
    from repro.profiling.profile import BlockProfile
    load_infos = _PROGRAMS.load_infos(params["source"], params["optimize"])
    exec_counts = None
    hotspots = None
    if handle.block_counts:
        profile = BlockProfile.from_block_counts(handle.program,
                                                 handle.block_counts)
        exec_counts = profile.load_exec_counts()
        hotspots = profile.hotspot_loads()
    classifier = DelinquencyClassifier()
    return classifier.classify(load_infos, exec_counts,
                               hotspots).delinquent_set


def run_tlb(params: dict[str, Any]) -> dict[str, Any]:
    """``tlb``: per-geometry dTLB stats plus the PCAX cross-tab.

    One scenario pass over the stored (or freshly streamed) trace
    replays the geometries and runs the PCAX predictor at the first
    geometry's page size in the same row loop.  A page size with more
    geometries than set mappings is instead swept from the per-PC
    distance histograms, which persist beside the cache sweeps', and
    the predictor then runs in a pass of its own.  PCAX-friendly loads
    are cross-tabulated against the paper's delinquent set.
    """
    from repro.scenario import (ScenarioSpec, encode_pcax, encode_tlb,
                                scenario_pass)
    from repro.tlb import TlbConfig, pcax_crosstab
    configs = tuple(TlbConfig(**entry) for entry in params["geometries"])
    spec = ScenarioSpec(tlb=configs, pcax_page_size=configs[0].page_size,
                        threshold=params["threshold"], redundancy=False)
    handle = _trace(params)
    result = handle.replay(
        lambda source: scenario_pass(source, spec, store=_PROFILE_STORE))
    profile = result.pcax
    friendly = profile.friendly_set()
    delinquent = _delinquent_set(params, handle)
    universe = set(profile.loads)
    return {
        "steps": handle.steps,
        "num_loads": handle.program.num_loads(),
        "results": [encode_tlb(stats) for stats in result.tlb],
        "pcax": {
            **encode_pcax(profile),
            "friendly": [f"{pc:#x}" for pc in sorted(friendly)],
            "delinquent": [f"{pc:#x}" for pc in sorted(delinquent)],
            "crosstab": pcax_crosstab(friendly, delinquent, universe),
        },
    }


def run_redundancy(params: dict[str, Any]) -> dict[str, Any]:
    """``redundancy``: per-PC redundant-load counts plus AG cross-tab.

    One streaming pass over the stored (or freshly streamed) trace;
    the AG-class attribution uses the same exec counts the heuristic
    sees, so the cross-tab matches what the tables print.
    """
    from repro.profiling.profile import BlockProfile
    from repro.redundancy import ag_crosstab, analyze_redundancy
    from repro.scenario import encode_redundancy
    handle = _trace(params)
    stats = handle.replay(analyze_redundancy)
    load_infos = _PROGRAMS.load_infos(params["source"], params["optimize"])
    load_exec: dict[int, int] = {}
    if handle.block_counts:
        profile = BlockProfile.from_block_counts(handle.program,
                                                 handle.block_counts)
        load_exec = profile.load_exec_counts()
    return {
        "steps": handle.steps,
        "num_loads": handle.program.num_loads(),
        **encode_redundancy(stats),
        "classes": ag_crosstab(stats, load_infos, load_exec),
    }


def run_sleep(params: dict[str, Any]) -> dict[str, Any]:
    """Diagnostic op: hold a worker slot for ``seconds``."""
    time.sleep(params["seconds"])
    return {"slept": params["seconds"]}


def execute_op(op: str, params: dict[str, Any]) -> dict[str, Any]:
    """Run one scheduled op on normalized params (see ``protocol.OPS``).

    The single picklable entry point used by the worker pool, and the
    CLI's in-process path, so local and served answers are identical.
    """
    from repro.service.protocol import OPS
    return OPS[op].compute(params)
