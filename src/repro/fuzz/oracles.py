"""The differential-oracle registry.

An oracle takes one :class:`~repro.fuzz.generators.FuzzCase` and runs
it through two or more implementations that are bit-identical by
contract, raising :class:`DivergenceError` on any mismatch:

``engines``
    closure vs. blocks machine execution — exit code, printed output,
    step count, block profile and byte-identical trace columns;
``replay``
    per-config :func:`~repro.cache.model.simulate_trace` vs. the
    single-pass :func:`~repro.cache.model.simulate_trace_multi` vs. the
    dispatching :func:`~repro.cache.stackdist.simulate_sweep` (cold and
    profile-served re-sweep) — full :class:`CacheStats` equality across
    LRU/FIFO/random geometries;
``streaming``
    chunked replay — in-memory chunking and a trace-store round-trip,
    cold and store-warmed — vs. the materialized path: CacheStats,
    rolling digests, stack-distance profiles and streamed execution
    must all be bit-identical;
``service``
    in-process :func:`repro.api.analyze_program` vs. the long-lived
    service path, canonical-JSON byte equality for both ``analyze``
    and the purely static ``classify``; and served ``simulate``,
    ``predict`` and ``tlb`` on up to three of the case's cache configs
    or TLB geometries vs. an in-process ``execute_op`` on the same
    normalized params;
``pipeline``
    a cold :class:`~repro.pipeline.session.Session` vs. a fresh session
    warmed from the first one's disk cache — stats, block profile and
    step counts must match exactly;
``analytic``
    the static analytic reuse-profile engine
    (:func:`repro.analytic.predict_profile`) vs. the measured sweep —
    exact access counts and tolerance-gated per-PC misses on sites the
    engine marks HIGH confidence, plus an honesty check that pointer
    chases surface LOW confidence instead of confident wrong numbers;
``tlb``
    the page-granular dTLB model (:mod:`repro.tlb`) — the sweep-served
    stats vs. a direct per-geometry replay, bit-identical across
    materialized / chunked / store-round-tripped inputs, and the PCAX
    predictor profile vs. a list-based reference over every input;
``redundancy``
    the streaming redundant-load analyzer (:mod:`repro.redundancy`)
    vs. a naive backward-scanning reference sharing no code with it,
    again across all trace input shapes;
``invariants``
    the single-implementation checkers from
    :mod:`repro.fuzz.invariants`.

Oracles are pure consumers: they never mutate the case, so a failing
case can be re-checked verbatim by the shrinker and the corpus replay.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.cache.config import CacheConfig
from repro.cache.model import CacheStats, simulate_trace, \
    simulate_trace_multi
from repro.cache.stackdist import ProfileStore, simulate_sweep
from repro.machine.simulator import run_program
from repro.machine.trace import MemoryTrace
from repro.scenario import (ScenarioSpec, decode_scenario,
                            encode_scenario, scenario_pass)


class DivergenceError(AssertionError):
    """Two implementations of one contract disagreed."""

    def __init__(self, oracle: str, message: str):
        self.oracle = oracle
        self.message = message
        super().__init__(f"[{oracle}] {message}")


class OracleContext:
    """Shared expensive resources for one fuzz run.

    The service oracle keeps one background server alive across cases;
    the pipeline oracle gets a private scratch directory per call.  Use
    as a context manager (or call :meth:`close`) so the server thread
    and scratch space are reclaimed.
    """

    def __init__(self):
        self._server = None
        self._client = None
        self._tmp: Optional[Path] = None

    # -- lifecycle ----------------------------------------------------
    def __enter__(self) -> "OracleContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None
        if self._server is not None:
            self._server.stop()
            self._server = None
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None

    # -- resources ----------------------------------------------------
    @property
    def client(self):
        """A connected client to the lazily started in-thread server."""
        if self._server is None:
            from repro.service.server import ServerConfig, serve_in_thread
            self._server = serve_in_thread(ServerConfig(
                port=0, workers=0, use_disk_cache=False))
        if self._client is None:
            from repro.service.client import ServiceClient
            self._client = ServiceClient(self._server.host,
                                         self._server.port, timeout=120.0)
        return self._client

    def scratch_dir(self) -> Path:
        """A fresh empty subdirectory of the run's scratch space."""
        if self._tmp is None:
            self._tmp = Path(tempfile.mkdtemp(prefix="repro-fuzz-"))
        return Path(tempfile.mkdtemp(dir=self._tmp))


#: Step budget for fuzz-generated programs: far above anything the
#: generators emit, so hitting it means an engine diverged into a loop.
MAX_STEPS = 20_000_000


def compile_case(case) -> "Program":  # noqa: F821 - doc only
    """MiniC or assembly source to a linked Program."""
    if case.kind == "minic":
        from repro.compiler.driver import compile_source
        return compile_source(case.source())
    if case.kind == "asm":
        from repro.asm.assembler import assemble
        return assemble(case.source())
    raise ValueError(f"{case.kind} cases have no program")


def case_trace(case) -> MemoryTrace:
    """The memory trace a case denotes (synthetic or by execution)."""
    if case.kind == "trace":
        return case.trace()
    result = run_program(compile_case(case), max_steps=MAX_STEPS,
                         engine="closures")
    return result.trace


def _diverge(oracle: str, what: str, a, b) -> None:
    raise DivergenceError(oracle, f"{what}: {a!r} != {b!r}")


def _require_equal(oracle: str, what: str, a, b) -> None:
    if a != b:
        _diverge(oracle, what, a, b)


# -- engines oracle ----------------------------------------------------

def _trace_bytes(trace: Optional[MemoryTrace]) -> tuple:
    if trace is None:
        return (None,)
    return (trace.pcs.tobytes(), trace.addresses.tobytes(),
            trace.kinds.tobytes())


def check_engines(case, ctx: OracleContext) -> None:
    """Closure engine vs. blocks engine on one program."""
    program = compile_case(case)
    reference = run_program(program, max_steps=MAX_STEPS,
                            engine="closures")
    candidate = run_program(program, max_steps=MAX_STEPS,
                            engine="blocks")
    name = "engines"
    _require_equal(name, "exit code", reference.exit_code,
                   candidate.exit_code)
    _require_equal(name, "output", reference.output, candidate.output)
    _require_equal(name, "steps", reference.steps, candidate.steps)
    _require_equal(name, "block counts", reference.block_counts,
                   candidate.block_counts)
    if _trace_bytes(reference.trace) != _trace_bytes(candidate.trace):
        ref, cand = reference.trace, candidate.trace
        if len(ref) != len(cand):
            _diverge(name, "trace length", len(ref), len(cand))
        for index, (a, b) in enumerate(zip(ref, cand)):
            if a != b:
                _diverge(name, f"trace row {index}", a, b)
        _diverge(name, "trace bytes", "reference", "candidate")


# -- cache-simulator oracle --------------------------------------------

def _stats_tuple(stats: CacheStats) -> tuple:
    return (stats.load_accesses, stats.load_misses,
            stats.store_accesses, stats.store_misses,
            stats.prefetch_ops, stats.prefetch_fills)


def _require_stats_equal(name: str, config: CacheConfig, what: str,
                         a: CacheStats, b: CacheStats) -> None:
    if _stats_tuple(a) != _stats_tuple(b):
        for fld in ("load_accesses", "load_misses", "store_accesses",
                    "store_misses", "prefetch_ops", "prefetch_fills"):
            va, vb = getattr(a, fld), getattr(b, fld)
            if va != vb:
                _diverge(name, f"{config.describe()} {what} {fld}",
                         va, vb)


def check_replay(case, ctx: OracleContext) -> None:
    """simulate_trace vs. simulate_trace_multi vs. simulate_sweep."""
    trace = case_trace(case)
    configs = case.cache_configs()
    name = "replay"
    singles = [simulate_trace(trace, config) for config in configs]
    multi = simulate_trace_multi(trace, configs)
    store = ProfileStore()
    swept = simulate_sweep(trace, configs, store=store)
    reswept = simulate_sweep(trace, configs, store=store)
    for config, single, batched, cold, warm in zip(
            configs, singles, multi, swept, reswept):
        _require_stats_equal(name, config, "multi-vs-single",
                             batched, single)
        _require_stats_equal(name, config, "sweep-vs-single",
                             cold, single)
        _require_stats_equal(name, config, "resweep-vs-single",
                             warm, single)


# -- streaming oracle --------------------------------------------------

def check_streaming(case, ctx: OracleContext) -> None:
    """Chunked replay — cold and store-warmed — vs. materialized.

    Verifies the whole out-of-core pipeline on one case: in-memory
    chunking at awkward chunk sizes, a store round-trip (byte-plane +
    zlib columns), the chunk-boundary-independent digest, the stack-distance
    profile pass, and (for program cases) streaming execution itself —
    all bit-identical to the materialized path.
    """
    trace = case_trace(case)
    configs = case.cache_configs()
    name = "streaming"
    singles = [simulate_trace(trace, config) for config in configs]

    for chunk_accesses in (7, 1024):
        stream = trace.chunk_stream(chunk_accesses)
        multi = simulate_trace_multi(stream, configs)
        for config, single, chunked in zip(configs, singles, multi):
            _require_stats_equal(name, config,
                                 f"chunk{chunk_accesses}-multi",
                                 chunked, single)
    _require_equal(name, "rolling digest",
                   trace.chunk_stream(13).digest, trace.digest())

    from repro.cache.stackdist import compute_groups
    from repro.store import TraceStore
    store = TraceStore(ctx.scratch_dir() / "traces")
    store.put_trace("case", trace, chunk_accesses=64)
    profile_store = ProfileStore()
    cold = simulate_sweep(store.open("case"), configs,
                          store=profile_store)
    warm = simulate_sweep(store.open("case"), configs,
                          store=profile_store)
    for config, single, a, b in zip(configs, singles, cold, warm):
        _require_stats_equal(name, config, "store-sweep", a, single)
        _require_stats_equal(name, config, "store-resweep", b, single)
    if configs:
        specs = [(configs[0].block_size, configs[0].num_sets, 8)]
        _require_equal(name, "stack-distance groups",
                       compute_groups(trace, specs),
                       compute_groups(store.open("case"), specs))

    if case.kind in ("minic", "asm"):
        from repro.machine.simulator import Machine
        program = compile_case(case)
        rebuilt = MemoryTrace()
        streamed = Machine(program, max_steps=MAX_STEPS).run_streaming(
            lambda c: rebuilt.extend(c.pcs, c.addresses, c.kinds),
            chunk_accesses=512)
        reference = run_program(program, max_steps=MAX_STEPS)
        _require_equal(name, "streamed steps", streamed.steps,
                       reference.steps)
        _require_equal(name, "streamed block counts",
                       streamed.block_counts, reference.block_counts)
        if _trace_bytes(rebuilt) != _trace_bytes(reference.trace):
            _diverge(name, "streamed trace bytes", "streamed",
                     "materialized")


# -- service oracle ----------------------------------------------------

def _cold_op(op: str, params: dict) -> dict:
    """``execute_op`` in process from an empty program memo.

    The reference side of the ``service`` oracle: with the in-thread
    server sharing this process's memo, a memo fault would otherwise
    reach the served and the local answer alike.
    """
    from repro.api import ProgramMemo
    from repro.service import ops
    from repro.service.protocol import normalize
    saved = ops._PROGRAMS
    ops._PROGRAMS = ProgramMemo(1)
    try:
        return ops.execute_op(op, normalize(op, params))
    finally:
        ops._PROGRAMS = saved


def check_service(case, ctx: OracleContext) -> None:
    """Served ops vs. the in-process pipeline.

    The served payloads must be canonical-JSON byte-equal to the
    in-process result, so the service provably adds nothing to the
    wire.  ``classify`` and ``tlb`` are sent again with
    ``optimize=True`` after the unoptimized requests, so the server
    answers them from a program memo that already holds the source.
    """
    from repro.api import analyze_program
    from repro.cache.model import cache_config_to_dict
    from repro.export import canonical_json, report_to_dict
    source = case.source()
    configs = [cache_config_to_dict(c) for c in case.cache_configs()[:3]]
    geometries = [g.to_dict() for g in case.tlb_configs()[:3]]
    requests = (
        ("analyze", {"source": source}),
        ("classify", {"source": source}),
        ("simulate", {"source": source, "configs": configs}),
        ("predict", {"source": source, "configs": configs}),
        ("tlb", {"source": source, "geometries": geometries}),
        # optimized, from a memo that already holds the source
        ("classify", {"source": source, "optimize": True}),
        ("tlb", {"source": source, "geometries": geometries,
                 "optimize": True}),
    )
    # first: starting the server binds the ops' stores that the
    # in-process execute_op calls below share
    client = ctx.client
    for op, params in requests:
        optimize = params.get("optimize", False)
        if op in ("analyze", "classify"):
            local = report_to_dict(analyze_program(
                source, optimize=optimize, execute=op == "analyze"))
        else:
            local = _cold_op(op, params)
        local = canonical_json(local)
        served = canonical_json(client.call(op, params))
        if served != local:
            what = f"{op} payload" + (" (optimize)" if optimize else "")
            _diverge("service", what, served[:400], local[:400])


# -- pipeline-cache oracle ---------------------------------------------

def check_pipeline(case, ctx: OracleContext) -> None:
    """Cold Session vs. a fresh Session warmed from its disk cache."""
    from repro.pipeline.session import Session
    source = case.source()
    config = case.cache_configs()[0]
    name = "pipeline"
    cache_dir = ctx.scratch_dir()

    cold = Session(cache_dir=cache_dir, max_steps=MAX_STEPS)
    key = cold.add_source("fuzzcase", source)
    cold_stats = cold.stats("fuzzcase", cache_config=config)
    cold_profile = cold.profile("fuzzcase")
    if not cold._results.path(cold._entry_key(key, config)).exists():
        raise DivergenceError(name, "cold session wrote no disk entry")

    warm = Session(cache_dir=cache_dir, max_steps=MAX_STEPS)
    warm.add_source("fuzzcase", source)
    warm_stats = warm.stats("fuzzcase", cache_config=config)
    warm_profile = warm.profile("fuzzcase")
    if warm._traces:
        raise DivergenceError(
            name, "warm session re-executed instead of loading the "
                  "disk entry")
    _require_equal(name, "load_misses", cold_stats.load_misses,
                   warm_stats.load_misses)
    _require_equal(name, "load_accesses", cold_stats.load_accesses,
                   warm_stats.load_accesses)
    _require_equal(name, "store_misses", cold_stats.store_misses,
                   warm_stats.store_misses)
    _require_equal(name, "store_accesses", cold_stats.store_accesses,
                   warm_stats.store_accesses)
    _require_equal(name, "prefetch",
                   (cold_stats.prefetch_ops, cold_stats.prefetch_fills),
                   (warm_stats.prefetch_ops, warm_stats.prefetch_fills))
    _require_equal(name, "block_counts", cold_profile.block_counts,
                   warm_profile.block_counts)
    _require_equal(name, "block_sizes", cold_profile.block_sizes,
                   warm_profile.block_sizes)
    _require_equal(name, "steps", cold._steps[key], warm._steps[key])


# -- analytic-prediction oracle ----------------------------------------

#: Per-PC miss-count tolerance for the analytic oracle: the engine's
#: documented error envelope on HIGH-confidence sites is ``max(10, 5%)``
#: of that site's accesses (continuation smear across loop boundaries
#: and the capacity step rule at its exact boundary; see
#: docs/architecture.md).  Access counts have no envelope — a
#: HIGH-confidence access count is a closed-form trip-count product and
#: must match the measured sweep exactly.
ANALYTIC_MISS_SLACK = 10.0
ANALYTIC_MISS_RELATIVE = 0.05

#: The envelope is stated for paper-scale geometries.  Below ~1 KB the
#: capacity step rule and the Poisson conflict model both break down
#: (a handful of blocks per cache), so sub-1KB configs are checked for
#: access counts and honesty only, not miss counts.
ANALYTIC_MIN_CACHE_BYTES = 1024


def check_analytic(case, ctx: OracleContext) -> None:
    """Analytic per-PC prediction vs. the measured sweep.

    The analytic engine is an approximation, so this oracle gates a
    documented error envelope rather than bit equality — but only where
    the engine *claims* accuracy.  On PCs it marks HIGH confidence,
    access counts must equal the measured sweep exactly and per-PC miss
    counts must fall within ``max(8, 5% of accesses)`` on every LRU
    geometry.  The honesty contract is absolute: every executed memory
    op must appear in the profile, and pointer-chase cases must surface
    at least one LOW-confidence load — a confidently wrong number is
    precisely the bug this oracle exists to catch.
    """
    from repro.analytic import HIGH, LOW, predict_profile
    name = "analytic"
    program = compile_case(case)
    trace = case_trace(case)
    configs = [config for config in case.cache_configs()
               if config.replacement == "lru"] or [CacheConfig()]
    measured = simulate_sweep(trace, configs)
    profiles: dict[int, object] = {}
    for config in configs:
        if config.block_size not in profiles:
            profiles[config.block_size] = predict_profile(
                program, block_size=config.block_size)

    for config, stats in zip(configs, measured):
        profile = profiles[config.block_size]
        predicted = profile.evaluate(config)
        sides = (("load", stats.load_accesses, stats.load_misses,
                  profile.loads, predicted.load_accesses,
                  predicted.load_misses),
                 ("store", stats.store_accesses, stats.store_misses,
                  profile.stores, predicted.store_accesses,
                  predicted.store_misses))
        for kind, meas_acc, meas_miss, preds, pred_acc, pred_miss \
                in sides:
            for pc, accesses in sorted(meas_acc.items()):
                pred = preds.get(pc)
                if pred is None:
                    _diverge(name,
                             f"{config.describe()} executed {kind} "
                             f"{pc:#x} absent from analytic profile",
                             accesses, None)
                if pred.confidence != HIGH:
                    continue        # envelope covers HIGH sites only
                _require_equal(
                    name,
                    f"{config.describe()} {kind} {pc:#x} accesses",
                    pred_acc.get(pc, 0), accesses)
                if config.size < ANALYTIC_MIN_CACHE_BYTES:
                    continue
                tolerance = max(ANALYTIC_MISS_SLACK,
                                ANALYTIC_MISS_RELATIVE * accesses)
                want = meas_miss.get(pc, 0)
                got = pred_miss.get(pc, 0)
                if abs(got - want) > tolerance:
                    _diverge(name,
                             f"{config.describe()} {kind} {pc:#x} "
                             f"misses (|err| > {tolerance:.0f} on "
                             f"{accesses} accesses)", got, want)

    if case.kind == "minic" and any(
            seg.get("op") == "chain"
            for seg in case.spec.get("segments", ())):
        profile = next(iter(profiles.values()))
        if not any(pred.confidence == LOW
                   for pred in profile.loads.values()):
            _diverge(name,
                     "pointer-chase case reported no LOW-confidence "
                     "load", "all loads confident", "expected LOW")


# -- tlb oracle --------------------------------------------------------

def check_tlb(case, ctx: OracleContext) -> None:
    """TLB sweep vs. direct replay, streamed vs. materialized.

    Every geometry's sweep-served page-granular stats must equal a
    direct per-config replay; the whole sweep must be bit-identical
    across materialized, in-memory-chunked and store-round-tripped
    inputs (cold and profile-store-warmed); and the PCAX profile must
    equal the list-based :func:`~repro.tlb.naive_pcax` reference over
    every input.  The one-pass leg: the scenario pass must reproduce
    the sweep and the PCAX reference over every input, and survive its
    payload round trip.
    """
    from repro.store import TraceStore
    from repro.tlb import naive_pcax, pcax_profile, simulate_tlb
    trace = case_trace(case)
    tlb_configs = case.tlb_configs()
    name = "tlb"

    profile_store = ProfileStore()
    swept = simulate_tlb(trace, tlb_configs, store=profile_store)
    for tlb_config, stats in zip(tlb_configs, swept):
        mapped = tlb_config.as_cache_config()
        direct = simulate_trace(trace, mapped)
        _require_stats_equal(name, mapped, "sweep-vs-direct",
                             stats.cache, direct)

    for chunk_accesses in (7, 1024):
        streamed = simulate_tlb(trace.chunk_stream(chunk_accesses),
                                tlb_configs)
        for tlb_config, a, b in zip(tlb_configs, swept, streamed):
            _require_stats_equal(name, tlb_config.as_cache_config(),
                                 f"chunk{chunk_accesses}-vs-"
                                 f"materialized", b.cache, a.cache)

    store = TraceStore(ctx.scratch_dir() / "traces")
    store.put_trace("case", trace, chunk_accesses=64)
    cold = simulate_tlb(store.open("case"), tlb_configs,
                        store=profile_store)
    warm = simulate_tlb(store.open("case"), tlb_configs,
                        store=profile_store)
    for tlb_config, reference, a, b in zip(tlb_configs, swept, cold,
                                           warm):
        mapped = tlb_config.as_cache_config()
        _require_stats_equal(name, mapped, "store-sweep", a.cache,
                             reference.cache)
        _require_stats_equal(name, mapped, "store-warmed-sweep",
                             b.cache, reference.cache)

    page_size = tlb_configs[0].page_size
    naive = naive_pcax(trace, page_size).loads
    for label, source in (("materialized", trace),
                          ("chunk7", trace.chunk_stream(7)),
                          ("store", store.open("case"))):
        _require_equal(name, f"pcax {label}-vs-naive",
                       pcax_profile(source, page_size=page_size).loads,
                       naive)

    spec = ScenarioSpec(tlb=tuple(tlb_configs), pcax_page_size=page_size)
    for label, result in _scenario_legs(trace, store, spec):
        for tlb_config, fused, reference in zip(tlb_configs, result.tlb,
                                                swept):
            mapped = tlb_config.as_cache_config()
            if label == "payload":   # the wire form drops prefetches
                _require_equal(name, f"one-pass {label} "
                               f"{mapped.describe()}",
                               _tlb_columns(fused), _tlb_columns(reference))
            else:
                _require_stats_equal(name, mapped, f"one-pass {label}",
                                     fused.cache, reference.cache)
        _require_equal(name, f"one-pass {label} pcax-vs-naive",
                       result.pcax.loads, naive)


def _scenario_legs(trace: MemoryTrace, store, spec):
    """``(label, ScenarioResult)`` of one scenario pass per trace input:
    materialized, chunked by 7, store-streamed, and the materialized
    result after an encode/JSON/decode round trip."""
    materialized = scenario_pass(trace, spec)
    yield "materialized", materialized
    yield "chunk7", scenario_pass(trace.chunk_stream(7), spec)
    yield "store", scenario_pass(store.open("case"), spec)
    payload = json.loads(json.dumps(encode_scenario(materialized)))
    yield "payload", decode_scenario(payload, spec)


def _tlb_columns(stats) -> tuple:
    return (stats.load_accesses, stats.load_misses,
            stats.store_accesses, stats.store_misses)


# -- redundancy oracle -------------------------------------------------

#: The naive reference scans backwards per load (quadratic); beyond
#: this many rows only the streamed-vs-materialized comparison runs.
NAIVE_REDUNDANCY_LIMIT = 100_000


def check_redundancy(case, ctx: OracleContext) -> None:
    """Streaming analyzer vs. the naive backward-scan reference.

    The production analyzer folds per-address state over chunk
    columns; the reference re-derives every load's classification by
    scanning backwards through the materialized rows.  Both must agree
    exactly, and the analyzer must not care whether its input is
    materialized, chunked small, or store-round-tripped — nor whether
    it runs alone or beside the other parts of the scenario pass.
    """
    from repro.redundancy import analyze_redundancy, naive_redundancy
    from repro.store import TraceStore
    trace = case_trace(case)
    name = "redundancy"
    stats = analyze_redundancy(trace)
    for chunk_accesses in (7, 1024):
        chunked = analyze_redundancy(trace.chunk_stream(chunk_accesses))
        _require_equal(name, f"chunk{chunk_accesses}-vs-materialized",
                       chunked.loads, stats.loads)
    store = TraceStore(ctx.scratch_dir() / "traces")
    store.put_trace("case", trace, chunk_accesses=64)
    stored = analyze_redundancy(store.open("case"))
    _require_equal(name, "store-vs-materialized", stored.loads,
                   stats.loads)
    spec = ScenarioSpec(tlb=tuple(case.tlb_configs()))
    for label, result in _scenario_legs(trace, store, spec):
        _require_equal(name, f"one-pass {label}",
                       result.redundancy.loads, stats.loads)
    if len(trace) <= NAIVE_REDUNDANCY_LIMIT:
        reference = naive_redundancy(trace)
        _require_equal(name, "analyzer-vs-naive", stats.loads,
                       reference.loads)


# -- invariants oracle -------------------------------------------------

def check_invariants(case, ctx: OracleContext) -> None:
    """Apply every applicable single-implementation invariant."""
    from repro.fuzz import invariants
    invariants.check_case(case)


# -- registry ----------------------------------------------------------

@dataclass(frozen=True)
class Oracle:
    name: str
    kinds: tuple[str, ...]          # applicable case kinds
    check: Callable[[object, OracleContext], None]
    description: str


ORACLES: dict[str, Oracle] = {
    oracle.name: oracle for oracle in (
        Oracle("engines", ("minic", "asm"), check_engines,
               "closures vs. blocks execution engines"),
        Oracle("replay", ("minic", "asm", "trace"), check_replay,
               "simulate_trace vs. simulate_trace_multi vs. "
               "simulate_sweep (cold + re-sweep)"),
        Oracle("streaming", ("minic", "asm", "trace"), check_streaming,
               "chunked/store-streamed replay vs. materialized "
               "(stats, digests, stack-distance profiles)"),
        Oracle("service", ("minic",), check_service,
               "in-process analyze/classify/simulate/predict/tlb vs. "
               "the served path"),
        Oracle("pipeline", ("minic",), check_pipeline,
               "cold Session vs. disk-cache-warmed Session"),
        Oracle("analytic", ("minic",), check_analytic,
               "analytic per-PC prediction vs. the measured sweep "
               "(tolerance-gated on HIGH sites, honesty on the rest)"),
        Oracle("tlb", ("minic", "asm", "trace"), check_tlb,
               "page-granular TLB sweep vs. direct replay, streamed "
               "vs. materialized vs. store-warmed, plus the PCAX "
               "predictor profile"),
        Oracle("redundancy", ("minic", "asm", "trace"),
               check_redundancy,
               "streaming redundant-load analyzer vs. the naive "
               "backward-scan reference, across trace inputs"),
        Oracle("invariants", ("minic", "asm", "trace"), check_invariants,
               "conservation/stability/monotonicity invariants"),
    )
}


def oracles_for(kind: str,
                names: Optional[Sequence[str]] = None) -> list[Oracle]:
    """The selected oracles applicable to one case kind."""
    if names is None:
        selected = list(ORACLES.values())
    else:
        unknown = [n for n in names if n not in ORACLES]
        if unknown:
            raise ValueError(
                f"unknown oracle(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(ORACLES))})")
        selected = [ORACLES[n] for n in names]
    return [oracle for oracle in selected if kind in oracle.kinds]
