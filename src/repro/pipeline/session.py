"""End-to-end experiment pipeline.

A :class:`Session` memoizes the expensive stages so the fourteen table
experiments can share work:

* **compile** and **analyze** — (workload, input, optimize) -> Program
  and its static address patterns, both taken from one unbounded
  :class:`~repro.api.ProgramMemo` the session owns (the memo the
  service and :func:`~repro.api.analyze_program` use too); a program
  rewritten with prefetches, when the run key names a prefetch set, is
  kept beside it;
* **execute** — instruction-level run producing the run's facts (step
  and block-entry counts) and the memory trace, acquired through a
  :class:`~repro.store.handle.TraceHandle` (expensive; a trace-store hit
  executes nothing, and materialized traces are held in a small LRU
  because they dominate memory).  The facts are kept as counts, read
  from a result row or the handle; the :class:`BlockProfile` is built
  from them, compiling the program, only when :meth:`Session.profile`
  first asks, so a warm rerun compiles nothing;
* **cache-simulate** — trace x cache-config -> per-load miss counts
  (moderately expensive; results are also persisted through a
  :class:`~repro.store.tier.JsonTier` keyed by a content hash, so
  re-running a bench suite skips simulation entirely);
* **scenario** — the run's dTLB, PCAX and redundancy results from one
  fused pass over the trace (:mod:`repro.scenario`), persisted the same
  way in a second tier.

The disk tiers are also how sessions in different processes share
work: a campaign worker's session publishes each cell it computes, and
the parent's session reads it back as a disk hit (see
:mod:`repro.campaign.engine`).
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection, Optional, Sequence, TypeVar

from repro.api import ProgramMemo
from repro.asm.program import Program
from repro.cache.config import (BASELINE_CONFIG, TRAINING_CONFIG,
                                CacheConfig)
from repro.cache.lru import BoundedCache
from repro.cache.model import (CacheStats, TraceSource, stats_from_row,
                               stats_to_row)
from repro.cache.stackdist import ProfileStore, simulate_sweep
from repro.patterns.builder import LoadInfo
from repro.profiling.profile import BlockProfile
from repro.scenario import (ScenarioResult, ScenarioSpec,
                            decode_scenario, encode_scenario,
                            scenario_pass)
from repro.store.handle import TraceHandle
from repro.store.tier import PIPELINE, SCENARIO, JsonTier
from repro.store.tracestore import TraceStore, trace_key
from repro.workloads.base import Workload
from repro.workloads.registry import get as get_workload

_SCHEMA_VERSION = 5
_TRACE_LRU = 2

T = TypeVar("T")


def default_cache_dir() -> Path:
    """The shared on-disk result cache (``<repo>/.repro_cache``).

    Shared by :class:`Session`'s simulation cache and the service's
    result tier, so one warm directory serves both the bench suite and
    a long-lived server.
    """
    return Path(__file__).resolve().parents[3] / ".repro_cache"


def _resolve_jobs(jobs: Optional[int]) -> int:
    """Worker-count knob: explicit argument > $REPRO_JOBS > CPU count.

    Raises ``ValueError`` naming the variable when ``$REPRO_JOBS`` is
    set to something other than an integer.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        try:
            jobs = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, not "
                             f"{env!r}") from None
    return max(1, jobs)


@dataclass(frozen=True)
class RunKey:
    workload: str
    input_name: str
    optimize: bool
    #: The load PCs :func:`~repro.prefetch.pass_.apply_prefetching`
    #: prefetches in the compiled program; empty: no rewrite.
    prefetch: frozenset[int] = frozenset()


@dataclass
class Measurement:
    """Everything the experiments need for one (run, cache) pair."""

    key: RunKey
    cache_config: CacheConfig
    program: Program
    load_infos: dict[int, LoadInfo]
    profile: BlockProfile
    load_misses: dict[int, int]
    load_exec: dict[int, int]
    steps: int

    @property
    def num_loads(self) -> int:
        return self.program.num_loads()

    @property
    def total_load_misses(self) -> int:
        return sum(self.load_misses.values())


class Session:
    """Shared pipeline state for a set of experiments."""

    def __init__(self, scale: float = 1.0,
                 cache_dir: Optional[Path] = None,
                 use_disk_cache: bool = True,
                 max_steps: int = 300_000_000):
        self.scale = scale
        self.max_steps = max_steps
        self.use_disk_cache = use_disk_cache
        self.cache_dir = Path(cache_dir) if cache_dir is not None \
            else default_cache_dir()
        self._sources: dict[tuple[str, str], str] = {}
        self._programs = ProgramMemo(None)
        # Prefetch-rewritten runs: (program, what the pass inserted).
        self._rewritten: dict[RunKey, tuple[Program, str]] = {}
        # A run's facts, kept as read; its profile is built on request.
        self._steps: dict[RunKey, int] = {}
        self._block_counts: dict[RunKey, dict[int, int]] = {}
        self._profiles: dict[RunKey, BlockProfile] = {}
        self._traces: OrderedDict = OrderedDict()
        # Per-(run, config) stats: every one stays in memory, and each
        # is persisted as the simulate row plus the run's block counts
        # and steps, so a disk hit restores the run's facts too.
        self._results = JsonTier(
            PIPELINE, _SCHEMA_VERSION,
            self.cache_dir if use_disk_cache else None,
            BoundedCache(None))
        # Per-(run, scenario spec) results of the fused scenario pass.
        self._scenarios = JsonTier(
            SCENARIO, _SCHEMA_VERSION,
            self.cache_dir / "scenario" if use_disk_cache else None,
            BoundedCache(None))
        # Stack-distance profiles (see cache.stackdist) share the
        # session's cache directory so warmed sweeps survive restarts.
        self._profile_store = ProfileStore(
            disk_dir=(self.cache_dir / "stackdist")
            if use_disk_cache else None)
        # The chunked trace store (see repro.store): executions stream
        # their access trace straight to disk, replays stream it back,
        # so a workload is executed at most once per content key and no
        # whole trace needs to fit in RAM.
        self._trace_store = TraceStore(self.cache_dir / "traces") \
            if use_disk_cache else None

    # -- stages ------------------------------------------------------
    def add_source(self, workload: str, source: str,
                   input_name: str = "input1") -> RunKey:
        """Register literal MiniC text as a synthetic workload.

        Lets callers outside the workload registry (the fuzz harness,
        ad-hoc experiments) drive the full memoized pipeline — compile,
        execute, cache-simulate, disk cache — on arbitrary sources.
        The disk-cache digest hashes the source text itself, so
        synthetic entries can never collide with registry workloads.
        """
        self._sources[(workload, input_name)] = source
        return RunKey(workload, input_name, False)

    def source(self, workload: str, input_name: str = "input1") -> str:
        key = (workload, input_name)
        if key not in self._sources:
            definition: Workload = get_workload(workload)
            self._sources[key] = definition.generate(input_name,
                                                     scale=self.scale)
        return self._sources[key]

    def program(self, workload: str, input_name: str = "input1",
                optimize: bool = False,
                prefetch: Collection[int] = frozenset()) -> Program:
        """The compiled program, with a ``pref`` before each load in
        ``prefetch`` (see :func:`~repro.prefetch.pass_.apply_prefetching`)."""
        return self._program(RunKey(workload, input_name, optimize,
                                    frozenset(prefetch)))

    def _program(self, key: RunKey) -> Program:
        if not key.prefetch:
            return self._programs.program(
                self.source(key.workload, key.input_name), key.optimize)
        return self._rewritten_run(key)[0]

    def _rewritten_run(self, key: RunKey) -> tuple[Program, str]:
        """The rewritten program and the instructions the prefetch pass
        inserted, as the run's trace key hashes them."""
        if key not in self._rewritten:
            from repro.prefetch.pass_ import apply_prefetching
            base = (key.workload, key.input_name, key.optimize)
            rewrite = apply_prefetching(
                self.program(*base), set(key.prefetch),
                self.load_infos(*base))
            program = rewrite.program
            kept = set(rewrite.address_map.values())
            self._rewritten[key] = (program, "prefetch " + ",".join(
                f"{address:x} {instr.text()}"
                for index, instr in enumerate(program.instructions)
                if (address := program.address_of(index)) not in kept))
        return self._rewritten[key]

    def load_infos(self, workload: str, input_name: str = "input1",
                   optimize: bool = False) -> dict[int, LoadInfo]:
        return self._programs.load_infos(
            self.source(workload, input_name), optimize)

    def _trace_key(self, key: RunKey) -> str:
        rewrite = self._rewritten_run(key)[1] if key.prefetch else ""
        return trace_key(self.source(key.workload, key.input_name),
                         key.optimize, self.max_steps, rewrite)

    def _replay(self, key: RunKey,
                compute: Callable[[TraceSource], T]) -> T:
        """``compute`` over the run's trace, via one :class:`TraceHandle`.

        A handle holding a materialized trace is reused from the
        two-entry LRU; otherwise a fresh handle acquires the trace
        store-first (see :mod:`repro.store.handle`).  The handle's
        execution facts become the run's step and block counts.
        """
        handle = self._traces.get(key)
        if handle is None:
            handle = TraceHandle(self._program(key), self._trace_key(key),
                                 self._trace_store, self.max_steps)
        else:
            self._traces.move_to_end(key)
        result = handle.replay(compute)
        self._adopt(key, handle.steps, handle.block_counts)
        if handle.trace is not None:
            self._traces[key] = handle
            while len(self._traces) > _TRACE_LRU:
                self._traces.popitem(last=False)
        return result

    def _facts(self, key: RunKey) -> None:
        """Read or acquire the run's step and block counts, once."""
        if key not in self._steps:
            self._lookup(key, BASELINE_CONFIG)   # a disk hit adopts them
        if key not in self._steps:
            self._replay(key, lambda source: None)   # acquire only

    def profile(self, workload: str, input_name: str = "input1",
                optimize: bool = False,
                prefetch: Collection[int] = frozenset()) -> BlockProfile:
        key = RunKey(workload, input_name, optimize, frozenset(prefetch))
        if key not in self._profiles:
            self._facts(key)
            self._profiles[key] = BlockProfile.from_block_counts(
                self._program(key), self._block_counts[key])
        return self._profiles[key]

    def steps(self, workload: str, input_name: str = "input1",
              optimize: bool = False,
              prefetch: Collection[int] = frozenset()) -> int:
        """The run's executed instruction count."""
        key = RunKey(workload, input_name, optimize, frozenset(prefetch))
        self._facts(key)
        return self._steps[key]

    def stats_multi(self, workload: str, input_name: str = "input1",
                    optimize: bool = False,
                    configs: Sequence[CacheConfig] = (BASELINE_CONFIG,),
                    prefetch: Collection[int] = frozenset()
                    ) -> list[CacheStats]:
        """Per-config stats, simulating every uncached config in ONE
        pass over the trace: LRU geometry sweeps go through the
        stack-distance engine (see :func:`simulate_sweep`), everything
        else through the single-pass multi-config replay."""
        key = RunKey(workload, input_name, optimize, frozenset(prefetch))
        found: dict[CacheConfig, CacheStats] = {}
        missing: list[CacheConfig] = []
        for config in dict.fromkeys(configs):
            stats = self._lookup(key, config)
            if stats is None:
                missing.append(config)
            else:
                found[config] = stats
        if missing:
            stats_list = self._replay(
                key, lambda source: simulate_sweep(
                    source, missing, store=self._profile_store))
            for config, stats in zip(missing, stats_list):
                self._put(key, config, stats)
                found[config] = stats
        return [found[config] for config in configs]

    def stats(self, workload: str, input_name: str = "input1",
              optimize: bool = False,
              cache_config: CacheConfig = BASELINE_CONFIG,
              prefetch: Collection[int] = frozenset()) -> CacheStats:
        return self.stats_multi(workload, input_name, optimize,
                                (cache_config,), prefetch)[0]

    # -- scenario families (TLB, PCAX, redundancy) --------------------
    def scenario(self, workload: str, input_name: str = "input1",
                 optimize: bool = False,
                 spec: ScenarioSpec = ScenarioSpec()) -> ScenarioResult:
        """The run's dTLB stats, PCAX profile and redundancy counts.

        A tier hit, or one fused pass over the trace
        (:func:`repro.scenario.scenario_pass`) whose result is kept.
        """
        key = RunKey(workload, input_name, optimize)
        result = self._scenario_lookup(key, spec)
        if result is None:
            result = self._replay(
                key, lambda source: scenario_pass(source, spec))
            self._scenarios.put(self._scenario_key(key, spec), result,
                                encode_scenario(result))
        return result

    def _scenario_digest(self, key: RunKey, spec: ScenarioSpec) -> str:
        """Content hash of one run's scenario pass under ``spec``."""
        text = "|".join((str(_SCHEMA_VERSION), self._trace_key(key),
                         spec.describe()))
        return hashlib.sha1(text.encode()).hexdigest()

    def _scenario_key(self, key: RunKey, spec: ScenarioSpec) -> str:
        safe = key.workload.replace(".", "_")
        return f"{safe}-{self._scenario_digest(key, spec)}"

    def _scenario_lookup(self, key: RunKey, spec: ScenarioSpec
                         ) -> Optional[ScenarioResult]:
        return self._scenarios.get(
            self._scenario_key(key, spec),
            lambda entry: decode_scenario(entry, spec))[0]

    # -- analytic (trace-free) prediction -----------------------------
    def _program_digest(self, key: RunKey) -> str:
        from repro.analytic import program_digest
        return program_digest(self.source(key.workload, key.input_name),
                              key.optimize)

    def analytic_profile(self, workload: str, input_name: str = "input1",
                         optimize: bool = False, block_size: int = 32):
        """Predicted reuse profile, cached in the profile store's
        analytic keyspace (memory tier + ``an-`` disk entries)."""
        from repro.analytic.engine import cached_profile
        key = RunKey(workload, input_name, optimize)
        return cached_profile(self.program(workload, input_name, optimize),
                              self._program_digest(key), block_size,
                              self._profile_store)

    def predict_stats(self, workload: str, input_name: str = "input1",
                      optimize: bool = False,
                      configs: Sequence[CacheConfig] = (BASELINE_CONFIG,),
                      fallback: bool = True) -> "Prediction":
        """Per-config stats predicted without executing the workload.

        Every LRU geometry is answered from one analytic profile per
        block size.  When the program's static coverage is below the
        confidence threshold (pointer chasing, unresolved trip counts)
        — or a config's policy is not LRU — the whole request degrades
        to the measured :meth:`stats_multi` path (``fallback=True``,
        the default) or is answered anyway with ``analytic=True`` and
        the low coverage reported (``fallback=False``).
        """
        from repro.analytic import analytic_answer
        configs = list(configs)
        key = RunKey(workload, input_name, optimize)
        answer = analytic_answer(
            self.program(workload, input_name, optimize),
            self._program_digest(key), configs, self._profile_store)
        measured = not answer.confident and fallback
        stats = self.stats_multi(workload, input_name, optimize,
                                 configs) if measured \
            else answer.evaluate(configs)
        return Prediction(stats=list(stats), analytic=not measured,
                          coverage=answer.coverage,
                          low_confidence_pcs=answer.low_confidence_pcs)

    def measurement(self, workload: str, input_name: str = "input1",
                    optimize: bool = False,
                    cache_config: CacheConfig = BASELINE_CONFIG
                    ) -> Measurement:
        key = RunKey(workload, input_name, optimize)
        stats = self.stats(workload, input_name, optimize, cache_config)
        profile = self.profile(workload, input_name, optimize)
        return Measurement(
            key=key,
            cache_config=cache_config,
            program=self._program(key),
            load_infos=self.load_infos(workload, input_name, optimize),
            profile=profile,
            load_misses=dict(stats.load_misses),
            load_exec=profile.load_exec_counts(),
            steps=self._steps[key],
        )

    # -- the result tier -----------------------------------------------
    def _digest(self, key: RunKey, config: CacheConfig) -> str:
        # The run's trace key hashes everything that determines the
        # run (code, source, optimize, step budget, rewrite), so the
        # row only adds the cache geometry.
        text = "|".join((str(_SCHEMA_VERSION), self._trace_key(key),
                         config.describe()))
        return hashlib.sha1(text.encode()).hexdigest()

    def _entry_key(self, key: RunKey, config: CacheConfig) -> str:
        safe = key.workload.replace(".", "_")
        return f"{safe}-{self._digest(key, config)}"

    def _adopt(self, key: RunKey, steps: int,
               block_counts: dict[int, int]) -> None:
        """Record the run's execution facts, once."""
        if key not in self._steps:
            self._steps[key] = steps
            self._block_counts[key] = block_counts

    def _lookup(self, key: RunKey,
                config: CacheConfig) -> Optional[CacheStats]:
        def decode(entry: dict) -> CacheStats:
            stats = stats_from_row(entry, config)
            steps = int(entry["steps"])
            block_counts = {int(a): int(c) for a, c in
                            entry["block_counts"].items()}
            self._adopt(key, steps, block_counts)
            return stats

        return self._results.get(self._entry_key(key, config),
                                 decode)[0]

    def _put(self, key: RunKey, config: CacheConfig,
             stats: CacheStats) -> None:
        entry = stats_to_row(stats)
        entry["steps"] = self._steps[key]
        entry["block_counts"] = {str(a): c for a, c in
                                 self._block_counts[key].items()}
        self._results.put(self._entry_key(key, config), stats, entry)


@dataclass
class Prediction:
    """Result of :meth:`Session.predict_stats`."""

    stats: list[CacheStats]
    analytic: bool                 # False: served by the measured sweep
    coverage: float                # access-weighted HIGH-confidence share
    low_confidence_pcs: dict[int, tuple]
