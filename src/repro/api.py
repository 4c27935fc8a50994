"""High-level convenience API.

``analyze_program`` runs the whole pipeline on one MiniC source string:
compile, statically classify every load, optionally execute under a cache
model, and report precision/coverage — the one-call version of what the
table experiments do per benchmark.  The trace comes from the same
:class:`~repro.store.handle.TraceHandle` the pipeline session and the
service use, and the coverage from the same sweep engine.

:class:`ProgramMemo` is the static front end (compile, then address
patterns) kept per process: a long-lived caller such as a service
worker passes one to ``analyze_program`` so that a program it has seen
is not compiled or analysed again, and every pipeline
:class:`~repro.pipeline.session.Session` owns an unbounded one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.asm.program import Program
from repro.cache.config import BASELINE_CONFIG, CacheConfig
from repro.cache.lru import BoundedCache
from repro.cache.model import CacheStats
from repro.cache.stackdist import simulate_sweep
from repro.compiler.driver import compile_source
from repro.heuristic.classes import DEFAULT_DELTA, PAPER_WEIGHTS, Weights
from repro.heuristic.classifier import DelinquencyClassifier, \
    HeuristicResult
from repro.machine.simulator import ExecutionResult
from repro.metrics.measures import coverage, precision
from repro.patterns.builder import LoadInfo, build_load_infos
from repro.profiling.profile import BlockProfile
from repro.store.handle import TraceHandle
from repro.store.tracestore import TraceStore, trace_key


class ProgramMemo:
    """Compiled programs and their load infos, keyed by (source, optimize).

    Holds at most ``capacity`` programs, least recently used evicted
    first; ``None`` keeps every one (a pipeline session's memo).  A
    program's default :func:`build_load_infos` result is built
    on first request and kept beside it.  A source that does not compile
    raises on every call: failures are never kept.  Programs and load
    infos are not mutated after they are built (the block engine's code
    kept on ``Program._block_code`` is meant to be shared), so every
    caller may share one entry.  Not thread-safe: a service worker
    computes one op at a time.
    """

    def __init__(self, capacity: Optional[int]):
        self._entries = BoundedCache(capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def _key(self, source: str, optimize: bool) -> tuple:
        return (source, optimize)

    def _entry(self, source: str, optimize: bool) -> list:
        """``[program, load_infos or None]``, compiled on a miss."""
        key = self._key(source, optimize)
        entry = self._entries.get(key)
        if entry is None:
            entry = [compile_source(source, optimize=optimize), None]
            self._entries.put(key, entry)
        return entry

    def program(self, source: str, optimize: bool) -> Program:
        return self._entry(source, optimize)[0]

    def load_infos(self, source: str,
                   optimize: bool) -> dict[int, LoadInfo]:
        entry = self._entry(source, optimize)
        if entry[1] is None:
            entry[1] = build_load_infos(entry[0])
        return entry[1]

    def clear(self) -> None:
        self._entries.clear()


@dataclass
class AnalysisReport:
    """Outcome of :func:`analyze_program`."""

    program: Program
    load_infos: dict[int, LoadInfo]
    heuristic: HeuristicResult
    execution: Optional[ExecutionResult] = None
    cache_stats: Optional[CacheStats] = None
    profile: Optional[BlockProfile] = None

    @property
    def delinquent_loads(self) -> set[int]:
        return self.heuristic.delinquent_set

    @property
    def pi(self) -> float:
        return precision(self.delinquent_loads, self.program.num_loads())

    @property
    def rho(self) -> Optional[float]:
        if self.cache_stats is None:
            return None
        return coverage(self.delinquent_loads,
                        self.cache_stats.load_misses)

    def describe_load(self, address: int) -> str:
        """Human-readable summary of one load's classification.

        Raises :class:`ValueError` when ``address`` is not one of the
        program's load instructions.
        """
        info = self.load_infos.get(address)
        if info is None:
            valid = ", ".join(f"{a:#x}"
                              for a in sorted(self.load_infos))
            raise ValueError(
                f"{address:#x} is not a load address; "
                f"valid load addresses: {valid or '(none)'}")
        classified = self.heuristic.loads[address]
        lines = [
            f"load at {address:#x} in {info.function}: "
            f"{info.instruction.text()}",
            f"  phi = {classified.score:.2f} "
            f"({'possibly delinquent' if classified.is_delinquent else 'not delinquent'})",
            f"  classes: {', '.join(sorted(classified.classes)) or '(none)'}",
        ]
        for pattern in info.patterns:
            lines.append(f"  pattern: {pattern}")
        if self.cache_stats is not None:
            misses = self.cache_stats.load_misses.get(address, 0)
            accesses = self.cache_stats.load_accesses.get(address, 0)
            lines.append(f"  observed: {misses} misses / "
                         f"{accesses} accesses")
        return "\n".join(lines)


def analyze_program(source: str, *,
                    optimize: bool = False,
                    execute: bool = True,
                    cache: CacheConfig = BASELINE_CONFIG,
                    weights: Weights = PAPER_WEIGHTS,
                    delta: float = DEFAULT_DELTA,
                    use_frequency: Optional[bool] = None,
                    max_steps: int = 300_000_000,
                    store: Optional[TraceStore] = None,
                    programs: Optional[ProgramMemo] = None
                    ) -> AnalysisReport:
    """Compile and analyze one MiniC program.

    With ``execute=True`` (default) the program runs under the cache
    model, enabling coverage (rho) and the frequency classes AG8/AG9;
    with ``execute=False`` the classification is purely static (the
    paper's "without AG8 and AG9" configuration).

    ``store`` is a deployment setting: the trace store to read and fill
    (the service passes its shared one).  With a store, a program traced
    before executes nothing, and ``execution.trace`` is None unless the
    trace had to be materialized; without one (the default) the trace
    is materialized.  ``programs`` is one too: the memo to take the
    compiled program and its load infos from (the service passes its
    per-worker one); without it (the default) every call compiles.
    """
    if programs is None:
        program = compile_source(source, optimize=optimize)
        load_infos = build_load_infos(program)
    else:
        program = programs.program(source, optimize)
        load_infos = programs.load_infos(source, optimize)

    execution: Optional[ExecutionResult] = None
    cache_stats: Optional[CacheStats] = None
    profile: Optional[BlockProfile] = None
    exec_counts = None
    hotspots = None
    if execute:
        handle = TraceHandle(program,
                             trace_key(source, optimize, max_steps),
                             store, max_steps)
        cache_stats = handle.replay(
            lambda trace: simulate_sweep(trace, [cache]))[0]
        execution = handle.execution()
        profile = BlockProfile.from_block_counts(program,
                                                 handle.block_counts)
        exec_counts = profile.load_exec_counts()
        hotspots = profile.hotspot_loads()

    if use_frequency is None:
        use_frequency = execute
    classifier = DelinquencyClassifier(weights=weights, delta=delta,
                                       use_frequency=use_frequency)
    heuristic = classifier.classify(load_infos, exec_counts, hotspots)
    return AnalysisReport(
        program=program,
        load_infos=load_infos,
        heuristic=heuristic,
        execution=execution,
        cache_stats=cache_stats,
        profile=profile,
    )
