"""One workload's trace, acquired store-first and replayed many ways.

Every consumer of an access trace goes through a :class:`TraceHandle`:
the pipeline :class:`~repro.pipeline.session.Session`, the service's
``simulate`` / ``tlb`` / ``redundancy`` ops and
:func:`repro.api.analyze_program`.  The acquisition order is fixed:

* a store hit streams the stored chunks and takes the execution facts
  (block counts, steps, exit code, output) from the meta sidecar, so
  nothing executes;
* a miss streams the execution into the store, so the next handle for
  the same content key is a hit;
* with no store, or when the store cannot publish the entry (a full
  disk at ``close``), the trace is materialized in memory;
* :meth:`TraceHandle.replay` drops an entry that fails to decode
  mid-stream and re-executes materialized, once.

Either way the handle ends up with the same facts, so callers see
identical profiles and step counts on cold and store-warm paths.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from repro.asm.program import Program
from repro.cache.model import TraceSource
from repro.machine.simulator import ExecutionResult, Machine
from repro.machine.trace import MemoryTrace
from repro.store.tracestore import TraceStore, TraceStoreCorrupt

T = TypeVar("T")


class TraceHandle:
    """The trace of ``program`` under content key ``key``."""

    def __init__(self, program: Program, key: str,
                 store: Optional[TraceStore] = None,
                 max_steps: int = 300_000_000):
        self.program = program
        self.key = key
        self.store = store
        self.max_steps = max_steps
        #: The materialized trace; None while the trace is streamed.
        self.trace: Optional[MemoryTrace] = None
        self.steps = 0
        self.exit_code = 0
        self.output: list[int] = []
        self.block_counts: dict[int, int] = {}
        self._source: Optional[TraceSource] = None

    def source(self) -> TraceSource:
        """The cheapest replayable source; acquires on first call."""
        if self._source is None:
            self._source = self._acquire()
        return self._source

    def replay(self, compute: Callable[[TraceSource], T]) -> T:
        """``compute(source)``, re-executing once if the entry is corrupt."""
        try:
            return compute(self.source())
        except TraceStoreCorrupt:
            self.store.delete(self.key)
            self._source = self._materialize()
            return compute(self._source)

    def execution(self) -> ExecutionResult:
        """The run's facts; ``trace`` is set only when materialized."""
        self.source()
        return ExecutionResult(steps=self.steps, exit_code=self.exit_code,
                               block_counts=dict(self.block_counts),
                               trace=self.trace, output=list(self.output))

    # -- acquisition -------------------------------------------------
    def _acquire(self) -> TraceSource:
        if self.store is not None:
            stream = self.store.open(self.key)
            meta = self.store.meta(self.key) if stream is not None \
                else None
            if meta is not None:
                self.steps = int(meta["steps"])
                self.exit_code = int(meta["exit_code"])
                self.output = [int(value) for value in meta["output"]]
                self.block_counts = {int(a): int(c) for a, c
                                     in meta["block_counts"].items()}
                return stream
            stream = self._stream_into_store()
            if stream is not None:
                return stream
        return self._materialize()

    def _machine(self) -> Machine:
        return Machine(self.program, trace_memory=True,
                       max_steps=self.max_steps)

    def _adopt(self, result: ExecutionResult) -> None:
        self.steps = result.steps
        self.exit_code = result.exit_code
        self.output = list(result.output)
        self.block_counts = dict(result.block_counts)

    def _stream_into_store(self) -> Optional[TraceSource]:
        """Execute into a store entry; None if it could not be published."""
        try:
            writer = self.store.writer(self.key)
        except OSError:
            return None
        try:
            result = self._machine().run_streaming(writer)
        except BaseException:
            writer.abort()
            raise
        self._adopt(result)
        try:
            writer.close(block_counts=result.block_counts,
                         steps=result.steps,
                         exit_code=result.exit_code,
                         output=result.output)
        except OSError:
            self.store.delete(self.key)
            return None
        return self.store.open(self.key)

    def _materialize(self) -> MemoryTrace:
        result = self._machine().run()
        self._adopt(result)
        self.trace = result.trace
        return result.trace
