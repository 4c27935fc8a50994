"""Redundant-load detection over memory traces.

*Redundant Loads: A Software Inefficiency Indicator* calls a dynamic
load **redundant** when the value it fetches is already available from
the most recent access to the same address:

* **reload** — the previous access to the address was a load: the
  value sits (logically) in a register already;
* **reload-after-store** — the previous access was a store: the value
  was just produced and forwarded through memory instead of a
  register (the "dead reload" shape compilers miss across aliasing or
  call boundaries).

Both are counted as redundant; ``reload_after_store`` is also broken
out on its own.  The first access to an address is never redundant,
stores reset nothing except becoming the new "previous access", and
prefetches are transparent (they neither consume nor produce the
value, so they neither make a later load redundant nor break a
reload chain).

Two independent implementations live here on purpose:

* :func:`analyze_redundancy` — the production analyzer: one streaming
  pass of a :class:`RedundancyFold`, which folds per-address state
  over :func:`repro.cache.model.chunk_columns`, so it accepts
  materialized traces and chunked streams bit-identically and never
  needs the whole trace in RAM (the fused scenario pass of
  :mod:`repro.scenario` taps the same fold).
* :func:`naive_redundancy` — the oracle's reference: for every load,
  scan *backwards* through the materialized rows for the previous
  access to that address.  Quadratic, obviously correct, and sharing
  no state-machine code with the analyzer — exactly what a
  differential oracle wants to diff against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.cache.model import TraceSource, chunk_columns
from repro.machine.trace import LOAD, PREFETCH, STORE, MemoryTrace

_LAST_LOAD = 0
_LAST_STORE = 1


@dataclass
class LoadRedundancy:
    """Redundancy counts for one load PC."""

    accesses: int = 0
    redundant: int = 0
    reload_after_store: int = 0

    @property
    def fresh(self) -> int:
        """Loads that actually had to touch memory for a new value."""
        return self.accesses - self.redundant

    @property
    def ratio(self) -> float:
        return self.redundant / self.accesses if self.accesses else 0.0


@dataclass
class RedundancyStats:
    """Per-PC redundancy for one trace."""

    loads: dict[int, LoadRedundancy] = field(default_factory=dict)

    @property
    def total_loads(self) -> int:
        return sum(load.accesses for load in self.loads.values())

    @property
    def total_redundant(self) -> int:
        return sum(load.redundant for load in self.loads.values())

    @property
    def total_reload_after_store(self) -> int:
        return sum(load.reload_after_store
                   for load in self.loads.values())

    @property
    def ratio(self) -> float:
        total = self.total_loads
        return self.total_redundant / total if total else 0.0

    def pcs_by_redundant(self) -> list[tuple[int, LoadRedundancy]]:
        """``(pc, counts)`` sorted most-redundant-first, then by PC."""
        return sorted(self.loads.items(),
                      key=lambda kv: (-kv[1].redundant, kv[0]))


class RedundancyFold:
    """Per-address last-access-kind state, folded chunk by chunk.

    :meth:`feed` wraps a column feed (see
    :func:`repro.cache.model.chunk_columns`) and passes every triple
    through unchanged after folding it, so one decoded chunk can serve
    further consumers; :meth:`result` reads the counts once the feed
    has been drained.
    """

    def __init__(self):
        self._last: dict[int, int] = {}
        self._accesses: dict[int, int] = {}
        self._redundant: dict[int, int] = {}
        self._after_store: dict[int, int] = {}

    def feed(self, columns: Iterable[tuple]) -> Iterator[tuple]:
        last = self._last
        accesses = self._accesses
        redundant = self._redundant
        after_store = self._after_store
        prefetch, store = PREFETCH, STORE
        last_load, last_store = _LAST_LOAD, _LAST_STORE
        for pcs, addresses, kinds in columns:
            for pc, address, kind in zip(pcs, addresses, kinds):
                if kind == prefetch:
                    continue
                if kind == store:
                    last[address] = last_store
                    continue
                accesses[pc] = accesses.get(pc, 0) + 1
                previous = last.get(address)
                if previous is not None:
                    redundant[pc] = redundant.get(pc, 0) + 1
                    if previous == last_store:
                        after_store[pc] = after_store.get(pc, 0) + 1
                last[address] = last_load
            yield pcs, addresses, kinds

    def result(self) -> RedundancyStats:
        loads = {pc: LoadRedundancy(
                     accesses=count,
                     redundant=self._redundant.get(pc, 0),
                     reload_after_store=self._after_store.get(pc, 0))
                 for pc, count in self._accesses.items()}
        return RedundancyStats(loads=loads)


def analyze_redundancy(source: TraceSource) -> RedundancyStats:
    """One streaming pass: a drained :class:`RedundancyFold`."""
    fold = RedundancyFold()
    for _ in fold.feed(chunk_columns(source)):
        pass
    return fold.result()


def naive_redundancy(trace: MemoryTrace) -> RedundancyStats:
    """Backward-scanning reference implementation (quadratic).

    For each load, walk backwards to the nearest earlier non-prefetch
    access of the same address and classify from its kind.  Use only
    on bounded traces (the fuzz oracle caps the row count).
    """
    pcs = trace.pcs
    addresses = trace.addresses
    kinds = trace.kinds
    stats = RedundancyStats()
    for index in range(len(pcs)):
        if kinds[index] != LOAD:
            continue
        pc = pcs[index]
        load = stats.loads.setdefault(pc, LoadRedundancy())
        load.accesses += 1
        address = addresses[index]
        for back in range(index - 1, -1, -1):
            if addresses[back] != address or kinds[back] == PREFETCH:
                continue
            load.redundant += 1
            if kinds[back] == STORE:
                load.reload_after_store += 1
            break
    return stats
