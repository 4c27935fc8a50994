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

:func:`analyze_redundancy` is the production analyzer: the redundancy
part of the scenario pass (:mod:`repro.scenario`), which steps
per-address last-access state over the chunk columns, so it
accepts materialized traces and chunked streams bit-identically and
never needs the whole trace in RAM.  :func:`naive_redundancy` is the
fuzz oracle's reference: for every load, scan *backwards* through the
materialized rows for the previous access to that address.  Quadratic,
obviously correct, and sharing no state-machine code with the pass —
exactly what a differential oracle wants to diff against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.model import TraceSource
from repro.machine.trace import LOAD, PREFETCH, STORE, MemoryTrace


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


def analyze_redundancy(source: TraceSource) -> RedundancyStats:
    """One streaming pass: the scenario pass with only its redundancy
    part."""
    from repro.scenario import ScenarioSpec, scenario_pass
    return scenario_pass(source, ScenarioSpec(
        tlb=(), pcax_page_size=None)).redundancy


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
