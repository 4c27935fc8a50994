"""PC-indexed data address translation (PCAX) evaluation.

*PC-Indexed Data Address Translation* observes that for many loads the
data page is predictable from the load's PC alone: the PC indexes a
small table holding the last translation (and page stride) seen at
that PC, and the predicted translation is speculatively used before —
or instead of — the dTLB lookup.  A load is **PCAX-friendly** when
that per-PC last-page + stride predictor is right almost every time.

This module measures exactly that predictor over a trace: one
streaming pass, per-PC state of ``(last page, last page stride)``,
where access *i* of a PC is predicted at ``last_page + stride`` (the
stride observed between its two previous accesses; zero until a second
access has been seen, i.e. "same page again").  The first access of a
PC is unpredictable by construction and excluded from the ratio.
:func:`pcax_profile` runs the predictor as the PCAX part of the
scenario pass (:mod:`repro.scenario`); :func:`naive_pcax` is the fuzz
oracle's reference, a list-based recount that shares no code with it.

The interesting question for this repo is the cross-tabulation: does
the paper's *delinquent* set (loads chosen for cache-miss coverage)
coincide with the PCAX-friendly set?  :func:`pcax_crosstab` counts the
2x2 partition over any universe of load PCs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.model import TraceSource
from repro.machine.trace import LOAD, MemoryTrace

#: Minimum prediction ratio for the "friendly" label.
DEFAULT_THRESHOLD = 0.9

#: PCs with fewer dynamic loads than this stay unlabelled: one access
#: has no predictable ratio at all, and a predictor table entry that
#: serves a single extra access is below the noise floor.
MIN_ACCESSES = 2


@dataclass
class PcaxLoad:
    """Predictor outcome for one load PC."""

    accesses: int = 0
    predicted: int = 0

    @property
    def predictable_accesses(self) -> int:
        """Accesses the predictor had a chance at (all but the first)."""
        return max(0, self.accesses - 1)

    @property
    def ratio(self) -> float:
        chances = self.predictable_accesses
        return self.predicted / chances if chances else 0.0


@dataclass
class PcaxProfile:
    """Per-PC PCAX predictability for one trace at one page size."""

    page_size: int
    threshold: float
    loads: dict[int, PcaxLoad]

    def friendly_set(self) -> set[int]:
        return {pc for pc, load in self.loads.items()
                if load.accesses >= MIN_ACCESSES
                and load.ratio >= self.threshold}

    @property
    def total_accesses(self) -> int:
        return sum(load.accesses for load in self.loads.values())

    @property
    def total_predicted(self) -> int:
        return sum(load.predicted for load in self.loads.values())


def pcax_profile(source: TraceSource,
                 page_size: int = 4096,
                 threshold: float = DEFAULT_THRESHOLD) -> PcaxProfile:
    """One streaming pass of the per-PC last-page + stride predictor:
    the scenario pass with only its PCAX part."""
    from repro.scenario import ScenarioSpec, scenario_pass
    return scenario_pass(source, ScenarioSpec(
        tlb=(), pcax_page_size=page_size, threshold=threshold,
        redundancy=False)).pcax


def naive_pcax(trace: MemoryTrace, page_size: int) -> PcaxProfile:
    """List-based reference implementation of the predictor.

    Lists each load PC's pages in trace order, then counts the pages
    equal to the previous page plus the stride between the two before
    it.  Shares no code with the scenario pass, which is what the
    fuzz ``tlb`` oracle diffs it against; holds the whole page list in
    memory, so use it only on bounded traces.
    """
    pages: dict[int, list[int]] = {}
    for pc, address, kind in zip(trace.pcs, trace.addresses,
                                 trace.kinds):
        if kind == LOAD:
            pages.setdefault(pc, []).append(address // page_size)
    loads = {}
    for pc, seen in pages.items():
        predicted = 0
        for i in range(1, len(seen)):
            stride = seen[i - 1] - seen[i - 2] if i >= 2 else 0
            if seen[i] == seen[i - 1] + stride:
                predicted += 1
        loads[pc] = PcaxLoad(accesses=len(seen), predicted=predicted)
    return PcaxProfile(page_size=page_size, threshold=DEFAULT_THRESHOLD,
                       loads=loads)


def pcax_crosstab(friendly: set[int], delinquent: set[int],
                  universe: set[int]) -> dict[str, int]:
    """2x2 partition of ``universe`` by the two labels."""
    both = len(universe & friendly & delinquent)
    return {
        "both": both,
        "delinquent_only": len(universe & delinquent) - both,
        "friendly_only": len(universe & friendly) - both,
        "neither": len(universe - friendly - delinquent),
    }
