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

The interesting question for this repo is the cross-tabulation: does
the paper's *delinquent* set (loads chosen for cache-miss coverage)
coincide with the PCAX-friendly set?  :func:`pcax_crosstab` counts the
2x2 partition over any universe of load PCs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.cache.model import TraceSource, chunk_columns
from repro.machine.trace import LOAD

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


class PcaxFold:
    """The per-PC last-page + stride predictor, folded chunk by chunk.

    :meth:`feed` wraps a column feed (see
    :func:`repro.cache.model.chunk_columns`) and passes every triple
    through unchanged after folding it, so one decoded chunk can serve
    further consumers; :meth:`result` reads the profile once the feed
    has been drained.
    """

    def __init__(self, page_size: int, threshold: float):
        if page_size <= 0 or page_size & (page_size - 1):
            raise ValueError(
                f"page_size must be a power of two, got {page_size}")
        self.page_size = page_size
        self.threshold = threshold
        self._shift = page_size.bit_length() - 1
        self._accesses: dict[int, int] = {}
        self._predicted: dict[int, int] = {}
        self._last_page: dict[int, int] = {}
        self._stride: dict[int, int] = {}

    def feed(self, columns: Iterable[tuple]) -> Iterator[tuple]:
        shift = self._shift
        accesses = self._accesses
        predicted = self._predicted
        last_page = self._last_page
        stride = self._stride
        load = LOAD
        for pcs, addresses, kinds in columns:
            for pc, address, kind in zip(pcs, addresses, kinds):
                if kind != load:
                    continue
                page = address >> shift
                previous = last_page.get(pc)
                if previous is None:
                    accesses[pc] = 1
                    predicted[pc] = 0
                    last_page[pc] = page
                    stride[pc] = 0
                    continue
                accesses[pc] += 1
                if page == previous + stride[pc]:
                    predicted[pc] += 1
                stride[pc] = page - previous
                last_page[pc] = page
            yield pcs, addresses, kinds

    def result(self) -> PcaxProfile:
        loads = {pc: PcaxLoad(accesses=count,
                              predicted=self._predicted[pc])
                 for pc, count in self._accesses.items()}
        return PcaxProfile(page_size=self.page_size,
                           threshold=self.threshold, loads=loads)


def pcax_profile(source: TraceSource,
                 page_size: int = 4096,
                 threshold: float = DEFAULT_THRESHOLD) -> PcaxProfile:
    """One streaming pass of the per-PC last-page + stride predictor.

    Drains a :class:`PcaxFold` over
    :func:`repro.cache.model.chunk_columns`, so materialized traces and
    chunked streams produce identical profiles.
    """
    fold = PcaxFold(page_size, threshold)
    for _ in fold.feed(chunk_columns(source)):
        pass
    return fold.result()


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
