"""The scenario pass: dTLB, PCAX and redundancy in one compiled row loop.

Tables 16 and 17 read three per-PC analyses of one run's address
stream: the dTLB replay, the PCAX translation predictor and the
redundant-load analyzer.  All three fold per-row state over the same
columns, so :func:`scenario_pass` runs them in one loop over
``zip(pcs, addresses, kinds)``: the compiled multi-config replay of
:mod:`repro.cache.model`, which updates every TLB geometry, with the
PCAX predictor (one ``(last page, stride)`` entry per load PC) and the
redundancy state (one last-access kind per address) added to its load
and store branches as folds (:class:`~repro.cache.model.ReplayFold`).
The geometries reach the replay through :func:`repro.tlb.simulate_tlb`,
whose sweep serves a page size from stack-distance histograms instead
when more geometries than set mappings share it.

Per-PC load and store access counts are not recounted: the replay
takes them from the store sidecar for a stored stream.  The folds
append the PCs of rare events to ``array('I')`` columns (4 bytes an
event, not a list slot) that ``Counter`` tallies after the pass: PCAX
mispredictions, fresh loads and reloads after a store.  The predictor
is right on 85–99% of the suite's loads, so recording its misses
appends least; the hits are derived from the load counts.  A spec can
ask for any subset of the parts: :func:`repro.tlb.pcax_profile` and
:func:`repro.redundancy.analyze_redundancy` are one-part passes.  The
fuzz ``tlb`` and ``redundancy`` oracles check every part against an
independent reference.

A :class:`ScenarioSpec` names what one pass computes.  Its results
are kept as one JSON entry in the session's scenario tier, whose parts
are exactly the rows the service's ``tlb`` and ``redundancy`` ops
return; :func:`decode_scenario` reads it back, in the session that
wrote it or in the campaign parent after a worker published it.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Optional

from repro.cache.model import (CacheStats, ReplayFold, TraceSource,
                               _hex_column)
from repro.cache.stackdist import ProfileStore
from repro.machine.trace import LOAD, STORE
from repro.redundancy import LoadRedundancy, RedundancyStats
from repro.tlb import (DEFAULT_PAGE_SIZE, DEFAULT_THRESHOLD, PcaxLoad,
                       PcaxProfile, TlbConfig, TlbStats, simulate_tlb)


@dataclass(frozen=True)
class ScenarioSpec:
    """What one scenario pass computes over a run's trace.

    ``tlb`` may be empty, ``pcax_page_size=None`` leaves the PCAX part
    out and ``redundancy=False`` the redundancy part.
    """

    tlb: tuple[TlbConfig, ...] = (TlbConfig(),)
    pcax_page_size: Optional[int] = DEFAULT_PAGE_SIZE
    threshold: float = DEFAULT_THRESHOLD
    redundancy: bool = True

    def __post_init__(self):
        size = self.pcax_page_size
        if size is not None and (size <= 0 or size & (size - 1)):
            raise ValueError(
                f"page_size must be a power of two, got {size}")

    def describe(self) -> str:
        """Canonical text of the spec; part of every content digest."""
        geometries = ",".join(f"{c.page_size}/{c.entries}/{c.assoc}"
                              for c in self.tlb)
        text = (f"tlb[{geometries}]|pcax{self.pcax_page_size}"
                f"|t{self.threshold!r}")
        return text if self.redundancy else text + "|no-redundancy"


@dataclass
class ScenarioResult:
    """One pass's outputs: a :class:`TlbStats` per geometry, in order,
    and ``None`` for a part the spec left out."""

    tlb: list[TlbStats]
    pcax: Optional[PcaxProfile]
    redundancy: Optional[RedundancyStats]


def scenario_pass(source: TraceSource, spec: ScenarioSpec,
                  store: Optional[ProfileStore] = None
                  ) -> ScenarioResult:
    """Every artifact of ``spec`` from one pass over ``source``.

    ``source`` is anything a trace handle replays: a store stream, a
    materialized trace, a chunked view of one, or a one-shot iterable
    of chunks.  The TLB geometries go through
    :func:`repro.tlb.simulate_tlb`, so when more geometries than set
    mappings share a page size they are served from ``store``'s
    stack-distance profiles and the folds run in a pass of their own.
    """
    folds = []
    if spec.pcax_page_size is not None:
        folds.append(_pcax_fold(spec.pcax_page_size, spec.threshold))
    if spec.redundancy:
        folds.append(_REDUNDANCY_FOLD)
    results = simulate_tlb(source, spec.tlb, store, folds)
    parts = iter(results[len(spec.tlb):])
    return ScenarioResult(
        tlb=results[:len(spec.tlb)],
        pcax=next(parts) if spec.pcax_page_size is not None else None,
        redundancy=next(parts) if spec.redundancy else None)


# -- the folds -------------------------------------------------------------
#
# Each part is a :class:`~repro.cache.model.ReplayFold`: source lines
# that the compiled replay runs in its load (and store) branch, beside
# the TLB geometries' cache updates.  A fold appends the PCs of rare
# events to an ``array('I')`` and derives the common case from the
# per-PC load counts after the pass.

def _pcax_fold(page_size: int, threshold: float) -> ReplayFold:
    """The PCAX predictor: the page of a PC's next load is predicted as
    its last page plus its last page stride.  Records mispredictions
    (the predictor is right on 85–99% of the suite's loads)."""
    page = f"block{page_size}"
    return ReplayFold(
        state=("pcax = {}", "pcax_get = pcax.get",
               "wrong = array('I')", "mispredict = wrong.append"),
        load=("state = pcax_get(pc)",
              "if state is None:",
              f"    pcax[pc] = ({page}, 0)",
              "else:",
              "    last_page, stride = state",
              f"    if {page} != last_page + stride:",
              "        mispredict(pc)",
              f"        pcax[pc] = ({page}, {page} - last_page)",
              "    elif stride:",
              f"        pcax[pc] = ({page}, stride)"),
        blocks=(page_size,), result="wrong",
        finish=partial(_pcax_profile, page_size, threshold))


def _pcax_profile(page_size: int, threshold: float, wrong: array,
                  load_accesses: dict[int, int]) -> PcaxProfile:
    mispredicted = Counter(wrong)
    return PcaxProfile(
        page_size=page_size, threshold=threshold,
        loads={pc: PcaxLoad(accesses=n,
                            predicted=n - 1 - mispredicted[pc])
               for pc, n in load_accesses.items()})


def _redundancy_stats(events: tuple[array, array],
                      load_accesses: dict[int, int]) -> RedundancyStats:
    fresh_loads, reloads = map(Counter, events)
    return RedundancyStats(loads={
        pc: LoadRedundancy(accesses=n, redundant=n - fresh_loads[pc],
                           reload_after_store=reloads[pc])
        for pc, n in load_accesses.items()})


#: Redundancy: one last-access kind per address.  Records a load's PC
#: when its address is new (a fresh load) or was last stored.
_REDUNDANCY_FOLD = ReplayFold(
    state=("last = {}", "last_get = last.get",
           "fresh = array('I')", "fresh_load = fresh.append",
           "after = array('I')", "after_store = after.append"),
    load=("last_kind = last_get(address)",
          f"if last_kind != {LOAD}:",
          f"    last[address] = {LOAD}",
          "    if last_kind is None:",
          "        fresh_load(pc)",
          "    else:",
          "        after_store(pc)"),
    store=(f"last[address] = {STORE}",),
    result="(fresh, after)", finish=_redundancy_stats)


# -- the wire and disk form ------------------------------------------------

def encode_tlb(stats: TlbStats) -> dict[str, Any]:
    """One geometry's row of the ``tlb`` op's ``results``."""
    return {
        "geometry": stats.config.to_dict(),
        "description": stats.config.describe(),
        "total_accesses": stats.total_accesses,
        "total_misses": stats.total_misses,
        "miss_rate": stats.miss_rate,
        "load_misses": _hex_column(stats.load_misses),
        "load_accesses": _hex_column(stats.load_accesses),
        "store_misses": _hex_column(stats.store_misses),
        "store_accesses": _hex_column(stats.store_accesses),
    }


def encode_pcax(profile: PcaxProfile) -> dict[str, Any]:
    """The predictor fields of the ``tlb`` op's ``pcax`` object."""
    return {
        "page_size": profile.page_size,
        "threshold": profile.threshold,
        "loads": {f"{pc:#x}": {"accesses": load.accesses,
                               "predicted": load.predicted,
                               "ratio": load.ratio}
                  for pc, load in sorted(profile.loads.items())},
    }


def encode_redundancy(stats: RedundancyStats) -> dict[str, Any]:
    """The count fields of the ``redundancy`` op's response."""
    return {
        "total_loads": stats.total_loads,
        "total_redundant": stats.total_redundant,
        "total_reload_after_store": stats.total_reload_after_store,
        "ratio": stats.ratio,
        "loads": {f"{pc:#x}": {
                      "accesses": load.accesses,
                      "redundant": load.redundant,
                      "reload_after_store": load.reload_after_store}
                  for pc, load in sorted(stats.loads.items())},
    }


def encode_scenario(result: ScenarioResult) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "tlb": [encode_tlb(stats) for stats in result.tlb]}
    if result.pcax is not None:
        payload["pcax"] = encode_pcax(result.pcax)
    if result.redundancy is not None:
        payload["redundancy"] = encode_redundancy(result.redundancy)
    return payload


def _column(row: dict[str, Any], name: str) -> dict[int, int]:
    return {int(pc, 16): int(n) for pc, n in row[name].items()}


def decode_scenario(payload: dict[str, Any],
                    spec: ScenarioSpec) -> ScenarioResult:
    """Inverse of :func:`encode_scenario` for a pass under ``spec``.

    Raises ``KeyError``/``TypeError``/``ValueError`` on a torn payload
    or one computed under another spec, which a cache tier counts as a
    miss.
    """
    tlb = []
    for config, row in zip(spec.tlb, payload["tlb"], strict=True):
        if TlbConfig(**row["geometry"]) != config:
            raise ValueError(f"payload geometry {row['geometry']} is "
                             f"not {config.to_dict()}")
        tlb.append(TlbStats(config=config, cache=CacheStats(
            config=config.as_cache_config(),
            load_accesses=_column(row, "load_accesses"),
            load_misses=_column(row, "load_misses"),
            store_accesses=_column(row, "store_accesses"),
            store_misses=_column(row, "store_misses"))))
    pcax = None
    if spec.pcax_page_size is not None:
        row = payload["pcax"]
        if (row["page_size"], row["threshold"]) \
                != (spec.pcax_page_size, spec.threshold):
            raise ValueError("payload PCAX parameters differ from the "
                             "spec")
        pcax = PcaxProfile(
            page_size=spec.pcax_page_size, threshold=spec.threshold,
            loads={int(pc, 16): PcaxLoad(accesses=int(load["accesses"]),
                                         predicted=int(load["predicted"]))
                   for pc, load in row["loads"].items()})
    redundancy = None
    if spec.redundancy:
        redundancy = RedundancyStats(loads={
            int(pc, 16): LoadRedundancy(
                accesses=int(load["accesses"]),
                redundant=int(load["redundant"]),
                reload_after_store=int(load["reload_after_store"]))
            for pc, load in payload["redundancy"]["loads"].items()})
    return ScenarioResult(tlb=tlb, pcax=pcax, redundancy=redundancy)
