"""The scenario pass: dTLB, PCAX and redundancy from one trace decode.

Tables 16 and 17 read three per-PC analyses of one run's address
stream: the dTLB replay (:func:`repro.tlb.simulate_tlb`), the PCAX
translation predictor (:func:`repro.tlb.pcax_profile`) and the
redundant-load analyzer (:func:`repro.redundancy.analyze_redundancy`).
All three are single-pass folds over the same columns, so
:func:`scenario_pass` decodes each chunk once, taps it through the PCAX
and redundancy folds, and hands the same chunks on to the TLB replay.
The results are bit-identical to the three separate calls (the fuzz
``tlb`` and ``redundancy`` oracles check it).

A :class:`ScenarioSpec` names what one pass computes.  Its results
are kept as one JSON entry in the session's scenario tier, whose parts
are exactly the rows the service's ``tlb`` and ``redundancy`` ops
return; :func:`decode_scenario` reads it back, in the session that
wrote it or in the campaign parent after a worker published it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.cache.model import (CacheStats, TraceSource, _hex_column,
                               chunk_columns)
from repro.machine.trace import TraceChunk
from repro.redundancy import (LoadRedundancy, RedundancyFold,
                              RedundancyStats)
from repro.tlb import (DEFAULT_PAGE_SIZE, DEFAULT_THRESHOLD, PcaxFold,
                       PcaxLoad, PcaxProfile, TlbConfig, TlbStats,
                       simulate_tlb)


@dataclass(frozen=True)
class ScenarioSpec:
    """What one scenario pass computes over a run's trace."""

    tlb: tuple[TlbConfig, ...] = (TlbConfig(),)
    pcax_page_size: int = DEFAULT_PAGE_SIZE
    threshold: float = DEFAULT_THRESHOLD

    def describe(self) -> str:
        """Canonical text of the spec; part of every content digest."""
        geometries = ",".join(f"{c.page_size}/{c.entries}/{c.assoc}"
                              for c in self.tlb)
        return (f"tlb[{geometries}]|pcax{self.pcax_page_size}"
                f"|t{self.threshold!r}")


@dataclass
class ScenarioResult:
    """One pass's outputs: a :class:`TlbStats` per geometry, in order."""

    tlb: list[TlbStats]
    pcax: PcaxProfile
    redundancy: RedundancyStats


def scenario_pass(source: TraceSource,
                  spec: ScenarioSpec) -> ScenarioResult:
    """Every artifact of ``spec`` from one pass over ``source``.

    ``source`` is anything a trace handle replays: a store stream, a
    materialized trace, or a chunked view of one.
    """
    pcax = PcaxFold(spec.pcax_page_size, spec.threshold)
    redundancy = RedundancyFold()
    chunks = _chunks(redundancy.feed(pcax.feed(chunk_columns(source))))
    tlb = simulate_tlb(chunks, spec.tlb)
    for _ in chunks:    # no geometries: the folds still see every row
        pass
    return ScenarioResult(tlb=tlb, pcax=pcax.result(),
                          redundancy=redundancy.result())


def _chunks(columns) -> Iterator[TraceChunk]:
    for pcs, addresses, kinds in columns:
        yield TraceChunk(pcs, addresses, kinds)


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
    return {"tlb": [encode_tlb(stats) for stats in result.tlb],
            "pcax": encode_pcax(result.pcax),
            "redundancy": encode_redundancy(result.redundancy)}


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
    pcax = payload["pcax"]
    if (pcax["page_size"], pcax["threshold"]) \
            != (spec.pcax_page_size, spec.threshold):
        raise ValueError("payload PCAX parameters differ from the spec")
    redundancy = payload["redundancy"]
    return ScenarioResult(
        tlb=tlb,
        pcax=PcaxProfile(
            page_size=spec.pcax_page_size, threshold=spec.threshold,
            loads={int(pc, 16): PcaxLoad(accesses=int(load["accesses"]),
                                         predicted=int(load["predicted"]))
                   for pc, load in pcax["loads"].items()}),
        redundancy=RedundancyStats(loads={
            int(pc, 16): LoadRedundancy(
                accesses=int(load["accesses"]),
                redundant=int(load["redundant"]),
                reload_after_store=int(load["reload_after_store"]))
            for pc, load in redundancy["loads"].items()}))
