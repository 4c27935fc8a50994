"""Analytic profile: predicted histograms -> CacheStats for any geometry.

The dynamic sweep engine answers a geometry from measured per-set stack
distances; this engine answers it from *predicted* fully-associative
reuse distances.  The bridge is the classic set-mapping argument: a
reuse with ``d`` distinct intervening blocks misses an ``S``-set,
``A``-way LRU cache when at least ``A`` of those blocks map to the same
set as the reused one — ``Binomial(d, 1/S)``, approximated by
``Poisson(d/S)`` and exact at ``S == 1`` (where it degenerates to
``d >= A``, the same suffix-threshold rule ``GroupProfile`` applies to
measured histograms — see ``tests/test_analytic.py`` for the
equivalence check).

An :class:`AnalyticProfile` is geometry-free: one prediction per block
size serves every LRU ``(size, assoc)`` pair, with zero machine
execution.  Serialization round-trips through JSON for the analytic
keyspace of the stack-distance :class:`~repro.cache.stackdist.
ProfileStore`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.analytic.loopmodel import ProgramModel
from repro.analytic.reuse import HIGH, LOW, MEDIUM, OpPrediction, predict_ops
from repro.cache.config import CacheConfig
from repro.cache.model import CacheStats

_PAYLOAD_SCHEMA = 1

#: Program-level confidence below which callers should fall back to the
#: measured sweep path.
CONFIDENCE_THRESHOLD = 0.8


def _miss_probability(distance: int, num_sets: int, assoc: int) -> float:
    """P[reuse at fully-associative distance d misses an (S, A) cache]."""
    if distance < assoc:
        # Fewer than A distinct intervening blocks can never fill the
        # reused block's set, whatever the mapping: guaranteed hit.
        return 0.0
    if num_sets <= 1:
        return 1.0
    lam = distance / num_sets
    if lam <= 0:
        return 0.0
    if lam > 100.0:
        # Normal approximation with continuity correction; avoids
        # underflow of exp(-lam) for very long distances.
        z = (lam - assoc + 0.5) / math.sqrt(lam)
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    # P[Poisson(lam) >= A] = 1 - sum_{k<A} pmf(k)
    pmf = math.exp(-lam)
    cdf = pmf
    for k in range(1, assoc):
        pmf *= lam / k
        cdf += pmf
    return max(1.0 - cdf, 0.0)


@dataclass
class AnalyticProfile:
    """Predicted reuse histograms for one (program, block_size)."""

    block_size: int
    loads: dict[int, OpPrediction] = field(default_factory=dict)
    stores: dict[int, OpPrediction] = field(default_factory=dict)

    # -- confidence ----------------------------------------------------
    @property
    def coverage(self) -> float:
        """Access-weighted fraction of predictions with HIGH confidence."""
        total = conf = 0.0
        for pred in list(self.loads.values()) + list(self.stores.values()):
            total += pred.accesses
            if pred.confidence == HIGH:
                conf += pred.accesses
        return conf / total if total else 0.0

    @property
    def confident(self) -> bool:
        return self.coverage >= CONFIDENCE_THRESHOLD

    def low_confidence_pcs(self) -> dict[int, tuple[str, ...]]:
        out: dict[int, tuple[str, ...]] = {}
        for group in (self.loads, self.stores):
            for pc, pred in group.items():
                if pred.confidence == LOW:
                    out[pc] = pred.reasons
        return out

    def confidence_of(self, pc: int) -> str:
        pred = self.loads.get(pc) or self.stores.get(pc)
        return pred.confidence if pred is not None else LOW

    # -- evaluation ----------------------------------------------------
    def evaluate(self, config: CacheConfig) -> CacheStats:
        """Predicted CacheStats for any LRU geometry, no execution."""
        if config.block_size != self.block_size:
            raise ValueError(
                f"profile is for block_size={self.block_size}, "
                f"asked for {config.block_size}")
        num_sets, assoc = config.num_sets, config.assoc
        capacity = num_sets * assoc
        cache: dict[int, float] = {}

        def prob(distance: int) -> float:
            if distance not in cache:
                cache[distance] = _miss_probability(distance, num_sets,
                                                    assoc)
            return cache[distance]

        def misses_of(group: dict[int, OpPrediction]) -> dict[int, int]:
            out: dict[int, int] = {}
            for pc, pred in group.items():
                if pred.accesses <= 0:
                    continue
                m = pred.hist.compulsory
                for distance, count in pred.hist.bins.items():
                    m += count * prob(distance)
                for distance, count in pred.hist.dense.items():
                    # Fixed contiguous footprints spread uniformly over
                    # sets: the cache acts fully associative at S*A.  A
                    # sparse footprint (blocks `pitch` apart) lands on
                    # only S/gcd(pitch, S) sets, shrinking the
                    # effective capacity by that gcd.
                    conc = math.gcd(pred.hist.pitch.get(distance, 1),
                                    num_sets)
                    if distance * conc >= capacity:
                        m += count
                m = int(round(min(m, pred.accesses)))
                if m:
                    out[pc] = m
            return out

        def accesses_of(group: dict[int, OpPrediction]) -> dict[int, int]:
            return {pc: int(round(pred.accesses))
                    for pc, pred in group.items() if pred.accesses > 0}

        return CacheStats(
            config=config,
            load_accesses=accesses_of(self.loads),
            load_misses=misses_of(self.loads),
            store_accesses=accesses_of(self.stores),
            store_misses=misses_of(self.stores),
            prefetch_ops=0,
            prefetch_fills=0,
        )

    # -- serialization -------------------------------------------------
    def to_payload(self) -> dict:
        def dump(group: dict[int, OpPrediction]) -> dict:
            out = {}
            for pc, pred in group.items():
                out[str(pc)] = {
                    "accesses": pred.accesses,
                    "bins": {str(d): c for d, c in pred.hist.bins.items()},
                    "dense": {str(d): c
                              for d, c in pred.hist.dense.items()},
                    "pitch": {str(d): p
                              for d, p in pred.hist.pitch.items()},
                    "compulsory": pred.hist.compulsory,
                    "confidence": pred.confidence,
                    "reasons": list(pred.reasons),
                    "function": pred.function,
                    "exact": pred.exact,
                }
            return out

        return {
            "schema": _PAYLOAD_SCHEMA,
            "block_size": self.block_size,
            "loads": dump(self.loads),
            "stores": dump(self.stores),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "AnalyticProfile":
        from repro.analytic.reuse import Histogram

        if payload.get("schema") != _PAYLOAD_SCHEMA:
            raise ValueError("unknown analytic payload schema")

        def load(group: dict, is_load: bool) -> dict[int, OpPrediction]:
            out: dict[int, OpPrediction] = {}
            for pc_str, rec in group.items():
                hist = Histogram(
                    bins={int(d): float(c)
                          for d, c in rec["bins"].items()},
                    dense={int(d): float(c)
                           for d, c in rec.get("dense", {}).items()},
                    pitch={int(d): int(p)
                           for d, p in rec.get("pitch", {}).items()},
                    compulsory=float(rec["compulsory"]))
                out[int(pc_str)] = OpPrediction(
                    pc=int(pc_str), function=rec.get("function", "?"),
                    is_load=is_load, accesses=float(rec["accesses"]),
                    hist=hist, confidence=rec["confidence"],
                    reasons=tuple(rec.get("reasons", ())),
                    exact=bool(rec.get("exact", False)))
            return out

        return cls(block_size=int(payload["block_size"]),
                   loads=load(payload["loads"], True),
                   stores=load(payload["stores"], False))


def predict_profile(program, block_size: int = 32,
                    pmodel: Optional[ProgramModel] = None
                    ) -> AnalyticProfile:
    """Build the analytic profile of ``program`` for one block size."""
    preds, _pmodel = predict_ops(program, block_size, pmodel)
    profile = AnalyticProfile(block_size=block_size)
    for pred in preds:
        group = profile.loads if pred.is_load else profile.stores
        if pred.pc in group:
            # Merge duplicate sites defensively (should not happen).
            group[pred.pc].accesses += pred.accesses
        else:
            group[pred.pc] = pred
    return profile


# -- the predict core shared by the pipeline and the service ----------

def program_digest(source: str, optimize: bool) -> str:
    """Content key of analytic profiles: the *program*, not the trace,
    since predictions never see an execution."""
    text = "|".join(("analytic-1", source, str(optimize)))
    return hashlib.sha1(text.encode()).hexdigest()


def cached_profile(program, digest: str, block_size: int,
                   store) -> AnalyticProfile:
    """The profile for one block size, through the store's analytic
    keyspace (memory tier + ``an-`` disk entries)."""
    profile = store.get_analytic(digest, block_size)
    if profile is None:
        profile = predict_profile(program, block_size=block_size)
        store.put_analytic(digest, block_size, profile)
    return profile


@dataclass
class AnalyticAnswer:
    """One profile per block size a config set needs, and its honesty."""

    profiles: dict[int, AnalyticProfile]
    coverage: float                # worst access-weighted HIGH share
    confident: bool                # every config LRU, every profile sure
    low_confidence_pcs: dict[int, tuple[str, ...]]

    def evaluate(self, configs: list[CacheConfig]) -> list[CacheStats]:
        return [self.profiles[c.block_size].evaluate(c) for c in configs]


def analytic_answer(program, digest: str, configs: list[CacheConfig],
                    store) -> AnalyticAnswer:
    """Profiles for ``configs`` and whether they may answer them.

    The answer is confident only when every config is LRU and every
    profile's static coverage reaches :data:`CONFIDENCE_THRESHOLD`;
    otherwise callers fall back to the measured sweep or report the
    low coverage alongside the prediction.
    """
    profiles: dict[int, AnalyticProfile] = {}
    for config in configs:
        if config.block_size not in profiles:
            profiles[config.block_size] = cached_profile(
                program, digest, config.block_size, store)
    low: dict[int, tuple[str, ...]] = {}
    for profile in profiles.values():
        low.update(profile.low_confidence_pcs())
    supported = all(c.replacement == "lru" for c in configs)
    return AnalyticAnswer(
        profiles=profiles,
        coverage=min((p.coverage for p in profiles.values()),
                     default=0.0),
        confident=supported and all(p.confident
                                    for p in profiles.values()),
        low_confidence_pcs=low)
