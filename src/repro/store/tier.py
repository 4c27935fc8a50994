"""One keyed JSON cache tier: a bounded memory map over versioned files.

Every content-keyed result and profile cache in the package is a
:class:`JsonTier`:

* the pipeline's per-(run, config) results and per-run scenario
  passes (:class:`~repro.pipeline.session.Session`);
* the service's served responses
  (:class:`~repro.service.scheduler.BatchScheduler`);
* the profile store's measured sweep profiles and its analytic profiles
  (:class:`~repro.cache.stackdist.ProfileStore`);
* the campaign's rendered tables
  (:class:`~repro.campaign.engine.Campaign`).

The tier owns the mechanics they share: the memory lookup, the file
name, the version stamp, atomic publication, and treating an entry it
cannot read as a miss.  Each owner passes its own encoded payload to
:meth:`JsonTier.put` and its own decoder to :meth:`JsonTier.get`, so a
format stays with the module that defines it.  :data:`LAYOUTS` says
where each tier keeps its files under a cache root; the garbage
collector (:mod:`repro.store.gc`) enumerates the tiers from it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.cache.lru import BoundedCache

#: Tier labels returned by :meth:`JsonTier.get`, also reported in
#: service responses and campaign metrics.
MEMORY = "memory"
DISK = "disk"

#: What reading a torn or mistyped entry raises: a counted miss.
_UNREADABLE = (AttributeError, KeyError, OSError, TypeError, ValueError)


def atomic_write_json(path: Path, payload: dict) -> None:
    """Best-effort atomic JSON write (temp file + ``os.replace``).

    Concurrent writers (campaign workers, service instances) may race on
    the same entry: each writes a per-PID temp file and atomically
    renames it into place so a reader can never observe a partially
    written entry.  I/O failures are swallowed — caching is an
    optimization, never a correctness requirement.
    """
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        temp.write_text(json.dumps(payload))
        os.replace(temp, path)
    except OSError:
        pass


@dataclass(frozen=True)
class Layout:
    """Where one tier keeps its entries under a cache root."""

    name: str                  # the tier's name in gc reports
    prefix: str                # entry file names: <prefix><key>.json
    dirs: tuple[str, ...]      # subdirectories it may use ("": the root)


#: ``<workload>-<digest>.json`` in the cache root.
PIPELINE = Layout("pipeline", "", ("",))
#: ``service/`` by default; ``serve --cache-dir DIR`` writes into DIR.
SERVICE = Layout("service", "svc-", ("service", ""))
SWEEP = Layout("stackdist", "sd-", ("stackdist",))
ANALYTIC = Layout("analytic", "an-", ("stackdist",))
#: One run's dTLB, PCAX and redundancy results (see repro.scenario).
SCENARIO = Layout("scenario", "sc-", ("scenario",))
#: One rendered table, keyed by its campaign cell and the code digest.
TABLE = Layout("table", "tb-", ("table",))
LAYOUTS = (PIPELINE, SERVICE, SWEEP, ANALYTIC, SCENARIO, TABLE)


class JsonTier:
    """Decoded values in ``memory`` over ``<prefix><key>.json`` files.

    ``memory`` may be shared between tiers (the profile store's two
    keyspaces share one LRU); keys are namespaced by the prefix.  With
    ``disk_dir=None`` the tier is memory-only.
    """

    def __init__(self, layout: Layout, version: int,
                 disk_dir: Optional[Path], memory: BoundedCache):
        self.layout = layout
        self.version = version
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.memory = memory
        self.counters: dict[str, int] = {
            "memory_hits": 0, "disk_hits": 0, "misses": 0, "puts": 0}

    def path(self, key: str) -> Path:
        return self.disk_dir / f"{self.layout.prefix}{key}.json"

    def get(self, key: str, decode: Callable[[dict], Any]
            ) -> tuple[Optional[Any], Optional[str]]:
        """``(value, MEMORY | DISK)``, or ``(None, None)`` on a miss.

        A disk entry that is absent, torn, of another version, or that
        ``decode`` rejects with a lookup, type or value error is a miss:
        the owner recomputes and :meth:`put` rewrites it.
        """
        slot = (self.layout.prefix, key)
        value = self.memory.get(slot)
        if value is not None:
            self.counters["memory_hits"] += 1
            return value, MEMORY
        if self.disk_dir is not None:
            try:
                entry = json.loads(self.path(key).read_text())
                if entry.get("version") != self.version:
                    raise ValueError("entry of another version")
                value = decode(entry)
            except _UNREADABLE:
                value = None
            if value is not None:
                self.counters["disk_hits"] += 1
                self.memory.put(slot, value)
                return value, DISK
        self.counters["misses"] += 1
        return None, None

    def put(self, key: str, value: Any, payload: dict) -> None:
        """Remember ``value``; publish ``payload`` as the disk entry."""
        self.counters["puts"] += 1
        self.memory.put((self.layout.prefix, key), value)
        if self.disk_dir is not None:
            atomic_write_json(self.path(key),
                              {"version": self.version, **payload})

    def stats(self) -> dict[str, Any]:
        """Counter snapshot with occupancy and hit rate (JSON-able)."""
        c = self.counters
        hits = c["memory_hits"] + c["disk_hits"]
        lookups = hits + c["misses"]
        return {
            "entries": len(self.memory),
            "capacity": self.memory.capacity,
            "memory_hits": c["memory_hits"],
            "disk_hits": c["disk_hits"],
            "misses": c["misses"],
            "evictions": self.memory.evictions,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        }
