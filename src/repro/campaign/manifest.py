"""Append-only JSON-lines provenance manifest for campaigns.

One line per completed cell, appended (with a flush) the moment the
cell finishes, so a SIGKILL loses at most the line being written.  The
loader is last-wins per cell id and tolerates a truncated final line —
exactly what a killed writer leaves behind.  The manifest is
provenance only: what a campaign computes or reuses is decided by the
content-keyed cache tiers, never by the manifest.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.pipeline.session import default_cache_dir

MANIFEST_NAME = "manifest.jsonl"


def campaign_dir(cache_dir: Optional[Path] = None) -> Path:
    """``<cache>/campaign`` — manifest plus rendered table artifacts."""
    base = Path(cache_dir) if cache_dir is not None \
        else default_cache_dir()
    return base / "campaign"


class Manifest:
    """The append-only cell ledger of one campaign directory."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.path = self.directory / MANIFEST_NAME

    # -- writing ------------------------------------------------------
    def append(self, entry: dict[str, Any]) -> None:
        """Durably append one cell record (fsync'd line)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, sort_keys=True) + "\n"
        with open(self.path, "a") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def record(self, cell: str, kind: str, digest: str, code: str,
               wall_s: float, tier: str, campaign_id: str,
               **extra: Any) -> dict[str, Any]:
        """Build + append the canonical provenance entry for a cell."""
        entry: dict[str, Any] = {
            "cell": cell,
            "kind": kind,               # run | analytic | scenario | table
            "digest": digest,           # content hash of inputs+params
            "code": code,               # digest of src/repro at run time
            "wall_s": round(wall_s, 4),
            "tier": tier,               # computed | disk
            "campaign": campaign_id,
            "ts": round(time.time(), 3),
        }
        entry.update(extra)
        self.append(entry)
        return entry

    # -- reading ------------------------------------------------------
    def entries(self) -> Iterator[dict[str, Any]]:
        """Every decodable line, oldest first (truncated tail skipped)."""
        try:
            text = self.path.read_text()
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # the killed writer's partial last line
            if isinstance(entry, dict) and "cell" in entry:
                yield entry

    def latest(self) -> dict[str, dict[str, Any]]:
        """Last-wins view: cell id -> most recent entry."""
        view: dict[str, dict[str, Any]] = {}
        for entry in self.entries():
            view[entry["cell"]] = entry
        return view

    def status(self, current_code: Optional[str] = None
               ) -> dict[str, Any]:
        """Queryable summary of the manifest (for ``--status``)."""
        view = self.latest()
        by_kind: dict[str, int] = {}
        by_tier: dict[str, int] = {}
        by_kind_tier: dict[str, dict[str, int]] = {}
        stale = 0
        last_ts = 0.0
        wall = 0.0
        for entry in view.values():
            kind = entry.get("kind", "?")
            tier = entry.get("tier", "?")
            by_kind[kind] = by_kind.get(kind, 0) + 1
            by_tier[tier] = by_tier.get(tier, 0) + 1
            tiers = by_kind_tier.setdefault(kind, {})
            tiers[tier] = tiers.get(tier, 0) + 1
            wall += float(entry.get("wall_s", 0.0))
            last_ts = max(last_ts, float(entry.get("ts", 0.0)))
            if current_code is not None \
                    and entry.get("code") != current_code:
                stale += 1
        return {
            "path": str(self.path),
            "cells": len(view),
            "by_kind": dict(sorted(by_kind.items())),
            "by_tier": dict(sorted(by_tier.items())),
            "by_kind_tier": {kind: dict(sorted(tiers.items()))
                             for kind, tiers
                             in sorted(by_kind_tier.items())},
            "stale_cells": stale,
            "recorded_wall_s": round(wall, 2),
            "last_entry_ts": last_ts,
        }
