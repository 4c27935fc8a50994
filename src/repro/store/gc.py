"""Size-bounded garbage collection for the on-disk cache directory.

``.repro_cache/`` accumulates content-addressed entries that never
expire on their own:

* the keyed JSON tiers of :data:`repro.store.tier.LAYOUTS`, each found
  by its directories and file prefix there — ``pipeline`` results
  (``<workload>-<digest>.json`` in the root), ``service`` responses
  (``service/svc-*.json``, or ``svc-*.json`` in the root of a
  ``serve --cache-dir``), ``stackdist`` sweep profiles
  (``stackdist/sd-*.json``), ``analytic`` profiles
  (``stackdist/an-*.json``), ``scenario`` passes
  (``scenario/sc-*.json``) and rendered ``table`` entries
  (``table/tb-*.json``);
* ``traces`` — the chunked trace store (``traces/tr-*.json`` meta +
  ``traces/tr-*.bin`` columns, evicted as a pair).

:func:`collect_garbage` bounds the whole directory by total size with
LRU eviction: entries are ranked by mtime (trace store reads touch
their entry, so recently streamed traces survive) and the oldest are
deleted until the budget holds.  Unusable entries — orphaned trace
bins, meta without a bin, malformed JSON, trace pairs of another store
schema (never looked up), stale ``.tmp`` leftovers from dead writers —
are *reported and removed first*; every tier re-creates missing
entries on demand, so removal is always safe.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.store.tier import LAYOUTS
from repro.store.tracestore import _SCHEMA

#: Minimum age (seconds) before a ``*.tmp`` file counts as stale.
#: Writers publish via per-PID temp files renamed into place; a gc
#: pass racing a live writer must not delete the temp out from under
#: it.  Anything older than this grace window belongs to a dead
#: writer.
TMP_GRACE_SECONDS = 900.0


@dataclass
class GcEntry:
    """One evictable unit: a cache entry and every file backing it."""

    tier: str
    name: str
    paths: tuple[Path, ...]
    size: int
    mtime: float


@dataclass
class GcReport:
    """What a :func:`collect_garbage` pass found and did."""

    limit: int
    dry_run: bool
    scanned: int = 0                 # total bytes across live entries
    kept: int = 0                    # bytes remaining after eviction
    evicted: list[GcEntry] = field(default_factory=list)
    corrupt: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def evicted_bytes(self) -> int:
        return sum(entry.size for entry in self.evicted)

    def describe(self) -> str:
        verb = "would evict" if self.dry_run else "evicted"
        lines = [f"scanned {self.scanned} bytes, limit {self.limit}: "
                 f"{verb} {len(self.evicted)} entr"
                 f"{'y' if len(self.evicted) == 1 else 'ies'} "
                 f"({self.evicted_bytes} bytes), {self.kept} bytes kept"]
        for tier, name, reason in self.corrupt:
            lines.append(f"corrupt [{tier}] {name}: {reason}")
        for entry in self.evicted:
            lines.append(f"{verb} [{entry.tier}] {entry.name} "
                         f"({entry.size} bytes)")
        return "\n".join(lines)


def _stat(paths: tuple[Path, ...]) -> tuple[int, float]:
    size = 0
    mtime = 0.0
    for path in paths:
        stat = path.stat()
        size += stat.st_size
        mtime = max(mtime, stat.st_mtime)
    return size, mtime


_MALFORMED = object()


def _load_json(path: Path):
    """The JSON value stored at ``path``, or ``_MALFORMED``."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return _MALFORMED


def _tier_files(root: Path, pattern: str):
    """``(path, tier name)`` of every file matching ``pattern`` in the
    JSON tiers' directories, each claimed by the longest prefix."""
    layouts = sorted(LAYOUTS, key=lambda layout: -len(layout.prefix))
    directories = dict.fromkeys(d for layout in layouts
                                for d in layout.dirs)
    for directory in directories:
        for path in sorted((root / directory).glob(pattern)):
            for layout in layouts:
                if directory in layout.dirs \
                        and path.name.startswith(layout.prefix):
                    yield path, layout.name
                    break


def scan_entries(root: Path, tmp_grace: float = TMP_GRACE_SECONDS
                 ) -> tuple[list[GcEntry],
                            list[tuple[str, str, str, tuple]]]:
    """Every live entry plus every corrupt/stale item under ``root``.

    Corrupt items come back as ``(tier, name, reason, paths)`` so the
    caller can delete them (or just report, under ``--dry-run``).
    ``*.tmp`` files younger than ``tmp_grace`` seconds are a concurrent
    writer's work in progress and are left alone.
    """
    root = Path(root)
    entries: list[GcEntry] = []
    corrupt: list[tuple[str, str, str, tuple]] = []
    if not root.is_dir():
        return entries, corrupt

    def add(tier: str, name: str, paths: tuple[Path, ...]) -> None:
        try:
            size, mtime = _stat(paths)
        except OSError:
            return                   # vanished mid-scan: nothing to do
        entries.append(GcEntry(tier, name, paths, size, mtime))

    for path, tier in _tier_files(root, "*.json"):
        if _load_json(path) is not _MALFORMED:
            add(tier, path.name, (path,))
        else:
            corrupt.append((tier, path.name, "malformed JSON", (path,)))

    traces = root / "traces"
    if traces.is_dir():
        bins = {path.name[:-4]: path for path in traces.glob("tr-*.bin")}
        for meta in traces.glob("tr-*.json"):
            stem = meta.name[:-5]
            bin_path = bins.pop(stem, None)
            payload = _load_json(meta)
            if bin_path is None:
                corrupt.append(("traces", meta.name, "meta without bin",
                                (meta,)))
            elif payload is _MALFORMED:
                corrupt.append(("traces", stem, "malformed meta",
                                (meta, bin_path)))
            elif not isinstance(payload, dict) \
                    or payload.get("schema") != _SCHEMA:
                corrupt.append(("traces", stem, "stale schema",
                                (meta, bin_path)))
            else:
                add("traces", stem, (meta, bin_path))
        for stem, bin_path in bins.items():
            corrupt.append(("traces", bin_path.name, "bin without meta",
                            (bin_path,)))

    fresh_after = time.time() - tmp_grace
    stale = list(_tier_files(root, "*.tmp"))
    stale += [(path, "traces") for path in traces.glob("*.tmp")]
    for path, tier in stale:
        try:
            if path.stat().st_mtime > fresh_after:
                continue         # a live writer's work in progress
        except OSError:
            continue             # renamed/removed mid-scan
        corrupt.append((tier, path.name, "stale temp file", (path,)))
    return entries, corrupt


def _remove(paths: tuple[Path, ...]) -> None:
    for path in paths:
        try:
            path.unlink()
        except OSError:
            pass


def collect_garbage(root: Path, limit: int,
                    dry_run: bool = False,
                    tmp_grace: float = TMP_GRACE_SECONDS) -> GcReport:
    """Bound the cache directory to ``limit`` bytes, oldest-first.

    Corrupt items are always (reported and, unless ``dry_run``)
    removed; live entries are then evicted in LRU order until the
    total size fits the budget.
    """
    entries, corrupt_items = scan_entries(root, tmp_grace=tmp_grace)
    report = GcReport(limit=limit, dry_run=dry_run)
    for tier, name, reason, paths in corrupt_items:
        report.corrupt.append((tier, name, reason))
        if not dry_run:
            _remove(paths)
    report.scanned = sum(entry.size for entry in entries)
    total = report.scanned
    for entry in sorted(entries, key=lambda e: e.mtime):
        if total <= limit:
            break
        report.evicted.append(entry)
        total -= entry.size
        if not dry_run:
            _remove(entry.paths)
    report.kept = total
    return report


def parse_size(text: str) -> int:
    """``'512M'``/``'2G'``/``'100K'``/plain bytes to an int."""
    text = text.strip().upper()
    factor = 1
    for suffix, scale in (("K", 1 << 10), ("M", 1 << 20),
                          ("G", 1 << 30)):
        if text.endswith(suffix):
            factor = scale
            text = text[:-1]
            break
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"unparseable size {text!r}") from None
    if value < 0:
        raise ValueError("size must be non-negative")
    return int(value * factor)
