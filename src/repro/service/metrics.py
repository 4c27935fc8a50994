"""Service metrics: counters, latency percentiles, cache and batch stats.

Everything is plain in-process counting — cheap enough to record on
every request — snapshotted on demand by the ``metrics`` op and the
``repro serve --stats`` dump.  Latencies keep a bounded per-op window
(the most recent :data:`_WINDOW` samples) so percentiles track current
behaviour instead of averaging over the server's whole life.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from typing import Any, Optional

_WINDOW = 2048


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


class ServiceMetrics:
    """Mutable counters for one server instance."""

    def __init__(self):
        self.started_at = time.time()
        self.requests_by_op: Counter = Counter()
        self.responses_ok = 0
        self.errors_by_code: Counter = Counter()
        self.computations = 0
        self.batches = 0
        self.batched_requests = 0
        self.coalesced = 0
        self.merged_simulate_requests = 0
        self.queue_peak = 0
        self.rejected_connections = 0
        #: worker pools replaced after a pool process died
        self.pool_restarts = 0
        #: scheduled requests currently being handled (gauge, not a
        #: counter; health/metrics probes are excluded so they never
        #: observe themselves)
        self.in_flight = 0
        self._latency_s: dict[str, deque] = {}

    # -- recording ---------------------------------------------------
    def record_request(self, op: str) -> None:
        self.requests_by_op[op] += 1

    def record_ok(self, op: str, elapsed_s: float) -> None:
        self.responses_ok += 1
        self.record_latency(op, elapsed_s)

    def record_error(self, code: str) -> None:
        self.errors_by_code[code] += 1

    def begin_request(self) -> None:
        self.in_flight += 1

    def end_request(self) -> None:
        self.in_flight = max(0, self.in_flight - 1)

    def record_latency(self, op: str, elapsed_s: float) -> None:
        window = self._latency_s.setdefault(op, deque(maxlen=_WINDOW))
        window.append(elapsed_s)

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_requests += size

    def observe_queue_depth(self, depth: int) -> None:
        if depth > self.queue_peak:
            self.queue_peak = depth

    # -- snapshot ----------------------------------------------------
    def latency_summary(self) -> dict[str, dict[str, float]]:
        summary = {}
        for op, window in sorted(self._latency_s.items()):
            values = sorted(window)
            summary[op] = {
                "count": len(values),
                "p50_ms": round(percentile(values, 0.50) * 1e3, 3),
                "p90_ms": round(percentile(values, 0.90) * 1e3, 3),
                "p99_ms": round(percentile(values, 0.99) * 1e3, 3),
                "max_ms": round(max(values) * 1e3, 3),
            }
        return summary

    def snapshot(self, cache_stats: Optional[dict] = None,
                 queue_depth: int = 0, queue_capacity: int = 0,
                 workers: int = 0, pool_mode: str = "",
                 profile_store: Optional[dict] = None) -> dict[str, Any]:
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "requests": {
                "total": sum(self.requests_by_op.values()),
                "ok": self.responses_ok,
                "in_flight": self.in_flight,
                "by_op": dict(sorted(self.requests_by_op.items())),
            },
            "errors": {
                "total": sum(self.errors_by_code.values()),
                "by_code": dict(sorted(self.errors_by_code.items())),
            },
            "latency": self.latency_summary(),
            "cache": cache_stats or {},
            # Stackdist/analytic ProfileStore lookups (sweep + an-
            # keyspaces); campaign cache effectiveness in one glance.
            "profile_store": profile_store or {},
            "batching": {
                "computations": self.computations,
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "coalesced_requests": self.coalesced,
                "merged_simulate_requests":
                    self.merged_simulate_requests,
            },
            "queue": {
                "depth": queue_depth,
                "capacity": queue_capacity,
                "peak": self.queue_peak,
            },
            "pool": {"workers": workers, "mode": pool_mode,
                     "restarts": self.pool_restarts},
        }
