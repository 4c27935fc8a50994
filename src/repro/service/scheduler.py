"""Request scheduling: bounded queue, coalescing, worker pool.

The flow for one scheduled request (every op in ``protocol.OPS`` with a
compute function):

1. **Cache** — a tiered-cache hit returns immediately (no queue slot).
2. **Coalesce** — if an identical request (same content hash) is
   already queued or computing, the new request just awaits the same
   future; concurrent identical requests cost one computation.
3. **Admit** — otherwise the request must win a place in a bounded
   queue of requests waiting for a worker slot; a full queue fails fast
   with an ``overloaded`` error rather than stacking latency (explicit
   backpressure).
4. **Wait for a slot** — the admitted request becomes one task that
   waits for one of ``workers`` slots (at least one), so at most one
   request per pool process runs at once and a slow request never
   holds an idle pool process back from the next one.
5. **Compute** — the task makes one ``execute_op`` call on a persistent
   pool: worker processes (``workers >= 1``) so the event loop never
   blocks on pipeline work, or one thread (``workers == 0``, handy for
   tests and single-core boxes).  Results populate the cache before
   waiters wake.  A pool whose process died is replaced (logged, and
   counted in the ``metrics`` op's ``pool.restarts``); only the
   requests that were on it fail.  A source that does not compile
   fails its request with ``bad_request``: the request was wrong, not
   the service.

Per-request timeouts apply to the *wait*, not the computation: a timed
out or disconnected waiter abandons a shielded future, the computation
still finishes, and its result still lands in the cache.
"""

from __future__ import annotations

import asyncio
import logging
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Optional

from repro.compiler.driver import COMPILE_ERRORS
from repro.service import protocol
from repro.service.metrics import ServiceMetrics
from repro.service.ops import execute_op
from repro.service.protocol import ProtocolError, Request
from repro.store.tier import JsonTier

#: Version of the served-response entries, ``{"version", "result"}``.
RESULT_VERSION = 1

_log = logging.getLogger("repro.service")


def _served(entry: dict) -> Any:
    return entry["result"]


class OverloadedError(Exception):
    """The bounded request queue is full."""


@dataclass
class _Job:
    request: Request
    future: "asyncio.Future[Any]"


class BatchScheduler:
    """Owns the queue, the worker pool and the result cache."""

    def __init__(self, *,
                 cache: JsonTier,
                 workers: Optional[int] = None,
                 queue_size: int = 64,
                 default_timeout: float = 120.0,
                 metrics: Optional[ServiceMetrics] = None):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(0, workers)
        self.pool_mode = "process" if self.workers else "thread"
        self.queue_size = queue_size
        self.default_timeout = default_timeout
        self.cache = cache
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._inflight: dict[str, "asyncio.Future[Any]"] = {}
        self._executor = None
        self._tasks: set[asyncio.Task] = set()
        self._slots = asyncio.Semaphore(max(1, self.workers))
        self._waiting = 0       # admitted, not yet holding a slot
        self._stopping = False

    # -- lifecycle ---------------------------------------------------
    def _new_executor(self):
        if self.workers:
            return ProcessPoolExecutor(max_workers=self.workers)
        return ThreadPoolExecutor(max_workers=1)

    def start(self) -> None:
        self._executor = self._new_executor()

    async def stop(self) -> None:
        self._stopping = True
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- submission --------------------------------------------------
    async def submit(self, request: Request
                     ) -> tuple[Any, Optional[str]]:
        """Schedule one request; returns ``(result, cache_tier)``.

        Raises :class:`OverloadedError` when the queue is full and
        :class:`ProtocolError` (code ``timeout`` / ``internal`` /
        ``shutting_down``) on wait or compute failures.
        """
        if self._stopping:
            raise ProtocolError(protocol.SHUTTING_DOWN,
                                "server is shutting down")
        key = request.key
        if key is not None:
            result, tier = self.cache.get(key, _served)
            if tier is not None:
                return result, tier
            existing = self._inflight.get(key)
            if existing is not None:
                self.metrics.coalesced += 1
                return await self._wait(existing, request.timeout), None
        if self._waiting >= max(1, self.queue_size):
            raise OverloadedError(
                f"request queue full ({self.queue_size} pending)")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if key is not None:
            self._inflight[key] = future
        self._waiting += 1
        self.metrics.observe_queue_depth(self._waiting)
        task = loop.create_task(self._run(_Job(request, future)))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return await self._wait(future, request.timeout), None

    async def _wait(self, future: "asyncio.Future[Any]",
                    timeout: Optional[float]) -> Any:
        if timeout is None:
            timeout = self.default_timeout
        try:
            return await asyncio.wait_for(asyncio.shield(future),
                                          timeout)
        except asyncio.TimeoutError:
            raise ProtocolError(
                protocol.TIMEOUT,
                f"request did not complete within {timeout:g}s")

    @property
    def queue_depth(self) -> int:
        return self._waiting

    # -- execution ---------------------------------------------------
    async def _run(self, job: _Job) -> None:
        """One admitted request: wait for a slot, then one pool call."""
        try:
            await self._slots.acquire()
        except asyncio.CancelledError:     # stop() while it waited
            self._waiting -= 1
            self._finish(job, error=ProtocolError(
                protocol.SHUTTING_DOWN, "server is shutting down"))
            return
        self._waiting -= 1
        executor = self._executor
        try:
            result = await asyncio.get_running_loop().run_in_executor(
                executor, execute_op, job.request.op, job.request.params)
        except Exception as exc:  # bad source, or worker/pool failure
            if isinstance(exc, BrokenProcessPool):
                self._replace_pool(executor)
            error = ProtocolError(protocol.BAD_REQUEST, str(exc)) \
                if isinstance(exc, COMPILE_ERRORS) \
                else ProtocolError(protocol.INTERNAL,
                                   f"{type(exc).__name__}: {exc}")
            self._finish(job, error=error)
            return
        finally:
            self._slots.release()
        self.metrics.computations += 1
        self._finish(job, result=result)

    def _replace_pool(self, broken) -> None:
        """Swap in a fresh pool for ``broken``, once per broken pool:
        every request that was on it sees the breakage, and only the
        first to report it replaces the pool."""
        if self._stopping or self._executor is not broken:
            return
        _log.warning("worker pool broke (a pool process died); "
                     "starting a new pool of %d processes", self.workers)
        broken.shutdown(wait=False, cancel_futures=True)
        self._executor = self._new_executor()
        self.metrics.pool_restarts += 1

    def _finish(self, job: _Job, result: Any = None,
                error: Optional[Exception] = None) -> None:
        key = job.request.key
        if key is not None and self._inflight.get(key) is job.future:
            del self._inflight[key]
        if error is None and key is not None:
            self.cache.put(key, result, {"result": result})
        if job.future.done():
            return  # waiter gone and future externally resolved
        if error is not None:
            job.future.set_exception(error)
            # a timed-out waiter may never retrieve this; mark it seen
            job.future.exception()
        else:
            job.future.set_result(result)
