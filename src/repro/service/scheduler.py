"""Request scheduling: bounded queue, batching, coalescing, worker pool.

The flow for one scheduled request (every op in ``protocol.OPS`` with a
compute function):

1. **Cache** — a tiered-cache hit returns immediately (no queue slot).
2. **Coalesce** — if an identical request (same content hash) is
   already queued or computing, the new request just awaits the same
   future; concurrent identical requests cost one computation.
3. **Admit** — otherwise the request must win a slot in a bounded
   queue; a full queue fails fast with an ``overloaded`` error rather
   than stacking latency (explicit backpressure).
4. **Batch** — the dispatcher drains up to ``batch_max`` queued
   requests that arrive within ``batch_window`` seconds into one batch.
   ``simulate`` requests for the same (source, optimize, max_steps) are
   *merged* into a single call of the one-pass multi-config engine;
   everything else fans out across the worker pool.  Up to ``workers``
   batches (at least one) run at once, so a slow batch never holds an
   idle pool process back from the next one.
5. **Compute** — jobs run on a persistent pool: worker processes
   (``workers >= 1``) so the event loop never blocks on pipeline work,
   or one thread (``workers == 0``, handy for tests and single-core
   boxes).  Results populate the cache before waiters wake.  A pool
   whose process died is replaced (logged, and counted in the
   ``metrics`` op's ``pool.restarts``); only the jobs that were on it
   fail.  A source that does not compile fails its jobs with
   ``bad_request``: the request was wrong, not the service.

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
from repro.export import canonical_json
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
                 batch_window: float = 0.002,
                 batch_max: int = 8,
                 default_timeout: float = 120.0,
                 metrics: Optional[ServiceMetrics] = None):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(0, workers)
        self.pool_mode = "process" if self.workers else "thread"
        self.queue_size = queue_size
        self.batch_window = batch_window
        self.batch_max = max(1, batch_max)
        self.default_timeout = default_timeout
        self.cache = cache
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._queue: "asyncio.Queue[_Job]" = \
            asyncio.Queue(maxsize=max(1, queue_size))
        self._inflight: dict[str, "asyncio.Future[Any]"] = {}
        self._executor = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._batches: set[asyncio.Task] = set()
        self._slots = asyncio.Semaphore(max(1, self.workers))
        self._stopping = False

    # -- lifecycle ---------------------------------------------------
    def _new_executor(self):
        if self.workers:
            return ProcessPoolExecutor(max_workers=self.workers)
        return ThreadPoolExecutor(max_workers=1)

    def start(self) -> None:
        self._executor = self._new_executor()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._run())

    async def stop(self) -> None:
        self._stopping = True
        tasks = list(self._batches)
        if self._dispatcher is not None:
            tasks.append(self._dispatcher)
            self._dispatcher = None
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        while not self._queue.empty():
            job = self._queue.get_nowait()
            if not job.future.done():
                job.future.set_exception(ProtocolError(
                    protocol.SHUTTING_DOWN, "server is shutting down"))
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
        future = asyncio.get_running_loop().create_future()
        job = _Job(request, future)
        if key is not None:
            self._inflight[key] = future
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            if key is not None and self._inflight.get(key) is future:
                del self._inflight[key]
            raise OverloadedError(
                f"request queue full ({self.queue_size} pending)")
        self.metrics.observe_queue_depth(self._queue.qsize())
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
        return self._queue.qsize()

    # -- dispatch ----------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            # a slot per batch in flight: requests queue up (and merge)
            # while every slot is busy
            await self._slots.acquire()
            batch = [await self._queue.get()]
            while len(batch) < self.batch_max:
                try:
                    batch.append(await asyncio.wait_for(
                        self._queue.get(), self.batch_window))
                except asyncio.TimeoutError:
                    break
            self.metrics.record_batch(len(batch))
            task = loop.create_task(self._run_batch(batch))
            self._batches.add(task)
            task.add_done_callback(self._batches.discard)

    async def _run_batch(self, batch: list[_Job]) -> None:
        try:
            await asyncio.gather(
                *(self._run_group(jobs, op, params)
                  for jobs, op, params in self._plan(batch)),
                return_exceptions=True)
        finally:
            self._slots.release()

    def _plan(self, batch: list[_Job]
              ) -> list[tuple[list[_Job], str, dict]]:
        """Group a batch into executor calls, merging simulations."""
        groups: list[tuple[list[_Job], str, dict]] = []
        simulate: dict[str, list[_Job]] = {}
        for job in batch:
            if job.request.op == "simulate":
                base = canonical_json({
                    "source": job.request.params["source"],
                    "optimize": job.request.params["optimize"],
                    "max_steps": job.request.params["max_steps"],
                })
                simulate.setdefault(base, []).append(job)
            else:
                groups.append(([job], job.request.op,
                               job.request.params))
        for jobs in simulate.values():
            if len(jobs) == 1:
                groups.append((jobs, "simulate", jobs[0].request.params))
                continue
            # one replay for the union of every request's configs
            merged = dict(jobs[0].request.params)
            union = []
            for job in jobs:
                union.extend(canonical_json(c)
                             for c in job.request.params["configs"])
            keys = list(dict.fromkeys(union))
            merged["configs"] = [
                next(c for job in jobs
                     for c in job.request.params["configs"]
                     if canonical_json(c) == key)
                for key in keys]
            self.metrics.merged_simulate_requests += len(jobs)
            groups.append((jobs, "simulate", merged))
        return groups

    async def _run_group(self, jobs: list[_Job], op: str,
                         params: dict) -> None:
        loop = asyncio.get_running_loop()
        executor = self._executor
        try:
            result = await loop.run_in_executor(
                executor, execute_op, op, params)
            self.metrics.computations += 1
        except Exception as exc:  # bad source, or worker/pool failure
            if isinstance(exc, BrokenProcessPool):
                self._replace_pool(executor)
            error = ProtocolError(protocol.BAD_REQUEST, str(exc)) \
                if isinstance(exc, COMPILE_ERRORS) \
                else ProtocolError(protocol.INTERNAL,
                                   f"{type(exc).__name__}: {exc}")
            for job in jobs:
                self._finish(job, error=error)
            return
        if len(jobs) == 1:
            self._finish(jobs[0], result=result)
            return
        by_config = {canonical_json(entry["config"]): entry
                     for entry in result["results"]}
        for job in jobs:
            # Copy every top-level field, not a fixed allowlist, so
            # additions to the simulate schema survive merged requests.
            split = {k: v for k, v in result.items() if k != "results"}
            split["results"] = [by_config[canonical_json(c)] for c in
                                job.request.params["configs"]]
            self._finish(job, result=split)

    def _replace_pool(self, broken) -> None:
        """Swap in a fresh pool for ``broken``, once per broken pool:
        every group that was on it sees the breakage, and only the
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
