"""The asyncio TCP front end.

``AnalysisServer`` accepts JSON-lines connections, parses and validates
each request (:mod:`repro.service.protocol`), answers control ops
(``health`` / ``metrics`` / ``shutdown``) inline, and hands compute ops
to the :class:`~repro.service.scheduler.BatchScheduler`.  Entry points:

* :func:`run_server` — blocking; behind ``python -m repro serve``;
* :func:`serve_in_thread` — background server for tests, benchmarks and
  embedding; returns a handle with the bound address and ``stop()``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro import __version__
from repro.service import protocol
from repro.cache.lru import BoundedCache
from repro.pipeline.session import default_cache_dir
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (MAX_REQUEST_BYTES, ProtocolError,
                                    Request, encode, error_response,
                                    ok_response)
from repro.service.scheduler import (RESULT_VERSION, BatchScheduler,
                                     OverloadedError)
from repro.store.tier import SERVICE, JsonTier


@dataclass
class ServerConfig:
    """Everything tunable about one server instance."""

    host: str = "127.0.0.1"
    port: int = 8642            # 0: pick an ephemeral port
    workers: Optional[int] = None   # None: CPU count; 0: one thread
    queue_size: int = 64
    timeout: float = 120.0          # default per-request seconds
    cache_entries: int = 256        # memory-tier LRU capacity
    # Results go to cache_dir itself, traces and stack-distance profiles
    # to its traces/ and stackdist/ subdirectories.  None: the shared
    # .repro_cache layout.  use_disk_cache=False: no disk tier at all.
    cache_dir: Optional[Path] = None
    use_disk_cache: bool = True


class AnalysisServer:
    """One long-lived analysis service."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.metrics = ServiceMetrics()
        disk_dir = None
        if self.config.use_disk_cache:
            disk_dir = self.config.cache_dir \
                if self.config.cache_dir is not None \
                else default_cache_dir() / "service"
        self.cache = JsonTier(SERVICE, RESULT_VERSION, disk_dir,
                              BoundedCache(self.config.cache_entries))
        self.scheduler = BatchScheduler(
            workers=self.config.workers,
            queue_size=self.config.queue_size,
            default_timeout=self.config.timeout,
            cache=self.cache,
            metrics=self.metrics)
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = None
        self._connections: set = set()
        self._saved_stores: Optional[tuple] = None
        self.profile_store = None       # bound at start()

    # -- lifecycle ---------------------------------------------------
    def _bind_stores(self) -> None:
        """Point the ops' trace and profile stores at the configured
        cache, before the worker pool forks so the workers inherit
        them.  The default config leaves the shared stores alone."""
        from repro.cache.stackdist import ProfileStore
        from repro.service import ops
        from repro.store.tracestore import TraceStore
        self._saved_stores = (ops._TRACE_STORE, ops._PROFILE_STORE)
        if not self.config.use_disk_cache:
            ops._TRACE_STORE = None
            ops._PROFILE_STORE = ProfileStore()
        elif self.config.cache_dir is not None:
            root = Path(self.config.cache_dir)
            ops._TRACE_STORE = TraceStore(root / "traces")
            ops._PROFILE_STORE = ProfileStore(disk_dir=root / "stackdist")
        self.profile_store = ops._PROFILE_STORE

    def _restore_stores(self) -> None:
        if self._saved_stores is not None:
            from repro.service import ops
            ops._TRACE_STORE, ops._PROFILE_STORE = self._saved_stores
            self._saved_stores = None

    async def start(self) -> None:
        self._shutdown = asyncio.Event()
        self._bind_stores()
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_REQUEST_BYTES + 2)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def serve_until_shutdown(self) -> None:
        """Serve until the ``shutdown`` op (or :meth:`request_stop`)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._shutdown.wait()
            # let in-flight handlers flush their final responses, then
            # reap lingering connections before the loop goes away
            await asyncio.sleep(0.05)
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(*self._connections,
                                     return_exceptions=True)
        await self.scheduler.stop()
        self._restore_stores()

    def request_stop(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()

    # -- one connection ----------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode(error_response(
                        None, protocol.BAD_REQUEST,
                        "request exceeds size limit")))
                    await writer.drain()
                    break
                if not line:
                    break           # client closed the connection
                if not line.strip():
                    continue        # blank keep-alive line
                response = await self._handle_line(line)
                writer.write(encode(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass                    # client went away mid-request
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    RuntimeError):
                pass

    async def _handle_line(self, line: bytes) -> dict[str, Any]:
        started = time.perf_counter()
        try:
            request = protocol.parse_request(line)
        except ProtocolError as exc:
            self.metrics.record_error(exc.code)
            return error_response(None, exc.code, exc.message)
        self.metrics.record_request(request.op)
        try:
            result, cached = await self._dispatch(request)
        except OverloadedError as exc:
            self.metrics.record_error(protocol.OVERLOADED)
            return error_response(request.id, protocol.OVERLOADED,
                                  str(exc))
        except ProtocolError as exc:
            self.metrics.record_error(exc.code)
            return error_response(request.id, exc.code, exc.message)
        except Exception as exc:    # defensive: never kill the reader
            self.metrics.record_error(protocol.INTERNAL)
            return error_response(request.id, protocol.INTERNAL,
                                  f"{type(exc).__name__}: {exc}")
        self.metrics.record_ok(request.op,
                               time.perf_counter() - started)
        return ok_response(request.id, result, cached)

    async def _dispatch(self, request: Request
                        ) -> tuple[Any, Optional[str]]:
        if protocol.OPS[request.op].compute is None:
            # control op, answered by ``_op_<name>`` below
            return getattr(self, f"_op_{request.op}")(), None
        # the in-flight gauge counts scheduled work only, so a metrics
        # or health probe never observes itself
        self.metrics.begin_request()
        try:
            return await self.scheduler.submit(request)
        finally:
            self.metrics.end_request()

    def _op_metrics(self) -> dict[str, Any]:
        # The profile-store counters are exact under the thread pool;
        # under a process pool they cover only lookups made in this
        # process (each worker owns its own store).
        return self.metrics.snapshot(
            cache_stats=self.cache.stats(),
            queue_depth=self.scheduler.queue_depth,
            queue_capacity=self.config.queue_size,
            workers=self.scheduler.workers,
            pool_mode=self.scheduler.pool_mode,
            profile_store=self.profile_store.stats())

    def _op_shutdown(self) -> dict[str, Any]:
        self.request_stop()
        return {"stopping": True}

    def _op_health(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "version": __version__,
            "protocol_version": protocol.PROTOCOL_VERSION,
            "uptime_s": round(time.time() - self.metrics.started_at, 3),
            "queue_depth": self.scheduler.queue_depth,
            "in_flight": self.metrics.in_flight,
            "workers": self.scheduler.workers,
            "pool_mode": self.scheduler.pool_mode,
        }


# -- entry points ----------------------------------------------------

def run_server(config: Optional[ServerConfig] = None,
               stats: bool = False) -> dict[str, Any]:
    """Blocking server loop; returns the final metrics snapshot."""
    config = config or ServerConfig()
    holder: dict[str, Any] = {}

    async def main() -> None:
        server = AnalysisServer(config)
        await server.start()
        # parsed by scripts/service_smoke.py — keep the format stable
        print(f"repro service listening on "
              f"{server.host}:{server.port}", flush=True)
        try:
            await server.serve_until_shutdown()
        finally:
            holder["snapshot"] = server._op_metrics()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    snapshot = holder.get("snapshot", {})
    if stats and snapshot:
        import json as _json
        print(_json.dumps(snapshot, indent=2))
    return snapshot


class ServerHandle:
    """A server running on a background thread (tests/benchmarks)."""

    def __init__(self, server: AnalysisServer, loop, thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"{self.server.host}:{self.server.port}"

    def stop(self, timeout: float = 10.0) -> None:
        try:
            self._loop.call_soon_threadsafe(self.server.request_stop)
        except RuntimeError:
            pass    # loop already closed (e.g. via the shutdown op)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(config: Optional[ServerConfig] = None
                    ) -> ServerHandle:
    """Start a server on a daemon thread; block until it is listening."""
    config = config or ServerConfig(port=0, workers=0)
    ready = threading.Event()
    box: dict[str, Any] = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = AnalysisServer(config)
        box["loop"] = loop
        box["server"] = server

        async def main() -> None:
            await server.start()
            ready.set()
            await server.serve_until_shutdown()

        try:
            loop.run_until_complete(main())
        except Exception as exc:    # startup failure: unblock the caller
            box["error"] = exc
            ready.set()
        finally:
            loop.close()

    thread = threading.Thread(target=runner,
                              name="repro-service", daemon=True)
    thread.start()
    ready.wait(30.0)
    if "error" in box:
        raise box["error"]
    if not ready.is_set():
        raise RuntimeError("service failed to start within 30s")
    return ServerHandle(box["server"], box["loop"], thread)
