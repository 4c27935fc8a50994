"""The benchmark's workloads: two grid regenerations and a served mix.

Each workload runs in *rounds*; every round starts from a fresh cache
directory inside the run's work directory, so no round (and no run)
sees another's caches.  A run keeps starting rounds until ``seconds``
have passed and at least :data:`MIN_ROUNDS` have finished, then reports
medians over its rounds.

* ``grid_cold`` — a campaign over all 17 tables from an empty cache.
* ``grid_replay`` — the same campaign from a copy of a trace store
  that set-up filled once per run, so it runs zero executions.
* ``serve_explore`` — a closed loop of two client connections against a
  fresh in-process server with one worker process per CPU.

The grids cover :data:`GRID_PROGRAMS` only (see
:func:`restricted_grid`): the full 18-program grid takes about a minute
per campaign on two cores, too long to repeat within one run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import random
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Optional

from perfbench.tracer import (Tracer, coverage, layer_metrics,
                              self_time_shares)

SCALE = 0.03

#: The grid's programs: two training-set members (Tables 3-5, 7-9 and
#: 13 need them) and one held-out program (Table 10).
GRID_PROGRAMS = ("129.compress", "181.mcf", "022.li")

WORKLOADS = ("grid_cold", "grid_replay", "serve_explore")

#: End-to-end metric -> unit, in BENCHMARK.json order.
END_TO_END = {
    "wall_s": "s", "throughput_rps": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
}
#: Per-layer metric -> unit, in BENCHMARK.json order.
PER_LAYER = {
    "compiler.compile_s": "s", "compiler.calls": "count",
    "patterns.build_s": "s", "patterns.calls": "count",
    "heuristic.classify_s": "s",
    "machine.build_s": "s", "machine.run_s": "s",
    "machine.steps": "count", "machine.trace_rows": "count",
    "store.encode_s": "s", "store.bytes_written": "bytes",
    "store.decode_s": "s", "store.chunks": "count",
    "store.open_hits": "count", "store.open_misses": "count",
    "store.deletes": "count",
    "cache.sweep_s": "s", "cache.replay_s": "s",
    "cache.multi_replays": "count", "cache.profile_hits": "count",
    "cache.profile_misses": "count",
    "analytic.predict_s": "s", "analytic.confident_share": "ratio",
    "tlb.sweep_s": "s", "tlb.pcax_s": "s", "redundancy.analyze_s": "s",
    "experiments.render_self_s": "s", "experiments.table16_s": "s",
    "experiments.table17_s": "s",
    "campaign.cells_computed": "count", "campaign.cells_cached": "count",
    "campaign.worker_busy_s": "s", "campaign.parent_s": "s",
    "campaign.utilization": "ratio",
    "pipeline.stats_multi_s": "s", "api.analyze_s": "s",
    "service.compute_s": "s", "service.wait_s": "s",
    "service.cache_hit_rate": "ratio", "service.coalesced": "count",
    "service.merged_simulate": "count", "service.queue_peak": "count",
    "service.errors": "count",
    "trace.wall_s": "s", "trace.coverage": "ratio", "trace.spans": "count",
}


#: serve_explore's programs: a small compression kernel, an object
#: store, a pointer-chasing solver and a dense stencil.  Every round
#: serves all four.
SERVE_PROGRAMS = ("129.compress", "147.vortex", "181.mcf", "101.tomcatv")

#: The (input, optimize) variant of each program, one variant each.
#: Every round serves the same four, so rounds cost about the same and
#: a run's median round is not one particular variant mix: a variant's
#: trace can be three times another's.
SERVE_VARIANTS = (("input1", False), ("input1", True), ("input2", False),
                  ("input2", True))
SERVE_CLIENTS = 2

#: Distinct requests per program and round, by op; then SERVE_REPEATS
#: exact repeats of earlier requests of the round are mixed in.  The
#: static ops (classify, predict) and the repeats make up 70% of a
#: round, so the median request falls in the middle of the static ones
#: rather than on the edge between fast and slow ops, where it would
#: jump from run to run.
SERVE_PER_PROGRAM = (("classify", 3), ("predict", 3), ("simulate", 2),
                     ("tlb", 1), ("redundancy", 1), ("analyze", 1))
SERVE_REPEATS = 24


def _cache(size_kb: int, assoc: int) -> dict[str, int]:
    return {"size": size_kb * 1024, "assoc": assoc, "block_size": 32}


#: Parameter choices per op; a request names its choice by index.
CLASSIFY_DELTAS = (0.10, 0.20, 0.30)
SIMULATE_SETS = (
    [_cache(8, 4)],
    [_cache(8, 2), _cache(8, 8)],
    [_cache(8, 4), _cache(16, 4), _cache(32, 4)],
    [_cache(8, 2), _cache(8, 4), _cache(16, 4), _cache(64, 4)],
)
PREDICT_SETS = (
    [_cache(8, 4)],
    [_cache(16, 4), _cache(32, 4)],
    [_cache(8, 2), _cache(8, 8)],
)
TLB_SETS = (
    [{"page_size": 256, "entries": 8}],
    [{"page_size": 256, "entries": 8}, {"page_size": 256, "entries": 32}],
)
CHOICES = {"classify": len(CLASSIFY_DELTAS), "analyze": 1,
           "redundancy": 1, "simulate": len(SIMULATE_SETS),
           "predict": len(PREDICT_SETS), "tlb": len(TLB_SETS)}

REQUEST_TIMEOUT_S = 120.0
SETUP_REPEATS = 15

#: Rounds per run at least, whatever ``seconds`` says: a grid round
#: takes 4-8 s and a served round 11-17 s on two cores, and three served
#: rounds give 204 latency samples, enough for a p90 with ten beyond it.
MIN_ROUNDS = {"grid_cold": 4, "grid_replay": 4, "serve_explore": 3}


# -- digests ---------------------------------------------------------------

def digest(payload: Any) -> str:
    """sha1 of the canonical JSON of a JSON-able value."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


def table_digest(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def load_expected(name: str) -> dict[str, str]:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text())


# -- the grid ----------------------------------------------------------------

@contextlib.contextmanager
def restricted_grid(names: tuple[str, ...] = GRID_PROGRAMS) -> Iterator:
    """Restrict every table's spec and renderer to ``names``.

    Each table keeps its own program order and input/optimize/cache
    grid; only the program list shrinks.  The campaign and the serial
    runner read the same two places, so both see the same grid.
    """
    from repro.experiments import runner
    saved = []
    for number, module in sorted(runner.TABLE_MODULES.items()):
        spec = module.SPEC
        if not spec.names:
            continue
        keep = tuple(name for name in spec.names if name in names)
        saved.append((module, spec, number, runner.EXPERIMENTS[number]))
        module.SPEC = dataclasses.replace(spec, names=keep)
        runner.EXPERIMENTS[number] = functools.partial(module.run,
                                                       names=keep)
    try:
        yield
    finally:
        for module, spec, number, render in saved:
            module.SPEC = spec
            runner.EXPERIMENTS[number] = render


def campaign_jobs() -> int:
    """The campaign's default job count, capped at the CPU count."""
    from repro.pipeline.session import _resolve_jobs
    return min(_resolve_jobs(None), os.cpu_count() or 1)


def fill_trace_store(cache_dir: Path) -> None:
    """Execute every grid run once, streaming only into the trace store."""
    from repro.experiments.grid import campaign_cells
    from repro.pipeline.session import Session
    session = Session(SCALE, cache_dir=cache_dir)
    for cell in campaign_cells():
        session.profile(cell.workload, cell.input_name, cell.optimize)


def fill_in_child(cache_dir: Path) -> None:
    """:func:`fill_trace_store` in a forked child, which then exits.

    The fill executes every grid run; in a child, neither its memory
    nor anything it memoises stays in the process that runs the rounds.
    """
    child = multiprocessing.get_context("fork").Process(
        target=fill_trace_store, args=(cache_dir,),
        name="perfbench-fill")
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"filling the trace store failed "
                           f"(exit code {child.exitcode})")


def _grid_round(cache_dir: Path, fill_s: float, jobs: int,
                expected: dict[str, str], run: "Run") -> None:
    """One campaign from ``cache_dir``; ``fill_s`` is the store's fill time.

    Building the campaign takes milliseconds: time several, keep the
    median, and add the time it took to fill the trace store (zero for
    ``grid_cold``) to make the round's set-up time.
    """
    from repro.campaign.engine import Campaign
    from repro.pipeline.session import Session
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        campaign = Campaign(Session(SCALE, cache_dir=cache_dir))
        setups.append(time.perf_counter() - started)
    setup = fill_s + statistics.median(setups)
    # A table's latency is the time from the campaign's start until the
    # table is rendered: how long its reader waits for it.
    ready: list[float] = []

    def note(message: str) -> None:
        if message.endswith(" rendered"):
            ready.append(time.perf_counter())
    window_start = time.perf_counter()
    run.tracing(True)
    try:
        result = campaign.run(jobs=jobs, echo=note)
    except Exception as exc:    # a broken campaign fails every table
        run.tracing(False)
        run.attempted += len(expected)
        run.fail(len(expected), f"campaign: {type(exc).__name__}: {exc}")
        run.add_round(setup, time.perf_counter() - window_start, [],
                      window_start)
        return
    run.tracing(False)
    wall = time.perf_counter() - window_start
    for number, sha in sorted(expected.items()):
        run.attempted += 1
        text = result.tables.get(int(number))
        if text is None or table_digest(text) != sha:
            run.fail(1, f"table {number}: output digest differs")
    entries = [entry for entry in campaign.manifest.entries()
               if entry.get("campaign") == result.campaign_id]
    run.add_round(setup, wall, [at - window_start for at in ready],
                  window_start)
    busy = sum(float(e["wall_s"]) for e in entries
               if e.get("kind") in ("run", "analytic"))
    workers = max(1, min(jobs, result.computed - len(result.tables)))
    run.add_layers({
        "campaign.cells_computed": result.computed,
        "campaign.cells_cached": result.cached,
        "campaign.worker_busy_s": busy,
        "campaign.parent_s": sum(float(e["wall_s"]) for e in entries
                                 if e.get("kind") == "table"),
        "campaign.utilization": busy / (workers * wall),
    })


# -- the served mix ------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Item:
    """One request of the served mix."""

    workload: str
    input_name: str
    optimize: bool
    op: str
    choice: int = 0

    @property
    def descriptor(self) -> str:
        mode = "opt" if self.optimize else "base"
        return (f"{self.workload}|{self.input_name}|{mode}|{self.op}"
                f"|{self.choice}")

    def params(self, source: str) -> dict[str, Any]:
        params: dict[str, Any] = {"source": source,
                                  "optimize": self.optimize}
        if self.op == "classify":
            params["delta"] = CLASSIFY_DELTAS[self.choice]
        elif self.op == "simulate":
            params["configs"] = SIMULATE_SETS[self.choice]
        elif self.op == "predict":
            params["configs"] = PREDICT_SETS[self.choice]
            params["fallback"] = False
        elif self.op == "tlb":
            params["geometries"] = TLB_SETS[self.choice]
        return params


def all_items() -> list[Item]:
    """Every request serve_explore can send, whatever the seed."""
    return [Item(workload, *variant, op, choice)
            for workload, variant in zip(SERVE_PROGRAMS, SERVE_VARIANTS)
            for op, _ in SERVE_PER_PROGRAM
            for choice in range(CHOICES[op])]


def round_deck(number: int, rng: random.Random) -> list[Item]:
    """Round ``number``'s requests; ``rng`` draws their parameters.

    Each program gets a fixed number of distinct requests per op
    (distinct parameter choices drawn by ``rng``), so every program
    recurs under several request keys; the repeats are exact copies of
    earlier requests in the shuffled deck.  The order, and which
    positions repeat, depend on ``number`` only: every seed then
    overlaps the same slow and fast requests, and runs differ in what
    they ask, not in how their requests contend.
    """
    deck = []
    for workload, variant in zip(SERVE_PROGRAMS, SERVE_VARIANTS):
        program = (workload,) + variant
        for op, count in SERVE_PER_PROGRAM:
            for choice in rng.sample(range(CHOICES[op]), count):
                deck.append(Item(*program, op, choice))
    order = random.Random(number)
    order.shuffle(deck)
    for _ in range(SERVE_REPEATS):
        position = order.randrange(len(SERVE_PROGRAMS), len(deck) + 1)
        deck.insert(position, order.choice(deck[:position]))
    return deck


class _Sources:
    """Generated MiniC text per (workload, input), made once."""

    def __init__(self):
        self._texts: dict[tuple[str, str], str] = {}
        self._lock = threading.Lock()

    def get(self, workload: str, input_name: str) -> str:
        with self._lock:
            key = (workload, input_name)
            if key not in self._texts:
                from repro.workloads.registry import get
                self._texts[key] = get(workload).generate(input_name,
                                                          scale=SCALE)
            return self._texts[key]


@contextlib.contextmanager
def served_stores(directory: Path) -> Iterator:
    """Point the service's trace and profile stores into ``directory``.

    ``repro serve --cache-dir`` moves only the result tier; the ops
    module pins both stores to the repository's ``.repro_cache``.  Rebind
    them before the worker pool forks, so the workers inherit them.
    """
    from repro.cache.stackdist import ProfileStore
    from repro.service import ops
    from repro.store.tracestore import TraceStore
    saved = (ops._TRACE_STORE, ops._PROFILE_STORE)
    ops._TRACE_STORE = TraceStore(directory / "traces")
    ops._PROFILE_STORE = ProfileStore(disk_dir=directory / "stackdist")
    try:
        yield
    finally:
        ops._TRACE_STORE, ops._PROFILE_STORE = saved


def _reap_children(timeout: float = 30.0) -> None:
    """Wait for every worker process this run started to end."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.terminate()
                child.join(5.0)
            return
        time.sleep(0.02)


def _serve_round(directory: Path, deck: list[Item], sources: _Sources,
                 expected: dict[str, str], run: "Run") -> None:
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.server import ServerConfig, serve_in_thread
    lines = [(item, sources.get(item.workload, item.input_name))
             for item in deck]
    with served_stores(directory):
        started = time.perf_counter()
        handle = serve_in_thread(ServerConfig(
            port=0, workers=os.cpu_count() or 1,
            cache_dir=directory / "service"))
        try:
            with ServiceClient.connect(handle.address) as probe:
                # forks the worker pool, so requests find it running
                probe.call("sleep", {"seconds": 0.0})
            setup = time.perf_counter() - started
            latencies: list[float] = []
            cursor = iter(range(len(lines)))
            lock = threading.Lock()

            def client() -> None:
                with ServiceClient.connect(
                        handle.address,
                        timeout=REQUEST_TIMEOUT_S + 30) as connection:
                    while True:
                        with lock:
                            index = next(cursor, None)
                        if index is None:
                            return
                        item, source = lines[index]
                        span = run.begin_span("service.request",
                                              item.descriptor)
                        sent = time.perf_counter()
                        try:
                            response = connection.request(
                                item.op, item.params(source),
                                timeout=REQUEST_TIMEOUT_S)
                        except (ServiceError, OSError, ValueError) as exc:
                            response = {"ok": False, "error": str(exc)}
                        latency = time.perf_counter() - sent
                        run.end_span(span)
                        with lock:
                            latencies.append(latency)
                            run.attempted += 1
                            if not response.get("ok"):
                                run.fail(1, f"{item.descriptor}: "
                                            f"{response.get('error')}")
                            elif digest(response["result"]) \
                                    != expected.get(item.descriptor):
                                run.fail(1, f"{item.descriptor}: "
                                            f"output digest differs")

            window_start = time.perf_counter()
            run.tracing(True)
            threads = [threading.Thread(target=client,
                                        name=f"perfbench-client-{n}")
                       for n in range(SERVE_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            run.tracing(False)
            wall = time.perf_counter() - window_start
            with ServiceClient.connect(handle.address) as probe:
                snapshot = probe.metrics()
        finally:
            handle.stop()
            _reap_children()
    run.add_round(setup, wall, latencies, window_start)
    cache = snapshot["cache"]
    lookups = cache["memory_hits"] + cache["disk_hits"] + cache["misses"]
    run.add_layers({
        "service.cache_hits": cache["memory_hits"] + cache["disk_hits"],
        "service.cache_lookups": lookups,
        "service.coalesced": snapshot["batching"]["coalesced_requests"],
        "service.merged_simulate":
            snapshot["batching"]["merged_simulate_requests"],
        "service.errors": snapshot["errors"]["total"],
        "service.latency_s": sum(latencies),
    })
    run.queue_peak = max(run.queue_peak, snapshot["queue"]["peak"])


# -- one run ---------------------------------------------------------------------

class PeakRss:
    """Samples the resident memory of this process plus its children."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample,
                                        name="perfbench-rss", daemon=True)

    @staticmethod
    def _field(pid: str, name: str) -> int:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith(name):
                        return int(line.split()[1])
        except (OSError, ValueError, IndexError):
            pass
        return 0

    @staticmethod
    def _children() -> list[str]:
        me = str(os.getpid())
        parents: dict[str, str] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    # the field after the parenthesised command is state,
                    # then the parent pid
                    parents[entry] = stat.read().rsplit(")", 1)[1].split()[1]
            except (OSError, IndexError):
                continue
        found, frontier = [], [me]
        while frontier:
            pid = frontier.pop()
            kids = [child for child, parent in parents.items()
                    if parent == pid]
            found.extend(kids)
            frontier.extend(kids)
        return found

    def sample(self) -> None:
        total = self._field("self", "VmRSS:") + sum(
            self._field(pid, "VmRSS:") for pid in self._children())
        self.peak_kb = max(self.peak_kb, total)

    def _sample(self) -> None:
        while not self._stop.wait(self.period):
            self.sample()

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()


@dataclasses.dataclass
class Round:
    setup_s: float
    wall_s: float
    latencies_s: list[float]
    window: tuple[float, float]


class Run:
    """Accumulates one run's rounds, failures and layer counts."""

    def __init__(self, workload: str, tracer: Optional[Tracer]):
        self.workload = workload
        self.tracer = tracer
        self.rounds: list[Round] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.layer_totals: dict[str, float] = {}
        self.queue_peak = 0
        self.peak_rss_mb = 0.0
        self.jobs = 0

    def tracing(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.active = on

    def begin_span(self, name: str, ref: str):
        if self.tracer is None:
            return None
        return self.tracer.begin(name, ref)

    def end_span(self, record) -> None:
        if record is not None:
            self.tracer.end(record)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)

    def add_round(self, setup: float, wall: float,
                  latencies: list[float], window_start: float) -> None:
        self.rounds.append(Round(setup, wall, latencies,
                                 (window_start, window_start + wall)))

    def add_layers(self, values: dict[str, float]) -> None:
        for name, value in values.items():
            self.layer_totals[name] = self.layer_totals.get(name, 0.0) \
                + value

    # -- results -----------------------------------------------------------
    def latency_ms(self, fraction: float) -> float:
        """The ``fraction`` percentile of the run's latencies, in ms.

        A served request is one sample, so the served mix pools every
        round's requests.  A campaign's table waits come in a few tight
        clusters, one per batch of cells that lands; the campaign is the
        sample, so the grids take each round's percentile and report
        the median over rounds.
        """
        if self.workload.startswith("grid_"):
            return statistics.median(
                percentile(sorted(r.latencies_s), fraction)
                for r in self.rounds) * 1e3
        return percentile(sorted(v for r in self.rounds
                                 for v in r.latencies_s), fraction) * 1e3

    def end_to_end(self) -> dict[str, float]:
        replies = sum(len(r.latencies_s) for r in self.rounds)
        measured = sum(r.wall_s for r in self.rounds)
        return {
            "wall_s": statistics.median(r.wall_s for r in self.rounds),
            "throughput_rps": replies / measured if measured else 0.0,
            "latency_p50_ms": self.latency_ms(0.50),
            "latency_p90_ms": self.latency_ms(0.90),
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": statistics.median(r.setup_s for r in self.rounds),
        }

    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def per_layer(self) -> dict[str, float]:
        """Every layer metric (traced runs only).

        Counts and times are per-round means of their run totals; the
        ratios, ``service.queue_peak`` and ``trace.wall_s`` are not.
        """
        windows = [r.window for r in self.rounds]
        spans = [span for span in self.tracer.collect()
                 if any(a <= span["start"] <= b for a, b in windows)]
        rounds = len(self.rounds)
        totals = layer_metrics(spans)
        totals.update(self.layer_totals)
        totals["trace.spans"] = len(spans)
        metrics = {name: totals.get(name, 0.0) / rounds
                   for name in PER_LAYER}
        lookups = totals.get("service.cache_lookups", 0.0)
        metrics.update({
            "analytic.confident_share": totals["analytic.confident_share"],
            "service.wait_s": max(0.0, totals.get("service.latency_s", 0.0)
                                  - totals["service.compute_inclusive_s"])
            / rounds,
            "service.cache_hit_rate": (
                totals.get("service.cache_hits", 0.0) / lookups
                if lookups else 0.0),
            "service.queue_peak": self.queue_peak,
            "trace.wall_s": statistics.median(r.wall_s
                                              for r in self.rounds),
            "trace.coverage": coverage(spans, windows),
        })
        self.shares = self_time_shares(spans)
        self.spans = spans
        return metrics


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sample (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


def _dir_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*.bin")
               if path.is_file())


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work_dir: Path, min_rounds: Optional[int] = None,
                 expected: Optional[dict[str, str]] = None) -> Run:
    """Run ``workload`` for ``seconds`` (at least ``min_rounds`` rounds)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if min_rounds is None:
        min_rounds = MIN_ROUNDS[workload]
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    tracer = Tracer(work_dir / "spans") if trace else None
    run = Run(workload, tracer)
    grid = workload.startswith("grid_")
    if expected is None:
        expected = load_expected("grid" if grid else "serve")
    rng = random.Random(seed)
    sources = _Sources()
    with contextlib.ExitStack() as stack:
        if grid:
            stack.enter_context(restricted_grid())
        fill_s = 0.0
        if workload == "grid_replay":
            # Filling the store executes every grid run: do it once, and
            # give each round its own copy of the filled store.
            started = time.perf_counter()
            fill_in_child(work_dir / "filled")
            fill_s = time.perf_counter() - started
        if tracer is not None:
            tracer.install()
            stack.callback(tracer.uninstall)
        jobs = campaign_jobs()
        rss = stack.enter_context(PeakRss())
        started = time.perf_counter()
        while (len(run.rounds) < min_rounds
               or time.perf_counter() - started < seconds):
            directory = work_dir / f"round-{len(run.rounds)}"
            if workload == "grid_replay":
                shutil.copytree(work_dir / "filled" / "traces",
                                directory / "traces")
            if grid:
                _grid_round(directory, fill_s, jobs, expected, run)
            else:
                _serve_round(directory,
                             round_deck(len(run.rounds), rng), sources,
                             expected, run)
            if workload != "grid_replay":   # its store is a copy
                run.add_layers({"store.bytes_written":
                                _dir_bytes(directory / "traces")})
            shutil.rmtree(directory, ignore_errors=True)
    run.peak_rss_mb = rss.peak_kb / 1024.0
    run.jobs = jobs
    return run
