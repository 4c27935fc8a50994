"""Spans and counts recorded around each layer's public functions.

Nothing under ``src/`` knows about tracing: :meth:`Tracer.install`
replaces every function in :data:`FUNCTIONS` at each module that binds
it (``repro.api.compile_source`` as well as
``repro.compiler.driver.compile_source``), every method in
:data:`METHODS` on its class, and every table renderer in
``repro.experiments.runner.EXPERIMENTS``.  Install before any pool
forks: campaign and server workers are forked from this process, so
they inherit the wrappers, and each writes its spans to its own file.

A span records its name, start, end, parent span, the id of the cell or
request it serves, the process, and counts taken at the same boundary.
A span's self time is its duration minus the time its child spans
cover; the per-layer metrics in :func:`layer_metrics` sum self times.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

#: Free functions: (defining module, name, span name).
FUNCTIONS = (
    ("repro.compiler.driver", "compile_source", "compiler.compile"),
    ("repro.patterns.builder", "build_load_infos", "patterns.build"),
    ("repro.cache.stackdist", "simulate_sweep", "cache.sweep"),
    ("repro.cache.model", "simulate_trace_multi", "cache.replay"),
    ("repro.cache.model", "simulate_trace", "cache.replay"),
    ("repro.analytic.engine", "predict_profile", "analytic.predict"),
    ("repro.tlb.model", "simulate_tlb", "tlb.sweep"),
    ("repro.tlb.pcax", "pcax_profile", "tlb.pcax"),
    ("repro.redundancy.analyzer", "analyze_redundancy",
     "redundancy.analyze"),
    ("repro.api", "analyze_program", "api.analyze"),
    ("repro.service.ops", "execute_op", "service.compute"),
)

#: Methods: (module, class, method, span name).
METHODS = (
    ("repro.heuristic.classifier", "DelinquencyClassifier", "classify",
     "heuristic.classify"),
    ("repro.machine.simulator", "Machine", "__init__", "machine.build"),
    ("repro.machine.simulator", "Machine", "run", "machine.run"),
    ("repro.machine.simulator", "Machine", "run_streaming",
     "machine.run"),
    ("repro.store.tracestore", "TraceStoreWriter", "__call__",
     "store.encode"),
    ("repro.store.tracestore", "TraceStoreWriter", "close",
     "store.encode"),
    ("repro.store.tracestore", "TraceStore", "open", "store.open"),
    ("repro.store.tracestore", "TraceStore", "delete", "store.delete"),
    ("repro.machine.trace", "ChunkStream", "__iter__", "store.decode"),
    ("repro.cache.stackdist", "ProfileStore", "get", "cache.profile_get"),
    ("repro.cache.stackdist", "ProfileStore", "get_analytic",
     "cache.profile_get"),
    ("repro.pipeline.session", "Session", "stats_multi",
     "pipeline.stats_multi"),
    ("repro.campaign.engine", "Campaign", "run", "campaign.run"),
)

#: Modules imported before the import-site scan, so that every module
#: which binds a wrapped name already exists when the scan runs.
_PRELOAD = (
    "repro", "repro.api", "repro.pipeline.session",
    "repro.campaign.engine", "repro.experiments.runner",
    "repro.service.ops", "repro.service.scheduler",
    "repro.service.server", "repro.tlb", "repro.redundancy",
    "repro.analytic",
)


def _label(fn: Callable) -> str:
    """``module.qualname`` of a wrapped callable (partials: the target)."""
    target = getattr(fn, "func", fn)
    return f"{target.__module__}.{target.__qualname__}"


def _mode(optimize: bool) -> str:
    return "opt" if optimize else "base"


def _counts_of(span_name: str, result: Any) -> dict[str, float]:
    """Counts recorded at one boundary, from the call and its result."""
    if span_name == "machine.run":
        rows = len(result.trace) if result.trace is not None else 0
        return {"steps": result.steps, "rows": rows}
    if span_name in ("store.open", "cache.profile_get"):
        return {"hit": int(result is not None)}
    if span_name == "analytic.predict":
        return {"confident": int(bool(result.confident))}
    return {}


def _ref_of(span_name: str, args: tuple, kwargs: dict) -> Optional[str]:
    """The cell or request a top-level call serves, when the call says."""
    if span_name == "pipeline.stats_multi":
        given = list(args[1:4])             # args[0] is the Session
        workload, input_name, optimize = (
            given + [None, "input1", False][len(given):])
        workload = kwargs.get("workload", workload)
        input_name = kwargs.get("input_name", input_name)
        optimize = kwargs.get("optimize", optimize)
        return f"run:{workload}:{input_name}:{_mode(bool(optimize))}"
    if span_name == "service.compute":
        from repro.service.protocol import request_key
        op, params = args[0], args[1]
        return f"{op}:{request_key(op, params)[:12]}"
    return None


class Tracer:
    """Per-process span recorder; worker processes flush to files."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self.active = False
        self.sites: dict[str, list[str]] = {}
        self._restore: list[tuple[Any, str, Any]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # Workers only exist while a round runs; spans they record
        # outside a measured window are dropped when the run is read.
        self._reset()
        self.active = True

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict[str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording -------------------------------------------------------
    def begin(self, name: str, ref: Optional[str] = None,
              fn: Optional[str] = None) -> dict[str, Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": f"{self.pid}:{next(self._ids)}",
            "name": name,
            "fn": fn or name,
            "parent": parent["id"] if parent else None,
            "ref": ref if ref is not None
            else (parent["ref"] if parent else None),
            "pid": self.pid,
            "counts": {},
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        return record

    def end(self, record: dict[str, Any]) -> None:
        record["end"] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(record)
        if not stack and self.pid != self.main_pid:
            self._flush()

    def _flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        path = self.directory / f"spans-{self.pid}.jsonl"
        with open(path, "a") as out:
            for record in spans:
                out.write(json.dumps(record) + "\n")

    def collect(self) -> list[dict[str, Any]]:
        """Every span of this run: this process's and each worker's."""
        spans = list(self.spans)
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            with open(path) as lines:
                spans.extend(json.loads(line) for line in lines)
        return spans

    # -- wrappers --------------------------------------------------------
    def _wrap(self, fn: Callable, name: str,
              ref: Optional[Callable] = None) -> Callable:
        tracer = self
        label = _label(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = tracer.begin(
                name, (ref or _ref_of)(name, args, kwargs), label)
            try:
                result = fn(*args, **kwargs)
                record["counts"].update(_counts_of(name, result))
                return result
            finally:
                tracer.end(record)
        return wrapper

    def _wrap_streaming(self, fn: Callable) -> Callable:
        """``Machine.run_streaming``: rows are counted at the sink."""
        tracer = self

        @functools.wraps(fn)
        def run_streaming(machine, sink, *args, **kwargs):
            if not tracer.active:
                return fn(machine, sink, *args, **kwargs)
            rows = 0

            def counting_sink(chunk):
                nonlocal rows
                rows += len(chunk)
                sink(chunk)
            record = tracer.begin("machine.run", fn=_label(fn))
            try:
                result = fn(machine, counting_sink, *args, **kwargs)
                record["counts"].update(steps=result.steps, rows=rows)
                return result
            finally:
                tracer.end(record)
        return run_streaming

    def _wrap_chunks(self, fn: Callable) -> Callable:
        """``ChunkStream.__iter__``: one span per ``next()`` (decode)."""
        tracer = self

        label = _label(fn)

        def timed(chunks: Iterable) -> Iterator:
            iterator = iter(chunks)
            while True:
                record = tracer.begin("store.decode", fn=label)
                try:
                    chunk = next(iterator, None)
                    if chunk is not None:
                        record["counts"]["rows"] = len(chunk)
                finally:
                    tracer.end(record)
                if chunk is None:
                    return
                yield chunk

        @functools.wraps(fn)
        def __iter__(stream):
            if not tracer.active:
                return fn(stream)
            return timed(fn(stream))
        return __iter__

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at every import site (see module doc)."""
        import importlib
        for module in _PRELOAD:
            importlib.import_module(module)
        from repro.experiments import runner
        for module_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, name)
            sites = []
            for mod_name, module in sorted(sys.modules.items()):
                if not mod_name.startswith("repro") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
                        sites.append(f"{mod_name}.{key}")
            self.sites[f"{module_name}.{attr}"] = sites
        for module_name, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = vars(cls)[method]
            if method == "run_streaming":
                wrapper = self._wrap_streaming(original)
            elif method == "__iter__":
                wrapper = self._wrap_chunks(original)
            else:
                wrapper = self._wrap(original, name)
            self._replace(cls, method, wrapper)
            self.sites[f"{module_name}.{cls_name}.{method}"] = [
                f"{module_name}.{cls_name}.{method}"]
        for number, render in sorted(runner.EXPERIMENTS.items()):
            ref = f"table:{number:02d}"
            self._replace_item(runner.EXPERIMENTS, number, self._wrap(
                render, "experiments.table",
                ref=lambda name, args, kwargs, ref=ref: ref))
        self.sites["repro.experiments.runner.EXPERIMENTS"] = [
            f"table:{n:02d}" for n in sorted(runner.EXPERIMENTS)]

    def _replace_item(self, mapping: dict, key: Any, value: Any) -> None:
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        """Put every original back, newest replacement first."""
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()


# -- aggregation ---------------------------------------------------------

def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = union_length((max(start, a), min(end, b))
                               for a, b in children.get(span["id"], ())
                               if b > start and a < end)
        result[span["id"]] = (end - start) - covered
    return result


#: Spans that only wait for the layers below them: the campaign's parent
#: waiting for its workers, and a benchmark client waiting for a reply.
WAITING = ("campaign.run", "service.request")


def coverage(spans: list[dict[str, Any]],
             windows: list[tuple[float, float]]) -> float:
    """Share of the measured windows during which some layer is at work.

    A layer is at work while any process is inside one of its spans;
    the :data:`WAITING` spans do not count, so the time they spend
    waiting is the part no layer accounts for.
    """
    work = [(s["start"], s["end"]) for s in spans
            if s["name"] not in WAITING]
    total = sum(end - start for start, end in windows)
    covered = sum(union_length((max(a, start), min(b, end))
                               for a, b in work if b > start and a < end)
                  for start, end in windows)
    return covered / total if total else 0.0


#: Per-layer time metric -> span names whose self times it sums.
SELF_TIME_METRICS = {
    "compiler.compile_s": ("compiler.compile",),
    "patterns.build_s": ("patterns.build",),
    "heuristic.classify_s": ("heuristic.classify",),
    "machine.build_s": ("machine.build",),
    "machine.run_s": ("machine.run",),
    "store.encode_s": ("store.encode",),
    "store.decode_s": ("store.decode", "store.open", "store.delete"),
    "cache.sweep_s": ("cache.sweep",),
    "cache.replay_s": ("cache.replay",),
    "analytic.predict_s": ("analytic.predict",),
    "tlb.sweep_s": ("tlb.sweep",),
    "tlb.pcax_s": ("tlb.pcax",),
    "redundancy.analyze_s": ("redundancy.analyze",),
    "experiments.render_self_s": ("experiments.table",),
    "pipeline.stats_multi_s": ("pipeline.stats_multi",),
    "api.analyze_s": ("api.analyze",),
    "service.compute_s": ("service.compute",),
}


def layer_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Span-derived per-layer totals over every process of the run.

    Times are self times except ``experiments.table16_s`` and
    ``experiments.table17_s`` (each table's whole render, children
    included) and ``service.compute_inclusive_s`` (whole ``execute_op``
    calls, used to split client latency into compute and wait).
    """
    own = self_times(spans)
    by_name: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    names = {span["id"]: span["name"] for span in spans}
    metrics: dict[str, float] = {}
    for metric, span_names in SELF_TIME_METRICS.items():
        metrics[metric] = sum(own[s["id"]] for name in span_names
                              for s in by_name[name])

    def count(name: str, key: Optional[str] = None,
              value: Optional[int] = None) -> int:
        spans_of = by_name[name]
        if key is None:
            return len(spans_of)
        if value is None:
            return sum(s["counts"].get(key, 0) for s in spans_of)
        return sum(1 for s in spans_of if s["counts"].get(key) == value)

    metrics["compiler.calls"] = count("compiler.compile")
    metrics["patterns.calls"] = count("patterns.build")
    metrics["machine.steps"] = count("machine.run", "steps")
    metrics["machine.trace_rows"] = count("machine.run", "rows")
    metrics["store.chunks"] = sum(1 for s in by_name["store.decode"]
                                  if "rows" in s["counts"])
    metrics["store.open_hits"] = count("store.open", "hit", 1)
    metrics["store.open_misses"] = count("store.open", "hit", 0)
    metrics["store.deletes"] = count("store.delete")
    metrics["cache.multi_replays"] = sum(
        1 for s in by_name["cache.replay"]
        if names.get(s["parent"]) == "cache.sweep")
    metrics["cache.profile_hits"] = count("cache.profile_get", "hit", 1)
    metrics["cache.profile_misses"] = count("cache.profile_get", "hit", 0)
    predictions = count("analytic.predict")
    metrics["analytic.confident_share"] = (
        count("analytic.predict", "confident") / predictions
        if predictions else 0.0)
    for number in (16, 17):
        metrics[f"experiments.table{number}_s"] = sum(
            s["end"] - s["start"] for s in by_name["experiments.table"]
            if s["ref"] == f"table:{number:02d}")
    metrics["service.compute_inclusive_s"] = sum(
        s["end"] - s["start"] for s in by_name["service.compute"])
    return metrics


def self_time_shares(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Span name -> share of all recorded self time (README baseline)."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += own[span["id"]]
    grand = sum(totals.values())
    return {name: value / grand for name, value in
            sorted(totals.items(), key=lambda item: -item[1])} \
        if grand else {}
