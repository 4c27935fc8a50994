"""The DAG-aware campaign executor.

A campaign is planned as three kinds of content-hashed cells:

* ``run`` — one ``(workload, input, optimize)`` pipeline run simulated
  under the union of every requesting table's cache geometries (one
  trace replay covers them all; misses shared across tables are
  computed exactly once),
* ``analytic`` — one trace-free reuse profile per program,
* ``table`` — one formatted exhibit, depending on its spec's run and
  analytic cells.

Run and analytic cells fan out across a process pool (or are dispatched
to a running service endpoint with ``remote=``); each table renders in
the parent the moment its last dependency lands, so a slow workload
never stalls unrelated tables.  Every finished cell appends provenance
(content digest, code digest, seed/config, wall time, cache tier) to
the JSON-lines manifest; with ``resume=True`` any cell whose latest
manifest entry matches both digests and whose on-disk artifacts are
still warm is skipped without recomputation.

The execution tripwire: when ``$REPRO_CAMPAIGN_FORBID`` names a file of
cell ids, deciding to *compute* any of them raises — the crash-resume
test uses it to prove that completed cells are never re-executed.
"""

from __future__ import annotations

import hashlib
import os
import time
import uuid
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, ThreadPoolExecutor,
                                wait)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.cache.config import DEFAULT_RNG_SEED
from repro.cache.model import cache_config_to_dict
from repro.campaign.manifest import Manifest, campaign_dir
from repro.experiments.grid import GridCell, campaign_cells, table_specs
from repro.pipeline.session import RunKey, Session, _resolve_jobs

#: Block size of the analytic profiles the tables read (Table 15 uses
#: the baseline geometry's blocks).
_ANALYTIC_BLOCK_SIZE = 32

_FORBID_ENV = "REPRO_CAMPAIGN_FORBID"


def code_digest() -> str:
    """Content hash of every ``src/repro`` Python source.

    Part of each manifest entry: a resumed campaign only trusts cells
    recorded under the exact code that would recompute them, so any
    source change invalidates the whole ledger at once.
    """
    import repro
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha1()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@dataclass(frozen=True)
class CellPlan:
    """One schedulable unit of the campaign DAG."""

    id: str
    kind: str                       # run | analytic | table
    digest: str                     # content hash of inputs + params
    deps: tuple[str, ...] = ()
    cell: Optional[GridCell] = None     # run cells
    number: Optional[int] = None        # table cells


@dataclass
class CampaignResult:
    """Outcome of one :meth:`Campaign.run`."""

    campaign_id: str
    tables: dict[int, str] = field(default_factory=dict)  # rendered
    computed: int = 0               # cells executed this run
    skipped: int = 0                # cells resumed from the manifest
    cached: int = 0                 # cells warm in the session caches
    elapsed: float = 0.0
    profile_store: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        return (f"{len(self.tables)} table(s), "
                f"{self.computed} cell(s) computed, "
                f"{self.skipped} resumed, {self.cached} cached, "
                f"{self.elapsed:.1f}s")


def _run_cell_id(cell: GridCell) -> str:
    mode = "opt" if cell.optimize else "base"
    return f"run:{cell.workload}:{cell.input_name}:{mode}"


def _analytic_cell_id(cell: GridCell) -> str:
    mode = "opt" if cell.optimize else "base"
    return (f"analytic:{cell.workload}:{cell.input_name}:{mode}"
            f":bs{_ANALYTIC_BLOCK_SIZE}")


def _forbidden_cells() -> frozenset[str]:
    path = os.environ.get(_FORBID_ENV)
    if not path:
        return frozenset()
    try:
        text = Path(path).read_text()
    except OSError:
        return frozenset()
    return frozenset(line.strip() for line in text.splitlines()
                     if line.strip())


class Campaign:
    """Plan + execute one campaign over a shared :class:`Session`."""

    def __init__(self, session: Session,
                 numbers: Optional[Sequence[int]] = None,
                 directory: Optional[Path] = None):
        self.session = session
        specs = table_specs()
        self.numbers = sorted(specs) if numbers is None \
            else sorted(numbers)
        unknown = [n for n in self.numbers if n not in specs]
        if unknown:
            raise ValueError(f"unknown tables: {unknown}")
        self.directory = Path(directory) if directory is not None \
            else campaign_dir(session.cache_dir)
        self.tables_dir = self.directory / "tables"
        self.manifest = Manifest(self.directory)
        self.code = code_digest()
        # Parent + worker ProfileStore lookups, folded per run.
        self._store_counters: dict[str, int] = {}

    # -- planning ----------------------------------------------------
    def plan(self) -> list[CellPlan]:
        """Expand the requested tables into the cell DAG."""
        session = self.session
        specs = table_specs()
        merged = campaign_cells(self.numbers)
        by_run_key = {cell.run_key: cell for cell in merged}
        plans: list[CellPlan] = []
        digests: dict[str, str] = {}
        for cell in merged:
            key = RunKey(*cell.run_key)
            content = "|".join(session._digest(key, config)
                               for config in cell.configs)
            digest = hashlib.sha1(content.encode()).hexdigest()
            cell_id = _run_cell_id(cell)
            digests[cell_id] = digest
            plans.append(CellPlan(id=cell_id, kind="run",
                                  digest=digest, cell=cell))
        for cell in merged:
            if not cell.analytic:
                continue
            key = RunKey(*cell.run_key)
            digest = hashlib.sha1(
                f"{session._program_digest(key)}"
                f"|bs{_ANALYTIC_BLOCK_SIZE}".encode()).hexdigest()
            cell_id = _analytic_cell_id(cell)
            digests[cell_id] = digest
            plans.append(CellPlan(id=cell_id, kind="analytic",
                                  digest=digest, cell=cell))
        for number in self.numbers:
            deps: list[str] = []
            for spec_cell in specs[number].cells():
                merged_cell = by_run_key[spec_cell.run_key]
                deps.append(_run_cell_id(merged_cell))
                if spec_cell.analytic:
                    deps.append(_analytic_cell_id(merged_cell))
            deps = list(dict.fromkeys(deps))
            content = "|".join(
                [f"table{number}", f"scale{session.scale}"]
                + [digests[dep] for dep in deps])
            plans.append(CellPlan(
                id=f"table:{number:02d}", kind="table",
                digest=hashlib.sha1(content.encode()).hexdigest(),
                deps=tuple(deps), number=number))
        return plans

    # -- resume ------------------------------------------------------
    def _artifacts_warm(self, plan: CellPlan,
                        entry: dict[str, Any]) -> bool:
        """Are the cell's outputs still on disk after a restart?"""
        session = self.session
        if plan.kind == "run":
            key = RunKey(*plan.cell.run_key)
            return all(session._is_warm(key, config)
                       for config in plan.cell.configs)
        if plan.kind == "analytic":
            key = RunKey(*plan.cell.run_key)
            return session._profile_store.get_analytic(
                session._program_digest(key),
                _ANALYTIC_BLOCK_SIZE) is not None
        path = self.tables_dir / f"table{plan.number:02d}.txt"
        try:
            # write_text appended one newline to the rendered text;
            # undo exactly that so the hash matches the recorded one.
            text = path.read_text().removesuffix("\n")
        except OSError:
            return False
        return hashlib.sha1(text.encode()).hexdigest() \
            == entry.get("output_sha1")

    def _resumable(self, plan: CellPlan,
                   ledger: dict[str, dict[str, Any]]) -> bool:
        entry = ledger.get(plan.id)
        return (entry is not None
                and entry.get("digest") == plan.digest
                and entry.get("code") == self.code
                and self._artifacts_warm(plan, entry))

    # -- execution ---------------------------------------------------
    def run(self, jobs: Optional[int] = None,
            remote: Optional[str] = None, resume: bool = False,
            echo: Optional[Callable[[str], None]] = None
            ) -> CampaignResult:
        start = time.perf_counter()
        say = echo or (lambda text: None)
        campaign_id = uuid.uuid4().hex[:12]
        self._store_counters = {}
        parent_before = dict(self.session._profile_store.counters)
        plans = self.plan()
        ledger = self.manifest.latest() if resume else {}
        forbidden = _forbidden_cells()
        result = CampaignResult(campaign_id=campaign_id)

        compute: list[CellPlan] = []
        done: set[str] = set()
        rendered_from_disk: dict[int, str] = {}
        for plan in plans:
            if resume and self._resumable(plan, ledger):
                done.add(plan.id)
                result.skipped += 1
                if plan.kind == "table":
                    path = self.tables_dir \
                        / f"table{plan.number:02d}.txt"
                    rendered_from_disk[plan.number] = \
                        path.read_text().removesuffix("\n")
                continue
            if plan.kind != "table":
                compute.append(plan)
        for plan in compute:
            if plan.id in forbidden:
                raise RuntimeError(
                    f"campaign tripwire: would recompute completed "
                    f"cell {plan.id}")

        tables = [plan for plan in plans if plan.kind == "table"
                  and plan.id not in done]
        for plan in tables:
            if plan.id in forbidden:
                raise RuntimeError(
                    f"campaign tripwire: would recompute completed "
                    f"cell {plan.id}")
        waiting = {plan.id: set(plan.deps) - done for plan in tables}
        table_plans = {plan.id: plan for plan in tables}

        say(f"[campaign {campaign_id}] {len(plans)} cell(s): "
            f"{len(compute)} to compute, {result.skipped} resumed")

        def finish_cell(plan: CellPlan, wall: float, tier: str) -> None:
            if tier == "computed":
                result.computed += 1
            else:
                result.cached += 1
            extra: dict[str, Any] = {}
            if plan.kind == "run":
                extra["configs"] = [c.describe()
                                    for c in plan.cell.configs]
                extra["seeds"] = sorted({c.rng_seed
                                         for c in plan.cell.configs})
                extra["scale"] = self.session.scale
            self.manifest.record(plan.id, plan.kind, plan.digest,
                                 self.code, wall, tier, campaign_id,
                                 **extra)
            done.add(plan.id)
            for pending in waiting.values():
                pending.discard(plan.id)

        def render_ready() -> None:
            ready = [cell_id for cell_id, pending in waiting.items()
                     if not pending]
            for cell_id in ready:
                del waiting[cell_id]
                plan = table_plans[cell_id]
                started = time.perf_counter()
                from repro.experiments.runner import EXPERIMENTS
                text = EXPERIMENTS[plan.number](self.session).render()
                self.tables_dir.mkdir(parents=True, exist_ok=True)
                path = self.tables_dir / f"table{plan.number:02d}.txt"
                path.write_text(text + "\n")
                result.tables[plan.number] = text
                finish_cell_table(plan,
                                  time.perf_counter() - started, text)
                say(f"[campaign {campaign_id}] {plan.id} rendered")

        def finish_cell_table(plan: CellPlan, wall: float,
                              text: str) -> None:
            result.computed += 1
            self.manifest.record(
                plan.id, "table", plan.digest, self.code, wall,
                "computed", campaign_id,
                output_sha1=hashlib.sha1(text.encode()).hexdigest())
            done.add(plan.id)

        if remote is not None:
            self._run_remote(compute, remote, finish_cell,
                             render_ready, say)
        else:
            self._run_local(compute, jobs, finish_cell,
                            render_ready, say)
        render_ready()
        if waiting:  # every dep either computed or resumed: impossible
            raise RuntimeError(f"unsatisfied table deps: {waiting}")
        result.tables.update(rendered_from_disk)
        result.elapsed = time.perf_counter() - start
        for name, count in \
                self.session._profile_store.counters.items():
            delta = count - parent_before.get(name, 0)
            self._store_counters[name] = \
                self._store_counters.get(name, 0) + delta
        result.profile_store = dict(self._store_counters)
        return result

    # -- local execution ---------------------------------------------
    def _run_local(self, compute: list[CellPlan],
                   jobs: Optional[int],
                   finish_cell: Callable[[CellPlan, float, str], None],
                   render_ready: Callable[[], None],
                   say: Callable[[str], None]) -> None:
        session = self.session
        jobs = min(_resolve_jobs(jobs), len(compute) or 1)
        if jobs == 1:
            for plan in compute:
                wall, tier = _compute_inline(session, plan)
                finish_cell(plan, wall, tier)
                render_ready()
            return
        tasks = {
            plan.id: (session.scale, session.max_steps,
                      session.use_disk_cache, str(session.cache_dir),
                      plan.kind, plan.cell.run_key, plan.cell.configs)
            for plan in compute
        }
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures: dict[Future, CellPlan] = {
                pool.submit(_cell_worker, tasks[plan.id]): plan
                for plan in compute
            }
            pending = set(futures)
            while pending:
                finished, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                for future in finished:
                    plan = futures[future]
                    wall, tier, response, counters = future.result()
                    for name, count in counters.items():
                        self._store_counters[name] = \
                            self._store_counters.get(name, 0) + count
                    if response is not None:
                        session.absorb(RunKey(*plan.cell.run_key),
                                       plan.cell.configs, response)
                    finish_cell(plan, wall, tier)
                render_ready()

    # -- remote execution --------------------------------------------
    def _run_remote(self, compute: list[CellPlan], address: str,
                    finish_cell: Callable[[CellPlan, float, str], None],
                    render_ready: Callable[[], None],
                    say: Callable[[str], None]) -> None:
        """Dispatch run cells to a running ``repro serve`` endpoint.

        One ``simulate`` request per run cell (the scheduler merges
        concurrent requests for one trace into a single replay); the
        response's full per-PC columns and block profile rebuild the
        local session state.  Analytic cells are computed locally —
        they are static analysis, cheaper than a round trip.

        The wire form of a config carries no ``random`` seed, so a cell
        holding a seeded ``random`` config is refused before anything
        is dispatched: the service would simulate it under the default
        seed.
        """
        from repro.service.client import ServiceClient

        session = self.session
        run_cells = [plan for plan in compute if plan.kind == "run"]
        other = [plan for plan in compute if plan.kind != "run"]
        for plan in run_cells:
            seeded = [config.describe() for config in plan.cell.configs
                      if config.replacement == "random"
                      and config.rng_seed != DEFAULT_RNG_SEED]
            if seeded:
                raise ValueError(
                    f"cell {plan.id} cannot run remotely: the service "
                    f"protocol carries no rng_seed for {seeded}")
        say(f"[campaign] dispatching {len(run_cells)} run cell(s) "
            f"to {address}")

        def dispatch(plan: CellPlan) -> tuple[float, str]:
            started = time.perf_counter()
            key = RunKey(*plan.cell.run_key)
            with ServiceClient.connect(address) as client:
                response = client.simulate(
                    session.source(key.workload, key.input_name),
                    optimize=key.optimize,
                    max_steps=session.max_steps,
                    configs=[cache_config_to_dict(c)
                             for c in plan.cell.configs],
                )
            session.absorb(key, plan.cell.configs, response)
            return time.perf_counter() - started, "computed"

        with ThreadPoolExecutor(max_workers=min(8, len(run_cells)
                                                or 1)) as pool:
            futures = {pool.submit(dispatch, plan): plan
                       for plan in run_cells}
            pending = set(futures)
            while pending:
                finished, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                for future in finished:
                    plan = futures[future]
                    wall, tier = future.result()
                    finish_cell(plan, wall, tier)
                render_ready()
        for plan in other:
            wall, tier = _compute_inline(session, plan)
            finish_cell(plan, wall, tier)
            render_ready()


def _compute_inline(session: Session,
                    plan: CellPlan) -> tuple[float, str]:
    """Compute one run/analytic cell in the parent process."""
    started = time.perf_counter()
    key = RunKey(*plan.cell.run_key)
    if plan.kind == "analytic":
        tier = "disk" if session._profile_store.get_analytic(
            session._program_digest(key),
            _ANALYTIC_BLOCK_SIZE) is not None else "computed"
        session.analytic_profile(key.workload, key.input_name,
                                 key.optimize,
                                 block_size=_ANALYTIC_BLOCK_SIZE)
    else:
        tier = "disk" if all(session._is_warm(key, c)
                             for c in plan.cell.configs) \
            else "computed"
        session.stats_multi(key.workload, key.input_name,
                            key.optimize, plan.cell.configs)
    return time.perf_counter() - started, tier


def _cell_worker(task: tuple
                 ) -> tuple[float, str, Optional[dict], dict]:
    """Process-pool worker: one cell in a private session.

    Shares the on-disk caches with the parent; run cells return the
    ``simulate``-shaped response a remote service would, so the parent
    absorbs both the same way (analytic profiles travel via the shared
    profile store), plus the worker's ProfileStore counters for
    aggregation.
    """
    (scale, max_steps, use_disk_cache, cache_dir, kind,
     key_tuple, configs) = task
    started = time.perf_counter()
    session = Session(scale=scale, cache_dir=Path(cache_dir),
                      use_disk_cache=use_disk_cache,
                      max_steps=max_steps)
    key = RunKey(*key_tuple)
    if kind == "analytic":
        tier = "disk" if session._profile_store.get_analytic(
            session._program_digest(key),
            _ANALYTIC_BLOCK_SIZE) is not None else "computed"
        session.analytic_profile(key.workload, key.input_name,
                                 key.optimize,
                                 block_size=_ANALYTIC_BLOCK_SIZE)
        return (time.perf_counter() - started, tier, None,
                session._profile_store.counters)
    tier = "disk" if all(session._is_warm(key, c) for c in configs) \
        else "computed"
    response = session.simulate_response(key, configs)
    return (time.perf_counter() - started, tier, response,
            session._profile_store.counters)
