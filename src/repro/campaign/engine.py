"""The DAG-aware campaign executor.

A campaign is planned as four kinds of content-hashed cells:

* ``run`` — one ``(workload, input, optimize)`` pipeline run simulated
  under the union of every requesting table's cache geometries (one
  trace replay covers them all; misses shared across tables are
  computed exactly once),
* ``analytic`` — one trace-free reuse profile per program,
* ``scenario`` — one run's dTLB, PCAX and redundancy results from one
  fused pass over its trace (:mod:`repro.scenario`), depending on the
  run cell, which leaves the trace in the store,
* ``table`` — one formatted exhibit, depending on its spec's run,
  analytic and scenario cells.

The content-keyed tiers are the campaign's one way to reuse work.
Every run first looks each run, analytic and scenario cell up in the
session's tiers (:func:`_cell_lookup`); a warm cell finishes as
``disk`` at once.  Cold cells are computed on a process pool, each
submitted once its dependencies are done, so scenario cells queue
behind every run and analytic cell.  The disk tiers are also the one
hand-off between processes: a worker publishes its cell there, and the
parent reads it back; a cell that never reached disk is logged on the
``repro.campaign`` logger and computed again in the parent.  With
``jobs=1``, or a session without a disk tier for workers to publish
to, every cold cell is computed in the parent.

Each table is ready the moment its last dependency lands, so a slow
workload never stalls unrelated tables.  A ready table whose every
dependency was served from the tiers is read from the rendered-table
tier (:data:`repro.store.tier.TABLE`), keyed by the table cell's
digest and the code digest, so a formatter change renders it again;
otherwise the parent renders it.  Every finished cell appends
provenance (content digest, code digest, seed/config or scenario
parameters, wall time, tier) to the JSON-lines manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import time
import uuid
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.cache.lru import BoundedCache
from repro.campaign.manifest import Manifest, campaign_dir
from repro.experiments.common import Table
from repro.experiments.grid import (GridCell, campaign_cells,
                                    scenario_spec, table_specs)
from repro.pipeline.session import RunKey, Session, _resolve_jobs
from repro.scenario import ScenarioSpec
from repro.store.tier import TABLE, JsonTier
from repro.store.tracestore import code_digest

#: Block size of the analytic profiles the tables read (Table 15 uses
#: the baseline geometry's blocks).
_ANALYTIC_BLOCK_SIZE = 32

_TABLE_VERSION = 1

_log = logging.getLogger("repro.campaign")


@dataclass(frozen=True)
class CellPlan:
    """One schedulable unit of the campaign DAG."""

    id: str
    kind: str                       # run | analytic | scenario | table
    digest: str                     # content hash of inputs + params
    deps: tuple[str, ...] = ()
    cell: Optional[GridCell] = None     # run, analytic, scenario cells
    number: Optional[int] = None        # table cells
    spec: Optional[ScenarioSpec] = None     # scenario cells


@dataclass
class CampaignResult:
    """Outcome of one :meth:`Campaign.run`."""

    campaign_id: str
    #: Every requested table, rendered or read from the table tier.
    exhibits: dict[int, Table] = field(default_factory=dict)
    computed: int = 0               # cells computed this run
    cached: int = 0                 # cells served by the tiers
    elapsed: float = 0.0
    profile_store: dict[str, Any] = field(default_factory=dict)

    @property
    def tables(self) -> dict[int, str]:
        """Each exhibit's rendered text, by table number."""
        return {number: table.render()
                for number, table in sorted(self.exhibits.items())}

    def describe(self) -> str:
        return (f"{len(self.exhibits)} table(s), "
                f"{self.computed} cell(s) computed, "
                f"{self.cached} cached, {self.elapsed:.1f}s")


def _run_cell_id(cell: GridCell) -> str:
    mode = "opt" if cell.optimize else "base"
    return f"run:{cell.workload}:{cell.input_name}:{mode}"


def _analytic_cell_id(cell: GridCell) -> str:
    mode = "opt" if cell.optimize else "base"
    return (f"analytic:{cell.workload}:{cell.input_name}:{mode}"
            f":bs{_ANALYTIC_BLOCK_SIZE}")


def _scenario_cell_id(cell: GridCell) -> str:
    mode = "opt" if cell.optimize else "base"
    return f"scenario:{cell.workload}:{cell.input_name}:{mode}"


def _decode_table(entry: dict) -> Table:
    return Table(**{f.name: entry[f.name]
                    for f in dataclasses.fields(Table)})


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
        self._tables = JsonTier(
            TABLE, _TABLE_VERSION,
            session.cache_dir / "table" if session.use_disk_cache
            else None, BoundedCache(None))
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
        scenario = scenario_spec()
        for cell in merged:
            if not cell.scenario:
                continue
            digest = session._scenario_digest(RunKey(*cell.run_key),
                                              scenario)
            cell_id = _scenario_cell_id(cell)
            digests[cell_id] = digest
            plans.append(CellPlan(id=cell_id, kind="scenario",
                                  digest=digest,
                                  deps=(_run_cell_id(cell),),
                                  cell=cell, spec=scenario))
        for number in self.numbers:
            deps: list[str] = []
            for spec_cell in specs[number].cells():
                merged_cell = by_run_key[spec_cell.run_key]
                deps.append(_run_cell_id(merged_cell))
                if spec_cell.analytic:
                    deps.append(_analytic_cell_id(merged_cell))
                if spec_cell.scenario:
                    deps.append(_scenario_cell_id(merged_cell))
            deps = list(dict.fromkeys(deps))
            content = "|".join(
                [f"table{number}", f"scale{session.scale}"]
                + [digests[dep] for dep in deps])
            plans.append(CellPlan(
                id=f"table:{number:02d}", kind="table",
                digest=hashlib.sha1(content.encode()).hexdigest(),
                deps=tuple(deps), number=number))
        return plans

    # -- execution ---------------------------------------------------
    def run(self, jobs: Optional[int] = None,
            echo: Optional[Callable[[str], None]] = None
            ) -> CampaignResult:
        start = time.perf_counter()
        say = echo or (lambda text: None)
        session = self.session
        campaign_id = uuid.uuid4().hex[:12]
        self._store_counters = {}
        parent_before = dict(session._profile_store.counters)
        code = code_digest()
        plans = self.plan()
        result = CampaignResult(campaign_id=campaign_id)
        computed: set[str] = set()
        tables = [plan for plan in plans if plan.kind == "table"]
        waiting = {plan.id: set(plan.deps) for plan in tables}
        table_plans = {plan.id: plan for plan in tables}

        def finish_cell(plan: CellPlan, wall: float, tier: str,
                        **extra: Any) -> None:
            if tier == "computed":
                result.computed += 1
                computed.add(plan.id)
            else:
                result.cached += 1
            if plan.kind == "run":
                extra["configs"] = [c.describe()
                                    for c in plan.cell.configs]
                extra["seeds"] = sorted({c.rng_seed
                                         for c in plan.cell.configs})
                extra["scale"] = session.scale
            elif plan.kind == "scenario":
                extra["tlb"] = [c.describe() for c in plan.spec.tlb]
                extra["pcax_page_size"] = plan.spec.pcax_page_size
                extra["threshold"] = plan.spec.threshold
                extra["scale"] = session.scale
            self.manifest.record(plan.id, plan.kind, plan.digest,
                                 code, wall, tier, campaign_id, **extra)
            for pending in waiting.values():
                pending.discard(plan.id)

        def render_ready() -> None:
            ready = [cell_id for cell_id, pending in waiting.items()
                     if not pending]
            for cell_id in ready:
                del waiting[cell_id]
                plan = table_plans[cell_id]
                started = time.perf_counter()
                key = hashlib.sha1(
                    f"{plan.digest}|{code}".encode()).hexdigest()
                # A recomputed dependency renders its tables again.
                table = None if computed.intersection(plan.deps) \
                    else self._tables.get(key, _decode_table)[0]
                tier = "disk"
                if table is None:
                    from repro.experiments.runner import EXPERIMENTS
                    table = EXPERIMENTS[plan.number](session)
                    self._tables.put(key, table,
                                     dataclasses.asdict(table))
                    tier = "computed"
                text = table.render()
                self.tables_dir.mkdir(parents=True, exist_ok=True)
                path = self.tables_dir / f"table{plan.number:02d}.txt"
                path.write_text(text + "\n")
                result.exhibits[plan.number] = table
                finish_cell(plan, time.perf_counter() - started, tier,
                            output_sha1=hashlib.sha1(
                                text.encode()).hexdigest())
                say(f"[campaign {campaign_id}] {plan.id} rendered")

        compute: list[CellPlan] = []
        for plan in plans:
            if plan.kind == "table":
                continue
            started = time.perf_counter()
            if _cell_lookup(session, plan):
                finish_cell(plan, time.perf_counter() - started, "disk")
            else:
                compute.append(plan)

        jobs = min(_resolve_jobs(jobs), len(compute) or 1)
        where = ""
        if jobs > 1 and not session.use_disk_cache:
            jobs, where = 1, " in the parent (no disk tier to publish to)"
        say(f"[campaign {campaign_id}] {len(plans)} cell(s): "
            f"{len(compute)} to compute{where}, "
            f"{result.cached} cached")

        if jobs == 1:
            render_ready()
            for plan in compute:    # plan order puts dependencies first
                finish_cell(plan, _compute_cell(session, plan),
                            "computed")
                render_ready()
        else:
            self._run_pool(compute, jobs, finish_cell, render_ready)
        render_ready()
        if waiting:  # every dep either computed or cached: impossible
            raise RuntimeError(f"unsatisfied table deps: {waiting}")
        result.elapsed = time.perf_counter() - start
        for name, count in session._profile_store.counters.items():
            delta = count - parent_before.get(name, 0)
            self._store_counters[name] = \
                self._store_counters.get(name, 0) + delta
        result.profile_store = dict(self._store_counters)
        return result

    # -- pool execution ----------------------------------------------
    def _run_pool(self, compute: list[CellPlan], jobs: int,
                  finish_cell: Callable[[CellPlan, float, str], None],
                  render_ready: Callable[[], None]) -> None:
        """Compute the cold cells ``compute`` on ``jobs`` processes.

        A cell is submitted once the cells it depends on are done;
        dependencies outside ``compute`` were cached, so they count as
        done.  A worker publishes its cell to the shared disk tiers and
        returns only its wall time and profile-store counters.  The
        parent then reads the cell back through :func:`_cell_lookup`,
        which makes no trace pass and writes nothing.  A cell's
        dependants are submitted before the parent reads it or renders
        a table, so the workers never wait on the parent.
        """
        session = self.session
        context = (session.scale, session.max_steps,
                   str(session.cache_dir))
        ids = {plan.id for plan in compute}
        blocked = {plan.id: set(plan.deps) & ids for plan in compute}
        running: dict[Future, CellPlan] = {}

        def submit_ready() -> None:
            for plan in compute:
                if plan.id in blocked and not blocked[plan.id]:
                    del blocked[plan.id]
                    running[pool.submit(_cell_worker, context,
                                        plan)] = plan

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            submit_ready()
            render_ready()      # tables whose every cell was cached
            while running:
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                outcomes = [(running.pop(future), future.result())
                            for future in finished]
                for plan, _ in outcomes:
                    for deps in blocked.values():
                        deps.discard(plan.id)
                submit_ready()
                for plan, (wall, counters) in outcomes:
                    for name, count in counters.items():
                        self._store_counters[name] = \
                            self._store_counters.get(name, 0) + count
                    if not _cell_lookup(session, plan):
                        _log.warning(
                            "campaign cell %s never reached the disk "
                            "tier; the parent computed it again",
                            plan.id)
                        _compute_cell(session, plan)
                    finish_cell(plan, wall, "computed")
                render_ready()
        if blocked:     # a dependency cycle or a missing cell: impossible
            raise RuntimeError(f"unsatisfied cell deps: {blocked}")


def _cell_lookup(session: Session, plan: CellPlan) -> bool:
    """Is the run, analytic or scenario cell in ``session``'s tiers?

    A hit is read into the session's memory tier; a torn entry is a
    miss, as it is for the computation.
    """
    key = RunKey(*plan.cell.run_key)
    if plan.kind == "analytic":
        return session._profile_store.get_analytic(
            session._program_digest(key),
            _ANALYTIC_BLOCK_SIZE) is not None
    if plan.kind == "scenario":
        return session._scenario_lookup(key, plan.spec) is not None
    return all(session._lookup(key, config) is not None
               for config in plan.cell.configs)


def _compute_cell(session: Session, plan: CellPlan) -> float:
    """Compute one run, analytic or scenario cell in ``session``;
    returns its wall time."""
    started = time.perf_counter()
    key = RunKey(*plan.cell.run_key)
    if plan.kind == "analytic":
        session.analytic_profile(key.workload, key.input_name,
                                 key.optimize,
                                 block_size=_ANALYTIC_BLOCK_SIZE)
    elif plan.kind == "scenario":
        session.scenario(key.workload, key.input_name, key.optimize,
                         spec=plan.spec)
    else:
        session.stats_multi(key.workload, key.input_name, key.optimize,
                            plan.cell.configs)
    return time.perf_counter() - started


def _cell_worker(context: tuple, plan: CellPlan) -> tuple[float, dict]:
    """Process-pool worker: one cold cell in a private session.

    The session shares the parent's disk tiers, which carry the cell
    back: the worker returns only its wall time and its ProfileStore
    counters for aggregation.
    """
    scale, max_steps, cache_dir = context
    session = Session(scale=scale, cache_dir=Path(cache_dir),
                      max_steps=max_steps)
    wall = _compute_cell(session, plan)
    return wall, session._profile_store.counters
