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

Run, analytic and scenario cells are computed on a process pool.  A
cell is submitted once its dependencies are done, so scenario cells
queue behind every run and analytic cell.  The disk tiers are the one
hand-off between processes: a worker publishes its cell there, and the
parent reads it back (:func:`_compute_cell` again, now a tier hit); a
cell that never reached disk is logged on the ``repro.campaign`` logger
and computed again in the parent.  With ``jobs=1``, or a session
without a disk tier for workers to publish to, every cell is computed
in the parent.  Each table renders in the parent the moment its last
dependency lands, so a slow workload never stalls unrelated tables,
and with a pool the parent makes no trace pass of its own.
Every finished cell appends provenance (content digest, code digest,
seed/config or scenario parameters, wall time, cache tier) to the
JSON-lines manifest; with ``resume=True`` any cell whose latest
manifest entry matches both digests and whose on-disk artifacts are
still warm is skipped without recomputation.

The execution tripwire: when ``$REPRO_CAMPAIGN_FORBID`` names a file of
cell ids, deciding to *compute* any of them raises — the crash-resume
test uses it to prove that completed cells are never re-executed.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
import uuid
from concurrent.futures import (FIRST_COMPLETED, Future,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.campaign.manifest import Manifest, campaign_dir
from repro.experiments.common import Table
from repro.experiments.grid import (GridCell, campaign_cells,
                                    scenario_spec, table_specs)
from repro.pipeline.session import RunKey, Session, _resolve_jobs
from repro.scenario import ScenarioSpec

#: Block size of the analytic profiles the tables read (Table 15 uses
#: the baseline geometry's blocks).
_ANALYTIC_BLOCK_SIZE = 32

_FORBID_ENV = "REPRO_CAMPAIGN_FORBID"

_log = logging.getLogger("repro.campaign")


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
    tables: dict[int, str] = field(default_factory=dict)  # rendered
    # The Table objects rendered this run (resumed tables: text only).
    exhibits: dict[int, Table] = field(default_factory=dict)
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


def _scenario_cell_id(cell: GridCell) -> str:
    mode = "opt" if cell.optimize else "base"
    return f"scenario:{cell.workload}:{cell.input_name}:{mode}"


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
        if plan.kind == "scenario":
            return session._scenario_warm(RunKey(*plan.cell.run_key),
                                          plan.spec)
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
    def run(self, jobs: Optional[int] = None, resume: bool = False,
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
        tables = [plan for plan in plans if plan.kind == "table"
                  and plan.id not in done]
        for plan in compute + tables:
            if plan.id in forbidden:
                raise RuntimeError(
                    f"campaign tripwire: would recompute completed "
                    f"cell {plan.id}")
        waiting = {plan.id: set(plan.deps) - done for plan in tables}
        table_plans = {plan.id: plan for plan in tables}

        jobs = min(_resolve_jobs(jobs), len(compute) or 1)
        where = ""
        if jobs > 1 and not self.session.use_disk_cache:
            jobs, where = 1, " in the parent (no disk tier to publish to)"
        say(f"[campaign {campaign_id}] {len(plans)} cell(s): "
            f"{len(compute)} to compute{where}, "
            f"{result.skipped} resumed")

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
            elif plan.kind == "scenario":
                extra["tlb"] = [c.describe() for c in plan.spec.tlb]
                extra["pcax_page_size"] = plan.spec.pcax_page_size
                extra["threshold"] = plan.spec.threshold
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
                table = EXPERIMENTS[plan.number](self.session)
                text = table.render()
                self.tables_dir.mkdir(parents=True, exist_ok=True)
                path = self.tables_dir / f"table{plan.number:02d}.txt"
                path.write_text(text + "\n")
                result.tables[plan.number] = text
                result.exhibits[plan.number] = table
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

        if jobs == 1:
            for plan in compute:    # plan order puts dependencies first
                finish_cell(plan, *_compute_cell(self.session, plan))
                render_ready()
        else:
            self._run_pool(compute, jobs, finish_cell, render_ready)
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

    def exhibits(self, result: CampaignResult) -> dict[int, Table]:
        """Every table of ``result`` as a :class:`Table`, for the report.

        A table resumed from disk is rebuilt from the warm tiers its
        cells filled (no trace pass) and must render to the text on disk.
        """
        from repro.experiments.runner import EXPERIMENTS
        tables = dict(result.exhibits)
        for number in result.tables.keys() - tables.keys():
            tables[number] = EXPERIMENTS[number](self.session)
            if tables[number].render() != result.tables[number]:
                raise RuntimeError(f"table {number} resumed from disk "
                                   f"differs from its rebuild")
        return dict(sorted(tables.items()))

    # -- pool execution ----------------------------------------------
    def _run_pool(self, compute: list[CellPlan], jobs: int,
                  finish_cell: Callable[[CellPlan, float, str], None],
                  render_ready: Callable[[], None]) -> None:
        """Compute ``compute`` on ``jobs`` worker processes.

        A cell is submitted once the cells it depends on are done;
        dependencies outside ``compute`` were resumed, so they count as
        done.  A worker publishes its cell to the shared disk tiers and
        returns only its wall time, tier and profile-store counters.
        The parent then reads the cell back through the same
        :func:`_compute_cell`: a tier hit that makes no trace pass and
        writes nothing.  A cell's dependants are submitted before the
        parent reads it or renders a table, so the workers never wait
        on the parent.
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
            while running:
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                outcomes = [(running.pop(future), future.result())
                            for future in finished]
                for plan, _ in outcomes:
                    for deps in blocked.values():
                        deps.discard(plan.id)
                submit_ready()
                for plan, (wall, tier, counters) in outcomes:
                    for name, count in counters.items():
                        self._store_counters[name] = \
                            self._store_counters.get(name, 0) + count
                    if _compute_cell(session, plan)[1] == "computed":
                        _log.warning(
                            "campaign cell %s never reached the disk "
                            "tier; the parent computed it again",
                            plan.id)
                    finish_cell(plan, wall, tier)
                render_ready()
        if blocked:     # a dependency cycle or a missing cell: impossible
            raise RuntimeError(f"unsatisfied cell deps: {blocked}")


def _compute_cell(session: Session, plan: CellPlan) -> tuple[float, str]:
    """Compute one run, analytic or scenario cell in ``session``.

    Returns the wall time and the tier that served it (``disk`` when
    its artifacts were already cached).
    """
    started = time.perf_counter()
    key = RunKey(*plan.cell.run_key)
    if plan.kind == "analytic":
        tier = "disk" if session._profile_store.get_analytic(
            session._program_digest(key),
            _ANALYTIC_BLOCK_SIZE) is not None else "computed"
        session.analytic_profile(key.workload, key.input_name,
                                 key.optimize,
                                 block_size=_ANALYTIC_BLOCK_SIZE)
    elif plan.kind == "scenario":
        tier = "disk" if session._scenario_warm(key, plan.spec) \
            else "computed"
        session.scenario(key.workload, key.input_name, key.optimize,
                         spec=plan.spec)
    else:
        tier = "disk" if all(session._is_warm(key, c)
                             for c in plan.cell.configs) \
            else "computed"
        session.stats_multi(key.workload, key.input_name, key.optimize,
                            plan.cell.configs)
    return time.perf_counter() - started, tier


def _cell_worker(context: tuple, plan: CellPlan
                 ) -> tuple[float, str, dict]:
    """Process-pool worker: one cell in a private session.

    The session shares the parent's disk tiers, which carry the cell
    back: the worker returns only its wall time, its tier and its
    ProfileStore counters for aggregation.
    """
    scale, max_steps, cache_dir = context
    session = Session(scale=scale, cache_dir=Path(cache_dir),
                      max_steps=max_steps)
    wall, tier = _compute_cell(session, plan)
    return wall, tier, session._profile_store.counters
