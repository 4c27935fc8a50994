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

Run, analytic and scenario cells are computed on a process pool (or
dispatched to a running service endpoint with ``remote=``).  A cell is
submitted once its dependencies are done, so scenario cells queue
behind every run and analytic cell.  Each table renders in the parent
the moment its last dependency lands, so a slow workload never stalls
unrelated tables, and the parent makes no trace pass of its own.
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
from repro.experiments.common import Table
from repro.experiments.grid import (GridCell, campaign_cells,
                                    scenario_spec, table_specs)
from repro.pipeline.session import RunKey, Session, _resolve_jobs
from repro.scenario import ScenarioSpec, encode_scenario, remote_payload

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

    # -- local execution ---------------------------------------------
    def _run_local(self, compute: list[CellPlan],
                   jobs: Optional[int],
                   finish_cell: Callable[[CellPlan, float, str], None],
                   render_ready: Callable[[], None],
                   say: Callable[[str], None]) -> None:
        session = self.session
        jobs = min(_resolve_jobs(jobs), len(compute) or 1)
        if jobs == 1:
            for plan in compute:    # plan order puts dependencies first
                wall, tier, _ = _compute_cell(session, plan)
                finish_cell(plan, wall, tier)
                render_ready()
            return

        def absorb(plan: CellPlan, outcome: tuple) -> tuple[float, str]:
            wall, tier, response, counters = outcome
            for name, count in counters.items():
                self._store_counters[name] = \
                    self._store_counters.get(name, 0) + count
            if response is not None:
                _absorb(session, plan, response)
            return wall, tier

        context = (session.scale, session.max_steps,
                   session.use_disk_cache, str(session.cache_dir))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            _run_gated(compute,
                       lambda plan: pool.submit(_cell_worker,
                                                context, plan),
                       absorb, finish_cell, render_ready)

    # -- remote execution --------------------------------------------
    def _run_remote(self, compute: list[CellPlan], address: str,
                    finish_cell: Callable[[CellPlan, float, str], None],
                    render_ready: Callable[[], None],
                    say: Callable[[str], None]) -> None:
        """Dispatch run and scenario cells to a ``repro serve`` endpoint.

        One ``simulate`` request per run cell (the scheduler merges
        concurrent requests for one trace into a single replay); the
        response's full per-PC columns and block profile rebuild the
        local session state.  A scenario cell, once its run cell is
        done, sends the ``tlb`` request for its geometries and
        threshold plus the ``redundancy`` request; the parent decodes
        the pair as it decodes a local worker's result.  Analytic cells
        are computed locally — they are static analysis, cheaper than a
        round trip.

        Cells the protocol cannot express are refused before anything
        is dispatched: the wire form of a config carries no ``random``
        seed (the service would simulate it under the default seed),
        and the ``tlb`` op evaluates PCAX at its first geometry's page
        size and dedups repeated geometries.
        """
        from repro.service.client import ServiceClient

        session = self.session
        remote = [plan for plan in compute if plan.kind != "analytic"]
        local = [plan for plan in compute if plan.kind == "analytic"]
        for plan in remote:
            if plan.kind == "scenario":
                spec = plan.spec
                if not spec.tlb \
                        or spec.pcax_page_size != spec.tlb[0].page_size \
                        or len(set(spec.tlb)) != len(spec.tlb):
                    raise ValueError(
                        f"cell {plan.id} cannot run remotely: the tlb "
                        f"op evaluates PCAX at the first of distinct "
                        f"geometries, not {spec.describe()}")
                continue
            seeded = [config.describe() for config in plan.cell.configs
                      if config.replacement == "random"
                      and config.rng_seed != DEFAULT_RNG_SEED]
            if seeded:
                raise ValueError(
                    f"cell {plan.id} cannot run remotely: the service "
                    f"protocol carries no rng_seed for {seeded}")
        say(f"[campaign] dispatching {len(remote)} run/scenario "
            f"cell(s) to {address}")

        def dispatch(plan: CellPlan, source: str) -> tuple[float, dict]:
            started = time.perf_counter()
            options = {"source": source, "optimize": plan.cell.optimize,
                       "max_steps": session.max_steps}
            with ServiceClient.connect(address) as client:
                if plan.kind == "run":
                    response = client.call("simulate", {
                        **options, "configs": [cache_config_to_dict(c)
                                               for c in plan.cell.configs]})
                else:
                    response = remote_payload(
                        client.call("tlb", {
                            **options,
                            "geometries": [c.to_dict()
                                           for c in plan.spec.tlb],
                            "threshold": plan.spec.threshold}),
                        client.call("redundancy", options))
            return time.perf_counter() - started, response

        def submit(plan: CellPlan) -> Future:
            source = session.source(plan.cell.workload,
                                    plan.cell.input_name)
            return pool.submit(dispatch, plan, source)

        def absorb(plan: CellPlan, outcome: tuple) -> tuple[float, str]:
            wall, response = outcome
            _absorb(session, plan, response)
            return wall, "computed"

        with ThreadPoolExecutor(max_workers=min(8, len(remote)
                                                or 1)) as pool:
            _run_gated(remote, submit, absorb, finish_cell, render_ready)
        for plan in local:
            wall, tier, _ = _compute_cell(session, plan)
            finish_cell(plan, wall, tier)
            render_ready()


def _run_gated(compute: list[CellPlan],
               submit: Callable[[CellPlan], Future],
               absorb: Callable[[CellPlan, Any], tuple[float, str]],
               finish_cell: Callable[[CellPlan, float, str], None],
               render_ready: Callable[[], None]) -> None:
    """Submit each cell once the cells it depends on are done.

    Dependencies outside ``compute`` were resumed, so they count as
    done.  Results are absorbed in completion order; a cell's
    dependants are submitted before any ready table renders, so the
    workers never wait on the parent.
    """
    ids = {plan.id for plan in compute}
    blocked = {plan.id: set(plan.deps) & ids for plan in compute}
    running: dict[Future, CellPlan] = {}

    def submit_ready() -> None:
        for plan in compute:
            if plan.id in blocked and not blocked[plan.id]:
                del blocked[plan.id]
                running[submit(plan)] = plan

    submit_ready()
    while running:
        finished, _ = wait(running, return_when=FIRST_COMPLETED)
        for future in finished:
            plan = running.pop(future)
            wall, tier = absorb(plan, future.result())
            finish_cell(plan, wall, tier)
            for deps in blocked.values():
                deps.discard(plan.id)
        submit_ready()
        render_ready()
    if blocked:     # a dependency cycle or a missing cell: impossible
        raise RuntimeError(f"unsatisfied cell deps: {blocked}")


def _absorb(session: Session, plan: CellPlan,
            response: dict[str, Any]) -> None:
    """Adopt a worker's or a service's result for one cell."""
    key = RunKey(*plan.cell.run_key)
    if plan.kind == "scenario":
        session.absorb_scenario(key, plan.spec, response)
    else:
        session.absorb(key, plan.cell.configs, response)


def _compute_cell(session: Session, plan: CellPlan,
                  respond: bool = False
                  ) -> tuple[float, str, Optional[dict]]:
    """Compute one run, analytic or scenario cell in ``session``.

    Returns the wall time, the tier that served it (``disk`` when its
    artifacts were already cached) and, with ``respond``, the payload
    the parent absorbs: a run cell's ``simulate``-shaped response or a
    scenario cell's payload (analytic profiles travel via the shared
    profile store).
    """
    started = time.perf_counter()
    key = RunKey(*plan.cell.run_key)
    response = None
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
        result = session.scenario(key.workload, key.input_name,
                                  key.optimize, spec=plan.spec)
        if respond:
            response = encode_scenario(result)
    else:
        tier = "disk" if all(session._is_warm(key, c)
                             for c in plan.cell.configs) \
            else "computed"
        if respond:
            response = session.simulate_response(key, plan.cell.configs)
        else:
            session.stats_multi(key.workload, key.input_name,
                                key.optimize, plan.cell.configs)
    return time.perf_counter() - started, tier, response


def _cell_worker(context: tuple, plan: CellPlan
                 ) -> tuple[float, str, Optional[dict], dict]:
    """Process-pool worker: one cell in a private session.

    Shares the on-disk caches with the parent and returns the payload a
    remote service would, so the parent absorbs both the same way, plus
    the worker's ProfileStore counters for aggregation.
    """
    scale, max_steps, use_disk_cache, cache_dir = context
    session = Session(scale=scale, cache_dir=Path(cache_dir),
                      use_disk_cache=use_disk_cache,
                      max_steps=max_steps)
    wall, tier, response = _compute_cell(session, plan, respond=True)
    return wall, tier, response, session._profile_store.counters
