"""Table 17 (beyond the paper): redundant loads across the AG classes.

A load is *redundant* when it re-reads an address some earlier access
already touched — the value was available without going to memory at
all — and a *reload after store* when the most recent toucher was a
store (classic store-to-load forwarding, or spill/refill traffic).
Both are targets for very different optimizations than the prefetching
the paper motivates, so this exhibit measures how much of each
workload's load traffic is redundant and attributes it to the paper's
AG address-pattern classes (:mod:`repro.redundancy`).  The counts come
from the run's scenario pass (:meth:`Session.scenario`), the one trace
decode Table 16's dTLB and PCAX columns share, computed by a campaign
``scenario`` cell on the worker pool, so rendering replays nothing.

Per workload: total dynamic loads, the redundant fraction, the
reload-after-store fraction, and how much of the *delinquent* loads'
traffic is redundant — delinquent loads that mostly re-read live
addresses are better served by register promotion than by prefetches.
The notes give the suite-wide per-class attribution.
"""

from __future__ import annotations

from repro.experiments.common import ALL_NAMES, Table, mean, pct
from repro.experiments.evalutil import run_heuristic
from repro.experiments.grid import TableSpec, scenario_spec
from repro.pipeline.session import Session
from repro.redundancy import ag_crosstab

SPEC = TableSpec(number=17, names=ALL_NAMES, scenario=True)


def run(session: Session,
        names: tuple[str, ...] = ALL_NAMES) -> Table:
    table = Table(
        exhibit="Table 17",
        title="Redundant and reload-after-store load traffic "
              "(beyond the paper)",
        headers=["Benchmark", "loads", "fresh", "redundant",
                 "after store", "delq redundant"],
    )
    ratios: list[float] = []
    ras_fracs: list[float] = []
    delq_fracs: list[float] = []
    class_totals: dict[str, list[int]] = {}
    spec = scenario_spec()
    for name in names:
        stats = session.scenario(name, spec=spec).redundancy
        m = session.measurement(name)
        delinquent = run_heuristic(m).delinquent_set
        delq_loads = delq_redundant = 0
        for pc in delinquent:
            row = stats.loads.get(pc)
            if row is not None:
                delq_loads += row.accesses
                delq_redundant += row.redundant
        delq_frac = delq_redundant / max(delq_loads, 1)
        ras_frac = (stats.total_reload_after_store
                    / max(stats.total_loads, 1))
        ratios.append(stats.ratio)
        ras_fracs.append(ras_frac)
        delq_fracs.append(delq_frac)
        for cls_name, cell in ag_crosstab(stats, m.load_infos,
                                          m.load_exec).items():
            totals = class_totals.setdefault(cls_name, [0, 0, 0])
            totals[0] += cell["loads"]
            totals[1] += cell["redundant"]
            totals[2] += cell["reload_after_store"]
        fresh = stats.total_loads - stats.total_redundant
        table.add_row(name, f"{stats.total_loads:,}", f"{fresh:,}",
                      pct(stats.ratio, 1), pct(ras_frac, 1),
                      pct(delq_frac, 1))
    table.add_row("AVERAGE", "", "", pct(mean(ratios), 1),
                  pct(mean(ras_fracs), 1), pct(mean(delq_fracs), 1))
    table.notes.append(
        "the suite's loops revisit small footprints, so at address "
        "granularity nearly all load traffic is redundant; the fresh "
        "column (first-touch loads) is the footprint, and the "
        "after-store column separates spill/forwarding traffic from "
        "plain re-reads")
    for cls_name, (loads, redundant, ras) in sorted(
            class_totals.items()):
        if not loads:
            continue
        table.notes.append(
            f"{cls_name}: {redundant:,} of {loads:,} loads redundant "
            f"({pct(redundant / loads, 1)}), {ras:,} after a store")
    return table
