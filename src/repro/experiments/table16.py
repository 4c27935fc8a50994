"""Table 16 (beyond the paper): dTLB behaviour of delinquent loads.

The paper identifies delinquent loads against a data *cache*; this
exhibit asks how the same loads behave against the data *TLB*.  Each
workload is replayed at page granularity (:mod:`repro.tlb`) for a
micro geometry sized to the suite's footprints, and every static load
is scored by the PCAX predictor — PC-indexed data-address translation,
which deems a load "friendly" when its next page is a fixed stride
from its last one.  The cross-tab against the heuristic's delinquent
set separates loads whose cache misses come with hard-to-predict
translations (both) from delinquent loads whose pages a PCAX-style
prefetcher would cover (delinquent only).

The dTLB stats and the PCAX profile come from the run's scenario pass
(:meth:`Session.scenario` under
:func:`~repro.experiments.grid.scenario_spec`, which defines the
geometries, the PCAX page size and the threshold): one decode of the
trace, shared with Table 17 and computed by a campaign ``scenario``
cell on the worker pool, so rendering replays nothing.

Per workload: the dTLB miss rate at the micro and a 4x-reach geometry,
the fraction of loads PCAX finds friendly, and the two interesting
cross-tab cells.  The notes aggregate the full cross-tab over the
suite.
"""

from __future__ import annotations

from repro.experiments.common import ALL_NAMES, Table, mean, pct
from repro.experiments.evalutil import run_heuristic
from repro.experiments.grid import TableSpec, scenario_spec
from repro.pipeline.session import Session
from repro.tlb import pcax_crosstab

SPEC = TableSpec(number=16, names=ALL_NAMES, scenario=True)


def run(session: Session,
        names: tuple[str, ...] = ALL_NAMES) -> Table:
    spec = scenario_spec()
    micro_tlb, large_tlb = spec.tlb
    table = Table(
        exhibit="Table 16",
        title="dTLB miss rates and PCAX translation predictability "
              "of delinquent loads (beyond the paper)",
        headers=["Benchmark", f"miss {micro_tlb.describe()}",
                 f"miss {large_tlb.describe()}", "PCAX-friendly",
                 "delq+friendly", "delq only"],
    )
    micro_rates: list[float] = []
    large_rates: list[float] = []
    friendly_fracs: list[float] = []
    totals = {"both": 0, "delinquent_only": 0, "friendly_only": 0,
              "neither": 0}
    for name in names:
        scenario = session.scenario(name, spec=spec)
        micro, large = scenario.tlb
        profile = scenario.pcax
        m = session.measurement(name)
        delinquent = run_heuristic(m).delinquent_set
        friendly = profile.friendly_set()
        universe = set(profile.loads)
        cross = pcax_crosstab(friendly, delinquent, universe)
        for cell, count in cross.items():
            totals[cell] += count
        friendly_frac = len(friendly) / max(len(universe), 1)
        micro_rates.append(micro.miss_rate)
        large_rates.append(large.miss_rate)
        friendly_fracs.append(friendly_frac)
        table.add_row(name, pct(micro.miss_rate, 2),
                      pct(large.miss_rate, 2), pct(friendly_frac, 1),
                      cross["both"], cross["delinquent_only"])
    table.add_row("AVERAGE", pct(mean(micro_rates), 2),
                  pct(mean(large_rates), 2),
                  pct(mean(friendly_fracs), 1), "", "")
    flagged = totals["both"] + totals["delinquent_only"]
    if flagged:
        share = totals["both"] / flagged
        table.notes.append(
            f"suite cross-tab: {totals['both']} delinquent loads are "
            f"PCAX-friendly, {totals['delinquent_only']} are not "
            f"({pct(share, 0)} of delinquent loads have predictable "
            f"translations); {totals['friendly_only']} friendly-only, "
            f"{totals['neither']} neither")
    table.notes.append(
        f"PCAX evaluated at {spec.pcax_page_size}B pages (the micro "
        f"geometry's); friendly = >=90% of a load's page translations "
        f"follow its per-PC stride")
    return table
