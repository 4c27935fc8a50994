"""Ablations A-J: one controlled comparison per design choice.

Each is a ``(session) -> Table`` builder in :data:`ABLATIONS`, keyed by
the number the report files it under (101-110, after the paper's
tables).  They declare no grid spec and stay out of
``grid.table_specs()`` and ``runner.TABLE_MODULES``.  They read Table 1
runs (input1, -O0, baseline cache), which a full campaign has already
warmed, and Ablation J also reads two prefetch-rewritten runs per
workload, which only it asks for: the first report executes them into
the trace store and the result tier like any session run, and a
resumed report reads them back.  ``benchmarks/bench_ablations.py``
asserts each one's expected direction.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines import bdh, okn
from repro.cache.hierarchy import simulate_trace_hierarchy
from repro.experiments.common import Table, pct
from repro.experiments.evalutil import pi_rho, run_heuristic
from repro.heuristic.classes import PAPER_WEIGHTS
from repro.heuristic.classifier import DelinquencyClassifier
from repro.heuristic.delta_tuning import tune_delta
from repro.heuristic.static_frequency import static_exec_counts
from repro.heuristic.training import BenchmarkTrainingData, train_weights
from repro.metrics.measures import coverage, precision
from repro.patterns.builder import build_load_infos
from repro.pipeline.session import Measurement, Session
from repro.prefetch.evaluate import (PolicyResult, PrefetchComparison,
                                     policy_prefetches)
from repro.profiling.combined import combined_delta
from repro.profiling.sampling import sampled_profile

WORKLOADS = ("181.mcf", "129.compress", "197.parser", "101.tomcatv")
PREFETCH_WORKLOADS = ("183.equake", "101.tomcatv", "179.art")


def _pi_rho_cell(delta: set[int], m: Measurement) -> str:
    pi, rho = pi_rho(delta, m)
    return f"{pct(pi)} / {pct(rho)}"


def slot_recurrence(session: Session) -> Table:
    """Without slot-aware recurrence, H4 goes silent on -O0 code."""
    table = Table("Ablation A", "slot-aware vs register-only "
                  "recurrence (unoptimized code)",
                  ["Benchmark", "recurrent loads (slot-aware)",
                   "recurrent loads (register-only)"])
    for name in WORKLOADS:
        m = session.measurement(name)
        with_slots = build_load_infos(m.program, slot_recurrence=True)
        without = build_load_infos(m.program, slot_recurrence=False)
        n_with = sum(1 for i in with_slots.values() if i.has_recurrence)
        n_without = sum(1 for i in without.values() if i.has_recurrence)
        table.add_row(name, n_with, n_without)
    return table


def pattern_cap(session: Session) -> Table:
    """Tighter fan-out caps lose patterns but barely move Delta."""
    table = Table("Ablation B", "address-pattern fan-out cap",
                  ["Benchmark", "|Delta| cap=1", "|Delta| cap=4",
                   "|Delta| cap=16"])
    classifier = DelinquencyClassifier(use_frequency=False)
    for name in WORKLOADS:
        m = session.measurement(name)
        sizes = []
        for cap in (1, 4, 16):
            infos = build_load_infos(m.program, max_patterns=cap)
            sizes.append(len(classifier.classify(infos).delinquent_set))
        table.add_row(name, *sizes)
    return table


def baseline_chains(session: Session) -> Table:
    """Chain inclusion is what drives the baselines' pi to ~50%."""
    table = Table("Ablation C", "baseline chain inclusion",
                  ["Benchmark", "OKN pi (chain)", "OKN pi (bare)",
                   "BDH pi (chain)", "BDH pi (bare)"])
    for name in WORKLOADS:
        m = session.measurement(name)
        values = []
        for include in (True, False):
            okn_set = okn.classify(m.load_infos, m.program,
                                   include_chain=include).delinquent_set
            values.append(precision(okn_set, m.num_loads))
        for include in (True, False):
            bdh_set = bdh.classify(m.program, m.load_infos,
                                   include_chain=include).delinquent_set
            values.append(precision(bdh_set, m.num_loads))
        table.add_row(name, *(pct(v, 1) for v in values))
    return table


def frequency_source(session: Session) -> Table:
    """AG8/9 from a profile vs from static estimation vs disabled
    (the paper's Section 5.2 suggestion)."""
    table = Table("Ablation D", "frequency-class source (pi / rho)",
                  ["Benchmark", "profiled AG8/9", "static AG8/9",
                   "no AG8/9"])
    for name in WORKLOADS:
        m = session.measurement(name)
        static = DelinquencyClassifier().classify(
            m.load_infos, exec_counts=static_exec_counts(m.program))
        results = (run_heuristic(m), static,
                   run_heuristic(m, use_frequency=False))
        table.add_row(name, *(_pi_rho_cell(result.delinquent_set, m)
                              for result in results))
    return table


def retrained_weights(session: Session) -> Table:
    """Paper's published weights vs weights retrained on this suite."""
    data = []
    for name in WORKLOADS:
        m = session.measurement(name)
        data.append(BenchmarkTrainingData.collect(
            name=name, load_infos=m.load_infos,
            exec_counts=m.load_exec, load_misses=m.load_misses,
            hotspot_loads=m.profile.hotspot_loads()))
    retrained = train_weights(data).weights

    table = Table("Ablation E", "paper vs retrained weights (pi / rho)",
                  ["Benchmark", "paper weights", "retrained"])
    for name in WORKLOADS:
        m = session.measurement(name)
        table.add_row(name, *(
            _pi_rho_cell(run_heuristic(m, weights=weights).delinquent_set, m)
            for weights in (PAPER_WEIGHTS, retrained)))
    return table


def delta_tuning(session: Session) -> Table:
    """Per-benchmark delta tuning (the paper's Section 8.6 suggestion)."""
    table = Table("Ablation F", "fixed delta=0.10 vs per-benchmark "
                  "tuned delta",
                  ["Benchmark", "fixed (pi / rho)", "tuned delta",
                   "tuned (pi / rho)"])
    for name in WORKLOADS:
        m = session.measurement(name)
        result = run_heuristic(m)
        best = tune_delta(result.scores(), m.load_misses, m.num_loads)
        table.add_row(name, _pi_rho_cell(result.delinquent_set, m),
                      f"{best.delta:.2f}",
                      f"{pct(best.pi)} / {pct(best.rho)}")
    return table


def profile_fidelity(session: Session) -> Table:
    """Section 9 under degraded profiles: the combined scheme with
    sampled basic-block profiling (the realistic deployment)."""
    table = Table("Ablation G", "combined scheme vs profile sampling "
                  "rate (pi / rho at eps=0)",
                  ["Benchmark", "full profile", "10% sample",
                   "1% sample"])
    for name in WORKLOADS:
        m = session.measurement(name)
        heuristic = run_heuristic(m)
        cells = []
        for rate in (1.0, 0.10, 0.01):
            profile = sampled_profile(m.profile, rate)
            combined = combined_delta(profile.hotspot_loads(),
                                      heuristic, 0.0)
            cells.append(f"{pct(precision(combined, m.num_loads), 1)} / "
                         f"{pct(coverage(combined, m.load_misses))}")
        table.add_row(name, *cells)
    return table


def stall_aware_profiling(session: Session) -> Table:
    """Entry-count vs stall-aware hotspots: fixing the weakness the
    paper diagnoses on m88ksim (blocks entered often != blocks that
    stall)."""
    table = Table("Ablation H", "hotspot model: entry counts vs "
                  "stall-aware cycles (Delta_P coverage)",
                  ["Benchmark", "entry-count rho", "stall-aware rho"])
    for name in WORKLOADS + ("126.gcc", "099.go"):
        m = session.measurement(name)
        plain = coverage(m.profile.hotspot_loads(), m.load_misses)
        aware = coverage(
            m.profile.hotspot_loads_stall_aware(m.load_misses,
                                                penalty=30),
            m.load_misses)
        table.add_row(name, pct(plain), pct(aware))
    return table


def l2_hierarchy(session: Session) -> Table:
    """Do statically flagged loads also dominate the L2 miss stream?

    The two-level replay reads the run's trace through the session's
    trace handle, so a warm trace store executes nothing.
    """
    table = Table("Ablation I", "Delta coverage of L2 misses "
                  "(two-level hierarchy)",
                  ["Benchmark", "pi", "L1 rho", "L2 rho"])
    for name in WORKLOADS[:3]:
        m = session.measurement(name)
        heuristic = run_heuristic(m)
        delta = heuristic.delinquent_set
        stats = session._replay(m.key, simulate_trace_hierarchy)
        table.add_row(name, pct(precision(delta, m.num_loads)),
                      pct(coverage(delta, stats.l1_load_misses)),
                      pct(stats.l2_miss_coverage(delta)))
    return table


def prefetch_comparison(session: Session, name: str) -> PrefetchComparison:
    """The three policies on ``name``, each a session run: ``none`` is
    the baseline run, the others are the program rewritten with
    prefetches for Delta and for every load."""
    m = session.measurement(name)
    delta = run_heuristic(m).delinquent_set
    results = []
    for policy, pcs in policy_prefetches(m.program, delta).items():
        # stats before steps: acquiring the trace and simulating it is
        # then one pass, and steps come with the acquisition
        stats = session.stats(name, prefetch=pcs)
        results.append(PolicyResult.from_stats(
            policy, session.steps(name, prefetch=pcs), stats))
    return PrefetchComparison(*results)


def prefetch_pass(session: Session) -> Table:
    """The motivating client: Delta-guided prefetch insertion vs
    prefetching everything, under the stall-cycle model."""
    table = Table("Ablation J", "Delta-guided software prefetching "
                  "(cycle model, penalty=30)",
                  ["Benchmark", "Delta speedup", "all-loads speedup",
                   "Delta pref ops", "all pref ops"])
    for name in PREFETCH_WORKLOADS:
        comparison = prefetch_comparison(session, name)
        table.add_row(
            name,
            f"{comparison.speedup(comparison.delta):.2f}x",
            f"{comparison.speedup(comparison.all_loads):.2f}x",
            f"{comparison.delta.prefetch_ops:,}",
            f"{comparison.all_loads.prefetch_ops:,}")
    return table


#: Report number -> builder (Ablation A is 101).
ABLATIONS: dict[int, Callable[[Session], Table]] = {
    101: slot_recurrence, 102: pattern_cap, 103: baseline_chains,
    104: frequency_source, 105: retrained_weights, 106: delta_tuning,
    107: profile_fidelity, 108: stall_aware_profiling,
    109: l2_hierarchy, 110: prefetch_pass,
}
