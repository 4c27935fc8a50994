"""Canonical experiment grid: one source of truth for every table's cells.

Each table module declares ``SPEC = TableSpec(...)`` — the exact
workload × input × optimize × cache-geometry grid its formatter reads —
instead of hard-coding the combinations in its ``run`` body.  The
campaign engine (:mod:`repro.campaign`, also behind ``repro warm``) and
the serial runner both consume the same specs, so there is exactly one
place where "what does Table N need?" is answered.

A :class:`GridCell` is the unit of work: one ``(workload, input,
optimize)`` run plus the set of cache geometries simulated over its
trace (one trace replay covers all of them), an optional analytic-
profile requirement, and an optional scenario requirement — the
dTLB, PCAX and redundancy results of :func:`scenario_spec`, computed
in one fused pass.  :func:`merge_cells` unions overlapping cells so
shared artifacts are computed once across tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cache.config import (BASELINE_CONFIG, TRAINING_CONFIG,
                                CacheConfig, associativity_sweep,
                                size_sweep)
from repro.experiments.common import ALL_NAMES, TEST_NAMES, \
    TRAINING_NAMES
from repro.scenario import ScenarioSpec
from repro.tlb import DEFAULT_THRESHOLD, TlbConfig

#: Table 13's geometry; equal to ``size_sweep()[1]``, so it dedups into
#: the sweep union below.
CACHE_16K = CacheConfig(size=16 * 1024, assoc=4, block_size=32)


#: Tables 16 and 17's dTLB geometries, sized to the scaled suite
#: (reach 2KB and 8KB): large enough that streaming code fits, small
#: enough that strided and pointer-chasing code actually misses.
MICRO_TLB = TlbConfig(page_size=256, entries=8)
LARGE_TLB = TlbConfig(page_size=1024, entries=8)


def scenario_spec() -> ScenarioSpec:
    """The scenario pass every ``scenario`` cell runs.

    PCAX is evaluated at the micro geometry's page size, so "friendly"
    means predictable at exactly the granularity the micro TLB
    translates.  Built from the module globals on each call, so the
    campaign's digests follow any change to them.
    """
    return ScenarioSpec(tlb=(MICRO_TLB, LARGE_TLB),
                        pcax_page_size=MICRO_TLB.page_size,
                        threshold=DEFAULT_THRESHOLD)


def sweep_configs() -> tuple[CacheConfig, ...]:
    """Union of the Table 8/9 geometry sweeps (includes CACHE_16K)."""
    return tuple(dict.fromkeys(associativity_sweep() + size_sweep()))


@dataclass(frozen=True)
class GridCell:
    """One pipeline run and the cache geometries simulated over it."""

    workload: str
    input_name: str = "input1"
    optimize: bool = False
    configs: tuple[CacheConfig, ...] = (BASELINE_CONFIG,)
    analytic: bool = False      # table also reads the analytic profile
    scenario: bool = False      # table also reads the scenario pass

    @property
    def run_key(self) -> tuple[str, str, bool]:
        return (self.workload, self.input_name, self.optimize)


@dataclass(frozen=True)
class TableSpec:
    """Declarative description of the grid one table consumes.

    ``names`` × ``input_names`` expands to the run set; every run is
    simulated under ``configs``.  Tables whose formatter only reads
    static metadata (Table 6) use an empty ``names``.
    """

    number: int
    names: tuple[str, ...] = ()
    input_names: tuple[str, ...] = ("input1",)
    optimize: bool = False
    configs: tuple[CacheConfig, ...] = (BASELINE_CONFIG,)
    analytic: bool = False
    scenario: bool = False

    def cells(self) -> list[GridCell]:
        return [
            GridCell(workload=name, input_name=input_name,
                     optimize=self.optimize, configs=self.configs,
                     analytic=self.analytic, scenario=self.scenario)
            for name in self.names
            for input_name in self.input_names
        ]


def table_specs() -> dict[int, TableSpec]:
    """``SPEC`` of every table module, keyed by table number.

    Imported lazily: the table modules import this module for
    :class:`TableSpec`, so a module-level import here would cycle.
    """
    from repro.experiments import runner
    specs: dict[int, TableSpec] = {}
    for number, module in sorted(runner.TABLE_MODULES.items()):
        specs[number] = module.SPEC
    return specs


def merge_cells(cells: Iterable[GridCell]) -> list[GridCell]:
    """Union cells sharing a run key (first-seen order preserved).

    Configs merge first-seen and dedup by equality; the analytic and
    scenario flags OR.  The result is the minimal set of trace replays
    covering every input cell.
    """
    merged: dict[tuple[str, str, bool], GridCell] = {}
    for cell in cells:
        prior = merged.get(cell.run_key)
        if prior is None:
            merged[cell.run_key] = cell
            continue
        configs = tuple(dict.fromkeys(prior.configs + cell.configs))
        merged[cell.run_key] = GridCell(
            workload=cell.workload, input_name=cell.input_name,
            optimize=cell.optimize, configs=configs,
            analytic=prior.analytic or cell.analytic,
            scenario=prior.scenario or cell.scenario)
    return list(merged.values())


def campaign_cells(numbers: Sequence[int] | None = None
                   ) -> list[GridCell]:
    """Merged cell set for the requested tables (all by default)."""
    specs = table_specs()
    numbers = sorted(specs) if numbers is None else sorted(numbers)
    cells: list[GridCell] = []
    for number in numbers:
        cells.extend(specs[number].cells())
    return merge_cells(cells)

