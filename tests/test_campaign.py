"""Campaign engine: grid specs, manifest, resume, and the tripwire.

The crash-resume test is the load-bearing one: a campaign subprocess is
SIGKILLed mid-run, then resumed with every completed cell id listed in
the ``REPRO_CAMPAIGN_FORBID`` tripwire file — if the engine ever
*decides to compute* a completed cell, the run raises instead of
silently redoing work — and the final tables must be byte-identical to
an uninterrupted campaign in a separate cache directory.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cache.config import (BASELINE_CONFIG, TRAINING_CONFIG,
                                CacheConfig, associativity_sweep,
                                size_sweep)
from repro.campaign import Campaign, Manifest, campaign_dir, code_digest
from repro.experiments import grid
from repro.experiments.grid import (CACHE_16K, GridCell, TableSpec,
                                    campaign_cells, merge_cells,
                                    sweep_configs, table_specs)
from repro.experiments.runner import run_tables
from repro.pipeline.session import Session
from repro.store.tier import PIPELINE, SCENARIO, JsonTier

REPO_ROOT = Path(__file__).resolve().parents[1]

SCALE = 0.02
TABLES = (6, 10)        # static-only + one simulated table: fast


def _session(tmp_path: Path) -> Session:
    return Session(scale=SCALE, cache_dir=tmp_path / "cache")


def _tear(cache: Path, pattern: str) -> list[Path]:
    """Cut the tier entries under ``cache`` matching ``pattern`` short,
    as a writer killed mid-file would leave them."""
    paths = sorted(cache.glob(pattern))
    assert paths, pattern
    for path in paths:
        path.write_text(path.read_text()[:20])
    return paths


#: Tables 16 and 17 cut down to one program: a campaign over them has
#: one run cell and one scenario cell.
SCENARIO_PROGRAM = "129.compress"


@pytest.fixture
def scenario_grid(monkeypatch):
    """Restrict Tables 16 and 17 to :data:`SCENARIO_PROGRAM`."""
    from repro.experiments import runner, table16, table17
    names = (SCENARIO_PROGRAM,)
    for number, module in ((16, table16), (17, table17)):
        monkeypatch.setattr(module, "SPEC", dataclasses.replace(
            module.SPEC, names=names))
        monkeypatch.setitem(runner.EXPERIMENTS, number,
                            functools.partial(module.run, names=names))


# ---------------------------------------------------------------------
# canonical grid
# ---------------------------------------------------------------------
class TestGrid:
    def test_warm_plan_is_the_historical_forty(self):
        # ``repro warm`` runs the campaign: its run cells are the
        # historical forty-entry warm plan.
        cells = campaign_cells()
        assert len(cells) == 40
        assert len({cell.run_key for cell in cells}) == 40
        for cell in cells:
            assert cell.input_name in ("input1", "input2")
            assert isinstance(cell.optimize, bool)
            assert cell.configs  # never an empty config tuple

    def test_cache_16k_dedups_into_sweep_union(self):
        assert CACHE_16K == size_sweep()[1]
        union = sweep_configs()
        assert len(union) == len(set(union))
        assert len(union) == (len(associativity_sweep())
                              + len(size_sweep()) - 1)
        assert CACHE_16K in union

    def test_every_table_declares_a_spec(self):
        specs = table_specs()
        assert sorted(specs) == list(range(1, 18))
        for number, spec in specs.items():
            assert isinstance(spec, TableSpec)
            assert spec.number == number

    def test_merge_unions_configs_and_ors_analytic(self):
        base = GridCell("129.compress")
        training = GridCell("129.compress",
                            configs=(TRAINING_CONFIG,), analytic=True)
        other = GridCell("181.mcf")
        merged = merge_cells([base, training, other])
        assert [cell.workload for cell in merged] \
            == ["129.compress", "181.mcf"]
        assert merged[0].configs == (BASELINE_CONFIG, TRAINING_CONFIG)
        assert merged[0].analytic is True
        assert merged[1].configs == (BASELINE_CONFIG,)

    def test_merge_ors_scenario(self):
        merged = merge_cells([GridCell("181.mcf"),
                              GridCell("181.mcf", scenario=True),
                              GridCell("181.mcf", analytic=True)])
        assert len(merged) == 1
        assert merged[0].scenario and merged[0].analytic
        specs = table_specs()
        assert {n for n, spec in specs.items() if spec.scenario} \
            == {16, 17}

    def test_merge_dedups_equal_configs(self):
        again = CacheConfig(size=16 * 1024, assoc=4, block_size=32)
        merged = merge_cells([GridCell("099.go", configs=(CACHE_16K,)),
                              GridCell("099.go", configs=(again,))])
        assert len(merged) == 1
        assert merged[0].configs == (CACHE_16K,)

    def test_subset_expansion(self):
        cells = campaign_cells([10])
        assert len(cells) == 7           # the test set on input1
        assert all(cell.configs == (TRAINING_CONFIG,)
                   for cell in cells)
        assert campaign_cells([6]) == []  # static metadata only


# ---------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------
class TestManifest:
    def test_record_round_trips(self, tmp_path):
        manifest = Manifest(tmp_path)
        entry = manifest.record("run:a:input1:base", "run", "d1",
                                "c1", 1.25, "computed", "camp1",
                                scale=0.02)
        (loaded,) = list(manifest.entries())
        assert loaded == entry
        assert loaded["scale"] == 0.02

    def test_latest_is_last_wins(self, tmp_path):
        manifest = Manifest(tmp_path)
        manifest.record("cell", "run", "old", "c", 1.0, "computed", "x")
        manifest.record("cell", "run", "new", "c", 2.0, "disk", "y")
        view = manifest.latest()
        assert view["cell"]["digest"] == "new"
        assert view["cell"]["tier"] == "disk"

    def test_truncated_tail_is_tolerated(self, tmp_path):
        manifest = Manifest(tmp_path)
        manifest.record("cell", "run", "d", "c", 1.0, "computed", "x")
        with open(manifest.path, "a") as handle:
            handle.write('{"cell": "half", "digest": "tru')  # killed
        assert [e["cell"] for e in manifest.entries()] == ["cell"]

    def test_status_counts_stale_cells(self, tmp_path):
        manifest = Manifest(tmp_path)
        manifest.record("a", "run", "d", "old-code", 1.0,
                        "computed", "x")
        manifest.record("b", "table", "d", "new-code", 2.0,
                        "computed", "x")
        status = manifest.status(current_code="new-code")
        assert status["cells"] == 2
        assert status["stale_cells"] == 1
        assert status["by_kind"] == {"run": 1, "table": 1}
        assert status["recorded_wall_s"] == 3.0

    def test_missing_file_is_empty(self, tmp_path):
        assert Manifest(tmp_path / "nope").latest() == {}

    def test_campaign_dir_layout(self, tmp_path):
        assert campaign_dir(tmp_path) == tmp_path / "campaign"


def test_code_digest_is_stable():
    first = code_digest()
    assert len(first) == 40
    assert first == code_digest()


# ---------------------------------------------------------------------
# end-to-end campaign (inline jobs=1; small tables, tiny scale)
# ---------------------------------------------------------------------
class TestCampaign:
    def test_matches_serial_runner_byte_for_byte(self, tmp_path):
        session = _session(tmp_path)
        result = Campaign(session, numbers=TABLES).run(jobs=1)
        serial = Session(scale=SCALE, cache_dir=tmp_path / "serial")
        expected = {n: t.render() for n, t in
                    run_tables(serial, list(TABLES),
                               echo=False).items()}
        assert result.tables == expected
        assert sorted(result.tables) == list(TABLES)
        assert result.computed > 0

    def test_resume_recomputes_nothing(self, tmp_path):
        session = _session(tmp_path)
        campaign = Campaign(session, numbers=TABLES)
        first = campaign.run(jobs=1)
        resumed = Campaign(_session(tmp_path), numbers=TABLES)
        second = resumed.run(resume=True)
        assert second.computed == 0
        assert second.cached == 0
        assert second.skipped == len(resumed.plan())
        assert second.tables == first.tables

    def test_resume_survives_tripwire_on_completed_cells(
            self, tmp_path, monkeypatch):
        session = _session(tmp_path)
        Campaign(session, numbers=TABLES).run(jobs=1)
        resumed = Campaign(_session(tmp_path), numbers=TABLES)
        forbid = tmp_path / "forbid.txt"
        forbid.write_text("\n".join(p.id for p in resumed.plan()) + "\n")
        monkeypatch.setenv("REPRO_CAMPAIGN_FORBID", str(forbid))
        result = resumed.run(resume=True)  # must not trip
        assert result.computed == 0

    def test_code_change_invalidates_the_ledger(self, tmp_path,
                                                monkeypatch):
        session = _session(tmp_path)
        Campaign(session, numbers=TABLES).run(jobs=1)
        stale = Campaign(_session(tmp_path), numbers=TABLES)
        stale.code = "0" * 40       # as if src/repro changed
        forbid = tmp_path / "forbid.txt"
        forbid.write_text("\n".join(p.id for p in stale.plan()) + "\n")
        monkeypatch.setenv("REPRO_CAMPAIGN_FORBID", str(forbid))
        with pytest.raises(RuntimeError, match="tripwire"):
            stale.run(resume=True)

    def test_without_resume_cells_recompute_from_disk_tier(
            self, tmp_path):
        session = _session(tmp_path)
        Campaign(session, numbers=TABLES).run(jobs=1)
        fresh = Campaign(_session(tmp_path), numbers=TABLES)
        result = fresh.run(jobs=1)   # no resume: replans every cell
        assert result.skipped == 0
        assert result.cached > 0     # but the disk caches are warm

    @pytest.mark.usefixtures("scenario_grid")
    def test_scenario_cells_sit_between_runs_and_tables(self, tmp_path):
        plans = {plan.id: plan
                 for plan in Campaign(_session(tmp_path),
                                      numbers=[16, 17]).plan()}
        run = f"run:{SCENARIO_PROGRAM}:input1:base"
        scenario = f"scenario:{SCENARIO_PROGRAM}:input1:base"
        assert sorted(plans) == [run, scenario, "table:16", "table:17"]
        assert plans[scenario].kind == "scenario"
        assert plans[scenario].deps == (run,)
        assert plans[scenario].spec == grid.scenario_spec()
        for table in ("table:16", "table:17"):
            assert plans[table].deps == (run, scenario)

    @pytest.mark.usefixtures("scenario_grid")
    def test_scenario_cells_on_the_pool_match_the_serial_runner(
            self, tmp_path, monkeypatch):
        # The disk tiers are the one hand-off: the parent reads each
        # worker's cell back, with no trace pass and no tier write.
        # (Forked workers inherit the wrappers but fill their own
        # copies of the lists.)
        replays, writes = [], []
        replay, put = Session._replay, JsonTier.put

        def counted_replay(self, key, compute):
            replays.append(key)
            return replay(self, key, compute)

        def counted_put(self, key, value, payload):
            writes.append((self.layout.name, key))
            return put(self, key, value, payload)

        monkeypatch.setattr(Session, "_replay", counted_replay)
        monkeypatch.setattr(JsonTier, "put", counted_put)
        session = _session(tmp_path)
        campaign = Campaign(session, numbers=[16, 17])
        result = campaign.run(jobs=2)
        assert replays == []
        assert [write for write in writes
                if write[0] in (PIPELINE.name, SCENARIO.name)] == []
        serial = Session(scale=SCALE, cache_dir=tmp_path / "serial")
        expected = {n: t.render() for n, t in
                    run_tables(serial, [16, 17], echo=False).items()}
        assert result.tables == expected
        cells = [entry["cell"] for entry in campaign.manifest.entries()]
        run = f"run:{SCENARIO_PROGRAM}:input1:base"
        scenario = f"scenario:{SCENARIO_PROGRAM}:input1:base"
        assert cells.index(run) < cells.index(scenario) \
            < cells.index("table:16")

    @pytest.mark.usefixtures("scenario_grid")
    def test_a_cell_that_never_reaches_disk_is_recomputed_loudly(
            self, tmp_path, caplog):
        # A file where the scenario tier's directory belongs: every
        # scenario write fails, in the workers as in the parent, and
        # the failure is swallowed where it happens.
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "scenario").write_text("")
        with caplog.at_level(logging.WARNING, logger="repro.campaign"):
            result = Campaign(_session(tmp_path),
                              numbers=[16, 17]).run(jobs=2)
        serial = Session(scale=SCALE, cache_dir=tmp_path / "serial")
        expected = {n: t.render() for n, t in
                    run_tables(serial, [16, 17], echo=False).items()}
        assert result.tables == expected
        warnings = [record.getMessage() for record in caplog.records
                    if record.name == "repro.campaign"]
        assert len(warnings) == 1
        assert f"scenario:{SCENARIO_PROGRAM}:input1:base" in warnings[0]

    @pytest.mark.usefixtures("small_grid")
    def test_no_disk_tier_computes_every_cell_in_the_parent(
            self, tmp_path, monkeypatch, capsys):
        from repro.__main__ import main
        from repro.campaign import engine

        def no_pool(*args, **kwargs):
            raise AssertionError("the campaign started a process pool")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
        assert main(["campaign", "--tables", "6,10",
                     "--scale", str(SCALE), "--jobs", "2",
                     "--no-disk-cache", "--echo-tables",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "in the parent" in out.splitlines()[0]
        serial = Session(scale=SCALE, cache_dir=tmp_path / "serial")
        for table in run_tables(serial, [6, 10], echo=False).values():
            assert table.render() in out

    @pytest.mark.usefixtures("scenario_grid")
    def test_scenario_manifest_entry_records_parameters_and_tier(
            self, tmp_path):
        Campaign(_session(tmp_path), numbers=[16]).run(jobs=1)
        again = Campaign(_session(tmp_path), numbers=[16])
        again.run(jobs=1)            # no resume: served by the disk tier
        cell = f"scenario:{SCENARIO_PROGRAM}:input1:base"
        entries = [entry for entry in again.manifest.entries()
                   if entry["cell"] == cell]
        assert [entry["tier"] for entry in entries] \
            == ["computed", "disk"]
        spec = grid.scenario_spec()
        assert entries[0]["tlb"] == [c.describe() for c in spec.tlb]
        assert entries[0]["pcax_page_size"] == spec.pcax_page_size
        assert entries[0]["threshold"] == spec.threshold
        status = again.manifest.status()
        assert status["by_kind_tier"]["scenario"] == {"disk": 1}

    @pytest.mark.usefixtures("scenario_grid")
    def test_tlb_geometry_change_recomputes_table16_on_resume(
            self, tmp_path, monkeypatch):
        from repro.tlb import TlbConfig
        first = Campaign(_session(tmp_path), numbers=[16])
        first.run(jobs=1)
        before = {plan.id: plan.digest for plan in first.plan()}
        monkeypatch.setattr(grid, "MICRO_TLB",
                            TlbConfig(page_size=256, entries=16))
        resumed = Campaign(_session(tmp_path), numbers=[16])
        after = {plan.id: plan.digest for plan in resumed.plan()}
        run = f"run:{SCENARIO_PROGRAM}:input1:base"
        scenario = f"scenario:{SCENARIO_PROGRAM}:input1:base"
        assert after[run] == before[run]
        assert after[scenario] != before[scenario]
        assert after["table:16"] != before["table:16"]
        result = resumed.run(resume=True, jobs=1)
        assert result.skipped == 1           # the run cell only
        recorded = {entry["cell"]: entry["tier"]
                    for entry in resumed.manifest.entries()
                    if entry["campaign"] == result.campaign_id}
        assert recorded == {scenario: "computed", "table:16": "computed"}
        assert "16-entry" in result.tables[16]

    @pytest.mark.usefixtures("scenario_grid")
    @pytest.mark.parametrize("pattern", [
        "129_compress-*.json", "scenario/sc-129_compress-*.json"])
    def test_a_torn_entry_is_computed_not_disk(self, tmp_path, pattern):
        Campaign(_session(tmp_path), numbers=[16]).run(jobs=1)
        torn = _tear(tmp_path / "cache", pattern)
        again = Campaign(_session(tmp_path), numbers=[16])
        result = again.run(jobs=1)   # no resume: replans every cell
        recorded = {entry["cell"]: entry["tier"]
                    for entry in again.manifest.entries()
                    if entry["campaign"] == result.campaign_id}
        cell = (f"scenario:{SCENARIO_PROGRAM}:input1:base"
                if pattern.startswith("scenario/")
                else f"run:{SCENARIO_PROGRAM}:input1:base")
        assert recorded[cell] == "computed"
        assert [tier for name, tier in recorded.items()
                if name != cell] == ["disk", "computed"]
        # the recomputation published a whole entry again
        assert all(json.loads(path.read_text()) for path in torn)

    @pytest.mark.usefixtures("scenario_grid")
    def test_resume_recomputes_a_run_cell_whose_entry_is_torn(
            self, tmp_path):
        Campaign(_session(tmp_path), numbers=[16]).run(jobs=1)
        _tear(tmp_path / "cache", "129_compress-*.json")
        resumed = Campaign(_session(tmp_path), numbers=[16])
        result = resumed.run(resume=True, jobs=1)
        run = f"run:{SCENARIO_PROGRAM}:input1:base"
        recorded = {entry["cell"]: entry["tier"]
                    for entry in resumed.manifest.entries()
                    if entry["campaign"] == result.campaign_id}
        assert recorded[run] == "computed"
        assert result.skipped == 2           # the scenario and the table

    def test_empty_repro_jobs_means_the_default(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "")
        result = Campaign(_session(tmp_path), numbers=[6]).run()
        assert sorted(result.tables) == [6]

    def test_unknown_table_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown"):
            Campaign(_session(tmp_path), numbers=[99])

    def test_profile_store_counters_surface(self, tmp_path):
        session = _session(tmp_path)
        result = Campaign(session, numbers=(10,)).run(jobs=1)
        store = result.profile_store
        assert store.get("sweep_misses", 0) \
            + store.get("sweep_memory_hits", 0) \
            + store.get("sweep_disk_hits", 0) > 0
        stats = session._profile_store.stats()
        assert 0.0 <= stats["hit_rate"] <= 1.0


# ---------------------------------------------------------------------
# the report: `repro campaign --report` is its one writer
# ---------------------------------------------------------------------
class TestReport:
    def test_campaign_report_matches_serial_render(self, tmp_path,
                                                   monkeypatch):
        from repro.__main__ import main
        from repro.experiments import ablations
        from repro.experiments.report import render_report
        from repro.machine.simulator import Machine
        monkeypatch.setattr(ablations, "WORKLOADS", (SCENARIO_PROGRAM,))
        monkeypatch.setattr(ablations, "PREFETCH_WORKLOADS", ("179.art",))
        monkeypatch.setattr(ablations, "ABLATIONS",
                            {101: ablations.slot_recurrence,
                             110: ablations.prefetch_pass})
        tables = ",".join(map(str, TABLES))
        command = ["campaign", "--tables", tables, "--scale", str(SCALE),
                   "--jobs", "1", "--cache-dir", str(tmp_path / "cache")]
        cold = tmp_path / "cold.md"
        assert main(command + ["--report", str(cold)]) == 0

        serial = Session(scale=SCALE, cache_dir=tmp_path / "serial")
        exhibits = run_tables(serial, list(TABLES), echo=False)
        exhibits[101] = ablations.slot_recurrence(serial)
        exhibits[110] = ablations.prefetch_pass(serial)
        expected = render_report(exhibits, scale=SCALE)
        assert cold.read_text() == expected
        assert f"`python -m repro campaign --tables {tables} " \
               f"--scale {SCALE} --report EXPERIMENTS.md`" in expected

        # resumed tables and ablations (Ablation J's prefetch-rewritten
        # runs included) are rebuilt from the warm tiers: no trace pass
        # and no execution
        def no_replay(*args, **kwargs):
            raise AssertionError("resumed report replayed a trace")

        def no_execution(*args, **kwargs):
            raise AssertionError("resumed report executed a program")
        monkeypatch.setattr(Session, "_replay", no_replay)
        monkeypatch.setattr(Machine, "run", no_execution)
        monkeypatch.setattr(Machine, "run_streaming", no_execution)
        resumed = tmp_path / "resumed.md"
        assert main(command + ["--resume", "--report",
                               str(resumed)]) == 0
        assert resumed.read_text() == expected


# ---------------------------------------------------------------------
# crash-resume: SIGKILL mid-campaign, resume with the tripwire armed
# ---------------------------------------------------------------------
_CHILD = """
import sys
from pathlib import Path
from repro.campaign import Campaign
from repro.pipeline.session import Session

cache_dir = Path(sys.argv[1])
session = Session(scale={scale}, cache_dir=cache_dir)
Campaign(session, numbers=(10,)).run(jobs=1)
"""


class TestCrashResume:
    def test_sigkill_then_resume_recomputes_zero_completed_cells(
            self, tmp_path, monkeypatch):
        cache = tmp_path / "killed"
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"))
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD.format(scale=SCALE),
             str(cache)],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        manifest = Manifest(campaign_dir(cache))
        try:
            # wait until at least one cell has landed, then kill hard
            deadline = time.time() + 120
            while time.time() < deadline:
                if child.poll() is not None:
                    break               # finished before we could kill
                if len(manifest.latest()) >= 1:
                    child.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.05)
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()

        completed = manifest.latest()
        assert completed, "child was killed before any cell landed"

        # arm the tripwire with every completed cell: resuming must
        # never decide to compute one of them
        forbid = tmp_path / "forbid.txt"
        forbid.write_text("\n".join(sorted(completed)) + "\n")
        monkeypatch.setenv("REPRO_CAMPAIGN_FORBID", str(forbid))
        session = Session(scale=SCALE, cache_dir=cache)
        result = Campaign(session, numbers=(10,)).run(resume=True,
                                                      jobs=1)
        assert result.skipped >= len([
            cell for cell, entry in completed.items()
            if entry.get("code") == code_digest()])
        assert sorted(result.tables) == [10]

        # byte-identical to a never-interrupted campaign
        monkeypatch.delenv("REPRO_CAMPAIGN_FORBID")
        clean = Session(scale=SCALE, cache_dir=tmp_path / "clean")
        uninterrupted = Campaign(clean, numbers=(10,)).run(jobs=1)
        assert result.tables == uninterrupted.tables


# ---------------------------------------------------------------------
# metrics plumbing: service snapshot + simulate
# ---------------------------------------------------------------------
class TestMetricsPlumbing:
    def test_simulate_response_carries_full_columns(self):
        from repro.service.ops import run_simulate

        source = ("int a[64]; int main() { int i; "
                  "for (i = 0; i < 64; i = i + 1) a[i] = a[i] + 1; "
                  "print_int(a[5]); return 0; }")
        response = run_simulate({
            "source": source, "optimize": False,
            "max_steps": 200000,
            "configs": [{"size": 1024, "assoc": 2, "block_size": 32}],
        })
        entry = response["results"][0]
        for column in ("store_misses", "store_accesses",
                       "prefetch_ops", "prefetch_fills"):
            assert column in entry
        assert sum(int(v) for v in entry["store_accesses"].values()) > 0
        assert response["block_counts"], \
            "trace-store block profile missing from response"
        assert all(int(k) >= 0 for k in response["block_counts"])
