"""Experiment harness tests on a miniature two-benchmark session."""

import pytest

from repro.experiments import (
    paperdata, report, runner, table01, table05, table06, table07,
    table11, table12, table13, table14,
)
from repro.experiments.common import Table, mean, pct
from repro.pipeline.session import Session

NAMES = ("129.compress", "181.mcf")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return Session(scale=0.03,
                   cache_dir=tmp_path_factory.mktemp("cache"))


class TestTableObject:
    def test_render_alignment(self):
        table = Table("Table X", "demo", ["A", "BBB"], [])
        table.add_row("one", 1)
        table.add_row("twotwo", 22)
        text = table.render()
        lines = text.splitlines()
        assert lines[0].startswith("Table X: demo")
        assert len({line.index("B") for line in lines[1:2]}) == 1

    def test_cell_lookup(self):
        table = Table("T", "t", ["Benchmark", "pi"])
        table.add_row("x", "10%")
        assert table.cell("x", "pi") == "10%"
        with pytest.raises(KeyError):
            table.cell("nope", "pi")

    def test_pct_and_mean(self):
        assert pct(0.1234) == "12%"
        assert pct(0.1234, 2) == "12.34%"
        assert mean([1.0, 3.0]) == 2.0
        assert mean([]) == 0.0


class TestTables:
    def test_table06_lists_all(self, session):
        table = table06.run(session)
        assert len(table.rows) == 18

    def test_table01_structure(self, session):
        table = table01.run(session, names=NAMES)
        assert [row[0] for row in table.rows[:-1]] == list(NAMES)
        assert table.rows[-1][0] == "AVERAGE"

    def test_table07_two_inputs(self, session):
        table = table07.run(session, names=NAMES)
        for row in table.rows[:-1]:
            assert "/" in row[1] and "/" in row[2]

    def test_table11_pi_without_freq_at_least_with(self, session):
        table = table11.run(session, names=NAMES)
        for row in table.rows[:-1]:
            with_freq = float(row[1].rstrip("%"))
            without = float(row[4].rstrip("%"))
            assert without >= with_freq - 1e-9

    def test_table12_baselines_less_precise(self, session):
        ours = table11.run(session, names=NAMES)
        baselines = table12.run(session, names=NAMES)
        for our_row, base_row in zip(ours.rows[:-1],
                                     baselines.rows[:-1]):
            our_pi = float(our_row[1].rstrip("%"))
            okn_pi = float(base_row[1].rstrip("%"))
            assert okn_pi > our_pi

    def test_table13_monotone_pi(self, session):
        table = table13.run(session, names=NAMES)
        for row in table.rows[:-1]:
            pis = [float(cell.split("/")[0].strip().rstrip("%"))
                   for cell in row[1:]]
            assert pis == sorted(pis, reverse=True)

    def test_table14_combined_sharpens(self, session):
        combined = table14.run(session, names=NAMES)
        alone = table11.run(session, names=NAMES)
        for c_row, a_row in zip(combined.rows[:-1], alone.rows[:-1]):
            pi_combined = float(c_row[1].rstrip("%"))
            pi_alone = float(a_row[1].rstrip("%"))
            assert pi_combined <= pi_alone + 1e-9

    def test_table05_has_all_classes(self, session):
        table = table05.run(session, names=NAMES)
        assert [row[0] for row in table.rows] == [
            f"AG{i}" for i in range(1, 10)]


class TestRunnerAndReport:
    def test_run_tables_subset(self, session):
        results = runner.run_tables(session, [6], echo=False)
        assert set(results) == {6}

    def test_report_written(self, session, tmp_path):
        results = runner.run_tables(session, [6], echo=False)
        path = tmp_path / "EXP.md"
        report.write_report(results, str(path))
        text = path.read_text()
        assert "Table 6" in text
        assert text.startswith("# EXPERIMENTS")

    def test_report_shape_checks_for_table12(self, session):
        results = runner.run_tables(session, [11, 12], echo=False)
        text = report.render_report(results)
        assert "Shape checks" in text
        assert "[x]" in text

    def test_paperdata_complete(self):
        assert len(paperdata.TABLE1) == 18
        assert len(paperdata.TABLE11) == 18
        assert len(paperdata.TABLE12) == 18
        assert len(paperdata.TABLE7) == 11
        assert len(paperdata.TABLE10) == 7
        assert len(paperdata.TABLE5_WEIGHTS) == 9


class TestAblations:
    def test_registry_is_numbered_after_the_tables(self):
        from repro.experiments import ablations
        assert sorted(ablations.ABLATIONS) == list(range(101, 111))
        assert not set(ablations.ABLATIONS) & set(runner.TABLE_MODULES)

    def test_l2_hierarchy_replays_the_stored_trace(self, tmp_path,
                                                   monkeypatch):
        # Ablation I reads the trace through the session's handle: on a
        # warm store it executes nothing, and it matches a replay of a
        # fresh execution's materialized trace
        from repro.cache.hierarchy import simulate_trace_hierarchy
        from repro.experiments import ablations
        from repro.heuristic.classifier import DelinquencyClassifier
        from repro.machine.simulator import Machine
        monkeypatch.setattr(ablations, "WORKLOADS", NAMES[:1])
        Session(scale=0.03, cache_dir=tmp_path).measurement(NAMES[0])

        def no_execution(self, *args, **kwargs):
            raise AssertionError("Ablation I executed a workload")
        for method in ("run", "run_streaming"):
            monkeypatch.setattr(Machine, method, no_execution)
        warm = Session(scale=0.03, cache_dir=tmp_path)
        table = ablations.l2_hierarchy(warm)
        monkeypatch.undo()

        m = warm.measurement(NAMES[0])
        delta = DelinquencyClassifier().classify(
            m.load_infos, m.load_exec,
            m.profile.hotspot_loads()).delinquent_set
        stats = simulate_trace_hierarchy(Machine(m.program).run().trace)
        l1_rho = (sum(stats.l1_load_misses.get(a, 0) for a in delta)
                  / max(1, stats.total_l1_load_misses))
        assert table.rows == [[NAMES[0],
                               pct(len(delta) / m.num_loads),
                               pct(l1_rho),
                               pct(stats.l2_miss_coverage(delta))]]
