"""Weight-training tests, anchored on the paper's own worked example.

Table 4 of the paper lists m/n for class 5 ('sp=1,gp=1') on seven
benchmarks and derives W(F5) = (4/48 + 6/25 + 30/67 + 6/6 + 8/13)/5 ~ 0.47.
We rebuild exactly that dataset and check our implementation of the
Section 7 formulas lands on the same weight, relevance calls and nature.
"""

import pytest

from repro.heuristic.classes import PATTERN_CLASS_NAMES
from repro.heuristic.training import (
    BenchmarkTrainingData, TrainingReport, evaluate_class, train_weights,
)

#: (benchmark, m_j %, n_j %) from the paper's Table 4.
PAPER_TABLE4 = [
    ("099.go", 0.16, 0.13),
    ("147.vortex", 4.34, 48.19),
    ("164.gzip", 0.28, 0.03),
    ("175.vpr", 6.27, 25.14),
    ("179.art", 30.44, 67.17),
    ("183.equake", 6.83, 6.72),
    ("197.parser", 8.07, 13.17),
]

RELEVANT = {"147.vortex", "175.vpr", "179.art", "183.equake",
            "197.parser"}


def bench_from_mn(name: str, m_pct: float, n_pct: float,
                  class_name: str = "F5") -> BenchmarkTrainingData:
    """Construct data whose class m/n equal the given percentages."""
    executions = 1_000_000
    misses = round(m_pct / 100.0 * executions)
    total = round(misses / (n_pct / 100.0))
    return BenchmarkTrainingData(
        name=name,
        class_members={class_name: {1}},
        load_exec={1: executions},
        load_miss={1: misses},
        total_misses=total,
    )


@pytest.fixture
def table4_data():
    return [bench_from_mn(*row) for row in PAPER_TABLE4]


class TestPaperExample:
    def test_m_and_n_roundtrip(self, table4_data):
        for data, (_, m_pct, n_pct) in zip(table4_data, PAPER_TABLE4):
            assert data.m_value("F5") * 100 == pytest.approx(m_pct,
                                                             rel=1e-3)
            assert data.n_value("F5") * 100 == pytest.approx(n_pct,
                                                             rel=1e-2)

    def test_relevance_calls_match_paper(self, table4_data):
        evaluation = evaluate_class("F5", table4_data)
        assert set(evaluation.relevant_in) == RELEVANT
        assert set(evaluation.found_in) == {b for b, _, _ in
                                            PAPER_TABLE4}

    def test_class5_is_positive(self, table4_data):
        evaluation = evaluate_class("F5", table4_data)
        assert evaluation.nature == "positive"

    def test_weight_matches_paper(self, table4_data):
        evaluation = evaluate_class("F5", table4_data)
        # exact mean of m/n over the five relevant benchmarks is 0.484;
        # the paper rounds each term and prints 0.47
        assert evaluation.weight == pytest.approx(0.484, abs=0.02)


class TestClassNature:
    def test_negative_when_n_tiny_everywhere(self):
        data = [bench_from_mn(f"b{i}", 5.0, 0.2) for i in range(4)]
        evaluation = evaluate_class("F5", data)
        assert evaluation.nature == "negative"

    def test_neutral_when_weak_on_one_relevant(self):
        data = [
            bench_from_mn("good", 10.0, 20.0),
            bench_from_mn("weak", 1.1, 60.0),   # r = 0.018 < 1/20
        ]
        evaluation = evaluate_class("F5", data)
        assert evaluation.nature == "neutral"
        assert evaluation.weight == 0.0

    def test_unseen_class_is_neutral(self):
        data = [bench_from_mn("b", 5.0, 20.0)]
        evaluation = evaluate_class("other", data)
        assert evaluation.nature == "neutral"
        assert evaluation.found_in == []

    def test_irrelevant_benchmarks_excluded_from_weight(self):
        data = [
            bench_from_mn("strong", 10.0, 10.0),   # r = 1.0
            bench_from_mn("tiny", 0.5, 0.6),       # both below threshold
        ]
        evaluation = evaluate_class("F5", data)
        assert evaluation.relevant_in == ["strong"]
        assert evaluation.weight == pytest.approx(1.0)


class TestTrainWeights:
    def make_data(self):
        """Three benchmarks exercising several aggregate classes."""
        benches = []
        for name, m_pct, n_pct in (("a", 10, 25), ("b", 20, 50),
                                   ("c", 8, 10)):
            executions = 1_000_000
            misses = round(m_pct / 100 * executions)
            total = round(misses / (n_pct / 100))
            benches.append(BenchmarkTrainingData(
                name=name,
                class_members={"AG4": {1}, "AG5": {2}, "AG3": {1, 2}},
                load_exec={1: executions, 2: executions},
                load_miss={1: misses, 2: misses},
                total_misses=2 * total,
            ))
        return benches

    def test_positive_weights_assigned(self):
        report = train_weights(self.make_data())
        assert report.weights["AG4"] > 0
        assert report.weights["AG5"] > 0

    def test_negative_weights_derived_from_positive(self):
        report = train_weights(self.make_data())
        ag9 = report.weights["AG9"]
        ag8 = report.weights["AG8"]
        assert ag9 < 0
        assert ag8 == pytest.approx(ag9 / 2, abs=0.01)

    def test_unseen_classes_get_zero(self):
        report = train_weights(self.make_data())
        assert report.weights["AG7"] == 0.0

    def test_report_structure(self):
        report = train_weights(self.make_data())
        assert set(report.benchmarks) == {"a", "b", "c"}
        for name in PATTERN_CLASS_NAMES:
            assert name in report.evaluations

    def test_trimmed_mean_excludes_extremes(self):
        # positive weights 0.1, 0.5, 2.0 -> trimmed mean = 0.5
        benches = []
        executions = 1_000_000
        for cls, ratio in (("AG4", 0.1), ("AG5", 0.5), ("AG6", 2.0)):
            misses = 100_000
            # choose totals so that W = m/n equals `ratio` exactly
            total = round(executions * ratio)
            benches.append(BenchmarkTrainingData(
                name=f"bench_{cls}",
                class_members={cls: {1}},
                load_exec={1: executions},
                load_miss={1: misses},
                total_misses=total,
            ))
        report = train_weights(benches)
        assert report.weights["AG9"] == pytest.approx(-0.5, abs=0.01)
        assert report.weights["AG8"] == pytest.approx(-0.25, abs=0.01)


class TestCollect:
    def test_collect_builds_membership(self, sample_program):
        from repro.machine.simulator import run_program
        from repro.cache.model import simulate_trace
        from repro.cache.config import BASELINE_CONFIG
        from repro.patterns.builder import build_load_infos
        from repro.profiling.profile import BlockProfile
        result = run_program(sample_program)
        stats = simulate_trace(result.trace, BASELINE_CONFIG)
        infos = build_load_infos(sample_program)
        data = BenchmarkTrainingData.collect(
            name="sample",
            load_infos=infos,
            exec_counts=BlockProfile.from_execution(
                sample_program, result).load_exec_counts(),
            load_misses=stats.load_misses,
            hotspot_loads=set(),
        )
        # aggregate and fine classes both present
        assert any(k.startswith("H1:") for k in data.class_members)
        assert any(k.startswith("AG") for k in data.class_members)
        assert data.total_misses == stats.total_load_misses
