"""Tests for the confusion-matrix validation module and JSON export."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import analyze_program
from repro.export import (
    SCHEMA_VERSION, load_report_json, report_to_dict, report_to_json,
    write_report_json,
)
from repro.metrics.validation import (
    ConfusionMatrix, against_ideal, confusion,
)

SRC = r"""
int table[2048];
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 2048; i = i + 1)
        table[(i * 37) & 2047] = i;
    for (i = 0; i < 4096; i = i + 1)
        s = s + table[(i * 53) & 2047];
    print_int(s);
    return 0;
}
"""


class TestConfusionMatrix:
    def test_basic_counts(self):
        cm = confusion(delta={1, 2, 3}, truth={2, 3, 4},
                       all_loads={1, 2, 3, 4, 5, 6})
        assert (cm.true_positive, cm.false_positive,
                cm.false_negative, cm.true_negative) == (2, 1, 1, 2)

    def test_scores(self):
        cm = ConfusionMatrix(true_positive=8, false_positive=2,
                             false_negative=2, true_negative=88)
        assert cm.precision == 0.8
        assert cm.recall == 0.8
        assert cm.f1 == pytest.approx(0.8)
        assert cm.accuracy == 0.96

    def test_degenerate_empty(self):
        cm = ConfusionMatrix(0, 0, 0, 0)
        assert cm.precision == cm.recall == cm.f1 == cm.accuracy == 0.0

    def test_out_of_universe_members_ignored(self):
        cm = confusion(delta={1, 99}, truth={1, 98}, all_loads={1, 2})
        assert cm.true_positive == 1
        assert cm.false_positive == 0
        assert cm.false_negative == 0

    def test_describe(self):
        cm = ConfusionMatrix(1, 2, 3, 4)
        text = cm.describe()
        assert "TP=1" in text and "f1=" in text


class TestAgainstIdeal:
    def test_perfect_predictor(self):
        misses = {1: 80, 2: 15, 3: 5}
        truth_delta = {1, 2}
        cm = against_ideal(truth_delta, misses, {1, 2, 3},
                           target_rho=0.95)
        assert cm.false_positive == 0
        assert cm.false_negative == 0
        assert cm.f1 == 1.0

    def test_on_real_analysis(self):
        report = analyze_program(SRC)
        cm = against_ideal(report.delinquent_loads,
                           report.cache_stats.load_misses,
                           set(report.program.load_addresses()))
        # the heavy table loads must be caught
        assert cm.recall > 0.8
        assert cm.total == report.program.num_loads()


# hypothesis: confusion matrix identities
_sets = st.sets(st.integers(min_value=0, max_value=30))


@given(_sets, _sets, _sets)
@settings(max_examples=80)
def test_confusion_partition(delta, truth, extra):
    universe = delta | truth | extra
    cm = confusion(delta, truth, universe)
    assert cm.total == len(universe)
    assert cm.true_positive + cm.false_negative == len(truth & universe)
    assert cm.true_positive + cm.false_positive == len(delta & universe)


class TestExport:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_program(SRC)

    def test_dict_structure(self, report):
        payload = report_to_dict(report)
        assert payload["schema_version"] == SCHEMA_VERSION
        summary = payload["summary"]
        assert summary["num_loads"] == report.program.num_loads()
        assert summary["num_delinquent"] == len(report.delinquent_loads)
        assert 0 <= summary["pi"] <= 1
        assert "rho" in summary
        assert len(payload["loads"]) == report.program.num_loads()

    def test_load_entries(self, report):
        payload = report_to_dict(report)
        entry = payload["loads"][0]
        for key in ("address", "function", "instruction", "phi",
                    "delinquent", "classes", "patterns", "misses",
                    "exec_count"):
            assert key in entry
        assert entry["address"].startswith("0x")

    def test_json_round_trip(self, report, tmp_path):
        path = tmp_path / "analysis.json"
        write_report_json(report, str(path))
        payload = load_report_json(str(path))
        assert payload["summary"]["num_loads"] \
            == report.program.num_loads()

    def test_json_is_valid(self, report):
        parsed = json.loads(report_to_json(report))
        assert parsed["schema_version"] == SCHEMA_VERSION

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError):
            load_report_json(str(path))

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        with pytest.raises(ValueError):
            load_report_json(str(path))

    def test_static_only_export(self):
        report = analyze_program(SRC, execute=False)
        payload = report_to_dict(report)
        assert "rho" not in payload["summary"]
        assert "misses" not in payload["loads"][0]
