"""Metric tests: pi, rho, ideal delta, xi — plus hypothesis invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import pct
from repro.metrics.measures import coverage, ideal_delta, precision, xi


class TestPrecision:
    def test_basic(self):
        assert precision({1, 2}, 10) == 0.2

    def test_empty_delta(self):
        assert precision(set(), 10) == 0.0

    def test_zero_loads(self):
        assert precision({1}, 0) == 0.0


class TestCoverage:
    MISSES = {1: 50, 2: 30, 3: 20}

    def test_full(self):
        assert coverage({1, 2, 3}, self.MISSES) == 1.0

    def test_partial(self):
        assert coverage({1}, self.MISSES) == 0.5
        assert coverage({2, 3}, self.MISSES) == 0.5

    def test_unknown_members_ignored(self):
        assert coverage({1, 99}, self.MISSES) == 0.5

    def test_no_misses(self):
        assert coverage({1}, {}) == 0.0


class TestIdealDelta:
    MISSES = {1: 50, 2: 30, 3: 15, 4: 5}

    def test_greedy_selection(self):
        assert ideal_delta(self.MISSES, 0.5) == {1}
        assert ideal_delta(self.MISSES, 0.8) == {1, 2}
        assert ideal_delta(self.MISSES, 0.95) == {1, 2, 3}
        assert ideal_delta(self.MISSES, 1.0) == {1, 2, 3, 4}

    def test_zero_target(self):
        assert ideal_delta(self.MISSES, 0.0) == set()

    def test_skips_zero_miss_loads(self):
        misses = {1: 10, 2: 0}
        assert ideal_delta(misses, 1.0) == {1}

    def test_coverage_of_ideal_meets_target(self):
        for target in (0.3, 0.6, 0.9):
            chosen = ideal_delta(self.MISSES, target)
            assert coverage(chosen, self.MISSES) >= target

    def test_deterministic_tie_break(self):
        misses = {5: 10, 3: 10, 8: 10}
        assert ideal_delta(misses, 0.34) == {3, 5}


class TestXi:
    EXEC = {1: 1000, 2: 500, 3: 500}

    def test_no_false_positives(self):
        assert xi({1}, {1, 2}, self.EXEC) == 0.0

    def test_all_false_positives(self):
        assert xi({2, 3}, {1}, self.EXEC) == 0.5

    def test_empty_exec(self):
        assert xi({1}, set(), {}) == 0.0


class TestFormatting:
    def test_as_percent(self):
        # a ratio formatted the way the paper prints it
        assert pct(0.1234) == "12%"
        assert pct(0.1234, 2) == "12.34%"


# -- hypothesis -------------------------------------------------------------

_miss_maps = st.dictionaries(
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=10_000),
    min_size=1, max_size=40)


@given(_miss_maps, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80)
def test_ideal_delta_is_minimal_prefix(misses, target):
    chosen = ideal_delta(misses, target)
    total = sum(misses.values())
    if total == 0:
        assert chosen == set()
        return
    assert coverage(chosen, misses) >= min(
        target, sum(m for m in misses.values() if m) / total) - 1e-9
    # greedy optimality: any same-size set covers no more
    ranked = sorted(misses.values(), reverse=True)
    best_possible = sum(ranked[:len(chosen)])
    covered = sum(misses[a] for a in chosen)
    assert covered == best_possible


@given(_miss_maps, st.sets(st.integers(min_value=0, max_value=100)))
@settings(max_examples=80)
def test_coverage_bounds_and_monotonicity(misses, delta):
    rho = coverage(delta, misses)
    assert 0.0 <= rho <= 1.0
    bigger = delta | set(misses)
    assert coverage(bigger, misses) >= rho
