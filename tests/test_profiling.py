"""Basic-block profiling and combined-scheme tests."""

import pytest

from repro.heuristic.classifier import DelinquencyClassifier
from repro.metrics.measures import coverage
from repro.patterns.builder import build_load_infos
from repro.profiling.combined import combined_delta, \
    random_hotspot_coverage
from repro.profiling.profile import BlockProfile


@pytest.fixture(scope="module")
def profile(sample_program, sample_result):
    return BlockProfile.from_execution(sample_program, sample_result)


class TestBlockProfile:
    def test_total_cycles_match_steps(self, profile, sample_result):
        assert profile.total_cycles == sample_result.steps

    def test_hotspots_cover_cycle_share(self, profile):
        hot = profile.hotspot_blocks(0.9)
        cycles = profile.block_cycles
        covered = sum(cycles[leader] for leader in hot)
        assert covered >= 0.9 * profile.total_cycles

    def test_hotspots_are_minimal_greedy(self, profile):
        hot = profile.hotspot_blocks(0.9)
        cycles = profile.block_cycles
        # dropping the smallest chosen block must fall below the target
        smallest = min(hot, key=lambda leader: cycles[leader])
        covered = sum(cycles[leader] for leader in hot
                      if leader != smallest)
        assert covered < 0.9 * profile.total_cycles

    def test_hotspot_loads_subset_of_loads(self, profile,
                                           sample_program):
        loads = set(sample_program.load_addresses())
        assert profile.hotspot_loads() <= loads

    def test_share_one_selects_everything_executed(self, profile):
        everything = profile.hotspot_blocks(1.0)
        executed = {leader for leader, count
                    in profile.block_counts.items() if count}
        assert everything == executed

    def test_load_exec_counts_complete(self, profile, sample_program):
        counts = profile.load_exec_counts()
        assert set(counts) == set(sample_program.load_addresses())
        assert all(count >= 0 for count in counts.values())

    def test_loop_loads_execute_often(self, profile, sample_program):
        counts = profile.load_exec_counts()
        assert max(counts.values()) >= 40   # the 40-iteration loops


class TestCombined:
    @pytest.fixture()
    def setup(self, sample_program, sample_result, profile):
        infos = build_load_infos(sample_program)
        heuristic = DelinquencyClassifier().classify(
            infos, profile.load_exec_counts(), profile.hotspot_loads())
        return profile.hotspot_loads(), heuristic

    def test_eps_zero_is_intersection(self, setup):
        delta_p, heuristic = setup
        combined = combined_delta(delta_p, heuristic, 0.0)
        assert combined == delta_p & heuristic.delinquent_set

    def test_eps_monotone(self, setup):
        delta_p, heuristic = setup
        previous = None
        for eps in (0.0, 0.25, 0.5, 1.0):
            combined = combined_delta(delta_p, heuristic, eps)
            if previous is not None:
                assert previous <= combined
            previous = combined

    def test_eps_one_is_full_heuristic_union(self, setup):
        delta_p, heuristic = setup
        combined = combined_delta(delta_p, heuristic, 1.0)
        assert combined == (delta_p & heuristic.delinquent_set) \
            | (heuristic.delinquent_set
               - (delta_p & heuristic.delinquent_set))

    def test_eps_adds_highest_scoring_first(self, setup):
        delta_p, heuristic = setup
        leftovers = heuristic.delinquent_set \
            - (delta_p & heuristic.delinquent_set)
        if len(leftovers) < 2:
            pytest.skip("not enough leftover loads in sample")
        combined = combined_delta(delta_p, heuristic, 0.5)
        added = combined - (delta_p & heuristic.delinquent_set)
        scores = heuristic.scores()
        if added and (leftovers - added):
            assert min(scores[a] for a in added) >= \
                max(scores[a] for a in (leftovers - added)) - 1e-9


class TestRandomBaseline:
    MISSES = {1: 100, 2: 0, 3: 0, 4: 0}

    def test_deterministic_with_seed(self):
        pool = {1, 2, 3, 4}
        first = random_hotspot_coverage(pool, 2, self.MISSES, seed=1)
        second = random_hotspot_coverage(pool, 2, self.MISSES, seed=1)
        assert first == second

    def test_full_sample_covers_everything(self):
        pool = {1, 2, 3, 4}
        assert random_hotspot_coverage(pool, 4, self.MISSES) == 1.0

    def test_empty_pool(self):
        assert random_hotspot_coverage(set(), 3, self.MISSES) == 0.0

    def test_size_clamped_to_pool(self):
        pool = {1, 2}
        value = random_hotspot_coverage(pool, 99, self.MISSES)
        assert value == coverage(pool, self.MISSES)


class TestObservedLoadExecCounts:
    """Per-load execution counts tallied from a trace
    (:func:`repro.cache.model.source_access_counts`)."""

    def test_matches_result_load_exec_counts(self, sample_program):
        from repro.cache.model import source_access_counts
        from repro.machine.simulator import Machine
        machine = Machine(sample_program, trace_memory=True)
        result = machine.run()
        observed = source_access_counts(machine.trace)[0]
        counts = BlockProfile.from_execution(sample_program,
                                             result).load_exec_counts()
        expected = {pc: count for pc, count in counts.items() if count}
        assert observed == expected

    def test_empty_trace(self):
        from repro.cache.model import source_access_counts
        from repro.machine.trace import MemoryTrace
        assert source_access_counts(MemoryTrace()) == ({}, {}, 0)
