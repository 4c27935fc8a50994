"""Workload suite tests: every benchmark compiles, runs deterministically
in both modes, has two distinct inputs, and exhibits its intended memory
idiom."""

import pytest

from repro.cache.config import BASELINE_CONFIG
from repro.cache.model import simulate_trace
from repro.compiler.driver import compile_source
from repro.machine.simulator import run_program
from repro.workloads.base import TEST, TRAINING
from repro.workloads.registry import ALL_WORKLOADS, BY_NAME, get, names

SCALE = 0.04          # miniature instances for the test suite
MAX_STEPS = 30_000_000

_cache = {}


def run_workload(name, input_name="input1", optimize=False,
                 scale=SCALE):
    key = (name, input_name, optimize, scale)
    if key not in _cache:
        source = get(name).generate(input_name, scale=scale)
        program = compile_source(source, optimize=optimize)
        result = run_program(program, max_steps=MAX_STEPS)
        _cache[key] = (program, result)
    return _cache[key]


class TestRegistry:
    def test_eighteen_workloads(self):
        assert len(ALL_WORKLOADS) == 18

    def test_split_11_training_7_test(self):
        assert len(names(TRAINING)) == 11
        assert len(names(TEST)) == 7

    def test_names_unique(self):
        assert len(BY_NAME) == 18

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get("999.nonesuch")

    def test_names_filter(self):
        assert set(names(TRAINING)) | set(names(TEST)) == set(names())

    def test_every_workload_has_two_inputs(self):
        for workload in ALL_WORKLOADS:
            assert workload.input_names() == ["input1", "input2"]

    def test_inputs_differ(self):
        for workload in ALL_WORKLOADS:
            first, second = workload.inputs
            assert first.params != second.params

    def test_unknown_input_raises(self):
        with pytest.raises(KeyError):
            ALL_WORKLOADS[0].generate("input3")

    def test_scaling_shrinks_params(self):
        workload = get("181.mcf")
        big = workload.generate("input1", scale=1.0)
        small = workload.generate("input1", scale=0.1)
        assert big != small


@pytest.mark.parametrize("name", names())
class TestExecution:
    def test_compiles_and_runs_unoptimized(self, name):
        program, result = run_workload(name)
        assert result.exit_code == 0
        assert result.output, f"{name} produced no output"
        assert result.steps > 1000

    def test_optimized_matches_unoptimized_output(self, name):
        _, plain = run_workload(name, optimize=False)
        _, opt = run_workload(name, optimize=True)
        assert plain.output == opt.output, (
            f"{name}: optimized output diverges")

    def test_deterministic(self, name):
        source = get(name).generate("input1", scale=SCALE)
        first = run_program(compile_source(source),
                            max_steps=MAX_STEPS)
        _, second = run_workload(name)
        assert first.output == second.output

    def test_second_input_runs(self, name):
        program, result = run_workload(name, input_name="input2")
        assert result.exit_code == 0

    def test_produces_memory_traffic(self, name):
        _, result = run_workload(name)
        assert result.trace.load_count > 100
        assert result.trace.store_count > 10


@pytest.mark.parametrize("name", names())
class TestMissBehaviour:
    def test_produces_cache_misses(self, name):
        _, result = run_workload(name)
        stats = simulate_trace(result.trace, BASELINE_CONFIG)
        assert stats.total_load_misses > 0, (
            f"{name} never misses: working set too small")

    def test_miss_distribution_skewed(self, name):
        """The paper's premise: few loads cause most misses."""
        program, result = run_workload(name)
        stats = simulate_trace(result.trace, BASELINE_CONFIG)
        ranked = stats.loads_by_misses()
        total = stats.total_load_misses
        top = max(3, len(ranked) // 10)
        covered = sum(m for _, m in ranked[:top])
        assert covered / total > 0.5, (
            f"{name}: top loads cover only {covered / total:.0%}")


class TestIdioms:
    """Spot-check that flagship workloads show their intended pattern
    classes."""

    def _features(self, name):
        from repro.patterns.builder import build_load_infos
        program, _ = run_workload(name)
        infos = build_load_infos(program)
        return [f for info in infos.values() for f in info.features]

    def test_mcf_has_two_level_derefs(self):
        feats = self._features("181.mcf")
        assert any(f.deref_depth >= 2 for f in feats)

    def test_mcf_has_recurrence(self):
        feats = self._features("181.mcf")
        assert any(f.has_recurrence for f in feats)

    def test_compress_has_shift_indexing(self):
        feats = self._features("129.compress")
        assert any(f.has_shift or f.has_mul for f in feats)

    def test_tomcatv_has_mul_indexing(self):
        feats = self._features("101.tomcatv")
        assert any(f.has_mul or f.has_shift for f in feats)

    def test_li_pointer_chasing(self):
        feats = self._features("022.li")
        assert any(f.deref_depth >= 1 and f.has_recurrence
                   for f in feats)
