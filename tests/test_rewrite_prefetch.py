"""Binary rewriter and prefetch-pass tests."""

import pytest

from repro.asm.assembler import assemble
from repro.cache.config import BASELINE_CONFIG
from repro.cache.model import simulate_trace
from repro.compiler.driver import compile_source
from repro.experiments import ablations
from repro.heuristic.classifier import DelinquencyClassifier
from repro.isa.instructions import Instruction
from repro.machine.simulator import Machine, run_program
from repro.patterns.builder import build_load_infos
from repro.pipeline.session import Session
from repro.prefetch.evaluate import compare_policies
from repro.prefetch.pass_ import apply_prefetching, plan_prefetches
from repro.profiling.profile import BlockProfile
from repro.rewrite.inserter import (
    RewriteError, RewriteResult, insert_instructions,
)
from repro.workloads.registry import get as get_workload
from tests.conftest import SAMPLE_EXPECTED, SAMPLE_SOURCE

STRIDED_SRC = r"""
float *data;
int main() {
    int i; int it;
    float acc;
    data = (float*) malloc(65536);
    for (i = 0; i < 16384; i = i + 1)
        data[i] = (float)(i & 255);
    acc = 0.0;
    for (it = 0; it < 3; it = it + 1)
        for (i = 0; i < 16384; i = i + 1)
            acc = acc + data[i];
    print_int((int) acc);
    return 0;
}
"""


def nop():
    return Instruction("sll", rd=0, rt=0, shamt=0)


class TestRewriter:
    def test_insert_preserves_semantics(self, sample_program):
        # sprinkle nops before every 5th instruction
        insertions = {
            sample_program.address_of(i): [nop()]
            for i in range(0, len(sample_program.instructions), 5)
        }
        result = insert_instructions(sample_program, insertions)
        out = run_program(result.program)
        assert out.output == [SAMPLE_EXPECTED]

    def test_lengths_and_map(self, sample_program):
        target = sample_program.address_of(3)
        result = insert_instructions(sample_program,
                                     {target: [nop(), nop()]})
        assert len(result.program.instructions) \
            == len(sample_program.instructions) + 2
        # everything before the insertion keeps its address
        assert result.address_map[sample_program.address_of(0)] \
            == sample_program.address_of(0)
        # the target itself shifted by 8 bytes
        assert result.address_map[target] == target + 8

    def test_branch_targets_remapped(self):
        src = (".text\n.ent main\nmain:\nli $t0, 0\nli $t1, 5\n"
               "loop: addiu $t0, $t0, 1\nblt $t0, $t1, loop\n"
               "move $v0, $t0\njr $ra\n.end main\n"
               ".ent __start\n__start:\njal main\nmove $a0, $v0\n"
               "li $v0, 10\nsyscall\n.end __start\n")
        program = assemble(src)
        loop = program.symbols["loop"]
        result = insert_instructions(program, {loop: [nop(), nop()]})
        out = run_program(result.program)
        assert out.exit_code == 5

    def test_symbols_and_debug_remapped(self, sample_program):
        walk = sample_program.symbols["walk"]
        result = insert_instructions(sample_program, {walk: [nop()]})
        rewritten = result.program
        assert rewritten.symbols["walk"] == result.address_map[walk]
        info = rewritten.symtab.functions["walk"]
        assert info.start == rewritten.symbols["walk"]
        assert info.end > info.start

    def test_entry_remapped(self, sample_program):
        result = insert_instructions(
            sample_program, {sample_program.entry: [nop()]})
        assert result.program.entry == sample_program.entry + 4
        out = run_program(result.program)
        assert out.output == [SAMPLE_EXPECTED]

    def test_original_untouched(self, sample_program):
        before = len(sample_program.instructions)
        insert_instructions(sample_program,
                            {sample_program.entry: [nop()]})
        assert len(sample_program.instructions) == before

    def test_invalid_address_rejected(self, sample_program):
        with pytest.raises(ValueError):
            insert_instructions(sample_program, {0x123: [nop()]})

    def test_text_pointer_in_data_rejected(self):
        src = (".data\nfp: .word main\n.text\n.ent main\n"
               "main: jr $ra\n.end main\n")
        program = assemble(src)
        with pytest.raises(RewriteError):
            insert_instructions(program, {program.entry: [nop()]})

    def test_check_can_be_disabled(self):
        src = (".data\nfp: .word main\n.text\n.ent main\n"
               "main: jr $ra\n.end main\n")
        program = assemble(src)
        result = insert_instructions(program, {}, check=False)
        assert isinstance(result, RewriteResult)


class TestPrefetchPlan:
    @pytest.fixture(scope="class")
    def setup(self):
        program = compile_source(STRIDED_SRC)
        infos = build_load_infos(program)
        delta = DelinquencyClassifier(use_frequency=False).classify(
            infos).delinquent_set
        return program, infos, delta

    def test_plan_selects_delta_loads(self, setup):
        program, infos, delta = setup
        plan = plan_prefetches(program, delta, infos)
        assert set(plan.lookaheads) <= delta
        assert len(plan) > 0

    def test_strided_lookahead_larger_than_pointer(self, setup):
        program, infos, delta = setup
        plan = plan_prefetches(program, delta, infos, block_size=32,
                               stride_blocks=4)
        assert max(plan.lookaheads.values()) == 128

    def test_non_load_addresses_ignored(self, setup):
        program, infos, delta = setup
        plan = plan_prefetches(program, {program.entry}, infos)
        assert len(plan) == 0

    def test_offset_overflow_skipped(self):
        src = (".text\n.ent main\nmain:\n"
               "lw $t0, 32760($sp)\njr $ra\n.end main\n")
        program = assemble(src)
        load = program.entry
        plan = plan_prefetches(program, {load},
                               build_load_infos(program))
        assert load in plan.skipped


class TestPrefetchEndToEnd:
    @pytest.fixture(scope="class")
    def comparison(self):
        program = compile_source(STRIDED_SRC)
        infos = build_load_infos(program)
        delta = DelinquencyClassifier(use_frequency=False).classify(
            infos).delinquent_set
        return compare_policies(program, delta)

    def test_semantics_preserved(self):
        program = compile_source(STRIDED_SRC)
        base = run_program(program)
        infos = build_load_infos(program)
        delta = DelinquencyClassifier(use_frequency=False).classify(
            infos).delinquent_set
        rewritten = apply_prefetching(program, delta).program
        assert run_program(rewritten).output == base.output

    def test_delta_policy_removes_misses(self, comparison):
        assert comparison.delta.load_misses \
            < 0.2 * comparison.none.load_misses

    def test_delta_policy_speeds_up(self, comparison):
        assert comparison.speedup(comparison.delta) > 1.0

    def test_all_loads_overhead_dominates(self, comparison):
        assert comparison.all_loads.prefetch_ops \
            > 3 * comparison.delta.prefetch_ops
        assert comparison.speedup(comparison.all_loads) \
            < comparison.speedup(comparison.delta)

    def test_render(self, comparison):
        text = comparison.render()
        assert "delta-guided" in text and "speedup" in text

    def test_miss_reduction_metric(self, comparison):
        assert comparison.miss_reduction(comparison.delta) > 0.8
        assert comparison.miss_reduction(comparison.none) == 0.0


class TestAblationJ:
    """Ablation J's session runs against fresh materialized executions."""

    NAME = "179.art"
    SCALE = 0.03

    @pytest.fixture(scope="class")
    def session(self, tmp_path_factory):
        return Session(scale=self.SCALE,
                       cache_dir=tmp_path_factory.mktemp("ablation-j"))

    @pytest.fixture(scope="class")
    def reference(self):
        """steps, load misses and store misses of each policy, from a
        materializing ``Machine.run`` plus ``simulate_trace``."""
        program = compile_source(get_workload(self.NAME).generate(
            "input1", scale=self.SCALE))
        base = Machine(program).run()
        profile = BlockProfile.from_execution(program, base)
        infos = build_load_infos(program)
        delta = DelinquencyClassifier().classify(
            infos, profile.load_exec_counts(),
            profile.hotspot_loads()).delinquent_set
        measured = {}
        for policy, pcs in (("none", set()), ("delta-guided", delta),
                            ("all-loads", set(program.load_addresses()))):
            rewritten = apply_prefetching(program, pcs).program \
                if pcs else program
            result = Machine(rewritten).run()
            stats = simulate_trace(result.trace, BASELINE_CONFIG)
            measured[policy] = (result.steps, stats.total_load_misses,
                                stats.total_store_misses,
                                stats.prefetch_ops)
        return measured

    def test_rows_match_materialized_reference(self, session, reference,
                                               monkeypatch):
        monkeypatch.setattr(ablations, "PREFETCH_WORKLOADS", (self.NAME,))
        table = ablations.prefetch_pass(session)

        def cycles(policy):
            steps, load_misses, store_misses, _ = reference[policy]
            return steps + 30 * (load_misses + store_misses)

        none = cycles("none")
        assert table.rows == [[
            self.NAME,
            f"{none / cycles('delta-guided'):.2f}x",
            f"{none / cycles('all-loads'):.2f}x",
            f"{reference['delta-guided'][3]:,}",
            f"{reference['all-loads'][3]:,}"]]

    def test_each_policy_matches_reference(self, session, reference):
        comparison = ablations.prefetch_comparison(session, self.NAME)
        for result in (comparison.none, comparison.delta,
                       comparison.all_loads):
            assert (result.instructions, result.load_misses,
                    result.store_misses, result.prefetch_ops) \
                == reference[result.policy]

    def test_none_is_the_baseline_run(self, session):
        none = ablations.prefetch_comparison(session, self.NAME).none
        m = session.measurement(self.NAME)
        stats = session.stats(self.NAME)
        assert none.instructions == m.steps
        assert none.load_misses == m.total_load_misses
        assert none.store_misses == stats.total_store_misses
        assert none.prefetch_ops == 0
