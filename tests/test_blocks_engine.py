"""Blocks-engine equivalence and trace-column tests.

The block execution engine must be observably indistinguishable from the
closure reference engine: same :class:`ExecutionResult`, same profile
counters, byte-identical trace columns.  These tests pin that contract
over every registry workload plus targeted corner cases (mid-block jr
entries, syscalls splitting a block, the step budget, the constructor
fallback), pin the lazy, program-scoped compilation contract, and cover
the :class:`MemoryTrace` column API the engine relies on.
"""

import logging
import pickle

import pytest

from repro.asm.assembler import assemble
from repro.compiler.driver import compile_source
from repro.isa.instructions import SPECS, Instruction
from repro.machine import codegen
from repro.machine.errors import StepLimitExceeded
from repro.machine.simulator import (ENGINE_BLOCKS, ENGINE_CLOSURES,
                                     Machine, resolve_engine)
from repro.machine.trace import LOAD, PREFETCH, STORE, MemoryTrace
from repro.workloads.registry import get, names
from tests.conftest import SAMPLE_SOURCE

#: Small but non-trivial: every workload still runs 10^5..10^6+ steps.
EQUIVALENCE_SCALE = 0.01


def run_both(program, **kwargs):
    machines = {}
    results = {}
    for engine in (ENGINE_CLOSURES, ENGINE_BLOCKS):
        machine = Machine(program, trace_memory=True, engine=engine,
                          **kwargs)
        machines[engine] = machine
        results[engine] = machine.run()
    return machines, results


def assert_equivalent(program, machines, results):
    ref = results[ENGINE_CLOSURES]
    out = results[ENGINE_BLOCKS]
    ref_trace = machines[ENGINE_CLOSURES].trace
    out_trace = machines[ENGINE_BLOCKS].trace
    assert machines[ENGINE_BLOCKS]._block_engine is not None, \
        "blocks engine silently fell back to closures"
    assert out.steps == ref.steps
    assert out.exit_code == ref.exit_code
    assert out.output == ref.output
    assert out.block_counts == ref.block_counts
    assert out_trace.pcs.tobytes() == ref_trace.pcs.tobytes()
    assert out_trace.addresses.tobytes() == ref_trace.addresses.tobytes()
    assert out_trace.kinds.tobytes() == ref_trace.kinds.tobytes()


@pytest.mark.parametrize("name", names())
def test_engine_equivalence_on_workload(name):
    """Both engines agree bit for bit on every registry workload."""
    source = get(name).generate("input1", scale=EQUIVALENCE_SCALE)
    program = compile_source(source)
    machines, results = run_both(program)
    assert_equivalent(program, machines, results)


@pytest.mark.parametrize("name", ["129.compress", "181.mcf", "099.go"])
def test_engine_equivalence_on_optimized_workload(name):
    """Optimized builds produce different block/branch shapes (e.g.
    registers carried across loop back edges), so a few workloads are
    checked under the optimizer too."""
    source = get(name).generate("input1", scale=EQUIVALENCE_SCALE)
    program = compile_source(source, optimize=True)
    machines, results = run_both(program)
    assert_equivalent(program, machines, results)


class TestEngineSelection:
    def test_default_is_blocks(self, sample_program):
        machine = Machine(sample_program)
        assert machine.engine == ENGINE_BLOCKS
        assert machine._block_engine is not None

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown execution engine"):
            resolve_engine("jit")

    def test_compile_failure_falls_back_to_closures(self, sample_program,
                                                    monkeypatch, caplog):
        def boom(machine):
            raise RuntimeError("codegen exploded")

        monkeypatch.setattr("repro.machine.codegen.BlockEngine", boom)
        with caplog.at_level(logging.WARNING, logger="repro.machine"):
            machine = Machine(sample_program, engine=ENGINE_BLOCKS)
        assert machine.engine == ENGINE_CLOSURES
        assert machine._block_engine is None
        (record,) = caplog.records
        assert record.name == "repro.machine"
        assert record.levelno == logging.WARNING
        assert "codegen exploded" in record.getMessage()
        result = machine.run()
        assert result.exit_code == 0


class TestEngineCornerCases:
    def test_mid_block_jr_compiles_tail_on_demand(self):
        """A computed jump into the middle of a block hits the
        ``compile_on_entry`` stub, which compiles the tail once and
        replaces itself."""
        program = assemble(
            ".text\n.ent __start\n__start:\n"
            "la $t0, spot\naddiu $t0, $t0, 8\njr $t0\n"
            "spot:\nli $v0, 1\nli $v0, 2\nli $a0, 42\n"
            "li $v0, 10\nsyscall\n.end __start\n")
        machine = Machine(program, engine=ENGINE_BLOCKS)
        index = program.index_of(program.symbols["spot"] + 8)
        assert machine._block_engine.funcs[index].__name__ \
            == "compile_on_entry"
        result = machine.run()
        assert result.exit_code == 42
        assert machine._block_engine.funcs[index].__name__ == "block"

    def test_mid_block_entry_matches_closures(self):
        source = (".text\n.ent __start\n__start:\n"
                  "la $t0, spot\naddiu $t0, $t0, 8\njr $t0\n"
                  "spot:\nli $v0, 1\nli $v0, 2\nli $a0, 42\n"
                  "li $v0, 10\nsyscall\n.end __start\n")
        program = assemble(source)
        machines, results = run_both(program)
        assert_equivalent(program, machines, results)

    def test_syscall_mid_block_preserves_trace_order(self):
        """Accesses before an in-block syscall flush ahead of it, so
        output interleaving and trace order both match the reference."""
        source = r"""
        int buffer[8];
        int main() {
            int i;
            for (i = 0; i < 8; i = i + 1) {
                buffer[i] = i * i;
                print_int(buffer[i]);
            }
            return 0;
        }
        """
        program = compile_source(source)
        machines, results = run_both(program)
        assert_equivalent(program, machines, results)
        assert results[ENGINE_BLOCKS].output \
            == [i * i for i in range(8)]

    def test_loop_carried_write_synced_on_exit(self):
        """Regression: a register written only on a branch side that
        ends in ``continue`` carries its value into later iterations,
        so an exit through the *other* side must still write it back."""
        source = r"""
        int main() {
            int i; int s;
            i = 0; s = 0;
            while (1) {
                i = i + 1;
                if (i > 20) break;
                if (i % 2 == 0) continue;
                s = s + i;
            }
            print_int(s);
            return 0;
        }
        """
        for optimize in (False, True):
            program = compile_source(source, optimize=optimize)
            machines, results = run_both(program)
            assert_equivalent(program, machines, results)
            assert results[ENGINE_BLOCKS].output == [100]

    def test_step_limit_raises_identically(self, sample_program):
        with pytest.raises(StepLimitExceeded) as ref_exc:
            Machine(sample_program, engine=ENGINE_CLOSURES,
                    max_steps=200).run()
        with pytest.raises(StepLimitExceeded) as out_exc:
            Machine(sample_program, engine=ENGINE_BLOCKS,
                    max_steps=200).run()
        assert str(out_exc.value) == str(ref_exc.value)


def _counting_compiles(monkeypatch):
    """Counts ``compile`` calls made by the block engine."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return compile(*args, **kwargs)
    monkeypatch.setattr(codegen, "compile", counting, raising=False)
    return calls


def _outcome(machine, result):
    trace = machine.trace
    columns = (None if trace is None else
               (trace.pcs.tobytes(), trace.addresses.tobytes(),
                trace.kinds.tobytes()))
    return (result.steps, result.exit_code, result.output,
            result.block_counts, columns)


def _run(program, engine, **kwargs):
    machine = Machine(program, engine=engine, **kwargs)
    return machine, _outcome(machine, machine.run())


class TestLazyProgramScopedCode:
    def test_never_dispatched_leader_keeps_its_stub(self):
        program = compile_source(
            "int unused(int x) { return x * 3; }\n"
            "int main() { print_int(7); return 0; }\n")
        machine, outcome = _run(program, ENGINE_BLOCKS)
        _, reference = _run(program, ENGINE_CLOSURES)
        assert outcome == reference
        address = program.symbols["unused"]
        index = program.index_of(address)
        assert machine._block_engine.funcs[index].__name__ \
            == "compile_on_entry"
        assert machine.run().block_counts[address] == 0
        entry = program.index_of(program.entry)
        assert machine._block_engine.funcs[entry].__name__ == "block"

    def test_second_machine_compiles_nothing(self, monkeypatch):
        program = compile_source(SAMPLE_SOURCE)
        compiles = _counting_compiles(monkeypatch)
        _, first = _run(program, ENGINE_BLOCKS)
        assert compiles
        compiles.clear()
        second_machine, second = _run(program, ENGINE_BLOCKS)
        assert compiles == []
        assert second_machine._block_engine is not None
        assert second == first
        assert second == _run(program, ENGINE_CLOSURES)[1]

    def test_traced_untraced_and_limits_do_not_share_code(self):
        program = compile_source(SAMPLE_SOURCE)
        variants = [dict(trace_memory=True), dict(trace_memory=False),
                    dict(trace_memory=True, max_steps=10 ** 7)]
        for kwargs in variants:
            assert (_run(program, ENGINE_BLOCKS, **kwargs)[1]
                    == _run(program, ENGINE_CLOSURES, **kwargs)[1])
        assert set(program._block_code) == {
            (True, 500_000_000), (False, 500_000_000), (True, 10 ** 7)}
        factories = [{factory for factory, _ in code.values()}
                     for code in program._block_code.values()]
        for position, mine in enumerate(factories):
            for other in factories[position + 1:]:
                assert not mine & other
        # A tight limit after the generous ones still trips exactly
        # where the reference engine does: the budget is not shared.
        with pytest.raises(StepLimitExceeded) as reference:
            Machine(program, engine=ENGINE_CLOSURES, max_steps=40).run()
        with pytest.raises(StepLimitExceeded) as blocks:
            Machine(program, engine=ENGINE_BLOCKS, max_steps=40).run()
        assert str(blocks.value) == str(reference.value)

    def test_every_mnemonic_emits(self):
        """Codegen errors surface at first dispatch, so every mnemonic
        is compiled here, as a tail at each index and as a chain at
        each leader, traced and untraced."""
        lines = [".text", ".ent __start", "__start:"]
        for mnemonic in sorted(SPECS):
            lines.append(Instruction(mnemonic, rd=8, rs=9, rt=10, imm=4,
                                     shamt=3, label="__start").text())
        lines.append(".end __start")
        program = assemble("\n".join(lines) + "\n")
        assert {instr.mnemonic for instr in program.instructions} \
            == set(SPECS)
        for trace_memory in (True, False):
            engine = Machine(program, trace_memory=trace_memory,
                             engine=ENGINE_BLOCKS)._block_engine
            for index in range(len(program.instructions)):
                assert callable(engine._function(index, preamble=False))
            for index in engine._leader_indices:
                assert callable(engine._function(index, preamble=True))

    def test_program_pickles_after_a_run(self):
        program = compile_source(SAMPLE_SOURCE)
        _, outcome = _run(program, ENGINE_BLOCKS)
        assert program._block_code
        copy = pickle.loads(pickle.dumps(program))
        assert copy._block_code == {}
        assert _run(copy, ENGINE_BLOCKS)[1] == outcome


class TestMemoryTraceColumns:
    def _mixed(self):
        trace = MemoryTrace()
        trace.append(0x100, 0x1000, LOAD)
        trace.append(0x104, 0x2000, STORE)
        trace.append(0x108, 0x3000, PREFETCH)
        trace.append(0x10C, 0x4000, LOAD)
        return trace

    def test_counts_distinguish_prefetch_from_store(self):
        """Regression: PREFETCH records must not count as stores."""
        trace = self._mixed()
        assert trace.load_count == 2
        assert trace.store_count == 1
        assert trace.prefetch_count == 1
        assert len(trace) == 4

    def test_load_column_fast_paths(self):
        trace = self._mixed()
        assert list(trace.load_pcs()) == [0x100, 0x10C]
        assert list(trace.load_addresses()) == [0x1000, 0x4000]
        assert list(trace.loads()) == [(0x100, 0x1000), (0x10C, 0x4000)]

    def test_extend_matches_repeated_append(self):
        bulk = MemoryTrace()
        bulk.extend([0x100, 0x104, 0x108], [1, 2, 3],
                    [LOAD, STORE, PREFETCH])
        single = MemoryTrace()
        for row in zip([0x100, 0x104, 0x108], [1, 2, 3],
                       [LOAD, STORE, PREFETCH]):
            single.append(*row)
        assert bulk.pcs.tobytes() == single.pcs.tobytes()
        assert bulk.addresses.tobytes() == single.addresses.tobytes()
        assert bulk.kinds.tobytes() == single.kinds.tobytes()
