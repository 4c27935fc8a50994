"""Debugger tests: stepping, breakpoints, watchpoints, inspection."""

import pytest

from repro.compiler.driver import compile_source
from repro.machine.debugger import Debugger

SRC = r"""
int counter;

int bump(int by) {
    counter = counter + by;
    return counter;
}

int main() {
    int i;
    for (i = 0; i < 5; i = i + 1)
        bump(i);
    print_int(counter);
    return counter;
}
"""


@pytest.fixture()
def debugger():
    return Debugger(compile_source(SRC))


class TestStepping:
    def test_initial_pc_at_entry(self, debugger):
        assert debugger.pc == debugger.program.entry
        assert debugger.steps == 0

    def test_single_step_advances(self, debugger):
        before = debugger.pc
        reason = debugger.step()
        assert reason.kind == "step"
        assert debugger.steps == 1
        assert debugger.pc != before

    def test_run_to_exit(self, debugger):
        reason = debugger.run()
        assert reason.kind == "exit"
        assert debugger.exited
        assert debugger.exit_code == sum(range(5))

    def test_step_after_exit_is_safe(self, debugger):
        debugger.run()
        reason = debugger.step()
        assert reason.kind == "exit"


class TestBreakpoints:
    def test_break_at_function(self, debugger):
        address = debugger.break_at("bump")
        reason = debugger.run()
        assert reason.kind == "breakpoint"
        assert debugger.pc == address

    def test_break_hit_repeatedly(self, debugger):
        debugger.break_at("bump")
        hits = 0
        while True:
            reason = debugger.run()
            if reason.kind != "breakpoint":
                break
            hits += 1
            debugger.step()          # step off the breakpoint
        assert hits == 5

    def test_break_at_address(self, debugger):
        target = debugger.program.symbols["main"]
        debugger.break_at(target)
        assert debugger.run().pc == target

    def test_unknown_symbol_raises(self, debugger):
        with pytest.raises(KeyError):
            debugger.break_at("nonexistent")

    def test_bad_address_raises(self, debugger):
        with pytest.raises(ValueError):
            debugger.break_at(0x123)


class TestWatchpoints:
    def test_watch_global(self, debugger):
        address = debugger.program.symbols["counter"]
        debugger.watch(address)
        reason = debugger.run()
        assert reason.kind == "watchpoint"
        assert f"{address:#x}" in reason.detail
        assert debugger.read_word(address) == 1   # bump(1) wrote first

    def test_watch_sees_every_change(self, debugger):
        address = debugger.program.symbols["counter"]
        debugger.watch(address)
        changes = 0
        while True:
            reason = debugger.run()
            if reason.kind != "watchpoint":
                break
            changes += 1
        # counter changes on bump(1..4); bump(0) writes the same value
        assert changes == 4


class TestInspection:
    def test_register_access(self, debugger):
        debugger.step()
        assert debugger.register("$sp") > 0
        assert debugger.register("$zero") == 0

    def test_registers_dump_format(self, debugger):
        dump = debugger.registers_dump()
        assert "$sp=" in dump
        assert "$gp=" in dump
        assert len(dump.splitlines()) == 8

    def test_where_names_function(self, debugger):
        debugger.break_at("bump")
        debugger.run()
        assert "in bump" in debugger.where()

    def test_run_to_return(self, debugger):
        debugger.break_at("bump")
        debugger.run()
        reason = debugger.run_to_return()
        function = debugger.program.function_containing(debugger.pc)
        assert function != "bump"

    def test_current_instruction_text(self, debugger):
        text = debugger.current_instruction()
        assert isinstance(text, str) and text


class TestEngineDegradation:
    """Opening a debugger inside a blocks-engine session must degrade
    to the closure engine cleanly: same exit, same step count, and a
    byte-identical memory trace."""

    def test_blocks_session_pins_closures(self):
        from repro.machine.simulator import Machine, resolve_engine
        assert resolve_engine(None) == "blocks"   # the session default

        program = compile_source(SRC)
        debugger = Debugger(program, trace_memory=True)
        # the explicit engine="closures" pin overrides the default
        assert debugger.machine.engine == "closures"
        reason = debugger.run()
        assert reason.kind == "exit"

        # the surrounding session still runs the blocks engine, and
        # both executions agree exactly
        machine = Machine(program, trace_memory=True)
        assert machine.engine == "blocks"
        result = machine.run()
        assert result.exit_code == debugger.exit_code
        # the debugger stops *at* the exiting syscall without counting
        # it; the engine counts every retired instruction
        assert result.steps == debugger.steps + 1
        stepped = debugger.machine.trace
        assert stepped is not None and result.trace is not None
        assert result.trace.pcs.tobytes() == stepped.pcs.tobytes()
        assert result.trace.addresses.tobytes() \
            == stepped.addresses.tobytes()
        assert result.trace.kinds.tobytes() == stepped.kinds.tobytes()

    def test_debugger_defaults_skip_tracing(self):
        debugger = Debugger(compile_source(SRC))
        assert debugger.machine.trace is None
        assert debugger.run().kind == "exit"
