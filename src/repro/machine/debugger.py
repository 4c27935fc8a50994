"""Interactive-grade debugging support for the simulator.

A :class:`Debugger` wraps a machine with single-stepping, breakpoints,
watchpoints on memory words, and register/memory inspection — the tooling
one needs when a workload misbehaves or a codegen bug must be localized.
Unlike :class:`~repro.machine.simulator.Machine`'s compiled fast path,
the debugger interprets one instruction at a time, so it is slow and
meant for small reproductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.asm.program import STACK_TOP, Program
from repro.isa.registers import A0, GP, SP, register_name
from repro.machine.simulator import Machine, _Exit


@dataclass
class StopReason:
    kind: str                  # "breakpoint" | "watchpoint" | "step" |
    #                            "exit" | "limit"
    pc: int
    detail: str = ""


class Debugger:
    """Single-stepping wrapper around a :class:`Machine`."""

    def __init__(self, program: Program, *, args=(),
                 trace_memory: bool = False):  # noqa: D401
        self.program = program
        # The closure engine is pinned: single-stepping needs one op per
        # instruction, not one per basic block, so a blocks-engine
        # session degrades to closures the moment it opens a debugger.
        # ``trace_memory`` records the data-memory trace while stepping
        # (off by default; debugging sessions rarely need it and it
        # grows with runtime).
        self.machine = Machine(program, trace_memory=trace_memory,
                               engine="closures")
        self.machine.write_data_segment()
        self.machine.regs[SP] = STACK_TOP
        self.machine.regs[GP] = program.gp_value
        for position, value in enumerate(tuple(args)[:4]):
            self.machine.regs[A0 + position] = value & 0xFFFF_FFFF
        self._index = program.index_of(program.entry)
        self.breakpoints: set[int] = set()
        self.watchpoints: set[int] = set()     # word-aligned addresses
        self.exited = False
        self.exit_code: Optional[int] = None
        self.steps = 0

    # -- state inspection ------------------------------------------------
    @property
    def pc(self) -> int:
        return self.program.address_of(self._index)

    def register(self, name: str) -> int:
        from repro.isa.registers import register_number
        return self.machine.regs[register_number(name)]

    def read_word(self, address: int) -> int:
        return self.machine._load_word(address)

    def registers_dump(self) -> str:
        lines = []
        for row in range(8):
            cells = []
            for col in range(4):
                number = row * 4 + col
                cells.append(f"{register_name(number):>5}="
                             f"{self.machine.regs[number]:08x}")
            lines.append("  ".join(cells))
        return "\n".join(lines)

    def current_instruction(self) -> str:
        return self.program.instructions[self._index].text()

    def where(self) -> str:
        function = self.program.function_containing(self.pc) or "?"
        return (f"{self.pc:#010x} in {function}: "
                f"{self.current_instruction()}")

    # -- breakpoints ------------------------------------------------------
    def break_at(self, location) -> int:
        """Set a breakpoint at an address or function name."""
        if isinstance(location, str):
            if location not in self.program.symbols:
                raise KeyError(f"unknown symbol {location!r}")
            address = self.program.symbols[location]
        else:
            address = int(location)
        self.program.index_of(address)     # validates
        self.breakpoints.add(address)
        return address

    def watch(self, address: int) -> None:
        """Break when the word at ``address`` changes."""
        self.watchpoints.add(address & ~3)

    # -- execution -----------------------------------------------------
    def step(self) -> StopReason:
        """Execute exactly one instruction."""
        if self.exited:
            return StopReason("exit", self.pc, "already exited")
        watched = {a: self.machine._load_word(a)
                   for a in self.watchpoints}
        op = self.machine._ops[self._index]
        pc_before = self.pc
        try:
            self._index = op()
        except _Exit as stop:
            self.exited = True
            self.exit_code = stop.code
            return StopReason("exit", pc_before,
                              f"exit code {stop.code}")
        self.steps += 1
        for address, old in watched.items():
            new = self.machine._load_word(address)
            if new != old:
                return StopReason(
                    "watchpoint", self.pc,
                    f"[{address:#x}] {old:#x} -> {new:#x}")
        return StopReason("step", self.pc)

    def run(self, max_steps: int = 10_000_000) -> StopReason:
        """Run until a breakpoint/watchpoint/exit, or the step budget."""
        for _ in range(max_steps):
            reason = self.step()
            if reason.kind in ("exit", "watchpoint"):
                return reason
            if self.pc in self.breakpoints:
                return StopReason("breakpoint", self.pc, self.where())
        return StopReason("limit", self.pc,
                          f"step budget {max_steps} exhausted")

    def run_to_return(self, max_steps: int = 10_000_000) -> StopReason:
        """Run until the current function is left (sp back above entry
        value and control outside the function)."""
        function = self.program.function_containing(self.pc)
        info = self.program.symtab.functions.get(function or "")
        for _ in range(max_steps):
            reason = self.step()
            if reason.kind == "exit":
                return reason
            if info is None or not info.start <= self.pc < info.end:
                return StopReason("step", self.pc, "returned")
        return StopReason("limit", self.pc, "step budget exhausted")
