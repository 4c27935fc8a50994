"""Assembled program image.

A :class:`Program` is the unit everything downstream consumes: the machine
simulator executes it, the disassembler prints it, and the static analyses
(CFG reconstruction, dataflow, address patterns) read it the way the paper
reads ``objdump`` output.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.asm.symtab import SymbolTable
from repro.isa.instructions import Instruction

TEXT_BASE = 0x0040_0000
DATA_BASE = 0x1000_0000
GP_OFFSET = 0x8000            # $gp points at data_base + 0x8000
STACK_TOP = 0x7FFF_F000
HEAP_ALIGN = 0x1000


@dataclass
class Program:
    """A fully linked program: text, data, symbols and debug info."""

    instructions: list[Instruction]
    data: bytearray
    symbols: dict[str, int]
    symtab: SymbolTable = field(default_factory=SymbolTable)
    text_base: int = TEXT_BASE
    data_base: int = DATA_BASE
    entry: int = TEXT_BASE
    source: Optional[str] = None

    def __post_init__(self) -> None:
        self._addr_to_label: dict[int, list[str]] = {}
        for name, addr in self.symbols.items():
            self._addr_to_label.setdefault(addr, []).append(name)
        self._func_starts = sorted(
            (info.start, name) for name, info in self.symtab.functions.items()
        )
        #: Block-engine code, compiled on first dispatch and shared by
        #: every Machine over this program (see repro.machine.codegen).
        self._block_code: dict = {}

    def __getstate__(self) -> dict:
        # Generated code does not pickle; a copy recompiles on demand.
        return {**self.__dict__, "_block_code": {}}

    # -- geometry ------------------------------------------------------
    @property
    def gp_value(self) -> int:
        return self.data_base + GP_OFFSET

    @property
    def text_end(self) -> int:
        return self.text_base + 4 * len(self.instructions)

    @property
    def data_end(self) -> int:
        return self.data_base + len(self.data)

    @property
    def heap_base(self) -> int:
        return (self.data_end + HEAP_ALIGN - 1) & ~(HEAP_ALIGN - 1)

    # -- addressing ------------------------------------------------------
    def address_of(self, index: int) -> int:
        return self.text_base + 4 * index

    def index_of(self, address: int) -> int:
        if address % 4 != 0 or not self.text_base <= address < self.text_end:
            raise ValueError(f"not a text address: {address:#x}")
        return (address - self.text_base) // 4

    def instruction_at(self, address: int) -> Instruction:
        return self.instructions[self.index_of(address)]

    def addresses(self) -> Iterator[int]:
        return iter(range(self.text_base, self.text_end, 4))

    # -- symbols ------------------------------------------------------
    def labels_at(self, address: int) -> list[str]:
        return self._addr_to_label.get(address, [])

    def function_containing(self, address: int) -> Optional[str]:
        """Name of the function whose body contains ``address``."""
        info = self.symtab.function_containing(address)
        if info is not None:
            return info.name
        if not self._func_starts:
            return None
        starts = [s for s, _ in self._func_starts]
        pos = bisect.bisect_right(starts, address) - 1
        if pos < 0:
            return None
        return self._func_starts[pos][1]

    # -- instruction queries --------------------------------------------
    def loads(self) -> Iterator[tuple[int, Instruction]]:
        """Yield ``(address, instruction)`` for every static load."""
        for index, instr in enumerate(self.instructions):
            if instr.is_load:
                yield self.address_of(index), instr

    def load_addresses(self) -> list[int]:
        return [addr for addr, _ in self.loads()]

    def num_loads(self) -> int:
        """|Lambda|: the number of static load instructions."""
        return sum(1 for instr in self.instructions if instr.is_load)
