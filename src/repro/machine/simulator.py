"""Instruction-level simulator for assembled programs.

This is the reproduction's stand-in for SimpleScalar: it executes a
:class:`~repro.asm.program.Program` at instruction granularity, counts
basic-block entries (the paper's basic-block profiling, Section 4) and
records the data-memory trace that the cache model replays.

Implementation notes
--------------------
* Two interchangeable execution engines share the ``index = ops[index]()``
  dispatch loop:

  - ``"closures"`` — every instruction pre-compiled to a Python closure
    returning the index of the next instruction (the reference engine;
    the debugger single-steps it);
  - ``"blocks"`` (default) — every basic block compiled, on its first
    dispatch, to one ``exec``-generated superinstruction function with
    constants folded into the source and trace columns appended in
    bulk (:mod:`repro.machine.codegen`).

  Results are bit-identical by contract; pick with the ``engine``
  keyword or the ``REPRO_ENGINE`` environment variable.
* Registers hold unsigned 32-bit integers; float instructions reinterpret
  the bits as IEEE-754 single precision.
* Memory is a sparse ``dict`` of word-aligned address -> 32-bit word.
* Instruction counts are reconstructed from block-entry counts (every
  instruction in a single-entry block executes exactly as often as its
  block is entered), so the hot loop carries no per-instruction counter.

Syscall convention (code in ``$v0``):

====  =====================================
   1  print integer in ``$a0``
   5  read integer into ``$v0`` (from the machine's input queue)
  10  exit with status ``$a0``
  11  print character code in ``$a0``
====  =====================================
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.asm.program import STACK_TOP, Program
from repro.cfg.blocks import leader_addresses
from repro.isa.instructions import Format, Instruction
from repro.isa.registers import A0, GP, RA, SP, V0, ZERO
from repro.machine.errors import MachineError, StepLimitExceeded
from repro.machine.trace import (DEFAULT_CHUNK_ACCESSES, LOAD, PREFETCH,
                                 STORE, MemoryTrace, TraceChunk)

_MASK = 0xFFFF_FFFF

#: Column-length threshold no trace can reach: the disarmed state of
#: the streaming spill cell (see Machine._stream / run_streaming).
_NO_SPILL = 1 << 62
_PACK_I = struct.Struct("<I").pack
_UNPACK_I = struct.Struct("<I").unpack
_PACK_F = struct.Struct("<f").pack
_UNPACK_F = struct.Struct("<f").unpack

SYS_PRINT_INT = 1
SYS_READ_INT = 5
SYS_EXIT = 10
SYS_PRINT_CHAR = 11

_log = logging.getLogger("repro.machine")

ENGINE_BLOCKS = "blocks"
ENGINE_CLOSURES = "closures"


def resolve_engine(engine: Optional[str] = None) -> str:
    """Pick the execution engine: argument > ``$REPRO_ENGINE`` > blocks."""
    if engine is None:
        engine = os.environ.get("REPRO_ENGINE", "").strip() or ENGINE_BLOCKS
    if engine not in (ENGINE_BLOCKS, ENGINE_CLOSURES):
        raise ValueError(
            f"unknown execution engine {engine!r} "
            f"(expected {ENGINE_BLOCKS!r} or {ENGINE_CLOSURES!r})")
    return engine


def bits_to_float(bits: int) -> float:
    return _UNPACK_F(_PACK_I(bits & _MASK))[0]


def float_to_bits(value: float) -> int:
    try:
        return _UNPACK_I(_PACK_F(value))[0]
    except OverflowError:
        return _UNPACK_I(_PACK_F(float("inf") if value > 0 else
                                 float("-inf")))[0]


def _signed(value: int) -> int:
    return value - ((value & 0x8000_0000) << 1)


class _Exit(Exception):
    def __init__(self, code: int):
        self.code = code


@dataclass
class ExecutionResult:
    """Everything one execution yields for downstream analyses."""

    steps: int
    exit_code: int
    block_counts: dict[int, int]            # leader address -> entry count
    trace: Optional[MemoryTrace]
    output: list[int] = field(default_factory=list)

    def instruction_counts(self, program: Program) -> dict[int, int]:
        """Per-instruction execution counts E(i), keyed by address."""
        leaders = sorted(self.block_counts)
        counts: dict[int, int] = {}
        for pos, leader in enumerate(leaders):
            end = (leaders[pos + 1] if pos + 1 < len(leaders)
                   else program.text_end)
            count = self.block_counts[leader]
            if count == 0:
                continue
            for addr in range(leader, end, 4):
                counts[addr] = count
        return counts

    def load_exec_counts(self, program: Program) -> dict[int, int]:
        """E(i) restricted to static load instructions."""
        counts = self.instruction_counts(program)
        return {addr: counts.get(addr, 0) for addr, _ in program.loads()}


class Machine:
    """Executes one program; reusable across runs via :meth:`run`."""

    def __init__(self, program: Program, *,
                 trace_memory: bool = True,
                 max_steps: int = 500_000_000,
                 inputs: Sequence[int] = (),
                 engine: Optional[str] = None):
        self.program = program
        self.trace_memory = trace_memory
        self.max_steps = max_steps
        self.inputs = list(inputs)
        self.regs: list[int] = [0] * 32
        self.memory: dict[int, int] = {}
        self.output: list[int] = []
        self.trace = MemoryTrace() if trace_memory else None
        self._leaders = leader_addresses(program)
        self._block_counts: dict[int, int] = {}
        self._entry_budget = [0, max_steps]
        # Streaming spill cell, shared with the block engine's fused
        # loops: [column-length threshold, drain callable].  run() never
        # trips the sentinel; run_streaming arms it for its duration.
        self._stream: list = [_NO_SPILL, None]
        self.engine = resolve_engine(engine)
        self._block_engine = None
        self._ops: Optional[list[Callable[[], int]]] = None
        if self.engine == ENGINE_BLOCKS:
            try:
                from repro.machine.codegen import BlockEngine
                self._block_engine = BlockEngine(self)
            except Exception as error:
                # Hardening: a program the block engine cannot set up
                # falls back to the reference engine, so errors (if the
                # program is genuinely bad) surface exactly as they
                # always have.  The fallback is logged, never silent.
                _log.warning("block engine unavailable, falling back "
                             "to closures: %r", error)
                self._block_engine = None
                self._block_counts.clear()
                self.engine = ENGINE_CLOSURES
        if self._block_engine is None:
            self._ops = self._compile()

    # -- memory helpers (byte-granular, little-endian) -----------------
    def _load_word(self, address: int) -> int:
        return self.memory.get(address & ~3, 0)

    def _store_word(self, address: int, value: int) -> None:
        self.memory[address & ~3] = value & _MASK

    def _load_bytes(self, address: int, width: int, signed: bool) -> int:
        word = self.memory.get(address & ~3, 0)
        shift = (address & 3) * 8
        if width == 1:
            value = (word >> shift) & 0xFF
            if signed and value >= 0x80:
                value -= 0x100
        else:  # width == 2
            value = (word >> shift) & 0xFFFF
            if signed and value >= 0x8000:
                value -= 0x10000
        return value & _MASK

    def _store_bytes(self, address: int, width: int, value: int) -> None:
        aligned = address & ~3
        word = self.memory.get(aligned, 0)
        shift = (address & 3) * 8
        mask = (0xFF if width == 1 else 0xFFFF) << shift
        word = (word & ~mask) | ((value << shift) & mask)
        self.memory[aligned] = word & _MASK

    def write_data_segment(self) -> None:
        data = self.program.data
        base = self.program.data_base
        for offset in range(0, len(data) & ~3, 4):
            word = int.from_bytes(data[offset:offset + 4], "little")
            if word:
                self.memory[base + offset] = word
        tail = len(data) & ~3
        for offset in range(tail, len(data)):
            if data[offset]:
                self._store_bytes(base + offset, 1, data[offset])

    # -- compilation -----------------------------------------------------
    def _compile(self) -> list[Callable[[], int]]:
        program = self.program
        ops: list[Callable[[], int]] = []
        leader_set = set(self._leaders)
        for index, instr in enumerate(program.instructions):
            address = program.address_of(index)
            op = self._compile_one(index, address, instr)
            if address in leader_set:
                op = self._instrument_leader(address, op)
            ops.append(op)
        return ops

    def _instrument_leader(self, address: int,
                           op: Callable[[], int]) -> Callable[[], int]:
        counts = self._block_counts
        counts[address] = 0
        budget = self._entry_budget
        limit = budget[1]  # never mutated after construction

        def leader() -> int:
            counts[address] += 1
            budget[0] = entries = budget[0] + 1
            if entries > limit:
                raise StepLimitExceeded(
                    f"block-entry budget exceeded at {address:#x}")
            return op()

        return leader

    # The per-mnemonic compilers below close over `regs` / `memory`
    # directly; the hot loop never touches `self`.
    def _compile_one(self, index: int, address: int,
                     instr: Instruction) -> Callable[[], int]:
        regs = self.regs
        memory = self.memory
        nxt = index + 1
        m = instr.mnemonic
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        imm, shamt = instr.imm, instr.shamt
        spec = instr.spec

        if spec.is_load or spec.is_store or spec.is_prefetch:
            return self._compile_mem(index, address, instr)

        if m == "addiu":
            def op() -> int:
                regs[rt] = (regs[rs] + imm) & _MASK
                return nxt
        elif m == "addu":
            def op() -> int:
                regs[rd] = (regs[rs] + regs[rt]) & _MASK
                return nxt
        elif m == "subu":
            def op() -> int:
                regs[rd] = (regs[rs] - regs[rt]) & _MASK
                return nxt
        elif m == "mul":
            def op() -> int:
                regs[rd] = (_signed(regs[rs]) * _signed(regs[rt])) & _MASK
                return nxt
        elif m == "div":
            def op() -> int:
                denominator = _signed(regs[rt])
                if denominator == 0:
                    regs[rd] = 0
                else:
                    quotient = int(_signed(regs[rs]) / denominator)
                    regs[rd] = quotient & _MASK
                return nxt
        elif m == "rem":
            def op() -> int:
                denominator = _signed(regs[rt])
                if denominator == 0:
                    regs[rd] = 0
                else:
                    numerator = _signed(regs[rs])
                    regs[rd] = (numerator
                                - int(numerator / denominator) * denominator
                                ) & _MASK
                return nxt
        elif m == "and":
            def op() -> int:
                regs[rd] = regs[rs] & regs[rt]
                return nxt
        elif m == "or":
            def op() -> int:
                regs[rd] = regs[rs] | regs[rt]
                return nxt
        elif m == "xor":
            def op() -> int:
                regs[rd] = regs[rs] ^ regs[rt]
                return nxt
        elif m == "nor":
            def op() -> int:
                regs[rd] = ~(regs[rs] | regs[rt]) & _MASK
                return nxt
        elif m == "slt":
            def op() -> int:
                regs[rd] = 1 if _signed(regs[rs]) < _signed(regs[rt]) else 0
                return nxt
        elif m == "sltu":
            def op() -> int:
                regs[rd] = 1 if regs[rs] < regs[rt] else 0
                return nxt
        elif m == "slti":
            def op() -> int:
                regs[rt] = 1 if _signed(regs[rs]) < imm else 0
                return nxt
        elif m == "sltiu":
            def op() -> int:
                regs[rt] = 1 if regs[rs] < (imm & _MASK) else 0
                return nxt
        elif m == "andi":
            def op() -> int:
                regs[rt] = regs[rs] & imm
                return nxt
        elif m == "ori":
            def op() -> int:
                regs[rt] = regs[rs] | imm
                return nxt
        elif m == "xori":
            def op() -> int:
                regs[rt] = regs[rs] ^ imm
                return nxt
        elif m == "lui":
            value = (imm << 16) & _MASK

            def op() -> int:
                regs[rt] = value
                return nxt
        elif m == "sll":
            def op() -> int:
                regs[rd] = (regs[rt] << shamt) & _MASK
                return nxt
        elif m == "srl":
            def op() -> int:
                regs[rd] = regs[rt] >> shamt
                return nxt
        elif m == "sra":
            def op() -> int:
                regs[rd] = (_signed(regs[rt]) >> shamt) & _MASK
                return nxt
        elif m == "sllv":
            def op() -> int:
                regs[rd] = (regs[rt] << (regs[rs] & 31)) & _MASK
                return nxt
        elif m == "srlv":
            def op() -> int:
                regs[rd] = regs[rt] >> (regs[rs] & 31)
                return nxt
        elif m == "srav":
            def op() -> int:
                regs[rd] = (_signed(regs[rt]) >> (regs[rs] & 31)) & _MASK
                return nxt
        elif m in ("fadd", "fsub", "fmul", "fdiv"):
            arith = {"fadd": lambda a, b: a + b,
                     "fsub": lambda a, b: a - b,
                     "fmul": lambda a, b: a * b,
                     "fdiv": lambda a, b: a / b if b else float("inf")}[m]

            def op() -> int:
                result = arith(bits_to_float(regs[rs]),
                               bits_to_float(regs[rt]))
                regs[rd] = float_to_bits(result)
                return nxt
        elif m == "fneg":
            def op() -> int:
                regs[rd] = float_to_bits(-bits_to_float(regs[rs]))
                return nxt
        elif m == "fcvt":
            def op() -> int:
                regs[rd] = float_to_bits(float(_signed(regs[rs])))
                return nxt
        elif m == "ftrunc":
            def op() -> int:
                value = bits_to_float(regs[rs])
                if value != value or value in (float("inf"), float("-inf")):
                    regs[rd] = 0
                else:
                    regs[rd] = int(value) & _MASK
                return nxt
        elif m in ("feq", "flt", "fle"):
            compare = {"feq": lambda a, b: a == b,
                       "flt": lambda a, b: a < b,
                       "fle": lambda a, b: a <= b}[m]

            def op() -> int:
                regs[rd] = 1 if compare(bits_to_float(regs[rs]),
                                        bits_to_float(regs[rt])) else 0
                return nxt
        elif m == "beq":
            target = self.program.index_of(imm)

            def op() -> int:
                return target if regs[rs] == regs[rt] else nxt
        elif m == "bne":
            target = self.program.index_of(imm)

            def op() -> int:
                return target if regs[rs] != regs[rt] else nxt
        elif m == "blez":
            target = self.program.index_of(imm)

            def op() -> int:
                return target if _signed(regs[rs]) <= 0 else nxt
        elif m == "bgtz":
            target = self.program.index_of(imm)

            def op() -> int:
                return target if _signed(regs[rs]) > 0 else nxt
        elif m == "bltz":
            target = self.program.index_of(imm)

            def op() -> int:
                return target if _signed(regs[rs]) < 0 else nxt
        elif m == "bgez":
            target = self.program.index_of(imm)

            def op() -> int:
                return target if _signed(regs[rs]) >= 0 else nxt
        elif m == "j":
            target = self.program.index_of(imm)

            def op() -> int:
                return target
        elif m == "jal":
            target = self.program.index_of(imm)
            return_address = address + 4  # no delay slots in this ISA

            def op() -> int:
                regs[RA] = return_address
                return target
        elif m == "jr":
            program = self.program
            text_base, text_end = program.text_base, program.text_end

            def op() -> int:
                destination = regs[rs]
                if not text_base <= destination < text_end:
                    raise MachineError(
                        f"jr to non-text address {destination:#x} "
                        f"at {address:#x}")
                return (destination - text_base) >> 2
        elif m == "jalr":
            program = self.program
            text_base, text_end = program.text_base, program.text_end
            return_address = address + 4

            def op() -> int:
                destination = regs[rs]
                if not text_base <= destination < text_end:
                    raise MachineError(
                        f"jalr to non-text address {destination:#x} "
                        f"at {address:#x}")
                regs[rd] = return_address
                return (destination - text_base) >> 2
        elif m == "syscall":
            machine = self

            def op() -> int:
                machine._syscall()
                return nxt
        else:  # pragma: no cover - exhaustive over SPECS
            raise MachineError(f"cannot compile mnemonic {m!r}")

        return self._guard_zero(instr, op)

    def _guard_zero(self, instr: Instruction,
                    op: Callable[[], int]) -> Callable[[], int]:
        """Ensure writes to $zero are discarded (rare; wrap only then)."""
        written = set()
        fmt = instr.spec.fmt
        if fmt in (Format.R3, Format.R2, Format.SHIFT, Format.JALR):
            written.add(instr.rd)
        elif fmt in (Format.I_ARITH, Format.LUI):
            written.add(instr.rt)
        elif fmt is Format.MEM and instr.spec.is_load:
            written.add(instr.rt)
        if ZERO not in written:
            return op
        regs = self.regs

        def guarded() -> int:
            result = op()
            regs[ZERO] = 0
            return result

        return guarded

    def _compile_mem(self, index: int, address: int,
                     instr: Instruction) -> Callable[[], int]:
        regs = self.regs
        memory = self.memory
        nxt = index + 1
        rs, rt, offset = instr.rs, instr.rt, instr.imm
        spec = instr.spec
        width, signed = spec.width, spec.signed
        trace = self.trace

        if spec.is_prefetch:
            if trace is not None:
                t_pc, t_addr, t_kind = (trace.pcs, trace.addresses,
                                        trace.kinds)

                def op() -> int:
                    effective = (regs[rs] + offset) & _MASK
                    t_pc.append(address)
                    t_addr.append(effective)
                    t_kind.append(PREFETCH)
                    return nxt
            else:
                def op() -> int:
                    return nxt
            return op

        if spec.is_load:
            if width == 4:
                if trace is not None:
                    t_pc, t_addr, t_kind = (trace.pcs, trace.addresses,
                                            trace.kinds)

                    def op() -> int:
                        effective = (regs[rs] + offset) & _MASK
                        t_pc.append(address)
                        t_addr.append(effective)
                        t_kind.append(LOAD)
                        regs[rt] = memory.get(effective & ~3, 0)
                        return nxt
                else:
                    def op() -> int:
                        effective = (regs[rs] + offset) & _MASK
                        regs[rt] = memory.get(effective & ~3, 0)
                        return nxt
            else:
                loader = self._load_bytes
                if trace is not None:
                    t_pc, t_addr, t_kind = (trace.pcs, trace.addresses,
                                            trace.kinds)

                    def op() -> int:
                        effective = (regs[rs] + offset) & _MASK
                        t_pc.append(address)
                        t_addr.append(effective)
                        t_kind.append(LOAD)
                        regs[rt] = loader(effective, width, signed)
                        return nxt
                else:
                    def op() -> int:
                        effective = (regs[rs] + offset) & _MASK
                        regs[rt] = loader(effective, width, signed)
                        return nxt
            return self._guard_zero(instr, op)

        # stores
        if width == 4:
            if trace is not None:
                t_pc, t_addr, t_kind = (trace.pcs, trace.addresses,
                                        trace.kinds)

                def op() -> int:
                    effective = (regs[rs] + offset) & _MASK
                    t_pc.append(address)
                    t_addr.append(effective)
                    t_kind.append(STORE)
                    memory[effective & ~3] = regs[rt]
                    return nxt
            else:
                def op() -> int:
                    effective = (regs[rs] + offset) & _MASK
                    memory[effective & ~3] = regs[rt]
                    return nxt
        else:
            storer = self._store_bytes
            if trace is not None:
                t_pc, t_addr, t_kind = (trace.pcs, trace.addresses,
                                        trace.kinds)

                def op() -> int:
                    effective = (regs[rs] + offset) & _MASK
                    t_pc.append(address)
                    t_addr.append(effective)
                    t_kind.append(STORE)
                    storer(effective, width, regs[rt])
                    return nxt
            else:
                def op() -> int:
                    effective = (regs[rs] + offset) & _MASK
                    storer(effective, width, regs[rt])
                    return nxt
        return op

    # -- syscalls -----------------------------------------------------
    def _syscall(self) -> None:
        code = self.regs[V0]
        if code == SYS_PRINT_INT:
            self.output.append(_signed(self.regs[A0]))
        elif code == SYS_PRINT_CHAR:
            self.output.append(self.regs[A0] & 0xFF)
        elif code == SYS_READ_INT:
            self.regs[V0] = (self.inputs.pop(0) & _MASK) if self.inputs else 0
        elif code == SYS_EXIT:
            raise _Exit(_signed(self.regs[A0]))
        else:
            raise MachineError(f"unknown syscall code {code}")

    # -- execution -----------------------------------------------------
    def run(self, args: Sequence[int] = ()) -> ExecutionResult:
        """Execute from the program entry point until exit."""
        self.write_data_segment()
        self.regs[SP] = STACK_TOP
        self.regs[GP] = self.program.gp_value
        for position, value in enumerate(args[:4]):
            self.regs[A0 + position] = value & _MASK
        index = self.program.index_of(self.program.entry)
        ops = (self._block_engine.funcs if self._block_engine is not None
               else self._ops)
        exit_code = 0
        try:
            # Unrolled dispatch: four ops per backward jump.  Each op
            # (a per-instruction closure or a whole-block function —
            # both engines share this loop) returns the next index, so
            # chaining is semantics-preserving; exits/errors surface
            # through exceptions exactly as before.
            while True:
                index = ops[ops[ops[ops[index]()]()]()]()
        except _Exit as stop:
            exit_code = stop.code
        except IndexError:
            raise MachineError("fell off the text segment")
        steps = self._count_steps()
        return ExecutionResult(
            steps=steps,
            exit_code=exit_code,
            block_counts=dict(self._block_counts),
            trace=self.trace,
            output=list(self.output),
        )

    def run_streaming(self, sink: Callable[[TraceChunk], None],
                      args: Sequence[int] = (), *,
                      chunk_accesses: int = DEFAULT_CHUNK_ACCESSES
                      ) -> ExecutionResult:
        """Execute like :meth:`run`, emitting the trace as chunks.

        The engines keep appending to the machine's trace columns
        through the bound column methods they captured at compile time;
        this loop interleaves dispatch quanta with drains that slice
        full ``chunk_accesses``-row :class:`TraceChunk`\\ s off the
        front and truncate the columns in place (``del col[:n]``
        preserves the array objects, so the bound methods stay valid).
        Every emitted chunk except the last holds exactly
        ``chunk_accesses`` rows, and the in-RAM buffer stays near that
        budget: the block engine's fused in-function loops spill
        through the machine's stream cell at each backedge (see
        ``_Emitter._spill_check``), so even a loop that never returns
        to this dispatch loop drains on schedule, and the buffer can
        overshoot only by what one dispatch quantum or one loop
        iteration appends.  Peak RSS is thus bounded by a constant
        independent of trace length.

        Returns an :class:`ExecutionResult` with ``trace=None`` — the
        access stream lives only in the chunks handed to ``sink``.
        Exceptions from execution (or from the sink) propagate without
        a final drain, so a failed run never emits a truncated tail
        chunk that could be mistaken for a complete trace.
        """
        if self.trace is None:
            raise MachineError(
                "run_streaming requires trace_memory=True")
        if chunk_accesses <= 0:
            raise ValueError("chunk_accesses must be positive")
        self.write_data_segment()
        self.regs[SP] = STACK_TOP
        self.regs[GP] = self.program.gp_value
        for position, value in enumerate(args[:4]):
            self.regs[A0 + position] = value & _MASK
        index = self.program.index_of(self.program.entry)
        ops = (self._block_engine.funcs if self._block_engine is not None
               else self._ops)
        pcs = self.trace.pcs
        addresses = self.trace.addresses
        kinds = self.trace.kinds
        emitted = 0

        def drain() -> None:
            nonlocal emitted
            while len(pcs) >= chunk_accesses:
                sink(TraceChunk(pcs[:chunk_accesses],
                                addresses[:chunk_accesses],
                                kinds[:chunk_accesses], emitted))
                del pcs[:chunk_accesses]
                del addresses[:chunk_accesses]
                del kinds[:chunk_accesses]
                emitted += chunk_accesses

        exit_code = 0
        # Arm the spill cell: the block engine's fused loops call the
        # drain from their backedges (after each flush), so even a loop
        # that never returns to this dispatch loop keeps the columns
        # near the chunk budget.
        self._stream[0] = chunk_accesses
        self._stream[1] = drain
        try:
            while True:
                # One dispatch quantum (4096 op chain steps), then a
                # drain check — frequent enough to keep the buffer near
                # the chunk budget, rare enough to stay off the hot
                # path.
                for _ in range(1024):
                    index = ops[ops[ops[ops[index]()]()]()]()
                drain()
        except _Exit as stop:
            exit_code = stop.code
        except IndexError:
            raise MachineError("fell off the text segment")
        finally:
            self._stream[0] = _NO_SPILL
            self._stream[1] = None
        drain()
        if pcs:
            sink(TraceChunk(pcs[:], addresses[:], kinds[:], emitted))
            del pcs[:]
            del addresses[:]
            del kinds[:]
        # Drains shrink and regrow the columns, so length-keyed memos
        # on the trace object could go stale — drop them.
        self.trace._kind_counts_memo = None
        self.trace._digest_memo = None
        steps = self._count_steps()
        return ExecutionResult(
            steps=steps,
            exit_code=exit_code,
            block_counts=dict(self._block_counts),
            trace=None,
            output=list(self.output),
        )

    def _count_steps(self) -> int:
        leaders = self._leaders
        total = 0
        text_end = self.program.text_end
        for pos, leader in enumerate(leaders):
            end = leaders[pos + 1] if pos + 1 < len(leaders) else text_end
            count = self._block_counts.get(leader, 0)
            if count:
                total += count * ((end - leader) // 4)
        return total


def run_program(program: Program, *, args: Sequence[int] = (),
                trace_memory: bool = True,
                max_steps: int = 500_000_000,
                inputs: Sequence[int] = (),
                engine: Optional[str] = None) -> ExecutionResult:
    """Convenience wrapper: build a machine and run ``program`` once."""
    machine = Machine(program, trace_memory=trace_memory,
                      max_steps=max_steps, inputs=inputs, engine=engine)
    return machine.run(args)
