"""Basic-block superinstruction compiler — the ``blocks`` engine.

The closure interpreter in :mod:`repro.machine.simulator` pays one
Python call (plus a leader-instrumentation call and up to three
``array.append`` calls) per executed instruction, and a list subscript
for every register access.  This module compiles basic blocks — the
leader partition from :func:`repro.cfg.blocks.leader_addresses`, the
same one the profiler counts — into ``exec``-compiled Python
superinstruction functions:

* operand constants (register numbers, immediates, branch target
  indices, the block-entry budget) are folded into the source text, so
  a block executes as straight-line bytecode with no dispatch between
  its instructions;
* register state lives in *function locals* (``v8`` for ``$t0``, …):
  upward-exposed registers load once at entry, every access in the body
  is a ``LOAD_FAST``/``STORE_FAST``, and dirty registers write back to
  the shared register file only at function exits, before syscalls, and
  on error paths — a loop iterating inside one function touches the
  register list not at all;
* reads of ``$zero`` fold to ``0`` and writes to it are dropped, which
  also erases the closure engine's ``_guard_zero`` wrappers;
* blocks *chain*: a function continues straight through fall-throughs,
  ``j``/``jal``, and the not-taken side of conditional branches into
  the successor block's code — including that block's entry-count
  preamble, so profiling is unchanged — and a backedge to the
  function's own root block compiles to ``continue`` inside a
  ``while True:``, so a hot loop runs whole iterations without
  returning to the dispatch loop;
* memory accesses are batched: effective addresses are computed into
  locals and appended to the three :class:`MemoryTrace` columns in bulk
  at chain exits (per flushed run, the static pc/kind columns are
  prebuilt ``array`` constants — two C-level copies — and only the
  address tuple is built per execution);
* each function returns the instruction index execution continues at,
  so the simulator's unrolled ``index = ops[index]()`` dispatch loop is
  shared verbatim between both engines.

Bit-identical semantics is the contract (property-tested in
``tests/test_blocks_engine.py``): every emitted expression replicates
the corresponding closure exactly — including the float-division
``div``/``rem`` idiom, trace-append ordering around exceptions, and the
closure engine's error messages.  Three details matter for equivalence:

* pending trace appends are flushed, and dirty registers written back,
  *before* anything that can escape the function — ``syscall`` can
  exit, ``jr``/``jalr`` can fault, and a chained block's budget check
  can trip, in which case flush and write-back run on the error path
  before the raise — so an interrupted run leaves exactly the machine
  state the closure engine would;
* every exit from a function flushes the accesses pending on *that*
  path (the paths are mutually exclusive, so each dynamic access is
  appended exactly once, in program order) and writes back exactly the
  registers assigned on that path;
* every index holds a lazy stub that compiles on first entry, installs
  the result in its slot and runs it.  At a leader it compiles the
  chain rooted there, preamble included; most leaders of a run are
  never dispatched, so nothing is compiled for them.  Elsewhere the
  entry is a computed jump (``jr``/``jalr``) into the *middle* of a
  fused block, and the stub splits the block, compiling a tail function
  covering ``[index, block end)`` without the leader preamble
  (mid-block entries are not block entries, matching the closure
  engine's uninstrumented interior closures).

Compiled code is program-scoped.  The generated text depends only on
the program, on whether the machine traces and on the step limit, so
the factories are memoized on the :class:`~repro.asm.program.Program`
under those two keys and carry their own constant pc/kind arrays.  A
machine binds a factory to its own register file, memory and trace by
calling it, and every later machine over the same program (a replay
fallback, a fuzz oracle's second engine, a benchmark round) reuses the
code without compiling.
"""

from __future__ import annotations

from array import array
import re
from bisect import bisect_right
from typing import Callable, Dict, List, Tuple

from repro.isa.registers import RA, V0
from repro.machine.errors import MachineError, StepLimitExceeded
from repro.machine.trace import LOAD, PREFETCH, STORE

# simulator imports this module lazily (inside Machine.__init__), so a
# module-level import back into it is cycle-free.
from repro.machine.simulator import (_MASK, _PACK_I, _UNPACK_F,
                                     bits_to_float, float_to_bits)

_INF_BITS = float_to_bits(float("inf"))

_BRANCHES = ("beq", "bne", "blez", "bgtz", "bltz", "bgez")
_TERMINATORS = frozenset(_BRANCHES + ("j", "jal", "jr", "jalr"))

#: Chain limits: blocks fused into one function, and the pending-access
#: count past which chaining stops (bounds code bloat from the flush
#: duplicated on each conditional exit).
_CHAIN_BLOCKS = 24
_CHAIN_PENDING = 48


# -- runtime helpers (called from generated code) ----------------------
# These replicate the closure bodies verbatim; keeping them as helpers
# (rather than inlining) keeps the generated source small for the rare
# mnemonics that need multi-statement logic.

def _div32(numerator: int, denominator: int) -> int:
    denominator -= (denominator & 0x8000_0000) << 1
    if denominator == 0:
        return 0
    numerator -= (numerator & 0x8000_0000) << 1
    return int(numerator / denominator) & _MASK


def _rem32(numerator: int, denominator: int) -> int:
    denominator -= (denominator & 0x8000_0000) << 1
    if denominator == 0:
        return 0
    numerator -= (numerator & 0x8000_0000) << 1
    return (numerator - int(numerator / denominator) * denominator) & _MASK


def _ftrunc32(bits: int) -> int:
    value = bits_to_float(bits)
    if value != value or value in (float("inf"), float("-inf")):
        return 0
    return int(value) & _MASK


#: Names the generated factories unpack from the shared environment
#: tuple; block functions close over them as cell variables (one
#: LOAD_DEREF each — no attribute lookups in the hot path).
_ENV_NAMES = ("r, mem, mget, ldb, stb, sys_, counts, budget, "
              "tpa, taa, tka, tpe, tae, tke, tlen, stream, "
              "MachineError, StepLimitExceeded, "
              "pi, uf, f2b, div32, rem32, ftrunc32")


def _b2f(expr: str) -> str:
    """Inline ``bits_to_float``: register locals already satisfy the
    32-bit invariant, so the conversion is two C struct calls."""
    return f"uf(pi({expr}))[0]"


_PURE_ARITH = re.compile(r"[0-9x+\-*&|^~<>()\s]+")


def _fold(value: str) -> str:
    """Evaluate a pure-literal arithmetic expression at compile time.

    Register reads of known constants produce literal operands, so the
    ``li``/``lui``+``ori`` idioms — and the sign-extension arithmetic
    around them — collapse to a single constant here.  Anything with a
    name in it (locals, helper calls, conditionals) passes through."""
    if value.isdigit() or not _PURE_ARITH.fullmatch(value):
        return value
    try:
        folded = eval(value, {"__builtins__": {}})  # noqa: S307
    except Exception:
        return value
    return str(folded) if isinstance(folded, int) and folded >= 0 \
        else value


def _signed(expr: str) -> str:
    """Sign-extension of a masked 32-bit expression (a local or 0)."""
    if expr == "0":
        return "0"
    if expr.isdigit():
        bits = int(expr)
        return str(bits - ((bits & 0x8000_0000) << 1))
    return f"({expr} - (({expr} & 0x80000000) << 1))"


class _Emitter:
    """Emits the body of one compiled function (a block chain or tail)."""

    def __init__(self, engine: "BlockEngine", start: int, end: int, *,
                 preamble: bool):
        self.engine = engine
        self.program = engine._program
        self.traced = engine._traced
        self.start = start
        self.end = end
        self.preamble = preamble
        self.lines: List[str] = []
        #: deferred trace appends: (pc, kind, address expression)
        self.pending: List[Tuple[int, int, str]] = []
        #: constant (pc column, kind column) runs of this function's
        #: multi-access flushes; ``_p{i}``/``_k{i}`` in its source
        self.segments: List[Tuple[array, array]] = []
        self._n_addr = 0
        self._emitted = {start}
        self._chain_budget = _CHAIN_BLOCKS
        #: registers to load at entry (read before any write)
        self.entry_loads: List[int] = []
        #: registers assigned so far (emission order == path order, so
        #: at any exit this is exactly the dirty set on that path)
        self._written: List[int] = []
        self._written_set = {0}      # $zero is never materialized
        #: registers whose current value on this path is a compile-time
        #: constant (set by immediate writes, killed by any other
        #: write); reads fold to the literal, which in turn folds
        #: dependent arithmetic and turns a ``jr`` through a
        #: just-materialized return address into a direct jump
        self._const: dict = {}
        #: the root block's entry count / the step budget are kept in
        #: locals ``c`` / ``n`` once the matching preamble is emitted
        self._count_local = False
        self._budget_local = False
        #: set when a backedge to ``start`` compiles to ``continue`` —
        #: the factory then wraps the body in ``while True:``
        self.loops = False

    # -- register localization -----------------------------------------
    def _read(self, number: int) -> str:
        if number == 0:
            return "0"
        if number in self._const:
            return str(self._const[number])
        if (number not in self._written_set
                and number not in self.entry_loads):
            self.entry_loads.append(number)
        return f"v{number}"

    def _target(self, number: int) -> str:
        """Local name for writing register ``number`` (never $zero)."""
        self._const.pop(number, None)
        if number not in self._written_set:
            self._written_set.add(number)
            self._written.append(number)
        return f"v{number}"

    def _assign(self, number: int, value: str) -> None:
        """Emit a register write, folding constant expressions.

        The local is always materialized (the escape write-back reads
        it), but a literal result is remembered so later reads fold."""
        value = _fold(value)
        name = self._target(number)
        if value.isdigit():
            self._const[number] = int(value)
        self.lines.append(f"{name} = {value}")

    def _sync_code(self, indent: str = "") -> List[str]:
        """Write dirty locals back to the shared register file."""
        return [f"{indent}r[{number}] = v{number}"
                for number in self._written]

    def _escape(self, indent: str = "") -> List[str]:
        """Everything owed before control can leave the function:
        pending trace appends, then the localized profile counters and
        dirty registers."""
        lines = self._flush_code(indent)
        if self._count_local:
            root = self.program.address_of(self.start)
            lines.append(f"{indent}counts[{root}] += c")
        if self._budget_local:
            lines.append(f"{indent}budget[0] = n")
        return lines + self._sync_code(indent)

    def emit(self) -> List[str]:
        self._emit_range(self.start, self.end, self.preamble)
        return self.lines

    def _emit_range(self, start: int, end: int, preamble: bool) -> None:
        program = self.program
        out = self.lines.append
        if preamble:
            address = program.address_of(start)
            # The root block's entry count and the step budget live in
            # locals (``c``/``n``) and write back at escapes, so a loop
            # iterating inside this function pays neither the dict
            # update nor the budget-list subscripts per iteration.
            if start == self.start:
                self._count_local = True
                out("c += 1")
            else:
                out(f"counts[{address}] += 1")
            self._budget_local = True
            out("n += 1")
            out(f"if n > {self.engine._limit}:")
            # The budget can trip mid-chain: restore the machine state
            # the closure engine would show before the raise.
            for line in self._escape(indent="    "):
                out(line)
            out(f"    raise StepLimitExceeded("
                f"'block-entry budget exceeded at {address:#x}')")
        for index in range(start, end):
            instr = program.instructions[index]
            spec = instr.spec
            if spec.is_load or spec.is_store or spec.is_prefetch:
                self._mem(program.address_of(index), instr)
            elif instr.mnemonic in _TERMINATORS:
                self._terminator(index, program.address_of(index), instr)
                return
            elif instr.mnemonic == "syscall":
                # Can raise _Exit / MachineError, reads the register
                # file (and SYS_READ_INT writes $v0): flush the trace,
                # write back, call, then re-cache $v0.
                for line in self._escape():
                    out(line)
                self.pending = []
                out("sys_()")
                if self._count_local:
                    # The escape added ``c`` into counts; restart the
                    # delta so a later escape doesn't re-add it.
                    out("c = 0")
                self._assign(V0, f"r[{V0}]")
            else:
                self._alu(instr)
        self._continue_at(end)

    def _continue_at(self, target: int) -> None:
        """Fall through / jump to ``target``: loop, chain, or return."""
        out = self.lines.append
        if target == self.start and self.preamble:
            # Backedge to this function's own root: stay inside the
            # function (``continue`` re-runs the root preamble, so
            # profiling and the budget are unchanged) instead of paying
            # a dispatch round trip per iteration.  Registers stay in
            # locals across iterations.
            self.loops = True
            for line in self._flush_code():
                out(line)
            self.pending = []
            self._spill_check(out)
            out("continue")
            return
        if (target in self.engine._leader_set
                and target not in self._emitted
                and self._chain_budget > 0
                and len(self.pending) <= _CHAIN_PENDING):
            self._chain_budget -= 1
            self._emitted.add(target)
            self._emit_range(target, self.engine._block_end(target),
                             preamble=True)
            return
        for line in self._escape():
            out(line)
        self.pending = []
        out(f"return {target}")

    def _spill_check(self, out, indent: str = "") -> None:
        """Streaming hook on in-function loop backedges.

        A fused loop runs whole iterations without returning to the
        dispatch loop, so :meth:`Machine.run_streaming` could never
        drain the trace columns mid-loop and a loop-heavy program would
        materialize its entire trace anyway.  Each backedge therefore
        re-checks the column length against the machine's stream cell
        (``[threshold, drain]``) right after the flush, when the three
        columns are consistent; outside streaming the threshold is an
        unreachable sentinel, so ``run()`` pays one C-level length call
        and an int compare per loop iteration and nothing else.
        """
        if self.engine._traced:
            out(f"{indent}if tlen() >= stream[0]:")
            out(f"{indent}    stream[1]()")

    # -- trace batching ------------------------------------------------
    def _flush_code(self, indent: str = "") -> List[str]:
        """Code appending the pending accesses (caller clears pending
        only where the path actually consumes them)."""
        pending = self.pending
        if not pending:
            return []
        if len(pending) == 1:
            pc, kind, addr = pending[0]
            return [f"{indent}tpa({pc})",
                    f"{indent}taa({addr})",
                    f"{indent}tka({kind})"]
        segment = len(self.segments)
        self.segments.append((array("I", [pc for pc, _, _ in pending]),
                              array("B", [kind for _, kind, _ in pending])))
        addresses = ", ".join(addr for _, _, addr in pending)
        return [f"{indent}tpe(_p{segment})",
                f"{indent}tae(({addresses}))",
                f"{indent}tke(_k{segment})"]

    # -- memory instructions -------------------------------------------
    def _mem(self, address: int, instr) -> None:
        spec = instr.spec
        rs, rt, offset = instr.rs, instr.rt, instr.imm
        width, signed = spec.width, spec.signed
        out = self.lines.append
        base = self._read(rs)
        if self.traced:
            # The effective address must be captured BEFORE the memory
            # op (a load may overwrite its own base register), so it is
            # materialized into a function-unique local for the flush.
            if base.isdigit():
                # $zero or a propagated constant base: the effective
                # address is a path constant, no temp needed.
                effective = str((int(base) + offset) & _MASK)
            else:
                effective = f"a{self._n_addr}"
                self._n_addr += 1
                source = (base if offset == 0
                          else f"({base} + {offset}) & 0xFFFFFFFF")
                out(f"{effective} = {source}")
            kind = (LOAD if spec.is_load
                    else STORE if spec.is_store else PREFETCH)
            self.pending.append((address, kind, effective))
            if spec.is_prefetch:
                return
            aligned = (str(int(effective) & 0xFFFF_FFFC)
                       if effective.isdigit()
                       else f"{effective} & 0xFFFFFFFC")
        else:
            if spec.is_prefetch:
                return               # untraced prefetch: pure no-op
            if base.isdigit():
                combined = (int(base) + offset) & _MASK
                effective = str(combined)
                aligned = str(combined & 0xFFFF_FFFC)
            elif offset == 0:
                effective = base
                aligned = f"{base} & 0xFFFFFFFC"
            else:
                effective = f"({base} + {offset}) & 0xFFFFFFFF"
                aligned = f"({base} + {offset}) & 0xFFFFFFFC"
        if spec.is_load:
            value = (f"mget({aligned}, 0)" if width == 4
                     else f"ldb({effective}, {width}, {signed})")
            if rt != 0:              # a load into $zero is a dead read
                self._assign(rt, value)
        elif width == 4:
            out(f"mem[{aligned}] = {self._read(rt)}")
        else:
            out(f"stb({effective}, {width}, {self._read(rt)})")

    # -- terminators ---------------------------------------------------
    def _terminator(self, index: int, address: int, instr) -> None:
        m = instr.mnemonic
        rs, rt, rd = instr.rs, instr.rt, instr.rd
        program = self.program
        nxt = index + 1
        out = self.lines.append
        if m in ("jr", "jalr"):
            text_base, text_end = program.text_base, program.text_end
            destination = 0 if rs == 0 else self._const.get(rs)
            if destination is not None:
                # The jump target is a path constant — typically $ra
                # materialized by a jal chained earlier in this very
                # function — so the computed jump is really a direct
                # one: validate at compile time and keep chaining.
                # Call/return pairs thread straight through with no
                # dispatch round trip.
                if text_base <= destination < text_end:
                    if m == "jalr" and rd != 0:
                        self._assign(rd, str(address + 4))
                    self._continue_at((destination - text_base) >> 2)
                    return
                for line in self._escape():
                    out(line)
                self.pending = []
                out(f"raise MachineError('{m} to non-text address "
                    f"{destination:#x} at {address:#x}')")
                return
            source = self._read(rs)
            for line in self._escape():
                out(line)
            self.pending = []
            out(f"d = {source}")
            out(f"if not {text_base} <= d < {text_end}:")
            out(f"    raise MachineError(f\"{m} to non-text address "
                f"{{d:#x}} at {address:#x}\")")
            if m == "jalr" and rd != 0:
                # Written straight to the register file: the function
                # is exiting and the write-back already ran.
                out(f"r[{rd}] = {address + 4}")
            out(f"return (d - {text_base}) >> 2")
            return
        target = program.index_of(instr.imm)
        if m == "j":
            self._continue_at(target)
            return
        if m == "jal":
            self._assign(RA, str(address + 4))
            self._continue_at(target)
            return
        # Conditional branches.  ``taken`` is the condition under which
        # the branch is taken, over the *unsigned* register value: for
        # x in [0, 2**32), signed(x) > 0 iff 0 < x < 2**31, and
        # signed(x) < 0 iff x > 0x7FFFFFFF.  A constant condition
        # degenerates into a plain continuation.
        a = self._read(rs)
        if m == "beq":
            taken = True if rs == rt else f"{a} == {self._read(rt)}"
        elif m == "bne":
            taken = False if rs == rt else f"{a} != {self._read(rt)}"
        elif m == "blez":
            taken = (True if rs == 0
                     else f"not 0 < {a} < 0x80000000")
        elif m == "bgtz":
            taken = False if rs == 0 else f"0 < {a} < 0x80000000"
        elif m == "bltz":
            taken = False if rs == 0 else f"{a} > 0x7FFFFFFF"
        else:  # bgez
            taken = True if rs == 0 else f"{a} < 0x80000000"
        if taken is True:
            self._continue_at(target)
            return
        if taken is False:
            self._continue_at(nxt)
            return
        out(f"if {taken}:")
        if target == self.start and self.preamble:
            # Taken backedge to the root: flush (WITHOUT clearing — the
            # not-taken path below still owes these appends; the paths
            # are exclusive) and loop in place.
            self.loops = True
            for line in self._flush_code(indent="    "):
                out(line)
            self._spill_check(out, indent="    ")
            out("    continue")
        elif (target in self.engine._leader_set
                and target not in self._emitted
                and self._chain_budget > 0
                and len(self.pending) <= _CHAIN_PENDING):
            # Chain the TAKEN side inline too: the target block's code
            # (preamble included) is emitted inside the ``if`` body, so
            # a frequently-taken forward branch doesn't pay a dispatch
            # round trip plus re-entry register loads.  The sub-path
            # inherits copies of the pending appends and the constant
            # map (re-established by the shared prefix on every arrival
            # at the branch), and every one of its paths ends in
            # return/continue/raise, so the fall-through below resumes
            # from the pre-branch state.  The written set is NOT
            # restored: a ``continue`` inside the sub-path can carry its
            # writes into a later iteration that exits through the
            # fall-through, so every escape must sync the union of
            # writes (the factory entry-loads all written registers,
            # keeping each ``v{n}`` defined on every path).
            self._chain_budget -= 1
            self._emitted.add(target)
            saved_lines = self.lines
            saved_pending = list(self.pending)
            saved_const = dict(self._const)
            self.lines = []
            self._emit_range(target, self.engine._block_end(target),
                             preamble=True)
            sub = self.lines
            self.lines = saved_lines
            self.pending = saved_pending
            self._const = saved_const
            for line in sub:
                out("    " + line)
        else:
            for line in self._escape(indent="    "):
                out(line)
            out(f"    return {target}")
        self._continue_at(nxt)

    # -- straight-line instructions ------------------------------------
    def _alu(self, instr) -> None:
        m = instr.mnemonic
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        imm, shamt = instr.imm, instr.shamt
        out = self.lines.append

        if m == "addiu":
            if rt == 0:
                return
            if rs == 0:
                value = str(imm & _MASK)
            elif imm == 0:
                value = self._read(rs)
            else:
                value = f"({self._read(rs)} + {imm}) & 0xFFFFFFFF"
            self._assign(rt, value)
            return
        if m in ("andi", "ori", "xori", "slti", "sltiu", "lui"):
            if rt == 0:
                return
            if m == "lui":
                value = str((imm << 16) & _MASK)
            elif m == "andi":
                value = "0" if rs == 0 else f"{self._read(rs)} & {imm}"
            elif m == "ori":
                value = (str(imm & _MASK) if rs == 0
                         else f"{self._read(rs)} | {imm}")
            elif m == "xori":
                value = (str(imm & _MASK) if rs == 0
                         else f"{self._read(rs)} ^ {imm}")
            elif m == "slti":
                value = (str(1 if 0 < imm else 0) if rs == 0 else
                         f"1 if {_signed(self._read(rs))} < {imm} else 0")
            else:  # sltiu
                value = (str(1 if 0 < (imm & _MASK) else 0) if rs == 0
                         else f"1 if {self._read(rs)} < {imm & _MASK} "
                              f"else 0")
            self._assign(rt, value)
            return

        # Everything below writes rd; a $zero destination is a no-op
        # (side-effect-free), which the closure engine reaches via its
        # _guard_zero wrapper.
        if rd == 0:
            return
        # An unused operand field is None; no mnemonic's expression
        # below reads the placeholder.
        a = self._read(rs) if rs is not None else "<unused>"
        b = self._read(rt) if rt is not None else "<unused>"
        if m == "addu":
            value = (a if rt == 0 else b if rs == 0
                     else f"({a} + {b}) & 0xFFFFFFFF")
        elif m == "subu":
            value = a if rt == 0 else f"({a} - {b}) & 0xFFFFFFFF"
        elif m == "mul":
            value = ("0" if rs == 0 or rt == 0
                     else f"({_signed(a)} * {_signed(b)}) & 0xFFFFFFFF")
        elif m == "div":
            value = f"div32({a}, {b})"
        elif m == "rem":
            value = f"rem32({a}, {b})"
        elif m == "and":
            value = "0" if rs == 0 or rt == 0 else f"{a} & {b}"
        elif m == "or":
            value = a if rt == 0 else b if rs == 0 else f"{a} | {b}"
        elif m == "xor":
            value = a if rt == 0 else b if rs == 0 else f"{a} ^ {b}"
        elif m == "nor":
            value = f"~({a} | {b}) & 0xFFFFFFFF"
        elif m == "slt":
            value = f"1 if {_signed(a)} < {_signed(b)} else 0"
        elif m == "sltu":
            value = ("0" if rt == 0
                     else f"1 if {b} else 0" if rs == 0
                     else f"1 if {a} < {b} else 0")
        elif m == "sll":
            value = b if shamt == 0 else f"({b} << {shamt}) & 0xFFFFFFFF"
        elif m == "srl":
            value = b if shamt == 0 else f"{b} >> {shamt}"
        elif m == "sra":
            value = (b if shamt == 0 or rt == 0
                     else f"({_signed(b)} >> {shamt}) & 0xFFFFFFFF")
        elif m == "sllv":
            value = f"({b} << ({a} & 31)) & 0xFFFFFFFF"
        elif m == "srlv":
            value = f"{b} >> ({a} & 31)"
        elif m == "srav":
            value = f"({_signed(b)} >> ({a} & 31)) & 0xFFFFFFFF"
        elif m in ("fadd", "fsub", "fmul"):
            op = {"fadd": "+", "fsub": "-", "fmul": "*"}[m]
            value = f"f2b({_b2f(a)} {op} {_b2f(b)})"
        elif m == "fdiv":
            out(f"y = {_b2f(b)}")
            value = f"f2b({_b2f(a)} / y) if y else {_INF_BITS}"
        elif m == "fneg":
            value = f"f2b(-{_b2f(a)})"
        elif m == "fcvt":
            value = ("0" if rs == 0
                     else f"f2b(float({_signed(a)}))")
        elif m == "ftrunc":
            value = f"ftrunc32({a})"
        elif m in ("feq", "flt", "fle"):
            op = {"feq": "==", "flt": "<", "fle": "<="}[m]
            value = f"1 if {_b2f(a)} {op} {_b2f(b)} else 0"
        else:  # pragma: no cover - exhaustive over SPECS
            raise MachineError(f"cannot compile mnemonic {m!r}")
        self._assign(rd, value)


class BlockEngine:
    """One machine's dispatch table over its program's block code.

    ``funcs`` is index-aligned with ``program.instructions``.  Every
    index starts as a stub that compiles on first entry: a leader's
    chain function (with the block-entry preamble) or a mid-block tail
    (without it).  The stub installs the compiled function in its slot
    and runs it, so later dispatches go straight to the function.  The
    table is what :meth:`Machine.run` threads its dispatch loop over.

    The generated text depends only on the program, on whether the
    machine traces, and on the step limit folded into the budget check,
    so the compiled factories live on the :class:`Program`, keyed by
    ``(traced, limit)`` and then ``(index, preamble)``.  A machine binds
    them to its own register file, memory and trace by calling the
    factory; a second machine over the same program compiles nothing.
    """

    def __init__(self, machine) -> None:
        program = machine.program
        self._program = program
        self._traced = machine.trace is not None
        self._limit = machine._entry_budget[1]
        self._leader_indices = [program.index_of(address)
                                for address in machine._leaders]
        self._leader_set = frozenset(self._leader_indices)
        self._code: Dict[Tuple[int, bool], tuple] = \
            program._block_code.setdefault((self._traced, self._limit), {})
        self._env = self._build_env(machine)
        leaders = self._leader_set
        self.funcs: List[Callable[[], int]] = [
            self._stub(index, index in leaders)
            for index in range(len(program.instructions))]
        # Seed every leader's entry count, as _instrument_leader does.
        for address in machine._leaders:
            machine._block_counts[address] = 0

    @staticmethod
    def _build_env(machine) -> tuple:
        trace = machine.trace
        if trace is not None:
            tpa, taa, tka = (trace.pcs.append, trace.addresses.append,
                             trace.kinds.append)
            tpe, tae, tke = (trace.pcs.extend, trace.addresses.extend,
                             trace.kinds.extend)
        else:
            tpa = taa = tka = tpe = tae = tke = None
        return (machine.regs, machine.memory, machine.memory.get,
                machine._load_bytes, machine._store_bytes,
                machine._syscall, machine._block_counts,
                machine._entry_budget,
                tpa, taa, tka, tpe, tae, tke,
                trace.pcs.__len__ if trace is not None else None,
                machine._stream,
                MachineError, StepLimitExceeded,
                _PACK_I, _UNPACK_F, float_to_bits,
                _div32, _rem32, _ftrunc32)

    def _block_end(self, leader_index: int) -> int:
        position = bisect_right(self._leader_indices, leader_index)
        return (self._leader_indices[position]
                if position < len(self._leader_indices)
                else len(self._program.instructions))

    def _factory_source(self, start: int, *, preamble: bool
                        ) -> Tuple[str, List[Tuple[array, array]]]:
        emitter = _Emitter(self, start, self._block_end(start),
                           preamble=preamble)
        body = emitter.emit()
        lines = ["def factory(E, S):",
                 f"    ({_ENV_NAMES}) = E"]
        for segment in range(len(emitter.segments)):
            lines.append(f"    _p{segment}, _k{segment} = S[{segment}]")
        lines.append("    def block():")
        prefix = "        "
        if emitter._count_local:
            lines.append(prefix + "c = 0")
        if emitter._budget_local:
            lines.append(prefix + "n = budget[0]")
        # Entry-load every upward-exposed read AND every written
        # register: escapes sync the union of writes over all emitted
        # paths, so each v{n} must be defined even on paths that never
        # assign it.
        loaded = set()
        for number in emitter.entry_loads + emitter._written:
            if number not in loaded:
                loaded.add(number)
                lines.append(f"{prefix}v{number} = r[{number}]")
        if emitter.loops:
            lines.append(prefix + "while True:")
            prefix += "    "
        for line in body:
            lines.append(prefix + line)
        lines.append("    return block")
        return "\n".join(lines) + "\n", emitter.segments

    def _function(self, index: int, preamble: bool) -> Callable[[], int]:
        """The function entered at ``index``, bound to this machine.

        With ``preamble`` it is the chain rooted at leader ``index``;
        without, the tail ``[index, block end)`` of a split block.  A
        tail has no leader preamble: a mid-block entry is not a block
        entry, so it contributes to neither ``block_counts`` nor the
        step budget (exactly like the closure engine's uninstrumented
        interior closures).
        """
        key = (index, preamble)
        code = self._code.get(key)
        if code is None:
            # Two machines racing here compile the same text twice;
            # either result is correct to keep.
            source, segments = self._factory_source(index,
                                                    preamble=preamble)
            namespace: dict = {}
            exec(compile(source, "<repro-block-codegen>", "exec"),
                 namespace)
            code = self._code[key] = (namespace["factory"], segments)
        factory, segments = code
        return factory(self._env, segments)

    def _stub(self, index: int, preamble: bool) -> Callable[[], int]:
        def compile_on_entry() -> int:
            function = self.funcs[index] = self._function(index, preamble)
            return function()

        return compile_on_entry
