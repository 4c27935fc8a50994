"""Compiler driver: MiniC source to an executable :class:`Program`.

``compile_source`` is the single entry point the pipeline, workloads and
examples use.  It chains parse -> semantic analysis -> (optional folding +
register promotion) codegen -> runtime linkage -> assembly, then patches
the two pieces of layout-dependent state: gp-relative offsets in the debug
symbol table (the BDH baseline needs them) and the initial heap break used
by the bump allocator.
"""

from __future__ import annotations

import struct

from repro.asm.assembler import AssemblerError, assemble
from repro.asm.program import Program
from repro.compiler.codegen import Codegen, CodegenError
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError, parse
from repro.lang.sema import SemanticError, analyze

__all__ = ["compile_source", "generate_assembly", "CodegenError",
           "COMPILE_ERRORS"]

#: Everything compiling a bad MiniC program raises.  The CLI reports
#: these as user errors (exit 2) and the service as ``bad_request``.
COMPILE_ERRORS = (LexError, ParseError, SemanticError, CodegenError,
                  AssemblerError)


def generate_assembly(source: str, optimize: bool = False) -> str:
    """Compile MiniC ``source`` to assembly text (no assembling)."""
    unit = analyze(parse(source))
    return Codegen(unit, optimize=optimize).generate()


def compile_source(source: str, optimize: bool = False) -> Program:
    """Compile MiniC ``source`` into a runnable, analyzable program."""
    unit = analyze(parse(source))
    generator = Codegen(unit, optimize=optimize)
    asm_text = generator.generate()
    program = assemble(asm_text, symtab=generator.symtab)

    # Fill in gp-relative offsets for global debug records.
    for name, info in generator.symtab.globals.items():
        address = program.symbols[name]
        info.offset = address - program.gp_value

    # Point the bump allocator at the heap base.
    heap_ptr_offset = program.symbols["__heap_ptr"] - program.data_base
    program.data[heap_ptr_offset:heap_ptr_offset + 4] = struct.pack(
        "<I", program.heap_base)
    return program
