"""Typed symbol table attached to assembled programs.

The paper's static BDH baseline (Section 8.5) performs "type analysis of
the MIPS assembly code ... with the help of the symbol table": each function
entry lists variables, their types and their stack offsets, and global
symbols carry types too.  This module is the debug-info substrate that makes
that analysis possible; the MiniC compiler populates it during codegen.

Types are deliberately minimal — just enough structure to answer the BDH
questions: is an access a scalar, an array element or a struct field, and
is the loaded value a pointer?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class TypeDesc:
    """Shape of a source-level type, as recorded in debug info.

    ``kind`` is one of ``int``, ``float``, ``char``, ``pointer``,
    ``array`` or ``struct``.
    """

    kind: str
    size: int
    elem: Optional["TypeDesc"] = None            # arrays, pointers
    count: int = 0                               # arrays
    fields: tuple["FieldDesc", ...] = ()         # structs
    struct_name: str = ""

    @property
    def is_pointer(self) -> bool:
        return self.kind == "pointer"

    @property
    def is_array(self) -> bool:
        return self.kind == "array"

    @property
    def is_struct(self) -> bool:
        return self.kind == "struct"

    def field_at(self, offset: int) -> Optional["FieldDesc"]:
        """The struct field covering byte ``offset``, if this is a struct."""
        for fld in self.fields:
            if fld.offset <= offset < fld.offset + fld.type.size:
                return fld
        return None


@dataclass(frozen=True)
class FieldDesc:
    name: str
    offset: int
    type: TypeDesc


INT = TypeDesc("int", 4)
FLOAT = TypeDesc("float", 4)
CHAR = TypeDesc("char", 1)


@dataclass
class VariableInfo:
    """One variable: a global (gp-region) or a function-local (stack)."""

    name: str
    type: TypeDesc
    region: str                 # "global" or "stack"
    offset: int                 # gp-relative (global) or sp-relative (stack)
    function: Optional[str] = None   # owning function for stack variables


@dataclass
class FunctionInfo:
    """Debug record for one function: extent and frame layout."""

    name: str
    start: int = 0              # first instruction address
    end: int = 0                # address one past the last instruction
    frame_size: int = 0
    locals: list[VariableInfo] = field(default_factory=list)
    param_types: list[TypeDesc] = field(default_factory=list)
    return_type: Optional[TypeDesc] = None

    def local_at(self, sp_offset: int) -> Optional[VariableInfo]:
        """The local variable whose storage covers ``sp_offset``."""
        for var in self.locals:
            if var.offset <= sp_offset < var.offset + var.type.size:
                return var
        return None


@dataclass
class SymbolTable:
    """Typed program-level debug information."""

    globals: dict[str, VariableInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    structs: dict[str, TypeDesc] = field(default_factory=dict)

    def add_global(self, info: VariableInfo) -> None:
        self.globals[info.name] = info

    def add_function(self, info: FunctionInfo) -> None:
        self.functions[info.name] = info

    def global_at(self, gp_offset: int) -> Optional[VariableInfo]:
        """The global variable whose storage covers ``gp_offset``."""
        for var in self.globals.values():
            if var.offset <= gp_offset < var.offset + var.type.size:
                return var
        return None

    def function_containing(self, address: int) -> Optional[FunctionInfo]:
        for info in self.functions.values():
            if info.start <= address < info.end:
                return info
        return None
