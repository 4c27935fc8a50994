"""Semantic analysis for MiniC: name resolution and type checking.

Annotates every expression with its type (``expr.ty``), every ``Var`` with
its resolved symbol (``expr.symbol``), and every function with the flat
list of its locals (``func.all_locals``) that the frame builder consumes.
Implicit int/float conversions are made explicit by inserting ``Cast``
nodes so codegen never guesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.lang import astnodes as ast
from repro.lang.lexer import SourceError
from repro.lang.types import (
    CHAR, FLOAT, INT, VOID, ArrayType, FloatType, PointerType, StructType,
    Type, common_arithmetic, is_assignable,
)


class SemanticError(SourceError):
    pass


@dataclass
class Symbol:
    name: str
    type: Type
    kind: str              # "global" | "local" | "param"


@dataclass
class FunctionSig:
    name: str
    ret_type: Type
    param_types: list[Type]
    is_builtin: bool = False
    variadic: bool = False


BUILTINS: dict[str, FunctionSig] = {
    "malloc": FunctionSig("malloc", PointerType(CHAR), [INT],
                          is_builtin=True),
    "calloc": FunctionSig("calloc", PointerType(CHAR), [INT, INT],
                          is_builtin=True),
    "free": FunctionSig("free", VOID, [PointerType(CHAR)], is_builtin=True),
    "print_int": FunctionSig("print_int", VOID, [INT], is_builtin=True),
    "print_char": FunctionSig("print_char", VOID, [INT], is_builtin=True),
    "rand": FunctionSig("rand", INT, [], is_builtin=True),
    "srand": FunctionSig("srand", VOID, [INT], is_builtin=True),
    "read_int": FunctionSig("read_int", INT, [], is_builtin=True),
}


def _decay(ty: Type) -> Type:
    return ty.decayed() if isinstance(ty, ArrayType) else ty


class Analyzer:
    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.globals: dict[str, Symbol] = {}
        self.functions: dict[str, FunctionSig] = dict(BUILTINS)
        self._scopes: list[dict[str, Symbol]] = []
        self._current: Optional[ast.FuncDecl] = None
        self._locals: list[ast.VarDecl] = []
        self._loop_depth = 0

    # ------------------------------------------------------------------
    def analyze(self) -> ast.TranslationUnit:
        for decl in self.unit.globals:
            if decl.name in self.globals:
                raise SemanticError(f"global {decl.name!r} redefined",
                                    decl.line)
            if decl.type.is_void:
                raise SemanticError(f"global {decl.name!r} has void type",
                                    decl.line)
            self._check_complete(decl.type, decl.line)
            self.globals[decl.name] = Symbol(decl.name, decl.type, "global")
            if decl.init is not None:
                self._check_const_init(decl.type, decl.init)
        for func in self.unit.functions:
            if func.name in BUILTINS:
                raise SemanticError(
                    f"function {func.name!r} shadows a builtin", func.line)
            sig = FunctionSig(func.name, func.ret_type,
                              [p.type for p in func.params])
            existing = self.functions.get(func.name)
            if existing is not None and existing.param_types != sig.param_types:
                raise SemanticError(
                    f"conflicting declarations of {func.name!r}", func.line)
            self.functions[func.name] = sig
        for func in self.unit.functions:
            if func.body is not None:
                self._check_function(func)
        return self.unit

    def _check_complete(self, ty: Type, line: int) -> None:
        if isinstance(ty, StructType) and not ty.complete:
            raise SemanticError(f"incomplete type struct {ty.name}", line)
        if isinstance(ty, ArrayType):
            self._check_complete(ty.elem, line)

    def _check_const_init(self, ty: Type, init: ast.Expr) -> None:
        if isinstance(init, ast.Call) and init.name == "__initlist__":
            if not isinstance(ty, ArrayType):
                raise SemanticError("brace initializer on non-array",
                                    init.line)
            if len(init.args) > ty.count:
                raise SemanticError("too many initializer elements",
                                    init.line)
            for element in init.args:
                self._check_const_init(ty.elem, element)
            init.ty = ty
            return
        value = const_value(init)
        if value is None:
            raise SemanticError("global initializer must be constant",
                                init.line)
        init.ty = FLOAT if isinstance(value, float) else INT

    # -- scopes ------------------------------------------------------
    def _push(self) -> None:
        self._scopes.append({})

    def _pop(self) -> None:
        self._scopes.pop()

    def _declare(self, symbol: Symbol, line: int) -> None:
        scope = self._scopes[-1]
        if symbol.name in scope:
            raise SemanticError(f"{symbol.name!r} redeclared", line)
        for outer in self._scopes[:-1]:
            if symbol.name in outer:
                raise SemanticError(
                    f"{symbol.name!r} shadows an outer local "
                    "(not supported)", line)
        scope[symbol.name] = symbol

    def _lookup(self, name: str, line: int) -> Symbol:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        if name in self.globals:
            return self.globals[name]
        raise SemanticError(f"undefined variable {name!r}", line)

    # -- functions -----------------------------------------------------
    def _check_function(self, func: ast.FuncDecl) -> None:
        self._current = func
        self._locals = []
        self._push()
        for param in func.params:
            if param.type.is_void:
                raise SemanticError("void parameter", param.line)
            self._declare(Symbol(param.name, param.type, "param"),
                          param.line)
        self._check_block(func.body)
        self._pop()
        func.all_locals = self._locals  # type: ignore[attr-defined]
        self._current = None

    def _check_block(self, block: ast.Block) -> None:
        self._push()
        for stmt in block.statements:
            self._check_stmt(stmt)
        self._pop()

    # -- statements ---------------------------------------------------
    def _check_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            self._check_local_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._check_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._require_scalar(self._check_expr(stmt.cond), stmt.line)
            self._check_stmt(stmt.then)
            if stmt.orelse is not None:
                self._check_stmt(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._require_scalar(self._check_expr(stmt.cond), stmt.line)
            self._loop_depth += 1
            self._check_stmt(stmt.body)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.For):
            if stmt.init is not None:
                self._check_stmt(stmt.init)
            if stmt.cond is not None:
                self._require_scalar(self._check_expr(stmt.cond), stmt.line)
            if stmt.step is not None:
                self._check_stmt(stmt.step)
            self._loop_depth += 1
            self._check_stmt(stmt.body)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.Return):
            self._check_return(stmt)
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self._loop_depth == 0:
                raise SemanticError("break/continue outside a loop",
                                    stmt.line)
        else:  # pragma: no cover
            raise SemanticError(f"unknown statement {type(stmt).__name__}",
                                stmt.line)

    def _check_local_decl(self, decl: ast.VarDecl) -> None:
        if decl.type.is_void:
            raise SemanticError(f"local {decl.name!r} has void type",
                                decl.line)
        self._check_complete(decl.type, decl.line)
        self._declare(Symbol(decl.name, decl.type, "local"), decl.line)
        self._locals.append(decl)
        if decl.init is not None:
            if isinstance(decl.init, ast.Call) \
                    and decl.init.name == "__initlist__":
                raise SemanticError(
                    "brace initializers are only supported on globals",
                    decl.line)
            value_ty = self._check_expr(decl.init)
            if not is_assignable(decl.type, _decay(value_ty)):
                raise SemanticError(
                    f"cannot initialize {decl.type} with {value_ty}",
                    decl.line)
            decl.init = self._coerce(decl.init, decl.type)

    def _check_assign(self, stmt: ast.Assign) -> None:
        target_ty = self._check_expr(stmt.target)
        if not self._is_lvalue(stmt.target):
            raise SemanticError("assignment target is not an lvalue",
                                stmt.line)
        if isinstance(target_ty, (ArrayType, StructType)):
            raise SemanticError(f"cannot assign to {target_ty}", stmt.line)
        value_ty = self._check_expr(stmt.value)
        if not is_assignable(target_ty, _decay(value_ty)):
            raise SemanticError(
                f"cannot assign {value_ty} to {target_ty}", stmt.line)
        stmt.value = self._coerce(stmt.value, target_ty)

    def _check_return(self, stmt: ast.Return) -> None:
        assert self._current is not None
        ret = self._current.ret_type
        if stmt.value is None:
            if not ret.is_void:
                raise SemanticError("missing return value", stmt.line)
            return
        if ret.is_void:
            raise SemanticError("return with value in void function",
                                stmt.line)
        value_ty = self._check_expr(stmt.value)
        if not is_assignable(ret, _decay(value_ty)):
            raise SemanticError(f"cannot return {value_ty} as {ret}",
                                stmt.line)
        stmt.value = self._coerce(stmt.value, ret)

    # -- expressions ---------------------------------------------------
    def _require_scalar(self, ty: Type, line: int) -> None:
        if not _decay(ty).is_scalar:
            raise SemanticError(f"scalar required, found {ty}", line)

    def _is_lvalue(self, expr: ast.Expr) -> bool:
        return isinstance(expr, (ast.Var, ast.Index, ast.Member, ast.Deref))

    def _coerce(self, expr: ast.Expr, target: Type) -> ast.Expr:
        """Insert an explicit Cast when int-ness and float-ness differ."""
        source = _decay(expr.ty)
        if isinstance(target, FloatType) != isinstance(source, FloatType):
            if target.is_arithmetic and source.is_arithmetic:
                cast = ast.Cast(line=expr.line,
                                target=FLOAT if isinstance(target, FloatType)
                                else INT,
                                operand=expr)
                cast.ty = cast.target
                return cast
        return expr

    def _check_expr(self, expr: ast.Expr) -> Type:
        ty = self._expr_type(expr)
        expr.ty = ty
        return ty

    def _expr_type(self, expr: ast.Expr) -> Type:
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.FloatLit):
            return FLOAT
        if isinstance(expr, ast.CharLit):
            return INT
        if isinstance(expr, ast.Var):
            symbol = self._lookup(expr.name, expr.line)
            expr.symbol = symbol  # type: ignore[attr-defined]
            return symbol.type
        if isinstance(expr, ast.Binary):
            return self._binary_type(expr)
        if isinstance(expr, ast.Unary):
            operand = _decay(self._check_expr(expr.operand))
            if expr.op == "!":
                self._require_scalar(operand, expr.line)
                return INT
            if not operand.is_arithmetic:
                raise SemanticError(f"bad operand for {expr.op}", expr.line)
            if expr.op == "~" and isinstance(operand, FloatType):
                raise SemanticError("~ requires an integer", expr.line)
            return FLOAT if isinstance(operand, FloatType) else INT
        if isinstance(expr, ast.Deref):
            operand = _decay(self._check_expr(expr.operand))
            if not operand.is_pointer:
                raise SemanticError("dereference of non-pointer", expr.line)
            return operand.target
        if isinstance(expr, ast.AddressOf):
            operand_ty = self._check_expr(expr.operand)
            if not self._is_lvalue(expr.operand):
                raise SemanticError("& requires an lvalue", expr.line)
            if isinstance(operand_ty, ArrayType):
                return PointerType(operand_ty.elem)
            return PointerType(operand_ty)
        if isinstance(expr, ast.Index):
            base = _decay(self._check_expr(expr.base))
            if not base.is_pointer:
                raise SemanticError("indexing a non-array", expr.line)
            index_ty = _decay(self._check_expr(expr.index))
            if not index_ty.is_integer:
                raise SemanticError("array index must be an integer",
                                    expr.line)
            return base.target
        if isinstance(expr, ast.Member):
            base = self._check_expr(expr.base)
            if expr.arrow:
                base = _decay(base)
                if not (base.is_pointer
                        and isinstance(base.target, StructType)):
                    raise SemanticError("-> on non-pointer-to-struct",
                                        expr.line)
                struct = base.target
            else:
                if not isinstance(base, StructType):
                    raise SemanticError(". on non-struct", expr.line)
                struct = base
            fld = struct.field(expr.name)
            if fld is None:
                raise SemanticError(
                    f"struct {struct.name} has no member {expr.name!r}",
                    expr.line)
            expr.field = fld  # type: ignore[attr-defined]
            return fld.type
        if isinstance(expr, ast.Call):
            return self._call_type(expr)
        if isinstance(expr, ast.Cast):
            operand = _decay(self._check_expr(expr.operand))
            target = expr.target
            if target.is_arithmetic and operand.is_arithmetic:
                return target
            if target.is_pointer and (operand.is_pointer
                                      or operand.is_integer):
                return target
            if target.is_integer and operand.is_pointer:
                return target
            raise SemanticError(f"invalid cast {operand} -> {target}",
                                expr.line)
        if isinstance(expr, ast.SizeOf):
            return INT
        raise SemanticError(  # pragma: no cover
            f"unknown expression {type(expr).__name__}", expr.line)

    def _binary_type(self, expr: ast.Binary) -> Type:
        left = _decay(self._check_expr(expr.left))
        right = _decay(self._check_expr(expr.right))
        op = expr.op
        if op in ("&&", "||"):
            self._require_scalar(left, expr.line)
            self._require_scalar(right, expr.line)
            return INT
        if op in ("==", "!=", "<", ">", "<=", ">="):
            if left.is_pointer or right.is_pointer:
                return INT
            if left.is_arithmetic and right.is_arithmetic:
                common = common_arithmetic(left, right)
                expr.left = self._coerce(expr.left, common)
                expr.right = self._coerce(expr.right, common)
                return INT
            raise SemanticError(f"bad comparison operands", expr.line)
        if op in ("<<", ">>", "%", "&", "|", "^"):
            if not (left.is_integer and right.is_integer):
                raise SemanticError(f"{op} requires integers", expr.line)
            return INT
        if op == "+":
            if left.is_pointer and right.is_integer:
                return left
            if left.is_integer and right.is_pointer:
                return right
        if op == "-":
            if left.is_pointer and right.is_integer:
                return left
            if left.is_pointer and right.is_pointer:
                return INT
        if op in ("+", "-", "*", "/"):
            if left.is_arithmetic and right.is_arithmetic:
                common = common_arithmetic(left, right)
                expr.left = self._coerce(expr.left, common)
                expr.right = self._coerce(expr.right, common)
                return common
        raise SemanticError(f"bad operands for {op}: {left}, {right}",
                            expr.line)

    def _call_type(self, expr: ast.Call) -> Type:
        sig = self.functions.get(expr.name)
        if sig is None:
            raise SemanticError(f"undefined function {expr.name!r}",
                                expr.line)
        if len(expr.args) != len(sig.param_types):
            raise SemanticError(
                f"{expr.name} expects {len(sig.param_types)} arguments, "
                f"got {len(expr.args)}", expr.line)
        for position, (arg, param_ty) in enumerate(
                zip(expr.args, sig.param_types)):
            arg_ty = _decay(self._check_expr(arg))
            if not is_assignable(param_ty, arg_ty):
                raise SemanticError(
                    f"argument {position + 1} of {expr.name}: cannot pass "
                    f"{arg_ty} as {param_ty}", expr.line)
            expr.args[position] = self._coerce(arg, param_ty)
        expr.sig = sig  # type: ignore[attr-defined]
        return sig.ret_type


def const_value(expr: ast.Expr):
    """Evaluate a constant expression, or None if not constant."""
    if isinstance(expr, (ast.IntLit, ast.CharLit)):
        return expr.value
    if isinstance(expr, ast.FloatLit):
        return expr.value
    if isinstance(expr, ast.SizeOf):
        return expr.target.size
    if isinstance(expr, ast.Unary):
        inner = const_value(expr.operand)
        if inner is None:
            return None
        if expr.op == "-":
            return -inner
        if expr.op == "~" and isinstance(inner, int):
            return ~inner
        if expr.op == "!":
            return 0 if inner else 1
    if isinstance(expr, ast.Binary):
        left = const_value(expr.left)
        right = const_value(expr.right)
        if left is None or right is None:
            return None
        try:
            return _CONST_OPS[expr.op](left, right)
        except (KeyError, ZeroDivisionError, TypeError):
            return None
    if isinstance(expr, ast.Cast):
        inner = const_value(expr.operand)
        if inner is None:
            return None
        if isinstance(expr.target, FloatType):
            return float(inner)
        return int(inner)
    return None


_CONST_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b if isinstance(a, float) or isinstance(b, float)
    else int(a / b),
    "%": lambda a, b: a - int(a / b) * b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: a >> b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
}


def analyze(unit: ast.TranslationUnit) -> ast.TranslationUnit:
    """Run semantic analysis, annotating the tree in place."""
    return Analyzer(unit).analyze()
