"""Recursive-descent parser for MiniC."""

from __future__ import annotations

from typing import Optional

from repro.lang import astnodes as ast
from repro.lang.lexer import SourceError, Token, tokenize
from repro.lang.types import (
    CHAR, FLOAT, INT, VOID, ArrayType, PointerType, StructType, Type,
)


class ParseError(SourceError):
    pass


_TYPE_STARTERS = frozenset(("int", "char", "float", "void", "struct"))

# Binary operator precedence, loosest first.
_PRECEDENCE = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.structs: dict[str, StructType] = {}

    # -- token plumbing --------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.current
        if token.kind != kind:
            raise ParseError(f"expected {kind!r}, found {token.text!r}",
                             token.line)
        return self.advance()

    def accept(self, kind: str) -> Optional[Token]:
        if self.current.kind == kind:
            return self.advance()
        return None

    # -- types ------------------------------------------------------
    def at_type(self) -> bool:
        return self.current.kind in _TYPE_STARTERS

    def parse_base_type(self) -> Type:
        token = self.advance()
        if token.kind == "int":
            base: Type = INT
        elif token.kind == "char":
            base = CHAR
        elif token.kind == "float":
            base = FLOAT
        elif token.kind == "void":
            base = VOID
        elif token.kind == "struct":
            name = self.expect("ident").text
            if name not in self.structs:
                self.structs[name] = StructType(name)
            base = self.structs[name]
        else:
            raise ParseError(f"expected a type, found {token.text!r}",
                             token.line)
        while self.accept("*"):
            base = PointerType(base)
        return base

    def parse_array_suffix(self, base: Type) -> Type:
        sizes: list[int] = []
        while self.accept("["):
            size_token = self.expect("intlit")
            sizes.append(size_token.value)
            self.expect("]")
        for size in reversed(sizes):
            base = ArrayType(base, size)
        return base

    # -- top level ---------------------------------------------------
    def parse_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit(line=1)
        while self.current.kind != "eof":
            if (self.current.kind == "struct"
                    and self.peek().kind == "ident"
                    and self.peek(2).kind == "{"):
                unit.structs.append(self.parse_struct_decl())
                continue
            line = self.current.line
            base = self.parse_base_type()
            name = self.expect("ident").text
            if self.current.kind == "(":
                unit.functions.append(self.parse_function(base, name, line))
            else:
                unit.globals.extend(self.parse_global_tail(base, name, line))
        return unit

    def parse_struct_decl(self) -> ast.StructDecl:
        line = self.current.line
        self.expect("struct")
        name = self.expect("ident").text
        struct = self.structs.setdefault(name, StructType(name))
        if struct.complete:
            raise ParseError(f"struct {name} redefined", line)
        self.expect("{")
        members: list[tuple[str, Type]] = []
        while not self.accept("}"):
            mtype = self.parse_base_type()
            while True:
                mname = self.expect("ident").text
                full = self.parse_array_suffix(mtype)
                if (isinstance(full, (StructType,))
                        and not full.complete):
                    raise ParseError(
                        f"member {mname} has incomplete type", line)
                members.append((mname, full))
                if not self.accept(","):
                    break
            self.expect(";")
        self.expect(";")
        struct.set_fields(members)
        return ast.StructDecl(line=line, name=name, members=members)

    def parse_global_tail(self, base: Type, first_name: str,
                          line: int) -> list[ast.VarDecl]:
        decls: list[ast.VarDecl] = []
        name = first_name
        while True:
            var_type = self.parse_array_suffix(base)
            init: Optional[ast.Expr] = None
            if self.accept("="):
                init = self.parse_initializer()
            decls.append(ast.VarDecl(line=line, type=var_type, name=name,
                                     init=init, is_global=True))
            if not self.accept(","):
                break
            name = self.expect("ident").text
        self.expect(";")
        return decls

    def parse_initializer(self) -> ast.Expr:
        if self.current.kind == "{":
            # Array initializer: a brace list parsed into a Call-like node
            # is overkill; reuse Call with a reserved name.
            line = self.advance().line
            elements: list[ast.Expr] = []
            while not self.accept("}"):
                elements.append(self.parse_expr())
                if self.current.kind != "}":
                    self.expect(",")
            return ast.Call(line=line, name="__initlist__", args=elements)
        return self.parse_expr()

    def parse_function(self, ret_type: Type, name: str,
                       line: int) -> ast.FuncDecl:
        self.expect("(")
        params: list[ast.Param] = []
        if not self.accept(")"):
            if self.current.kind == "void" and self.peek().kind == ")":
                self.advance()
            else:
                while True:
                    ptype = self.parse_base_type()
                    pname = self.expect("ident").text
                    # Array parameters decay to pointers.
                    decayed = self.parse_array_suffix(ptype)
                    if isinstance(decayed, ArrayType):
                        decayed = decayed.decayed()
                    params.append(ast.Param(line=self.current.line,
                                            type=decayed, name=pname))
                    if not self.accept(","):
                        break
            self.expect(")")
        if self.accept(";"):
            return ast.FuncDecl(line=line, ret_type=ret_type, name=name,
                                params=params, body=None)
        body = self.parse_block()
        return ast.FuncDecl(line=line, ret_type=ret_type, name=name,
                            params=params, body=body)

    # -- statements ---------------------------------------------------
    def parse_block(self) -> ast.Block:
        line = self.expect("{").line
        statements: list[ast.Stmt] = []
        while not self.accept("}"):
            statements.append(self.parse_statement())
        return ast.Block(line=line, statements=statements)

    def parse_statement(self) -> ast.Stmt:
        token = self.current
        if token.kind == "{":
            return self.parse_block()
        if self.at_type():
            return self.parse_local_decl()
        if token.kind == "if":
            return self.parse_if()
        if token.kind == "while":
            return self.parse_while()
        if token.kind == "for":
            return self.parse_for()
        if token.kind == "return":
            self.advance()
            value = None if self.current.kind == ";" else self.parse_expr()
            self.expect(";")
            return ast.Return(line=token.line, value=value)
        if token.kind == "break":
            self.advance()
            self.expect(";")
            return ast.Break(line=token.line)
        if token.kind == "continue":
            self.advance()
            self.expect(";")
            return ast.Continue(line=token.line)
        stmt = self.parse_simple_statement()
        self.expect(";")
        return stmt

    def parse_local_decl(self) -> ast.Stmt:
        line = self.current.line
        base = self.parse_base_type()
        decls: list[ast.Stmt] = []
        while True:
            name = self.expect("ident").text
            var_type = self.parse_array_suffix(base)
            init = None
            if self.accept("="):
                init = self.parse_initializer()
            decls.append(ast.VarDecl(line=line, type=var_type, name=name,
                                     init=init))
            if not self.accept(","):
                break
        self.expect(";")
        if len(decls) == 1:
            return decls[0]
        return ast.Block(line=line, statements=decls)

    def parse_simple_statement(self) -> ast.Stmt:
        """Assignment or expression statement (no trailing semicolon)."""
        line = self.current.line
        expr = self.parse_expr()
        if self.accept("="):
            value = self.parse_expr()
            return ast.Assign(line=line, target=expr, value=value)
        return ast.ExprStmt(line=line, expr=expr)

    def parse_if(self) -> ast.If:
        line = self.expect("if").line
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_statement()
        orelse = self.parse_statement() if self.accept("else") else None
        return ast.If(line=line, cond=cond, then=then, orelse=orelse)

    def parse_while(self) -> ast.While:
        line = self.expect("while").line
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_statement()
        return ast.While(line=line, cond=cond, body=body)

    def parse_for(self) -> ast.For:
        line = self.expect("for").line
        self.expect("(")
        init = None if self.current.kind == ";" \
            else self.parse_simple_statement()
        self.expect(";")
        cond = None if self.current.kind == ";" else self.parse_expr()
        self.expect(";")
        step = None if self.current.kind == ")" \
            else self.parse_simple_statement()
        self.expect(")")
        body = self.parse_statement()
        return ast.For(line=line, init=init, cond=cond, step=step, body=body)

    # -- expressions ---------------------------------------------------
    def parse_expr(self) -> ast.Expr:
        return self._parse_binary(0)

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(_PRECEDENCE):
            return self.parse_unary()
        left = self._parse_binary(level + 1)
        operators = _PRECEDENCE[level]
        while self.current.kind in operators:
            op = self.advance()
            right = self._parse_binary(level + 1)
            left = ast.Binary(line=op.line, op=op.kind, left=left,
                              right=right)
        return left

    def parse_unary(self) -> ast.Expr:
        token = self.current
        if token.kind == "-":
            self.advance()
            return ast.Unary(line=token.line, op="-",
                             operand=self.parse_unary())
        if token.kind == "!":
            self.advance()
            return ast.Unary(line=token.line, op="!",
                             operand=self.parse_unary())
        if token.kind == "~":
            self.advance()
            return ast.Unary(line=token.line, op="~",
                             operand=self.parse_unary())
        if token.kind == "*":
            self.advance()
            return ast.Deref(line=token.line, operand=self.parse_unary())
        if token.kind == "&":
            self.advance()
            return ast.AddressOf(line=token.line, operand=self.parse_unary())
        if token.kind == "sizeof":
            self.advance()
            self.expect("(")
            target = self.parse_base_type()
            target = self.parse_array_suffix(target)
            self.expect(")")
            return ast.SizeOf(line=token.line, target=target)
        if token.kind == "(" and self.peek().kind in _TYPE_STARTERS:
            self.advance()
            target = self.parse_base_type()
            self.expect(")")
            return ast.Cast(line=token.line, target=target,
                            operand=self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            token = self.current
            if token.kind == "[":
                self.advance()
                index = self.parse_expr()
                self.expect("]")
                expr = ast.Index(line=token.line, base=expr, index=index)
            elif token.kind == ".":
                self.advance()
                name = self.expect("ident").text
                expr = ast.Member(line=token.line, base=expr, name=name,
                                  arrow=False)
            elif token.kind == "->":
                self.advance()
                name = self.expect("ident").text
                expr = ast.Member(line=token.line, base=expr, name=name,
                                  arrow=True)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        token = self.current
        if token.kind == "intlit":
            self.advance()
            return ast.IntLit(line=token.line, value=token.value)
        if token.kind == "floatlit":
            self.advance()
            return ast.FloatLit(line=token.line, value=token.value)
        if token.kind == "charlit":
            self.advance()
            return ast.CharLit(line=token.line, value=token.value)
        if token.kind == "NULL":
            self.advance()
            return ast.IntLit(line=token.line, value=0)
        if token.kind == "ident":
            self.advance()
            if self.current.kind == "(":
                self.advance()
                args: list[ast.Expr] = []
                if not self.accept(")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept(","):
                            break
                    self.expect(")")
                return ast.Call(line=token.line, name=token.text, args=args)
            return ast.Var(line=token.line, name=token.text)
        if token.kind == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise ParseError(f"unexpected token {token.text!r}", token.line)


def parse(source: str) -> ast.TranslationUnit:
    """Parse MiniC ``source`` into a :class:`TranslationUnit`."""
    return Parser(tokenize(source)).parse_unit()
