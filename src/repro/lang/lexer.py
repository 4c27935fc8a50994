"""Lexer for MiniC."""

from __future__ import annotations

from dataclasses import dataclass

KEYWORDS = frozenset((
    "int", "char", "float", "void", "struct", "if", "else", "while", "for",
    "return", "break", "continue", "sizeof", "NULL",
))

# Longest-match-first punctuation.
_PUNCT = (
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", ".",
)


class SourceError(Exception):
    """A MiniC source error; ``str()`` reads ``line N: message``."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line

    def __reduce__(self):
        # picklable, so a service worker process can report it
        return type(self), (self.message, self.line)


class LexError(SourceError):
    pass


@dataclass(frozen=True)
class Token:
    kind: str          # "ident" | "intlit" | "floatlit" | "charlit" | kw | punct | "eof"
    text: str
    line: int
    value: object = None


def tokenize(source: str) -> list[Token]:
    """Tokenize MiniC ``source``, raising :class:`LexError` on bad input."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    length = len(source)
    while pos < length:
        char = source[pos]
        if char == "\n":
            line += 1
            pos += 1
            continue
        if char in " \t\r":
            pos += 1
            continue
        if source.startswith("//", pos):
            end = source.find("\n", pos)
            pos = length if end == -1 else end
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end == -1:
                raise LexError("unterminated block comment", line)
            line += source.count("\n", pos, end)
            pos = end + 2
            continue
        if char.isalpha() or char == "_":
            start = pos
            while pos < length and (source[pos].isalnum()
                                    or source[pos] == "_"):
                pos += 1
            text = source[start:pos]
            kind = text if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line))
            continue
        if char.isdigit() or (char == "." and pos + 1 < length
                              and source[pos + 1].isdigit()):
            start = pos
            is_float = False
            if source.startswith("0x", pos) or source.startswith("0X", pos):
                pos += 2
                while pos < length and (source[pos].isdigit()
                                        or source[pos] in "abcdefABCDEF"):
                    pos += 1
                text = source[start:pos]
                tokens.append(Token("intlit", text, line, value=int(text, 16)))
                continue
            while pos < length and source[pos].isdigit():
                pos += 1
            if pos < length and source[pos] == ".":
                is_float = True
                pos += 1
                while pos < length and source[pos].isdigit():
                    pos += 1
            if pos < length and source[pos] in "eE":
                is_float = True
                pos += 1
                if pos < length and source[pos] in "+-":
                    pos += 1
                while pos < length and source[pos].isdigit():
                    pos += 1
            text = source[start:pos]
            if is_float:
                tokens.append(Token("floatlit", text, line, value=float(text)))
            else:
                tokens.append(Token("intlit", text, line, value=int(text)))
            continue
        if char == "'":
            end = pos + 1
            if end < length and source[end] == "\\":
                end += 1
            end += 1
            if end >= length or source[end] != "'":
                raise LexError("malformed character literal", line)
            raw = source[pos + 1:end]
            value = ord(raw.encode().decode("unicode_escape"))
            tokens.append(Token("charlit", source[pos:end + 1], line,
                                value=value))
            pos = end + 1
            continue
        for punct in _PUNCT:
            if source.startswith(punct, pos):
                tokens.append(Token(punct, punct, line))
                pos += len(punct)
                break
        else:
            raise LexError(f"unexpected character {char!r}", line)
    tokens.append(Token("eof", "", line))
    return tokens
