"""S-expression values, reader, and printer.

Values are Symbol, Keyword, int, str, Pair, and the NIL singleton.
Symbols and keywords are canonicalized to uppercase by the reader,
so `foo` and `FOO` read as the same symbol.
"""

from __future__ import annotations

from dataclasses import dataclass


class ProverError(Exception):
    """Base of every error the package raises on bad input or a failed step."""


class ParseError(ProverError):
    pass


@dataclass(frozen=True)
class Symbol:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Keyword:
    name: str

    def __repr__(self):
        return ":" + self.name


class Nil:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NIL"


NIL = Nil()


class Pair:
    """A cons cell.  Equality and hashing are structural and walk the cdr
    spine in a loop, so long lists cost no recursion depth.

    A cell is never changed after construction: its hash and its printed
    text (print_sexpr) are computed on first use and kept on the cell.
    """

    __slots__ = ("car", "cdr", "_hash", "_text")

    def __init__(self, car, cdr):
        self.car = car
        self.cdr = cdr
        self._hash = None
        self._text = None

    def __eq__(self, other):
        if not isinstance(other, Pair):
            return NotImplemented
        a, b = self, other
        while isinstance(a, Pair) and isinstance(b, Pair):
            if a is b:
                return True
            if a.car is not b.car and not a.car == b.car:
                return False
            a, b = a.cdr, b.cdr
        return a is b or a == b

    def __hash__(self):
        h = self._hash
        if h is None:
            cars, cur = [], self
            while isinstance(cur, Pair):
                cars.append(cur.car)
                cur = cur.cdr
            h = self._hash = hash((tuple(cars), cur))
        return h

    def __repr__(self):
        return print_sexpr(self)


# SExpr = Symbol | Keyword | int | str | Pair | Nil

QUOTE = Symbol("QUOTE")
QUASIQUOTE = Symbol("QUASIQUOTE")
UNQUOTE = Symbol("UNQUOTE")
UNQUOTE_SPLICING = Symbol("UNQUOTE-SPLICING")
T = Symbol("T")


def is_nil(e) -> bool:
    return e is NIL or isinstance(e, Nil)


def from_list(items, tail=NIL):
    """Build a chain of Pairs from a Python list, with an optional dotted tail."""
    out = tail
    for x in reversed(items):
        out = Pair(x, out)
    return out


def to_list(e):
    """Flatten a proper list into a Python list; ParseError on a dotted tail."""
    out = []
    while isinstance(e, Pair):
        out.append(e.car)
        e = e.cdr
    if not is_nil(e):
        raise ParseError("improper list where a proper list was expected")
    return out


def is_proper_list(e) -> bool:
    while isinstance(e, Pair):
        e = e.cdr
    return is_nil(e)


# ---------------------------------------------------------------------------
# Reader

_DELIMS = "()\"';`,"
_INT_CHARS = set("0123456789")


def _is_integer_token(tok: str) -> bool:
    body = tok[1:] if tok[0] in "+-" else tok
    return bool(body) and all(c in _INT_CHARS for c in body)


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        line = self.text.count("\n", 0, self.pos) + 1
        raise ParseError(f"{msg} (line {line})")

    def skip_space(self):
        t, n = self.text, len(self.text)
        while self.pos < n:
            c = t[self.pos]
            if c in " \t\r\n":
                self.pos += 1
            elif c == ";":
                while self.pos < n and t[self.pos] != "\n":
                    self.pos += 1
            else:
                return

    def at_end(self) -> bool:
        self.skip_space()
        return self.pos >= len(self.text)

    def read(self):
        self.skip_space()
        if self.pos >= len(self.text):
            self.error("unexpected end of input")
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            return self.read_list()
        if c == ")":
            self.error("unexpected )")
        if c == "'":
            self.pos += 1
            return Pair(QUOTE, Pair(self.read(), NIL))
        if c == "`":
            self.pos += 1
            return Pair(QUASIQUOTE, Pair(self.read(), NIL))
        if c == ",":
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] == "@":
                self.pos += 1
                return Pair(UNQUOTE_SPLICING, Pair(self.read(), NIL))
            return Pair(UNQUOTE, Pair(self.read(), NIL))
        if c == '"':
            return self.read_string()
        return self.read_atom()

    def read_list(self):
        items = []
        while True:
            self.skip_space()
            if self.pos >= len(self.text):
                self.error("unterminated list")
            if self.text[self.pos] == ")":
                self.pos += 1
                return from_list(items)
            if self._at_dot():
                if not items:
                    self.error("dotted pair without a car")
                self.pos += 1
                tail = self.read()
                self.skip_space()
                if self.pos >= len(self.text) or self.text[self.pos] != ")":
                    self.error("malformed dotted pair")
                self.pos += 1
                return from_list(items, tail)
            items.append(self.read())

    def _at_dot(self) -> bool:
        if self.text[self.pos] != ".":
            return False
        nxt = self.pos + 1
        return nxt >= len(self.text) or self.text[nxt] in " \t\r\n()\";"

    def read_string(self):
        self.pos += 1
        out = []
        t, n = self.text, len(self.text)
        while self.pos < n:
            c = t[self.pos]
            if c == '"':
                self.pos += 1
                return "".join(out)
            if c == "\\":
                self.pos += 1
                if self.pos >= n:
                    break
                esc = t[self.pos]
                if esc not in '"\\':
                    self.error(f"unknown string escape \\{esc}")
                out.append(esc)
                self.pos += 1
            else:
                out.append(c)
                self.pos += 1
        self.error("unterminated string")

    def read_atom(self):
        start = self.pos
        t, n = self.text, len(self.text)
        while self.pos < n and t[self.pos] not in " \t\r\n" + _DELIMS:
            self.pos += 1
        tok = t[start:self.pos]
        if not tok:
            self.error("empty token")
        if _is_integer_token(tok):
            return int(tok)
        if tok.startswith(":"):
            if len(tok) == 1:
                self.error("bare colon is not a keyword")
            return Keyword(tok[1:].upper())
        up = tok.upper()
        if up == "NIL":
            return NIL
        if "." in up:
            self.error(f"symbol name may not contain a dot: {tok}")
        return Symbol(up)


def parse(text: str):
    """Read all forms in `text`, returning a Python list of SExprs."""
    r = _Reader(text)
    forms = []
    while not r.at_end():
        forms.append(r.read())
    return forms


def parse_one(text: str):
    forms = parse(text)
    if len(forms) != 1:
        raise ParseError(f"expected exactly one form, got {len(forms)}")
    return forms[0]


# ---------------------------------------------------------------------------
# Printer

def _escape_string(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def print_sexpr(e) -> str:
    """Canonical printer: uppercase names, single spaces, no line breaks."""
    if is_nil(e):
        return "NIL"
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Keyword):
        return ":" + e.name
    if isinstance(e, int):
        return str(e)
    if isinstance(e, str):
        return '"' + _escape_string(e) + '"'
    if isinstance(e, Pair):
        text = e._text
        if text is None:
            parts = []
            cur = e
            while isinstance(cur, Pair):
                parts.append(print_sexpr(cur.car))
                cur = cur.cdr
            if is_nil(cur):
                text = "(" + " ".join(parts) + ")"
            else:
                text = "(" + " ".join(parts) + " . " + print_sexpr(cur) + ")"
            e._text = text
        return text
    raise TypeError(f"not an s-expression: {e!r}")
