"""S-expression values, reader, and printer.

Values are Symbol, Keyword, int, str, Pair, and NIL, which is Python's
None.  Symbols and keywords are canonicalized to uppercase by the reader,
so `foo` and `FOO` read as the same symbol.
"""

import re
from itertools import islice
from operator import length_hint


class ProverError(Exception):
    """Base of every error the package raises on bad input or a failed step."""


class ParseError(ProverError):
    pass


class _Name:
    """A named atom, one live atom per name in each class: == and hash are
    identity, so Symbol("X") is Symbol("X") but Symbol("X") != Keyword("X")."""
    __slots__ = ("name",)

    def __new__(cls, name: str):
        atom = cls._atoms.get(name)
        if atom is None:
            atom = cls._atoms[name] = object.__new__(cls)
            atom.name = name
        return atom

    def __reduce__(self):  # a copy is the atom itself
        return self.__class__, (self.name,)


class Symbol(_Name):
    __slots__ = ()
    _atoms = {}

    def __repr__(self):
        return self.name


class Keyword(_Name):
    __slots__ = ()
    _atoms = {}

    def __repr__(self):
        return ":" + self.name


NIL = None


class Pair:
    """A cons cell.  Equality and hashing are structural and walk both the
    car and the cdr direction without recursion: the cdr spine in a loop,
    nested cars on an explicit stack.  So neither long lists nor deep
    nesting cost Python stack depth.  Equality compares each pair of
    cells once, however many paths lead to it, so values that share
    cells and were built apart compare in time linear in the pairs of
    cells they meet, not in their paths.

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
        todo = [(self, other)]  # pairs of cells still to compare
        met = set()  # ids of the pairs of cells whose walk has started
        while todo:
            a, b = todo.pop()
            while isinstance(a, Pair) and isinstance(b, Pair):
                if a is b:
                    break
                ids = (id(a), id(b))
                if ids in met:
                    break
                met.add(ids)
                x, y = a.car, b.car
                if x is not y:
                    if isinstance(x, Pair) and isinstance(y, Pair):
                        todo.append((x, y))
                    elif not x == y:
                        return False
                a, b = a.cdr, b.cdr
            else:
                if not (a is b or a == b):
                    return False
        return True

    def __hash__(self):
        h = self._hash
        if h is None:
            h = _hash_cells(self)
        return h

    def __repr__(self):
        return print_sexpr(self)


def _lists_inside_out(root, finished):
    """Yield root and each unfinished list in its cars, each after the lists
    in its own cars, from one explicit stack: nesting costs no recursion.
    The caller finishes each list it is given before it asks for the next."""
    todo = [root]
    while todo:
        p = todo[-1]
        if finished(p):
            todo.pop()
            continue
        inner, cur = [], p
        while isinstance(cur, Pair):
            if isinstance(cur.car, Pair) and not finished(cur.car):
                inner.append(cur.car)
            cur = cur.cdr
        if inner:
            todo.extend(inner)
        else:
            todo.pop()
            yield p


def _hash_cells(root):
    """Hash root, and first every unhashed list nested in its cars.

    A list's hash is hash((cars, tail)).  The lists in its cars are hashed
    before it, so hashing the cars tuple only reads their kept hashes and
    never recurses.
    """
    for p in _lists_inside_out(root, lambda p: p._hash is not None):
        cars, cur = [], p
        while isinstance(cur, Pair):
            cars.append(cur.car)
            cur = cur.cdr
        p._hash = hash((tuple(cars), cur))
    return root._hash


# SExpr = Symbol | Keyword | int | str | Pair | None (NIL)

QUOTE = Symbol("QUOTE")
QUASIQUOTE = Symbol("QUASIQUOTE")
UNQUOTE = Symbol("UNQUOTE")
UNQUOTE_SPLICING = Symbol("UNQUOTE-SPLICING")
T = Symbol("T")


def is_nil(e) -> bool:
    return e is NIL


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

# A string's body up to its closing quote; an error path also matches it alone
_STRING_BODY = r'[^"\\]*(?:\\["\\][^"\\]*)*'
# One match per token, with the whitespace and `;` comments before it.  Its
# group holds the token: "(", ")", a dot with the reader macro after it, an
# atom (a dotted pair's dot among them), a reader macro, a string with its
# quotes, a '"' that opens no string that closes, or "" at the end of text.
_TOKEN = re.compile(r"""[ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*
                        ([()]|\.['`,]|[^ \t\r\n()"';`,]+|,@|['`,]|"%s"|"|\Z)""" % _STRING_BODY, re.X)
_INTEGER = re.compile(r"[+-]?[0-9]+")
_ESCAPE = re.compile(r'\\(["\\])')
_MACROS = {"'": QUOTE, "`": QUASIQUOTE, ",": UNQUOTE, ",@": UNQUOTE_SPLICING}
_DOT = object()  # in place of the innermost open list: the next form is a dotted tail


def _fail(text: str, pos: int, msg: str):
    raise ParseError("%s (line %d)" % (msg, text.count("\n", 0, pos) + 1))


def _offset(text: str, tokens: list, rest) -> int:
    """Where the token `rest` gave last begins: text's scan, run again up to it."""
    k = len(tokens) - length_hint(rest)
    return next(islice(_TOKEN.finditer(text), k - 1, None)).start(1)


def _atom(tok: str, text: str, tokens: list, rest):
    """The value of an atom's or a string's token, which `rest` gave last."""
    if tok[0] == '"':
        if len(tok) == 1:  # the string does not close
            stop = re.compile(_STRING_BODY).match(text, _offset(text, tokens, rest) + 1).end()
            if stop + 1 < len(text):  # stopped at a backslash
                _fail(text, stop + 1, f"unknown string escape \\{text[stop + 1]}")
            _fail(text, len(text), "unterminated string")
        return _ESCAPE.sub(r"\1", tok[1:-1])
    if _INTEGER.fullmatch(tok):
        return int(tok)
    if tok[0] == ":":
        if len(tok) == 1:
            _fail(text, _offset(text, tokens, rest), "bare colon is not a keyword")
        return Keyword(tok[1:].upper())
    up = tok.upper()
    if up == "NIL":
        return NIL
    if "." in up:
        name = tok.rstrip("'`,")  # a dot is scanned with the reader macro after it
        _fail(text, _offset(text, tokens, rest), f"symbol name may not contain a dot: {name}")
    return Symbol(up)


def parse(text: str):
    """Read all forms in `text`, returning a Python list of SExprs.

    One loop over the tokens of one findall scan.  `items` is the
    innermost open list (its items so far; `forms` at the top level), a
    reader macro waiting for its form, or _DOT after a dotted pair's dot;
    `stack` holds what encloses it, so nesting costs no recursion.  A
    list's cells are built when it closes.  No offsets are kept: an error
    finds its token's place by running the scan again up to it.
    """
    forms, stack = [], []
    items = forms
    tokens = _TOKEN.findall(text)
    rest = iter(tokens)
    seen = {}  # the value of each atom or string token read so far; nil's
    # value NIL is None, which reads as unseen, so each nil is read anew
    for tok in rest:
        if tok == "(":
            stack.append(items)
            items = []
            continue
        if tok == ")":
            if type(items) is not list or not stack:
                _fail(text, _offset(text, tokens, rest), "unexpected )")
            value = NIL
            for x in reversed(items):
                value = Pair(x, value)
            items = stack.pop()
        else:
            value = seen.get(tok)
            if value is None:
                if tok in _MACROS:
                    stack.append(items)
                    items = _MACROS[tok]
                    continue
                if tok == ".":  # a dotted pair's dot
                    if type(items) is not list or not stack:
                        _fail(text, _offset(text, tokens, rest), "symbol name may not contain a dot: .")
                    if not items:
                        _fail(text, _offset(text, tokens, rest), "dotted pair without a car")
                    stack.append(items)
                    items = _DOT
                    continue
                if not tok:  # the end of the text
                    if stack:
                        _fail(text, len(text), "unterminated list" if type(items) is list
                              else "unexpected end of input")
                    return forms
                value = seen[tok] = _atom(tok, text, tokens, rest)
        while type(items) is not list:  # value completes the forms waiting for it
            if items is _DOT:  # value is a dotted tail: its list must close now
                items = stack.pop()
                if next(rest) != ")":
                    _fail(text, _offset(text, tokens, rest), "malformed dotted pair")
                value = from_list(items, value)
            else:
                value = Pair(items, Pair(value, NIL))
            items = stack.pop()
        items.append(value)


def parse_one(text: str):
    forms = parse(text)
    if len(forms) != 1:
        raise ParseError(f"expected exactly one form, got {len(forms)}")
    return forms[0]


# ---------------------------------------------------------------------------
# Printer

def print_sexpr(e) -> str:
    """Canonical printer: uppercase names, single spaces, no line breaks.

    A cell's text is made once and kept on it, so a list element that is
    a cell printed before, or a symbol, costs no call.
    """
    if isinstance(e, Pair):
        text = e._text
        if text is None:
            parts = []
            cur = e
            while isinstance(cur, Pair):
                a = cur.car
                if isinstance(a, Pair):
                    s = a._text
                    parts.append(print_sexpr(a) if s is None else s)
                elif isinstance(a, Symbol):
                    parts.append(a.name)
                else:
                    parts.append(print_sexpr(a))
                cur = cur.cdr
            if cur is NIL:
                text = "(" + " ".join(parts) + ")"
            else:
                text = "(" + " ".join(parts) + " . " + print_sexpr(cur) + ")"
            e._text = text
        return text
    if e is NIL:
        return "NIL"
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Keyword):
        return ":" + e.name
    if isinstance(e, int):
        return str(e)
    return '"' + e.replace("\\", "\\\\").replace('"', '\\"') + '"'


# The most characters of a form an error message shows
ERROR_FORM_CHARS = 1000


def print_capped(e, cap: int = ERROR_FORM_CHARS) -> str:
    """print_sexpr's text of e cut to its first cap characters, followed
    by "... (N more characters)" when there is more.

    Error messages show forms through this.  A form built by rewriting or
    evaluation may share its cells, and its text can then be exponentially
    longer than the form, so the text past the cap is never built: only
    its length is counted, once per cell.
    """
    parts, size = [], 0
    for piece in _pieces(e):
        parts.append(piece)
        size += len(piece)
        if size > cap:
            more = _text_length(e) - cap
            return "".join(parts)[:cap] + f"... ({more} more characters)"
    return "".join(parts)


def _pieces(e):
    """The text of e as print_sexpr writes it, in order, a piece at a time.
    The rest of each open list waits on an explicit stack."""
    rests = []
    while True:
        if isinstance(e, Pair) and e._text is None:
            yield "("
            rests.append(e.cdr)
            e = e.car
            continue
        yield print_sexpr(e)  # an atom, or a cell whose text is kept
        while rests:
            rest = rests.pop()
            if isinstance(rest, Pair):
                yield " "
                rests.append(rest.cdr)
                e = rest.car
                break
            yield ")" if rest is NIL else " . " + print_sexpr(rest) + ")"
        else:
            return


def _text_length(root) -> int:
    """len(print_sexpr(root)), counted without building the text.

    Each cell's length is counted once, after the lists nested in its
    cars, as _hash_cells hashes them.
    """
    if not isinstance(root, Pair) or root._text is not None:
        return len(print_sexpr(root))
    known = {}  # id(cell) -> the length of its text; root keeps the cells alive
    for p in _lists_inside_out(root, lambda p: p._text is not None or id(p) in known):
        n, cur = 1, p  # 1 for "("
        while isinstance(cur, Pair):
            k = known.get(id(cur.car))  # no other live object shares a cell's id
            if k is None:
                k = len(print_sexpr(cur.car))
            n += k + 1  # the space after the element, or the ")"
            cur = cur.cdr
        if cur is not NIL:
            n += 3 + len(print_sexpr(cur))  # " . " and the tail
        known[id(p)] = n
    return known[id(root)]
