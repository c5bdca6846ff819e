import copy
import random
from collections import Counter

import pytest

from hintprover.sexpr import (
    NIL, Keyword, Pair, ParseError, Symbol, T, QUOTE, QUASIQUOTE, UNQUOTE,
    UNQUOTE_SPLICING, from_list, is_nil, is_proper_list, parse, parse_one,
    print_capped, print_sexpr, to_list,
)


def test_atoms():
    assert parse_one("foo") == Symbol("FOO")
    assert parse_one("FOO") == Symbol("FOO")
    assert parse_one(":use") == Keyword("USE")
    assert parse_one("42") == 42
    assert parse_one("-7") == -7
    assert parse_one('"hi there"') == "hi there"
    assert is_nil(parse_one("nil"))
    assert is_nil(parse_one("NIL"))
    assert parse_one("t") == T


def test_atoms_are_interned_per_class():
    assert Symbol("X") is Symbol("X") and parse_one("x") is Symbol("X")
    assert parse_one(":k") is Keyword("K")
    assert Symbol("X") != Keyword("X") and Symbol("X") is not Keyword("X")
    assert copy.copy(Symbol("X")) is Symbol("X") and copy.deepcopy(Keyword("X")) is Keyword("X")
    # pairs read from separate texts are separate cells, still equal by structure
    a, b = parse_one("(f x (g :k) . y)"), parse_one("(F X (G :K) . Y)")
    assert a is not b and a == b and hash(a) == hash(b)


def test_lists_and_dots():
    assert parse_one("(1 2 3)") == from_list([1, 2, 3])
    assert parse_one("(1 . 2)") == Pair(1, 2)
    assert parse_one("(1 2 . 3)") == Pair(1, Pair(2, 3))
    assert parse_one("()") is NIL
    assert to_list(parse_one("(a b)")) == [Symbol("A"), Symbol("B")]


def test_reader_macros():
    assert parse_one("'x") == from_list([QUOTE, Symbol("X")])
    assert parse_one("`x") == from_list([QUASIQUOTE, Symbol("X")])
    assert parse_one(",x") == from_list([UNQUOTE, Symbol("X")])
    assert parse_one(",@x") == from_list([UNQUOTE_SPLICING, Symbol("X")])
    assert parse_one("''x") == from_list([QUOTE, from_list([QUOTE, Symbol("X")])])
    # the classic shape from hint terms
    got = parse_one("`'(:expand (,(hq b)))")
    assert got.car == QUASIQUOTE


def test_comments_and_whitespace():
    forms = parse("; leading\n(a ; inline\n b) ; trailing\n(c)")
    assert len(forms) == 2
    assert forms[0] == from_list([Symbol("A"), Symbol("B")])


def test_string_escapes():
    assert parse_one('"a\\"b"') == 'a"b'
    assert parse_one('"a\\\\b"') == "a\\b"
    assert print_sexpr('a"b') == '"a\\"b"'
    assert print_sexpr("a\\b") == '"a\\\\b"'


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_one("(a b")
    with pytest.raises(ParseError):
        parse_one(")")
    with pytest.raises(ParseError):
        parse_one("(a . )")
    with pytest.raises(ParseError):
        parse_one("(a . b c)")
    with pytest.raises(ParseError):
        parse_one('"unterminated')
    with pytest.raises(ParseError):
        parse_one("a.b")
    with pytest.raises(ParseError):
        parse_one("")


# Each message the reader gives, placed past line 1, with its line number.
PARSE_ERRORS = [
    ("(a)\n'", "unexpected end of input (line 2)"),
    ("(a)\n(b))", "unexpected ) (line 2)"),
    ("(a)\n(b\n c", "unterminated list (line 3)"),
    ("(a)\n( . b)", "dotted pair without a car (line 2)"),
    ("(a\n . b\n c)", "malformed dotted pair (line 3)"),
    ("(a . b\n", "malformed dotted pair (line 2)"),
    ('(a)\n"a\\xb"', "unknown string escape \\x (line 2)"),
    ('(a)\n"abc', "unterminated string (line 2)"),
    ('(a)\n"abc\\"', "unterminated string (line 2)"),
    ('(a)\n"abc\\', "unterminated string (line 2)"),
    ("(a\n :)", "bare colon is not a keyword (line 2)"),
    ("(a)\n(a.b)", "symbol name may not contain a dot: a.b (line 2)"),
    # a dot followed by a reader macro is not a dotted pair's dot
    ("(a)\n(a .'b)", "symbol name may not contain a dot: . (line 2)"),
    ("(a)\n(a .`b)", "symbol name may not contain a dot: . (line 2)"),
    ("(a)\n(a .,b)", "symbol name may not contain a dot: . (line 2)"),
    ("(a)\n(a .,@b)", "symbol name may not contain a dot: . (line 2)"),
    # the first token, the last, and a line after CR LF line ends
    ("\n\n)(a)", "unexpected ) (line 3)"),
    ("(a)\n(b c)\n:", "bare colon is not a keyword (line 3)"),
    ("(a)\r\n(b . c d)", "malformed dotted pair (line 2)"),
    ("(a)\r\n\r\n(b\r\n :)", "bare colon is not a keyword (line 4)"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS)
def test_parse_error_messages_and_lines(text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


def test_deep_nesting_reads_without_recursion():
    n = 100_000
    (form,) = parse("(" * n + "x" + ")" * n)
    depth = 0
    while isinstance(form, Pair):
        assert form.cdr is NIL
        form, depth = form.car, depth + 1
    assert (form, depth) == (Symbol("X"), n)
    (form,) = parse("'" * n + "x")
    depth = 0
    while isinstance(form, Pair):
        assert form.car == QUOTE
        form, depth = form.cdr.car, depth + 1
    assert (form, depth) == (Symbol("X"), n)


def _ref_parse(text: str):
    """The reader's plain definition: recursive descent over characters,
    with each error's message and line."""
    pos, end = 0, len(text)

    def fail(at, msg):
        raise ParseError(f"{msg} (line {text.count(chr(10), 0, at) + 1})")

    def skip():  # whitespace and ; comments
        nonlocal pos
        while pos < end and text[pos] in " \t\r\n;":
            if text[pos] == ";":
                while pos < end and text[pos] != "\n":
                    pos += 1
            else:
                pos += 1

    def atom_end():  # where the atom starting at pos ends
        stop = pos
        while stop < end and text[stop] not in " \t\r\n()\"';`,":
            stop += 1
        return stop

    def lone_dot():  # a dotted pair's dot: no reader macro right after it
        return (text[pos] == "." and atom_end() == pos + 1
                and not text.startswith(("'", "`", ","), pos + 1))

    def wanted():  # a form a reader macro or a dotted pair's dot waits for
        skip()
        if pos == end:
            fail(end, "unexpected end of input")
        return form()

    def form():
        nonlocal pos
        c = text[pos]
        if c == ")":
            fail(pos, "unexpected )")
        if c == "(":
            pos += 1
            items = []
            while True:
                skip()
                if pos == end:
                    fail(end, "unterminated list")
                if text[pos] == ")":
                    pos += 1
                    return from_list(items)
                if lone_dot():
                    if not items:
                        fail(pos, "dotted pair without a car")
                    pos += 1
                    tail = wanted()
                    skip()
                    if pos == end or text[pos] != ")":
                        fail(pos, "malformed dotted pair")
                    pos += 1
                    return from_list(items, tail)
                items.append(form())
        if c in "'`,":
            macro = {"'": QUOTE, "`": QUASIQUOTE, ",": UNQUOTE}[c]
            pos += 1
            if c == "," and text.startswith("@", pos):
                macro, pos = UNQUOTE_SPLICING, pos + 1
            return from_list([macro, wanted()])
        if c == '"':
            chars, i = [], pos + 1
            while i < end and text[i] != '"':
                if text[i] == "\\" and i + 1 < end:
                    if text[i + 1] not in '"\\':
                        fail(i + 1, f"unknown string escape \\{text[i + 1]}")
                    i += 1
                chars.append(text[i])
                i += 1
            if i == end:
                fail(end, "unterminated string")
            pos = i + 1
            return "".join(chars)
        stop = atom_end()
        tok, pos = text[pos:stop], stop
        digits = tok[1:] if tok[0] in "+-" else tok
        if digits and all(d in "0123456789" for d in digits):
            return int(tok)
        if tok == ":":
            fail(stop, "bare colon is not a keyword")
        if tok[0] == ":":
            return Keyword(tok[1:].upper())
        if tok.upper() == "NIL":
            return NIL
        if "." in tok:
            fail(stop, f"symbol name may not contain a dot: {tok}")
        return Symbol(tok.upper())

    forms = []
    while True:
        skip()
        if pos == end:
            return forms
        forms.append(form())


# What reader texts are made of: each kind of token, comments holding
# parens and quotes, strings with good and bad escapes, and line ends.
_READER_PIECES = [
    "(", ")", "(", ")", "(", ")", ".", ". ", "'", "`", ",", ",@", ";c(\")'\n", "; ;)\"",
    '"s"', '""', '"a\\"b"', '"a\\\\"', '"bad\\q"', '"', '"\\', '"two\nlines"',
    ":", ":k", ":a.b", "a", "foo", "b.c", ".5", "a.", "nil", "NiL", "12", "-3", "+7", "+", "x1",
    "\r\n", "\n", " ", "\t", "\r", "@",
]


def _reader_text(rng: random.Random) -> str:
    """A random text: a printed form with pieces dropped in, or pieces alone."""
    if rng.random() < 0.5:
        text = print_sexpr(_random_sexpr(rng, 3))
        for _ in range(rng.randrange(3)):
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(_READER_PIECES) + text[at:]
        return text
    out = []
    for _ in range(rng.randrange(1, 14)):
        out.append(rng.choice(_READER_PIECES))
        if rng.random() < 0.5:
            out.append(rng.choice([" ", "\n", "\r\n", "\t"]))
    return "".join(out)


def _outcome(read, text):
    try:
        return "forms", read(text)
    except ParseError as e:
        return "error", str(e)


def test_reader_agrees_with_its_plain_definition():
    rng = random.Random(2028)
    kinds = Counter()
    for _ in range(3000):
        text = _reader_text(rng)
        got, want = _outcome(parse, text), _outcome(_ref_parse, text)
        assert got == want, text
        kinds[got[0] if got[0] == "forms" else " ".join(got[1].split()[:3])] += 1
    assert kinds["forms"] > 500 and len(kinds) == 10, kinds  # values, and each of 9 messages
    for text, message in PARSE_ERRORS:
        assert _outcome(_ref_parse, text) == ("error", message)


def test_nil_is_one_object():
    assert copy.copy(NIL) is NIL and copy.deepcopy(NIL) is NIL
    assert copy.deepcopy(from_list([1], NIL)).cdr is NIL


def test_print_canonical():
    assert print_sexpr(parse_one("( a   b\n c )")) == "(A B C)"
    assert print_sexpr(parse_one("'x")) == "(QUOTE X)"
    assert print_sexpr(Pair(1, 2)) == "(1 . 2)"
    assert print_sexpr(NIL) == "NIL"
    assert print_sexpr(Keyword("IN-THEORY")) == ":IN-THEORY"


def test_proper_list_predicates():
    assert is_proper_list(parse_one("(1 2 3)"))
    assert is_proper_list(NIL)
    assert not is_proper_list(Pair(1, 2))
    with pytest.raises(ParseError):
        to_list(Pair(1, 2))


def _random_sexpr(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        kind = rng.randrange(5)
        if kind == 0:
            return Symbol(rng.choice(["A", "B", "FOO", "BAR-BAZ", "X1"]))
        if kind == 1:
            return rng.randrange(-50, 50)
        if kind == 2:
            return NIL
        if kind == 3:
            return Keyword(rng.choice(["USE", "EXPAND", "K"]))
        return rng.choice(["", "hi", 'quo"te', "back\\slash", "two words"])
    n = rng.randrange(0, 4)
    items = [_random_sexpr(rng, depth - 1) for _ in range(n)]
    if rng.random() < 0.2:
        # dotted tail; keep it an atom that can't be mistaken for a list
        return from_list(items, rng.randrange(100)) if items else rng.randrange(100)
    return from_list(items)


def test_print_parse_round_trip():
    rng = random.Random(1807)
    for _ in range(500):
        e = _random_sexpr(rng, 4)
        text = print_sexpr(e)
        back = parse_one(text)
        assert back == e or (is_nil(back) and is_nil(e)), text
        # printing is a canonical form: a second trip changes nothing
        assert print_sexpr(back) == text


def test_pair_equality_and_hash_are_structural():
    cases = [
        ([1, 2, 3], NIL),
        ([Symbol("A"), from_list([1, 2]), "s"], NIL),
        ([1, 2], 3),
        ([from_list([1], 2)], Symbol("TAIL")),
    ]
    for items, tail in cases:
        a, b = from_list(items, tail), from_list(list(items), tail)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert from_list([1, 2], 3) != from_list([1, 2], 4)
    assert from_list([1, 2], 3) != from_list([1, 2])
    assert from_list([1, 2]) != from_list([1, 2, 3])
    assert from_list([1, 2, 3]) != from_list([1, 2])
    assert from_list([1, 2]) != from_list([1, 3])
    assert Pair(1, 2) != 1 and 1 != Pair(1, 2)
    assert len({from_list([1, 2], 3), from_list([1, 2], 3), from_list([1, 2])}) == 2


class _Hashed:
    """Stands for a nested list in a cars tuple: hashes to the given value."""

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def _recursive_hash(e):
    """A list's hash by its plain recursive definition: hash((cars, tail))."""
    cars = []
    while isinstance(e, Pair):
        cars.append(_Hashed(_recursive_hash(e.car)) if isinstance(e.car, Pair) else e.car)
        e = e.cdr
    return hash((tuple(cars), e))


def test_pair_hash_keeps_its_recursive_definition():
    rng = random.Random(14)
    shared = from_list([1, from_list([2])])
    for _ in range(300):
        e = _random_sexpr(rng, 5)
        if isinstance(e, Pair):
            assert hash(e) == _recursive_hash(e)
    e = Pair(shared, Pair(shared, from_list([shared], 3)))
    assert hash(e) == _recursive_hash(e)


def test_deep_car_nesting_compares_and_hashes_without_recursion():
    def nested(depth, leaf):
        e = leaf
        for _ in range(depth):
            e = Pair(e, NIL)
        return e

    n = 20_000
    a, b = nested(n, Symbol("A")), nested(n, Symbol("A"))
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != nested(n, Symbol("B")) and a != nested(n - 1, Symbol("A"))
    assert a == parse_one("(" * n + "a" + ")" * n)
    assert len({a, b, nested(n, 1)}) == 2


def test_long_lists_compare_and_hash_without_recursion():
    n = 10_000
    a, b = from_list(list(range(n))), from_list(list(range(n)))
    assert a == b
    assert hash(a) == hash(b)
    assert a != from_list(list(range(n - 1)) + [-1])
    assert a != from_list(list(range(n)), 0)


def test_capped_print_elides_past_the_cap():
    short = parse_one("(a (b . c) \"s\" :k 7)")
    assert print_capped(short) == print_sexpr(short)
    assert print_capped(short, len(print_sexpr(short))) == print_sexpr(short)
    rng = random.Random(21)
    for _ in range(300):
        e = _random_sexpr(rng, 5)
        if rng.random() < 0.3:
            e = from_list([e, e, Pair(e, e)])
        cap = rng.randrange(40)
        if rng.random() < 0.5:
            print_sexpr(e)  # cells whose text is kept print the same
        got, full = print_capped(e, cap), print_sexpr(e)
        if len(full) <= cap:
            assert got == full
        else:
            assert got == f"{full[:cap]}... ({len(full) - cap} more characters)"


def test_capped_print_never_builds_a_shared_form_s_text():
    # x0 = (A), x(i+1) = (xi xi): 2^n leaves in n + 1 cells, and a text of
    # 3 * 2^(n+1) - 3 characters, too long to build at n = 200.
    e, n = from_list([Symbol("A")]), 200
    for _ in range(n):
        e = from_list([e, e])
    got = print_capped(e, 30)
    more = 3 * 2 ** (n + 1) - 3 - 30
    assert got == "(" * 30 + f"... ({more} more characters)"
    deep = parse_one("(" * 5000 + "a" + ")" * 5000)
    assert print_capped(deep, 4) == f"((((... ({10001 - 4} more characters)"
