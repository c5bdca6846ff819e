"""Interned terms and the caches kept on them.

Each cached rendering, free-variable list, split search and constructor
call is checked against a plain, uncached reference kept here.
"""

import gc
import random
import time

import pytest
from hypothesis import given, seed, settings, strategies as st

from hintprover import term
from hintprover.sexpr import (
    NIL, Pair, QUOTE, Keyword, Symbol, T, from_list, is_nil, parse_one, print_sexpr,
)
from hintprover.term import (
    App, Const, LamApp, TranslateError, Var, free_vars, make_lamapp, term_text, translate,
    unparse,
)
from hintprover.world import World
from hintprover.hints import clause_sexpr
from hintprover.termhint import SEQ_FN, install_prelude
from hintprover.rewrite import find_split_test
from hintprover.cli import format_report, main, render_event, run

from test_rewrite import _CORPUS, _random_if_term, _random_rw_term, _waterfall_file
from test_termhint import _random_hint_term


def evfile(tmp_path, text, name="events.lisp"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# Plain references: no interning, no caches

def _plain_unparse(t):
    if isinstance(t, Var):
        return Symbol(t.name)
    if isinstance(t, Const):
        return from_list([QUOTE, t.value])
    if isinstance(t, App):
        return from_list([Symbol(t.fn)] + [_plain_unparse(a) for a in t.args])
    lam = from_list([Symbol("LAMBDA"), from_list([Symbol(n) for n in t.formals]),
                     _plain_unparse(t.body)])
    return Pair(lam, from_list([_plain_unparse(a) for a in t.actuals]))


def _plain_print(e):
    if is_nil(e):
        return "NIL"
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Keyword):
        return ":" + e.name
    if isinstance(e, int):
        return str(e)
    if isinstance(e, str):
        return '"' + e.replace("\\", "\\\\").replace('"', '\\"') + '"'
    parts = []
    while isinstance(e, Pair):
        parts.append(_plain_print(e.car))
        e = e.cdr
    tail = "" if is_nil(e) else " . " + _plain_print(e)
    return "(" + " ".join(parts) + tail + ")"


def _plain_free_vars(t, bound=frozenset(), out=None):
    out = [] if out is None else out
    if isinstance(t, Var):
        if t.name not in bound and t.name not in out:
            out.append(t.name)
    elif isinstance(t, App):
        for a in t.args:
            _plain_free_vars(a, bound, out)
    elif isinstance(t, LamApp):
        for a in t.actuals:
            _plain_free_vars(a, bound, out)
        _plain_free_vars(t.body, bound | set(t.formals), out)
    return out


def _plain_find_split_test(t):
    """Innermost leftmost IF with a non-constant test outside HIDE, uncached."""
    if isinstance(t, App) and t.fn != "HIDE":
        for a in t.args:
            r = _plain_find_split_test(a)
            if r is not None:
                return r
        if t.fn == "IF" and not isinstance(t.args[0], Const):
            return t
    return None


def _subterms(t):
    yield t
    if isinstance(t, App):
        kids = t.args
    elif isinstance(t, LamApp):
        kids = t.actuals + (t.body,)
    else:
        kids = ()
    for a in kids:
        yield from _subterms(a)


def _rebuild(t):
    """t constructed again from scratch, bottom up."""
    if isinstance(t, Var):
        return Var(str(t.name))
    if isinstance(t, Const):
        return Const(t.value)
    if isinstance(t, App):
        return App(t.fn, tuple(_rebuild(a) for a in t.args))
    return LamApp(t.formals, _rebuild(t.body), tuple(_rebuild(a) for a in t.actuals))


def _random_term(rng):
    """A term from one of the acceptance generators, or one under a lambda."""
    kind = rng.randrange(4)
    if kind == 0:
        t = _random_rw_term(rng, 4)
    elif kind == 1:
        t = _random_if_term(rng, 4)
    elif kind == 2:
        t = _random_hint_term(rng, 4, proper=rng.random() < 0.5)
    else:
        inner = _random_rw_term(rng, 3)
        formals = rng.sample(["X", "Y", "Z"], rng.randrange(3))
        actuals = [_random_rw_term(rng, 2) for _ in formals]
        if rng.random() < 0.5:
            t = make_lamapp(formals, inner, actuals)
        else:  # left open, so the body's other variables stay free
            t = LamApp(tuple(formals), inner, tuple(actuals))
    return t


@seed(8)
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cached_forms_match_plain_references(n):
    t = _random_term(random.Random(n))
    assert _random_term(random.Random(n)) is t
    assert _rebuild(t) is t
    want_text = _plain_print(_plain_unparse(t))
    want_vars = tuple(_plain_free_vars(t))
    want_split = _plain_find_split_test(t)
    for _ in range(2):  # cold, then with every cache on t and its subterms warm
        assert print_sexpr(unparse(t)) == want_text
        assert free_vars(t) == want_vars
        assert find_split_test(t) is want_split
    assert unparse(t) is unparse(t)
    for u in _subterms(t):  # some answers cached by the walks above, some not
        assert find_split_test(u) is _plain_find_split_test(u)


# ---------------------------------------------------------------------------
# The table holds only live terms

def _named(fragment):
    """Live App and Var nodes whose name contains fragment."""
    live = [r() for r in list(term._TABLE.values())]
    return [t for t in live
            if t is not None and fragment in getattr(t, "fn", getattr(t, "name", ""))]


def test_intern_table_drops_terms_once_a_run_is_released(tmp_path):
    path = evfile(tmp_path, """
      (defstub zq-stub 1)
      (defun zq-def (zq-v) (cons (zq-stub zq-v) zq-v))
      (defthm zq-thm (equal (zq-def zq-w) (cons (zq-stub zq-w) zq-w)))
      (defthm zq-bad (equal (zq-def zq-w) zq-w) :rule-classes nil)
    """)
    gc.collect()
    before = len(term._TABLE)
    report = run([path])
    text = format_report(report, trace=True, checkpoints=True)
    assert "THEOREM ZQ-THM PROVED" in text and "CHECKPOINT" in text
    assert _named("ZQ-")
    del report
    gc.collect()
    assert _named("ZQ-") == []
    assert len(term._TABLE) <= before


def test_a_late_callback_leaves_the_node_filed_after_it():
    key = ("ZQ-STALE", ())
    t = App(*key)
    old = term._TABLE[key]
    callback = old.__callback__
    del t
    gc.collect()
    assert key not in term._TABLE
    t = App(*key)
    new = term._TABLE[key]
    assert new is not old and new() is t
    callback(old)  # the dead node's callback, run once more after the new filing
    assert term._TABLE[key] is new
    assert App(*key) is t


# ---------------------------------------------------------------------------
# Every node is built unguarded, then sealed

_FIELDS = {Var: ("name",), Const: ("value",), App: ("fn", "args", "has_lambda"),
           LamApp: ("formals", "body", "actuals")}


def test_every_constructor_returns_a_sealed_node():
    x = Var("ZS-X")
    body = App("ZS-F", (x, App("IF", (x, x, Const(1)))))
    nodes = [x, Const(from_list([1, Symbol("ZS")])), body,
             LamApp(("ZS-X",), body, (Const(2),))]
    for t in nodes:
        term_text(t), unparse(t), free_vars(t)  # fill the lazy caches first
        assert type(t) in _FIELDS, type(t)
        for name in _FIELDS[type(t)] + ("_sexpr", "_text", "_fv", "_split", "__class__"):
            before = getattr(t, name)
            with pytest.raises(AttributeError):
                setattr(t, name, None)
            with pytest.raises(AttributeError):
                delattr(t, name)
            assert getattr(t, name) is before
    assert find_split_test(body) is body.args[1]


def test_the_table_holds_only_sealed_nodes_after_a_corpus_run():
    report = run([str(p) for p in _CORPUS])
    format_report(report, trace=True, checkpoints=True)
    live = [t for t in (r() for r in list(term._TABLE.values())) if t is not None]
    assert len(live) > 200  # the report keeps its events' terms: 294 counted
    assert {type(t) for t in live} == set(_FIELDS)
    del report


# ---------------------------------------------------------------------------
# Rendering, and translating a rendering back

def _ref_print(t):
    """The text of a term, printed straight from the term."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return "(QUOTE " + _plain_print(t.value) + ")"
    if isinstance(t, App):
        return "(" + " ".join([t.fn] + [_ref_print(a) for a in t.args]) + ")"
    lam = "(LAMBDA (" + " ".join(t.formals) + ") " + _ref_print(t.body) + ")"
    return "(" + " ".join([lam] + [_ref_print(a) for a in t.actuals]) + ")"


def _random_value(rng, depth):
    """A quoted value: atoms, strings with quotes and backslashes, conses
    with proper or dotted tails."""
    k = rng.randrange(8 if depth else 6)
    if k == 0:
        return rng.choice(['say "hi"', "back\\slash", 'a\\"b', "", "plain"])
    if k == 1:
        return rng.randrange(-1000, 1000)
    if k == 2:
        return Keyword(rng.choice(["USE", "EXPAND", "K"]))
    if k == 3:
        return rng.choice([NIL, T])
    if k in (4, 5):
        return Symbol(rng.choice(["A", "B", "FOO-BAR"]))
    items = [_random_value(rng, depth - 1) for _ in range(rng.randrange(1, 4))]
    tail = _random_value(rng, 0) if k == 6 else NIL
    return from_list(items, tail)


# Functions the random terms call, over a world that knows them
_FNS = {"CONS": 2, "CAR": 1, "EQUAL": 2, "IF": 3, "NOT": 1, "BINARY-APPEND": 2,
        "HIDE": 1, "HQ": 1, "ZQ-F": 1, "ZQ-G": 3, "ZQ-K": 0}


def _round_trip_world():
    w = World()
    install_prelude(w)
    w.add_stub("ZQ-F", 1)
    w.add_stub("ZQ-G", 3)
    w.add_stub("ZQ-K", 0)
    return w


def _random_lambda_free(rng, depth):
    k = rng.randrange(5 if depth else 2)
    if k == 0:
        return Var(rng.choice(["X", "Y", "Z"]))
    if k == 1:
        return Const(_random_value(rng, 2))
    if k == 2:  # TERMHINT-SEQ is also a macro, which keeps its second argument hidden
        return App(SEQ_FN, (_random_lambda_free(rng, depth - 1),
                            App("HIDE", (_random_lambda_free(rng, depth - 1),))))
    fn = rng.choice(sorted(_FNS))
    return App(fn, tuple(_random_lambda_free(rng, depth - 1) for _ in range(_FNS[fn])))


def _random_printed_term(rng, depth):
    if depth and rng.random() < 0.2:
        formals = rng.sample(["X", "Y", "Z"], rng.randrange(1, 3))
        return LamApp(tuple(formals), _random_printed_term(rng, depth - 1),
                      tuple(_random_printed_term(rng, depth - 1) for _ in formals))
    t = _random_lambda_free(rng, min(depth, 1))
    if depth and isinstance(t, App):
        t = App(t.fn, tuple(_random_printed_term(rng, depth - 1) for _ in t.args))
    return t


@seed(14)
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_printed_rendering_matches_the_term(n):
    t = _random_printed_term(random.Random(n), 4)
    want = _ref_print(t)
    assert print_sexpr(unparse(t)) == want
    assert print_sexpr(unparse(t)) == want  # every text kept from the first print


@seed(15)
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_rendering_translates_back_to_its_term(n):
    w = _round_trip_world()
    t = _random_lambda_free(random.Random(n), 4)
    assert translate(unparse(t), w) is t
    assert translate(parse_one(print_sexpr(unparse(t))), w) is t


def test_a_rendering_with_an_unknown_function_does_not_translate():
    t = App("ZQ-UNKNOWN", (Var("X"),))
    with pytest.raises(TranslateError, match="unknown function: ZQ-UNKNOWN"):
        translate(unparse(t), _round_trip_world())


# ---------------------------------------------------------------------------
# Text printed straight from terms

def _random_shared(rng, levels):
    """A lambda-free term whose nodes are shared: each new call takes its
    arguments from the nodes built so far, ZQ-K's calls taking none."""
    built = [_random_lambda_free(rng, 2) for _ in range(3)]
    for _ in range(levels):
        fn = rng.choice(sorted(_FNS))
        built.append(App(fn, tuple(rng.choice(built) for _ in range(_FNS[fn]))))
    return built[-1]


@seed(16)
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_term_text_is_the_printed_rendering(n):
    # shared nodes, generated lambda-free terms, and terms under a lambda
    rng = random.Random(n)
    make = rng.choice([_random_shared, _random_lambda_free, _random_printed_term])
    t = make(rng, 8 if make is _random_shared else 4)
    text = term_text(t)  # before unparse, so no rendering of t is kept yet
    assert text == print_sexpr(unparse(t)) == _ref_print(t)
    assert term_text(t) is text
    for u in _subterms(t):
        assert term_text(u) == print_sexpr(unparse(u))


def test_report_prints_the_s_expression_view_of_each_payload(tmp_path):
    # The corpus, seeded use-termhint files (HQ, TERMHINT-SEQ, MARK-CLAUSE)
    # and a goal that simplifies to the empty clause: each SIMPLIFY, SPLIT
    # and CHECKPOINT line shows the text of render_event's s-expression,
    # and each checkpoint body the text of the goal's CLAUSE.
    rng = random.Random(2417)
    paths = [str(p) for p in _CORPUS]
    paths.append(evfile(tmp_path, "(defthm empty (equal 1 2) :rule-classes nil)"))
    for i in range(6):
        paths.append(evfile(tmp_path, _waterfall_file(rng), f"gen-{i}.lisp"))
    report = run(paths)
    text = format_report(report, trace=True, checkpoints=True)  # before any reference

    lines = iter(text.splitlines())
    seen = set()
    for f in report.files:
        assert next(lines) == f"FILE {f.path}"
        for t in f.theorems:
            for goal, kind, data in t.events:
                assert next(lines) == f"EVENT {goal} {kind} {print_sexpr(render_event(kind, data))}"
                seen.add(kind)
            assert next(lines).startswith(f"THEOREM {t.name} ")
            for goal, _, clause in [e for e in t.events if e[1] == "CHECKPOINT"]:
                assert next(lines).startswith(f"CHECKPOINT {goal}")
                assert next(lines) == "  " + print_sexpr(clause_sexpr(clause))
    assert next(lines).startswith("PROVED ")
    assert {"SIMPLIFY", "SPLIT", "CHECKPOINT"} <= seen
    assert "[CASE-" in text  # a mark-clause label
    assert "SIMPLIFY (STABLE NIL)" in text


# ---------------------------------------------------------------------------
# Sizes that were cubic before free variables were cached

def test_long_let_star_translates_and_proves_fast(tmp_path, capsys):
    n = 400
    bindings = " ".join(f"(v{i} (cons v{i + 1} v{i + 1}))" for i in range(n))
    path = evfile(tmp_path, f"""
      (defthm lets (equal (let* ({bindings}) v0) (let* ({bindings}) v0))
        :rule-classes nil)
    """)
    t0 = time.perf_counter()
    assert main([path]) == 0
    assert time.perf_counter() - t0 < 30  # about 0.5 s here; minutes when cubic
    assert "THEOREM LETS PROVED steps=0" in capsys.readouterr().out
