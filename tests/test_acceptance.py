"""Acceptance gate: one test per shipped criterion, each printing a
CRITERION n (slug): PASS/FAIL line (visible under pytest -s)."""

import functools
import itertools
import random
from pathlib import Path

from hintprover.sexpr import parse, parse_one, print_sexpr, to_list
from hintprover.term import App, translate, beta_reduce, unparse
from hintprover.world import World
from hintprover.rewrite import (
    RewriteContext, StepBudget, negate_term, rewrite_term, simplify_clause, split_ifs,
)
from hintprover.hints import GoalCtx, Hint, clausify, render_hint
from hintprover.termhint import (
    DROP_PROCESSOR, HYP_FN, clause_labels, find_hint, install_prelude,
    keyword_fixup, process_termhint,
)
from hintprover.cli import EVENT_HANDLERS, _do_defun, format_report, render_event, run

from test_term import (
    _interpolate, ground_eval, _random_template, _random_value as _random_qq_value,
)
from test_termhint import _freeze_hq, _random_hint_term, _random_value
from test_rewrite import _clause_truth, _count_ifs, _random_if_term, _random_rw_term

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _without_processor(h):
    """h with no clause processor, so its rendering shows only the extracted keywords."""
    return Hint(h.use, h.expand, h.enable, h.disable, None, h.replacement, h.display)


ALL_FILES = sorted(str(p) for p in CORPUS.glob("*.lisp"))


def criterion(n, slug):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {n} ({slug}): FAIL")
                raise
            print(f"CRITERION {n} ({slug}): PASS")
        return wrapper
    return deco


def _theorem(report, name):
    for f in report.files:
        for t in f.theorems:
            if t.name == name:
                return t
    raise AssertionError(f"theorem {name} not in report")


def _hints_fired(t):
    return [(goal, print_sexpr(render_event(kind, data))) for goal, kind, data in t.events
            if kind == "HINT"]


def _checkpoints(t):
    """The clause of each CHECKPOINT event, in order."""
    return [clause for _, kind, clause in t.events if kind == "CHECKPOINT"]


_PIPELINE_HINT_FORM = """
(let* ((f (foo a b))
       (g (bar f c))
       (h (baz f d))
       (i (fa g h)))
  (if (consp g)
      `'(:use ((:instance my-lemma
                (x ,(hq g))
                (y ,(hq h))
                (z ,(hq i)))))
    `'(:expand ((fa ,(hq g) ,(hq h))))))
"""

_EXPAND_GOLDEN = "(:EXPAND ((FA (BAR (FOO A B) C) (BAZ (FOO A B) D))))"


@criterion(1, "pipeline-hint")
def test_criterion_1_pipeline_hint():
    # in-process: simplify the hint term by hand along the (not (consp g))
    # branch and extract the hint it carries
    w = World()
    install_prelude(w)
    for name in ["FOO", "BAR", "BAZ", "FA"]:
        _do_defun(w, to_list(parse_one(f"(defund {name} (a b) (cons a b))")), 10000)
    t = beta_reduce(translate(parse_one(_PIPELINE_HINT_FORM), w))
    assert t.fn == "IF"
    test, use_branch, expand_branch = t.args
    goal = beta_reduce(translate(parse_one(
        "(equal (fa (bar (foo a b) c) (baz (foo a b) d))"
        "       (cons (bar (foo a b) c) (baz (foo a b) d)))"), w))

    else_clause = (test, goal, negate_term(App(HYP_FN, (expand_branch,))))
    h = find_hint(GoalCtx(else_clause, "Subgoal 1.2", True, w, StepBudget(10000)))
    assert h.clause_processor == DROP_PROCESSOR
    shown = print_sexpr(render_hint(_without_processor(h)))
    assert shown == _EXPAND_GOLDEN

    then_clause = (negate_term(test), goal, negate_term(App(HYP_FN, (use_branch,))))
    h2 = find_hint(GoalCtx(then_clause, "Subgoal 1.1", True, w, StepBudget(10000)))
    assert h2.use and h2.use[0].name == "MY-LEMMA"
    assert [b[0] for b in h2.use[0].bindings] == ["X", "Y", "Z"]
    assert [print_sexpr(unparse(b[1])) for b in h2.use[0].bindings] == [
        "(BAR (FOO A B) C)",
        "(BAZ (FOO A B) D)",
        "(FA (BAR (FOO A B) C) (BAZ (FOO A B) D))",
    ]

    # trace: the full file proves and fires exactly those hints per branch
    report = run([str(CORPUS / "basic_pipeline.lisp")])
    assert report.exit_code == 0
    fired = _hints_fired(_theorem(report, "FA-IS-CONS"))
    by_goal = dict(fired)
    assert by_goal["Subgoal 1.2"] == (
        "(:EXPAND ((FA (BAR (FOO A B) C) (BAZ (FOO A B) D)))"
        " :CLAUSE-PROCESSOR DROP-TERMHINT-HYP)"
    )
    assert by_goal["Subgoal 1.1"] == (
        "(:USE ((:INSTANCE MY-LEMMA (X (BAR (FOO A B) C))"
        " (Y (BAZ (FOO A B) D))"
        " (Z (FA (BAR (FOO A B) C) (BAZ (FOO A B) D)))))"
        " :CLAUSE-PROCESSOR DROP-TERMHINT-HYP)"
    )


@criterion(2, "rewrite-robustness")
def test_criterion_2_rewrite_robustness():
    # the same proof written twice: branch hints riding the clause survive
    # a new rewrite rule that changes the case-split term's normal form,
    # clause-membership hints go stale
    exits = {
        "robust_termhint_base.lisp": 0,
        "robust_termhint.lisp": 0,
        "robust_member_base.lisp": 0,
        "robust_member.lisp": 1,
    }
    for name, want in exits.items():
        report = run([str(CORPUS / name)])
        assert report.exit_code == want, name

    report = run([str(CORPUS / "robust_member.lisp")])
    t = _theorem(report, "BUILD-SHAPE")
    assert not t.proved and t.error is None
    assert len(_checkpoints(t)) == 2
    # the membership patterns stopped matching: literals now mention KIND
    for cp in _checkpoints(t):
        shown = [print_sexpr(unparse(l)) for l in cp]
        assert any("(KIND X)" in s for s in shown)


@criterion(3, "staging-order")
def test_criterion_3_staging_order():
    def order(filename):
        report = run([str(CORPUS / filename)])
        assert report.exit_code == 0, filename
        t = _theorem(report, "STAGED-REWRITE")
        assert t.proved
        hint_at = split_at = None
        for i, (goal, kind, data) in enumerate(t.events):
            shown = print_sexpr(render_event(kind, data))
            if kind == "HINT" and "MY-THEORY1" in shown and hint_at is None:
                hint_at = i
            if kind == "SPLIT" and shown == "(FOO A B)" and split_at is None:
                split_at = i
        assert hint_at is not None and split_at is not None, filename
        return hint_at < split_at

    assert order("seq_inline.lisp") is True        # stage one lands first
    assert order("seq_normalized.lisp") is False   # normalization breaks staging
    assert order("seq_normalize_nil.lisp") is True # :normalize nil restores it


@criterion(4, "nil-hint")
def test_criterion_4_nil_hint():
    report = run([str(CORPUS / "nil_hint.lisp")])
    assert report.exit_code == 1
    t = _theorem(report, "UNPROVABLE-WITH-NIL-HINT")
    assert not t.proved
    fired = _hints_fired(t)
    # the injection hint, then the extracted hint with no keywords at all
    assert fired[-1][1] == "(:CLAUSE-PROCESSOR DROP-TERMHINT-HYP)"
    assert len(_checkpoints(t)) == 1
    cp = _checkpoints(t)[0]
    assert all(
        not (isinstance(l, App) and l.fn == "NOT"
             and isinstance(l.args[0], App) and l.args[0].fn == HYP_FN)
        for l in cp
    )
    # in-process: a carried ''nil extracts to a hint with no keywords
    w = World()
    install_prelude(w)
    carried = beta_reduce(translate(parse_one("''nil"), w))
    clause = (negate_term(App(HYP_FN, (carried,))),)
    h = find_hint(GoalCtx(clause, "Goal", True, w, StepBudget(10000)))
    assert h.clause_processor == DROP_PROCESSOR
    assert print_sexpr(render_hint(_without_processor(h))) == "NIL"


@criterion(5, "mark-clause")
def test_criterion_5_mark_clause():
    report = run([str(CORPUS / "mark_clause.lisp")])
    assert report.exit_code == 1
    t = _theorem(report, "TWO-BRANCH-FAILURE")
    assert len(_checkpoints(t)) == 2
    labels = [clause_labels(cp) for cp in _checkpoints(t)]
    assert labels == [["CONSP-CASE"], ["ATOM-CASE"]]
    text = format_report(report, checkpoints=True)
    assert "[CONSP-CASE]" in text and "[ATOM-CASE]" in text


@criterion(6, "interpreter-properties")
def test_criterion_6_interpreter_properties():
    # extraction agrees with plain evaluation of the frozen tree
    rng = random.Random(55001)
    w = World()
    for _ in range(1000):
        t = _random_hint_term(rng, 4, proper=False)
        want = ground_eval(_freeze_hq(t), w)
        got = process_termhint(t, {}, StepBudget(10000))
        assert print_sexpr(got) == print_sexpr(want)

    # keyword lists get quoted, everything else passes through untouched
    from hintprover.sexpr import Keyword, Pair, Symbol, is_proper_list
    for _ in range(1000):
        v = _random_value(rng, 3)
        got = keyword_fixup(v)
        if is_proper_list(v) and isinstance(v, Pair) and isinstance(v.car, Keyword):
            assert to_list(got) == [Symbol("QUOTE"), v]
        else:
            assert got is v

    # quasiquote templates against value-level interpolation
    from hintprover.sexpr import QUOTE, Symbol, from_list
    for _ in range(1000):
        tpl = _random_template(rng, 3, ["X", "Y"])
        env = {
            "X": _random_qq_value(rng, 2),
            "Y": _random_qq_value(rng, 2),
            "S": from_list([_random_qq_value(rng, 1) for _ in range(rng.randrange(3))]),
        }
        want = _interpolate(tpl, env)
        form = from_list([
            Symbol("LET"),
            from_list([from_list([Symbol(n), from_list([QUOTE, v])])
                       for n, v in env.items()]),
            from_list([Symbol("QUASIQUOTE"), tpl]),
        ])
        got = ground_eval(translate(form, w), w)
        assert print_sexpr(got) == print_sexpr(want)


def _corpus_clauses():
    """Every theorem clause in the corpus, against its file's world state."""
    for path in ALL_FILES:
        world = World()
        install_prelude(world)
        for form in parse(Path(path).read_text()):
            items = to_list(form)
            head = form.car.name
            if head == "DEFTHM":
                hyps, concl, _, _ = clausify(items[2], world)
                yield tuple(negate_term(h) for h in hyps) + (concl,), world
            EVENT_HANDLERS[head](world, items, 10000)


@criterion(7, "simplifier-properties")
def test_criterion_7_simplifier_properties():
    # case splitting preserves the clause's truth table (oracle: every
    # assignment over the boolean atoms, enumerated exhaustively)
    rng = random.Random(271801)
    atoms = ["P", "Q", "R", "S"]
    assignments = [dict(zip(atoms, bits))
                   for bits in itertools.product([False, True], repeat=4)]
    seen_splits = 0
    for _ in range(800):
        clause = tuple(_random_if_term(rng, 3) for _ in range(rng.randrange(1, 4)))
        split = split_ifs(clause)
        if split is None:
            continue
        seen_splits += 1
        _, children = split
        for env in assignments:
            assert _clause_truth(clause, env) == all(
                _clause_truth(c, env) for c in children)
    assert seen_splits > 500

    # once a pass returns a corpus goal unchanged and finds no split,
    # repeating it gives the same answer
    checked = 0
    for clause, world in _corpus_clauses():
        frontier = [tuple(clause)]
        for _ in range(200):
            if not frontier:
                break
            c = frontier.pop()
            out = simplify_clause(c, world.theory(), world, StepBudget(10000), {})
            if out is None:
                continue
            rewritten, split = out
            if split is not None or rewritten != c:
                frontier.extend(split[1] if split is not None else [rewritten])
                continue
            again = simplify_clause(c, world.theory(), world, StepBudget(10000), {})
            assert again == (c, None)
            checked += 1
        assert not frontier
    assert checked >= 10

    # terms behind HIDE are never rewritten, whatever the theory
    from hintprover.world import RewriteRule
    from hintprover.term import CONST_NIL, Var
    for _ in range(100):
        w = World()
        w.add_definition("D", ("X",), beta_reduce(translate(
            parse_one("(cons x x)"), World())))
        w.add_stub("F", 1)
        w.add_rule("F-GONE", RewriteRule("F-GONE", App("F", (Var("X"),)),
                                         CONST_NIL, (), rng.choice(["EQUAL", "IFF"])))
        theory = frozenset(rng.sample(["D", "F-GONE"], rng.randrange(3)))
        t = App("HIDE", (_random_rw_term(rng, 3),))
        got = rewrite_term(t, RewriteContext(theory, w, StepBudget(1000), {}),
                           iff=rng.random() < 0.5)
        assert got == t


@criterion(8, "determinism")
def test_criterion_8_determinism():
    first = run(ALL_FILES)
    second = run(ALL_FILES)
    assert first.exit_code == second.exit_code
    a = format_report(first, trace=True, checkpoints=True)
    b = format_report(second, trace=True, checkpoints=True)
    assert a == b
    assert len(a) > 1000  # the corpus genuinely produced trace output
