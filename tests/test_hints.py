import pytest

import hintprover.hints as hints_mod
from hintprover.sexpr import NIL, T, Keyword, Symbol, parse_one, print_sexpr
from hintprover.term import App, CONST_T, Const, TranslateError, Var, translate
from hintprover.world import HintFn, RewriteRule, World, WorldError
from hintprover.rewrite import StepBudget, negate_term
from hintprover.hints import (
    ComputedHint, GoalCtx, Hint, HintError, UseInstance,
    apply_hint, clause_sexpr, clausify, eval_computed_hint, eval_hint_expr,
    parse_hint, prove_clause, read_hint_value, render_hint, translate_hint_expr,
)
from hintprover.termhint import install_prelude
from hintprover.cli import render_event


def tr(text, world=None):
    return translate(parse_one(text), world or World())


def ph(text, world=None):
    return parse_hint(parse_one(text), world or World())


def _use_world():
    w = World()
    w.add_stub("F", 1)
    w.add_definition("D", ("X",), tr("(cons x x)"), enabled=False)
    w.add_theorem("MY-EQ", tr("(equal (f x) '3)", _stub_f()))
    return w


def _stub_f():
    w = World()
    w.add_stub("F", 1)
    return w


_RECORDS = (UseInstance, Hint, ComputedHint)


def same_fields(a, b):
    """Whether a and b hold equal values, reading the hint records, which
    compare by identity, slot by slot; tuples and lists are compared item
    by item, so records nested in them are read the same way."""
    if isinstance(a, _RECORDS) or isinstance(b, _RECORDS):
        return a.__class__ is b.__class__ and all(
            same_fields(getattr(a, f), getattr(b, f)) for f in a.__slots__)
    if isinstance(a, (tuple, list)) or isinstance(b, (tuple, list)):
        return a.__class__ is b.__class__ and len(a) == len(b) and all(map(same_fields, a, b))
    return a == b


# ---------------------------------------------------------------------------
# parse_hint / render_hint

def test_parse_use_shapes():
    w = _use_world()
    assert same_fields(ph("(:use my-eq)", w).use, (UseInstance("MY-EQ", ()),))
    got = ph("(:use (:instance my-eq (x (cons a b))))", w)
    assert same_fields(got.use, (UseInstance("MY-EQ", (("X", tr("(cons a b)")),)),))
    got = ph("(:use (my-eq (:instance my-eq (x 'nil))))", w)
    assert [u.name for u in got.use] == ["MY-EQ", "MY-EQ"]
    assert got.use[1].bindings == (("X", Const(NIL)),)


def test_parse_use_repeats_extend():
    w = _use_world()
    got = ph("(:use my-eq :use (:instance my-eq (x y)))", w)
    assert len(got.use) == 2


def test_parse_expand_shapes():
    w = _use_world()
    assert ph("(:expand ((d a)))", w).expand == (tr("(d a)", w),)
    assert ph("(:expand (d a))", w).expand == (tr("(d a)", w),)
    assert ph("(:expand ((d a) (d b)))", w).expand == (
        tr("(d a)", w), tr("(d b)", w))


def test_parse_in_theory():
    w = _use_world()
    assert ph("(:in-theory (enable d f))", w).enable == ("D", "F")
    assert ph("(:in-theory (disable d))", w).disable == ("D",)


def test_parse_clause_processor():
    assert ph("(:clause-processor my-proc)").clause_processor == "MY-PROC"


def test_parse_hint_errors():
    w = _use_world()
    for bad in [
        "(:use)",                       # odd length
        "(:frobnicate x)",              # unknown keyword
        "(foo bar)",                    # non-keyword key
        "(:use (:instance))",           # no theorem name
        "(:use (:instance my-eq (x)))", # binding is not a pair
        "(:use (:instance my-eq (x a) (x b)))",  # x bound twice
        "(:in-theory (hyperreal d))",   # not enable/disable
        "(:in-theory (enable 'd))",     # not a symbol
        "(:clause-processor 'p)",
        "(:expand d)",
        "(:computed-hint-replacement)",
    ]:
        with pytest.raises(HintError):
            ph(bad, w)


def test_render_hint_canonical_order():
    w = _use_world()
    h = ph("(:in-theory (enable d) :expand ((d a)) "
           ":use (:instance my-eq (x y)) :clause-processor p)", w)
    assert print_sexpr(render_hint(h)) == (
        "(:USE ((:INSTANCE MY-EQ (X Y))) :EXPAND ((D A))"
        " :IN-THEORY (ENABLE D) :CLAUSE-PROCESSOR P)"
    )
    assert print_sexpr(render_hint(Hint())) == "NIL"
    assert print_sexpr(render_hint(Hint(disable=("D",)))) == "(:IN-THEORY (DISABLE D))"


def test_parse_render_round_trip():
    w = _use_world()
    for text in [
        "(:use ((:instance my-eq (x (cons a b)))))",
        "(:expand ((d a) (d b)) :in-theory (disable d))",
        "(:clause-processor p)",
        "(:in-theory (enable w) :in-theory (disable v))",
    ]:
        h = ph(text, w)
        assert same_fields(parse_hint(render_hint(h), w), h)


def test_parse_computed_hint_replacement():
    w = _use_world()
    h = ph("(:computed-hint-replacement ('(:in-theory (enable d))) "
           ":in-theory (enable d))", w)
    assert h.enable == ("D",)
    assert len(h.replacement) == 1
    assert print_sexpr(render_hint(h)) == (
        "(:COMPUTED-HINT-REPLACEMENT ((QUOTE (:IN-THEORY (ENABLE D))))"
        " :IN-THEORY (ENABLE D))"
    )


# ---------------------------------------------------------------------------
# hint expressions

def _ctx(world=None, clause=(), goal="Goal", stable=False):
    return GoalCtx(tuple(clause), goal, stable, world or World(), StepBudget(10000))


def test_hint_expr_vocabulary_is_restricted():
    w = World()
    translate_hint_expr(parse_one("(cons 'a clause)"), w)
    translate_hint_expr(parse_one("(and clause 'x)"), w)
    translate_hint_expr(parse_one("(or 'nil id)"), w)
    with pytest.raises(TranslateError):
        translate_hint_expr(parse_one("(car clause)"), w)
    with pytest.raises(TranslateError):
        translate_hint_expr(parse_one("(binary-append clause clause)"), w)


def test_hint_expr_environment():
    w = _stub_f()
    clause = (tr("(not (f x))", w), Var("Y"))
    t = translate_hint_expr(parse_one("clause"), w)
    assert print_sexpr(eval_hint_expr(t, _ctx(w, clause))) == "((NOT (F X)) Y)"
    t = translate_hint_expr(parse_one("id"), w)
    assert eval_hint_expr(t, _ctx(w, clause, goal="Subgoal 2")) == "Subgoal 2"
    t = translate_hint_expr(parse_one("stable-under-simplificationp"), w)
    assert eval_hint_expr(t, _ctx(w, stable=False)) is NIL
    assert eval_hint_expr(t, _ctx(w, stable=True)) is T


def test_hint_expr_if_is_lazy():
    w = World()
    t = translate_hint_expr(
        parse_one("(if stable-under-simplificationp bogus 'nil)"), w)
    assert eval_hint_expr(t, _ctx(w, stable=False)) is NIL
    with pytest.raises(HintError):
        eval_hint_expr(t, _ctx(w, stable=True))


def test_hint_expr_member_equal_on_clause():
    w = _stub_f()
    clause = (tr("(not (f x))", w), tr("(equal (f x) 'nil)", w))
    t = translate_hint_expr(parse_one("(member-equal '(not (f x)) clause)"), w)
    got = eval_hint_expr(t, _ctx(w, clause))
    assert print_sexpr(got) == "((NOT (F X)) (EQUAL (F X) (QUOTE NIL)))"
    t = translate_hint_expr(parse_one("(member-equal '(f y) clause)"), w)
    assert eval_hint_expr(t, _ctx(w, clause)) is NIL


def test_hint_fns_are_callable():
    w = World()
    seen = {}

    def run(ctx):
        seen["goal"] = ctx.goal_name
        return parse_one("(:expand ((d a)))")

    w.add_hint_fn(HintFn("PICK", 1, run))
    t = translate_hint_expr(parse_one("(pick id)"), w)
    v = eval_hint_expr(t, _ctx(w, goal="Subgoal 3"))
    assert seen == {"goal": "Subgoal 3"}
    assert print_sexpr(v) == "(:EXPAND ((D A)))"
    with pytest.raises(TranslateError):
        translate_hint_expr(parse_one("(pick id id)"), w)


def test_interpret_hint_values():
    w = _use_world()

    def outcome(value):
        return read_hint_value(value, w)

    assert outcome(None) is None
    assert outcome(NIL) is None
    assert outcome(parse_one("'nil")) is None
    ready = Hint(enable=("D",))
    assert outcome(ready) is ready
    assert outcome(parse_one("(:in-theory (enable d))")).enable == ("D",)
    assert outcome(parse_one("'(:in-theory (enable d))")).enable == ("D",)
    for bad in ["'foo", "''(:use my-eq)", "(d a)", "'7"]:
        with pytest.raises(HintError):
            outcome(parse_one(bad))


# ---------------------------------------------------------------------------
# apply_hint

def test_apply_use_instantiates_and_appends():
    w = _use_world()
    h = ph("(:use (:instance my-eq (x (cons a b))))", w)
    clause, theory = apply_hint(h, (Var("G"),), w.theory(), w)
    assert clause == (Var("G"), tr("(not (equal (f (cons a b)) '3))", w))
    assert theory == w.theory()


def test_apply_use_warnings(capsys):
    w = _use_world()
    h = ph("(:use (:instance my-eq (z 'nil)))", w)
    clause, _ = apply_hint(h, (), w.theory(), w)
    warnings = capsys.readouterr().err.splitlines()
    assert all(m.startswith("WARNING: :USE ") for m in warnings)
    # Z names no variable of MY-EQ, and X is never bound
    assert any("Z" in m for m in warnings)
    assert any("uninstantiated" in m and "X" in m for m in warnings)
    assert clause == (tr("(not (equal (f x) '3))", w),)


def test_apply_use_unknown_theorem():
    w = _use_world()
    with pytest.raises(HintError):
        apply_hint(ph("(:use nonesuch)", w), (), w.theory(), w)


def test_apply_expand():
    w = _use_world()
    h = ph("(:expand ((d a)))", w)
    clause, _ = apply_hint(h, (tr("(equal (d a) 'nil)", w),), w.theory(), w)
    assert clause == (tr("(equal (cons a a) 'nil)", w),)


def test_apply_in_theory():
    w = _use_world()
    theory = w.theory()
    assert "D" not in theory
    _, got = apply_hint(ph("(:in-theory (enable d))", w), (), theory, w)
    assert got == theory | {"D"}
    w.add_rule("R1", RewriteRule("R1", tr("(f x)", w), CONST_T, (), "IFF"))
    _, got = apply_hint(ph("(:in-theory (disable r1))", w), (), w.theory(), w)
    assert "R1" not in got
    with pytest.raises(WorldError, match=r"^:IN-THEORY names unknown rule: NONESUCH$"):
        apply_hint(ph("(:in-theory (enable nonesuch))", w), (), theory, w)


def test_apply_processor_runs_first(monkeypatch):
    w = _use_world()
    order = []

    def proc(clause):
        order.append("processor")
        return clause + (Var("MARKER"),)

    w.add_clause_processor("P", proc)
    h = ph("(:use my-eq :clause-processor p)", w)
    monkeypatch.setattr(hints_mod, "_warn_stderr", lambda m: order.append("warn"))
    clause, _ = apply_hint(h, (Var("G"),), w.theory(), w)
    assert order[0] == "processor"
    assert clause[0] == Var("G")
    assert clause[1] == Var("MARKER")        # processor output precedes :USE
    assert clause[2] == tr("(not (equal (f x) '3))", w)
    with pytest.raises(HintError):
        apply_hint(ph("(:clause-processor q)", w), (), w.theory(), w)


# ---------------------------------------------------------------------------
# clausify

def _clause(text, w):
    """The clause _do_defthm builds from what clausify returns."""
    hyps, concl, _, _ = clausify(parse_one(text), w)
    return tuple(negate_term(h) for h in hyps) + (concl,)


def test_clausify_shapes():
    w = _stub_f()
    assert _clause("(f x)", w) == (tr("(f x)", w),)
    got = _clause("(implies (f x) (f y))", w)
    assert got == (tr("(not (f x))", w), tr("(f y)", w))
    got = _clause("(implies (and (f x) (not (f y))) (f z))", w)
    assert got == (tr("(not (f x))", w), tr("(f y)", w), tr("(f z)", w))
    got = _clause("(implies (f x) (implies (f y) (f z)))", w)
    assert got == (tr("(not (f x))", w), tr("(not (f y))", w), tr("(f z)", w))
    got = _clause("(implies (and (f x) (and (f y) (f q))) (f z))", w)
    assert len(got) == 4
    with pytest.raises(TranslateError, match="IMPLIES expects two arguments"):
        _clause("(implies (f x))", w)
    # the statement is translated before it is split, so the leftmost
    # error wins, as in AND, OR and COND
    with pytest.raises(TranslateError, match="unknown function: UNDEFINED"):
        _clause("(implies (undefined x) (implies y))", w)


def test_clausify_beta_reduces():
    w = World()
    got = _clause("(let ((a '1)) (equal a '1))", w)
    assert got == (tr("(equal '1 '1)"),)


# ---------------------------------------------------------------------------
# the waterfall

def _enable_d_when_stable(world):
    return ComputedHint(
        expr=translate_hint_expr(
            parse_one("(if stable-under-simplificationp '(:in-theory (enable d)) 'nil)"),
            world),
        display=parse_one("(and stable-under-simplificationp '(:in-theory (enable d)))"),
    )


def _prove(clause, pending, world, budget):
    events = []
    return prove_clause(clause, pending, world, budget, events), events


def test_waterfall_proves_trivial_goal():
    w = World()
    proved, events = _prove((tr("(equal x x)"),), [], w, StepBudget(10))
    assert proved
    assert events == [("Goal", "PROVED", T)]


def test_waterfall_checkpoint_on_stuck_goal():
    w = _stub_f()
    clause = (tr("(f x)", w),)
    proved, events = _prove(clause, [], w, StepBudget(10))
    assert not proved
    kinds = [(name, kind) for name, kind, _ in events]
    assert kinds == [("Goal", "SIMPLIFY"), ("Goal", "CHECKPOINT")]
    assert events[-1] == ("Goal", "CHECKPOINT", clause)


def test_waterfall_explicit_hint_fires_on_arrival():
    w = _use_world()
    pending = [ph("(:in-theory (enable d))", w)]
    proved, events = _prove((tr("(equal (d a) (cons a a))", w),), pending, w, StepBudget(10))
    assert proved
    assert [(n, k) for n, k, _ in events] == [
        ("Goal", "HINT"), ("Subgoal 1", "PROVED")]
    assert print_sexpr(render_event("HINT", events[0][2])) == "(:IN-THEORY (ENABLE D))"


def test_waterfall_computed_hint_waits_for_stable():
    w = _use_world()
    proved, events = _prove((tr("(equal (d a) (cons a a))", w),),
                            [_enable_d_when_stable(w)], w, StepBudget(10))
    assert proved
    assert [(n, k) for n, k, _ in events] == [
        ("Goal", "SIMPLIFY"), ("Goal", "HINT"), ("Subgoal 1", "PROVED")]
    name, kind, data = events[0]
    assert data == ("STABLE", (tr("(equal (d a) (cons a a))", w),))
    assert render_event(kind, data).car == Symbol("STABLE")


@pytest.mark.parametrize("text, stable_only", [
    ("(if stable-under-simplificationp '(:in-theory (enable d)) 'nil)", True),
    ("(and stable-under-simplificationp (member-equal 'zzz clause))", True),
    ("(if (member-equal 'zzz clause) '(:in-theory (enable d)) 'nil)", False),
    ("(if (equal id 'never) '(:in-theory (enable d)) 'nil)", False),
    ("(if stable-under-simplificationp 'nil (member-equal 'zzz clause))", False),
    ("(and (not (not stable-under-simplificationp)) (member-equal 'zzz clause))", False),
])
def test_only_a_stable_guard_waits_for_a_stable_goal(text, stable_only, monkeypatch):
    # Any other computed hint is evaluated on every goal it reaches, and
    # once more when that goal is stable
    w = _use_world()
    ch = ComputedHint(expr=translate_hint_expr(parse_one(text), w))
    assert ch.stable_only is stable_only
    seen = []
    real = hints_mod.eval_hint_expr
    monkeypatch.setattr(hints_mod, "eval_hint_expr",
                        lambda t, ctx: seen.append((ctx.goal_name, ctx.stable)) or real(t, ctx))
    # both branches stay stable: D is disabled, and F is a stub
    clause = (tr("(if (f q) (equal (d a) (cons a b)) (f b))", w),)
    _prove(clause, [ch], w, StepBudget(100))
    every = [("Goal", False),
             ("Subgoal 1", False), ("Subgoal 1", True), ("Subgoal 2", False), ("Subgoal 2", True)]
    assert seen == [g for g in every if g[1] or not stable_only]


def test_waterfall_split_copies_pending_to_both_children():
    w = _use_world()
    clause = (tr("(if (f q) (equal (d a) (cons a a)) (equal (d b) (cons b b)))", w),)
    proved, events = _prove(clause, [_enable_d_when_stable(w)], w, StepBudget(100))
    assert proved
    hint_goals = [n for n, k, _ in events if k == "HINT"]
    assert hint_goals == ["Subgoal 1", "Subgoal 2"]
    proved_goals = [n for n, k, _ in events if k == "PROVED"]
    assert proved_goals == ["Subgoal 1.1", "Subgoal 2.1"]
    split = [(n, print_sexpr(render_event(k, d))) for n, k, d in events if k == "SPLIT"]
    assert split == [("Goal", "(F Q)")]


def test_waterfall_visits_goals_depth_first_in_creation_order():
    w = _use_world()
    clause = (tr("(if (f p) (if (f q) (equal (d a) (cons a a)) (equal x x)) (equal y y))", w),)
    budget = StepBudget(100)
    proved, events = _prove(clause, [_enable_d_when_stable(w)], w, budget)
    assert proved
    assert [(n, k) for n, k, _ in events] == [
        ("Goal", "SIMPLIFY"), ("Goal", "SPLIT"),
        ("Subgoal 1", "SIMPLIFY"), ("Subgoal 1", "SPLIT"),
        ("Subgoal 1.1", "SIMPLIFY"), ("Subgoal 1.1", "HINT"),
        ("Subgoal 1.1.1", "PROVED"),
        ("Subgoal 1.2", "PROVED"),
        ("Subgoal 2", "SIMPLIFY"), ("Subgoal 2", "SPLIT"),
        ("Subgoal 2.1", "PROVED"),
        ("Subgoal 2.2", "PROVED"),
    ]
    # every goal but the root was created by a split or a fired hint
    assert budget.goals == 7


def test_waterfall_nonfiring_entry_survives():
    w = _use_world()
    never = ComputedHint(expr=translate_hint_expr(parse_one("'nil"), w))
    proved, events = _prove((tr("(equal x x)"),), [never], w, StepBudget(10))
    assert proved
    assert events == [("Goal", "PROVED", T)]


def test_waterfall_replacement_splices():
    w = _use_world()
    first = Hint(replacement=(_enable_d_when_stable(w),))
    proved, events = _prove((tr("(equal (d a) (cons a a))", w),),
                            [first], w, StepBudget(10))
    assert proved
    names = [(n, k) for n, k, _ in events]
    assert names == [
        ("Goal", "HINT"),             # empty hint, plants the follow-up
        ("Subgoal 1", "SIMPLIFY"),    # stable, nothing to do yet
        ("Subgoal 1", "HINT"),        # follow-up fires
        ("Subgoal 1.1", "PROVED"),
    ]
    shown = print_sexpr(render_event("HINT", events[0][2]))
    assert shown.startswith("(:COMPUTED-HINT-REPLACEMENT")


def test_waterfall_retired_hint_does_not_refire():
    w = _use_world()
    # a keyword hint with no replacement fires once; the child sees no pending
    pending = [Hint(enable=("D",))]
    clause = (tr("(if (f q) (equal (d a) (cons a a)) (equal (d b) (cons b b)))", w),)
    proved, events = _prove(clause, pending, w, StepBudget(100))
    assert proved
    hints = [n for n, k, _ in events if k == "HINT"]
    assert hints == ["Goal"]


def test_waterfall_parsed_replacement_chain():
    w = _use_world()
    h = ph("(:computed-hint-replacement ('(:in-theory (enable d))) "
           ":in-theory (disable d))", w)
    proved, events = _prove((tr("(equal (d a) (cons a a))", w),),
                            [h], w, StepBudget(10))
    assert proved
    names = [(n, k) for n, k, _ in events]
    # replacement hint fires on arrival at Subgoal 1, then the goal proves
    assert names == [("Goal", "HINT"), ("Subgoal 1", "HINT"),
                     ("Subgoal 1.1", "PROVED")]


def test_clause_sexpr_golden():
    w = _stub_f()
    got = clause_sexpr((tr("(not (f x))", w), Var("Y")))
    assert print_sexpr(got) == "((NOT (F X)) Y)"


# ---------------------------------------------------------------------------
# CLAUSE is rendered on first read, once per goal

@pytest.fixture
def renders(monkeypatch):
    """Count hints.clause_sexpr calls; the list holds each rendered value."""
    import hintprover.hints as hints_mod

    seen = []
    real = hints_mod.clause_sexpr

    def counted(clause):
        seen.append(real(clause))
        return seen[-1]

    monkeypatch.setattr(hints_mod, "clause_sexpr", counted)
    return seen


def test_hint_not_reading_clause_renders_nothing(renders):
    w = _stub_f()
    clause = (tr("(not (f x))", w), Var("Y"))
    ch = ComputedHint(expr=translate_hint_expr(
        parse_one("(if (equal id '\"Goal\") '(:in-theory (enable f)) 'nil)"), w))
    assert eval_computed_hint(ch, _ctx(w, clause, goal="Subgoal 1")) is None
    assert renders == []


def test_stable_guard_on_unstable_goal_renders_nothing(renders):
    w = World()
    install_prelude(w)
    display = parse_one("(and stable-under-simplificationp (use-termhint-find-hint clause))")
    ch = ComputedHint(expr=translate_hint_expr(display, w), display=display)
    assert eval_computed_hint(ch, _ctx(w, (Var("G"),), stable=False)) is None
    assert renders == []
    assert eval_computed_hint(ch, _ctx(w, (Var("G"),), stable=True)) is None
    assert len(renders) == 1  # the stable goal reads CLAUSE


def test_clause_read_twice_in_one_goal_renders_once(renders):
    w = _stub_f()
    clause = (tr("(not (f x))", w), Var("Y"))
    ctx = _ctx(w, clause)
    t = translate_hint_expr(parse_one("(cons clause clause)"), w)
    v = eval_hint_expr(t, ctx)
    assert v.car is v.cdr
    assert eval_hint_expr(translate_hint_expr(parse_one("clause"), w), ctx) is v.car
    assert len(renders) == 1
    assert print_sexpr(v.car) == "((NOT (F X)) Y)"
