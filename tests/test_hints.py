import pytest

from hintprover.sexpr import NIL, T, Keyword, Symbol, parse_one, print_sexpr
from hintprover.term import App, CONST_T, Const, TranslateError, Var, translate
from hintprover.world import HintFn, RewriteRule, World
from hintprover.rewrite import StepBudget
from hintprover.hints import (
    ComputedHint, GoalCtx, Hint, HintError, UseInstance,
    _interpret_hint_value, apply_hint, clause_sexpr, clausify, eval_hint_expr,
    parse_hint, prove_clause, render_hint, translate_hint_expr,
)


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


# ---------------------------------------------------------------------------
# parse_hint / render_hint

def test_parse_use_shapes():
    w = _use_world()
    assert ph("(:use my-eq)", w).use == (UseInstance("MY-EQ", ()),)
    got = ph("(:use (:instance my-eq (x (cons a b))))", w)
    assert got.use == (UseInstance("MY-EQ", (("X", tr("(cons a b)")),)),)
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
        assert parse_hint(render_hint(h), w) == h


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
    return GoalCtx(tuple(clause), goal, stable, world or World())


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

    def run(args, ctx):
        seen["args"] = args
        seen["goal"] = ctx.goal_name
        return parse_one("(:expand ((d a)))")

    w.add_hint_fn(HintFn("PICK", 1, run))
    t = translate_hint_expr(parse_one("(pick id)"), w)
    v = eval_hint_expr(t, _ctx(w, goal="Subgoal 3"))
    assert seen == {"args": ["Subgoal 3"], "goal": "Subgoal 3"}
    assert print_sexpr(v) == "(:EXPAND ((D A)))"
    with pytest.raises(TranslateError):
        translate_hint_expr(parse_one("(pick id id)"), w)


def test_interpret_hint_values():
    w = _use_world()

    def outcome(value):
        return _interpret_hint_value(value, w)

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
    clause, theory = apply_hint(h, (Var("G"),), w.theory(), w, warn=lambda m: None)
    assert clause == (Var("G"), tr("(not (equal (f (cons a b)) '3))", w))
    assert theory == w.theory()


def test_apply_use_warnings():
    w = _use_world()
    warnings = []
    h = ph("(:use (:instance my-eq (z 'nil)))", w)
    clause, _ = apply_hint(h, (), w.theory(), w, warn=warnings.append)
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
    with pytest.raises(HintError):
        apply_hint(ph("(:in-theory (enable nonesuch))", w), (), theory, w)


def test_apply_processor_runs_first():
    w = _use_world()
    order = []

    def proc(clause):
        order.append("processor")
        return clause + (Var("MARKER"),)

    w.add_clause_processor("P", proc)
    h = ph("(:use my-eq :clause-processor p)", w)
    clause, _ = apply_hint(h, (Var("G"),), w.theory(), w, warn=lambda m: order.append("warn"))
    assert order[0] == "processor"
    assert clause[0] == Var("G")
    assert clause[1] == Var("MARKER")        # processor output precedes :USE
    assert clause[2] == tr("(not (equal (f x) '3))", w)
    with pytest.raises(HintError):
        apply_hint(ph("(:clause-processor q)", w), (), w.theory(), w)


# ---------------------------------------------------------------------------
# clausify

def test_clausify_shapes():
    w = _stub_f()
    assert clausify(parse_one("(f x)"), w) == (tr("(f x)", w),)
    got = clausify(parse_one("(implies (f x) (f y))"), w)
    assert got == (tr("(not (f x))", w), tr("(f y)", w))
    got = clausify(parse_one("(implies (and (f x) (not (f y))) (f z))"), w)
    assert got == (tr("(not (f x))", w), tr("(f y)", w), tr("(f z)", w))
    got = clausify(parse_one("(implies (f x) (implies (f y) (f z)))"), w)
    assert got == (tr("(not (f x))", w), tr("(not (f y))", w), tr("(f z)", w))
    got = clausify(parse_one("(implies (and (f x) (and (f y) (f q))) (f z))"), w)
    assert len(got) == 4
    with pytest.raises(HintError):
        clausify(parse_one("(implies (f x))"), w)


def test_clausify_beta_reduces():
    w = World()
    got = clausify(parse_one("(let ((a '1)) (equal a '1))"), w)
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


def test_waterfall_proves_trivial_goal():
    w = World()
    r = prove_clause((tr("(equal x x)"),), [], w, StepBudget(10))
    assert r.proved
    assert r.events == [("Goal", "PROVED", T)]


def test_waterfall_checkpoint_on_stuck_goal():
    w = _stub_f()
    clause = (tr("(f x)", w),)
    r = prove_clause(clause, [], w, StepBudget(10))
    assert not r.proved
    kinds = [(name, kind) for name, kind, _ in r.events]
    assert kinds == [("Goal", "SIMPLIFY"), ("Goal", "CHECKPOINT")]
    assert r.checkpoints[0].goal == "Goal"
    assert r.checkpoints[0].clause == clause


def test_waterfall_explicit_hint_fires_on_arrival():
    w = _use_world()
    pending = [ph("(:in-theory (enable d))", w)]
    r = prove_clause((tr("(equal (d a) (cons a a))", w),), pending, w, StepBudget(10))
    assert r.proved
    assert [(n, k) for n, k, _ in r.events] == [
        ("Goal", "HINT"), ("Subgoal 1", "PROVED")]
    assert print_sexpr(r.events[0][2]) == "(:IN-THEORY (ENABLE D))"


def test_waterfall_computed_hint_waits_for_stable():
    w = _use_world()
    r = prove_clause((tr("(equal (d a) (cons a a))", w),),
                     [_enable_d_when_stable(w)], w, StepBudget(10))
    assert r.proved
    assert [(n, k) for n, k, _ in r.events] == [
        ("Goal", "SIMPLIFY"), ("Goal", "HINT"), ("Subgoal 1", "PROVED")]
    name, kind, payload = r.events[0]
    assert payload.car == Symbol("STABLE")


def test_waterfall_split_copies_pending_to_both_children():
    w = _use_world()
    clause = (tr("(if (f q) (equal (d a) (cons a a)) (equal (d b) (cons b b)))", w),)
    r = prove_clause(clause, [_enable_d_when_stable(w)], w, StepBudget(100))
    assert r.proved
    hint_goals = [n for n, k, _ in r.events if k == "HINT"]
    assert hint_goals == ["Subgoal 1", "Subgoal 2"]
    proved_goals = [n for n, k, _ in r.events if k == "PROVED"]
    assert proved_goals == ["Subgoal 1.1", "Subgoal 2.1"]
    split = [(n, print_sexpr(p)) for n, k, p in r.events if k == "SPLIT"]
    assert split == [("Goal", "(F Q)")]


def test_waterfall_visits_goals_depth_first_in_creation_order():
    w = _use_world()
    clause = (tr("(if (f p) (if (f q) (equal (d a) (cons a a)) (equal x x)) (equal y y))", w),)
    budget = StepBudget(100)
    r = prove_clause(clause, [_enable_d_when_stable(w)], w, budget)
    assert r.proved
    assert [(n, k) for n, k, _ in r.events] == [
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
    r = prove_clause((tr("(equal x x)"),), [never], w, StepBudget(10))
    assert r.proved
    assert r.events == [("Goal", "PROVED", T)]


def test_waterfall_replacement_splices():
    w = _use_world()
    first = Hint(replacement=(_enable_d_when_stable(w),))
    r = prove_clause((tr("(equal (d a) (cons a a))", w),),
                     [first], w, StepBudget(10))
    assert r.proved
    names = [(n, k) for n, k, _ in r.events]
    assert names == [
        ("Goal", "HINT"),             # empty hint, plants the follow-up
        ("Subgoal 1", "SIMPLIFY"),    # stable, nothing to do yet
        ("Subgoal 1", "HINT"),        # follow-up fires
        ("Subgoal 1.1", "PROVED"),
    ]
    assert print_sexpr(r.events[0][2]).startswith("(:COMPUTED-HINT-REPLACEMENT")


def test_waterfall_retired_hint_does_not_refire():
    w = _use_world()
    # a keyword hint with no replacement fires once; the child sees no pending
    pending = [Hint(enable=("D",))]
    clause = (tr("(if (f q) (equal (d a) (cons a a)) (equal (d b) (cons b b)))", w),)
    r = prove_clause(clause, pending, w, StepBudget(100))
    assert r.proved
    hints = [n for n, k, _ in r.events if k == "HINT"]
    assert hints == ["Goal"]


def test_waterfall_parsed_replacement_chain():
    w = _use_world()
    h = ph("(:computed-hint-replacement ('(:in-theory (enable d))) "
           ":in-theory (disable d))", w)
    r = prove_clause((tr("(equal (d a) (cons a a))", w),),
                     [h], w, StepBudget(10))
    assert r.proved
    names = [(n, k) for n, k, _ in r.events]
    # replacement hint fires on arrival at Subgoal 1, then the goal proves
    assert names == [("Goal", "HINT"), ("Subgoal 1", "HINT"),
                     ("Subgoal 1.1", "PROVED")]


def test_clause_sexpr_golden():
    w = _stub_f()
    got = clause_sexpr((tr("(not (f x))", w), Var("Y")))
    assert print_sexpr(got) == "((NOT (F X)) Y)"
