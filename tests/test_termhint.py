import random

import pytest

from hintprover.sexpr import (
    NIL, Keyword, Pair, Symbol, T, from_list, is_proper_list, parse_one,
    print_sexpr, to_list,
)
from hintprover.term import (
    App, CONST_NIL, Const, TranslateError, Var, ground_eval, translate, unparse,
)
from hintprover.world import World
from hintprover.rewrite import StepBudget
from hintprover.hints import (
    ComputedHint, GoalCtx, Hint, UseInstance, apply_hint, eval_computed_hint,
    prove_clause, render_hint, translate_hint_expr,
)
from hintprover.termhint import (
    DROP_PROCESSOR, FIND_FN, HYP_FN, HYP_THEOREM, MARK_FN, MARK_THEOREM, SEQ_FN,
    ProcessError, clause_labels, drop_termhint_hyp, find_hint, install_prelude,
    keyword_fixup, mark_clause_hint, process_termhint, use_termhint,
)


def _world():
    w = World()
    install_prelude(w)
    return w


def _dworld():
    w = _world()
    w.add_definition("D", ("A", "B"), translate(parse_one("(cons a b)"), World()),
                     enabled=False)
    return w


def tr(text, world):
    return translate(parse_one(text), world)


def _hyp_lit(term):
    return App("NOT", (App(HYP_FN, (term,)),))


# ---------------------------------------------------------------------------
# process_termhint

def test_process_constants():
    assert process_termhint(Const(Symbol("A"))) == Symbol("A")
    assert process_termhint(Const(7)) == 7
    assert process_termhint(CONST_NIL) is NIL
    v = parse_one("(:expand ((d a)))")
    assert process_termhint(Const(v)) == v


def test_process_hq_quotes_live_terms():
    w = _dworld()
    assert process_termhint(App("HQ", (tr("(d x y)", w),))) == parse_one("(d x y)")
    assert process_termhint(App("HQ", (Const(3),))) == parse_one("'3")
    assert process_termhint(App("HQ", (Var("X"),))) == Symbol("X")


def test_process_cons_and_append():
    t = App("CONS", (Const(Symbol("A")), App("CONS", (Const(2), CONST_NIL))))
    assert process_termhint(t) == parse_one("(a 2)")
    t = App("BINARY-APPEND", (Const(parse_one("(1 2)")), Const(parse_one("(3)"))))
    assert process_termhint(t) == parse_one("(1 2 3)")


def test_process_errors():
    with pytest.raises(ProcessError, match="proper list"):
        process_termhint(App("BINARY-APPEND", (Const(7), CONST_NIL)))
    with pytest.raises(ProcessError, match="CAR"):
        process_termhint(App("CAR", (CONST_NIL,)))
    with pytest.raises(ProcessError, match="residual variable in hint term: Y"):
        process_termhint(Var("Y"))


_LEAF_VALUES = [
    NIL, T, 5, Symbol("A"), Keyword("EXPAND"), "s",
    parse_one("(1 2)"), parse_one("(:use (x))"),
]


def _random_live_term(rng):
    pick = rng.randrange(3)
    if pick == 0:
        return Var(rng.choice(["X", "Y"]))
    if pick == 1:
        return Const(rng.choice(_LEAF_VALUES))
    return App("CONS", (Var("X"), Const(rng.choice(_LEAF_VALUES))))


def _random_hint_term(rng, depth, proper):
    """A random extraction tree; proper=True forces a proper-list value."""
    if depth <= 0 or rng.random() < 0.3:
        if proper:
            vals = [v for v in _LEAF_VALUES if is_proper_list(v)]
            return Const(rng.choice(vals + [NIL]))
        if rng.random() < 0.3:
            return App("HQ", (_random_live_term(rng),))
        return Const(rng.choice(_LEAF_VALUES))
    if proper or rng.random() < 0.6:
        tail = _random_hint_term(rng, depth - 1, proper)
        return App("CONS", (_random_hint_term(rng, depth - 1, False), tail)) \
            if not proper else App("CONS", (_random_hint_term(rng, depth - 1, False),
                                            _random_hint_term(rng, depth - 1, True)))
    return App("BINARY-APPEND", (_random_hint_term(rng, depth - 1, True),
                                 _random_hint_term(rng, depth - 1, proper)))


def _freeze_hq(t):
    """Replace each (HQ u) with the constant it should extract to."""
    if isinstance(t, App):
        if t.fn == "HQ":
            return Const(unparse(t.args[0]))
        return App(t.fn, tuple(_freeze_hq(a) for a in t.args))
    return t


def test_process_matches_ground_evaluation():
    # extraction must agree with plain evaluation of the frozen tree
    rng = random.Random(60042)
    w = World()
    for _ in range(1000):
        t = _random_hint_term(rng, 4, proper=False)
        want = ground_eval(_freeze_hq(t), w)
        got = process_termhint(t)
        assert print_sexpr(got) == print_sexpr(want), print_sexpr(unparse(t))


def _random_value(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(_LEAF_VALUES + [Keyword("IN-THEORY"), Symbol("QUOTE")])
    return Pair(_random_value(rng, depth - 1), _random_value(rng, depth - 1))


def test_keyword_fixup_laws():
    rng = random.Random(977)
    for _ in range(1000):
        v = _random_value(rng, 3)
        got = keyword_fixup(v)
        if is_proper_list(v) and isinstance(v, Pair) and isinstance(v.car, Keyword):
            assert to_list(got) == [Symbol("QUOTE"), v]
        else:
            assert got is v
    quoted = parse_one("'(:use (x))")
    assert keyword_fixup(quoted) is quoted  # already protected


def test_keyword_list_needs_fixup_to_translate():
    w = _world()
    bare = parse_one("(:expand ((d a)))")
    with pytest.raises(TranslateError):
        translate_hint_expr(bare, w)
    t = translate_hint_expr(keyword_fixup(bare), w)
    assert t == Const(bare)


# ---------------------------------------------------------------------------
# hypothesis plumbing

def test_drop_termhint_hyp():
    w = _world()
    keep = tr("(not (mark-clause 'l))", w)
    hyp = _hyp_lit(Const(NIL))
    assert drop_termhint_hyp((keep, hyp, Var("G"))) == (keep, Var("G"))


def test_use_termhint_structure():
    w = _dworld()
    h = use_termhint(parse_one("''(:expand ((d a b)))"), w)
    assert h.use == (UseInstance(
        HYP_THEOREM, (("X", Const(parse_one("'(:expand ((d a b)))"))),)),)
    assert len(h.replacement) == 1
    ch = h.replacement[0]
    assert print_sexpr(ch.display) == (
        "(AND STABLE-UNDER-SIMPLIFICATIONP (USE-TERMHINT-FIND-HINT CLAUSE))"
    )


def test_finder_only_fires_when_stable():
    w = _dworld()
    carried = Const(parse_one("(:in-theory (enable d))"))
    clause = (_hyp_lit(carried), Var("G"))
    ch = use_termhint(parse_one("'nil"), w).replacement[0]
    assert eval_computed_hint(ch, GoalCtx(clause, "Goal", False, w)) is None
    got = eval_computed_hint(ch, GoalCtx(clause, "Goal", True, w))
    assert got.enable == ("D",)
    assert got.clause_processor == DROP_PROCESSOR


def test_finder_declines_without_hypothesis():
    w = _dworld()
    ch = use_termhint(parse_one("'nil"), w).replacement[0]
    ctx = GoalCtx((Var("G"),), "Goal", True, w)
    assert eval_computed_hint(ch, ctx) is None


# ---------------------------------------------------------------------------
# find_hint

def test_find_hint_none_without_hypothesis():
    w = _dworld()
    assert find_hint((Var("G"),), w) is None


def test_find_hint_parses_carried_keyword_list():
    w = _dworld()
    clause = (_hyp_lit(Const(parse_one("(:expand ((d x y)))"))), Var("G"))
    h = find_hint(clause, w)
    assert h.expand == (tr("(d x y)", w),)
    assert h.clause_processor == DROP_PROCESSOR
    assert h.replacement is None


def test_find_hint_nil_is_drop_only():
    w = _dworld()
    h = find_hint((_hyp_lit(CONST_NIL), Var("G")), w)
    assert h == Hint(clause_processor=DROP_PROCESSOR)
    assert print_sexpr(render_hint(h)) == "(:CLAUSE-PROCESSOR DROP-TERMHINT-HYP)"


def test_find_hint_builds_value_from_live_terms():
    w = _dworld()
    # carried: (cons ':expand (cons (cons (hq (d x y)) 'nil) 'nil))
    carried = App("CONS", (
        Const(Keyword("EXPAND")),
        App("CONS", (
            App("CONS", (App("HQ", (tr("(d x y)", w),)), CONST_NIL)),
            CONST_NIL)),
    ))
    h = find_hint(((_hyp_lit(carried)),), w)
    assert h.expand == (tr("(d x y)", w),)


def test_find_hint_first_hypothesis_wins():
    w = _dworld()
    clause = (
        _hyp_lit(Const(parse_one("(:in-theory (enable d))"))),
        _hyp_lit(Const(parse_one("(:in-theory (disable d))"))),
    )
    h = find_hint(clause, w)
    assert h.enable == ("D",) and not h.disable


def test_find_hint_rejects_residual_calls():
    w = _dworld()
    with pytest.raises(ProcessError, match="residual call"):
        find_hint((_hyp_lit(tr("(d x y)", w)),), w)


def test_find_hint_rejects_processor_collision():
    w = _dworld()
    carried = Const(parse_one("(:clause-processor drop-termhint-hyp)"))
    with pytest.raises(ProcessError, match="clause processor"):
        find_hint((_hyp_lit(carried),), w)


def test_find_hint_seq_stages():
    w = _dworld()
    stage2_term = tr("''(:in-theory (disable d))", w)
    carried = App(SEQ_FN, (
        Const(parse_one("(:in-theory (enable d))")),
        App("HIDE", (stage2_term,)),
    ))
    h = find_hint((_hyp_lit(carried),), w)
    assert h.enable == ("D",)
    assert h.clause_processor == DROP_PROCESSOR
    assert len(h.replacement) == 1
    stage2 = h.replacement[0]
    assert print_sexpr(stage2.display) == (
        "(USE-TERMHINT (QUOTE (QUOTE (:IN-THEORY (DISABLE D)))))"
    )
    assert isinstance(stage2, Hint)
    assert stage2.use[0].name == HYP_THEOREM
    assert stage2.use[0].bindings == (("X", stage2_term),)
    assert len(stage2.replacement) == 1


def test_find_hint_seq_base_keeps_finder_replacement():
    # a seq whose first stage is itself drop-only still re-arms stage two
    w = _dworld()
    carried = App(SEQ_FN, (CONST_NIL, App("HIDE", (Const(NIL),))))
    h = find_hint((_hyp_lit(carried),), w)
    assert h.clause_processor == DROP_PROCESSOR
    assert len(h.replacement) == 1


# ---------------------------------------------------------------------------
# clause marking

def test_mark_clause_hint_and_labels():
    w = _world()
    h = mark_clause_hint("CONSP-CASE")
    clause, _ = apply_hint(h, (Var("G"),), w.theory(), w)
    assert clause == (Var("G"), tr("(not (mark-clause 'consp-case))", w))
    assert clause_labels(clause) == ["CONSP-CASE"]
    assert clause_labels((Var("G"),)) == []


def test_clause_labels_of_unreduced_marks():
    w = _world()
    lit = App("NOT", (App(MARK_FN, (App("CONS", (Var("X"), CONST_NIL)),)),))
    assert clause_labels((lit,)) == ["(CONS X (QUOTE NIL))"]


# ---------------------------------------------------------------------------
# termhint-seq surface macro

def test_seq_macro_hides_second_stage():
    w = _world()
    t = tr("(termhint-seq ''(:a) ''(:b))", w)
    assert t.fn == SEQ_FN
    assert t.args[0] == Const(parse_one("'(:a)"))
    assert t.args[1] == App("HIDE", (Const(parse_one("'(:b)")),))


def test_seq_macro_does_not_double_hide():
    w = _world()
    t = tr("(termhint-seq ''(:a) (hide ''(:b)))", w)
    assert t.args[1] == App("HIDE", (Const(parse_one("'(:b)")),))


def test_seq_macro_arity():
    w = _world()
    with pytest.raises(TranslateError):
        tr("(termhint-seq ''(:a))", w)


# ---------------------------------------------------------------------------
# prelude wiring

def test_install_prelude_registers_everything():
    w = _world()
    assert w.functions[HYP_FN] == 1
    assert w.functions["HQ"] == 1
    assert w.functions[MARK_FN] == 1
    assert w.functions[SEQ_FN] == 2
    assert SEQ_FN in w.macro_env
    assert unparse(w.theorems[HYP_THEOREM]) == parse_one("(use-termhint-hyp x)")
    assert unparse(w.theorems[MARK_THEOREM]) == parse_one("(mark-clause x)")
    assert w.clause_processors[DROP_PROCESSOR] is drop_termhint_hyp
    assert w.hint_fns[FIND_FN].arity == 1


def test_prelude_waterfall_round_trip():
    # a hint term that survives rewriting and hands back an :expand hint
    w = _dworld()
    goal = tr("(equal (d p q) (cons p q))", w)
    hint = use_termhint(parse_one("`'(:expand ((d ,(hq p) ,(hq q))))"), w)
    r = prove_clause((goal,), [hint], w, StepBudget(100))
    assert r.proved
    fired = [(n, print_sexpr(p)) for n, k, p in r.events if k == "HINT"]
    assert fired[0][0] == "Goal"
    assert fired[1] == ("Subgoal 1", "(:EXPAND ((D P Q)) :CLAUSE-PROCESSOR DROP-TERMHINT-HYP)")
    assert r.events[-1] == ("Subgoal 1.1", "PROVED", T)
