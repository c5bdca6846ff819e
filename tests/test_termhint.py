import random
import re

import pytest

from hintprover.sexpr import (
    NIL, Keyword, Pair, Symbol, T, from_list, is_proper_list, parse_one,
    print_sexpr, to_list,
)
from hintprover import hints as hints_mod, termhint
from hintprover.term import (
    App, CONST_NIL, Const, TranslateError, Translator, Var, translate, unparse,
)
from hintprover.world import World
from hintprover.rewrite import StepBudget
from hintprover.hints import (
    ComputedHint, GoalCtx, Hint, HintError, UseInstance, apply_hint, eval_computed_hint,
    parse_hint, prove_clause, render_hint, translate_hint_expr,
)
from hintprover.termhint import (
    DROP_PROCESSOR, FIND_FN, HYP_FN, HYP_THEOREM, MARK_FN, MARK_THEOREM, SEQ_FN,
    ProcessError, clause_labels, drop_termhint_hyp, find_hint, install_prelude,
    keyword_fixup, process_termhint, use_termhint,
)
from hintprover.cli import format_report, main, render_event, run

from test_hints import same_fields
from test_term import ground_eval


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


def _goal(clause, w, stable=True):
    return GoalCtx(clause, "Goal", stable, w, StepBudget(10000))


def _read(t):
    return process_termhint(t, {}, StepBudget(10000))


# ---------------------------------------------------------------------------
# process_termhint

def test_process_constants():
    assert _read(Const(Symbol("A"))) == Symbol("A")
    assert _read(Const(7)) == 7
    assert _read(CONST_NIL) is NIL
    v = parse_one("(:expand ((d a)))")
    assert _read(Const(v)) == v


def test_process_hq_quotes_live_terms():
    w = _dworld()
    assert _read(App("HQ", (tr("(d x y)", w),))) == parse_one("(d x y)")
    assert _read(App("HQ", (Const(3),))) == parse_one("'3")
    assert _read(App("HQ", (Var("X"),))) == Symbol("X")


def test_process_cons_and_append():
    t = App("CONS", (Const(Symbol("A")), App("CONS", (Const(2), CONST_NIL))))
    assert _read(t) == parse_one("(a 2)")
    t = App("BINARY-APPEND", (Const(parse_one("(1 2)")), Const(parse_one("(3)"))))
    assert _read(t) == parse_one("(1 2 3)")


def test_process_errors():
    with pytest.raises(ProcessError, match="proper list"):
        _read(App("BINARY-APPEND", (Const(7), CONST_NIL)))
    with pytest.raises(ProcessError, match="CAR"):
        _read(App("CAR", (CONST_NIL,)))
    with pytest.raises(ProcessError, match="residual variable in hint term: Y"):
        _read(Var("Y"))


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
        got = _read(t)
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
    assert same_fields(h.use, (UseInstance(
        HYP_THEOREM, (("X", Const(parse_one("'(:expand ((d a b)))"))),)),))
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
    assert eval_computed_hint(ch, _goal(clause, w, stable=False)) is None
    got = eval_computed_hint(ch, _goal(clause, w))
    assert got.enable == ("D",)
    assert got.clause_processor == DROP_PROCESSOR


def test_finder_declines_without_hypothesis():
    w = _dworld()
    ch = use_termhint(parse_one("'nil"), w).replacement[0]
    ctx = _goal((Var("G"),), w)
    assert eval_computed_hint(ch, ctx) is None


# ---------------------------------------------------------------------------
# find_hint

def test_find_hint_none_without_hypothesis():
    w = _dworld()
    assert find_hint(_goal((Var("G"),), w)) is None


def test_find_hint_parses_carried_keyword_list():
    w = _dworld()
    clause = (_hyp_lit(Const(parse_one("(:expand ((d x y)))"))), Var("G"))
    h = find_hint(_goal(clause, w))
    assert h.expand == (tr("(d x y)", w),)
    assert h.clause_processor == DROP_PROCESSOR
    assert h.replacement is None


def test_find_hint_nil_is_drop_only():
    w = _dworld()
    h = find_hint(_goal((_hyp_lit(CONST_NIL), Var("G")), w))
    assert same_fields(h, Hint(clause_processor=DROP_PROCESSOR))
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
    h = find_hint(_goal(((_hyp_lit(carried)),), w))
    assert h.expand == (tr("(d x y)", w),)


def test_find_hint_first_hypothesis_wins():
    w = _dworld()
    clause = (
        _hyp_lit(Const(parse_one("(:in-theory (enable d))"))),
        _hyp_lit(Const(parse_one("(:in-theory (disable d))"))),
    )
    h = find_hint(_goal(clause, w))
    assert h.enable == ("D",) and not h.disable


def test_find_hint_rejects_residual_calls():
    w = _dworld()
    with pytest.raises(ProcessError, match="residual call"):
        find_hint(_goal((_hyp_lit(tr("(d x y)", w)),), w))


def test_find_hint_rejects_processor_collision():
    w = _dworld()
    carried = Const(parse_one("(:clause-processor drop-termhint-hyp)"))
    with pytest.raises(ProcessError, match="clause processor"):
        find_hint(_goal((_hyp_lit(carried),), w))


def test_find_hint_seq_stages():
    w = _dworld()
    stage2_term = tr("''(:in-theory (disable d))", w)
    carried = App(SEQ_FN, (
        Const(parse_one("(:in-theory (enable d))")),
        App("HIDE", (stage2_term,)),
    ))
    h = find_hint(_goal((_hyp_lit(carried),), w))
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
    h = find_hint(_goal((_hyp_lit(carried),), w))
    assert h.clause_processor == DROP_PROCESSOR
    assert len(h.replacement) == 1


def test_one_extractor_is_armed_and_never_translated(monkeypatch):
    w = _dworld()
    calls = []
    monkeypatch.setattr(termhint, "translate_hint_expr",
                        lambda *a: calls.append(a) or translate_hint_expr(*a))
    first = use_termhint(parse_one("'nil"), w)
    carried = App(SEQ_FN, (
        Const(parse_one("(:in-theory (enable d))")),
        App("HIDE", (tr("''(:in-theory (disable d))", w),)),
    ))
    stage2 = find_hint(_goal((_hyp_lit(carried),), w)).replacement[0]
    second = use_termhint(parse_one("''(:expand ((d a b)))"), w)
    assert calls == []
    finders = [h.replacement[0] for h in (first, stage2, second)]
    assert all(f is finders[0] for f in finders)
    written = "(and stable-under-simplificationp (use-termhint-find-hint 'nil))"
    assert finders[0].expr is translate_hint_expr(parse_one(written), w)


# ---------------------------------------------------------------------------
# clause marking

def test_mark_clause_hint_and_labels():
    w = _world()
    # the spelling corpus/mark_clause.lisp uses
    h = parse_hint(parse_one("(:use ((:instance mark-clause-is-true (x 'consp-case))))"), w)
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
    events = []
    proved = prove_clause((goal,), [hint], w, StepBudget(100), events)
    assert proved
    fired = [(n, print_sexpr(render_event(k, d))) for n, k, d in events if k == "HINT"]
    assert fired[0][0] == "Goal"
    assert fired[1] == ("Subgoal 1", "(:EXPAND ((D P Q)) :CLAUSE-PROCESSOR DROP-TERMHINT-HYP)")
    assert events[-1] == ("Subgoal 1.1", "PROVED", T)


# ---------------------------------------------------------------------------
# An extracted quoted value is read without being evaluated

@pytest.mark.parametrize("text, evaluations_wanted", [
    ("'nil", 0),
    ("'(:expand ((d x y)))", 0),
    ("'(:use ((:instance use-termhint-hyp-is-true (x (d y z)))))", 0),
    ("''(:use use-termhint-hyp-is-true)", 0),
    ("'(a b)", 0),
    ("(:in-theory (enable d))", 0),
    ("nil", 1),
])
def test_quoted_hint_value_reads_as_its_evaluation(text, evaluations_wanted, monkeypatch):
    w = _dworld()
    ctx = _goal((tr("(d x y)", w),), w)
    v = parse_one(text)

    def outcome(run):
        try:
            return run()
        except HintError as e:
            return f"HintError: {e}"

    def evaluated():
        hint = eval_computed_hint(ComputedHint(expr=translate_hint_expr(keyword_fixup(v), w)), ctx)
        return hint if hint is not None else Hint()

    want = outcome(evaluated)
    evaluations = []
    monkeypatch.setattr(termhint, "eval_computed_hint",
                        lambda ch, c: evaluations.append(ch) or eval_computed_hint(ch, c))
    got = outcome(lambda: termhint._read_hint(Const(v), ctx))
    assert same_fields(got, want)
    assert len(evaluations) == evaluations_wanted  # a quoted value skips it


def test_a_carried_goal_term_is_not_translated_back(monkeypatch):
    w = _dworld()
    u = tr("(d (d x y) (car z))", w)
    target = App("CONS", (App("HQ", (u,)), CONST_NIL))
    carried = App("CONS", (Const(Keyword("EXPAND")), App("CONS", (target, CONST_NIL))))
    ctx = _goal((_hyp_lit(carried), tr("(d x y)", w)), w)
    forms = []
    translate_form = Translator.tr
    monkeypatch.setattr(Translator, "tr", lambda self, f: forms.append(f) or translate_form(self, f))
    hint = find_hint(ctx)
    assert hint.expand == (u,) and hint.expand[0] is u
    assert forms == [unparse(u)]  # read from the translator's table, not rebuilt


# ---------------------------------------------------------------------------
# What extraction says when a carried value is no hint

_NEITHER = "hint value is neither NIL, a keyword list, nor a quoted keyword list: "


@pytest.mark.parametrize("hint_term, error", [
    ("'\"str\"", _NEITHER + '"str"'),
    ("''7", _NEITHER + "7"),
    ("''(a b)", _NEITHER + "(A B)"),
    ("'':use", _NEITHER + ":USE"),
    ("'(quote)", "malformed quote"),
    ("'(quote a b)", "malformed quote"),
    ("'(:use . x)", "cannot translate: (:USE . X)"),
    ("(cons (hq x) 'nil)", "unknown function: X"),
    ("'''(a b)", "quoted hint value is not a keyword list: (QUOTE (A B))"),
])
def test_extraction_error_texts(hint_term, error, tmp_path, capsys):
    path = tmp_path / "bad.lisp"
    path.write_text(f"(defthm c (consp x) :hints ((use-termhint {hint_term})))")
    assert main([str(path)]) == 1
    out, err = capsys.readouterr()
    assert "THEOREM C FAILED" in out
    assert err == f"ERROR {path} C: {error}\n"


@pytest.mark.parametrize("events", [
    "(defthm c1 (consp x) :hints ((use-termhint '(use-termhint-find-hint clause))))",
    """(register-hint-fn again (use-termhint-find-hint clause))
       (defthm c1 (consp x) :hints ((use-termhint '(again))))""",
    """(defstub p 1)
       (register-hint-fn again (use-termhint-find-hint clause))
       (defthm c1 (consp x)
         :hints ((use-termhint (if (p x) '(again) ''(:in-theory (enable))))))""",
])
def test_an_extracted_hint_cannot_reenter_the_finder(events, tmp_path, capsys):
    path = tmp_path / "again.lisp"
    path.write_text(events)
    assert main([str(path)]) == 1
    out, err = capsys.readouterr()
    assert "THEOREM C1 FAILED" in out
    assert re.fullmatch(
        rf"ERROR {re.escape(str(path))} C1: the hint extracted on Subgoal [.\d]+ "
        rf"calls {FIND_FN} on it again\n", err)


def test_the_finder_may_run_again_once_a_read_ends(tmp_path, capsys):
    # TWICE calls the finder twice on Subgoal 1.  Each call evaluates the
    # carried (H) with the finder closed to it and reopens it when done, so
    # the second call reads the hint as the first did.
    path = tmp_path / "twice.lisp"
    path.write_text(
        "(defstub p 1) (register-hint-fn h '(:in-theory (enable)))"
        " (register-hint-fn twice (if (use-termhint-find-hint clause)"
        " (use-termhint-find-hint clause) 'nil))"
        " (defthm c (p x) :rule-classes nil :hints (twice (use-termhint '(h))))")
    assert main(["--trace", "--checkpoints", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[2:] == [
        "EVENT Subgoal 1 HINT (:CLAUSE-PROCESSOR DROP-TERMHINT-HYP)",
        "EVENT Subgoal 1.1 SIMPLIFY (STABLE ((P X)))",
        "EVENT Subgoal 1.1 CHECKPOINT ((P X))",
        "THEOREM C FAILED steps=0",
        "CHECKPOINT Subgoal 1.1",
        "  ((P X))",
        "PROVED 0/1",
    ]


# ---------------------------------------------------------------------------
# A hint guarded by stable-under-simplificationp waits for a stable goal

_SPLIT2 = """
(defstub p0 1) (defstub p1 1)
(defstub g0 1) (defstub g1 1) (defstub h0 1) (defstub h1 1)
(defund fw2 (a0 a1) (cons a0 a1))
(defthm split2
  (equal (fw2 (if (p0 x) (g0 x) (h0 x)) (if (p1 x) (h1 x) (g1 x)))
         (cons (if (p0 x) (g0 x) (h0 x)) (if (p1 x) (h1 x) (g1 x))))
  :rule-classes nil
  :hints ({}))
"""
_SPLIT2_HINT = ("(let* ((t0 (if (p0 x) (g0 x) (h0 x))) (t1 (if (p1 x) (h1 x) (g1 x))))"
                " `'(:expand ((fw2 ,(hq t0) ,(hq t1)))))")


def _traced_run(tmp_path, monkeypatch, hint, name):
    """The trace of _SPLIT2 under hint, and each hint expression evaluated
    with the goal's name and whether it was stable."""
    seen = []
    real = hints_mod.eval_hint_expr
    monkeypatch.setattr(hints_mod, "eval_hint_expr",
                        lambda t, ctx: seen.append((t, ctx.goal_name, ctx.stable)) or real(t, ctx))
    path = tmp_path / name
    path.write_text(_SPLIT2.format(hint))
    report = run([str(path)])
    assert report.exit_code == 0
    monkeypatch.setattr(hints_mod, "eval_hint_expr", real)
    text = format_report(report, trace=True, checkpoints=True)
    return text, seen, report.files[0].theorems[0]


def test_the_finder_runs_once_per_stable_goal(tmp_path, monkeypatch):
    finder = use_termhint(parse_one("'nil"), _world()).replacement[0]
    assert finder.stable_only
    _, seen, thm = _traced_run(tmp_path, monkeypatch, f"(use-termhint {_SPLIT2_HINT})", "a.lisp")
    stable = [n for n, k, d in thm.events if k == "SIMPLIFY" and d[0] == "STABLE"]
    assert len(stable) == 4  # one for each branch of the split
    assert [(n, s) for t, n, s in seen if t is finder.expr] == [(n, True) for n in stable]


def test_a_written_stable_guard_traces_alike_skipped_or_not(tmp_path, monkeypatch):
    # The extractor written out by hand: skipping it on unstable goals
    # changes nothing the trace shows, and the trace is use-termhint's
    written = ("(:computed-hint-replacement"
               " ((and stable-under-simplificationp (use-termhint-find-hint clause)))"
               " :use ((:instance use-termhint-hyp-is-true (x {}))))").format(_SPLIT2_HINT)
    skipped, seen, thm = _traced_run(tmp_path, monkeypatch, written, "a.lisp")
    (guarded,) = thm.events[0][2].replacement
    assert guarded.stable_only
    assert all(s for t, _, s in seen if t is guarded.expr)
    monkeypatch.setattr(hints_mod, "_STABLE", None)  # what is built now is never stable-only
    evaluated, seen_all, _ = _traced_run(tmp_path, monkeypatch, written, "a.lisp")
    assert len(seen_all) > len(seen)
    assert skipped == evaluated
    monkeypatch.undo()
    assert skipped == _traced_run(tmp_path, monkeypatch, f"(use-termhint {_SPLIT2_HINT})",
                                  "a.lisp")[0]
