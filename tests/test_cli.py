import pytest

from hintprover.sexpr import parse_one, print_sexpr, to_list
from hintprover.term import App, Const, Var, translate
from hintprover.world import World
from hintprover.cli import (
    EventError, _do_defun, convert_rule, format_report, main, run,
)


def evfile(tmp_path, text, name="events.lisp"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def tr(text, world=None):
    return translate(parse_one(text), world or World())


# ---------------------------------------------------------------------------
# events

def test_trivial_file_proves(tmp_path):
    path = evfile(tmp_path, """
      (defstub f 1)
      (defthm f-is-f (equal (f x) (f x)) :rule-classes nil)
    """)
    report = run([path])
    assert report.exit_code == 0
    t = report.files[0].theorems[0]
    assert t.name == "F-IS-F" and t.proved and t.steps == 0


def test_defun_and_defund_visibility(tmp_path):
    path = evfile(tmp_path, """
      (defun open-d (x) (cons x x))
      (defund closed-d (x) (cons x x))
      (defthm open-unfolds (equal (open-d a) (cons a a)) :rule-classes nil)
      (defthm closed-stays (equal (closed-d a) (cons a a)) :rule-classes nil)
      (defthm closed-opens-by-hint (equal (closed-d a) (cons a a))
        :rule-classes nil
        :hints ((:in-theory (enable closed-d))))
    """)
    report = run([path])
    assert report.exit_code == 1
    proved = {t.name: t.proved for t in report.files[0].theorems}
    assert proved == {"OPEN-UNFOLDS": True, "CLOSED-STAYS": False,
                      "CLOSED-OPENS-BY-HINT": True}


def test_defun_normalization_flag():
    w = World()
    _do_defun(w, to_list(parse_one("(defun n1 (p q) (cons (if p 'a 'b) q))")),
              enabled=True)
    assert w.definitions["N1"].body == tr("(if p (cons 'a q) (cons 'b q))")


def test_defun_normalize_nil_keeps_shape():
    w = World()
    _do_defun(w, to_list(parse_one(
        "(defun n2 (p q) (declare (xargs :normalize nil)) (cons (if p 'a 'b) q))")),
        enabled=True)
    assert w.definitions["N2"].body == tr("(cons (if p 'a 'b) q)")
    with pytest.raises(EventError):
        _do_defun(w, to_list(parse_one(
            "(defun n3 (p) (declare (ignore p)) 'nil)")), enabled=True)


def test_defun_rejects_stray_variables(tmp_path):
    path = evfile(tmp_path, "(defun leaky (x) (cons x y))")
    report = run([path])
    assert report.exit_code == 2
    assert "free variables" in report.files[0].error


def test_recursive_defun_is_accepted(tmp_path):
    path = evfile(tmp_path, """
      (defun len2 (x) (if (consp x) (cons 'i (len2 (cdr x))) 'nil))
      (defthm len2-nil (equal (len2 'nil) 'nil)
        :rule-classes nil :hints ((:expand ((len2 'nil)))))
    """)
    assert run([path]).exit_code == 0


def test_bad_events_are_file_errors(tmp_path):
    cases = [
        "(defstub f)",                     # missing arity
        "(defstub f 'x)",                  # arity not an int
        "(frobnicate)",                    # unknown event
        "42",                              # not an event at all
        "(defun d (x) (cons x x)) (defun d (x) x)",   # duplicate
        "(in-theory (enable nonesuch))",
        "(defthm t1 (equal x x) :rule-classes nil :otf-flg t)",
        "(defthm t2 (equal x x))",         # default rule-classes, no call on the left
        "(defthm t3 (equal x x) :rule-classes nil :hints (42))",
        "(defthm t4 (equal x x) :rule-classes nil :hints ((:frob x)))",
        "(register-hint-fn h)",
    ]
    for text in cases:
        report = run([evfile(tmp_path, text)])
        assert report.exit_code == 2, text
        assert report.files[0].error


@pytest.mark.parametrize("rule_classes", ["", ":rule-classes nil"])
def test_malformed_implies_is_a_file_error(tmp_path, capsys, rule_classes):
    path = evfile(tmp_path, f"""
      (defstub f 1)
      (defthm bad (implies (f x)) {rule_classes})
    """)
    assert main([path]) == 2  # returned, not raised: no traceback
    err = capsys.readouterr().err
    assert f"ERROR {path}: in BAD: IMPLIES expects two arguments" in err


def test_file_error_aborts_rest_of_file(tmp_path):
    path = evfile(tmp_path, """
      (defthm ok (equal (cons x y) (cons x y)) :rule-classes nil)
      (frobnicate)
      (defthm never-reached (equal x x) :rule-classes nil)
    """)
    report = run([path])
    assert report.exit_code == 2
    assert [t.name for t in report.files[0].theorems] == ["OK"]


def test_parse_error_is_file_error(tmp_path, capsys):
    report = run([evfile(tmp_path, "(defstub f 1")])
    assert report.exit_code == 2
    report = run([str(tmp_path / "missing.lisp")])
    assert report.exit_code == 2
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == [
        f"ERROR {tmp_path / 'events.lisp'}", f"ERROR {tmp_path / 'missing.lisp'}"]


def test_deep_term_in_file_is_file_error(tmp_path, capsys):
    deep = "(car " * 600 + "x" + ")" * 600
    path = evfile(tmp_path, f"(defthm deep (equal {deep} y) :rule-classes nil)")
    assert main([path]) == 2  # returned, not raised: no traceback
    assert f"ERROR {path}: " in capsys.readouterr().err


def test_deep_goal_fails_with_error(tmp_path, capsys):
    deep = "(cons " * 300 + "x" + " y)" * 300
    path = evfile(tmp_path, f"(defthm deep (equal {deep} {deep}) :rule-classes nil)")
    assert main([path]) == 1
    out, err = capsys.readouterr()
    assert "THEOREM DEEP FAILED" in out
    assert f"ERROR {path} DEEP: " in err


def test_register_hint_fn_runs_per_goal(tmp_path):
    path = evfile(tmp_path, """
      (defund d (x) (cons x x))
      (register-hint-fn open-d
        (and stable-under-simplificationp '(:in-theory (enable d))))
      (defthm d-opens (equal (d a) (cons a a))
        :rule-classes nil :hints (open-d))
    """)
    report = run([path])
    assert report.exit_code == 0
    t = report.files[0].theorems[0]
    hints = [(g, print_sexpr(p)) for g, k, p in t.events if k == "HINT"]
    assert hints == [("Goal", "(:IN-THEORY (ENABLE D))")]


def test_unknown_hint_fn_reference(tmp_path):
    path = evfile(tmp_path,
                  "(defthm t1 (equal x x) :rule-classes nil :hints (nonesuch))")
    assert run([path]).exit_code == 2


def test_use_termhint_hint_entry(tmp_path):
    path = evfile(tmp_path, """
      (defund d (x) (cons x x))
      (defthm d-opens (equal (d a) (cons a a))
        :rule-classes nil
        :hints ((use-termhint `'(:expand (,(hq (d a)))))))
    """)
    report = run([path])
    assert report.exit_code == 0
    t = report.files[0].theorems[0]
    fired = [print_sexpr(p) for _, k, p in t.events if k == "HINT"]
    assert fired[-1] == "(:EXPAND ((D A)) :CLAUSE-PROCESSOR DROP-TERMHINT-HYP)"


# ---------------------------------------------------------------------------
# proof failures keep the run alive

def test_hint_application_error_fails_theorem(tmp_path, capsys):
    path = evfile(tmp_path, """
      (defthm bad-use (equal (cons x y) (cons x y))
        :rule-classes nil :hints ((:use nonesuch)))
      (defthm still-fine (equal (cons x y) (cons x y)) :rule-classes nil)
    """)
    report = run([path])
    assert report.exit_code == 1
    t1, t2 = report.files[0].theorems
    assert not t1.proved and "NONESUCH" in t1.error
    assert t2.proved
    assert "ERROR" in capsys.readouterr().err


def test_failed_theorem_is_not_usable_later(tmp_path):
    path = evfile(tmp_path, """
      (defstub f 1)
      (defthm failing (f x) :rule-classes nil)
      (defthm leaning (equal (cons x x) (cons x x))
        :rule-classes nil :hints ((:use failing)))
    """)
    report = run([path])
    t1, t2 = report.files[0].theorems
    assert not t1.proved
    assert not t2.proved and "FAILING" in t2.error


def test_proved_rewrite_theorem_becomes_a_rule(tmp_path):
    path = evfile(tmp_path, """
      (defund d (x) (cons x x))
      (defthm d-opens (equal (d a) (cons a a))
        :hints ((:in-theory (enable d))))
      (defthm uses-rule (equal (d q) (cons q q)) :rule-classes nil)
    """)
    report = run([path])
    assert report.exit_code == 0
    assert report.files[0].theorems[1].steps == 1   # one rule application


def test_max_steps_exhaustion(tmp_path, capsys):
    path = evfile(tmp_path, """
      (defun d (x) (cons x x))
      (defthm d-opens (equal (d a) (cons a a)) :rule-classes nil)
    """)
    report = run([path], max_steps=0)
    assert report.exit_code == 1
    t = report.files[0].theorems[0]
    assert not t.proved and t.error is not None
    assert "ERROR" in capsys.readouterr().err


def _goal_budget_failure(path, capsys):
    assert main([path, "--max-steps", "10"]) == 1  # returned: no traceback
    out, err = capsys.readouterr()
    assert "FAILED steps=0" in out
    assert "goal budget of 10 exhausted" in err


def test_rearming_hint_runs_out_of_goals(tmp_path, capsys):
    path = evfile(tmp_path, """
      (register-hint-fn again '(:computed-hint-replacement ((again))))
      (defthm loops (equal x x) :rule-classes nil :hints (again))
    """)
    _goal_budget_failure(path, capsys)


def test_case_splits_run_out_of_goals(tmp_path, capsys):
    body = "x"
    for i in range(6):  # 2^6 leaves, no rewrite steps
        body = f"(cons (if (f a{i}) x y) {body})"
    path = evfile(tmp_path, f"(defstub f 1) (defthm splits (f {body}) :rule-classes nil)")
    _goal_budget_failure(path, capsys)


def test_stop_on_failure_within_and_across_files(tmp_path):
    f1 = evfile(tmp_path, """
      (defstub f 1)
      (defthm fails (f x) :rule-classes nil)
      (defthm after (equal x x) :rule-classes nil)
    """, "a.lisp")
    f2 = evfile(tmp_path, "(defthm fine (equal (cons x x) (cons x x)) :rule-classes nil)",
                "b.lisp")
    report = run([f1, f2], stop_on_failure=True)
    assert len(report.files) == 1
    assert [t.name for t in report.files[0].theorems] == ["FAILS"]
    report = run([f1, f2])
    assert len(report.files) == 2
    assert len(report.files[0].theorems) == 2


# ---------------------------------------------------------------------------
# convert_rule

def _fg_world():
    w = World()
    w.add_stub("F", 1)
    w.add_stub("G", 1)
    return w


def test_convert_rule_shapes():
    w = _fg_world()
    r = convert_rule("R", parse_one("(equal (f x) (g x))"), w)
    assert (r.lhs, r.rhs, r.hyps, r.equiv) == (
        tr("(f x)", w), tr("(g x)", w), (), "EQUAL")
    r = convert_rule("R", parse_one("(iff (f x) (g x))"), w)
    assert r.equiv == "IFF"
    r = convert_rule("R", parse_one("(not (f x))"), w)
    assert (r.rhs, r.equiv) == (Const(parse_one("nil")), "IFF")
    r = convert_rule("R", parse_one("(f x)"), w)
    assert (r.rhs, r.equiv) == (Const(parse_one("t")), "IFF")


def test_convert_rule_hypotheses_flatten():
    w = _fg_world()
    r = convert_rule(
        "R", parse_one("(implies (and (consp x) (f x)) (equal (f x) (g x)))"), w)
    assert r.hyps == (tr("(consp x)", w), tr("(f x)", w))
    r = convert_rule(
        "R", parse_one("(implies (consp x) (implies (f x) (equal (f x) (g x))))"), w)
    assert len(r.hyps) == 2


def test_convert_rule_errors():
    w = _fg_world()
    with pytest.raises(EventError, match="function call"):
        convert_rule("R", parse_one("(equal x (f x))"), w)
    with pytest.raises(EventError, match="free variables"):
        convert_rule("R", parse_one("(equal (f x) (g y))"), w)
    with pytest.raises(EventError, match="free variables"):
        convert_rule("R", parse_one("(implies (consp y) (equal (f x) 'nil))"), w)


# ---------------------------------------------------------------------------
# report formatting and the entry point

def test_format_report_plain(tmp_path):
    path = evfile(tmp_path, """
      (defstub f 1)
      (defthm good (equal (f x) (f x)) :rule-classes nil)
      (defthm bad (f x) :rule-classes nil)
    """)
    report = run([path])
    text = format_report(report)
    assert text == (
        f"FILE {path}\n"
        "THEOREM GOOD PROVED steps=0\n"
        "THEOREM BAD FAILED steps=0\n"
        "PROVED 1/2\n"
    )


def test_format_report_trace_and_checkpoints(tmp_path):
    path = evfile(tmp_path, """
      (defstub f 1)
      (defthm bad (f x) :rule-classes nil)
    """)
    report = run([path])
    text = format_report(report, trace=True, checkpoints=True)
    assert text == (
        f"FILE {path}\n"
        "EVENT Goal SIMPLIFY (STABLE ((F X)))\n"
        "EVENT Goal CHECKPOINT ((F X))\n"
        "THEOREM BAD FAILED steps=0\n"
        "CHECKPOINT Goal\n"
        "  ((F X))\n"
        "PROVED 0/1\n"
    )


def test_checkpoint_labels_in_report(tmp_path):
    path = evfile(tmp_path, """
      (defstub f 1)
      (defthm marked (f x)
        :rule-classes nil
        :hints ((:use ((:instance mark-clause-is-true (x 'my-label))))))
    """)
    text = format_report(run([path]), checkpoints=True)
    assert "CHECKPOINT Subgoal 1 [MY-LABEL]" in text


def test_main_smoke(tmp_path, capsys):
    path = evfile(tmp_path,
                  "(defthm ok (equal (cons a b) (cons a b)) :rule-classes nil)")
    code = main([path])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("PROVED 1/1\n")
    code = main([path, "--trace", "--checkpoints", "--max-steps", "50"])
    assert code == 0
    assert "EVENT Goal PROVED T" in capsys.readouterr().out
