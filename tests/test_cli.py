import gc
import hashlib
import os
import re
import select
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import hintprover
from hintprover.sexpr import Pair, T, parse_one, print_sexpr, to_list
from hintprover.term import App, Const, LamApp, Translator, Var, translate
from hintprover.world import World
from hintprover.hints import Hint, clausify
from hintprover.cli import (
    EVENT_HANDLERS, EventError, _do_defthm, _do_defun, convert_rule, format_report, main,
    process_file, render_event, run,
)


def evfile(tmp_path, text, name="events.lisp"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def tr(text, world=None):
    return translate(parse_one(text), world or World())


def _child_env(**extra):
    """The environment for a prover subprocess that imports this package.
    PYTHONUNBUFFERED is left out, so the child buffers stdout as it does
    for a user."""
    src = str(Path(hintprover.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **extra)
    env.pop("PYTHONUNBUFFERED", None)
    return env


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
    _do_defun(w, to_list(parse_one("(defun n1 (p q) (cons (if p 'a 'b) q))")), 10000)
    assert w.definitions["N1"].rhs == tr("(if p (cons 'a q) (cons 'b q))")


def test_defun_normalize_nil_keeps_shape():
    w = World()
    _do_defun(w, to_list(parse_one(
        "(defun n2 (p q) (declare (xargs :normalize nil)) (cons (if p 'a 'b) q))")), 10000)
    assert w.definitions["N2"].rhs == tr("(cons (if p 'a 'b) q)")
    with pytest.raises(EventError):
        _do_defun(w, to_list(parse_one(
            "(defun n3 (p) (declare (ignore p)) 'nil)")), 10000)


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


@pytest.mark.parametrize("entry, message", [
    ("(use-termhint (hq))", "HQ expects 1 arguments, got 0"),
    ("(:frob x)", "unknown hint keyword: :FROB"),
    ("(use-termhint)", "use-termhint expects one form"),
    ("nonesuch", "unknown hint function: NONESUCH"),
    ("7", "unrecognized hint entry: 7"),
])
def test_bad_hint_entry_names_the_theorem(tmp_path, capsys, entry, message):
    path = evfile(tmp_path, f"""
      (defstub f 1)
      (defthm bad (f x) :rule-classes nil :hints ({entry}))
    """)
    assert main([path]) == 2
    assert f"ERROR {path}: in BAD: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "(let ((x 1) (x 2)) (equal x 2))",
    "(equal ((lambda (x x) x) y y) y)",
])
def test_duplicate_binder_is_a_file_error(tmp_path, capsys, body):
    # one binder list binds a variable once; the last binding never wins
    path = evfile(tmp_path, f"(defthm a {body} :rule-classes nil)")
    assert main([path]) == 2
    assert f"ERROR {path}: in A: duplicate binder: X\n" in capsys.readouterr().err


def test_sequential_binders_may_rebind(tmp_path):
    path = evfile(tmp_path, """
      (defthm s (let* ((x 1) (x (cons x x))) (equal x '(1 . 1))) :rule-classes nil)
      (defthm b (b* ((x 1) (x (cons x x))) (equal x '(1 . 1))) :rule-classes nil)
    """)
    report = run([path])
    assert report.exit_code == 0
    assert [t.proved for t in report.files[0].theorems] == [True, True]


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


def test_undecodable_file_is_file_error(tmp_path):
    bad = tmp_path / "bad.lisp"
    bad.write_bytes(b"\xff(defstub f 1)\n")
    done = subprocess.run([sys.executable, "-c", "from hintprover.cli import entry; entry()",
                           str(bad)], capture_output=True, text=True, timeout=60,
                          env=_child_env())
    assert done.returncode == 2
    assert done.stderr == f"ERROR {bad}: not utf-8 text: invalid start byte\n"
    assert done.stdout == f"FILE {bad}\nPROVED 0/0\n"


def test_files_and_report_are_utf8_whatever_the_locale(tmp_path):
    # a C locale's ASCII neither rejects the comment nor fails the trace line
    a = evfile(tmp_path, '; café\n(defstub p 1)\n(defthm a (p "café") :rule-classes nil)',
               "a.lisp")
    b = evfile(tmp_path, "(defstub p 1)\n(defthm b (p (cafè x)))", "b.lisp")
    runs = [
        subprocess.run([sys.executable, "-c", "from hintprover.cli import entry; entry()",
                        "--trace", "--checkpoints", a, b], capture_output=True, timeout=60,
                       env={k: v for k, v in _child_env(**locale).items()
                            if k != "PYTHONIOENCODING"})
        for locale in [dict(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0"),
                       dict(PYTHONUTF8="1")]
    ]
    assert runs[0].returncode == runs[1].returncode == 2
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr == f"ERROR {b}: in B: unknown function: CAFÈ\n".encode()
    assert f'EVENT Goal CHECKPOINT ((P (QUOTE "café")))\n'.encode() in runs[0].stdout


def test_module_form_runs_with_a_clean_stderr():
    smoke = Path(__file__).resolve().parent.parent / "corpus" / "smoke.lisp"
    done = subprocess.run([sys.executable, "-m", "hintprover.cli", str(smoke)],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert done.returncode == 0
    assert done.stderr == ""


def test_closed_stdout_ends_without_a_traceback():
    # --trace over the corpus four times writes more than a pipe holds, so
    # the prover is still writing when the reader goes away after one line
    corpus = sorted(str(p) for p in (Path(__file__).resolve().parent.parent / "corpus")
                    .glob("*.lisp"))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from hintprover.cli import entry; entry()",
         "--trace", *corpus * 4],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env())
    assert proc.stdout.readline().startswith("FILE ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert "Traceback" not in err and "Exception ignored" not in err
    assert proc.returncode == 128 + 13  # as if killed by SIGPIPE


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
def test_a_file_block_goes_out_before_the_next_file_opens(tmp_path):
    # The prover blocks opening the FIFO until something writes to it; by
    # then a.lisp's block must already have reached the reader.
    a = evfile(tmp_path, "(defstub p 1)\n(defthm a (equal (p x) (p x)) :rule-classes nil)",
               "a.lisp")
    fifo = tmp_path / "fifo.lisp"
    os.mkfifo(fifo)
    proc = subprocess.Popen([sys.executable, "-m", "hintprover.cli", a, str(fifo)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    got = b""
    deadline = time.monotonic() + 10
    while got.count(b"\n") < 2 and select.select([proc.stdout], [], [],
                                                  max(0, deadline - time.monotonic()))[0]:
        chunk = os.read(proc.stdout.fileno(), 4096)
        if not chunk:
            break
        got += chunk
    deadline = time.monotonic() + 60
    while proc.poll() is None and time.monotonic() < deadline:  # release the prover
        try:
            fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
        except OSError:  # no reader yet
            time.sleep(0.01)
            continue
        os.write(fd, b"(defstub q 1)\n")
        os.close(fd)
        break
    out, err = proc.communicate(timeout=60)
    assert got == f"FILE {a}\nTHEOREM A PROVED steps=0\n".encode()
    assert (proc.returncode, got + out, err) == (
        0, f"FILE {a}\nTHEOREM A PROVED steps=0\nFILE {fifo}\nPROVED 1/1\n".encode(), b"")


def test_dotted_list_in_a_statement_names_the_theorem(tmp_path, capsys):
    path = evfile(tmp_path, "(defstub g 1)(defstub f 1)(defthm r (implies (g . x) (f x)))")
    assert main([path]) == 2
    err = capsys.readouterr().err
    assert f"ERROR {path}: in R: improper list where a proper list was expected" in err


def test_deep_term_in_file_is_file_error(tmp_path, capsys):
    deep = "(car " * 2000 + "x" + ")" * 2000
    path = evfile(tmp_path, f"(defthm deep (equal {deep} y) :rule-classes nil)")
    assert main([path]) == 2  # returned, not raised: no traceback
    assert f"ERROR {path}: " in capsys.readouterr().err


def test_deep_goal_and_wide_conjunction_prove(tmp_path, capsys):
    # Both sides of EQUAL are one interned term, so no comparison recurses;
    # AND folds its IF chain in a loop, so 600 conjuncts cost no depth.
    deep = "(cons " * 300 + "x" + " y)" * 300
    goal = evfile(tmp_path, f"(defthm deep (equal {deep} {deep}) :rule-classes nil)")
    conjuncts = " ".join(f"(p x{i})" for i in range(600))
    wide = evfile(tmp_path, f"""
      (defstub p 1)
      (defthm w (implies (and {conjuncts}) (p x0)) :rule-classes nil)
    """, "wide.lisp")
    assert main([goal, wide]) == 0
    out, err = capsys.readouterr()
    assert "THEOREM DEEP PROVED" in out and "THEOREM W PROVED" in out
    assert err == ""


def test_deep_term_proves_from_the_command_line(tmp_path):
    # The translator takes one frame per nesting level, so a 600-deep
    # term fits the stack of the command line's own start.
    deep = "(car " * 600 + "x" + ")" * 600
    goal = evfile(tmp_path, f"(defthm deep (equal {deep} {deep}) :rule-classes nil)")
    done = subprocess.run([sys.executable, "-m", "hintprover.cli", goal],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert (done.returncode, done.stderr) == (0, "")
    assert "THEOREM DEEP PROVED" in done.stdout


def test_deep_term_is_reported_from_the_command_line(tmp_path):
    # A 900-deep goal stays unproved: its trace and its checkpoint print the
    # whole term, from the stack of the command line's own start.
    deep = "(car " * 900 + "x" + ")" * 900
    goal = evfile(tmp_path, f"(defstub p 1) (defthm deep (p {deep}) :rule-classes nil)")
    done = subprocess.run([sys.executable, "-m", "hintprover.cli", "--trace", "--checkpoints",
                           goal], capture_output=True, text=True, timeout=60, env=_child_env())
    assert (done.returncode, done.stderr) == (1, "")
    lines = done.stdout.splitlines()
    assert "CHECKPOINT Goal" in lines
    whole = "(P " + "(CAR " * 900 + "X" + ")" * 901
    assert any(l.startswith("EVENT ") and whole in l for l in lines)


def test_long_let_star_proves_from_the_command_line(tmp_path):
    # LET* binds in a loop, not through one nested LET form per binding,
    # so 800 bindings cost no more translation depth than one
    n = 800
    binds = " ".join(f"(v{i} {'x' if i == 0 else f'v{i - 1}'})" for i in range(n))
    goal = evfile(tmp_path, f"(defthm a (equal (let* ({binds}) v{n - 1}) x) :rule-classes nil)")
    done = subprocess.run([sys.executable, "-m", "hintprover.cli", goal],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith("PROVED 1/1\n")


def test_long_bstar_proves_from_the_command_line(tmp_path):
    # B* translates its binders in a loop, not through one nested form per
    # binder, so 800 binders cost no more translation depth than one
    n = 800
    binds = " ".join(f"(v{i} {'x' if i == 0 else f'v{i - 1}'})" for i in range(n))
    goal = evfile(tmp_path, f"(defthm a (equal (b* ({binds}) v{n - 1}) x) :rule-classes nil)")
    done = subprocess.run([sys.executable, "-m", "hintprover.cli", goal],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith("PROVED 1/1\n")


def test_long_bstar_of_when_binders_proves_from_the_command_line(tmp_path):
    # beta_reduce rebuilds a call's arguments and a lambda's actuals in
    # loops, one frame per level, so 450 pairs of a plain and a WHEN binder
    # fit the stack of the command line's own start
    n = 450
    binds = " ".join(f"(v{i} v{i - 1}) ((when (consp v{i})) v{i})" for i in range(1, n + 1))
    goal = evfile(tmp_path, f"(defthm a (equal (b* ((v0 x) {binds}) v{n}) x) :rule-classes nil)")
    done = subprocess.run([sys.executable, "-m", "hintprover.cli", goal],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.endswith("PROVED 1/1\n")


def _cars(n, inner):
    return "(car " * n + inner + ")" * n


def test_deep_split_and_expand_prove_from_the_command_line(tmp_path):
    # replace_subterm and expand_calls walk through term.rebuild, one frame
    # per level, so an IF split and an :expand 900 levels down fit the
    # stack of the command line's own start
    goal = evfile(tmp_path, f"""
      (defstub q 1)
      (defund f (x) (if (q x) x x))
      (defthm a (equal {_cars(900, "(f x)")} {_cars(900, "x")})
        :rule-classes nil :hints ((:expand ((f x)))))
      (defthm b (equal {_cars(900, "(if (q x) x x)")} {_cars(900, "x")}) :rule-classes nil)
    """)
    done = subprocess.run([sys.executable, "-m", "hintprover.cli", goal],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert (done.returncode, done.stderr) == (0, "")
    assert "THEOREM A PROVED" in done.stdout and "THEOREM B PROVED" in done.stdout
    assert done.stdout.endswith("PROVED 2/2\n")


def test_deep_definition_installs_from_the_command_line(tmp_path):
    # free_vars and normalize_definition map a call's arguments in a loop,
    # one frame per level, so a 900-deep body installs and its rule fires
    goal = evfile(tmp_path, f"""
      (defun g (x) {_cars(900, "x")})
      (defthm a (equal (g x) {_cars(900, "x")}) :rule-classes nil)
      (defthm b (equal (g (cons x y)) {_cars(900, "(cons x y)")}) :rule-classes nil)
    """)
    done = subprocess.run([sys.executable, "-m", "hintprover.cli", goal],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert (done.returncode, done.stderr) == (0, "")
    assert "THEOREM A PROVED steps=1" in done.stdout and "THEOREM B PROVED steps=1" in done.stdout
    assert done.stdout.endswith("PROVED 2/2\n")


@pytest.mark.parametrize("n, flags, limit", [
    (13, [], None),  # its folds build 2^13 - 1 = 8,191 cells, within the default
    (14, [], 10000),
    (22, [], 10000),
    (22, ["--max-steps", "0"], 0),
])
def test_constant_folding_counts_against_the_bound(tmp_path, capsys, n, flags, limit):
    # Each binding appends the last list to itself.  A fold of
    # (binary-append x y) builds len(x) cells, so the n folds build
    # 2^n - 1 in all: 4 million at n = 22, where the bound stops them.
    binds = " ".join(f"(v{i} (append v{i - 1} v{i - 1}))" for i in range(1, n + 1))
    path = evfile(tmp_path, f"(defthm a (equal (len (let* ((v0 '(a)) {binds}) v{n})) {2 ** n})"
                            " :rule-classes nil)")
    start = time.perf_counter()
    status = main([*flags, path])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    if limit is None:
        assert (status, err) == (0, "") and out.endswith("PROVED 1/1\n")
    else:
        assert status == 1 and "THEOREM A FAILED steps=0" in out and out.endswith("PROVED 0/1\n")
        assert err == f"ERROR {path} A: fold budget of {limit} cells exhausted\n"
    assert elapsed < 1.0


@pytest.mark.parametrize("n, flags, limit", [
    (13, [], None),  # its splices copy 2^13 - 1 = 8,191 cells, within the default
    (14, [], 10000),
    (22, [], 10000),
    (22, ["--max-steps", "100"], 100),
])
def test_hint_splices_count_against_the_bound(tmp_path, capsys, n, flags, limit):
    # Each binding appends the last list to itself, so the hint term is a
    # DAG of n BINARY-APPEND nodes, and reading it back copies each head:
    # 2^n - 1 cells in all, 4 million at n = 22, where the bound stops them.
    binds = " ".join(f"(v{i} (append v{i - 1} v{i - 1}))" for i in range(1, n + 1))
    path = evfile(tmp_path, "(defund f (x) (cons x x))\n"
                            "(defthm a (equal (f x) (cons x x)) :rule-classes nil :hints"
                            f" ((use-termhint (let* ((v0 (cons (hq (f x)) 'nil)) {binds})"
                            f" `'(:expand ,v{n})))))")
    start = time.perf_counter()
    status = main([*flags, path])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    if limit is None:
        assert (status, err) == (0, "") and out.endswith("PROVED 1/1\n")
    else:
        assert status == 1 and "THEOREM A FAILED steps=0" in out and out.endswith("PROVED 0/1\n")
        assert err == f"ERROR {path} A: fold budget of {limit} cells exhausted\n"
    assert elapsed < 1.0


@pytest.mark.parametrize("flags, theorem", [
    # a quoted constant, printed by the trace and by the checkpoint
    (["--trace", "--checkpoints"], "(defthm a (p '{d}) :rule-classes nil)"),
    # a mark-clause label, printed in the checkpoint's head
    (["--checkpoints"], "(defthm a (p x) :rule-classes nil\n"
                        "  :hints ((:use ((:instance mark-clause-is-true (x '{d}))))))"),
], ids=["quoted-constant", "mark-clause-label"])
def test_form_too_deep_to_print_is_a_file_error(tmp_path, flags, theorem):
    # The proof runs, but its report cannot print a form 1200 lists deep.
    # The file keeps its FILE and THEOREM lines, reports the depth as its
    # error, and the next file still runs.
    d = "(" * 1200 + ")" * 1200
    deep = evfile(tmp_path, "(defstub p 1) " + theorem.format(d=d), "deep.lisp")
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    done = subprocess.run(
        [sys.executable, "-m", "hintprover.cli", *flags,
         str(corpus / "smoke.lisp"), deep, str(corpus / "robust_member.lisp")],
        capture_output=True, text=True, timeout=60, env=_child_env())
    assert (done.returncode, done.stderr) == (2, f"ERROR {deep}: nesting depth exceeded\n")
    lines = done.stdout.splitlines()
    at = lines.index(f"FILE {deep}")
    assert lines[at + 1:at + 3] == ["THEOREM A FAILED steps=0",
                                    f"FILE {corpus / 'robust_member.lisp'}"]
    assert lines[-1] == "PROVED 13/15"


def test_a_checkpoint_too_deep_to_print_drops_the_theorems_other_lines(tmp_path, capsys):
    # Subgoal 1's checkpoint prints, Subgoal 2's holds a constant 5000
    # lists deep: the theorem keeps only its THEOREM line
    d = "(" * 5000 + ")" * 5000
    path = evfile(tmp_path, "(defstub p 1) (defstub q 1)\n"
                            f"(defthm a (if (q y) (p x) (p '{d})) :rule-classes nil)")
    assert main(["--checkpoints", path]) == 2
    assert capsys.readouterr() == (f"FILE {path}\nTHEOREM A FAILED steps=0\nPROVED 0/1\n",
                                   f"ERROR {path}: nesting depth exceeded\n")


def test_error_line_prints_a_capped_form(tmp_path, capsys):
    # The extracted hint value shares each binding twice, so its text
    # doubles per binding: 12.6 MB at n = 22.  The ERROR line shows its
    # first characters and the count of the rest.
    n = 22
    binds = ["(v0 (cons 'a 'nil))"] + [
        f"(v{i} (cons v{i - 1} (cons v{i - 1} 'nil)))" for i in range(1, n)]
    path = evfile(tmp_path, f"""
      (defstub p 1)
      (defthm a (p x) :rule-classes nil
        :hints ((use-termhint (let* ({" ".join(binds)}) (cons v{n - 1} 'nil)))))
    """)
    start = time.perf_counter()
    assert main([path]) == 1
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"ERROR {path} A: bad application head: ((((")
    assert err.endswith(" more characters)\n") and len(err) < 4096
    assert elapsed < 1.0


def test_stack_overflow_is_a_named_depth_error(tmp_path, capsys):
    deep = "(car " * 2000 + "x" + ")" * 2000
    bad = evfile(tmp_path, f"(defthm deep (equal {deep} y) :rule-classes nil)", "deep.lisp")
    assert main([bad]) == 2
    err = capsys.readouterr().err
    assert f"ERROR {bad}: nesting depth exceeded" in err
    assert "maximum recursion depth" not in err

    # Each definition opens inside the last: the rewriter nests three frames
    # per level (the call, _finish, the opened body).  Run as the command
    # line does, so the stack starts at a known depth: 328 openings fit on
    # Python 3.10 and 3.11, 329 on 3.12.
    chain = ["(defun g0 (x) (cons x 'nil))"] + [
        f"(defun g{i} (x) (cons (g{i - 1} x) 'nil))" for i in range(1, 400)]
    goal = evfile(tmp_path, "\n".join(chain) + """
      (defthm deep (equal (g399 x) y) :rule-classes nil)
    """, "chain.lisp")
    done = subprocess.run([sys.executable, "-m", "hintprover.cli", goal],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert done.returncode == 1
    assert f"ERROR {goal} DEEP: nesting depth exceeded" in done.stderr
    assert "maximum recursion depth" not in done.stderr
    steps = int(re.search(r"THEOREM DEEP FAILED steps=(\d+)", done.stdout).group(1))
    assert steps >= 328


def test_rule_whose_hypothesis_reenters_its_lhs_fails_cleanly(tmp_path, capsys):
    # B rewrites (consp x) under the hypothesis (consp x), so relieving it
    # fires B again on the same term: each round takes a step and nests
    path = evfile(tmp_path, """
      (defthm b (implies (consp x) (consp x)))
      (defthm a (consp (cons x y)))
    """)
    assert main([path, "--max-steps", "50"]) == 1
    out, err = capsys.readouterr()
    assert "THEOREM B PROVED" in out and "THEOREM A FAILED steps=50" in out
    assert err == f"ERROR {path} A: step budget of 50 exhausted\n"

    # at the default limit the stack may give out first; run as the
    # command line does, so that depth is caught where it is in use
    done = subprocess.run([sys.executable, "-m", "hintprover.cli", path],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert done.returncode == 1
    assert "THEOREM A FAILED" in done.stdout
    (line,) = done.stderr.splitlines()
    assert line.startswith(f"ERROR {path} A: ")
    assert "step budget of" in line or line.endswith("nesting depth exceeded")
    assert "Traceback" not in done.stderr


# `prover --trace --checkpoints corpus/*.lisp` from the repository root.  A
# change that means to keep the prover's behaviour keeps these bytes.
CORPUS_TRACE_SHA256 = "7e67fd5238f6d8a975662d4f388e4fb5e98e46c1b7d20b84028412a14d3e5af1"


def test_corpus_trace_is_pinned():
    root = Path(__file__).resolve().parent.parent
    files = sorted(p.relative_to(root).as_posix() for p in (root / "corpus").glob("*.lisp"))
    done = subprocess.run(
        [sys.executable, "-m", "hintprover.cli", "--trace", "--checkpoints", *files],
        cwd=root, capture_output=True, timeout=120, env=_child_env())
    assert done.returncode == 1
    assert done.stderr == b""
    assert hashlib.sha256(done.stdout).hexdigest() == CORPUS_TRACE_SHA256


def test_rules_on_general_left_sides_fire_from_the_command_line():
    # each USE- query proves only if its rule fires: a nested call twice, a
    # repeated variable, a constant argument and a nested call; (g a b)
    # meets none of them, so it fails without a step
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "hintprover.cli", "tests/data/general_lhs.lisp"],
        cwd=root, capture_output=True, text=True, timeout=60, env=_child_env())
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.splitlines() == [
        "FILE tests/data/general_lhs.lisp",
        "THEOREM G-FF PROVED steps=4",
        "THEOREM G-SAME PROVED steps=2",
        "THEOREM G-3 PROVED steps=1",
        "THEOREM F-CONS PROVED steps=1",
        "THEOREM USE-G-FF PROVED steps=1",
        "THEOREM USE-G-SAME PROVED steps=1",
        "THEOREM USE-G-3 PROVED steps=1",
        "THEOREM USE-F-CONS PROVED steps=1",
        "THEOREM G-DISTINCT-STAYS FAILED steps=0",
        "PROVED 8/9",
    ]


def test_long_quoted_list_proves(tmp_path, capsys):
    items = " ".join(str(i) for i in range(10_000))
    path = evfile(tmp_path, f"""
      (defthm same (equal '({items}) '({items})) :rule-classes nil)
      (defthm size (equal (len '({items})) 10000) :rule-classes nil)
    """)
    assert main([path]) == 0
    assert main([path, "--trace", "--checkpoints"]) == 0
    out, err = capsys.readouterr()
    assert out.count("THEOREM SAME PROVED") == 2
    assert "ERROR" not in err


def _car_nested(depth):
    """A constant nested `depth` levels deep in the car direction: ((((A))))."""
    return "(" * depth + "a" + ")" * depth


def test_deep_quoted_constant_proves(tmp_path, capsys):
    # Interning the constant hashes it; the hash walks nested cars on a stack.
    path = evfile(tmp_path, f"(defthm d (consp '{_car_nested(5000)}) :rule-classes nil)")
    assert main([path]) == 0
    out, err = capsys.readouterr()
    assert "THEOREM D PROVED" in out and err == ""


def test_two_deep_copies_of_a_constant_are_equal(tmp_path, capsys):
    # The second copy is read apart from the first, so interning it
    # compares the two cell by cell, on a stack.
    deep = _car_nested(5000)
    path = evfile(tmp_path, f"(defthm e (equal '{deep} '{deep}) :rule-classes nil)")
    assert main([path]) == 0
    out, err = capsys.readouterr()
    assert "THEOREM E PROVED" in out and err == ""


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
    hints = [(g, print_sexpr(render_event(k, d))) for g, k, d in t.events if k == "HINT"]
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
    fired = [print_sexpr(render_event(k, d)) for _, k, d in t.events if k == "HINT"]
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


@pytest.mark.parametrize("body", ["(equal x x)", "(equal x y)"])  # proves, fails
@pytest.mark.parametrize("before, name, message", [
    ("(defthm a (equal y y) :rule-classes nil)", "a", "duplicate name: A"),
    ("(defstub a 1)", "a", "duplicate name: A"),
    ("", "use-termhint-hyp-is-true", "duplicate name: USE-TERMHINT-HYP-IS-TRUE"),
    ("", "car", "CAR is built in"),
])
def test_theorem_name_is_claimed_before_its_proof(tmp_path, capsys, monkeypatch,
                                                  before, name, message, body):
    import hintprover.cli as cli_mod

    path = evfile(tmp_path, before)
    main(["--trace", path])
    want = capsys.readouterr().out
    proofs = []
    real = cli_mod.prove_clause

    def counted(*args):
        proofs.append(args)
        return real(*args)

    monkeypatch.setattr(cli_mod, "prove_clause", counted)
    path = evfile(tmp_path, f"{before}\n(defthm {name} {body} :rule-classes nil)")
    assert main(["--trace", path]) == 2
    out, err = capsys.readouterr()
    assert out == want  # no THEOREM line and no events for the rejected theorem
    assert err == f"ERROR {path}: {message}\n"
    assert len(proofs) == before.count("defthm")


@pytest.mark.parametrize("events, name", [
    ("(defun and (x y) (cons x y))\n(defthm a (equal (and x y) (cons x y)) :rule-classes nil)",
     "AND"),
    ("(defstub implies 2)", "IMPLIES"),
    ("(defstub let 2)\n(defthm a (equal (let x y) (let x y)) :rule-classes nil)", "LET"),
], ids=["defun", "defstub", "defstub-then-use"])
def test_macro_names_are_built_in(tmp_path, capsys, events, name):
    # a function named after a macro could never be called
    path = evfile(tmp_path, events)
    assert main(["--trace", path]) == 2
    out, err = capsys.readouterr()
    assert err == f"ERROR {path}: {name} is built in\n"
    assert "THEOREM" not in out


@pytest.mark.parametrize("name", ["cons", "if", "member-equal", "equal", "not", "and",
                                  "let", "termhint-seq"])
def test_hint_function_names_are_not_built_in(tmp_path, capsys, name):
    # refused before the expression, which names no function, is translated
    path = evfile(tmp_path, f"(register-hint-fn {name} (nonesuch))")
    assert main([path]) == 2
    assert capsys.readouterr().err == f"ERROR {path}: {name.upper()} is built in\n"


def test_hint_function_cannot_shadow_a_builtin_in_later_hints(tmp_path, capsys):
    # hint expressions translate CONS as the builtin; a hint function of
    # that name would have run in its place when evaluated
    path = evfile(tmp_path, """
      (defstub p 1)
      (register-hint-fn cons '(:expand ((p a))))
      (register-hint-fn h (if (equal (cons 'a 'b) '(a . b)) 'nil '(:in-theory (enable))))
      (defthm x (p a) :rule-classes nil :hints (h))
    """)
    assert main(["--trace", path]) == 2
    out, err = capsys.readouterr()
    assert err == f"ERROR {path}: CONS is built in\n"
    assert "EVENT" not in out


def test_hint_inside_a_builtin_fails_the_theorem(tmp_path, capsys):
    path = evfile(tmp_path, """
      (defstub p 1)
      (register-hint-fn h (cons (use-termhint-find-hint clause) 'nil))
      (defthm x (implies (p a) (p b)) :rule-classes nil
        :hints ((use-termhint '(:in-theory (enable))) h))
    """)
    assert main([path]) == 1
    out, err = capsys.readouterr()
    assert err == f"ERROR {path} X: in hint expression: CONS applied to a hint\n"
    assert "THEOREM X FAILED" in out


def test_a_proof_that_stops_on_an_error_keeps_its_trace(tmp_path, capsys):
    # the goal budget runs out while Subgoal 1.1's branches are pushed;
    # the events before that still print, as they do at the default bound
    path = evfile(tmp_path, "(defstub q 1) (defund f (x) (if (q x) (cons x x) x))"
                            " (defthm c (consp (f (f y))) :rule-classes nil"
                            " :hints ((:in-theory (enable f))))")
    assert main(["--trace", "--checkpoints", "--max-steps", "4", path]) == 1
    out, err = capsys.readouterr()
    assert err == f"ERROR {path} C: goal budget of 4 exhausted\n"
    lines = out.splitlines()
    assert [" ".join(line.split()[:4]) for line in lines[1:6]] == [
        "EVENT Goal HINT (:IN-THEORY",
        "EVENT Subgoal 1 SIMPLIFY", "EVENT Subgoal 1 SPLIT",
        "EVENT Subgoal 1.1 SIMPLIFY", "EVENT Subgoal 1.1 SPLIT",
    ]
    assert lines[6:] == ["THEOREM C FAILED steps=2", "PROVED 0/1"]
    main(["--trace", path])
    assert capsys.readouterr().out.splitlines()[1:6] == lines[1:6]


_ERROR_TEXTS = [  # (events, exit code, what follows "ERROR <path>")
    *[(f"(defun f (x) {body})", 2, f": {text}") for body, text in [
        ("(let ((y)) x)", "malformed LET binding: (Y)"),
        ("(let ((y x)))", "LET expects a binding list and one body form"),
        ("(let* ((y x)))", "LET* expects a binding list and one body form"),
        ("(b* ((y x)))", "B* expects a binder list and one body form"),
        ("(cond ((consp x) x x))", "malformed COND clause: ((CONSP X) X X)"),
        ("(quasiquote a b)", "QUASIQUOTE expects one argument"),
        ("`(a (unquote x x))", "malformed unquote"),
        ("`(a ((unquote-splicing x x)))", "malformed unquote-splicing"),
        (",x", "UNQUOTE outside quasiquote"),
        ("((foo) x)", "bad application head: (FOO)"),
        ("((lambda (1) x) x)", "lambda formals must be symbols"),
        ("((lambda (y) y) x x)", "lambda applied to wrong number of arguments"),
    ]],
    ("(defthm a (consp x) :hints ((:use 7)))", 2, ": in A: bad :USE value: 7"),
    ("(register-hint-fn h 'nil)\n(register-hint-fn h 'nil)", 2,
     ": duplicate hint function: H"),
    (". a", 2, ": symbol name may not contain a dot: . (line 1)"),
    ("(register-hint-fn h (termhint-seq 'a 'b))\n(defstub p 1)\n"
     "(defthm x (p a) :rule-classes nil :hints (h))", 1,
     " X: unknown function in hint expression: TERMHINT-SEQ"),
    # one check of :IN-THEORY names, whether an event or a hint names them
    ("(in-theory (enable nonesuch))", 2, ": :IN-THEORY names unknown rule: NONESUCH"),
    ("(defthm a (equal x x) :rule-classes nil :hints ((:in-theory (enable nonesuch))))", 1,
     " A: :IN-THEORY names unknown rule: NONESUCH"),
    # a variable bound twice in one :instance, as written and as extracted
    ("(defun id (x) x)\n(defthm b (equal (id x) x) :rule-classes nil)\n"
     "(defthm c (equal (id y) y) :hints ((:use (:instance b (x y) (x z)))))", 2,
     ": in C: duplicate instance binding: X"),
    ("(defstub f 1)\n(defun id (x) x)\n(defthm b (equal (id x) x) :rule-classes nil)\n"
     "(defthm c (f y) :rule-classes nil\n"
     "  :hints ((use-termhint ''(:use (:instance b (x y) (x z))))))", 1,
     " C: duplicate instance binding: X"),
    # APPEND is a spelling of BINARY-APPEND, so no event may claim it
    ("(defstub append 2)", 2, ": APPEND is built in"),
    ("(register-hint-fn append '(:in-theory (enable foo)))", 2, ": APPEND is built in"),
    # malformed events
    *[(events, 2, f": {what} must be a symbol: 3") for events, what in [
        ("(defstub 3 1)", "stub name"),
        ("(defthm 3 (equal x x))", "theorem name"),
        ("(register-hint-fn 3 'nil)", "hint function name"),
        ("(defun 3 (x) x)", "function name"),
    ]],
    ("(defun f (1) x)", 2, ": formal must be a symbol: 1"),
    ("(defun f (x x) x)", 2, ": duplicate formal: X"),
    ("(defun f (x))", 2, ": defun expects a name, formals, and one body form"),
    ("(in-theory)", 2, ": in-theory expects one ENABLE or DISABLE form"),
    ("(defthm a)", 2, ": defthm expects a name and a body"),
    ("(defthm a (equal x x) :rule-classes)", 2, ": odd keyword list in defthm A"),
    ("(defthm a (equal x x) :rule-classes :forward-chaining)", 2,
     ": unsupported rule-classes: :FORWARD-CHAINING"),
    ("(defthm a (equal x x) :hints 3)", 2, ": bad :HINTS value in A"),
    # the last :rule-classes wins, so A installs as a rule and only NOSUCH is unknown
    ("(defstub p 1)\n(defthm a (implies (p x) (p x)) :rule-classes nil :rule-classes :rewrite)\n"
     "(in-theory (enable a nosuch))", 2, ": :IN-THEORY names unknown rule: NOSUCH"),
    # an :expand target that is not a call, shown as a term
    ("(defstub p 1)\n(defthm a (p x) :rule-classes nil :hints ((:expand ('1))))", 1,
     " A: expansion target is not a call: '1"),
    ("(defstub p 1)\n(defthm a (p x) :rule-classes nil :hints ((:expand (((lambda (x) x) y)))))",
     1, " A: expansion target is not a call: ((LAMBDA (X) X) Y)"),
    ("(defthm c (p x) :rule-classes nil :hints ((:in-theory (enable) foo (enable))))", 2,
     ": in C: expected a hint keyword, got: FOO"),
    ("(defstub p 1)\n(defthm a (p x)\n  :rule-classes nil))", 2, ": unexpected ) (line 3)"),
]


@pytest.mark.parametrize("events, code, text", _ERROR_TEXTS,
                         ids=[text.strip(" :") for _, _, text in _ERROR_TEXTS])
def test_error_texts(tmp_path, capsys, events, code, text):
    path = evfile(tmp_path, events)
    assert main([path]) == code
    assert capsys.readouterr().err == f"ERROR {path}{text}\n"


@pytest.mark.parametrize("hints, text", [
    ("((:use nosuchthm))", ":USE of unknown theorem: NOSUCHTHM"),
    ("((:use (:instance p)))", ":USE of unknown theorem: P"),
    ("((:clause-processor nosuch))", "unknown clause processor: NOSUCH"),
    ("((:expand ((p x))))", "no definition to expand: P"),
    ("((use-termhint '(:use ((:instance nosuch (x x))))))", ":USE of unknown theorem: NOSUCH"),
], ids=["use", "use-instance", "clause-processor", "expand", "extracted-use"])
def test_a_hint_naming_nothing_fails_its_theorem(tmp_path, hints, text):
    # apply_hint's lookups, from a file: the theorem fails, the run goes on
    path = evfile(tmp_path, f"(defstub p 1)\n(defthm a (p x) :rule-classes nil :hints {hints})")
    done = subprocess.run([sys.executable, "-m", "hintprover.cli", path],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert done.returncode == 1
    assert done.stdout == f"FILE {path}\nTHEOREM A FAILED steps=0\nPROVED 0/1\n"
    assert done.stderr == f"ERROR {path} A: {text}\n"


def test_a_failed_theorem_claims_no_name(tmp_path):
    # as in ACL2, a name whose proof failed may be tried again
    path = evfile(tmp_path, """
      (defthm a (equal x y) :rule-classes nil)
      (defthm a (equal x x) :rule-classes nil)
    """)
    report = run([path])
    assert report.exit_code == 1
    text = format_report(report)
    assert "THEOREM A FAILED steps=0\nTHEOREM A PROVED steps=0\n" in text


def test_proved_rewrite_theorem_becomes_a_rule(tmp_path):
    for rule_classes in ("", ":rule-classes :rewrite"):  # the default, spelled out
        path = evfile(tmp_path, f"""
          (defund d (x) (cons x x))
          (defthm d-opens (equal (d a) (cons a a))
            {rule_classes} :hints ((:in-theory (enable d))))
          (defthm uses-rule (equal (d q) (cons q q)) :rule-classes nil)
        """)
        report = run([path])
        assert report.exit_code == 0
        assert report.files[0].theorems[1].steps == 1   # one rule application


def test_hidden_literal_meets_its_negation(tmp_path, capsys):
    # the clause is ((not (hide (f a))) (g a)); (g a) opens to (hide (f a)),
    # which no truth lookup sees through HIDE, so the clause's test for a
    # literal beside its negation proves it
    path = evfile(tmp_path, """
      (defstub f 1)
      (defun g (x) (hide (f x)))
      (defthm h (implies (hide (f a)) (g a)) :rule-classes nil)
    """)
    assert main(["--trace", path]) == 0
    assert capsys.readouterr().out == (
        f"FILE {path}\nEVENT Goal PROVED T\nTHEOREM H PROVED steps=1\nPROVED 1/1\n")


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


def test_a_run_leaves_no_cyclic_garbage(tmp_path, capsys):
    # process_file pauses the cyclic collector, which is safe only while
    # the prover builds no reference cycles: on its way through the corpus,
    # a file error, a theorem out of budget and a stack overflow alike
    bad = evfile(tmp_path, "(defstub f 1) (frobnicate)", "bad.lisp")
    loops = evfile(tmp_path, """
      (register-hint-fn again '(:computed-hint-replacement ((again))))
      (defthm loops (equal x x) :rule-classes nil :hints (again))
    """, "loops.lisp")
    deep = "(car " * 2000 + "x" + ")" * 2000
    deep = evfile(tmp_path, f"(defthm deep (equal {deep} y) :rule-classes nil)", "deep.lisp")
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        report = run(_CORPUS + [bad, loops, deep])
        text = format_report(report, trace=True, checkpoints=True)
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == 0
    assert report.exit_code == 2 and text.endswith("PROVED 35/39\n")
    err = capsys.readouterr().err
    assert f"ERROR {bad}: unknown event: FROBNICATE" in err
    assert f"ERROR {loops} LOOPS: goal budget of 10000 exhausted" in err
    assert f"ERROR {deep}: nesting depth exceeded" in err


@pytest.mark.parametrize("enabled", [True, False])
def test_process_file_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, enabled):
    seen = []
    real_defstub = EVENT_HANDLERS["DEFSTUB"]

    def defstub(world, items, max_steps):
        seen.append(gc.isenabled())
        return real_defstub(world, items, max_steps)

    monkeypatch.setitem(EVENT_HANDLERS, "DEFSTUB", defstub)
    path = evfile(tmp_path, "(defstub f 1) (defthm a (f x) :rule-classes nil)")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        process_file(path, 100, False)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]  # paused while the events ran


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


def _rule(text, w):
    """The rule _do_defthm converts from what clausify returns."""
    hyps, concl, _, concl_form = clausify(parse_one(text), w)
    return convert_rule("R", hyps, concl, concl_form)


def test_convert_rule_shapes():
    w = _fg_world()
    r = _rule("(equal (f x) (g x))", w)
    assert (r.lhs, r.rhs, r.hyps, r.equiv) == (
        tr("(f x)", w), tr("(g x)", w), (), "EQUAL")
    r = _rule("(iff (f x) (g x))", w)
    assert r.equiv == "IFF"
    r = _rule("(not (f x))", w)
    assert (r.rhs, r.equiv) == (Const(parse_one("nil")), "IFF")
    r = _rule("(f x)", w)
    assert (r.rhs, r.equiv) == (Const(parse_one("t")), "IFF")


def test_convert_rule_hypotheses_flatten():
    w = _fg_world()
    r = _rule("(implies (and (consp x) (f x)) (equal (f x) (g x)))", w)
    assert r.hyps == (tr("(consp x)", w), tr("(f x)", w))
    r = _rule("(implies (consp x) (implies (f x) (equal (f x) (g x))))", w)
    assert len(r.hyps) == 2


def test_convert_rule_errors():
    w = _fg_world()
    with pytest.raises(EventError, match="function call"):
        _rule("(equal x (f x))", w)
    for text in ("(equal (f x) (f x))", "(iff (f x) (f x))",
                 "(implies (consp x) (equal (f x) (f x)))"):
        with pytest.raises(EventError, match="rule R rewrites its left side to itself"):
            _rule(text, w)
    with pytest.raises(EventError, match="free variables"):
        _rule("(equal (f x) (g y))", w)
    with pytest.raises(EventError, match="free variables"):
        _rule("(implies (consp y) (equal (f x) 'nil))", w)


def test_a_rule_onto_its_own_left_side_is_refused(tmp_path):
    # Installed, it fired on its own result until the stack ran out: the
    # query below FAILED with nesting depth exceeded after 492 steps
    text = """
      (defstub f 1)
      (defthm r4 (equal (f y) (f y)){})
      (defthm q (equal (f (f '1)) (f (f '1))) :rule-classes nil)
    """
    path = evfile(tmp_path, text.format(""))
    done = subprocess.run([sys.executable, "-m", "hintprover.cli", path],
                          capture_output=True, text=True, timeout=60, env=_child_env())
    assert done.returncode == 2
    assert done.stderr == f"ERROR {path}: rule R4 rewrites its left side to itself\n"
    report = run([evfile(tmp_path, text.format(" :rule-classes nil"), "nil.lisp")])
    assert report.exit_code == 0
    assert [(t.name, t.proved, t.steps) for t in report.files[0].theorems] == [
        ("R4", True, 0), ("Q", True, 0)]


def test_defthm_translates_each_form_once(monkeypatch):
    entries = Counter()
    tr = Translator.tr

    def counted(self, f):
        if isinstance(f, Pair):
            entries[id(f)] += 1
        return tr(self, f)

    monkeypatch.setattr(Translator, "tr", counted)
    w = _fg_world()
    form = parse_one("""(defthm r (implies (and (consp x) (and (f x) (equal (f x) (g x))))
                                      (implies (g x) (equal (f x) (g x)))))""")
    calls, todo = 0, [form.cdr.cdr.car]
    while todo:
        f = todo.pop()
        if isinstance(f, Pair):
            calls += 1
            todo.extend(to_list(f.cdr))
    assert _do_defthm(w, to_list(form), 1000).proved
    assert "R" in w.rules
    assert len(entries) == calls == 13
    assert set(entries.values()) == {1}


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


def test_options_may_come_before_between_or_after_the_files(capsys):
    # robust_member fails its last theorem, so --stop-on-failure skips
    # smoke, and --trace adds EVENT lines: each option shows in stdout
    member, smoke = (str(Path(__file__).resolve().parent.parent / "corpus" / name)
                     for name in ("robust_member.lisp", "smoke.lisp"))
    opts = ["--trace", "--stop-on-failure", "--max-steps", "5000"]
    seen = []
    for argv in (opts + [member, smoke], [member] + opts + [smoke], [member, smoke] + opts,
                 [opts[0], member, *opts[1:], smoke]):
        code = main(argv)
        seen.append((code, capsys.readouterr().out))
    code, out = seen[0]
    assert code == 1 and "\nEVENT " in out and out.endswith("PROVED 1/2\n")
    assert seen == [seen[0]] * len(seen)


def test_max_steps_must_not_be_negative(tmp_path, capsys):
    path = evfile(tmp_path,
                  "(defthm ok (equal (cons a b) (cons a b)) :rule-classes nil)")
    with pytest.raises(SystemExit) as exc:
        main([path, "--max-steps", "-1"])
    assert exc.value.code == 2
    assert "--max-steps" in capsys.readouterr().err
    assert main([path, "--max-steps", "0"]) == 0


def test_definition_normalization_is_bounded(tmp_path, capsys):
    k = 20  # 2^20 - 1 lifts unbounded
    stubs = " ".join(f"(defstub {f}{i} 1)" for f in "pgh" for i in range(k))
    args = " ".join(f"(if (p{i} x) (g{i} x) (h{i} x))" for i in range(k))
    path = evfile(tmp_path, f"""
      {stubs}
      (defstub big {k})
      (defun wide (x) (big {args}))
      (defthm after (equal x x) :rule-classes nil)
    """)
    t0 = time.perf_counter()
    assert main([path]) == 2
    assert time.perf_counter() - t0 < 1.0  # about 0.06 s; unbounded it ran for minutes
    out, err = capsys.readouterr()
    assert "THEOREM" not in out
    assert "ERROR" in err and "WIDE" in err and "step budget of 10000 exhausted" in err
    assert "Traceback" not in err


# A 2x2 case split whose branches each extract a use-termhint; one branch
# plants a label instead and ends as a checkpoint.
_SPLIT_TERMHINT = """
  (defstub p0 1) (defstub p1 1)
  (defstub g0 1) (defstub h0 1) (defstub g1 1) (defstub h1 1)
  (defund fw (a0 a1) (cons a0 a1))
  (defthm split2
    (equal (fw (if (p0 x) (g0 x) (h0 x)) (if (p1 x) (g1 x) (h1 x)))
           (cons (if (p0 x) (g0 x) (h0 x)) (if (p1 x) (g1 x) (h1 x))))
    :rule-classes nil
    :hints ((use-termhint
             (let* ((t0 (if (p0 x) (g0 x) (h0 x))) (t1 (if (p1 x) (g1 x) (h1 x))))
               (if (and (p0 x) (p1 x))
                   ''(:use ((:instance mark-clause-is-true (x 'bad))))
                 `'(:expand ((fw ,(hq t0) ,(hq t1)))))))))
"""


def test_goal_clauses_render_once_and_only_when_read(tmp_path, monkeypatch):
    import hintprover.cli as cli_mod
    import hintprover.hints as hints_mod

    calls = []
    real = hints_mod.clause_sexpr

    def counted(clause):
        calls.append(clause)
        return real(clause)

    monkeypatch.setattr(hints_mod, "clause_sexpr", counted)
    monkeypatch.setattr(cli_mod, "clause_sexpr", counted)
    report = run([evfile(tmp_path, _SPLIT_TERMHINT)])
    text = format_report(report, trace=True, checkpoints=True)

    (t,) = report.files[0].theorems
    kinds = [kind for _, kind, _ in t.events]
    assert not t.proved and kinds.count("CHECKPOINT") == 1
    assert "CHECKPOINT Subgoal 1.1.1.1.1 [BAD]" in text
    # the report prints every SIMPLIFY, SPLIT and CHECKPOINT payload from
    # its terms, and this goal's computed hints do not read CLAUSE, so no
    # clause s-expression is rendered at all
    assert kinds.count("SIMPLIFY") == 12
    assert len(calls) == 0


def test_event_payloads_are_plain_data(tmp_path):
    # a payload is T, a term, a Hint, a clause, or a tagged clause; never
    # the goal environment computed hints read
    def is_clause(x):
        return isinstance(x, tuple) and all(isinstance(l, (Var, Const, App, LamApp)) for l in x)

    report = run(_CORPUS + [evfile(tmp_path, _SPLIT4_TERMHINT)])
    kinds = Counter()
    for f in report.files:
        for t in f.theorems:
            for goal, kind, data in t.events:
                kinds[kind] += 1
                assert isinstance(goal, str)
                if kind == "PROVED":
                    assert data is T
                elif kind == "SPLIT":
                    assert isinstance(data, (Var, Const, App, LamApp))
                elif kind == "HINT":
                    assert isinstance(data, Hint)
                elif kind == "CHECKPOINT":
                    assert is_clause(data)
                else:
                    assert kind == "SIMPLIFY"
                    tag, clause = data
                    assert tag in ("STABLE", "CHANGED") and is_clause(clause)
    assert set(kinds) == {"PROVED", "SPLIT", "HINT", "CHECKPOINT", "SIMPLIFY"}


def test_untraced_run_renders_only_what_hints_read(tmp_path, monkeypatch):
    import hintprover.cli as cli_mod
    import hintprover.hints as hints_mod

    rendered, hints_shown = [], []
    real = hints_mod.clause_sexpr

    def counted(clause):
        rendered.append(clause)
        return real(clause)

    for mod in (hints_mod, cli_mod):
        monkeypatch.setattr(mod, "clause_sexpr", counted)
        monkeypatch.setattr(mod, "render_hint", hints_shown.append)
    report = run([evfile(tmp_path, _SPLIT_TERMHINT)])
    assert format_report(report).endswith("PROVED 0/1\n")

    # the termhint finder reads the goal's terms, not its rendered CLAUSE
    assert rendered == []
    assert hints_shown == []


def test_main_prints_each_file_as_soon_as_it_is_done(tmp_path, monkeypatch, capsys):
    import hintprover.cli as cli_mod

    first = evfile(tmp_path, "(defthm one (equal x x) :rule-classes nil)", "first.lisp")
    second = evfile(tmp_path, "(defthm two (equal x y) :rule-classes nil)", "second.lisp")
    real = cli_mod.process_file
    held = {}

    def spy(path, *args):
        held[path] = capsys.readouterr().out  # stdout so far, taken from the capture
        return real(path, *args)

    monkeypatch.setattr(cli_mod, "process_file", spy)
    assert main(["--trace", first, second]) == 1
    rest = capsys.readouterr().out
    assert held[first] == ""
    assert held[second] == f"FILE {first}\nEVENT Goal PROVED T\nTHEOREM ONE PROVED steps=0\n"
    assert rest.startswith(f"FILE {second}\n") and rest.endswith("PROVED 1/2\n")


_CORPUS = sorted(str(p) for p in (Path(__file__).resolve().parent.parent / "corpus")
                 .glob("*.lisp"))


@pytest.mark.parametrize("flags", [[], ["--trace"], ["--checkpoints"], ["--stop-on-failure"],
                                   ["--trace", "--checkpoints", "--stop-on-failure"]])
def test_streamed_output_is_the_report(flags, capsys):
    # the blocks main writes file by file add up to format_report's text
    want = format_report(run(_CORPUS, stop_on_failure="--stop-on-failure" in flags),
                         trace="--trace" in flags, checkpoints="--checkpoints" in flags)
    capsys.readouterr()
    main(flags + _CORPUS)
    assert capsys.readouterr().out == want


# four IF-valued arguments: the goal splits 2^4 ways, and each branch
# rewrites the termhint literal and the goal with the others again.  The
# branch functions are enabled definitions, so every opening costs a step.
_SPLIT4_TERMHINT = """
  (defstub p0 1) (defstub p1 1) (defstub p2 1) (defstub p3 1)
  (defun g0 (x) (cons x 'g0)) (defun g1 (x) (cons x 'g1))
  (defun g2 (x) (cons x 'g2)) (defun g3 (x) (cons x 'g3))
  (defun h0 (x) (cons x 'h0)) (defun h1 (x) (cons x 'h1))
  (defun h2 (x) (cons x 'h2)) (defun h3 (x) (cons x 'h3))
  (defund fw4 (a0 a1 a2 a3) (cons a0 (cons a1 (cons a2 a3))))
  (defthm split4
    (equal (fw4 (if (p1 x) (h0 x) (g0 x)) (if (p0 x) (h1 x) (g1 x))
                (if (p3 x) (g2 x) (h2 x)) (if (p2 x) (g3 x) (h3 x)))
           (cons (if (p1 x) (h0 x) (g0 x))
                 (cons (if (p0 x) (h1 x) (g1 x))
                       (cons (if (p3 x) (g2 x) (h2 x)) (if (p2 x) (g3 x) (h3 x))))))
    :rule-classes nil
    :hints ((use-termhint
             (let* ((t0 (if (p1 x) (h0 x) (g0 x))) (t1 (if (p0 x) (h1 x) (g1 x)))
                    (t2 (if (p3 x) (g2 x) (h2 x))) (t3 (if (p2 x) (g3 x) (h3 x))))
               `'(:expand ((fw4 ,(hq t0) ,(hq t1) ,(hq t2) ,(hq t3))))))))
"""


def test_one_memo_per_proof_saves_rewrites_of_split_goals(tmp_path, monkeypatch):
    import hintprover.hints as hints_mod
    import hintprover.rewrite as rewrite_mod

    real_rewrite, real_simplify = rewrite_mod.rewrite_term, hints_mod.simplify_clause
    real_init = rewrite_mod.RewriteContext.__init__
    calls, contexts, passes = [0], [0], [0]

    def counted(t, ctx, iff=False):
        calls[0] += 1
        return real_rewrite(t, ctx, iff)

    def counted_init(self, *args):
        contexts[0] += 1
        real_init(self, *args)

    def shared_memo(clause, theory, world, budget, memos):
        passes[0] += 1
        return real_simplify(clause, theory, world, budget, memos)

    def fresh_memo(clause, theory, world, budget, memos):
        return real_simplify(clause, theory, world, budget, {})

    monkeypatch.setattr(rewrite_mod, "rewrite_term", counted)
    monkeypatch.setattr(rewrite_mod.RewriteContext, "__init__", counted_init)
    monkeypatch.setattr(hints_mod, "simplify_clause", shared_memo)
    path = evfile(tmp_path, _SPLIT4_TERMHINT)
    outcomes = []
    for patch in (False, True):  # the proof's memo, then a fresh one per simplify_clause
        if patch:
            monkeypatch.setattr(hints_mod, "simplify_clause", fresh_memo)
        calls[0] = 0
        (t,) = run([path]).files[0].theorems
        outcomes.append((t.proved, t.steps, calls[0]))
        if not patch:  # one truth table per clause
            assert contexts[0] == passes[0] > 0
    (shared_proved, shared_steps, shared), (fresh_proved, fresh_steps, fresh) = outcomes
    assert shared_proved and fresh_proved
    assert shared_steps == fresh_steps == 24
    # rewrite_term calls; deterministic.  The shared count also reuses whole
    # literals whose logged questions get the same answers in a later goal
    assert (shared, fresh) == (1838, 3459)


def test_split_passes_keep_their_bookkeeping(tmp_path, monkeypatch):
    # What the simplification passes of one K=4 split proof did, all
    # deterministic: each pass's outcome, how many literals were taken from
    # filed entries and how many were rewritten, and the rewrite_term calls
    import hintprover.hints as hints_mod
    import hintprover.rewrite as rewrite_mod

    real_rewrite, real_simplify = rewrite_mod.rewrite_term, hints_mod.simplify_clause
    n = Counter()
    depth = [0]

    def counted(t, ctx, iff=False):
        n["rewrite_term"] += 1
        if depth[0] == 0:  # called by simplify_clause itself: one literal rewritten
            n["rewritten"] += 1
        depth[0] += 1
        try:
            return real_rewrite(t, ctx, iff)
        finally:
            depth[0] -= 1

    def counted_pass(clause, *args):
        n["literals"] += len(clause)
        out = real_simplify(clause, *args)
        if out is None:
            n["proved"] += 1
        elif out[1] is not None:
            n["split"] += 1
        elif out[0] != clause:
            n["changed"] += 1
        else:
            n["stable"] += 1
        return out

    monkeypatch.setattr(rewrite_mod, "rewrite_term", counted)
    monkeypatch.setattr(hints_mod, "simplify_clause", counted_pass)
    (t,) = run([evfile(tmp_path, _SPLIT4_TERMHINT)]).files[0].theorems
    assert t.proved and t.steps == 24
    assert [n[k] for k in ("proved", "split", "changed", "stable")] == [16, 15, 16, 16]
    assert n["literals"] - n["rewritten"] == 234  # taken from filed entries
    assert n["rewritten"] == 102
    assert n["rewrite_term"] == 1838


def test_split_goals_rebuild_only_what_changed(tmp_path, monkeypatch):
    # Walkers hand back an unchanged node instead of rebuilding it, and
    # visit a shared node once: 1,839 App() calls for this theorem when
    # every walker rebuilt every node it passed
    import hintprover.cli as cli_mod
    import hintprover.term as term_mod

    real_new, real_defthm = term_mod.App.__new__, cli_mod.EVENT_HANDLERS["DEFTHM"]
    built = [0]

    def counted_new(cls, fn, args):
        built[0] += 1
        return real_new(cls, fn, args)

    def counted_defthm(world, items, max_steps):  # the theorem's own calls only
        before = built[0]
        try:
            return real_defthm(world, items, max_steps)
        finally:
            counts.append(built[0] - before)

    counts = []
    monkeypatch.setattr(term_mod.App, "__new__", counted_new)
    monkeypatch.setitem(cli_mod.EVENT_HANDLERS, "DEFTHM", counted_defthm)
    (t,) = run([evfile(tmp_path, _SPLIT4_TERMHINT)]).files[0].theorems
    assert t.proved and t.steps == 24
    (n,) = counts
    assert n < 1100, n  # 841


def test_trace_is_identical_under_different_hash_seeds():
    # Terms hash by identity and strings by a per-process seed; neither
    # may order anything the prover prints.
    corpus = sorted(str(p) for p in (Path(__file__).resolve().parent.parent / "corpus")
                    .glob("*.lisp"))
    outs = []
    for seed in ("0", "4242"):
        done = subprocess.run(
            [sys.executable, "-m", "hintprover.cli", "--trace", "--checkpoints", *corpus],
            capture_output=True, text=True, timeout=120, env=_child_env(PYTHONHASHSEED=seed))
        assert done.returncode == 1  # the corpus holds deliberate failures
        outs.append(done.stdout)
    assert len(outs[0]) > 1000
    assert outs[0] == outs[1]
