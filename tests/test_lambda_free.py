"""Terms enter the proof lambda-free.

LET, LET*, B* and an explicit LAMBDA translate to LamApp nodes.  Each
place where a term enters the proof beta-reduces it, so the rewriter,
the splitter, the expander and the world never meet a lambda; hints keep
their terms as written, for display.  Here random binder-laden surface
forms go in at every entry point, and nothing with a lambda may come out.
"""

import random

from hypothesis import given, seed, settings, strategies as st

from hintprover.sexpr import parse_one, to_list
from hintprover.term import App, Var, beta_reduce, translate
from hintprover.world import World
from hintprover.rewrite import expand_calls
from hintprover.hints import apply_hint, clausify, parse_hint
from hintprover.cli import _do_defun, convert_rule, main

_BINDERS = ("let", "let*", "b*", "lambda")


def _form(rng, depth, scope):
    """A random surface form over the variables in scope."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(scope + ["'k", "nil"])
    d = depth - 1
    kind = rng.choice(("cons", "car", "if") + _BINDERS)
    if kind == "cons":
        return f"(cons {_form(rng, d, scope)} {_form(rng, d, scope)})"
    if kind == "car":
        return f"(car {_form(rng, d, scope)})"
    if kind == "if":
        return f"(if {_form(rng, d, scope)} {_form(rng, d, scope)} {_form(rng, d, scope)})"
    return _binding(rng, kind, depth, scope)


def _binding(rng, kind, depth, scope):
    """A form of one of _BINDERS.  It binds one or two of A, B and X, so X
    is sometimes shadowed."""
    d = depth - 1
    names = rng.sample(["A", "B", "X"], rng.randrange(1, 3))
    inner = scope + [n for n in names if n not in scope]
    body = _form(rng, d, inner)
    if kind == "let*":  # each init sees the names bound before it
        pairs, seen = [], scope
        for n in names:
            pairs.append(f"({n} {_form(rng, d, seen)})")
            seen = seen + [n]
        return f"(let* ({' '.join(pairs)}) {body})"
    inits = [_form(rng, d, scope) for _ in names]
    if kind == "lambda":
        return f"((lambda ({' '.join(names)}) {body}) {' '.join(inits)})"
    pairs = [f"({n} {e})" for n, e in zip(names, inits)]
    if kind == "let":
        return f"(let ({' '.join(pairs)}) {body})"
    if rng.random() < 0.5:  # a B* guard binder, under the names bound so far
        pairs.append(f"(({rng.choice(['when', 'unless'])} {_form(rng, d, inner)})"
                     f" {_form(rng, d, inner)})")
    return f"(b* ({' '.join(pairs)}) {body})"


def _world():
    w = World()
    w.add_stub("P", 1)
    w.add_stub("G", 3)
    w.add_theorem("THM", App("P", (App("CONS", (Var("X"), Var("Y"))),)))
    return w


@seed(1201)
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_every_entry_point_hands_on_lambda_free_terms(n):
    rng = random.Random(n)
    w = _world()
    a, b, c = (_binding(rng, rng.choice(_BINDERS), 3, ["X", "Y"]) for _ in range(3))
    assert all(translate(parse_one(f), w).has_lambda for f in (a, b, c))
    hyps, concl, body, _ = clausify(parse_one(f"(implies (and (p {a}) (p {b})) (p {c}))"), w)
    out = [*hyps, concl, body]

    hyps, concl, _, concl_form = clausify(
        parse_one(f"(implies (p {b}) (equal (g {a} x y) {c}))"), w)
    rule = convert_rule("R", hyps, concl, concl_form)
    out += [rule.lhs, rule.rhs, *rule.hyps]

    _do_defun(w, to_list(parse_one(f"(defun h (x y) {a})")), 10_000)
    out += [w.definitions["H"].rhs, w.rules_by_fn["H"][0].rhs]

    use = parse_hint(parse_one(f"(:use ((:instance thm (x {b}) (y {c}))))"), w)
    clause, _ = apply_hint(use, (), w.theory(), w)
    out += clause

    target = rng.choice([f"(let ((a {b})) (h a {c}))", f"((lambda (a) (h {c} a)) {b})",
                         f"(h (let* ((a {b})) a) {c})", f"(b* ((a {b})) (h a a))"])
    written = parse_hint(parse_one(f"(:expand ({target}))"), w).expand
    assert written[0].has_lambda  # a hint keeps its target as written
    goal = (App("P", (beta_reduce(translate(parse_one(target), w)),)),)
    expanded = expand_calls(goal, written, w)
    assert expanded != goal  # the target matched its call and opened it
    out += expanded

    assert [t for t in out if t.has_lambda] == []


_EXPAND_WITH_A_BINDER = """\
(defund f (y) (cons y y))
(defthm a (equal (f x) (cons x x)) :rule-classes nil
  :hints ((:expand ((f (let ((a x)) a))))))
(defthm c (equal (f x) (cons x x)) :rule-classes nil
  :hints ((:expand ((let ((a x)) (f a))))))
"""


def test_an_expand_target_written_with_a_binder_expands(tmp_path, capsys):
    path = tmp_path / "expand-let.lisp"
    path.write_text(_EXPAND_WITH_A_BINDER)
    assert main(["--trace", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "THEOREM A PROVED steps=0" in out
    assert "THEOREM C PROVED steps=0" in out
    # the HINT line shows each target as written
    assert "EVENT Goal HINT (:EXPAND ((F ((LAMBDA (A) A) X))))" in out
    assert "EVENT Goal HINT (:EXPAND (((LAMBDA (A) (F A)) X)))" in out
