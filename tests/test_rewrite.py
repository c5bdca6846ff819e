import itertools
import random
from pathlib import Path

import pytest

from hintprover.sexpr import NIL, Symbol, T, from_list, parse_one, print_sexpr
from hintprover.term import (
    App, CONST_NIL, CONST_T, FOLDABLE, Const, Var, apply_builtin, beta_reduce,
    built_cells, translate, truthy, unparse,
)
from hintprover.world import RewriteRule, World
from hintprover import hints
from hintprover.cli import format_report, run
from hintprover.rewrite import (
    ExpandError, ResourceError, RewriteContext, StepBudget, expand_calls,
    find_split_test, match, negate_term, normalize_definition, replace_subterm,
    rewrite_term, simplify_clause, split_ifs,
)
from test_walkers import _ref_beta_reduce, _ref_expand, _ref_match, _ref_substitute


def tr(text: str, world=None):
    return beta_reduce(translate(parse_one(text), world or World()))


def rw(text_or_term, world=None, theory=None, assume=(), iff=False, limit=100):
    world = world or World()
    t = tr(text_or_term, world) if isinstance(text_or_term, str) else text_or_term
    theory = world.theory() if theory is None else theory
    return rewrite_term(t, RewriteContext(theory, world, StepBudget(limit), {}, assume), iff)


def test_negate_term_unwraps():
    assert negate_term(Var("P")) == App("NOT", (Var("P"),))
    assert negate_term(App("NOT", (Var("P"),))) == Var("P")


def test_match_basics():
    # the seed maps each variable and inner call node of the pattern to the
    # subterm it met, and holds no entry for the pattern itself
    w = World()
    w.add_stub("F", 2)
    x, y, a, b = Var("X"), Var("Y"), Var("A"), Var("B")
    ab = tr("(cons a b)", w)
    pat = tr("(f x x)", w)  # a repeated variable meets one subterm
    assert match(pat, tr("(f (cons a b) (cons a b))", w)) == {x: ab}
    assert match(pat, tr("(f a b)", w)) is None
    assert match(tr("(f x y)", w), tr("(cons a b)", w)) is None
    assert match(App("F", (x, y)), App("F", (a,))) is None
    pat = tr("(f x '3)", w)  # a constant meets only itself
    assert match(pat, tr("(f a '3)", w)) == {x: a}
    assert match(pat, tr("(f a '4)", w)) is None
    cxy = tr("(cons x y)", w)
    pat = tr("(f (cons x y) '3)", w)  # a nested call is keyed by its node
    assert match(pat, tr("(f (cons a b) '3)", w)) == {cxy: ab, x: a, y: b}
    assert match(pat, tr("(f (car a) '3)", w)) is None
    pat = tr("(f (cons x y) (cons x y))", w)  # a node shared twice meets one subterm
    assert pat.args[0] is pat.args[1]
    assert match(pat, tr("(f (cons a b) (cons a b))", w)) == {cxy: ab, x: a, y: b}
    assert match(pat, tr("(f (cons a b) (cons a a))", w)) is None


def test_match_walks_a_deep_pattern_without_recursion():
    def chain(leaf, n=5000):
        for _ in range(n):
            leaf = App("K", (leaf,))
        return leaf

    pat, a = chain(Var("X")), Var("A")
    seed = match(pat, chain(a))
    assert len(seed) == 5000 and seed[Var("X")] is a
    assert match(pat, chain(a, 4999)) is None
    assert match(chain(Const(3)), chain(Const(4))) is None


def test_assumptions_decide():
    p, q = Var("P"), Var("Q")
    a = RewriteContext(frozenset(), World(), StepBudget(0), {}, [App("NOT", (p,)), q])
    assert a.decide(p) is True
    assert a.decide(q) is False
    assert a.decide(App("NOT", (q,))) is True
    assert a.decide(App("NOT", (p,))) is False
    assert a.decide(Var("R")) is None


def test_budget_exhaustion():
    b = StepBudget(2)
    b.take()
    b.take()
    with pytest.raises(ResourceError):
        b.take()


def test_constant_folding():
    assert rw("(len '(1 2 3))") == Const(3)
    assert rw("(member-equal '2 '(1 2 3))") == Const(from_list([2, 3]))
    assert rw("(append '(1) '(2))") == Const(from_list([1, 2]))
    assert rw("(car (cons '1 '2))") == Const(1)
    assert rw("(not 'nil)") == CONST_T
    assert rw("(iff 't '5)") == CONST_T
    # no constant argument, no folding
    assert rw("(cons x 'nil)") == App("CONS", (Var("X"), CONST_NIL))


def test_reflexivity_closes_equal_and_iff():
    w = World()
    w.add_stub("F", 1)
    assert rw("(equal (f x) (f x))", w) == CONST_T
    assert rw("(iff (f x) (f x))", w) == CONST_T
    assert rw("(equal (f x) (f y))", w) == tr("(equal (f x) (f y))", w)


def test_if_constant_test_is_lazy():
    w = World()
    w.add_definition("BOOM", ("X",), App("BOOM", (Var("X"),)))  # recursive, inert
    assert rw("(if 't '1 (boom x))", w) == Const(1)
    assert rw("(if 'nil (boom x) '2)", w) == Const(2)


def test_if_decided_by_assumptions():
    w = World()
    w.add_stub("F", 1)
    t = tr("(if (consp x) (f '1) (f '2))", w)
    assert rw(t, w, assume=[tr("(not (consp x))", w)]) == tr("(f '1)", w)
    assert rw(t, w, assume=[tr("(consp x)", w)]) == tr("(f '2)", w)


def test_iff_context_decides_whole_subterms():
    w = World()
    w.add_stub("F", 1)
    t = tr("(f x)", w)
    assert rw(t, w, assume=[negate_term(t)], iff=True) == CONST_T
    assert rw(t, w, assume=[t], iff=True) == CONST_NIL
    # not in an equality context
    assert rw(t, w, assume=[negate_term(t)], iff=False) == t


def test_not_argument_gets_iff_context():
    w = World()
    w.add_stub("F", 1)
    t = tr("(not (f x))", w)
    got = rw(t, w, assume=[negate_term(tr("(f x)", w))])
    assert got == CONST_NIL


def test_definition_unfolds_nonrecursive_only():
    w = World()
    w.add_definition("D", ("X",), tr("(cons x x)"))
    w.add_definition("R", ("X",), App("R", (Var("X"),)))
    assert rw("(d y)", w) == tr("(cons y y)")
    assert rw("(r y)", w) == App("R", (Var("Y"),))


def test_disabled_definition_stays_closed():
    w = World()
    w.add_definition("D", ("X",), tr("(cons x x)"), enabled=False)
    assert rw("(d y)", w) == App("D", (Var("Y"),))
    assert rw(App("D", (Var("Y"),)), w, theory=frozenset({"D"})) == tr("(cons y y)")


def test_rule_with_hypotheses():
    w = World()
    w.add_stub("F", 1)
    w.add_stub("G", 1)
    w.add_rule("F-OPENS", RewriteRule(
        "F-OPENS", tr("(f x)", w), tr("(g x)", w), (tr("(consp x)", w),), "EQUAL"
    ))
    assert rw("(f '(1))", w) == tr("(g '(1))", w)  # (consp '(1)) folds true
    assert rw("(f '7)", w) == tr("(f '7)", w)      # hyp fails, rule skipped
    got = rw(tr("(f y)", w), w, assume=[tr("(not (consp y))", w)])
    assert got == tr("(g y)", w)                   # hyp relieved by assumption


def test_iff_rule_needs_iff_context():
    w = World()
    w.add_stub("F", 1)
    w.add_rule("F-TRUE", RewriteRule("F-TRUE", tr("(f x)", w), CONST_T, (), "IFF"))
    assert rw("(f y)", w, iff=False) == tr("(f y)", w)
    assert rw("(f y)", w, iff=True) == CONST_T
    # NOT passes an iff context down to its argument
    assert rw("(not (f y))", w, iff=False) == CONST_NIL
    # so does IFF, to both arguments; no other call does
    assert rw("(iff (f y) (f z))", w, iff=False) == CONST_T
    assert rw("(cons (f y) (f z))", w, iff=True) == tr("(cons (f y) (f z))", w)


def test_definitions_and_rules_fire_in_install_order():
    d_rule = RewriteRule("D-IS-RULE", App("D", (Var("X"),)), Const(Symbol("RULE")), (), "EQUAL")
    w = World()
    w.add_definition("D", ("X",), tr("(cons x x)"))
    w.add_rule("D-IS-RULE", d_rule)
    assert rw("(d y)", w) == tr("(cons y y)")
    w = World()
    w.add_rule("D-IS-RULE", d_rule)
    w.add_definition("D", ("X",), tr("(cons x x)"))
    assert rw(App("D", (Var("Y"),)), w) == Const(Symbol("RULE"))


def test_a_definition_is_its_equal_rule():
    w = World()
    w.add_definition("D", ("X", "Y"), tr("(cons x y)"))
    d = w.definitions["D"]
    assert (d.name, d.lhs, d.rhs, d.hyps, d.equiv) == (
        "D", tr("(d x y)", w), tr("(cons x y)"), (), "EQUAL")
    assert w.rules_by_fn["D"][0] is d and w.rule_order == [d]
    # a recursive definition is stored the same way but opens only by :EXPAND
    w.add_definition("R", ("X",), App("R", (Var("X"),)))
    assert isinstance(w.definitions["R"], RewriteRule)
    assert "R" not in w.rules_by_fn and w.rule_order == [d]


def _rule(name, head, rhs, equiv="EQUAL"):
    return RewriteRule(name, App(head, (Var("X"),)), Const(Symbol(rhs)), (), equiv)


def test_rule_lookup_tries_only_rules_on_the_head_symbol():
    # every rule tried is first looked up in the theory before match
    w = World()
    for i in range(50):
        w.add_rule(f"G{i}-RULE", _rule(f"G{i}-RULE", f"G{i}", "OTHER"))
    w.add_rule("F-RULE", _rule("F-RULE", "F", "HIT"))
    asked = []

    class RecordingTheory(frozenset):
        def __contains__(self, name):
            asked.append(name)
            return frozenset.__contains__(self, name)

    theory = RecordingTheory(w.theory())
    assert rw(App("F", (Var("A"),)), w, theory=theory) == Const(Symbol("HIT"))
    assert asked == ["F-RULE"]


def _fire(lhs, hyps=()):
    """A world with stubs G (2), K (1) and H (0) and the one rule lhs = 'HIT."""
    w = World()
    w.add_stub("G", 2)
    w.add_stub("K", 1)
    w.add_stub("H", 0)
    w.add_rule("R", RewriteRule("R", tr(lhs, w), Const(Symbol("HIT")),
                                tuple(tr(h, w) for h in hyps), "EQUAL"))
    return w


@pytest.mark.parametrize("lhs, fires, stays", [
    ("(g x x)", ["(g a a)", "(g (car a) (car a))"], ["(g a b)", "(g a (car a))"]),
    ("(g x '3)", ["(g a '3)", "(g '3 '3)"], ["(g a '4)", "(g '3 a)"]),
    ("(k (cons x y))", ["(k (cons a b))", "(k (cons a a))"], ["(k a)", "(k (car a))"]),
    ("(h)", ["(h)"], []),
    ("(g x y)", ["(g a b)", "(g a a)"], []),
])
def test_a_rule_fires_exactly_where_match_says(lhs, fires, stays):
    w = _fire(lhs)
    lhs_term = tr(lhs, w)
    for text in fires + stays:
        t = tr(text, w)
        assert (match(lhs_term, t) is not None) == (text in fires), text
        c = RewriteContext(w.theory(), w, StepBudget(100), {})
        got = rewrite_term(t, c)
        assert (got, c.budget.used) == ((Const(Symbol("HIT")), 1) if text in fires else (t, 0))


def test_both_paths_instantiate_hypotheses_as_the_match_would():
    # a repeated variable (g x x) and distinct ones (g x y) bind through
    # the one match; either way the hypothesis is instantiated from the
    # call's arguments
    hit = Const(Symbol("HIT"))
    w = _fire("(g x x)", ["(k x)"])
    ka = [tr("(not (k a))", w)]  # assumes (k a)
    assert rw("(g a a)", w, assume=ka) == hit
    assert rw("(g b b)", w, assume=ka) == tr("(g b b)", w)
    w = _fire("(g x y)", ["(k y)"])
    assert rw("(g b a)", w, assume=ka) == hit
    assert rw("(g a b)", w, assume=ka) == tr("(g a b)", w)


def test_first_installed_rule_on_a_head_fires():
    w = World()
    w.add_rule("F-ONE", _rule("F-ONE", "F", "ONE"))
    w.add_rule("G-ONE", _rule("G-ONE", "G", "G"))
    w.add_rule("F-TWO", _rule("F-TWO", "F", "TWO"))
    assert rw(App("F", (Var("A"),)), w) == Const(Symbol("ONE"))


def test_disabled_and_iff_rules_are_skipped_for_the_next_on_the_head():
    w = World()
    w.add_rule("F-ONE", _rule("F-ONE", "F", "ONE"))
    w.add_rule("F-TWO", _rule("F-TWO", "F", "TWO"))
    fa = App("F", (Var("A"),))
    assert rw(fa, w, theory=w.theory() - {"F-ONE"}) == Const(Symbol("TWO"))
    w = World()
    w.add_rule("F-IFF", _rule("F-IFF", "F", "IFF", equiv="IFF"))
    w.add_rule("F-EQUAL", _rule("F-EQUAL", "F", "EQUAL"))
    assert rw(fa, w) == Const(Symbol("EQUAL"))
    assert rw(fa, w, iff=True) == Const(Symbol("IFF"))


def test_rule_index_holds_each_rule_once_in_install_order():
    w = World()
    w.add_definition("D", ("X",), tr("(cons x x)"))
    w.add_rule("F-ONE", _rule("F-ONE", "F", "ONE"))
    w.add_rule("D-RULE", _rule("D-RULE", "D", "RULE"))
    w.add_definition("E", ("X", "Y"), tr("(cons y x)"))
    w.add_rule("F-TWO", _rule("F-TWO", "F", "TWO"))
    w.add_definition("LOOP", ("X",), App("CONS", (Var("X"), App("LOOP", (Var("X"),)))))
    assert [r.name for r in w.rule_order] == ["D", "F-ONE", "D-RULE", "E", "F-TWO"]
    assert sorted(w.rules_by_fn) == ["D", "E", "F"]
    for rule in w.rule_order:
        assert [r for r in w.rules_by_fn[rule.lhs.fn] if r is rule] == [rule]
    for fn, rules in w.rules_by_fn.items():
        assert rules == [r for r in w.rule_order if r.lhs.fn == fn]


def test_rule_application_consumes_budget():
    w = World()
    w.add_definition("D", ("X",), tr("(cons x x)"))
    with pytest.raises(ResourceError):
        rw("(cons (d a) (d b))", w, limit=1)


def _chain_world(inner="(cons x x)"):
    """D3 opens into two D2 calls and D2 into two D1 calls: (d3 a) takes 7 steps."""
    w = World()
    w.add_definition("D1", ("X",), tr(inner))
    w.add_definition("D2", ("X",), tr("(d1 (d1 x))", w))
    w.add_definition("D3", ("X",), tr("(d2 (d2 x))", w))
    return w


def test_memo_hit_charges_the_steps_of_a_fresh_rewrite():
    w = _chain_world()
    theory = w.theory()
    t = tr("(d3 a)", w)

    def ctx(limit=100, memo=None):
        return RewriteContext(theory, w, StepBudget(limit), {} if memo is None else memo)

    c = ctx()
    want = rewrite_term(t, c)
    assert c.budget.used == 7
    # the second (d3 a) is a hit inside one call, and costs what the first did
    c = ctx()
    assert rewrite_term(App("CONS", (t, t)), c) is App("CONS", (want, want))
    assert c.budget.used == 14

    # the table outlives the context that filled it
    shared = {}
    rewrite_term(t, ctx(memo=shared))
    filled = dict(shared)
    assert filled[(t, False)] == (want, 7)  # no assumption was consulted
    # (steps already used, limit): room to spare, the exact limit, one short
    for used, limit in [(0, 100), (0, 7), (3, 10), (0, 6), (3, 9), (0, 0), (5, 5)]:
        seen = []
        for c in (ctx(), ctx(memo=shared)):  # a fresh rewrite, then a memo hit
            c.budget.limit, c.budget.used = limit, used
            try:
                out = rewrite_term(t, c)
            except ResourceError as e:
                out = str(e)
            seen.append((out, c.budget.used))
        assert seen[0] == seen[1]
        if used + 7 > limit:
            assert seen[1] == (f"step budget of {limit} exhausted", limit)
    assert shared == filled  # every later call was a hit


def test_memo_never_answers_under_another_theory_or_world():
    # a proof keeps one table per theory and never changes its world: each
    # table answers as a fresh one would
    w = _chain_world()
    t = tr("(d3 a)", w)
    on, off = w.theory(), w.theory() - {"D2"}
    other = _chain_world("(car x)")
    memos = {id(w): {}, id(other): {}}  # one proof's memos per world
    cases = [
        (on, w, "(let* ((x (cons a a)) (x (cons x x)) (x (cons x x))) (cons x x))", 7),
        (off, w, "(d2 (d2 a))", 1),
        (on, other, "(car (car (car (car a))))", 7),
    ]
    for theory, world, want, steps in cases:
        table = memos[id(world)].setdefault(theory, {})
        c = RewriteContext(theory, world, StepBudget(100), table)
        assert rewrite_term(t, c) is tr(want, world)
        assert c.budget.used == steps
        c2 = RewriteContext(theory, world, c.budget, table)
        assert rewrite_term(t, c2) is tr(want, world)  # a memo hit, charged again
        assert c.budget.used == 2 * steps
    assert len(memos[id(w)]) == 2 and len(memos[id(other)]) == 1


def test_memo_entry_is_recomputed_when_an_assumption_changes():
    w = _chain_world()
    w.add_stub("P", 1)
    theory = w.theory()
    p = tr("(p x)", w)
    t = tr("(cons (if (p x) (d1 a) (d2 a)) c)", w)
    memo = {}

    def run(false_literals):
        c = RewriteContext(theory, w, StepBudget(100), memo, false_literals)
        return rewrite_term(t, c), c.budget.used

    d1, d2 = (tr("(d1 a)", w), False), (tr("(d2 a)", w), False)
    # (p x) true: t's rewrite asked about (p x), so only its context keeps
    # it; the branch it took never asked, and is shared
    assert run([negate_term(p)]) == (tr("(cons (cons a a) c)"), 1)
    assert (t, False) not in memo and memo[d1] == (tr("(cons a a)"), 1)
    # (p x) false: t is rewritten afresh, and takes the other branch
    assert run([p]) == (tr("(cons (cons (cons a a) (cons a a)) c)"), 3)
    assert (t, False) not in memo and memo[d2] == (tr("(cons (cons a a) (cons a a))"), 3)
    # nothing known about (p x): the IF stays, both branches rewritten
    assert run([]) == (tr("(cons (if (p x) (cons a a) (cons (cons a a) (cons a a))) c)", w), 4)
    # an assumption t never asks about gives the same answer
    assert run([tr("(p y)", w)]) == (tr("(cons (if (p x) (cons a a) (cons (cons a a) (cons a a))) c)", w), 4)
    assert (t, False) not in memo and set(memo) >= {d1, d2}


def _oracle_world():
    """D opens into an IF on (f x); every rule has a hypothesis to settle.
    CONS-SAME is on a repeated variable, the others on nested calls."""
    w = World()
    w.add_stub("F", 1)
    w.add_definition("D", ("X",), tr("(if (f x) (cons x x) (car x))", w))
    w.add_rule("F-CAR", RewriteRule("F-CAR", tr("(f (car x))", w), CONST_T,
                                    (tr("(f x)", w),), "IFF"))
    w.add_rule("CAR-F", RewriteRule("CAR-F", tr("(car (f x))", w), Var("X"),
                                    (tr("(not (equal x 'k))", w),), "EQUAL"))
    w.add_rule("CONS-SAME", RewriteRule("CONS-SAME", tr("(cons x x)", w), tr("(f x)", w),
                                        (tr("(not (f (car x)))", w),), "EQUAL"))
    return w


def _oracle_pool(w):
    """Literals for random contexts: some settle what _oracle_world rewrites."""
    return [tr(s, w) for s in ["x", "(not x)", "y", "(f x)", "(not (f y))", "(f (car z))",
                               "(equal x y)", "(not (equal y 'k))", "(car x)", "(f '3)"]]


def test_shared_memo_answers_as_a_fresh_context_random():
    # one table per term, shared by contexts drawn from a small pool of
    # literals, under limits with room, exact and short
    w = _oracle_world()
    pool = _oracle_pool(w)
    theory = w.theory()
    rng = random.Random(4113)
    hits = filed = kept = 0
    for _ in range(150):
        memo, folded = {}, set()  # the shared table and the folds charged filling it
        t = _random_rw_term(rng, 4)
        for _ in range(6):
            assume = rng.sample(pool, rng.randrange(4))
            iff = rng.random() < 0.5
            fresh = RewriteContext(theory, w, StepBudget(10000), {}, assume)
            want = rewrite_term(t, fresh, iff)
            full = fresh.budget.used
            for limit in (10000, full, max(full - 1, 0), rng.randrange(full + 1)):
                seen = []
                for table in ({}, memo):  # a fresh table, then the shared one
                    entry = table.get((t, iff))
                    c = RewriteContext(theory, w, StepBudget(limit), table, assume)
                    c.budget.folded |= folded  # as a later literal of that proof
                    try:
                        out = rewrite_term(t, c, iff)
                    except ResourceError as e:
                        out = str(e)
                    seen.append((out, c.budget.used, c.budget.cells))
                    if table is memo and not isinstance(out, str):
                        if entry is not None:
                            hits += 1
                        elif (t, iff) in memo:
                            filed += 1  # its rewrite never read the context
                        else:
                            kept += 1  # it did, so the context kept it
                folded = c.budget.folded
                assert seen[0] == seen[1], (t, assume, iff, limit)
                if limit == 10000:
                    assert seen[0][:2] == (want, full)
    # hits, and both ways of filing the top term: counted 764, 68 and 2,410
    assert hits > 700 and filed > 50 and kept > 2000


def test_shared_memo_holds_only_what_any_context_computes_random():
    # fill one table from random terms under random contexts; then each
    # entry must be what a fresh table gives under some other context
    w = _oracle_world()
    pool = _oracle_pool(w)
    theory = w.theory()
    rng = random.Random(6029)
    memo = {}
    for _ in range(200):
        t = _random_rw_term(rng, 4)
        for _ in range(3):
            c = RewriteContext(theory, w, StepBudget(10000), memo,
                               rng.sample(pool, rng.randrange(4)))
            rewrite_term(t, c, rng.random() < 0.5)
    for (t, iff), (out, steps) in memo.items():
        assume = rng.sample(pool, rng.randrange(1, 4))
        c = RewriteContext(theory, w, StepBudget(10000), {}, assume)
        assert (rewrite_term(t, c, iff), c.budget.used) == (out, steps), (t, iff, assume)
    # counted 249 entries, 110 of them rewritten and 1 charging steps
    assert len(memo) > 200 and sum(out is not t for (t, _), (out, _) in memo.items()) > 100
    assert any(steps for _, steps in memo.values())


class _Spec:
    """The rewriter as specified, for the oracle below: inside out, no memo,
    and every call node after its arguments goes through fold, settle,
    decide and then the rules in install order.  The context answers from
    two sets, the other literals and the arguments of their NOTs, with a
    term that is both read as true.  The budget charges each distinct fold
    once, whichever literal builds it."""

    def __init__(self, theory, world, budget, false_literals):
        self.theory, self.world, self.budget = theory, world, budget
        self.false = set(false_literals)
        self.true = {l.args[0] for l in self.false if isinstance(l, App) and l.fn == "NOT"}

    def answer(self, q):
        if q in self.true:
            return True
        if q in self.false:
            return False
        if isinstance(q, App) and q.fn == "NOT":
            if q.args[0] in self.true:
                return False
            if q.args[0] in self.false:
                return True
        return None

    def rewrite(self, t, iff):
        if isinstance(t, Var):
            return self.decided(t) if iff else t
        if isinstance(t, Const) or t.fn == "HIDE":
            return t
        if t.fn == "IF":
            test = self.rewrite(t.args[0], True)
            d = truthy(test.value) if isinstance(test, Const) else self.answer(test)
            if d is not None:
                return self.rewrite(t.args[1] if d else t.args[2], iff)
            u = App("IF", (test, self.rewrite(t.args[1], iff), self.rewrite(t.args[2], iff)))
        else:
            arg_iff = t.fn in ("NOT", "IFF")
            u = App(t.fn, tuple(self.rewrite(a, arg_iff) for a in t.args))
            if u.fn in FOLDABLE and all(isinstance(a, Const) for a in u.args):
                self.budget.take_cells((u.fn, u.args), built_cells(u.fn, [a.value for a in u.args]))
        return self.finish(u, iff)

    def decided(self, u):
        d = self.answer(u)
        return u if d is None else (CONST_T if d else CONST_NIL)

    def finish(self, u, iff):
        if u.fn in FOLDABLE and all(isinstance(a, Const) for a in u.args):
            return Const(apply_builtin(u.fn, [a.value for a in u.args]))
        if u.fn in ("EQUAL", "IFF") and u.args[0] is u.args[1]:
            return CONST_T
        if iff and self.answer(u) is not None:
            return self.decided(u)
        for rule in self.world.rule_order:
            if rule.name not in self.theory or (rule.equiv == "IFF" and not iff):
                continue
            subst = {}
            if not _ref_match(rule.lhs, u, subst):
                continue
            self.budget.take()
            for h in rule.hyps:
                if self.rewrite(_ref_substitute(h, subst), True) is not CONST_T:
                    break
            else:
                return self.rewrite(_ref_substitute(rule.rhs, subst), iff)
        return u


def _spec_world(rule_on_equal):
    """Definitions and rules on several heads: EQUAL and IFF rules, with and
    without hypotheses, one of them on EQUAL itself if rule_on_equal, and
    two kept out of the theory."""
    w = _oracle_world()
    w.add_stub("G", 1)
    rules = [
        ("G-NOT", "(g x)", "(not (f x))", ["(consp x)"], "IFF"),
        ("G-CONS", "(g (cons x y))", "x", [], "EQUAL"),
        ("EQUAL-G", "(equal (g x) 'k)", "(f x)", ["(not (f (car x)))"], "IFF"),
        ("F-K", "(f 'k)", "'nil", [], "EQUAL"),
        ("CAR-G", "(car (g x))", "(g (car x))", [], "EQUAL"),
    ]
    for name, lhs, rhs, hyps, equiv in rules:
        if name == "EQUAL-G" and not rule_on_equal:
            continue
        w.add_rule(name, RewriteRule(name, tr(lhs, w), tr(rhs, w),
                                     tuple(tr(h, w) for h in hyps), equiv))
    w.add_definition("E", ("X",), tr("(cons (g x) (d x))", w))
    w.add_definition("H", ("X",), tr("(hide (f x))", w))
    return w, w.theory() - {"F-K", "E"}


def _spec_term(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(rng.choice(["X", "Y", "Z"]))
        return Const(rng.choice([NIL, T, 3, Symbol("K"), from_list([1])]))
    fn, arity = rng.choice([("CONS", 2), ("CAR", 1), ("CONSP", 1), ("NOT", 1),
                            ("EQUAL", 2), ("IFF", 2), ("IF", 3), ("IF", 3), ("F", 1),
                            ("G", 1), ("D", 1), ("E", 1), ("H", 1), ("HIDE", 1)])
    args = [_spec_term(rng, depth - 1) for _ in range(arity)]
    if arity == 2 and rng.random() < 0.3:
        args[1] = args[0]  # for the equalities to settle
    return App(fn, tuple(args))


def _subterms(t):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from _subterms(a)


def test_rewrite_term_agrees_with_the_plain_inside_out_spec():
    # one shared table per term, and contexts that hold (NOT p) literals and
    # literals that contradict each other; limits with room, exact and short
    worlds = [_spec_world(True), _spec_world(False)]
    rng = random.Random(2718)
    shown = hits = contradictions = 0
    for n in range(300):
        w, theory = worlds[n % 2]
        t = _spec_term(rng, 5)
        memo, folded = {}, set()  # the shared table and the folds charged filling it
        # literals drawn mostly from t's own subterms, so that they settle
        # something, HIDE calls included (only decide can settle those)
        pool = list(_subterms(t)) + [_spec_term(rng, 2) for _ in range(3)]
        for _ in range(5):
            assume = [rng.choice(pool) for _ in range(rng.randrange(4))]
            assume += [negate_term(rng.choice(pool)) for _ in range(rng.randrange(3))]
            if assume and rng.random() < 0.3:
                assume.append(negate_term(rng.choice(assume)))
                contradictions += 1
            rng.shuffle(assume)
            iff = rng.random() < 0.5
            spec = _Spec(theory, w, StepBudget(10000), assume)
            want = spec.rewrite(t, iff)
            full = spec.budget.used
            for limit in (10000, full, full - 1):
                if limit < 0:
                    continue
                # a fresh table and budget; then the shared table, with a
                # budget that has charged the folds in it, as a later
                # literal of that proof has, and the spec from those folds
                seen = []
                for got_by, table, charged in (("spec", None, set()), ("fresh", {}, set()),
                                               ("spec", None, set(folded)), ("shared", memo, folded)):
                    budget = StepBudget(limit)
                    budget.folded = charged
                    hits += got_by == "shared" and (t, iff) in memo
                    try:
                        if got_by == "spec":
                            out = _Spec(theory, w, budget, assume).rewrite(t, iff)
                        else:
                            out = rewrite_term(t, RewriteContext(theory, w, budget, table, assume), iff)
                    except ResourceError as e:
                        out = str(e)
                    seen.append((out, budget.used, budget.cells))
                assert seen[0] == seen[1] and seen[2] == seen[3], (t, assume, iff, limit, seen)
                if limit == 10000:
                    assert seen[0][:2] == seen[2][:2] == (want, full)
                shown += want is not t and full > 0
    assert shown > 100 and hits > 400 and contradictions > 50  # hits: 465 counted


def test_one_memos_dict_serves_two_theories_as_fresh_tables_would():
    w = _chain_world()
    w.add_stub("P", 1)
    on, off = w.theory(), w.theory() - {"D2"}
    clauses = [
        (tr("(equal (d3 a) (cons (d2 a) b))", w),),
        (tr("(not (p x))", w), tr("(equal (if (p x) (d3 a) (d2 b)) (d1 a))", w)),
        (tr("(p x)", w), tr("(equal (if (p x) (d3 a) (d2 b)) (d1 a))", w)),
    ]
    memos = {}
    for theory in (on, off, on, off):
        for clause in clauses:
            fresh, shared = StepBudget(1000), StepBudget(1000)
            want = simplify_clause(clause, theory, w, fresh, {})
            got = simplify_clause(clause, theory, w, shared, memos)
            assert got == want
            assert shared.used == fresh.used
    assert set(memos) == {on, off}


def test_hide_blocks_rewriting():
    w = World()
    w.add_definition("D", ("X",), tr("(cons x x)"))
    t = tr("(hide (d y))", w)
    assert rw(t, w) == t
    outer = tr("(cons (hide (d y)) (d z))", w)
    got = rw(outer, w)
    assert got == App("CONS", (t, tr("(cons z z)")))


def test_hide_opacity_random():
    rng = random.Random(7341)
    for _ in range(100):
        w = World()
        w.add_definition("D", ("X",), tr("(cons x x)"))
        w.add_stub("F", 1)
        w.add_rule("F-GONE", RewriteRule("F-GONE", App("F", (Var("X"),)),
                                         CONST_NIL, (), rng.choice(["EQUAL", "IFF"])))
        theory = frozenset(rng.sample(["D", "F-GONE"], rng.randrange(3)))
        inner = _random_rw_term(rng, 3)
        t = App("HIDE", (inner,))
        got = rewrite_term(t, RewriteContext(theory, w, StepBudget(1000), {}),
                           iff=rng.random() < 0.5)
        assert got == t


def _random_rw_term(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            return Var(rng.choice(["X", "Y", "Z"]))
        return Const(rng.choice([NIL, T, 3, Symbol("K")]))
    fn, arity = rng.choice([("CONS", 2), ("CAR", 1), ("NOT", 1), ("EQUAL", 2),
                            ("IF", 3), ("F", 1), ("D", 1), ("HIDE", 1)])
    return App(fn, tuple(_random_rw_term(rng, depth - 1) for _ in range(arity)))


# ---------------------------------------------------------------------------
# IF splitting

def test_find_split_test_innermost_leftmost():
    w = World()
    w.add_stub("F", 2)
    t = tr("(f (if (if p 'a 'b) x y) (if q x y))", w)
    found = find_split_test(t)
    assert found == tr("(if p 'a 'b)", w)
    assert find_split_test(tr("(if 't x y)")) is None
    assert find_split_test(tr("(hide (if p x y))", w)) is None
    assert find_split_test(Var("X")) is None


def test_replace_subterm_respects_hide():
    w = World()
    w.add_stub("F", 2)
    t = tr("(f (if p x y) (hide (if p x y)))", w)
    got = replace_subterm(t, tr("(if p x y)"), Var("Y"))
    assert got == tr("(f y (hide (if p x y)))", w)


def test_split_ifs_shape():
    clause = (tr("(if p 'a 'b)"),)
    test, children = split_ifs(clause)
    assert test == Var("P")
    assert children[0] == (App("NOT", (Var("P"),)), Const(Symbol("A")))
    assert children[1] == (Var("P"), Const(Symbol("B")))
    assert split_ifs((Var("Q"),)) is None


def test_split_ifs_keeps_sibling_literals():
    clause = (Var("Q"), tr("(if p 'a 'b)"), Var("R"))
    test, children = split_ifs(clause)
    assert children[0] == (App("NOT", (Var("P"),)), Var("Q"),
                           Const(Symbol("A")), Var("R"))
    assert children[1] == (Var("P"), Var("Q"), Const(Symbol("B")), Var("R"))


_ATOMS = ["P", "Q", "R", "S"]


def _truth(t, env) -> bool:
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Const):
        return not (t.value is NIL or isinstance(t.value, type(NIL)))
    if isinstance(t, App):
        if t.fn == "IF":
            return _truth(t.args[1] if _truth(t.args[0], env) else t.args[2], env)
        if t.fn == "NOT":
            return not _truth(t.args[0], env)
    raise AssertionError(f"unexpected term in truth table: {t!r}")


def _clause_truth(clause, env) -> bool:
    return any(_truth(l, env) for l in clause)


def _random_if_term(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.75:
            return Var(rng.choice(_ATOMS))
        return rng.choice([CONST_T, CONST_NIL])
    return App("IF", tuple(_random_if_term(rng, depth - 1) for _ in range(3)))


def _count_ifs(clause) -> int:
    def walk(t):
        if isinstance(t, App):
            return (t.fn == "IF") + sum(walk(a) for a in t.args)
        return 0
    return sum(walk(l) for l in clause)


def test_split_ifs_preserves_truth_tables():
    rng = random.Random(90125)
    for _ in range(600):
        clause = tuple(_random_if_term(rng, 3) for _ in range(rng.randrange(1, 4)))
        split = split_ifs(clause)
        assignments = [
            dict(zip(_ATOMS, bits))
            for bits in itertools.product([False, True], repeat=len(_ATOMS))
        ]
        if split is None:
            continue
        _, children = split
        for env in assignments:
            want = _clause_truth(clause, env)
            got = all(_clause_truth(c, env) for c in children)
            assert want == got, (clause, env)
        # splitting to the end preserves the table as well (small inputs only,
        # full case splitting is exponential)
        if _count_ifs(clause) > 6:
            continue
        work, leaves = list(children), []
        for _ in range(5000):
            if not work:
                break
            c = work.pop()
            s = split_ifs(c)
            if s is None:
                leaves.append(c)
            else:
                work.extend(s[1])
        assert not work
        for env in assignments:
            want = _clause_truth(clause, env)
            assert want == all(_clause_truth(c, env) for c in leaves)


# ---------------------------------------------------------------------------
# simplify_clause

def test_simplify_true_literal_proves():
    out = simplify_clause((tr("(equal x x)"),), frozenset(), World(), StepBudget(10), {})
    assert out is None


def test_simplify_drops_false_literals():
    w = World()
    w.add_stub("F", 1)
    out = simplify_clause((tr("(consp '7)"), tr("(f x)", w)),
                          frozenset(), w, StepBudget(10), {})
    assert out == ((tr("(f x)", w),), None)


def test_simplify_complementary_pair_proves():
    w = World()
    w.add_stub("F", 1)
    lit = tr("(f x)", w)
    out = simplify_clause((lit, negate_term(lit)), frozenset(), w, StepBudget(10), {})
    assert out is None


def test_simplify_counts_each_copy_of_a_duplicated_literal():
    # While the first (F X) is rewritten its copy is still assumed false, so
    # the first reads false and drops; the second then has no copy left
    w = World()
    w.add_stub("F", 1)
    lit = tr("(f x)", w)
    out = simplify_clause((lit, lit), frozenset(), w, StepBudget(10), {})
    assert out == ((lit,), None)


def test_simplify_reads_a_term_assumed_and_denied_as_true():
    # P and (NOT P) are both in the clause: while the first literal is
    # rewritten P reads True, so its IF takes the then branch, and the
    # entry filed for that literal logs the question and its answer
    w = World()
    w.add_stub("F", 1)
    p, first = Var("P"), tr("(f (if p a b))", w)
    memos = {}
    out = simplify_clause((first, p, negate_term(p)), frozenset(), w, StepBudget(10), memos)
    assert out is None
    log, got, steps = memos[frozenset()][first]
    assert got == tr("(f a)", w)
    assert log == {p: True, got: None} and steps == 0


def test_simplify_assumptions_between_literals():
    w = World()
    # second literal is decided false under the first literal's negation
    clause = (tr("(not (consp x))", w), tr("(if (consp x) (equal 'a 'a) 'nil)", w))
    out = simplify_clause(clause, frozenset(), w, StepBudget(10), {})
    assert out is None


def test_simplify_splits_and_reports():
    w = World()
    w.add_stub("F", 1)
    clause = (tr("(if (f x) (equal a b) (equal c d))", w),)
    out = simplify_clause(clause, frozenset(), w, StepBudget(10), {})
    rewritten, (test, clauses) = out
    assert test == tr("(f x)", w)
    assert len(clauses) == 2
    assert rewritten == clause
    assert clauses[0] == (tr("(not (f x))", w), tr("(equal a b)"))
    assert clauses[1] == (tr("(f x)", w), tr("(equal c d)"))


def test_simplify_stable_fixpoint():
    w = World()
    w.add_stub("F", 2)
    rng = random.Random(561)
    for _ in range(200):
        clause = tuple(_random_if_term(rng, 2) for _ in range(rng.randrange(1, 3)))
        frontier = [clause]
        for _ in range(100):
            if not frontier:
                break
            c = frontier.pop()
            out = simplify_clause(c, frozenset(), w, StepBudget(10000), {})
            if out is None:
                continue
            rewritten, split = out
            if split is not None or rewritten != c:
                frontier.extend(split[1] if split is not None else [rewritten])
                continue
            again = simplify_clause(c, frozenset(), w, StepBudget(10000), {})
            assert again == (c, None)
        assert not frontier


def _plain_find(t):
    if not isinstance(t, App) or t.fn == "HIDE":
        return None
    for a in t.args:
        found = _plain_find(a)
        if found is not None:
            return found
    return t if t.fn == "IF" and not isinstance(t.args[0], Const) else None


def _plain_replace(t, old, new):
    if t is old:
        return new
    if not isinstance(t, App) or t.fn == "HIDE":
        return t
    return App(t.fn, tuple(_plain_replace(a, old, new) for a in t.args))


def _plain_split(clause):
    """split_ifs as specified: tree walks that find the innermost leftmost
    IF with a non-constant test outside HIDE and replace it, with no kept
    answers and no skip tests."""
    for i, lit in enumerate(clause):
        found = _plain_find(lit)
        if found is not None:
            test, before, after = found.args[0], clause[:i], clause[i + 1:]
            return test, [
                (negate_term(test),) + before + (_plain_replace(lit, found, found.args[1]),) + after,
                (test,) + before + (_plain_replace(lit, found, found.args[2]),) + after,
            ]
    return None


def _plain_simplify(clause, theory, world, budget):
    """simplify_clause as specified: each literal rewritten by the plain
    spec under a fresh context of the others as they stand, with no memo
    and no literal reuse, and the plain split."""
    lits = list(clause)
    for i, lit in enumerate(lits):
        lits[i] = _Spec(theory, world, budget, lits[:i] + lits[i + 1:]).rewrite(lit, True)
    if any(isinstance(l, Const) and truthy(l.value) for l in lits):
        return None
    kept = tuple(l for l in lits if not (isinstance(l, Const) and not truthy(l.value)))
    if any(App("NOT", (l,)) in kept for l in kept):
        return None
    return kept, _plain_split(kept)


def _plain_expand(clause, targets, world):
    """expand_calls as specified: the targets beta-reduced and checked, then
    each literal mapped by a plain tree walk with no head test and no table."""
    pats = [_ref_beta_reduce(written) for written in targets]
    for written, pat in zip(targets, pats):
        if not isinstance(pat, App):
            raise ExpandError(f"expansion target is not a call: {written!r}")
        if pat.fn != "HIDE" and pat.fn not in world.definitions:
            raise ExpandError(f"no definition to expand: {pat.fn}")
    return tuple(_ref_expand(lit, pats, world) for lit in clause)


def test_simplify_clause_agrees_with_the_plain_spec_across_goals():
    # one memos dict for a sequence of clauses under two theories, as a
    # proof's goals share it; the clauses draw on one pool of literals, so
    # a literal meets later goals whose truth tables differ, and hold
    # duplicates, complementary pairs, NOTs and constants
    worlds = [_spec_world(True), _spec_world(False)]
    # (H A) opens to (HIDE (F A)), which no truth lookup sees through, so
    # when (NOT (HIDE (F A))) is rewritten first only the pass's verdict
    # finds the pair
    hidden_pair = [App("H", (Var("A"),)), negate_term(App("HIDE", (App("F", (Var("A"),)),)))]
    rng = random.Random(9157)
    shown = reused = 0
    for n in range(40):
        w, on = worlds[n % 2]
        theories = (on, on - {"G-CONS", "D"})
        memos, folded = {}, set()  # the shared tables and the folds charged filling them
        t = _spec_term(rng, 4)
        pool = [a for a in _subterms(t) if not isinstance(a, Const)][:8]
        pool += [_spec_term(rng, 2) for _ in range(3)]
        pool += [negate_term(rng.choice(pool)) for _ in range(3)] + [CONST_NIL, CONST_T]
        for _ in range(12):
            clause = [t] + [rng.choice(pool) for _ in range(rng.randrange(4))]
            if rng.random() < 0.3:
                clause.append(rng.choice(clause))  # a duplicate
            if rng.random() < 0.2:
                clause.append(negate_term(rng.choice(clause)))  # a complementary pair
            if rng.random() < 0.2:
                clause += hidden_pair
            rng.shuffle(clause)
            clause = tuple(clause)
            theory = rng.choice(theories)
            spec = StepBudget(10000)
            want = _plain_simplify(clause, theory, w, spec)
            full = spec.used
            for limit in rng.sample([10000, full, full - 1], 3):
                if limit < 0:
                    continue
                # fresh tables and budget; then the shared tables, with a
                # budget that has charged the folds in them, as a later
                # goal of that proof has, and the spec from those folds
                seen = []
                for tables, charged in ((None, set()), ({}, set()),
                                        (None, set(folded)), (memos, folded)):
                    budget = StepBudget(limit)
                    budget.folded = charged
                    filed = {}
                    if tables is memos:
                        table = memos.get(theory, {})
                        filed = {l: table[l] for l in clause if l in table}
                    try:
                        if tables is None:
                            out = _plain_simplify(clause, theory, w, budget)
                        else:
                            out = simplify_clause(clause, theory, w, budget, tables)
                            reused += sum(memos[theory][l] is e for l, e in filed.items())
                    except ResourceError as e:
                        out = str(e)
                    seen.append((out, budget.used, budget.cells))
                assert seen[0] == seen[1] and seen[2] == seen[3], (clause, limit, seen)
                if limit == 10000:
                    assert seen[0][:2] == seen[2][:2] == (want, full)
            shown += want != (clause, None) and full > 0
        assert set(memos) <= set(theories)
    # clauses the pass changed at a cost, and literal entries taken as
    # filed: counted 132 and 1,023
    assert shown > 100 and reused > 800


_CORPUS = sorted(Path(__file__).resolve().parent.parent.joinpath("corpus").glob("*.lisp"))


def _waterfall_file(rng):
    """Three theorems whose use-termhint extracts an :EXPAND of two
    (HQ ...) subterms bound by LET*; some mark one case with mark-clause,
    stage an :IN-THEORY with termhint-seq, bind a LET* value that two
    parents share in the goal, or state a goal that does not hold."""
    lines = ["(defstub p0 1) (defstub p1 1) (defstub p2 1) (defstub g 1) (defstub h 1)",
             "(defund fw (a b) (cons a b))",
             "(defund wrap (a b) (cons a b))",
             "(defthm wrap-fw (equal (wrap a b) (fw a b)) :hints ((:in-theory (enable wrap fw))))",
             "(in-theory (disable wrap-fw))"]
    for j in range(3):
        args = [f"(if (p{rng.randrange(3)} x) {yes} {no})"
                for yes, no in (rng.sample(["(g x)", "(h x)", "x", "(cons x x)"], 2)
                                for _ in range(2))]
        head = rng.choice(["fw", "wrap"])
        goal = (f"(equal ({head} {args[0]} {args[1]})"
                f" (cons {args[rng.random() < 0.2]} {args[1]}))")
        if rng.random() < 0.4:
            goal = f"(let* ((s (cons x x)) (u (cons s s)) (v (cons u u))) (implies (p0 v) {goal}))"
        hint = "`'(:expand ((fw ,(hq t0) ,(hq t1))))"
        if rng.random() < 0.4:
            mark = f"''(:use ((:instance mark-clause-is-true (x 'case-{j}))))"
            hint = f"(if (p{rng.randrange(3)} x) {mark} {hint})"
        hint = f"(let* ((t0 {args[0]}) (t1 {args[1]})) {hint})"
        if head == "wrap" or rng.random() < 0.3:
            hint = f"(termhint-seq ''(:in-theory (enable wrap-fw)) {hint})"
        lines.append(f"(defthm a{j} {goal} :rule-classes nil :hints ((use-termhint {hint})))")
    return "\n".join(lines) + "\n"


def test_waterfall_agrees_with_the_plain_spec(tmp_path, monkeypatch, capsys):
    # The whole prover over the corpus and seeded files, once as it is and
    # once with each simplification pass and each :expand replaced by the
    # plain spec, under
    # a roomy step limit and three tight ones: the trace and checkpoint
    # report, stderr and the exit code must match.
    rng = random.Random(2417)
    paths = [str(p) for p in _CORPUS]
    for i in range(12):
        path = tmp_path / f"gen-{i}.lisp"
        path.write_text(_waterfall_file(rng))
        paths.append(str(path))

    def report(limit):
        r = run(paths, limit)
        return format_report(r, trace=True, checkpoints=True), capsys.readouterr().err, r.exit_code

    verdicts = set()
    for limit in (10000, 40, 7, 3):
        real = report(limit)
        with monkeypatch.context() as m:
            m.setattr(hints, "simplify_clause",
                      lambda clause, theory, world, budget, memos:
                      _plain_simplify(clause, theory, world, budget))
            m.setattr(hints, "expand_calls", _plain_expand)
            plain = report(limit)
        assert real == plain, limit
        verdicts |= {line.split()[2] for line in real[0].splitlines()
                     if line.startswith("THEOREM")}
    assert verdicts == {"PROVED", "FAILED"}


# ---------------------------------------------------------------------------
# expand_calls

def _dworld():
    w = World()
    w.add_definition("D", ("A", "B"), tr("(cons a b)"), enabled=False)
    w.add_stub("F", 1)
    return w


def test_expand_opens_matching_calls():
    w = _dworld()
    clause = (tr("(equal (d x y) (f (d '1 '2)))", w),)
    got = expand_calls(clause, [tr("(d x y)", w)], w)
    # the variable pattern matches every call of D
    assert got == (tr("(equal (cons x y) (f (cons '1 '2)))", w),)


def test_expand_specific_instance_only():
    w = _dworld()
    clause = (tr("(equal (d x y) (d '1 '2))", w),)
    got = expand_calls(clause, [tr("(d '1 '2)", w)], w)
    assert got == (tr("(equal (d x y) (cons '1 '2))", w),)


def test_expand_hide_target_strips_wrapper():
    w = _dworld()
    clause = (tr("(f (hide (d x y)))", w),)
    got = expand_calls(clause, [tr("(hide (d x y))", w)], w)
    assert got == (tr("(f (d x y))", w),)
    # HIDE not named as a target stays closed
    same = expand_calls(clause, [tr("(d '9 '9)", w)], w)
    assert same == clause


def test_expand_does_not_rescan_replacement():
    w = World()
    w.add_definition("W2", ("X",), App("W2", (App("CONS", (Var("X"), CONST_NIL)),)))
    clause = (App("W2", (Var("A"),)),)
    got = expand_calls(clause, [App("W2", (Var("V"),))], w)
    assert got == (App("W2", (App("CONS", (Var("A"), CONST_NIL)),)),)


def test_expand_matches_only_calls_on_a_targets_head(monkeypatch):
    import hintprover.rewrite as rewrite_mod

    real_match, heads = rewrite_mod.match, []
    w = _dworld()
    targets = [tr("(d x y)", w), tr("(hide z)", w)]

    def spy(pattern, target):  # an opened call's own match(d.lhs, u) is not counted
        if pattern in targets:
            heads.append((pattern.fn, target.fn))
        return real_match(pattern, target)

    monkeypatch.setattr(rewrite_mod, "match", spy)
    clause = (tr("(equal (d x (f y)) (f (hide (d '1 '2))))", w),)
    got = expand_calls(clause, targets, w)
    assert got == (tr("(equal (cons x (f y)) (f (d '1 '2)))", w),)
    assert sorted(heads) == [("D", "D"), ("HIDE", "HIDE")]


def test_expand_opens_a_target_that_is_the_call_without_match(monkeypatch):
    import hintprover.rewrite as rewrite_mod

    real_match, targets = rewrite_mod.match, []
    w = _dworld()
    pats = [tr("(d x y)", w), tr("(hide (d x y))", w)]

    def spy(pattern, target):  # an opened call's own match(d.lhs, u) is not counted
        if pattern in pats:
            targets.append(target)
        return real_match(pattern, target)

    monkeypatch.setattr(rewrite_mod, "match", spy)
    clause = (tr("(equal (d x y) (f (hide (d x y))))", w), tr("(d '1 '2)", w))
    got = expand_calls(clause, pats, w)
    assert got == (tr("(equal (cons x y) (f (d x y)))", w), tr("(cons '1 '2)", w))
    # only the call that is not a target itself went to the matcher
    assert targets == [tr("(d '1 '2)", w)]


def test_expand_errors():
    w = _dworld()
    with pytest.raises(ExpandError):
        expand_calls((Var("X"),), [Var("X")], w)
    with pytest.raises(ExpandError):
        expand_calls((Var("X"),), [tr("(f y)", w)], w)  # stub, no definition


# ---------------------------------------------------------------------------
# normalize_definition

def test_normalize_lifts_if_from_test():
    got = normalize_definition(tr("(if (if p 'a 'nil) x y)"), StepBudget(10000))
    assert got == tr("(if p (if 'a x y) (if 'nil x y))")


def test_normalize_lifts_if_from_args():
    got = normalize_definition(tr("(cons (if p 'a 'b) q)"), StepBudget(10000))
    assert got == tr("(if p (cons 'a q) (cons 'b q))")
    # leftmost argument first
    got2 = normalize_definition(tr("(cons (if p 'a 'b) (if q 'c 'd))"), StepBudget(10000))
    assert got2 == tr(
        "(if p (if q (cons 'a 'c) (cons 'a 'd)) (if q (cons 'b 'c) (cons 'b 'd)))"
    )


def test_normalize_goes_through_hide():
    got = normalize_definition(tr("(hide (if p 'a 'b))"), StepBudget(10000))
    assert got == tr("(if p (hide 'a) (hide 'b))")


def test_normalize_idempotent():
    rng = random.Random(314)
    for _ in range(200):
        t = _random_rw_term(rng, 4)
        once = normalize_definition(t, StepBudget(10000))
        assert normalize_definition(once, StepBudget(0)) == once  # and lifts nothing
