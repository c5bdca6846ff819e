"""Clause simplification: conditional rewriting, IF splitting, expansion.

A clause is a tuple of literal Terms read as a disjunction.  While one
literal is rewritten, every other literal is assumed false; a literal of
shape (NOT A) therefore contributes A as a true assumption.  Assumptions
settle IF tests and propositional subterms, nothing else.

HIDE is opaque here: the rewriter neither descends into it nor applies
rules to it, and IF splitting ignores tests under it.  Only an explicit
(HIDE ...) expansion target peels it off.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sexpr import is_nil
from .term import (
    App, Const, LamApp, Var, CONST_NIL, CONST_T, FOLDABLE,
    apply_builtin, beta_reduce, sexpr_equal, substitute, truthy,
)


class ResourceError(Exception):
    pass


class ExpandError(Exception):
    pass


class StepBudget:
    """Rewrite steps (`used`, reported as steps=) and subgoals (`goals`), one limit."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.goals = 0

    def take(self):
        if self.used >= self.limit:
            raise ResourceError(f"step budget of {self.limit} exhausted")
        self.used += 1

    def take_goal(self):
        if self.goals >= self.limit:
            raise ResourceError(f"goal budget of {self.limit} exhausted")
        self.goals += 1


def negate_term(t):
    if isinstance(t, App) and t.fn == "NOT":
        return t.args[0]
    return App("NOT", (t,))


def is_true_const(t) -> bool:
    return isinstance(t, Const) and truthy(t.value)


def is_false_const(t) -> bool:
    return isinstance(t, Const) and is_nil(t.value)


class Assumptions:
    """Truth context from the other literals of the clause in play."""

    def __init__(self, false_literals=()):
        self.false_terms = set(false_literals)
        self.true_terms = {
            l.args[0]
            for l in self.false_terms
            if isinstance(l, App) and l.fn == "NOT"
        }

    def decide(self, q):
        """True, False, or None when the context says nothing about q."""
        if q in self.true_terms:
            return True
        if q in self.false_terms:
            return False
        if isinstance(q, App) and q.fn == "NOT":
            p = q.args[0]
            if p in self.true_terms:
                return False
            if p in self.false_terms:
                return True
        return None


def match(pattern, target):
    """One-way match; repeated pattern variables must bind equal terms."""
    subst = {}

    def go(p, u):
        if isinstance(p, Var):
            if p.name in subst:
                return subst[p.name] == u
            subst[p.name] = u
            return True
        if isinstance(p, Const):
            return isinstance(u, Const) and sexpr_equal(p.value, u.value)
        if isinstance(p, App):
            if not (isinstance(u, App) and u.fn == p.fn and len(u.args) == len(p.args)):
                return False
            return all(go(a, b) for a, b in zip(p.args, u.args))
        return p == u

    return subst if go(pattern, target) else None


def rewrite_term(t, theory, assumptions, world, budget, iff=False):
    """Rewrite t inside out under the given theory and assumptions.

    With iff=True only the truth value of t must be preserved, which
    admits IFF rules and lets assumptions settle whole subterms.
    """
    if isinstance(t, Var):
        if iff:
            d = assumptions.decide(t)
            if d is True:
                return CONST_T
            if d is False:
                return CONST_NIL
        return t
    if isinstance(t, Const):
        return t
    if isinstance(t, LamApp):
        return rewrite_term(beta_reduce(t), theory, assumptions, world, budget, iff)

    if t.fn == "HIDE":
        return t

    if t.fn == "IF":
        test = rewrite_term(t.args[0], theory, assumptions, world, budget, iff=True)
        if isinstance(test, Const):
            branch = t.args[1] if truthy(test.value) else t.args[2]
            return rewrite_term(branch, theory, assumptions, world, budget, iff)
        d = assumptions.decide(test)
        if d is not None:
            branch = t.args[1] if d else t.args[2]
            return rewrite_term(branch, theory, assumptions, world, budget, iff)
        args = (
            test,
            rewrite_term(t.args[1], theory, assumptions, world, budget, iff),
            rewrite_term(t.args[2], theory, assumptions, world, budget, iff),
        )
        return _finish(App("IF", args), theory, assumptions, world, budget, iff)

    arg_iff = _arg_contexts(t.fn, len(t.args))
    args = tuple(
        rewrite_term(a, theory, assumptions, world, budget, iff=ai)
        for a, ai in zip(t.args, arg_iff)
    )
    return _finish(App(t.fn, args), theory, assumptions, world, budget, iff)


def _arg_contexts(fn, n):
    if fn == "NOT":
        return (True,)
    if fn == "IFF":
        return (True, True)
    return (False,) * n


def _finish(u, theory, assumptions, world, budget, iff):
    """Post-child steps at one node: fold, settle, then try rules."""
    if u.fn in FOLDABLE and all(isinstance(a, Const) for a in u.args):
        return Const(apply_builtin(u.fn, [a.value for a in u.args]))
    if u.fn in ("EQUAL", "IFF") and u.args[0] == u.args[1]:
        return CONST_T
    if iff:
        d = assumptions.decide(u)
        if d is True:
            return CONST_T
        if d is False:
            return CONST_NIL

    for kind, name in world.rule_order:
        if name not in theory:
            continue
        if kind == "defn":
            d = world.definitions[name]
            if d.recursive or u.fn != name:
                continue
            budget.take()
            body = substitute(d.body, dict(zip(d.formals, u.args)))
            return rewrite_term(body, theory, assumptions, world, budget, iff)
        rule = world.rules[name]
        if rule.equiv == "IFF" and not iff:
            continue
        subst = match(rule.lhs, u)
        if subst is None:
            continue
        budget.take()
        if not all(
            is_true_const(
                rewrite_term(substitute(h, subst), theory, assumptions, world, budget, iff=True)
            )
            for h in rule.hyps
        ):
            continue
        rhs = substitute(rule.rhs, subst)
        return rewrite_term(rhs, theory, assumptions, world, budget, iff)

    return u


# ---------------------------------------------------------------------------
# IF splitting

def find_split_test(t):
    """Innermost leftmost IF with a non-constant test, ignoring HIDE."""
    if isinstance(t, App):
        if t.fn == "HIDE":
            return None
        for a in t.args:
            r = find_split_test(a)
            if r is not None:
                return r
        if t.fn == "IF" and not isinstance(t.args[0], Const):
            return t
    return None


def replace_subterm(t, old, new):
    """Replace every visible occurrence of old; HIDE contents stay put."""
    if t == old:
        return new
    if isinstance(t, App):
        if t.fn == "HIDE":
            return t
        return App(t.fn, tuple(replace_subterm(a, old, new) for a in t.args))
    if isinstance(t, LamApp):
        return LamApp(t.formals, t.body, tuple(replace_subterm(a, old, new) for a in t.actuals))
    return t


def split_ifs(clause):
    """Case-split the first literal holding a splittable IF, if any.

    Returns (test, [then_clause, else_clause]) or None.  The case
    literal is put in front: (IF A B C) splits into ((NOT A) B) and (A C).
    """
    for i, lit in enumerate(clause):
        found = find_split_test(lit)
        if found is None:
            continue
        test = found.args[0]
        lit_then = replace_subterm(lit, found, found.args[1])
        lit_else = replace_subterm(lit, found, found.args[2])
        before, after = clause[:i], clause[i + 1:]
        return test, [
            (negate_term(test),) + before + (lit_then,) + after,
            (test,) + before + (lit_else,) + after,
        ]
    return None


# ---------------------------------------------------------------------------
# One simplification pass over a clause

@dataclass
class SimplifyOutcome:
    clauses: list
    changed: bool
    rewritten: object  # clause after rewriting, before any split
    split_test: object
    proved: bool


def _has_complementary_pair(lits) -> bool:
    present = set(lits)
    return any(
        isinstance(l, App) and l.fn == "NOT" and l.args[0] in present
        for l in lits
    )


def simplify_clause(clause, theory, world, budget) -> SimplifyOutcome:
    lits = list(clause)
    changed = False
    for i in range(len(lits)):
        assumptions = Assumptions([l for j, l in enumerate(lits) if j != i])
        new = rewrite_term(lits[i], theory, assumptions, world, budget, iff=True)
        if new != lits[i]:
            changed = True
            lits[i] = new

    if any(is_true_const(l) for l in lits):
        return SimplifyOutcome([], True, None, None, True)
    kept = [l for l in lits if not is_false_const(l)]
    if len(kept) != len(lits):
        changed = True
        lits = kept
    if _has_complementary_pair(lits):
        return SimplifyOutcome([], True, None, None, True)

    result = tuple(lits)
    split = split_ifs(result)
    if split is not None:
        test, clauses = split
        return SimplifyOutcome(clauses, True, result, test, False)
    return SimplifyOutcome([result], changed, result, None, False)


# ---------------------------------------------------------------------------
# Explicit expansion (:EXPAND hints)

def expand_calls(clause, targets, world):
    """Open up matching calls in place, ignoring enable status.

    Each target is a call pattern whose variables match anything.  A
    (HIDE x) target strips matching HIDE wrappers instead of unfolding.
    Replacements are not rescanned.
    """
    for pat in targets:
        if not isinstance(pat, App):
            raise ExpandError(f"expansion target is not a call: {pat!r}")
        if pat.fn != "HIDE" and pat.fn not in world.definitions:
            raise ExpandError(f"no definition to expand: {pat.fn}")

    def walk(t):
        if isinstance(t, App):
            for pat in targets:
                subst = match(pat, t)
                if subst is None:
                    continue
                if pat.fn == "HIDE":
                    return t.args[0]
                d = world.definitions[pat.fn]
                return beta_reduce(substitute(d.body, dict(zip(d.formals, t.args))))
            if t.fn == "HIDE":
                return t
            return App(t.fn, tuple(walk(a) for a in t.args))
        if isinstance(t, LamApp):
            return LamApp(t.formals, t.body, tuple(walk(a) for a in t.actuals))
        return t

    return tuple(walk(lit) for lit in clause)


# ---------------------------------------------------------------------------
# Definition-time IF normalization

def normalize_definition(body):
    """Lift IFs out of argument positions until none remain buried.

    Applies to every function including HIDE; opacity matters when
    rewriting, not when a definition is installed.
    """
    if not isinstance(body, App):
        return body
    args = [normalize_definition(a) for a in body.args]
    if body.fn == "IF":
        test = args[0]
        if isinstance(test, App) and test.fn == "IF":
            a, b, c = test.args
            return normalize_definition(App("IF", (
                a,
                App("IF", (b, args[1], args[2])),
                App("IF", (c, args[1], args[2])),
            )))
        return App("IF", tuple(args))
    for i, a in enumerate(args):
        if isinstance(a, App) and a.fn == "IF":
            test, yes, no = a.args
            return normalize_definition(App("IF", (
                test,
                App(body.fn, tuple(args[:i] + [yes] + args[i + 1:])),
                App(body.fn, tuple(args[:i] + [no] + args[i + 1:])),
            )))
    return App(body.fn, tuple(args))
