"""Clause simplification: conditional rewriting, IF splitting, expansion.

A clause is a tuple of literal Terms read as a disjunction.  While one
literal is rewritten, every other literal is assumed false; a literal of
shape (NOT A) therefore contributes A as a true assumption.  Assumptions
settle IF tests and propositional subterms, nothing else.  A clause is
rewritten under one RewriteContext, which holds them together with the
theory, the world, the step budget and a memo table; before each
literal is rewritten its own assumptions are withdrawn, and after it
its result's are added.

A rewrite whose computation never read the truth table is a function
of (term, iff), the theory and the world, so it outlives the literal:
the caller of simplify_clause owns one table per theory (`memos`), and
every goal of a proof shares it.  A rewrite that did read the truth
table is kept only while that literal is rewritten, except the whole
literal's: it is filed in the same table with the questions it asked
and their answers, and a later goal whose table answers them alike
takes it as it is.

Every term walked here is lambda-free.  The callers beta-reduce what
they translate before it reaches a clause, a rule or a definition, and
expand_calls does the same to its targets.

HIDE is opaque here: the rewriter neither descends into it nor applies
rules to it, and IF splitting ignores tests under it.  Only an explicit
(HIDE ...) expansion target peels it off.
"""

from .sexpr import ProverError
from .term import (
    App, Const, Var, CONST_NIL, CONST_T, FOLDABLE,
    apply_builtin, beta_reduce, built_cells, rebuild, truthy,
)


class ResourceError(ProverError):
    pass


class ExpandError(ProverError):
    pass


class StepBudget:
    """Rewrite steps (`used`, reported as steps=), subgoals (`goals`) and the
    cons cells that constant folding builds and hint splices copy
    (`cells`), one limit.

    `folded` holds the folds and splices charged so far, each a (head,
    arguments) pair: a proof pays once for each distinct one, however
    many of its literals and goals build it again or take it from a memo.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.goals = 0
        self.cells = 0
        self.folded = set()

    def take(self, n=1):
        """Charge n steps, failing exactly where n single steps would."""
        if self.used + n > self.limit:
            self.used = max(self.used, self.limit)
            raise ResourceError(f"step budget of {self.limit} exhausted")
        self.used += n

    def take_goal(self):
        if self.goals >= self.limit:
            raise ResourceError(f"goal budget of {self.limit} exhausted")
        self.goals += 1

    def take_cells(self, fold, n):
        """Charge the n cells fold is about to build, unless already charged."""
        if fold not in self.folded:
            if self.cells + n > self.limit:
                raise ResourceError(f"fold budget of {self.limit} cells exhausted")
            self.cells += n
            self.folded.add(fold)


def negate_term(t):
    if isinstance(t, App) and t.fn == "NOT":
        return t.args[0]
    return App("NOT", (t,))


def is_true_const(t) -> bool:
    return isinstance(t, Const) and truthy(t.value)


class RewriteContext:
    """Everything a literal's rewrite holds fixed: theory, world, budget,
    the truth context from the other literals of the clause in play, and
    the memo tables rewrite_term reads and fills.

    The truth table is kept by counts: `falses` maps a term to how many
    literals are that term, `trues` a term p to how many are (NOT p).
    A term with any true count reads True, else one with any false count
    reads False, so a term both assumed and denied reads True.  The
    constructor counts false_literals; simplify_clause keeps the counts
    itself, taking each literal out while it rewrites it and adding its
    result after, so one context serves every literal of a clause and
    the counts left at the end are what the pass's verdict reads.

    decide counts its calls in `reads` and notes each question and its
    answer in `log`.  Both memo tables map (term, iff) to (result, steps
    charged).  `memo` holds the rewrites that never read the truth table;
    it serves one theory and one world, but any number of truth tables:
    it may be shared by every literal of every goal of a proof under that
    theory, and the world must not change while it is in use.  A hit
    charges no fold cells, so the budget in use must have charged every
    fold in it already, as the one budget of that proof has.  `local`
    holds the rewrites that did read it, and is emptied whenever the
    table changes.
    """

    __slots__ = ("theory", "world", "budget", "falses", "trues", "memo", "local",
                 "reads", "log")

    def __init__(self, theory, world, budget, memo, false_literals=()):
        self.theory = theory
        self.world = world
        self.budget = budget
        self.falses, self.trues = falses, trues = {}, {}
        for l in false_literals:
            falses[l] = falses.get(l, 0) + 1
            if l.__class__ is App and l.fn == "NOT":
                p = l.args[0]
                trues[p] = trues.get(p, 0) + 1
        self.memo = memo
        self.local = {}
        self.reads = 0
        self.log = {}

    def decide(self, q):
        """True, False, or None when the context says nothing about q.

        A (NOT p) the table does not hold is answered from p.  Each call
        counts as a read of the context and is logged.
        """
        trues, falses = self.trues, self.falses
        if trues.get(q):
            a = True
        elif falses.get(q):
            a = False
        elif isinstance(q, App) and q.fn == "NOT":
            p = q.args[0]
            a = False if trues.get(p) else (True if falses.get(p) else None)
        else:
            a = None
        self.reads += 1
        self.log[q] = a
        return a


def match(lhs, u):
    """The seed that instantiates the call pattern lhs as the call u, or None.

    The seed maps each variable and each inner call node of lhs to the
    subterm of u it meets, so term.rebuild takes it as it is; lhs itself
    gets no entry.  A key met twice must meet the same subterm (`is`:
    terms are interned), which checks a repeated variable and matches a
    shared pattern node once.  The walk is a loop: the argument tuples
    still to match wait on a stack of nested triples, so a deep pattern
    costs no Python frames and a flat one allocates no stack.
    """
    ps, ts = lhs.args, u.args
    if u.fn != lhs.fn or len(ts) != len(ps):
        return None
    seed = {}
    todo = ()
    while True:
        for p, t in zip(ps, ts):
            if p.__class__ is Var:
                if seed.setdefault(p, t) is not t:
                    return None
            elif p.__class__ is App:
                got = seed.get(p)
                if got is None:
                    if not (t.__class__ is App and t.fn == p.fn and len(t.args) == len(p.args)):
                        return None
                    seed[p] = t
                    todo = (p.args, t.args, todo)
                elif got is not t:
                    return None
            elif p is not t:  # terms are interned: equal constants are one object
                return None
        if not todo:
            return seed
        ps, ts, todo = todo


def rewrite_term(t, ctx, iff=False):
    """Rewrite t inside out under ctx, a RewriteContext.

    With iff=True only the truth value of t must be preserved, which
    admits IFF rules and lets the context settle whole subterms.  The
    arguments of NOT and IFF are rewritten that way, no others.

    Calls are memoized per (t, iff).  rewrite_term asks ctx only through
    decide, so a call during which ctx.reads did not move is a function
    of (t, iff), the theory and the world, and goes to ctx.memo; any
    other goes to ctx.local.  A hit in ctx.local counts as a read, since
    the enclosing call depends on the context too.  A hit charges the
    recorded steps again, so the budget reads (and runs out) as if the
    work were redone.  The lookup is at the entry and the store at the
    one exit below: a wrapper would cost a stack frame per nesting level.

    A foldable head with constant arguments folds here, once the budget
    has charged the cells it builds.  Any other call's node goes to
    _finish only where one of its steps can act: an IF, an iff context,
    EQUAL or IFF, or a head with rules.  Any other node is its own result.
    """
    if isinstance(t, Var):
        if iff:
            d = ctx.decide(t)
            if d is True:
                return CONST_T
            if d is False:
                return CONST_NIL
        return t
    if isinstance(t, Const):
        return t
    key = (t, iff)
    hit = ctx.memo.get(key)
    if hit is None:
        hit = ctx.local.get(key)
        if hit is not None:
            ctx.reads += 1
    budget = ctx.budget
    if hit is not None:
        out, steps = hit
        if steps:
            budget.take(steps)
        return out
    used = budget.used
    reads = ctx.reads

    fn = t.fn
    if fn == "HIDE":
        out = t
    elif fn == "IF":
        test = rewrite_term(t.args[0], ctx, True)
        d = truthy(test.value) if isinstance(test, Const) else ctx.decide(test)
        if d is not None:
            out = rewrite_term(t.args[1] if d else t.args[2], ctx, iff)
        else:
            args = (test, rewrite_term(t.args[1], ctx, iff), rewrite_term(t.args[2], ctx, iff))
            out = _finish(t if args == t.args else App("IF", args), ctx, iff)
    else:
        arg_iff = fn == "NOT" or fn == "IFF"
        args = []
        changed = False
        consts = True
        for a in t.args:
            b = rewrite_term(a, ctx, arg_iff)
            if b is not a:
                changed = True
            if consts and not isinstance(b, Const):
                consts = False
            args.append(b)
        if consts and fn in FOLDABLE:
            values = [b.value for b in args]
            cells = built_cells(fn, values)
            if cells:
                budget.take_cells((fn, tuple(args)), cells)
            out = Const(apply_builtin(fn, values))
        else:
            out = App(fn, tuple(args)) if changed else t
            if iff or fn == "EQUAL" or fn == "IFF" or fn in ctx.world.rules_by_fn:
                out = _finish(out, ctx, iff)

    (ctx.memo if ctx.reads == reads else ctx.local)[key] = (out, budget.used - used)
    return out


def _finish(u, ctx, iff):
    """Post-child steps at one node whose fold rewrite_term has ruled out:
    settle, then fire the first enabled rule on u's head symbol, in
    install order (opened definitions included).  A rule whose lhs has
    another head can never match u.

    match binds a rule's variables, and its seed is term.rebuild's table
    for the hypotheses and the rhs, so a node they share is instantiated
    once and an instance of a node of the lhs is the subterm of u it met.
    It calls match through this module's global, so a wrapper set on
    rewrite.match sees every try."""
    if u.fn in ("EQUAL", "IFF") and u.args[0] == u.args[1]:
        return CONST_T
    if iff:
        d = ctx.decide(u)
        if d is True:
            return CONST_T
        if d is False:
            return CONST_NIL

    theory = ctx.theory
    for rule in ctx.world.rules_by_fn.get(u.fn, ()):
        if rule.name not in theory or (rule.equiv == "IFF" and not iff):
            continue
        seed = match(rule.lhs, u)
        if seed is None:
            continue
        ctx.budget.take()
        if not all(
            is_true_const(rewrite_term(rebuild(h, seed), ctx, True))
            for h in rule.hyps
        ):
            continue
        return rewrite_term(rebuild(rule.rhs, seed), ctx, iff)

    return u


# ---------------------------------------------------------------------------
# IF splitting

def find_split_test(t):
    """Innermost leftmost IF with a non-constant test, ignoring HIDE.

    The answer is worked out when the node is built and kept in its
    `_split` slot: True when it is the node itself (so no node refers to
    itself), otherwise None or the subterm found.
    """
    r = t._split
    return t if r is True else r


def replace_subterm(t, old, new):
    """Replace every visible occurrence of old; HIDE contents stay put.

    old must hold a splittable IF, as what split_ifs replaces does.  A call
    in which find_split_test finds none, a HIDE among them, cannot hold a
    visible old (the search would have found old's), so the step keeps it
    unvisited.  Each shared node is visited once (term.rebuild).
    """
    return rebuild(t, {old: new}, _keep_unsplittable)


def _keep_unsplittable(u):
    return u if u._split is None else None


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

def simplify_clause(clause, theory, world, budget, memos):
    """One pass: rewrite each literal assuming the others false, drop
    false literals, then look for a split.

    Returns None when the clause proved, otherwise (rewritten, split):
    the tuple of surviving literals and what split_ifs returns for it.
    The clause proved when a literal rewrote to a true constant or one
    is the negation of another.  Each literal's result replaces it in the
    truth counts, so after the loop they count exactly the rewritten
    literals, and the second test reads them: some p is counted both
    false and true.  Whether the goal is stable is the caller's to decide.

    memos maps a theory to its memo table (see RewriteContext) and is
    filled here.  prove_clause passes one dict to every goal of a proof,
    so later goals reuse earlier rewrites that read no assumption.  A
    literal whose rewrite read the truth table is filed in that table
    under the literal itself, as (log, result, steps); a later literal
    equal to it whose table gives every logged question the logged answer
    takes the result and is charged the steps, as a memo hit is.  Since
    rewrite_term asks its context only through decide, the same answers
    give the same rewrite.
    """
    memo = memos.setdefault(theory, {})
    ctx = RewriteContext(theory, world, budget, memo, clause)
    falses, trues, decide = ctx.falses, ctx.trues, ctx.decide
    lits = list(clause)
    for i, lit in enumerate(lits):
        falses[lit] -= 1  # lit is out of the truth counts while it is rewritten
        if lit.__class__ is App and lit.fn == "NOT":
            trues[lit.args[0]] -= 1
        filed = memo.get(lit)
        if filed is not None:
            log, out, steps = filed
            for q, a in log.items():
                if decide(q) is not a:
                    filed = None
                    break
            else:
                if steps:
                    budget.take(steps)
        if filed is None:
            ctx.local = {}
            log = ctx.log = {}
            used = budget.used
            out = rewrite_term(lit, ctx, True)
            if log:
                memo[lit] = (log, out, budget.used - used)
                ctx.log = {}  # what later questions ask stays out of the filed log
        lits[i] = out
        falses[out] = falses.get(out, 0) + 1
        if out.__class__ is App and out.fn == "NOT":
            p = out.args[0]
            trues[p] = trues.get(p, 0) + 1

    if any(is_true_const(l) for l in lits) or any(falses.get(p) for p, n in trues.items() if n):
        return None
    rewritten = tuple([l for l in lits if l is not CONST_NIL])
    return rewritten, split_ifs(rewritten)


# ---------------------------------------------------------------------------
# Explicit expansion (:EXPAND hints)

def expand_calls(clause, targets, world):
    """Open up matching calls in place, ignoring enable status.

    Each target is a call pattern whose variables match anything; it is
    beta-reduced first, as the clause was.  A target that is the call
    itself (terms are interned) matches without the matcher.  An opened
    call is the definition's body rebuilt from the seed match gives for
    its (name formals...) and the call.  A (HIDE x) target strips
    matching HIDE wrappers instead of unfolding; any other HIDE is kept
    whole.  Replacements are not rescanned.  The literals are mapped by
    term.rebuild through one table, so a node they share opens once.
    """
    pats = []
    for written in targets:
        pat = beta_reduce(written)
        if not isinstance(pat, App):
            raise ExpandError(f"expansion target is not a call: {written!r}")
        if pat.fn != "HIDE" and pat.fn not in world.definitions:
            raise ExpandError(f"no definition to expand: {pat.fn}")
        pats.append(pat)

    def step(u):
        for pat in pats:
            if pat is u or (pat.fn == u.fn and match(pat, u) is not None):
                if pat.fn == "HIDE":
                    return u.args[0]
                d = world.definitions[pat.fn]
                return rebuild(d.rhs, match(d.lhs, u))
        return u if u.fn == "HIDE" else None

    done = {}
    out = []
    for lit in clause:
        out.append(rebuild(lit, done, step))
    return tuple(out)


# ---------------------------------------------------------------------------
# Definition-time IF normalization

def normalize_definition(body, budget: StepBudget):
    """Lift IFs out of argument positions until none remain buried.

    The one rule: an IF lifts out of an argument position, and an IF's
    branches are not argument positions, so only its test is.  Applies to
    every function including HIDE; opacity matters when rewriting, not
    when a definition is installed.  Each lift takes one step from budget,
    since k IF-valued arguments need 2^k - 1 lifts.

    A shared node is normalized once.  Its entry keeps the steps that took,
    and each reuse takes them again, so the budget runs out where a walk
    over the unshared tree would.
    """
    return _normalize(body, budget, {})


def _normalize(t, budget, done):
    if not isinstance(t, App):
        return t
    hit = done.get(t)
    if hit is not None:
        out, steps = hit
        if steps:
            budget.take(steps)
        return out
    used = budget.used
    args = []
    for a in t.args:  # a loop: a comprehension costs a frame per level
        args.append(_normalize(a, budget, done))
    out = _lift_ifs(t.fn, args, budget)
    done[t] = (out, budget.used - used)
    return out


def _lift_ifs(fn, args, budget):
    """Normalize (fn args...) whose args are already normalized.

    Every subterm of a normalized term is normalized, so the pieces of a
    lifted IF are never walked again.
    """
    for i in (0,) if fn == "IF" else range(len(args)):
        a = args[i]
        if isinstance(a, App) and a.fn == "IF":
            budget.take()
            test, yes, no = a.args
            return _lift_ifs("IF", [
                test,
                _lift_ifs(fn, args[:i] + [yes] + args[i + 1:], budget),
                _lift_ifs(fn, args[:i] + [no] + args[i + 1:], budget),
            ], budget)
    return App(fn, tuple(args))
