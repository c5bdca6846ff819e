"""Hints and the goal waterfall.

A proof attempt carries a pending list of hint entries.  An entry is
either a keyword Hint, which fires the first time it is reached, or a
ComputedHint, whose expression is evaluated against the goal and fires
when it yields a hint.  A fired entry is spliced out of the pending
list and replaced by its declared replacement entries, so unfired
entries survive for sibling goals.  Entries are plain data; native code
runs only inside named hint functions.

Goals are named "Goal", "Subgoal 1", "Subgoal 1.2", ... in creation
order.  Each goal tries hints on arrival, then simplifies; a goal that
is stable under simplification (the pass returns its clause unchanged
and finds no split) offers itself to the pending hints once more before
it becomes a checkpoint.  Each step is recorded as an event of plain
data that keeps terms; a report renders an event only when it prints it.
"""

import sys

from .sexpr import (
    NIL, Keyword, Pair, ProverError, Symbol, T, QUOTE,
    from_list, is_nil, is_proper_list, print_capped, to_list,
)
from .term import (
    BUILTIN_ARITY, CONST_NIL, App, EvalError, Translator, Var,
    apply_builtin, beta_reduce, evaluate, free_vars, substitute, translate, unparse,
)
from .rewrite import expand_calls, negate_term, simplify_clause


class HintError(ProverError):
    pass


class UseInstance:
    __slots__ = ("name", "bindings")

    def __init__(self, name: str, bindings: tuple):
        self.name = name
        self.bindings = bindings  # ((var, Term), ...)


class Hint:
    __slots__ = ("use", "expand", "enable", "disable", "clause_processor", "replacement",
                 "display")

    def __init__(self, use=(), expand=(), enable=(), disable=(), clause_processor=None,
                 replacement=None, display=None):
        self.use = use
        self.expand = expand
        self.enable = enable
        self.disable = disable
        self.clause_processor = clause_processor
        self.replacement = replacement  # entries to splice in, None = just retire
        self.display = display          # SExpr shown when rendered as a replacement


_STABLE = Var("STABLE-UNDER-SIMPLIFICATIONP")


class ComputedHint:
    """A hint expression evaluated against each goal it reaches.

    `stable_only` says whether expr has the shape
    (IF STABLE-UNDER-SIMPLIFICATIONP x 'NIL), as (and
    stable-under-simplificationp x) translates: on a goal that is not yet
    stable such a hint can only answer NIL, so it is not evaluated there.
    """
    __slots__ = ("expr", "display", "stable_only")

    def __init__(self, expr=None, display=None):
        self.expr = expr        # Term over CLAUSE / ID / STABLE-UNDER-SIMPLIFICATIONP
        self.display = display  # SExpr shown when rendered as a replacement
        self.stable_only = (isinstance(expr, App) and expr.fn == "IF"
                            and expr.args[0] is _STABLE and expr.args[2] is CONST_NIL)


class GoalCtx:
    """One goal as computed hints see it, and their variable environment.

    `[]` answers for CLAUSE, ID and STABLE-UNDER-SIMPLIFICATIONP and
    raises KeyError for any other name, which evaluate reads as unbound.
    The clause's s-expression is rendered on the first read of CLAUSE
    and kept, so a goal renders its clause at most once however many
    computed hints read it.  `reading` is set while a hint carried by
    the clause is evaluated against it.  `budget` is the proof's
    StepBudget, which charges the cells a hint read back off the clause
    copies.
    """
    __slots__ = ("clause", "goal_name", "stable", "world", "_sexpr", "reading", "budget")

    def __init__(self, clause: tuple, goal_name: str, stable: bool, world, budget):
        self.clause = clause
        self.goal_name = goal_name
        self.stable = stable
        self.world = world
        self._sexpr = None
        self.reading = False
        self.budget = budget

    def __getitem__(self, name):
        if name == "CLAUSE":
            if self._sexpr is None:
                self._sexpr = clause_sexpr(self.clause)
            return self._sexpr
        if name == "ID":
            return self.goal_name
        if name == "STABLE-UNDER-SIMPLIFICATIONP":
            return T if self.stable else NIL
        raise KeyError(name)


def clause_sexpr(clause):
    return from_list([unparse(l) for l in clause])


def _warn_stderr(msg: str):
    print(f"WARNING: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Parsing keyword hints

_ENABLE = Symbol("ENABLE")
_DISABLE = Symbol("DISABLE")
_INSTANCE = Keyword("INSTANCE")
_CHR = Keyword("COMPUTED-HINT-REPLACEMENT")


def _parse_instance(form, tr):
    if isinstance(form, Symbol):
        return UseInstance(form.name, ())
    items = to_list(form) if isinstance(form, Pair) else None
    if not items or items[0] != _INSTANCE or len(items) < 2 or not isinstance(items[1], Symbol):
        raise HintError(f"malformed :USE instance: {print_capped(form)}")
    bindings = []
    for b in items[2:]:
        pair = to_list(b) if isinstance(b, Pair) else None
        if not pair or len(pair) != 2 or not isinstance(pair[0], Symbol):
            raise HintError(f"malformed instance binding: {print_capped(b)}")
        if any(var == pair[0].name for var, _ in bindings):
            raise HintError(f"duplicate instance binding: {pair[0].name}")
        bindings.append((pair[0].name, tr.tr(pair[1])))
    return UseInstance(items[1].name, tuple(bindings))


def _parse_use(value, tr):
    if isinstance(value, Pair) and value.car != _INSTANCE:
        return tuple(_parse_instance(e, tr) for e in to_list(value))
    if isinstance(value, (Symbol, Pair)):
        return (_parse_instance(value, tr),)
    raise HintError(f"bad :USE value: {print_capped(value)}")


def _parse_expand(value, tr):
    if isinstance(value, Pair) and isinstance(value.car, Symbol):
        forms = [value]
    elif isinstance(value, Pair):
        forms = to_list(value)
    else:
        raise HintError(f"bad :EXPAND value: {print_capped(value)}")
    return tuple(tr.tr(f) for f in forms)


def parse_in_theory(value):
    """The (enable, disable) name tuples of (ENABLE names...) or
    (DISABLE names...), as an :IN-THEORY hint or an in-theory event
    writes it."""
    items = to_list(value) if isinstance(value, Pair) else None
    if not items or items[0] not in (_ENABLE, _DISABLE):
        raise HintError(f"bad :IN-THEORY value: {print_capped(value)}")
    names = []
    for s in items[1:]:
        if not isinstance(s, Symbol):
            raise HintError(f"bad :IN-THEORY name: {print_capped(s)}")
        names.append(s.name)
    if items[0] == _ENABLE:
        return tuple(names), ()
    return (), tuple(names)


def parse_hint(form, world, tr=None) -> Hint:
    """Parse a keyword hint list, optionally headed by a replacement clause.

    Every term of the hint is translated through tr, a Translator under
    the world's own macros and arities (a fresh one if tr is None).  A
    caller that already knows the term of some form may file it in tr.done.
    """
    if tr is None:
        tr = Translator(world.macro_env, world.arity)
    items = to_list(form)
    replacement = None
    if items and items[0] == _CHR:
        if len(items) < 2:
            raise HintError(":COMPUTED-HINT-REPLACEMENT needs a value")
        replacement = tuple(
            ComputedHint(expr=translate_hint_expr(f, world), display=f)
            for f in to_list(items[1])
        )
        items = items[2:]
    if len(items) % 2 != 0:
        raise HintError(f"hint keyword list has odd length: {print_capped(form)}")

    use, expand, enable, disable, processor = (), (), (), (), None
    for k, v in zip(items[::2], items[1::2]):
        if not isinstance(k, Keyword):
            raise HintError(f"expected a hint keyword, got: {print_capped(k)}")
        if k == Keyword("USE"):
            use = use + _parse_use(v, tr)
        elif k == Keyword("EXPAND"):
            expand = expand + _parse_expand(v, tr)
        elif k == Keyword("IN-THEORY"):
            en, dis = parse_in_theory(v)
            enable, disable = enable + en, disable + dis
        elif k == Keyword("CLAUSE-PROCESSOR"):
            if not isinstance(v, Symbol):
                raise HintError(f"bad :CLAUSE-PROCESSOR value: {print_capped(v)}")
            processor = v.name
        else:
            raise HintError(f"unknown hint keyword: {print_capped(k)}")
    return Hint(use, expand, enable, disable, processor, replacement)


def render_hint(hint: Hint):
    """Canonical keyword-list rendering used for HINT trace events."""
    out = []
    if hint.replacement is not None:
        out += [_CHR, from_list([ch.display for ch in hint.replacement])]
    if hint.use:
        out += [Keyword("USE"), from_list([
            from_list([_INSTANCE, Symbol(u.name)] + [
                from_list([Symbol(var), unparse(t)]) for var, t in u.bindings
            ])
            for u in hint.use
        ])]
    if hint.expand:
        out += [Keyword("EXPAND"), from_list([unparse(t) for t in hint.expand])]
    for head, names in ((_ENABLE, hint.enable), (_DISABLE, hint.disable)):
        if names:
            out += [Keyword("IN-THEORY"), from_list([head] + [Symbol(n) for n in names])]
    if hint.clause_processor is not None:
        out += [Keyword("CLAUSE-PROCESSOR"), Symbol(hint.clause_processor)]
    return from_list(out)


# ---------------------------------------------------------------------------
# Computed hint expressions

# Hint expressions deliberately get a small function vocabulary: enough to
# inspect a clause and choose a hint, not a general evaluator.  AND and OR
# arrive through the macro environment; QUOTE is reader syntax.
HINT_EXPR_BUILTINS = ("IF", "CONS", "MEMBER-EQUAL", "EQUAL", "NOT")


def translate_hint_expr(form, world):
    def arity(name):
        if name in HINT_EXPR_BUILTINS:
            return BUILTIN_ARITY[name]
        fn = world.hint_fns.get(name)
        return fn.arity if fn is not None else None

    return translate(form, world, arity)


def eval_hint_expr(t, ctx: GoalCtx):
    """Evaluate a hint expression; values are s-expressions or Hints.

    CLAUSE, ID and STABLE-UNDER-SIMPLIFICATIONP are bound to the goal;
    CLAUSE is rendered only if the expression reads it, and then once
    per goal (GoalCtx).
    """
    def call(fn, args):
        hint_fn = ctx.world.hint_fns.get(fn)
        if hint_fn is not None:
            return hint_fn.run(ctx)
        if fn in BUILTIN_ARITY:
            if any(isinstance(a, Hint) for a in args):
                raise EvalError(f"{fn} applied to a hint")
            return apply_builtin(fn, args)
        raise HintError(f"unknown function in hint expression: {fn}")

    try:
        return evaluate(t, ctx, call)
    except EvalError as e:
        raise HintError(f"in hint expression: {e}")


def read_hint_value(v, world, tr=None):
    """The one reader of hint values: a Hint, NIL (None: no hint), or a
    keyword list, quoted or not, parsed by parse_hint through tr."""
    if v is None or isinstance(v, Hint):
        return v
    if isinstance(v, Pair) and v.car == QUOTE:
        inner = to_list(v)
        if len(inner) == 2:
            quoted = inner[1]
            if is_nil(quoted):
                return None
            if is_proper_list(quoted) and isinstance(quoted.car, Keyword):
                return parse_hint(quoted, world, tr)
        raise HintError(f"quoted hint value is not a keyword list: {print_capped(v)}")
    if is_proper_list(v) and isinstance(v.car, Keyword):
        return parse_hint(v, world, tr)
    raise HintError("hint value is neither NIL, a keyword list, nor a quoted keyword list: "
                    + print_capped(v))


def eval_computed_hint(ch: ComputedHint, ctx: GoalCtx):
    """Run one computed hint; None means it declined to fire."""
    return read_hint_value(eval_hint_expr(ch.expr, ctx), ctx.world)


# ---------------------------------------------------------------------------
# Applying a fired hint

def apply_hint(hint: Hint, clause, theory, world):
    """Transform the clause and theory; processor, then :USE, :EXPAND, :IN-THEORY."""
    if hint.clause_processor is not None:
        proc = world.clause_processors.get(hint.clause_processor)
        if proc is None:
            raise HintError(f"unknown clause processor: {hint.clause_processor}")
        clause = proc(clause)

    for inst in hint.use:
        body = world.theorems.get(inst.name)
        if body is None:
            raise HintError(f":USE of unknown theorem: {inst.name}")
        thm_vars = set(free_vars(body))
        subst = {}
        for var, t in inst.bindings:
            if var not in thm_vars:
                _warn_stderr(f":USE binding for {var} names no variable of {inst.name}; ignored")
                continue
            subst[var] = t
        for left in sorted(thm_vars - set(subst)):
            _warn_stderr(f":USE of {inst.name} leaves {left} uninstantiated")
        instantiated = beta_reduce(substitute(body, subst))
        clause = clause + (negate_term(instantiated),)

    if hint.expand:
        clause = expand_calls(clause, hint.expand, world)

    if hint.enable or hint.disable:
        theory = world.refine_theory(theory, hint.enable, hint.disable)

    return clause, theory


# ---------------------------------------------------------------------------
# Clausifying a theorem statement

def _flatten_and(form):
    if isinstance(form, Pair) and form.car == Symbol("AND"):
        out = []
        for f in to_list(form.cdr):
            out.extend(_flatten_and(f))
        return out
    return [form]


def peel_implies(form):
    """Split a translated statement into its hypothesis forms and its
    conclusion form; translation has checked each IMPLIES' arity.

    Nested IMPLIES are peeled from the outside in, and an AND hypothesis
    contributes each conjunct.
    """
    hyps = []
    while isinstance(form, Pair) and form.car == Symbol("IMPLIES"):
        hyp, form = to_list(form.cdr)
        hyps.extend(_flatten_and(hyp))
    return hyps, form


def clausify(form, world):
    """Translate a statement once, split at its IMPLIES.

    Returns the hypotheses and the conclusion, lambda-free, the whole
    statement as one lambda-free term, and the conclusion as written,
    whose head chooses a rewrite rule's kind.  The parts are read back
    from the translator's table of the call forms it has translated, so
    no part of the statement is translated twice.
    """
    tr = Translator(world.macro_env, world.arity)
    body = beta_reduce(tr.tr(form))
    hyp_forms, concl_form = peel_implies(form)
    parts = [beta_reduce(tr.done[id(f)][1] if isinstance(f, Pair) else tr.tr(f))
             for f in hyp_forms + [concl_form]]
    return tuple(parts[:-1]), parts[-1], body, concl_form


# ---------------------------------------------------------------------------
# The waterfall

def _child_name(parent: str, i: int) -> str:
    return f"Subgoal {i}" if parent == "Goal" else f"{parent}.{i}"


def _first_firing(pending, ctx: GoalCtx):
    """The first entry that fires on ctx's goal and its Hint, or None.  A
    stable-only computed hint is skipped unevaluated on an unstable goal."""
    for i, entry in enumerate(pending):
        if isinstance(entry, Hint):
            return i, entry
        if ctx.stable or not entry.stable_only:
            hint = eval_computed_hint(entry, ctx)
            if hint is not None:
                return i, hint
    return None


def _splice(pending, i, hint: Hint):
    return pending[:i] + list(hint.replacement or ()) + pending[i + 1:]


def _push_subgoals(todo, parent, clauses, pending, theory, budget):
    """Stack subgoals so that the first is popped next; each costs one goal."""
    for i in range(len(clauses), 0, -1):
        budget.take_goal()
        todo.append((_child_name(parent, i), clauses[i - 1], pending, theory))


def prove_clause(clause, pending, world, budget, events):
    """Run the waterfall on one root clause named Goal and answer whether
    it proved; each (goal, kind, data) event is appended to events as it
    happens, so a proof that raises keeps the events before the error.

    Goals wait on an explicit stack of (name, clause, pending, theory)
    entries and are visited depth first, in creation order.  A goal
    proves, becomes a checkpoint, or yields subgoals: one per branch of
    a split or one for a fired hint, each charged to budget.take_goal().

    An event's data is plain and unrendered: T (PROVED), a ("CHANGED",
    rewritten clause) or ("STABLE", clause) pair (SIMPLIFY), the goal's
    clause (CHECKPOINT), the test term (SPLIT) or the Hint (HINT).  Only
    computed hints that read CLAUSE render here, once per goal through
    its GoalCtx.
    """
    proved = True
    todo = [("Goal", tuple(clause), list(pending), world.theory())]
    memos = {}  # one rewrite memo table per theory, for this proof only
    while todo:
        name, clause, pending, theory = todo.pop()
        ctx = GoalCtx(clause, name, False, world, budget)
        found = _first_firing(pending, ctx)
        if found is None:
            out = simplify_clause(clause, theory, world, budget, memos)
            if out is None:
                events.append((name, "PROVED", T))
                continue
            rewritten, split = out
            if split is not None or rewritten != clause:  # not stable
                events.append((name, "SIMPLIFY", ("CHANGED", rewritten)))
                children = [rewritten]
                if split is not None:
                    events.append((name, "SPLIT", split[0]))
                    children = split[1]
                _push_subgoals(todo, name, children, pending, theory, budget)
                continue
            ctx.stable = True
            events.append((name, "SIMPLIFY", ("STABLE", clause)))
            found = _first_firing(pending, ctx)
            if found is None:
                events.append((name, "CHECKPOINT", clause))
                proved = False
                continue
        i, hint = found
        events.append((name, "HINT", hint))
        clause, theory = apply_hint(hint, clause, theory, world)
        _push_subgoals(todo, name, [clause], _splice(pending, i, hint), theory, budget)

    return proved
