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
is stable under simplification offers itself to the pending hints once
more before it becomes a checkpoint.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from .sexpr import (
    NIL, Keyword, Pair, Symbol, T, QUOTE,
    from_list, is_nil, is_proper_list, print_sexpr, to_list,
)
from .term import (
    BUILTIN_ARITY, EvalError,
    apply_builtin, beta_reduce, evaluate, free_vars, substitute, translate, unparse,
)
from .rewrite import expand_calls, negate_term, simplify_clause


class HintError(Exception):
    pass


@dataclass(frozen=True)
class UseInstance:
    name: str
    bindings: tuple  # ((var, Term), ...)


@dataclass(frozen=True)
class Hint:
    use: tuple = ()
    expand: tuple = ()
    enable: tuple = ()
    disable: tuple = ()
    clause_processor: str = None
    replacement: tuple = None  # entries to splice in, None = just retire
    display: object = None     # SExpr shown when rendered as a replacement


@dataclass
class ComputedHint:
    expr: object = None     # Term over CLAUSE / ID / STABLE-UNDER-SIMPLIFICATIONP
    display: object = None  # SExpr shown when rendered as a replacement


@dataclass
class GoalCtx:
    clause: tuple
    goal_name: str
    stable: bool
    world: object


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


def _parse_instance(form, world):
    if isinstance(form, Symbol):
        return UseInstance(form.name, ())
    items = to_list(form) if isinstance(form, Pair) else None
    if not items or items[0] != _INSTANCE or len(items) < 2 or not isinstance(items[1], Symbol):
        raise HintError(f"malformed :USE instance: {print_sexpr(form)}")
    bindings = []
    for b in items[2:]:
        pair = to_list(b) if isinstance(b, Pair) else None
        if not pair or len(pair) != 2 or not isinstance(pair[0], Symbol):
            raise HintError(f"malformed instance binding: {print_sexpr(b)}")
        bindings.append((pair[0].name, translate(pair[1], world)))
    return UseInstance(items[1].name, tuple(bindings))


def _parse_use(value, world):
    if isinstance(value, Symbol):
        return (_parse_instance(value, world),)
    if isinstance(value, Pair):
        if value.car == _INSTANCE:
            return (_parse_instance(value, world),)
        return tuple(_parse_instance(e, world) for e in to_list(value))
    raise HintError(f"bad :USE value: {print_sexpr(value)}")


def _parse_expand(value, world):
    if isinstance(value, Pair) and isinstance(value.car, Symbol):
        forms = [value]
    elif isinstance(value, Pair):
        forms = to_list(value)
    else:
        raise HintError(f"bad :EXPAND value: {print_sexpr(value)}")
    return tuple(translate(f, world) for f in forms)


def _parse_in_theory(value):
    items = to_list(value) if isinstance(value, Pair) else None
    if not items or items[0] not in (_ENABLE, _DISABLE):
        raise HintError(f"bad :IN-THEORY value: {print_sexpr(value)}")
    names = []
    for s in items[1:]:
        if not isinstance(s, Symbol):
            raise HintError(f"bad :IN-THEORY name: {print_sexpr(s)}")
        names.append(s.name)
    if items[0] == _ENABLE:
        return tuple(names), ()
    return (), tuple(names)


def parse_hint(form, world) -> Hint:
    """Parse a keyword hint list, optionally headed by a replacement clause."""
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
        raise HintError(f"hint keyword list has odd length: {print_sexpr(form)}")

    use, expand, enable, disable, processor = (), (), (), (), None
    for k, v in zip(items[::2], items[1::2]):
        if not isinstance(k, Keyword):
            raise HintError(f"expected a hint keyword, got: {print_sexpr(k)}")
        if k == Keyword("USE"):
            use = use + _parse_use(v, world)
        elif k == Keyword("EXPAND"):
            expand = expand + _parse_expand(v, world)
        elif k == Keyword("IN-THEORY"):
            en, dis = _parse_in_theory(v)
            enable, disable = enable + en, disable + dis
        elif k == Keyword("CLAUSE-PROCESSOR"):
            if not isinstance(v, Symbol):
                raise HintError(f"bad :CLAUSE-PROCESSOR value: {print_sexpr(v)}")
            processor = v.name
        else:
            raise HintError(f"unknown hint keyword: {print_sexpr(k)}")
    return Hint(use, expand, enable, disable, processor, replacement)


def render_hint(hint: Hint):
    """Canonical keyword-list rendering used for HINT trace events."""
    out = []
    if hint.replacement is not None:
        out += [_CHR, from_list([ch.display if ch.display is not None else NIL
                                 for ch in hint.replacement])]
    if hint.use:
        out += [Keyword("USE"), from_list([
            from_list([_INSTANCE, Symbol(u.name)] + [
                from_list([Symbol(var), unparse(t)]) for var, t in u.bindings
            ])
            for u in hint.use
        ])]
    if hint.expand:
        out += [Keyword("EXPAND"), from_list([unparse(t) for t in hint.expand])]
    if hint.enable:
        out += [Keyword("IN-THEORY"),
                from_list([_ENABLE] + [Symbol(n) for n in hint.enable])]
    if hint.disable:
        out += [Keyword("IN-THEORY"),
                from_list([_DISABLE] + [Symbol(n) for n in hint.disable])]
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
    """Evaluate a hint expression; values are s-expressions or Hints."""
    env = {
        "CLAUSE": clause_sexpr(ctx.clause),
        "ID": ctx.goal_name,
        "STABLE-UNDER-SIMPLIFICATIONP": T if ctx.stable else NIL,
    }

    def call(fn, args):
        hint_fn = ctx.world.hint_fns.get(fn)
        if hint_fn is not None:
            return hint_fn.run(args, ctx)
        if fn in BUILTIN_ARITY:
            return apply_builtin(fn, args)
        raise HintError(f"unknown function in hint expression: {fn}")

    try:
        return evaluate(t, env, call)
    except EvalError as e:
        raise HintError(f"in hint expression: {e}")


def _interpret_hint_value(v, world):
    if v is None or isinstance(v, Hint):
        return v
    if is_nil(v):
        return None
    if isinstance(v, Pair) and v.car == QUOTE:
        inner = to_list(v)
        if len(inner) == 2:
            quoted = inner[1]
            if is_nil(quoted):
                return None
            if is_proper_list(quoted) and isinstance(quoted.car, Keyword):
                return parse_hint(quoted, world)
        raise HintError(f"quoted hint value is not a keyword list: {print_sexpr(v)}")
    if is_proper_list(v) and isinstance(v.car, Keyword):
        return parse_hint(v, world)
    shown = print_sexpr(v) if isinstance(v, (Pair, Symbol, Keyword, int, str)) else repr(v)
    raise HintError(
        f"hint value is neither NIL, a keyword list, nor a quoted keyword list: {shown}"
    )


def eval_computed_hint(ch: ComputedHint, ctx: GoalCtx):
    """Run one computed hint; None means it declined to fire."""
    return _interpret_hint_value(eval_hint_expr(ch.expr, ctx), ctx.world)


# ---------------------------------------------------------------------------
# Applying a fired hint

def apply_hint(hint: Hint, clause, theory, world, warn=_warn_stderr):
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
                warn(f":USE binding for {var} names no variable of {inst.name}; ignored")
                continue
            subst[var] = t
        for left in sorted(thm_vars - set(subst)):
            warn(f":USE of {inst.name} leaves {left} uninstantiated")
        instantiated = beta_reduce(substitute(body, subst))
        clause = clause + (negate_term(instantiated),)

    if hint.expand:
        clause = expand_calls(clause, hint.expand, world)

    if hint.enable or hint.disable:
        known = set(world.rules) | set(world.definitions)
        for n in hint.enable + hint.disable:
            if n not in known:
                raise HintError(f":IN-THEORY names unknown rule: {n}")
        theory = frozenset((set(theory) | set(hint.enable)) - set(hint.disable))

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
    """Split a statement into its hypothesis forms and its conclusion form.

    Nested IMPLIES are peeled from the outside in, and an AND hypothesis
    contributes each conjunct.
    """
    hyps = []
    while isinstance(form, Pair) and form.car == Symbol("IMPLIES"):
        args = to_list(form.cdr)
        if len(args) != 2:
            raise HintError("IMPLIES expects two arguments")
        hyps.extend(_flatten_and(args[0]))
        form = args[1]
    return hyps, form


def clausify(form, world):
    """Turn a statement into one clause: negated hypotheses plus conclusion."""
    hyp_forms, concl = peel_implies(form)
    lits = [negate_term(beta_reduce(translate(h, world))) for h in hyp_forms]
    lits.append(beta_reduce(translate(concl, world)))
    return tuple(lits)


# ---------------------------------------------------------------------------
# The waterfall

@dataclass
class Checkpoint:
    goal: str
    clause: tuple


@dataclass
class ProofResult:
    proved: bool
    events: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)


def _child_name(parent: str, i: int) -> str:
    return f"Subgoal {i}" if parent == "Goal" else f"{parent}.{i}"


def _first_firing(pending, ctx: GoalCtx):
    for i, entry in enumerate(pending):
        hint = entry if isinstance(entry, Hint) else eval_computed_hint(entry, ctx)
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


def prove_clause(clause, pending, world, budget, warn=_warn_stderr) -> ProofResult:
    """Run the waterfall on one root clause named Goal.

    Goals wait on an explicit stack of (name, clause, pending, theory)
    entries and are visited depth first, in creation order.  A goal
    proves, becomes a checkpoint, or yields subgoals: one per branch of
    a split or one for a fired hint, each charged to budget.take_goal().
    """
    result = ProofResult(proved=False)
    events = result.events
    todo = [("Goal", tuple(clause), list(pending), world.theory())]
    while todo:
        name, clause, pending, theory = todo.pop()
        found = _first_firing(pending, GoalCtx(clause, name, False, world))
        if found is None:
            out = simplify_clause(clause, theory, world, budget)
            if out.proved:
                events.append((name, "PROVED", T))
                continue
            if out.changed:
                events.append((name, "SIMPLIFY",
                               from_list([Symbol("CHANGED"), clause_sexpr(out.rewritten)])))
                if out.split_test is not None:
                    events.append((name, "SPLIT", unparse(out.split_test)))
                _push_subgoals(todo, name, out.clauses, pending, theory, budget)
                continue
            events.append((name, "SIMPLIFY", from_list([Symbol("STABLE"), clause_sexpr(clause)])))
            found = _first_firing(pending, GoalCtx(clause, name, True, world))
            if found is None:
                events.append((name, "CHECKPOINT", clause_sexpr(clause)))
                result.checkpoints.append(Checkpoint(name, clause))
                continue
        i, hint = found
        events.append((name, "HINT", render_hint(hint)))
        clause, theory = apply_hint(hint, clause, theory, world, warn)
        _push_subgoals(todo, name, [clause], _splice(pending, i, hint), theory, budget)

    result.proved = not result.checkpoints
    return result
