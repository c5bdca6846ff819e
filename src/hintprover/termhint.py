"""Term-shaped hints that ride along with the goal being simplified.

(use-termhint form) hides the translated form inside a dummy hypothesis
(NOT (USE-TERMHINT-HYP term)) and arms a computed hint.  The hypothesis
is rewritten and case-split together with the goal, so by the time the
goal is stable each branch carries its own specialized copy of the term.
The computed hint then reads the surviving copy back off the clause,
interprets it as a keyword hint, and drops the dummy hypothesis.

Inside a hint term, (hq u) quotes the live goal term u so it lands in
the extracted hint unevaluated, and (termhint-seq h1 h2) applies h1 now
while keeping h2, protected by HIDE, for the next stable goal.
"""

from __future__ import annotations

from dataclasses import replace

from .sexpr import (
    NIL, Keyword, Pair, Symbol, QUOTE,
    from_list, is_nil, is_proper_list, parse_one, print_sexpr, to_list,
)
from .term import App, Const, TranslateError, Var, translate, unparse
from .world import HintFn, World
from .hints import (
    ComputedHint, GoalCtx, Hint, UseInstance,
    eval_computed_hint, translate_hint_expr,
)

HYP_FN = "USE-TERMHINT-HYP"
HYP_THEOREM = "USE-TERMHINT-HYP-IS-TRUE"
MARK_FN = "MARK-CLAUSE"
MARK_THEOREM = "MARK-CLAUSE-IS-TRUE"
DROP_PROCESSOR = "DROP-TERMHINT-HYP"
FIND_FN = "USE-TERMHINT-FIND-HINT"
SEQ_FN = "TERMHINT-SEQ"


class ProcessError(Exception):
    pass


def _is_hyp_literal(lit) -> bool:
    return (
        isinstance(lit, App) and lit.fn == "NOT"
        and isinstance(lit.args[0], App) and lit.args[0].fn == HYP_FN
    )


def drop_termhint_hyp(clause):
    return tuple(l for l in clause if not _is_hyp_literal(l))


def process_termhint(t):
    """Read a hint term back as an s-expression value.

    Only constants, (HQ u), CONS, and BINARY-APPEND are meaningful; any
    other head left in the term is an error worth naming, since it means
    simplification did not reduce the hint far enough.
    """
    if isinstance(t, Const):
        return t.value
    if isinstance(t, App):
        if t.fn == "HQ":
            return unparse(t.args[0])
        if t.fn == "CONS":
            return Pair(process_termhint(t.args[0]), process_termhint(t.args[1]))
        if t.fn == "BINARY-APPEND":
            head = process_termhint(t.args[0])
            if not is_proper_list(head):
                raise ProcessError(
                    f"spliced hint segment is not a proper list: {print_sexpr(head)}"
                )
            return from_list(to_list(head), process_termhint(t.args[1]))
        raise ProcessError(f"residual call in hint term: {t.fn}")
    if isinstance(t, Var):
        raise ProcessError(f"residual variable in hint term: {t.name}")
    raise ProcessError(f"cannot interpret hint term: {t!r}")


def keyword_fixup(v):
    """Quote a bare keyword list so its second evaluation is harmless."""
    if isinstance(v, Pair) and is_proper_list(v) and isinstance(v.car, Keyword):
        return from_list([QUOTE, v])
    return v


_FIND_DISPLAY = parse_one(f"(and stable-under-simplificationp ({FIND_FN} clause))")


def _hyp_hint(term, world: World) -> Hint:
    """Install term as a dummy hypothesis and arm the extractor."""
    finder = ComputedHint(expr=translate_hint_expr(_FIND_DISPLAY, world), display=_FIND_DISPLAY)
    return Hint(use=(UseInstance(HYP_THEOREM, (("X", term),)),), replacement=(finder,))


def use_termhint(form, world: World) -> Hint:
    return _hyp_hint(translate(form, world), world)


def _with_drop(hint: Hint) -> Hint:
    if hint.clause_processor is not None:
        raise ProcessError(
            f"extracted hint already names a clause processor: {hint.clause_processor}"
        )
    return replace(hint, clause_processor=DROP_PROCESSOR)


def _interpret_extracted(v, ctx: GoalCtx) -> Hint:
    """Second evaluation: the extracted value becomes an actual hint."""
    if is_nil(v):
        return Hint()
    ch = ComputedHint(expr=translate_hint_expr(v, ctx.world))
    hint = eval_computed_hint(ch, ctx)
    return hint if hint is not None else Hint()


def find_hint(clause, world: World, goal_name: str = "Goal", stable: bool = True):
    """Extract the hint carried by the clause's termhint hypothesis, if any."""
    carried = None
    for lit in clause:
        if _is_hyp_literal(lit):
            carried = lit.args[0].args[0]
            break
    if carried is None:
        return None

    ctx = GoalCtx(tuple(clause), goal_name, stable, world)

    if isinstance(carried, App) and carried.fn == SEQ_FN:
        first, rest = carried.args
        if isinstance(rest, App) and rest.fn == "HIDE":
            rest = rest.args[0]
        base = _interpret_extracted(keyword_fixup(process_termhint(first)), ctx)
        stage2 = replace(_hyp_hint(rest, world),
                         display=from_list([Symbol("USE-TERMHINT"), unparse(rest)]))
        hint = _with_drop(base)
        return replace(hint, replacement=(hint.replacement or ()) + (stage2,))

    v = keyword_fixup(process_termhint(carried))
    return _with_drop(_interpret_extracted(v, ctx))


def mark_clause_hint(label) -> Hint:
    """A :USE hint that plants (NOT (MARK-CLAUSE 'label)) in the goal."""
    value = Symbol(label) if isinstance(label, str) else label
    return Hint(use=(UseInstance(MARK_THEOREM, (("X", Const(value)),)),))


def clause_labels(clause):
    """Marker labels smuggled into the clause via MARK-CLAUSE hypotheses."""
    labels = []
    for lit in clause:
        if (
            isinstance(lit, App) and lit.fn == "NOT"
            and isinstance(lit.args[0], App) and lit.args[0].fn == MARK_FN
        ):
            arg = lit.args[0].args[0]
            shown = print_sexpr(arg.value) if isinstance(arg, Const) else print_sexpr(unparse(arg))
            labels.append(shown)
    return labels


def _seq_macro(form, tr):
    args = to_list(form.cdr)
    if len(args) != 2:
        raise TranslateError(f"{SEQ_FN} expects two arguments")
    first = tr(args[0])
    rest = tr(args[1])
    if not (isinstance(rest, App) and rest.fn == "HIDE"):
        rest = App("HIDE", (rest,))
    return App(SEQ_FN, (first, rest))


def install_prelude(world: World):
    """Make the termhint machinery available in a fresh world."""
    world.add_stub(HYP_FN, 1)
    world.add_stub("HQ", 1)
    world.add_stub(MARK_FN, 1)
    world.add_stub(SEQ_FN, 2)
    world.macro_env[SEQ_FN] = _seq_macro
    world.add_theorem(HYP_THEOREM, App(HYP_FN, (Var("X"),)))
    world.add_theorem(MARK_THEOREM, App(MARK_FN, (Var("X"),)))
    world.add_clause_processor(DROP_PROCESSOR, drop_termhint_hyp)

    def run_find(args, ctx):
        found = find_hint(ctx.clause, ctx.world, ctx.goal_name, ctx.stable)
        return NIL if found is None else found

    world.add_hint_fn(HintFn(FIND_FN, 1, run_find))
