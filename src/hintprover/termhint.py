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

from .sexpr import (
    Keyword, Pair, ProverError, Symbol, QUOTE,
    from_list, is_nil, is_proper_list, parse_one, print_capped, print_sexpr, to_list,
)
from .term import (
    CONST_NIL, App, Const, TranslateError, Translator, Var, term_text, translate, unparse,
)
from .world import HintFn, World
from .hints import (
    ComputedHint, GoalCtx, Hint, UseInstance,
    eval_computed_hint, read_hint_value, translate_hint_expr,
)

HYP_FN = "USE-TERMHINT-HYP"
HYP_THEOREM = "USE-TERMHINT-HYP-IS-TRUE"
MARK_FN = "MARK-CLAUSE"
MARK_THEOREM = "MARK-CLAUSE-IS-TRUE"
DROP_PROCESSOR = "DROP-TERMHINT-HYP"
FIND_FN = "USE-TERMHINT-FIND-HINT"
SEQ_FN = "TERMHINT-SEQ"


class ProcessError(ProverError):
    pass


def _carried(lit, fn):
    """The argument a of a carrier literal (NOT (fn a)), else None."""
    if isinstance(lit, App) and lit.fn == "NOT":
        inner = lit.args[0]
        if isinstance(inner, App) and inner.fn == fn:
            return inner.args[0]
    return None


def drop_termhint_hyp(clause):
    return tuple(l for l in clause if _carried(l, HYP_FN) is None)


def process_termhint(t, done, budget):
    """Read a hint term back as an s-expression value.

    Only constants, (HQ u), CONS, and BINARY-APPEND are meaningful; any
    other head left in the term is an error worth naming, since it means
    simplification did not reduce the hint far enough.  A shared subterm
    is read once, and its value is shared too: done maps each App read
    so far to its value.  A BINARY-APPEND copies its head's cells, which
    budget, a StepBudget, charges as it charges a fold: once for each
    distinct node in a proof.  Hint terms are lambda-free, so a term that
    is neither a constant nor a call is a variable.
    """
    if isinstance(t, Const):
        return t.value
    if isinstance(t, App):
        out = done.get(t)
        if out is None:
            if t.fn == "HQ":
                out = unparse(t.args[0])
            elif t.fn == "CONS":
                out = Pair(process_termhint(t.args[0], done, budget),
                           process_termhint(t.args[1], done, budget))
            elif t.fn == "BINARY-APPEND":
                head = process_termhint(t.args[0], done, budget)
                if not is_proper_list(head):
                    raise ProcessError(
                        f"spliced hint segment is not a proper list: {print_capped(head)}"
                    )
                items = to_list(head)
                budget.take_cells((t.fn, t.args), len(items))
                out = from_list(items, process_termhint(t.args[1], done, budget))
            else:
                raise ProcessError(f"residual call in hint term: {t.fn}")
            done[t] = out
        return out
    raise ProcessError(f"residual variable in hint term: {t.name}")


def keyword_fixup(v):
    """Quote a bare keyword list so its second evaluation is harmless."""
    if isinstance(v, Pair) and is_proper_list(v) and isinstance(v.car, Keyword):
        return from_list([QUOTE, v])
    return v


# The one extractor, (and stable-under-simplificationp (use-termhint-find-hint 'nil)).
# find_hint reads the goal's terms, so the finder runs with 'nil for CLAUSE
# and renders no clause; traces show it as users write it.
_FINDER = ComputedHint(
    App("IF", (Var("STABLE-UNDER-SIMPLIFICATIONP"), App(FIND_FN, (CONST_NIL,)), CONST_NIL)),
    parse_one(f"(and stable-under-simplificationp ({FIND_FN} clause))"))


def _hyp_hint(term, display=None) -> Hint:
    """Install term as a dummy hypothesis and arm the extractor."""
    return Hint(use=(UseInstance(HYP_THEOREM, (("X", term),)),), replacement=(_FINDER,),
                display=display)


def use_termhint(form, world: World) -> Hint:
    return _hyp_hint(translate(form, world))


def _with_drop(hint: Hint, more) -> Hint:
    """hint with the dummy hypothesis dropped and the entries `more`
    appended to its replacement."""
    if hint.clause_processor is not None:
        raise ProcessError(
            f"extracted hint already names a clause processor: {hint.clause_processor}"
        )
    replacement = (hint.replacement or ()) + more if more else hint.replacement
    return Hint(hint.use, hint.expand, hint.enable, hint.disable, DROP_PROCESSOR,
                replacement, hint.display)


def _read_hint(t, ctx: GoalCtx) -> Hint:
    """Read the hint term t back and interpret it against ctx.

    A quoted value is read by read_hint_value as what it evaluates to;
    any other value is evaluated as a computed hint, which may not run
    the finder on ctx again.  Each (HQ u) reads as unparse(u), and the
    translator the hint's terms go through is told that this very cell
    translates to u, so a goal term carried into the hint is not
    translated back from its text.
    """
    built = {}
    v = keyword_fixup(process_termhint(t, built, ctx.budget))
    if isinstance(v, Pair) and v.car == QUOTE and isinstance(v.cdr, Pair) and is_nil(v.cdr.cdr):
        tr = Translator(ctx.world.macro_env, ctx.world.arity)
        for h, cell in built.items():
            if h.fn == "HQ":
                tr.done[id(cell)] = (cell, h.args[0])
        return read_hint_value(v.cdr.car, ctx.world, tr) or Hint()
    if ctx.reading:
        raise ProcessError(f"the hint extracted on {ctx.goal_name} calls {FIND_FN} on it again")
    ch = ComputedHint(expr=translate_hint_expr(v, ctx.world))
    ctx.reading = True
    try:
        return eval_computed_hint(ch, ctx) or Hint()
    finally:
        ctx.reading = False


def find_hint(ctx: GoalCtx):
    """Extract the hint carried by the goal's termhint hypothesis, if any.

    The extracted hint is evaluated against ctx, the goal searched, so a
    clause rendering it already holds is reused.
    """
    for lit in ctx.clause:
        carried = _carried(lit, HYP_FN)
        if carried is not None:
            break
    else:
        return None

    more = ()
    if isinstance(carried, App) and carried.fn == SEQ_FN:
        carried, rest = carried.args
        if isinstance(rest, App) and rest.fn == "HIDE":
            rest = rest.args[0]
        more = (_hyp_hint(rest, from_list([Symbol("USE-TERMHINT"), unparse(rest)])),)
    return _with_drop(_read_hint(carried, ctx), more)


def clause_labels(clause):
    """Marker labels smuggled into the clause via MARK-CLAUSE hypotheses."""
    labels = []
    for lit in clause:
        arg = _carried(lit, MARK_FN)
        if arg is not None:
            shown = print_sexpr(arg.value) if isinstance(arg, Const) else term_text(arg)
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
    world.add_hint_fn(HintFn(FIND_FN, 1, find_hint))
