"""Command line driver.

Each input file is an independent sequence of events processed against
a fresh world: defstub, defun, defund, defthm, in-theory, and
register-hint-fn.  Proof output goes to stdout, diagnostics and
warnings to stderr.

Exit status: 0 when every theorem proved, 1 when some proof failed or
ran out of steps, 2 on malformed input or bad events.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from .sexpr import (
    Keyword, Pair, ParseError, Symbol,
    is_nil, is_proper_list, parse, print_sexpr, to_list,
)
from .term import (
    App, CONST_NIL, CONST_T, EvalError, TranslateError,
    beta_reduce, free_vars, translate,
)
from .world import RewriteRule, HintFn, World, WorldError
from .rewrite import ExpandError, ResourceError, StepBudget, normalize_definition
from .hints import (
    ComputedHint, HintError,
    _parse_in_theory, clause_sexpr, clausify, eval_hint_expr, parse_hint,
    peel_implies, prove_clause, translate_hint_expr,
)
from .termhint import ProcessError, clause_labels, install_prelude, use_termhint

DEFAULT_MAX_STEPS = 10000

_PROOF_ERRORS = (
    HintError, ProcessError, ExpandError, EvalError, TranslateError, ParseError,
    ResourceError, RecursionError,
)


class EventError(Exception):
    pass


@dataclass
class TheoremOutcome:
    name: str
    proved: bool
    steps: int
    events: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)
    error: str = None


@dataclass
class FileOutcome:
    path: str
    theorems: list = field(default_factory=list)
    error: str = None


@dataclass
class RunReport:
    files: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if any(f.error is not None for f in self.files):
            return 2
        for f in self.files:
            if any(not t.proved for t in f.theorems):
                return 1
        return 0


# ---------------------------------------------------------------------------
# Event helpers

def _want_symbol(x, what: str) -> str:
    if not isinstance(x, Symbol):
        raise EventError(f"{what} must be a symbol: {print_sexpr(x)}")
    return x.name


def _formal_names(form) -> list:
    names = []
    for s in to_list(form):
        if not isinstance(s, Symbol):
            raise EventError(f"formal must be a symbol: {print_sexpr(s)}")
        if s.name in names:
            raise EventError(f"duplicate formal: {s.name}")
        names.append(s.name)
    return names


def _parse_declare(decl) -> bool:
    """Only (DECLARE (XARGS :NORMALIZE <flag>)) is recognized; returns the flag."""
    spec = to_list(decl) if isinstance(decl, Pair) else None
    if spec and spec[0] == Symbol("DECLARE") and len(spec) == 2 and isinstance(spec[1], Pair):
        xargs = to_list(spec[1])
        if xargs[:2] == [Symbol("XARGS"), Keyword("NORMALIZE")] and len(xargs) == 3:
            return not is_nil(xargs[2])
    raise EventError(f"unsupported declare form: {print_sexpr(decl)}")


def _do_defun(world: World, items, enabled: bool):
    if len(items) == 5:
        normalize = _parse_declare(items[3])
        body_form = items[4]
    elif len(items) == 4:
        normalize = True
        body_form = items[3]
    else:
        raise EventError("defun expects a name, formals, and one body form")

    name = _want_symbol(items[1], "function name")
    formals = _formal_names(items[2])

    def arity(f):  # the body may call the function being defined
        return len(formals) if f == name else world.arity(f)

    body = beta_reduce(translate(body_form, world, arity))
    stray = [v for v in free_vars(body) if v not in formals]
    if stray:
        raise EventError(f"free variables in body of {name}: {', '.join(stray)}")
    if normalize:
        body = normalize_definition(body)
    world.add_definition(name, formals, body, enabled=enabled)


def _do_defstub(world: World, items):
    if len(items) != 3 or not isinstance(items[2], int) or items[2] < 0:
        raise EventError("defstub expects a name and an arity")
    world.add_stub(_want_symbol(items[1], "stub name"), items[2])


def _do_in_theory(world: World, items):
    if len(items) != 2:
        raise EventError("in-theory expects one ENABLE or DISABLE form")
    try:
        enable, disable = _parse_in_theory(items[1])
    except HintError as e:
        raise EventError(str(e))
    known = set(world.rules) | set(world.definitions)
    for n in enable + disable:
        if n not in known:
            raise EventError(f"in-theory names unknown rule: {n}")
    world.enable(enable)
    world.disable(disable)


def _do_register_hint_fn(world: World, items):
    if len(items) != 3:
        raise EventError("register-hint-fn expects a name and an expression")
    name = _want_symbol(items[1], "hint function name")
    expr = translate_hint_expr(items[2], world)

    def run(args, ctx, expr=expr):
        return eval_hint_expr(expr, ctx)

    world.add_hint_fn(HintFn(name, 0, run))


# Every event but DEFTHM, which also needs the step budget and yields an outcome.
EVENT_HANDLERS = {
    "DEFSTUB": _do_defstub,
    "DEFUN": lambda world, items: _do_defun(world, items, enabled=True),
    "DEFUND": lambda world, items: _do_defun(world, items, enabled=False),
    "IN-THEORY": _do_in_theory,
    "REGISTER-HINT-FN": _do_register_hint_fn,
}


# ---------------------------------------------------------------------------
# Rewrite rule conversion (surface level)

def convert_rule(name: str, body, world: World) -> RewriteRule:
    hyp_forms, concl = peel_implies(body)

    def tr(f):
        return beta_reduce(translate(f, world))

    if isinstance(concl, Pair) and concl.car in (Symbol("EQUAL"), Symbol("IFF")):
        args = to_list(concl.cdr)
        if len(args) != 2:
            raise EventError(f"bad conclusion in {name}")
        lhs, rhs = tr(args[0]), tr(args[1])
        equiv = "EQUAL" if concl.car == Symbol("EQUAL") else "IFF"
    elif isinstance(concl, Pair) and concl.car == Symbol("NOT"):
        args = to_list(concl.cdr)
        if len(args) != 1:
            raise EventError(f"bad conclusion in {name}")
        lhs, rhs, equiv = tr(args[0]), CONST_NIL, "IFF"
    else:
        lhs, rhs, equiv = tr(concl), CONST_T, "IFF"

    if not isinstance(lhs, App):
        raise EventError(f"rule {name} does not rewrite a function call")
    hyps = tuple(tr(h) for h in hyp_forms)
    bound = set(free_vars(lhs))
    loose = [
        v
        for t in (rhs,) + hyps
        for v in free_vars(t)
        if v not in bound
    ]
    if loose:
        raise EventError(f"rule {name} has free variables: {', '.join(sorted(set(loose)))}")
    return RewriteRule(name, lhs, rhs, hyps, equiv)


# ---------------------------------------------------------------------------
# defthm

def _parse_hint_entry(entry, world: World):
    if isinstance(entry, Symbol):
        fn = world.hint_fns.get(entry.name)
        if fn is None:
            raise EventError(f"unknown hint function: {entry.name}")
        return ComputedHint(expr=App(entry.name, ()), display=entry)
    if isinstance(entry, Pair):
        if isinstance(entry.car, Keyword):
            try:
                return parse_hint(entry, world)
            except HintError as e:
                raise EventError(str(e))
        if entry.car == Symbol("USE-TERMHINT"):
            args = to_list(entry.cdr)
            if len(args) != 1:
                raise EventError("use-termhint expects one form")
            try:
                return use_termhint(args[0], world)
            except TranslateError as e:
                raise EventError(str(e))
    raise EventError(f"unrecognized hint entry: {print_sexpr(entry)}")


def _do_defthm(world: World, items, max_steps: int) -> TheoremOutcome:
    if len(items) < 3:
        raise EventError("defthm expects a name and a body")
    name = _want_symbol(items[1], "theorem name")
    body = items[2]

    rule_classes = "REWRITE"
    pending = []
    rest = items[3:]
    if len(rest) % 2 != 0:
        raise EventError(f"odd keyword list in defthm {name}")
    for k, v in zip(rest[::2], rest[1::2]):
        if k == Keyword("RULE-CLASSES"):
            if is_nil(v):
                rule_classes = None
            elif v == Keyword("REWRITE"):
                rule_classes = "REWRITE"
            else:
                raise EventError(f"unsupported rule-classes: {print_sexpr(v)}")
        elif k == Keyword("HINTS"):
            if not is_proper_list(v):
                raise EventError(f"bad :HINTS value in {name}")
            pending = [_parse_hint_entry(e, world) for e in to_list(v)]
        else:
            raise EventError(f"unknown defthm keyword: {print_sexpr(k)}")

    try:
        rule = convert_rule(name, body, world) if rule_classes == "REWRITE" else None
        body_term = beta_reduce(translate(body, world))
        clause = clausify(body, world)
    except (TranslateError, HintError) as e:
        raise EventError(f"in {name}: {e}")

    budget = StepBudget(max_steps)
    outcome = TheoremOutcome(name, False, 0)
    try:
        result = prove_clause(clause, pending, world, budget)
        outcome.proved = result.proved
        outcome.events = result.events
        outcome.checkpoints = result.checkpoints
    except _PROOF_ERRORS as e:
        outcome.error = str(e)
    outcome.steps = budget.used

    if outcome.proved:
        world.add_theorem(name, body_term)
        if rule is not None:
            world.add_rule(name, rule)
    return outcome


# ---------------------------------------------------------------------------
# Files and the run loop

def process_file(path: str, max_steps: int, stop_on_failure: bool) -> FileOutcome:
    out = FileOutcome(path)
    world = World()
    install_prelude(world)
    try:
        with open(path) as f:
            forms = parse(f.read())
        for form in forms:
            if not (isinstance(form, Pair) and isinstance(form.car, Symbol)):
                raise EventError(f"not an event: {print_sexpr(form)}")
            items = to_list(form)
            head = form.car.name
            if head in EVENT_HANDLERS:
                EVENT_HANDLERS[head](world, items)
            elif head == "DEFTHM":
                outcome = _do_defthm(world, items, max_steps)
                out.theorems.append(outcome)
                if outcome.error is not None:
                    print(f"ERROR {path} {outcome.name}: {outcome.error}", file=sys.stderr)
                if stop_on_failure and not outcome.proved:
                    break
            else:
                raise EventError(f"unknown event: {head}")
    except (OSError, ParseError, RecursionError, EventError, WorldError, TranslateError) as e:
        out.error = str(e)
        print(f"ERROR {path}: {e}", file=sys.stderr)
    return out


def run(paths, max_steps: int = DEFAULT_MAX_STEPS, stop_on_failure: bool = False) -> RunReport:
    report = RunReport()
    for path in paths:
        outcome = process_file(path, max_steps, stop_on_failure)
        report.files.append(outcome)
        if stop_on_failure and any(not t.proved for t in outcome.theorems):
            break
    return report


def format_report(report: RunReport, trace: bool = False, checkpoints: bool = False) -> str:
    lines = []
    proved = total = 0
    for f in report.files:
        lines.append(f"FILE {f.path}")
        for t in f.theorems:
            total += 1
            if trace:
                for goal, kind, payload in t.events:
                    lines.append(f"EVENT {goal} {kind} {print_sexpr(payload)}")
            status = "PROVED" if t.proved else "FAILED"
            proved += t.proved
            lines.append(f"THEOREM {t.name} {status} steps={t.steps}")
            if checkpoints:
                for cp in t.checkpoints:
                    labels = clause_labels(cp.clause)
                    head = f"CHECKPOINT {cp.goal}"
                    if labels:
                        head += " [" + " ".join(labels) + "]"
                    lines.append(head)
                    lines.append("  " + print_sexpr(clause_sexpr(cp.clause)))
    lines.append(f"PROVED {proved}/{total}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="prover",
        description="Run clause proofs over event files.",
    )
    ap.add_argument("files", nargs="+", help="event files to process in order")
    ap.add_argument("--trace", action="store_true", help="print waterfall events")
    ap.add_argument("--checkpoints", action="store_true",
                    help="print failed-goal checkpoints")
    ap.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS,
                    help="per-theorem bound on rewrite steps and, separately, "
                         "on the subgoals that splits and hints create")
    ap.add_argument("--stop-on-failure", action="store_true",
                    help="stop at the first failed theorem")
    args = ap.parse_args(argv)

    report = run(args.files, max_steps=args.max_steps,
                 stop_on_failure=args.stop_on_failure)
    sys.stdout.write(format_report(report, trace=args.trace,
                                   checkpoints=args.checkpoints))
    return report.exit_code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
