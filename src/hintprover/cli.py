"""Command line driver.

Each input file is an independent sequence of events processed against
a fresh world: defstub, defun, defund, defthm, in-theory, and
register-hint-fn.  Proof output goes to stdout, diagnostics and
warnings to stderr.

Exit status: 0 when every theorem proved, 1 when some proof failed or
ran out of steps, 2 on malformed input or bad events.
"""

import argparse
import gc
import os
import sys

from .sexpr import (
    Keyword, Pair, ParseError, ProverError, Symbol,
    from_list, is_nil, is_proper_list, parse, print_capped, print_sexpr, to_list,
)
from .term import (
    ALIASES, App, CONST_NIL, CONST_T, TranslateError,
    beta_reduce, free_vars, term_text, translate, unparse,
)
from .world import RewriteRule, HintFn, World
from .rewrite import ResourceError, StepBudget, negate_term, normalize_definition
from .hints import (
    HINT_EXPR_BUILTINS, ComputedHint, HintError,
    clause_sexpr, clausify, eval_hint_expr, parse_hint, parse_in_theory,
    prove_clause, render_hint, translate_hint_expr,
)
from .termhint import clause_labels, install_prelude, use_termhint

DEFAULT_MAX_STEPS = 10000


class EventError(ProverError):
    pass


class TheoremOutcome:
    __slots__ = ("name", "proved", "steps", "events", "error")

    def __init__(self, name: str):
        self.name = name
        self.proved = False
        self.steps = 0
        self.events = []  # the (goal, kind, data) events of prove_clause
        self.error = None


class FileOutcome:
    __slots__ = ("path", "theorems", "error")

    def __init__(self, path: str):
        self.path = path
        self.theorems = []
        self.error = None


class RunReport:
    __slots__ = ("files",)

    def __init__(self, files: list):
        self.files = files

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
        raise EventError(f"{what} must be a symbol: {print_capped(x)}")
    return x.name


def _formal_names(form) -> list:
    names = []
    for s in to_list(form):
        if not isinstance(s, Symbol):
            raise EventError(f"formal must be a symbol: {print_capped(s)}")
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
    raise EventError(f"unsupported declare form: {print_capped(decl)}")


def _do_defun(world: World, items, max_steps: int):
    if len(items) not in (4, 5):
        raise EventError("defun expects a name, formals, and one body form")
    name = _want_symbol(items[1], "function name")
    world.claim_name(name)
    normalize = _parse_declare(items[3]) if len(items) == 5 else True
    formals = _formal_names(items[2])
    body_form = items[-1]

    def arity(f):  # the body may call the function being defined
        return len(formals) if f == name else world.arity(f)

    body = beta_reduce(translate(body_form, world, arity))
    stray = [v for v in free_vars(body) if v not in formals]
    if stray:
        raise EventError(f"free variables in body of {name}: {', '.join(stray)}")
    if normalize:
        try:
            body = normalize_definition(body, StepBudget(max_steps))
        except ResourceError as e:
            raise EventError(f"in {name}: normalization: {e}")
    world.add_definition(name, formals, body, enabled=items[0].name == "DEFUN")


def _do_defstub(world: World, items, max_steps: int):
    if len(items) != 3 or not isinstance(items[2], int) or items[2] < 0:
        raise EventError("defstub expects a name and an arity")
    name = _want_symbol(items[1], "stub name")
    world.claim_name(name)
    world.add_stub(name, items[2])


def _do_in_theory(world: World, items, max_steps: int):
    if len(items) != 2:
        raise EventError("in-theory expects one ENABLE or DISABLE form")
    enable, disable = parse_in_theory(items[1])
    world.enabled = world.refine_theory(world.enabled, enable, disable)


def _do_register_hint_fn(world: World, items, max_steps: int):
    if len(items) != 3:
        raise EventError("register-hint-fn expects a name and an expression")
    name = _want_symbol(items[1], "hint function name")
    if name in HINT_EXPR_BUILTINS or name in ALIASES or name in world.macro_env:
        raise EventError(f"{name} is built in")  # no call could reach it
    expr = translate_hint_expr(items[2], world)
    world.add_hint_fn(HintFn(name, 0, lambda ctx: eval_hint_expr(expr, ctx)))


# ---------------------------------------------------------------------------
# Rewrite rule conversion

def convert_rule(name: str, hyps, concl, concl_form) -> RewriteRule:
    """The rewrite rule of a statement's hypotheses and conclusion, as
    clausify returns them.

    The head of the conclusion as written chooses the kind, so a
    conclusion wrapped in a LET rewrites its whole term to T.
    """
    head = concl_form.car if isinstance(concl_form, Pair) else None
    if head in (Symbol("EQUAL"), Symbol("IFF")):
        (lhs, rhs), equiv = concl.args, head.name
    elif head == Symbol("NOT"):
        lhs, rhs, equiv = concl.args[0], CONST_NIL, "IFF"
    else:
        lhs, rhs, equiv = concl, CONST_T, "IFF"

    if not isinstance(lhs, App):
        raise EventError(f"rule {name} does not rewrite a function call")
    if rhs is lhs:  # it would fire on its own result until the stack ran out
        raise EventError(f"rule {name} rewrites its left side to itself")
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
        if entry.name not in world.hint_fns:
            raise HintError(f"unknown hint function: {entry.name}")
        return ComputedHint(expr=App(entry.name, ()), display=entry)
    if isinstance(entry, Pair):
        if isinstance(entry.car, Keyword):
            return parse_hint(entry, world)
        if entry.car == Symbol("USE-TERMHINT"):
            args = to_list(entry.cdr)
            if len(args) != 1:
                raise HintError("use-termhint expects one form")
            return use_termhint(args[0], world)
    raise HintError(f"unrecognized hint entry: {print_capped(entry)}")


def _do_defthm(world: World, items, max_steps: int) -> TheoremOutcome:
    if len(items) < 3:
        raise EventError("defthm expects a name and a body")
    name = _want_symbol(items[1], "theorem name")
    world.claim_name(name)  # a failed proof claims nothing
    body = items[2]

    rule_classes = "REWRITE"
    pending = []
    rest = items[3:]
    if len(rest) % 2 != 0:
        raise EventError(f"odd keyword list in defthm {name}")
    try:
        for k, v in zip(rest[::2], rest[1::2]):
            if k == Keyword("RULE-CLASSES"):
                if is_nil(v):
                    rule_classes = None
                elif v == Keyword("REWRITE"):
                    rule_classes = "REWRITE"
                else:
                    raise EventError(f"unsupported rule-classes: {print_capped(v)}")
            elif k == Keyword("HINTS"):
                if not is_proper_list(v):
                    raise EventError(f"bad :HINTS value in {name}")
                pending = [_parse_hint_entry(e, world) for e in to_list(v)]
            else:
                raise EventError(f"unknown defthm keyword: {print_capped(k)}")
        hyps, concl, body_term, concl_form = clausify(body, world)
        rule = convert_rule(name, hyps, concl, concl_form) if rule_classes == "REWRITE" else None
    except (ParseError, TranslateError, HintError) as e:
        raise EventError(f"in {name}: {e}")
    clause = tuple(negate_term(h) for h in hyps) + (concl,)

    budget = StepBudget(max_steps)
    outcome = TheoremOutcome(name)
    try:
        outcome.proved = prove_clause(clause, pending, world, budget, outcome.events)
    except (ProverError, RecursionError) as e:
        outcome.error = _error_text(e)
    outcome.steps = budget.used

    if outcome.proved:
        world.add_theorem(name, body_term)
        if rule is not None:
            world.add_rule(name, rule)
    return outcome


# Each handler takes (world, items, max_steps); DEFUN and DEFUND bound
# normalization by max_steps.  DEFTHM returns its outcome, the others None.
EVENT_HANDLERS = {
    "DEFSTUB": _do_defstub,
    "DEFUN": _do_defun,
    "DEFUND": _do_defun,
    "DEFTHM": _do_defthm,
    "IN-THEORY": _do_in_theory,
    "REGISTER-HINT-FN": _do_register_hint_fn,
}


def _error_text(e: Exception) -> str:
    """An error's message; Python's own text for a stack overflow or an
    undecodable file is not shown."""
    if isinstance(e, RecursionError):
        return "nesting depth exceeded"
    if isinstance(e, UnicodeDecodeError):
        return f"not {e.encoding} text: {e.reason}"
    return str(e)


# ---------------------------------------------------------------------------
# Files and the run loop

def process_file(path: str, max_steps: int, stop_on_failure: bool) -> FileOutcome:
    """Run one file's events against a fresh world.

    The cyclic garbage collector is paused meanwhile and then left as it
    was found: the prover builds no reference cycles, so a collection
    would free nothing, and each one would stall the theorem it lands in.
    """
    out = FileOutcome(path)
    enabled = gc.isenabled()
    gc.disable()
    try:
        world = World()
        install_prelude(world)
        with open(path, encoding="utf-8") as f:
            forms = parse(f.read())
        for form in forms:
            if not (isinstance(form, Pair) and isinstance(form.car, Symbol)):
                raise EventError(f"not an event: {print_capped(form)}")
            handler = EVENT_HANDLERS.get(form.car.name)
            if handler is None:
                raise EventError(f"unknown event: {form.car.name}")
            outcome = handler(world, to_list(form), max_steps)
            if outcome is not None:
                out.theorems.append(outcome)
                if outcome.error is not None:
                    print(f"ERROR {path} {outcome.name}: {outcome.error}", file=sys.stderr)
                if stop_on_failure and not outcome.proved:
                    break
    except (OSError, UnicodeDecodeError, ProverError, RecursionError) as e:
        out.error = _error_text(e)
        print(f"ERROR {path}: {out.error}", file=sys.stderr)
    finally:
        if enabled:
            gc.enable()
    return out


def iter_files(paths, max_steps: int, stop_on_failure: bool):
    """Process the files in order, yielding each outcome as soon as it is done."""
    for path in paths:
        outcome = process_file(path, max_steps, stop_on_failure)
        yield outcome
        if stop_on_failure and any(not t.proved for t in outcome.theorems):
            return


def run(paths, max_steps: int = DEFAULT_MAX_STEPS, stop_on_failure: bool = False) -> RunReport:
    return RunReport(list(iter_files(paths, max_steps, stop_on_failure)))


def render_event(kind: str, data):
    """The s-expression view of one event's data (see prove_clause).

    A trace line shows its printed text: event_text prints HINT and
    PROVED payloads from this view and the others straight from their
    terms, and tests check that text against this view.
    """
    if kind == "SIMPLIFY":
        tag, clause = data
        return from_list([Symbol(tag), clause_sexpr(clause)])
    if kind == "CHECKPOINT":
        return clause_sexpr(data)
    if kind == "HINT":
        return render_hint(data)
    if kind == "SPLIT":
        return unparse(data)
    return data


def clause_text(clause) -> str:
    """The text print_sexpr(clause_sexpr(clause)) gives."""
    if not clause:
        return "NIL"
    return "(" + " ".join([term_text(lit) for lit in clause]) + ")"


def event_text(kind: str, data) -> str:
    """The text print_sexpr(render_event(kind, data)) gives."""
    if kind == "SIMPLIFY":
        tag, clause = data
        return "(" + tag + " " + clause_text(clause) + ")"
    if kind == "CHECKPOINT":
        return clause_text(data)
    if kind == "SPLIT":
        return term_text(data)
    return print_sexpr(render_event(kind, data))


def format_file(f: FileOutcome, trace: bool = False, checkpoints: bool = False) -> str:
    """One file's block of the report: its FILE line, then its theorems.

    A theorem whose events hold a form nested too deep to print keeps
    only its THEOREM line, and the depth becomes the file's error, which
    is reported on stderr as process_file reports the others.
    """
    lines = [f"FILE {f.path}"]
    for t in f.theorems:
        events, marks = [], []
        try:
            if trace:
                events = [f"EVENT {goal} {kind} {event_text(kind, data)}"
                          for goal, kind, data in t.events]
            if checkpoints:
                for goal, kind, clause in t.events:
                    if kind == "CHECKPOINT":
                        labels = clause_labels(clause)
                        head = f"CHECKPOINT {goal}"
                        if labels:
                            head += " [" + " ".join(labels) + "]"
                        marks += [head, "  " + clause_text(clause)]
        except RecursionError as e:
            events, marks = [], []
            f.error = _error_text(e)
            print(f"ERROR {f.path}: {f.error}", file=sys.stderr)
        status = "PROVED" if t.proved else "FAILED"
        lines += events + [f"THEOREM {t.name} {status} steps={t.steps}"] + marks
    return "\n".join(lines) + "\n"


def proved_line(files) -> str:
    """The report's last line: proved theorems out of all theorems."""
    theorems = [t for f in files for t in f.theorems]
    return f"PROVED {sum(t.proved for t in theorems)}/{len(theorems)}\n"


def format_report(report: RunReport, trace: bool = False, checkpoints: bool = False) -> str:
    return ("".join(format_file(f, trace, checkpoints) for f in report.files)
            + proved_line(report.files))


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
                         "on the subgoals that splits and hints create and on "
                         "the cons cells that constant folding builds and hint "
                         "splices copy; also the per-definition bound on IF "
                         "lifts when normalizing")
    ap.add_argument("--stop-on-failure", action="store_true",
                    help="stop at the first failed theorem")
    args = ap.parse_intermixed_args(argv)
    if args.max_steps < 0:
        ap.error(f"--max-steps must not be negative: {args.max_steps}")

    # each file's block goes out when that file is done, so a hang or a
    # kill keeps what finished; the whole is what format_report prints
    report = RunReport([])
    for outcome in iter_files(args.files, args.max_steps, args.stop_on_failure):
        report.files.append(outcome)
        sys.stdout.write(format_file(outcome, args.trace, args.checkpoints))
        sys.stdout.flush()
    sys.stdout.write(proved_line(report.files))
    return report.exit_code


def entry():
    # files are read as UTF-8 (process_file), and the report is written as
    # UTF-8 too, whatever the locale; undecodable path bytes keep the
    # streams' own error handlers
    sys.stdout.reconfigure(encoding="utf-8", errors=sys.stdout.errors)
    sys.stderr.reconfigure(encoding="utf-8", errors=sys.stderr.errors)
    try:
        code = main()
    except BrokenPipeError:
        # The reader of stdout left early, as `prover ... | head` does.
        # Point stdout at the null device so the flush at exit cannot fail
        # again, and end with the status of a process killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + 13
    sys.exit(code)


if __name__ == "__main__":
    entry()
