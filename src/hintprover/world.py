"""The world: functions, definitions, rewrite rules, and the ambient theory.

One World is built per input file.  Rewriting consults a theory (a set of
enabled rule and definition names) that usually starts from the ambient
set and is refined by in-theory events and :IN-THEORY hints.  A
definition is stored as its EQUAL rule (name formals...) = body.
Definitions, rules and theorems hold lambda-free terms.
"""

from .sexpr import ProverError
from .term import ALIASES, BUILTIN_ARITY, App, Var, builtin_macro_env


class WorldError(ProverError):
    pass


class RewriteRule:
    """hyps -> (equiv lhs rhs), lhs a call.  rewrite.match binds its
    variables, whatever the shape of lhs."""

    __slots__ = ("name", "lhs", "rhs", "hyps", "equiv")

    def __init__(self, name: str, lhs, rhs, hyps: tuple, equiv: str):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs
        self.hyps = hyps
        self.equiv = equiv  # "EQUAL" or "IFF"


class HintFn:
    """A function computed hints may call.  Calls are checked against
    arity, but run reads only the goal: run(ctx), ctx the GoalCtx, gives
    the hint value."""
    __slots__ = ("name", "arity", "run")

    def __init__(self, name: str, arity: int, run):
        self.name = name
        self.arity = arity
        self.run = run


def _calls(t, name: str, clean: set) -> bool:
    """Whether t calls name; clean holds the nodes already found not to,
    so a shared subterm is searched once."""
    if not isinstance(t, App):
        return False
    if t.fn == name:
        return True
    if t in clean:
        return False
    for a in t.args:
        if _calls(a, name, clean):
            return True
    clean.add(t)
    return False


class World:
    """rule_order lists every RewriteRule in install order, which is rule
    priority.  rules_by_fn holds the same rules keyed by the function
    symbol of their lhs, each list in install order; it is what the
    rewriter reads, since a rule can only match a call of its own head.
    rules is the set of rule names.  definitions maps each defined
    function to its EQUAL rule (name formals...) = body; a non-recursive
    definition installs that very rule, and a recursive one opens only
    by :EXPAND.

    An event calls claim_name before any work; the add_ methods only
    store, so they trust that the name was claimed."""

    __slots__ = ("functions", "definitions", "rules", "rule_order", "rules_by_fn",
                 "theorems", "macro_env", "hint_fns", "clause_processors", "enabled")

    def __init__(self):
        self.functions = {}
        self.definitions = {}
        self.rules = set()
        self.rule_order = []
        self.rules_by_fn = {}
        self.theorems = {}
        self.macro_env = builtin_macro_env()
        self.hint_fns = {}
        self.clause_processors = {}
        self.enabled = set()

    def arity(self, name: str):
        return BUILTIN_ARITY.get(name, self.functions.get(name))

    def claim_name(self, name: str):
        """Refuse a name that is built in (a macro included) or already
        names a function or theorem.  Every rule is a theorem, so this
        covers rules too."""
        if name in BUILTIN_ARITY or name in ALIASES or name in self.macro_env:
            raise WorldError(f"{name} is built in")
        if name in self.functions or name in self.theorems:
            raise WorldError(f"duplicate name: {name}")

    def add_stub(self, name: str, arity: int):
        self.functions[name] = arity

    def add_definition(self, name: str, formals, body, enabled: bool = True):
        self.functions[name] = len(formals)
        rule = self.definitions[name] = RewriteRule(
            name, App(name, tuple(Var(f) for f in formals)), body, (), "EQUAL")
        if not _calls(body, name, set()):
            self._install(rule)
        if enabled:
            self.enabled.add(name)

    def add_rule(self, name: str, rule: RewriteRule):
        self.rules.add(name)
        self._install(rule)
        self.enabled.add(name)

    def _install(self, rule: RewriteRule):
        self.rule_order.append(rule)
        self.rules_by_fn.setdefault(rule.lhs.fn, []).append(rule)

    def add_theorem(self, name: str, body):
        self.theorems[name] = body

    def add_hint_fn(self, fn: HintFn):
        if fn.name in self.hint_fns:
            raise WorldError(f"duplicate hint function: {fn.name}")
        self.hint_fns[fn.name] = fn

    def add_clause_processor(self, name: str, fn):
        self.clause_processors[name] = fn

    def theory(self) -> frozenset:
        return frozenset(self.enabled)

    def refine_theory(self, theory, enable, disable):
        """(theory | enable) - disable, a set of theory's own kind, once
        every name is known to be a rule or a definition."""
        for n in enable + disable:
            if n not in self.rules and n not in self.definitions:
                raise WorldError(f":IN-THEORY names unknown rule: {n}")
        return theory.union(enable).difference(disable)
