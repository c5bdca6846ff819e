"""Term walkers on DAG-shaped terms.

Interned terms share structure: the bindings of a let* become one node
with many parents.  Each walker keeps a per-call table of the nodes it has
finished and hands back a node none of whose children changed as it is.
substitute, beta_reduce, replace_subterm and expand_calls are one walker,
term.rebuild, with a seeded table or a step of their own; translate,
free_vars, match, normalize_definition, the recursion check and
process_termhint walk on their own.
Here every walker is checked against a plain tree walk kept in this file,
on random terms with shared subterms, and the shapes whose tree is
exponentially larger than their DAG must stay fast.  The walkers of a
proof take lambda-free terms, so only beta_reduce and translate are fed
lambdas.
"""

import random
import time

from hypothesis import given, seed, settings, strategies as st

from hintprover.sexpr import (
    NIL, T, Pair, Symbol, from_list, is_proper_list, print_capped, to_list,
)
from hintprover.term import (
    App, CONST_NIL, CONST_T, Const, LamApp, Var,
    beta_reduce, free_vars, make_lamapp, rebuild, substitute, translate, unparse,
)
from hintprover.world import World, _calls
from hintprover.rewrite import (
    ResourceError, RewriteContext, StepBudget,
    expand_calls, find_split_test, match, normalize_definition, replace_subterm,
    rewrite_term,
)
from hintprover.termhint import ProcessError, process_termhint
from hintprover.cli import main


# ---------------------------------------------------------------------------
# Plain references: tree walks with no table, rebuilding every node

def _ref_substitute(t, subst):
    if isinstance(t, Var):
        return subst.get(t.name, t)
    if isinstance(t, App):
        return App(t.fn, tuple(_ref_substitute(a, subst) for a in t.args))
    return t


def _ref_beta_reduce(t):
    if isinstance(t, App):
        return App(t.fn, tuple(_ref_beta_reduce(a) for a in t.args))
    if isinstance(t, LamApp):
        actuals = [_ref_beta_reduce(a) for a in t.actuals]
        return _ref_substitute(_ref_beta_reduce(t.body), dict(zip(t.formals, actuals)))
    return t


def _ref_replace(t, old, new):
    if t is old:
        return new
    if isinstance(t, App):
        if t.fn == "HIDE":
            return t
        return App(t.fn, tuple(_ref_replace(a, old, new) for a in t.args))
    return t


def _ref_match(p, u, subst):
    if isinstance(p, Var):
        if p.name in subst:
            return subst[p.name] is u
        subst[p.name] = u
        return True
    if isinstance(p, App):
        return (isinstance(u, App) and u.fn == p.fn and len(u.args) == len(p.args)
                and all(_ref_match(a, b, subst) for a, b in zip(p.args, u.args)))
    return p is u


def _ref_expand(t, targets, world):
    if isinstance(t, App):
        for pat in targets:
            subst = {}
            if not _ref_match(pat, t, subst):
                continue
            if pat.fn == "HIDE":
                return t.args[0]
            d = world.definitions[pat.fn]
            return _ref_substitute(d.rhs, {v.name: a for v, a in zip(d.lhs.args, t.args)})
        if t.fn == "HIDE":
            return t
        return App(t.fn, tuple(_ref_expand(a, targets, world) for a in t.args))
    return t


def _ref_calls(t, name):
    if isinstance(t, App):
        return t.fn == name or any(_ref_calls(a, name) for a in t.args)
    return False


def _ref_normalize(t, budget):
    if not isinstance(t, App):
        return t
    return _ref_lift(t.fn, [_ref_normalize(a, budget) for a in t.args], budget)


def _ref_lift(fn, args, budget):
    if fn == "IF":
        test = args[0]
        if isinstance(test, App) and test.fn == "IF":
            budget.take()
            a, b, c = test.args
            return _ref_lift("IF", [a, _ref_lift("IF", [b, args[1], args[2]], budget),
                                    _ref_lift("IF", [c, args[1], args[2]], budget)], budget)
        return App("IF", tuple(args))
    for i, a in enumerate(args):
        if isinstance(a, App) and a.fn == "IF":
            budget.take()
            test, yes, no = a.args
            return _ref_lift("IF", [test,
                                    _ref_lift(fn, args[:i] + [yes] + args[i + 1:], budget),
                                    _ref_lift(fn, args[:i] + [no] + args[i + 1:], budget)],
                             budget)
    return App(fn, tuple(args))


def _ref_process(t):
    if isinstance(t, Const):
        return t.value
    if isinstance(t, App):
        if t.fn == "HQ":
            return unparse(t.args[0])
        if t.fn == "CONS":
            return Pair(_ref_process(t.args[0]), _ref_process(t.args[1]))
        if t.fn == "BINARY-APPEND":
            head = _ref_process(t.args[0])
            if not is_proper_list(head):
                raise ProcessError(
                    f"spliced hint segment is not a proper list: {print_capped(head)}")
            return from_list(to_list(head), _ref_process(t.args[1]))
        raise ProcessError(f"residual call in hint term: {t.fn}")
    raise ProcessError(f"residual variable in hint term: {t.name}")


def _unshared(form):
    """form copied with a fresh cons cell on every path: a tree, not a DAG."""
    if isinstance(form, Pair):
        return Pair(_unshared(form.car), _unshared(form.cdr))
    return form


# ---------------------------------------------------------------------------
# Random DAG-shaped terms

_LEAVES = [Var("X"), Var("Y"), Var("Z"), CONST_NIL, CONST_T, Const(3), Const(Symbol("K"))]
_CALLS = [("CONS", 2), ("CAR", 1), ("NOT", 1), ("EQUAL", 2), ("IF", 3), ("F", 1),
          ("D", 1), ("HIDE", 1)]
_TREE_LIMIT = 1500  # nodes of the unshared tree, so the references stay quick


def _kids(t):
    if isinstance(t, App):
        return t.args
    if isinstance(t, LamApp):
        return t.actuals + (t.body,)
    return ()


def _tree_size(t, sizes):
    n = sizes.get(t)
    if n is None:
        n = sizes[t] = 1 + sum(_tree_size(a, sizes) for a in _kids(t))
    return n


def _random_dag(rng, size, calls=_CALLS, leaves=_LEAVES, lambdas=True):
    """A term built bottom up from a pool, each node taking its children
    mostly from the nodes built just before it, so they are shared.  With
    lambdas, about one node in eight is a LamApp."""
    pool, sizes = list(leaves), {}

    def pick():
        return pool[max(0, len(pool) - 1 - int(rng.expovariate(0.4)))]

    for _ in range(size):
        if rng.random() < 0.12 and lambdas:
            formals = rng.sample(["X", "Y", "Z", "W"], rng.randrange(1, 3))
            body, actuals = pick(), [pick() for _ in formals]
            if rng.random() < 0.7:
                node = make_lamapp(formals, body, actuals)
            else:  # left open: the body's other variables stay free
                node = LamApp(tuple(formals), body, tuple(actuals))
        else:
            fn, n = rng.choice(calls)
            args = [pick() for _ in range(n)]
            if fn == "IF" and rng.random() < 0.3:
                args[0] = rng.choice([CONST_NIL, CONST_T, Const(3)])
            node = App(fn, tuple(args))
        if _tree_size(node, sizes) <= _TREE_LIMIT:
            pool.append(node)
    return pool[-1]


def _nodes(t):
    """The distinct nodes of t."""
    seen, todo = {}, [t]
    while todo:
        u = todo.pop()
        if u not in seen:
            seen[u] = None
            todo.extend(_kids(u))
    return list(seen)


def _world():
    w = World()
    w.add_stub("F", 1)
    w.add_definition("D", ("X",), App("CONS", (Var("X"), Var("X"))))
    return w


class _Built:
    """Counts App and LamApp constructor calls while active."""

    def __enter__(self):
        self.n = 0
        self.saved = [(cls, cls.__dict__["__new__"]) for cls in (App, LamApp)]
        for cls, new in self.saved:
            self._count(cls, new.__func__)
        return self

    def _count(self, cls, real):
        def counted(c, *args):
            self.n += 1
            return real(c, *args)
        cls.__new__ = counted

    def __exit__(self, *exc):
        for cls, new in self.saved:
            cls.__new__ = new


_SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@seed(1101)
@_SETTINGS
@given(_SEEDS)
def test_substitute_and_beta_reduce_match_tree_walks(n):
    rng = random.Random(n)
    t = _random_dag(rng, rng.randrange(5, 40))
    reduced = beta_reduce(t)
    assert reduced is _ref_beta_reduce(t)
    plain = _random_dag(rng, rng.randrange(5, 40), lambdas=False)
    pool = _nodes(plain)
    subst = {v: rng.choice(pool) for v in rng.sample(["X", "Y", "Z", "W"], rng.randrange(1, 4))}
    assert substitute(plain, subst) is _ref_substitute(plain, subst)
    with _Built() as built:  # nothing to change: no node is rebuilt
        assert substitute(plain, {"UNUSED": CONST_T}) is plain
        assert substitute(plain, {v: Var(v) for v in free_vars(plain)}) is plain
        assert beta_reduce(reduced) is reduced
    assert built.n == 0


@seed(1102)
@_SETTINGS
@given(_SEEDS)
def test_replace_subterm_matches_a_tree_walk(n):
    # old always holds a splittable IF, as in split_ifs: the walk prunes
    # calls without one, the reference visits every node
    rng = random.Random(n)
    t = _random_dag(rng, rng.randrange(5, 40), lambdas=False)
    new = rng.choice(_nodes(_random_dag(rng, 4, lambdas=False)))
    splittable = [u for u in _nodes(t) if find_split_test(u) is not None]
    for old in rng.sample(splittable, min(3, len(splittable))):
        assert replace_subterm(t, old, new) is _ref_replace(t, old, new)
    absent = App("IF", (Var("ABSENT"), Var("X"), CONST_NIL))
    with _Built() as built:
        assert replace_subterm(t, absent, new) is t
    assert built.n == 0


@seed(1103)
@_SETTINGS
@given(_SEEDS)
def test_expand_match_and_calls_match_tree_walks(n):
    rng = random.Random(n)
    w = _world()
    clause = tuple(_random_dag(rng, rng.randrange(3, 30), lambdas=False)
                   for _ in range(rng.randrange(1, 3)))
    pool = [u for lit in clause for u in _nodes(lit)]
    instances = [u for u in pool if isinstance(u, App) and u.fn in ("D", "HIDE")]
    targets = [App("D", (Var("V"),)), App("HIDE", (Var("V"),)),
               App("D", (App("CONS", (Var("A"), Var("A"))),)),
               make_lamapp(["A"], App("D", (Var("A"),)), [Var("V")])]  # reduces to (D V)
    targets = rng.sample(targets, rng.randrange(1, 5)) + rng.sample(instances,
                                                                    min(2, len(instances)))
    rng.shuffle(targets)
    reduced = [_ref_beta_reduce(p) for p in targets]
    assert expand_calls(clause, targets, w) == tuple(_ref_expand(l, reduced, w) for l in clause)
    absent = App("D", (Const(Symbol("ABSENT")),))
    with _Built() as built:
        assert all(a is b for a, b in zip(expand_calls(clause, [absent], w), clause))
    assert built.n == 0

    calls = [u for u in pool if isinstance(u, App)]
    for p in rng.sample(calls, min(5, len(calls))):  # a pattern matches its instances
        inst = substitute(p, {v: rng.choice(pool) for v in free_vars(p)})
        for u in (inst, rng.choice(calls)):
            subst = {}
            seed = match(p, u)
            if not _ref_match(p, u, subst):
                assert seed is None
                continue
            assert {k.name: v for k, v in seed.items() if isinstance(k, Var)} == subst
            assert rebuild(p, seed) is u
    for lit in clause:
        for name in ("F", "D", "CAR", "IF", "HIDE", "ABSENT"):
            assert _calls(lit, name, set()) == _ref_calls(lit, name)


@seed(1104)
@_SETTINGS
@given(_SEEDS)
def test_normalize_definition_matches_a_tree_walk_step_for_step(n):
    rng = random.Random(n)
    t = _random_dag(rng, rng.randrange(3, 25))
    full = StepBudget(5000)
    try:
        _ref_normalize(t, full)
    except ResourceError:
        pass
    for limit in (full.used, max(full.used - 1, 0), rng.randrange(full.used + 1)):
        results = []
        for walk in (_ref_normalize, normalize_definition):
            budget = StepBudget(limit)
            try:
                out = walk(t, budget)
            except ResourceError as e:
                out = str(e)
            results.append((out, budget.used))
        (want, want_used), (got, got_used) = results
        assert got is want or got == want == f"step budget of {limit} exhausted"
        assert got_used == want_used
        if not isinstance(got, str):  # a normal form lifts nothing and is itself
            assert normalize_definition(got, StepBudget(0)) is got


def _random_hint_dag(rng, size):
    """Hint-shaped terms: quoted values, HQ, CONS and BINARY-APPEND, and
    now and then a residual call or variable."""
    goal_terms = _nodes(_random_dag(rng, 6))
    leaves = [Const(NIL), Const(T), Const(from_list([Symbol("A"), 1])), Const(Symbol("B"))]
    leaves += [App("HQ", (u,)) for u in rng.sample(goal_terms, min(3, len(goal_terms)))]
    if rng.random() < 0.2:
        leaves.append(rng.choice([Var("X"), App("F", (Var("X"),))]))
    return _random_dag(rng, size, calls=[("CONS", 2), ("BINARY-APPEND", 2)], leaves=leaves,
                       lambdas=False)


@seed(1105)
@_SETTINGS
@given(_SEEDS)
def test_process_termhint_matches_a_tree_walk(n):
    rng = random.Random(n)
    t = _random_hint_dag(rng, rng.randrange(2, 30))
    try:
        want = ("ok", _ref_process(t))
    except ProcessError as e:
        want = ("error", str(e))
    try:
        got = ("ok", process_termhint(t, {}, StepBudget(10000)))
    except ProcessError as e:
        got = ("error", str(e))
    assert got == want


@seed(1106)
@_SETTINGS
@given(_SEEDS)
def test_translate_of_a_shared_form_matches_its_tree(n):
    rng = random.Random(n)
    w = _world()
    t = _random_dag(rng, rng.randrange(3, 30))
    form = unparse(t)  # shares the renderings of shared subterms
    assert translate(form, w) is translate(_unshared(form), w)
    if not t.has_lambda:
        assert translate(form, w) is t


@seed(1107)
@_SETTINGS
@given(_SEEDS)
def test_rewrite_of_an_irreducible_term_builds_nothing(n):
    rng = random.Random(n)
    w = _world()
    t = _random_dag(rng, rng.randrange(3, 30), calls=[("CONS", 2), ("CAR", 1), ("F", 1)],
                    leaves=[Var("X"), Var("Y"), Var("Z")], lambdas=False)
    with _Built() as built:
        for iff in (False, True):
            ctx = RewriteContext(w.theory(), w, StepBudget(100), {})
            assert rewrite_term(t, ctx, iff) is t
    assert built.n == 0


def test_random_terms_share_subterms():
    # the generator makes DAGs, not trees, or the tests above check little;
    # and a lambda-free one often holds an IF for replace_subterm to split
    shared = splittable = 0
    for n in range(50):
        t = _random_dag(random.Random(n), 30)
        shared += len(_nodes(t)) < _tree_size(t, {})
        splittable += find_split_test(_random_dag(random.Random(n), 30, lambdas=False)) is not None
    assert shared >= 40 and splittable >= 20


# ---------------------------------------------------------------------------
# Shapes whose tree doubles with each binding

def _chain(n, first):
    return " ".join([f"(v0 {first})"] + [f"(v{i} (cons v{i - 1} v{i - 1}))"
                                         for i in range(1, n + 1)])


N = 24
_USES_F = "(defthm uses-f (equal (f x) (f x)) :rule-classes nil)"
_SHAPES = {  # name: (events, the THEOREM lines, exit code)
    "consp": (f"(defthm c (let* ({_chain(N, 'x')}) (consp v{N})) :rule-classes nil)",
              ["THEOREM C FAILED steps=0"], 1),
    "split": ("(defstub p 1) (defstub q 1)\n"
              f"(defthm s (q (let* ({_chain(N, '(if (p x) (quote a) (quote b))')}) v{N})) "
              ":rule-classes nil)", ["THEOREM S FAILED steps=0"], 1),
    "defun": (f"(defun f (x) (let* ({_chain(N, '(car x)')}) v{N}))\n{_USES_F}",
              ["THEOREM USES-F PROVED steps=2"], 0),
    "defun-normalize-nil": (
        "(defun f (x) (declare (xargs :normalize nil))"
        f" (let* ({_chain(N, '(car x)')}) v{N}))\n{_USES_F}",
        ["THEOREM USES-F PROVED steps=2"], 0),
    "hq": ("(defund f (y) (equal y y))\n"
           f"(defthm h (f (let* ({_chain(N, 'x')}) v{N})) :rule-classes nil\n"
           f"  :hints ((use-termhint (let* ({_chain(N, 'x')})"
           f" `'(:expand ((f ,(hq v{N}))))))))",
           ["THEOREM H PROVED steps=0"], 0),
}


def test_shared_bindings_cost_the_dag_not_the_tree(tmp_path, capsys):
    # Each shape's tree has about 2^24 nodes.  Walked as a tree, each
    # took 1.5 to 3.8 s at n = 18, and the time doubled with each binding.
    for name, (text, want, code) in _SHAPES.items():
        path = tmp_path / f"{name}.lisp"
        path.write_text(text + "\n")
        t0 = time.perf_counter()
        assert main([str(path)]) == code, name
        took = time.perf_counter() - t0
        out = capsys.readouterr().out
        theorems = [line for line in out.splitlines() if line.startswith("THEOREM")]
        assert theorems[-len(want):] == want, (name, out)
        assert took < 1.0, (name, took)  # about 0.01 s each on a 2-CPU x86-64 host


def test_a_shared_hint_term_reads_into_a_shared_value():
    t = Const(Symbol("A"))
    for _ in range(N):
        t = App("CONS", (t, t))
    v = process_termhint(t, {}, StepBudget(10000))  # 2^24 cells as a tree
    for _ in range(N):
        assert v.car is v.cdr
        v = v.car
    assert v == Symbol("A")
