"""Internal term representation and the surface-form translator.

Terms are Var, Const, App, and LamApp (a lambda applied to actuals).
A LamApp lives only between translate and beta_reduce, and in hint
expressions and hint payloads as written: the terms a proof rewrites,
splits and expands are lambda-free.  Lambdas are kept closed: any
variable free in the body but not bound by the binder list is added as
a pass-through formal, so evaluate, which binds only the formals, finds
every variable of the body.
"""

import weakref

from .sexpr import (
    NIL, Pair, ParseError, ProverError, Symbol, T,
    from_list, is_nil, is_proper_list, print_capped, print_sexpr, to_list,
    QUASIQUOTE, QUOTE, UNQUOTE, UNQUOTE_SPLICING,
)


class TranslateError(ProverError):
    pass


class EvalError(ProverError):
    pass


# The constructor table: one live node per structure, so structurally
# equal terms are the same object and == and hash are identity.  Keys:
# Var, its name; Const, (type(value), value); App, (fn, args); LamApp,
# (formals, body, actuals).  Each value is a weak reference to the node,
# whose callback removes the entry when the node dies, so a node leaves
# the table when the last reference to it elsewhere goes.  A constructor
# reads a dead entry as empty and files its new node over it.
_TABLE = {}
_set = object.__setattr__


class _Ref(weakref.ref):
    """A table entry: a weak reference to a node, and the node's key."""
    __slots__ = ("key",)


def _drop(ref, table=_TABLE):
    """Callback of a dying node's entry.  It removes the key only if the
    table still holds this entry: a newer node may already be filed there."""
    key = ref.key
    if table.get(key) is ref:
        del table[key]


class _Slots:
    """The cache slots every node has, without the immutability guard.

    A constructor builds a node as an instance of its kind's slots class,
    which stores fields and caches as plain slot stores, and then seals
    it: `_file` sets its class to the public class, which adds nothing to
    the layout but `_Term`'s raising `__setattr__`.
    """
    __slots__ = ("_sexpr", "_text", "_fv", "_split", "__weakref__")


class _Term(_Slots):
    """Base of the interned term classes.

    A node is never changed after construction: assigning or deleting an
    attribute raises AttributeError.  What is derived from it is kept on
    the node: `_split`, what rewrite.find_split_test finds in it, is
    answered when the node is built; `_sexpr`, the s-expression unparse
    returns (each Pair of which keeps its printed text), `_text`, the
    printed text term_text returns, and `_fv`, the tuple free_vars
    returns, are computed on first use (None until then).
    """
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return print_capped(unparse(self))


def _file(t, cls, key, split=None):
    """Give the new node t its split answer and empty lazy caches, seal it
    as a cls and file it under key.  The seal comes before the weak
    reference, so the table never holds an unsealed node."""
    t._split = split
    t._sexpr = None
    t._text = None
    t._fv = None
    t.__class__ = cls
    r = _TABLE[key] = _Ref(t, _drop)
    r.key = key


class _VarSlots(_Slots):
    __slots__ = ("name",)


class _ConstSlots(_Slots):
    __slots__ = ("value",)


class _AppSlots(_Slots):
    __slots__ = ("fn", "args", "has_lambda")


class _LamAppSlots(_Slots):
    __slots__ = ("formals", "body", "actuals")


class Var(_VarSlots, _Term):
    __slots__ = ()
    has_lambda = False

    def __new__(cls, name):
        r = _TABLE.get(name)
        t = r() if r is not None else None
        if t is None:
            t = _VarSlots()
            t.name = name
            _file(t, cls, name)
        return t

    def __repr__(self):
        return self.name


class Const(_ConstSlots, _Term):
    __slots__ = ()
    has_lambda = False

    def __new__(cls, value):
        key = (type(value), value)
        r = _TABLE.get(key)
        t = r() if r is not None else None
        if t is None:
            t = _ConstSlots()
            t.value = value
            _file(t, cls, key)
        return t

    def __repr__(self):
        return "'" + print_capped(self.value)


class App(_AppSlots, _Term):
    """A call (fn args...); has_lambda says whether a LamApp occurs in it.

    Its `_split` is None under HIDE, else the first argument's answer
    (the node that argument's search found), else True for an IF whose
    test is not a constant: the node itself, which it cannot refer to.
    """
    __slots__ = ()

    def __new__(cls, fn, args):
        key = (fn, args)
        r = _TABLE.get(key)
        t = r() if r is not None else None
        if t is None:
            t = _AppSlots()
            t.fn = fn
            t.args = args
            lam = False
            split = None
            for a in args:
                if a.has_lambda:
                    lam = True
                if split is None:
                    split = a._split
                    if split is True:
                        split = a
            t.has_lambda = lam
            if fn == "HIDE":
                split = None
            elif split is None and fn == "IF" and not isinstance(args[0], Const):
                split = True
            _file(t, cls, key, split)
        return t


class LamApp(_LamAppSlots, _Term):
    __slots__ = ()
    has_lambda = True

    def __new__(cls, formals, body, actuals):
        key = (formals, body, actuals)
        r = _TABLE.get(key)
        t = r() if r is not None else None
        if t is None:
            t = _LamAppSlots()
            t.formals = formals
            t.body = body
            t.actuals = actuals
            _file(t, cls, key)
        return t


CONST_T = Const(T)
CONST_NIL = Const(NIL)

def truthy(v) -> bool:
    return not is_nil(v)


def _len(x):
    n = 0
    while isinstance(x, Pair):
        n += 1
        x = x.cdr
    return n


def _member_equal(x, cur):
    while isinstance(cur, Pair):
        if cur.car == x:
            return cur
        cur = cur.cdr
    return NIL


def _binary_append(x, y):
    items = []
    while isinstance(x, Pair):
        items.append(x.car)
        x = x.cdr
    return from_list(items, y)


# Each built-in function's arity and its meaning over s-expression values,
# which evaluation and constant folding apply.  IF has no meaning here:
# evaluate and the rewriter take its branches lazily.
BUILTINS = {
    "CONS": (2, Pair),
    "CAR": (1, lambda x: x.car if isinstance(x, Pair) else NIL),
    "CDR": (1, lambda x: x.cdr if isinstance(x, Pair) else NIL),
    "CONSP": (1, lambda x: T if isinstance(x, Pair) else NIL),
    "ATOM": (1, lambda x: NIL if isinstance(x, Pair) else T),
    "EQUAL": (2, lambda x, y: T if x == y else NIL),
    "NOT": (1, lambda x: NIL if truthy(x) else T),
    "LEN": (1, _len),
    "MEMBER-EQUAL": (2, _member_equal),
    "BINARY-APPEND": (2, _binary_append),
    "IFF": (2, lambda x, y: T if truthy(x) == truthy(y) else NIL),
    "IF": (3, None),
    "HIDE": (1, lambda x: x),
}

BUILTIN_ARITY = {name: n for name, (n, _) in BUILTINS.items()}

FOLDABLE = frozenset(BUILTIN_ARITY) - {"IF", "HIDE"}

# Surface names of built-in functions: a call of APPEND is one of BINARY-APPEND.
ALIASES = {"APPEND": "BINARY-APPEND"}


def apply_builtin(name: str, args):
    """Apply a built-in function other than IF to SExpr values."""
    return BUILTINS[name][1](*args)


def built_cells(name: str, args) -> int:
    """The cons cells apply_builtin(name, args) builds: len(x) for
    (BINARY-APPEND x y), one for CONS, none for the others."""
    if name == "BINARY-APPEND":
        return _len(args[0])
    return 1 if name == "CONS" else 0


# ---------------------------------------------------------------------------
# Macros

def _binding_pairs(form, what):
    out = []
    for b in to_list(form):
        items = to_list(b) if isinstance(b, Pair) else None
        if not items or len(items) != 2 or not isinstance(items[0], Symbol):
            raise TranslateError(f"malformed {what} binding: {print_capped(b)}")
        out.append((items[0].name, items[1]))
    return out


def _macro_let(form, tr):
    args = to_list(form.cdr)
    if len(args) != 2:
        raise TranslateError("LET expects a binding list and one body form")
    pairs = _binding_pairs(args[0], "LET")
    body = tr(args[1])
    return make_lamapp([n for n, _ in pairs], body, [tr(e) for _, e in pairs])


def _macro_let_star(form, tr):
    args = to_list(form.cdr)
    if len(args) != 2:
        raise TranslateError("LET* expects a binding list and one body form")
    pairs = _binding_pairs(args[0], "LET*")
    out = tr(args[1])
    for name, init in reversed(pairs):  # the order nested LETs translate in
        out = make_lamapp([name], out, [tr(init)])
    return out


_WHEN = Symbol("WHEN")
_UNLESS = Symbol("UNLESS")


def _macro_bstar(form, tr):
    """B* stands for nested forms, one per binder: (LET ((v e)) rest),
    (IF test value rest) for ((WHEN test) value) and (IF test rest value)
    for ((UNLESS test) value).  It translates their parts in the order
    those forms would, going in: each WHEN's test and value and each
    UNLESS's test, then the body; coming out, last binder first: each
    LET's init and each UNLESS's value.  The chain is built on the way
    out, in a loop, so a long binder list costs no recursion depth."""
    args = to_list(form.cdr)
    if len(args) != 2:
        raise TranslateError("B* expects a binder list and one body form")
    binders = []  # (None, name, init) or (WHEN or UNLESS, test, value)
    for b in to_list(args[0]):
        items = to_list(b) if isinstance(b, Pair) else None
        pair = items and len(items) == 2
        head = to_list(items[0]) if pair and isinstance(items[0], Pair) else ()
        if pair and isinstance(items[0], Symbol):
            binders.append((None, items[0].name, items[1]))
        elif len(head) == 2 and head[0] in (_WHEN, _UNLESS):
            binders.append((head[0], head[1], items[1]))
        else:
            raise TranslateError(f"malformed B* binder: {print_capped(b)}")
    for i, (kind, x, value) in enumerate(binders):  # going in
        if kind is not None:
            test = tr(x)
            binders[i] = (kind, test, tr(value) if kind is _WHEN else value)
    out = tr(args[1])
    for kind, x, value in reversed(binders):  # coming out
        if kind is None:
            out = make_lamapp([x], out, [tr(value)])
        elif kind is _WHEN:
            out = App("IF", (x, value, out))
        else:
            out = App("IF", (x, out, tr(value)))
    return out


# AND, OR and COND translate their arguments left to right, so the first
# error reported is the leftmost, and then fold the right-nested IF chain
# in a loop: a wide form costs no recursion depth.

def _macro_and(form, tr):
    args = [tr(a) for a in to_list(form.cdr)]
    if not args:
        return CONST_T
    out = args[-1]
    for a in reversed(args[:-1]):
        out = App("IF", (a, out, CONST_NIL))
    return out


def _macro_or(form, tr):
    args = [tr(a) for a in to_list(form.cdr)]
    if not args:
        return CONST_NIL
    out = args[-1]
    for a in reversed(args[:-1]):
        out = App("IF", (a, a, out))
    return out


def _macro_cond(form, tr):
    """(test value) chooses value; a one-form clause (test) yields test itself."""
    arms = []
    for c in to_list(form.cdr):
        items = to_list(c) if isinstance(c, Pair) else None
        if not items or len(items) not in (1, 2):
            raise TranslateError(f"malformed COND clause: {print_capped(c)}")
        test = tr(items[0])
        arms.append((test, tr(items[1]) if len(items) == 2 else test))
    out = CONST_NIL
    for test, value in reversed(arms):
        out = App("IF", (test, value, out))
    return out


def _macro_implies(form, tr):
    args = to_list(form.cdr)
    if len(args) != 2:
        raise TranslateError("IMPLIES expects two arguments")
    p, q = tr(args[0]), tr(args[1])
    return App("IF", (p, App("IF", (q, CONST_T, CONST_NIL)), CONST_T))


def _macro_quasiquote(form, tr):
    args = to_list(form.cdr)
    if len(args) != 1:
        raise TranslateError("QUASIQUOTE expects one argument")
    return tr(expand_quasiquote(args[0]))


def builtin_macro_env():
    return {
        "LET": _macro_let,
        "LET*": _macro_let_star,
        "B*": _macro_bstar,
        "AND": _macro_and,
        "OR": _macro_or,
        "COND": _macro_cond,
        "IMPLIES": _macro_implies,
        "QUASIQUOTE": _macro_quasiquote,
    }


def expand_quasiquote(form):
    """Rewrite a depth-1 quasiquote template into CONS/BINARY-APPEND/QUOTE forms."""
    if isinstance(form, Pair):
        head = form.car
        if head == QUASIQUOTE:
            raise TranslateError("nested quasiquote is not supported")
        if head == UNQUOTE:
            args = to_list(form.cdr)
            if len(args) != 1:
                raise TranslateError("malformed unquote")
            return args[0]
        if head == UNQUOTE_SPLICING:
            raise TranslateError("unquote-splicing outside list position")
        if isinstance(form.car, Pair) and form.car.car == UNQUOTE_SPLICING:
            args = to_list(form.car.cdr)
            if len(args) != 1:
                raise TranslateError("malformed unquote-splicing")
            return from_list([Symbol("BINARY-APPEND"), args[0], expand_quasiquote(form.cdr)])
        return from_list([Symbol("CONS"), expand_quasiquote(form.car), expand_quasiquote(form.cdr)])
    return from_list([QUOTE, form])


# ---------------------------------------------------------------------------
# Translation

def free_vars(t):
    """Free variable names in left-to-right first-occurrence order, as a
    tuple computed once per node and kept on it.

    A lambda's actuals come first, then the body's names its formals
    do not bind.
    """
    fv = t._fv
    if fv is None:
        if isinstance(t, Var):
            fv = (t.name,)
        elif isinstance(t, Const):
            fv = ()
        elif isinstance(t, App):
            parts = []
            for a in t.args:  # a loop: a comprehension costs a frame per level
                parts.append(free_vars(a))
            fv = _union(parts)
        else:
            bound = set(t.formals)
            outer = tuple(n for n in free_vars(t.body) if n not in bound)
            fv = _union([free_vars(a) for a in t.actuals] + [outer])
        _set(t, "_fv", fv)
    return fv


def _union(parts):
    """The names of parts in first-occurrence order, as a tuple."""
    if len(parts) == 1:
        return parts[0]
    return tuple(dict.fromkeys(n for p in parts for n in p))


def make_lamapp(formals, body, actuals):
    """Build a LamApp, closing the body by passing extra free vars through.

    One binder list binds each variable once; LET* and B* rebind through
    nested LETs instead."""
    if len(formals) != len(actuals):
        raise TranslateError("binder/actual count mismatch")
    bound = set(formals)
    if len(bound) != len(formals):
        dup = next(n for i, n in enumerate(formals) if n in formals[:i])
        raise TranslateError(f"duplicate binder: {dup}")
    extras = [n for n in free_vars(body) if n not in bound]
    return LamApp(
        tuple(formals) + tuple(extras),
        body,
        tuple(actuals) + tuple(Var(n) for n in extras),
    )


def translate(form, world, arity=None):
    """Translate a surface form into a Term.

    `world` supplies the macros (world.macro_env).  `arity(name)` gives
    the argument count of a function, or None for an unknown one; it
    defaults to world.arity and lets a caller overlay its own vocabulary,
    such as a definition that calls itself.
    """
    return Translator(world.macro_env, world.arity if arity is None else arity).tr(form)


class Translator:
    """One translation's macros and function arities; `tr` is its entry.

    `done` maps id(form) to (form, term) for each call form translated so
    far, so a form shared by several parents, as in the s-expression of a
    term built by unparse, is translated once.  The entry keeps the form
    alive: macros build and drop forms during a translation, and a dropped
    form's id could name a new one.
    """
    __slots__ = ("env", "arity_of", "done")

    def __init__(self, env: dict, arity_of):
        self.env = env
        self.arity_of = arity_of
        self.done = {}

    def tr(self, f):
        """The term of form f.  A call is translated here, one frame per level:
        its argument list's shape, its arguments, then its arity, in that order."""
        if not isinstance(f, Pair):
            if isinstance(f, Symbol):
                return CONST_T if f is T else Var(f.name)
            return Const(f)
        hit = self.done.get(id(f))
        if hit is not None:
            return hit[1]
        head, rest = f.car, f.cdr
        if head is QUOTE:
            args = to_list(rest)
            if len(args) != 1:
                raise TranslateError("malformed quote")
            out = Const(args[0])
        elif head is UNQUOTE or head is UNQUOTE_SPLICING:
            raise TranslateError(f"{head.name} outside quasiquote")
        elif isinstance(head, Symbol):
            expander = self.env.get(head.name)
            if expander is not None:
                out = expander(f, self.tr)
            elif not is_proper_list(rest):
                raise ParseError("improper list where a proper list was expected")
            else:
                args = []
                while rest is not NIL:
                    args.append(self.tr(rest.car))
                    rest = rest.cdr
                name = ALIASES.get(head.name, head.name)
                n = self.arity_of(name)
                if n is None:
                    raise TranslateError(f"unknown function: {name}")
                if n != len(args):
                    raise TranslateError(f"{name} expects {n} arguments, got {len(args)}")
                out = App(name, tuple(args))
        elif isinstance(head, Pair):
            out = self.tr_lambda(head, rest)
        else:
            raise TranslateError(f"cannot translate: {print_capped(f)}")
        self.done[id(f)] = (f, out)
        return out

    def tr_lambda(self, head, args_form):
        items = to_list(head)
        if len(items) != 3 or items[0] != Symbol("LAMBDA"):
            raise TranslateError(f"bad application head: {print_capped(head)}")
        formals = []
        for s in to_list(items[1]):
            if not isinstance(s, Symbol):
                raise TranslateError("lambda formals must be symbols")
            formals.append(s.name)
        actuals = [self.tr(a) for a in to_list(args_form)]
        if len(actuals) != len(formals):
            raise TranslateError("lambda applied to wrong number of arguments")
        return make_lamapp(formals, self.tr(items[2]), actuals)


def unparse(t):
    """Render a Term back into a surface SExpr; constants become QUOTE forms.

    The result is built once per node and kept on it, and it shares the
    renderings of the node's subterms.
    """
    out = t._sexpr
    if out is None:
        if isinstance(t, App):
            out = NIL
            for a in reversed(t.args):
                s = a._sexpr
                out = Pair(unparse(a) if s is None else s, out)
            out = Pair(Symbol(t.fn), out)
        elif isinstance(t, Var):
            out = Symbol(t.name)
        elif isinstance(t, Const):
            out = Pair(QUOTE, Pair(t.value, NIL))
        else:
            lam = from_list([
                Symbol("LAMBDA"),
                from_list([Symbol(n) for n in t.formals]),
                unparse(t.body),
            ])
            out = Pair(lam, from_list([unparse(a) for a in t.actuals]))
        _set(t, "_sexpr", out)
    return out


def term_text(t):
    """The text print_sexpr(unparse(t)) gives, built from the kept texts of
    t's arguments without building the s-expression, and kept on t."""
    text = t._text
    if text is None:
        if isinstance(t, App):
            parts = [t.fn]
            for a in t.args:
                s = a._text
                parts.append(term_text(a) if s is None else s)
            text = "(" + " ".join(parts) + ")"
        elif isinstance(t, Var):
            text = t.name
        elif isinstance(t, Const):
            text = "(QUOTE " + print_sexpr(t.value) + ")"
        else:
            text = print_sexpr(unparse(t))
        _set(t, "_text", text)
    return text


# ---------------------------------------------------------------------------
# Substitution and beta reduction
#
# One walker, rebuild, maps a term for substitute, beta_reduce,
# rewrite.replace_subterm and rewrite.expand_calls.  It keeps, per call, a
# table from each node it has finished to its image, so a subterm shared
# by many parents costs one visit: the bindings of a let* become shared
# nodes, and a tree walk over them would take time exponential in their
# depth.  The lookup sits in the walker and the arguments are mapped in a
# loop, so a node costs one frame per nesting level (a wrapper, or a
# comprehension before Python 3.12, would add one).  A node none of whose
# children changed is returned as it is, not looked up again in the
# intern table.

def rebuild(t, done, step=None):
    """The image of t: done's entry for a node it holds, which the caller
    may seed; else a Var or Const itself; else what step(t) returns, unless
    that is None; else the call rebuilt from its arguments' images, or a
    lambda's rebuilt body with its formals bound to its actuals' images.
    Each node's image is filed in done."""
    out = done.get(t)
    if out is not None:
        return out
    if isinstance(t, (Var, Const)):
        return t
    if step is not None:
        out = step(t)
    if out is None:
        if isinstance(t, App):
            args = []
            for a in t.args:
                args.append(rebuild(a, done, step))
            args = tuple(args)
            out = t if args == t.args else App(t.fn, args)
        else:
            body = rebuild(t.body, done, step)
            subst = {}
            for name, a in zip(t.formals, t.actuals):
                subst[Var(name)] = rebuild(a, done, step)
            out = rebuild(body, subst)
    done[t] = out
    return out


def substitute(t, subst):
    """Replace variables of the lambda-free t; descends into HIDE arguments."""
    if not subst:
        return t
    if t.has_lambda:
        raise TypeError(f"not a lambda-free term: {t!r}")
    return rebuild(t, dict(zip(map(Var, subst), subst.values())))


def _keep_lambda_free(u):
    return None if u.has_lambda else u


def beta_reduce(t):
    """Bottom-up beta reduction; the result contains no LamApp.

    A term without a LamApp is returned as it is, at no cost.
    """
    if not t.has_lambda:
        return t
    return rebuild(t, {}, _keep_lambda_free)


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(t, env, call):
    """Evaluate a term to an SExpr value, with variables bound by env.

    A variable is read with env[name], once; a KeyError means it is
    unbound, so env needs nothing but __getitem__.  Variables, constants,
    lambda applications and IF (lazily) are handled here; every other
    application goes to call(fn, args) with its arguments already
    evaluated.
    """
    if isinstance(t, Var):
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"unbound variable: {t.name}") from None
    if isinstance(t, Const):
        return t.value
    if isinstance(t, LamApp):
        vals = [evaluate(a, env, call) for a in t.actuals]
        return evaluate(t.body, dict(zip(t.formals, vals)), call)
    if t.fn == "IF":
        test = evaluate(t.args[0], env, call)
        return evaluate(t.args[1] if truthy(test) else t.args[2], env, call)
    return call(t.fn, [evaluate(a, env, call) for a in t.args])

