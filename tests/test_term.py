import random

import pytest

from hintprover.sexpr import (
    NIL, Keyword, Pair, Symbol, T, QUOTE, UNQUOTE, UNQUOTE_SPLICING,
    ParseError, from_list, is_nil, parse_one, print_sexpr, to_list,
)
from hintprover.term import (
    BUILTIN_ARITY, App, CONST_NIL, CONST_T, Const, EvalError, LamApp, TranslateError, Var,
    apply_builtin, beta_reduce, evaluate, expand_quasiquote, free_vars,
    make_lamapp, substitute, translate, unparse,
)
from hintprover.world import World


# The oracle of the soundness, acceptance and termhint tests.  The prover
# never calls it; it is one more `call` function over term.evaluate.
def ground_eval(t, world, fuel: int = 1000):
    """Evaluate a closed term to an SExpr value.

    Definition unfolding is fuel-bounded; stubs, free variables and
    nesting deeper than the Python stack are evaluation errors.
    """
    try:
        return evaluate(t, {}, _GroundCalls(world, fuel).call)
    except RecursionError:
        raise EvalError("evaluation nested too deeply") from None


class _GroundCalls:
    """The `call` of one ground evaluation: builtins, then definitions while fuel lasts."""
    __slots__ = ("world", "fuel")

    def __init__(self, world, fuel: int):
        self.world = world
        self.fuel = fuel

    def call(self, fn, args):
        if fn in BUILTIN_ARITY:
            return apply_builtin(fn, args)
        defn = self.world.definitions.get(fn)
        if defn is None:
            raise EvalError(f"no evaluator for function: {fn}")
        if self.fuel <= 0:
            raise EvalError("evaluation fuel exhausted")
        self.fuel -= 1
        return evaluate(defn.rhs, {v.name: a for v, a in zip(defn.lhs.args, args)}, self.call)


def tr(text: str, world=None):
    return translate(parse_one(text), world or World())


def test_translate_atoms():
    w = World()
    assert tr("x", w) == Var("X")
    assert tr("t", w) == CONST_T
    assert tr("nil", w) == CONST_NIL
    assert tr("5", w) == Const(5)
    assert tr('"s"', w) == Const("s")
    assert tr(":use", w) == Const(Keyword("USE"))
    assert tr("'foo", w) == Const(Symbol("FOO"))
    assert tr("'(1 2)", w) == Const(from_list([1, 2]))


def test_translate_applications():
    w = World()
    assert tr("(cons x y)", w) == App("CONS", (Var("X"), Var("Y")))
    # APPEND is surface sugar for the two-argument builtin
    assert tr("(append x y)", w) == App("BINARY-APPEND", (Var("X"), Var("Y")))
    with pytest.raises(TranslateError):
        tr("(cons x)", w)
    with pytest.raises(TranslateError):
        tr("(no-such-fn x)", w)
    w.add_stub("F", 1)
    assert tr("(f x)", w) == App("F", (Var("X"),))


def test_translate_error_precedence():
    w = World()
    # the argument list is checked before any argument is translated
    for text in ["(cons (no-such-fn x) . y)", "(cons ((foo) x) y . z)", "(no-such-fn . x)"]:
        with pytest.raises(ParseError, match="^improper list where a proper list was expected$"):
            tr(text, w)
    # the arguments' own errors come before the call's arity
    with pytest.raises(TranslateError, match="^unknown function: NO-SUCH-FN$"):
        tr("(car (no-such-fn x) y)", w)
    with pytest.raises(TranslateError, match="^bad application head: \\(FOO\\)$"):
        tr("(zzz ((foo) x))", w)
    with pytest.raises(TranslateError, match="^CAR expects 1 arguments, got 2$"):
        tr("(car x y)", w)


def test_translate_let_is_closed_lambda():
    t = tr("(let ((a x)) (cons a y))")
    assert isinstance(t, LamApp)
    # y is free in the body, so it rides along as a pass-through formal
    assert t.formals == ("A", "Y")
    assert t.actuals == (Var("X"), Var("Y"))
    assert beta_reduce(t) == App("CONS", (Var("X"), Var("Y")))


def test_translate_let_star_nests():
    t = tr("(let* ((a x) (b (cons a a))) (cons a b))")
    got = beta_reduce(t)
    assert got == App("CONS", (Var("X"), App("CONS", (Var("X"), Var("X")))))


def test_translate_bstar():
    t = beta_reduce(tr("(b* ((a '1) ((when p) 'early) (b '2)) (cons a b))"))
    assert t == App("IF", (Var("P"), Const(Symbol("EARLY")),
                           App("CONS", (Const(1), Const(2)))))
    t2 = beta_reduce(tr("(b* (((unless p) 'early)) 'late)"))
    assert t2 == App("IF", (Var("P"), Const(Symbol("LATE")), Const(Symbol("EARLY"))))
    with pytest.raises(TranslateError):
        tr("(b* ((a b c)) x)")


def test_translate_boolean_macros():
    assert tr("(and)") == CONST_T
    assert tr("(and x)") == Var("X")
    assert tr("(and x y)") == App("IF", (Var("X"), Var("Y"), CONST_NIL))
    assert tr("(or)") == CONST_NIL
    assert tr("(or x y)") == App("IF", (Var("X"), Var("X"), Var("Y")))
    assert tr("(implies p q)") == App(
        "IF", (Var("P"), App("IF", (Var("Q"), CONST_T, CONST_NIL)), CONST_T)
    )
    assert tr("(cond (p a) (t b))") == App(
        "IF", (Var("P"), Var("A"), App("IF", (CONST_T, Var("B"), CONST_NIL)))
    )


def test_translate_lambda_application():
    t = tr("((lambda (a) (cons a b)) x)")
    assert isinstance(t, LamApp)
    assert t.formals == ("A", "B")
    assert beta_reduce(t) == App("CONS", (Var("X"), Var("B")))
    with pytest.raises(TranslateError):
        tr("((lambda (a) a) x y)")


def test_quasiquote_expansion_shape():
    got = expand_quasiquote(parse_one("(a ,x)"))
    assert print_sexpr(got) == "(CONS (QUOTE A) (CONS X (QUOTE NIL)))"
    got2 = expand_quasiquote(parse_one("(,@x y)"))
    assert print_sexpr(got2) == "(BINARY-APPEND X (CONS (QUOTE Y) (QUOTE NIL)))"
    with pytest.raises(TranslateError):
        expand_quasiquote(parse_one("`(nested)"))
    with pytest.raises(TranslateError):
        expand_quasiquote(parse_one(",@x"))


def test_quasiquote_backquote_quote_idiom():
    # `'(...) builds a QUOTE wrapper around the template, the shape hint
    # terms rely on for their second evaluation
    t = tr("`'(:expand (,(hq b)))", _hq_world())
    assert isinstance(t, App) and t.fn == "CONS"
    assert t.args[0] == Const(QUOTE)
    v = ground_eval(tr("(let ((b '7)) `'(:expand (,b)))"), World())
    assert print_sexpr(v) == "(QUOTE (:EXPAND (7)))"


def _hq_world():
    w = World()
    w.add_stub("HQ", 1)
    w.add_stub("B", 0)
    return w


def test_substitute_and_shadowing():
    t = tr("(let ((y '1) (a '2)) (let ((a x)) (cons a y)))")
    # the inner binder of A shadows the outer one, so only Y's value gets in
    assert beta_reduce(t) == App("CONS", (Var("X"), Const(1)))
    hidden = substitute(App("HIDE", (Var("X"),)), {"X": Const(3)})
    assert hidden == App("HIDE", (Const(3),))
    with pytest.raises(TypeError):  # substitute takes lambda-free terms only
        substitute(tr("(let ((a x)) (cons a y))"), {"Y": Const(1)})


def test_beta_reduce_eliminates_lambdas():
    t = tr("(let* ((a (let ((b x)) (cons b b))) (c a)) (cons a c))")
    got = beta_reduce(t)

    def no_lam(u):
        if isinstance(u, LamApp):
            return False
        if isinstance(u, App):
            return all(no_lam(a) for a in u.args)
        return True

    assert no_lam(got)


def test_free_vars_first_occurrence_order():
    t = tr("(cons (cons y x) (let ((a z)) (cons a y)))")
    assert free_vars(t) == ("Y", "X", "Z")


def test_make_lamapp_arity_mismatch():
    with pytest.raises(TranslateError):
        make_lamapp(["A"], Var("A"), [])


def test_duplicate_binder_is_rejected():
    with pytest.raises(TranslateError, match="duplicate binder: A"):
        make_lamapp(["A", "B", "A"], Var("A"), [Const(1), Const(2), Const(3)])
    for text in ["(let ((x '1) (y '2) (x '3)) x)", "((lambda (x x) x) y y)"]:
        with pytest.raises(TranslateError, match="duplicate binder: X"):
            tr(text)


def test_builtin_completion_semantics():
    # car/cdr of a non-pair fall back to nil
    assert is_nil(apply_builtin("CAR", [NIL]))
    assert is_nil(apply_builtin("CDR", [7]))
    assert apply_builtin("CAR", [Pair(1, 2)]) == 1
    assert apply_builtin("CONSP", [Pair(1, 2)]) == T
    assert is_nil(apply_builtin("CONSP", ["s"]))
    assert apply_builtin("ATOM", [NIL]) == T
    # len counts the proper prefix only
    assert apply_builtin("LEN", [from_list([1, 2, 3])]) == 3
    assert apply_builtin("LEN", [Pair(1, 2)]) == 1
    assert apply_builtin("LEN", [9]) == 0
    # member-equal returns the matching tail
    tail = apply_builtin("MEMBER-EQUAL", [2, from_list([1, 2, 3])])
    assert tail == from_list([2, 3])
    assert is_nil(apply_builtin("MEMBER-EQUAL", [9, from_list([1, 2])]))
    # append with an atom first argument yields the second
    assert apply_builtin("BINARY-APPEND", [7, from_list([1])]) == from_list([1])
    got = apply_builtin("BINARY-APPEND", [from_list([1, 2]), from_list([3])])
    assert got == from_list([1, 2, 3])
    assert apply_builtin("IFF", [T, 5]) == T
    assert is_nil(apply_builtin("IFF", [NIL, 5]))
    assert apply_builtin("HIDE", [7]) == 7
    # nil compares equal no matter how it is spelled
    assert apply_builtin("EQUAL", [NIL, from_list([])]) == T


def test_ground_eval_and_fuel():
    w = World()
    w.add_definition("REPEAT", ("X", "N"),
                     tr("(if (equal n '0) 'nil (cons x (repeat x '0)))", _repeat_view(w)))
    v = ground_eval(tr("(repeat 'a '1)", w), w)
    assert print_sexpr(v) == "(A)"
    w2 = World()
    w2.add_definition("LOOP", ("X",), App("LOOP", (Var("X"),)))
    with pytest.raises(EvalError):
        ground_eval(App("LOOP", (Const(1),)), w2, fuel=50)
    with pytest.raises(EvalError):
        ground_eval(App("LOOP", (Const(1),)), w2)
    with pytest.raises(EvalError):
        ground_eval(Var("X"), World())
    with pytest.raises(EvalError):
        ground_eval(tr("(stub-fn '1)", _stub_world()), _stub_world())


def _repeat_view(w):
    class V:
        macro_env = w.macro_env

        def arity(self, name):
            return 2 if name == "REPEAT" else w.arity(name)

    return V()


def _stub_world():
    w = World()
    w.add_stub("STUB-FN", 1)
    return w


def test_ground_eval_if_is_lazy():
    w = World()
    # the untaken branch would be an unbound-variable error if evaluated
    v = ground_eval(tr("(if 't '1 oops)", w), w)
    assert v == 1


def test_an_environment_needs_only_getitem():
    # evaluate reads a variable with env[name] alone; a KeyError is unbound
    class Env:
        def __getitem__(self, name):
            if name == "X":
                return 5
            raise KeyError(name)

    assert evaluate(Var("X"), Env(), None) == 5
    with pytest.raises(EvalError, match="^unbound variable: Y$"):
        evaluate(Var("Y"), Env(), None)


def test_unparse_heads_calls_with_the_reader_s_symbol():
    w = World()
    w.add_stub("FOO-BAR", 1)
    form = parse_one("(foo-bar (car x))")
    out = unparse(translate(form, w))
    assert out.car is form.car and out.cdr.car.car is parse_one("car")


def test_unparse_renders_constants_quoted():
    assert print_sexpr(unparse(Const(Symbol("A")))) == "(QUOTE A)"
    assert print_sexpr(unparse(App("F", (Var("X"), Const(NIL))))) == "(F X (QUOTE NIL))"
    t = tr("(let ((a x)) (cons a y))")
    assert print_sexpr(unparse(t)) == "((LAMBDA (A Y) (CONS A Y)) X Y)"


_VAR_POOL = ["X", "Y", "Z", "W"]


def _random_term(rng: random.Random, depth: int, world: World):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if rng.random() < 0.5:
            return Var(rng.choice(_VAR_POOL))
        return Const(rng.choice([NIL, T, 0, 5, Symbol("K"), from_list([1, 2])]))
    if roll < 0.85:
        fn, arity = rng.choice([("CONS", 2), ("CAR", 1), ("NOT", 1),
                                ("EQUAL", 2), ("IF", 3), ("HIDE", 1), ("G", 2)])
        return App(fn, tuple(_random_term(rng, depth - 1, world) for _ in range(arity)))
    formals = rng.sample(_VAR_POOL, rng.randrange(1, 3))
    body = _random_term(rng, depth - 1, world)
    actuals = [_random_term(rng, depth - 1, world) for _ in formals]
    return make_lamapp(formals, body, actuals)


def test_unparse_translate_round_trip():
    w = World()
    w.add_stub("G", 2)
    rng = random.Random(2025)
    for _ in range(300):
        t = _random_term(rng, 3, w)
        assert translate(unparse(t), w) == t


# ---------------------------------------------------------------------------
# Quasiquote interpolation against a direct oracle

def _interpolate(tpl, env):
    """Reference splice/unquote on plain values, no terms involved."""
    if isinstance(tpl, Pair):
        if tpl.car == UNQUOTE:
            return env[to_list(tpl)[1].name]
        if isinstance(tpl.car, Pair) and tpl.car.car == UNQUOTE_SPLICING:
            v = env[to_list(tpl.car)[1].name]
            items = []
            while isinstance(v, Pair):
                items.append(v.car)
                v = v.cdr
            return from_list(items, _interpolate(tpl.cdr, env))
        return Pair(_interpolate(tpl.car, env), _interpolate(tpl.cdr, env))
    return tpl


def _random_template(rng: random.Random, depth: int, vars_):
    if depth <= 0 or rng.random() < 0.35:
        kind = rng.randrange(4)
        if kind == 0:
            return Symbol(rng.choice(["A", "B", "C"]))
        if kind == 1:
            return rng.randrange(10)
        if kind == 2:
            return NIL
        return from_list([UNQUOTE, Symbol(rng.choice(vars_))])
    n = rng.randrange(0, 4)
    items = []
    for _ in range(n):
        if rng.random() < 0.25:
            items.append(from_list([UNQUOTE_SPLICING, Symbol("S")]))
        else:
            items.append(_random_template(rng, depth - 1, vars_))
    if items and rng.random() < 0.15 and not (
        isinstance(items[-1], Pair) and items[-1].car == UNQUOTE_SPLICING
    ):
        return from_list(items[:-1], items[-1])  # dotted tail
    return from_list(items)


def _random_value(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice([NIL, T, Symbol("V"), rng.randrange(100)])
    return from_list([_random_value(rng, depth - 1) for _ in range(rng.randrange(3))])


def test_quasiquote_matches_interpolation_oracle():
    rng = random.Random(40917)
    w = World()
    for _ in range(1000):
        tpl = _random_template(rng, 3, ["X", "Y"])
        env = {
            "X": _random_value(rng, 2),
            "Y": _random_value(rng, 2),
            "S": from_list([_random_value(rng, 1) for _ in range(rng.randrange(3))]),
        }
        want = _interpolate(tpl, env)
        form = from_list([
            Symbol("LET"),
            from_list([
                from_list([Symbol(n), from_list([QUOTE, v])]) for n, v in env.items()
            ]),
            from_list([Symbol("QUASIQUOTE"), tpl]),
        ])
        got = ground_eval(translate(form, w), w)
        assert print_sexpr(got) == print_sexpr(want), print_sexpr(tpl)


def test_equal_terms_are_one_object():
    def build():
        return tr("(cons (car x) (if p (cons x 'nil) y))")

    a, b = build(), build()
    assert a is b
    assert a.args[1] is App("IF", (Var("P"), App("CONS", (Var("X"), CONST_NIL)), Var("Y")))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    d = {a: "first"}
    d[b] = "second"
    assert list(d.values()) == ["second"]
    assert a.args[1] in {b.args[1]} and a not in {b.args[1]}
    # constants are keyed on their value's type and structure
    assert Const(from_list([1, Symbol("A")])) is Const(from_list([1, Symbol("A")]))
    assert Const(1) is not Const("1") and Const(Symbol("A")) is not Const(Keyword("A"))
    with pytest.raises(AttributeError):
        a.fn = "CAR"
