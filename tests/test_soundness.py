"""Soundness oracle: on random defun-only files, every theorem the prover
PROVES evaluates to non-NIL on random ground instances.

Each file has two non-recursive defuns and six theorems over
CONS/CAR/CDR/CONSP/ATOM/EQUAL/IFF/IF/NOT.  A theorem whose conclusion
converts to an EQUAL rewrite rule is installed as one, so later theorems
are proved with earlier ones; every other theorem has :RULE-CLASSES NIL.
The oracle, ground_eval, reads the defuns as written, not as the prover
normalized them.
"""

import random

from hintprover.sexpr import Symbol, is_nil, parse_one, print_sexpr, to_list
from hintprover.term import Const, beta_reduce, free_vars, substitute, translate
from hintprover.world import World
from hintprover.hints import clausify
from hintprover.termhint import install_prelude
from hintprover.cli import EventError, _do_defthm, _do_defun, convert_rule

from test_term import ground_eval

_UNARY = ("car", "cdr", "consp", "atom", "not")
_BINARY = ("cons", "equal", "iff")
_LEAVES = ("'nil", "'t", "'a", "'(a . b)")
_VALUES = [parse_one(s) for s in ("nil", "t", "a", "(a . b)", "(nil)", "((a) . t)", "(a b)")]


def _form(rng, depth, names, fns):
    """A random form over the variables in names, the builtins above and
    fns, a dict of defined function name to arity."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names + _LEAVES)

    def sub():
        return _form(rng, depth - 1, names, fns)

    k = rng.random()
    if k < 0.3:
        return f"({rng.choice(_UNARY)} {sub()})"
    if k < 0.6:
        return f"({rng.choice(_BINARY)} {sub()} {sub()})"
    if k < 0.8 or not fns:
        return f"(if {sub()} {sub()} {sub()})"
    fn = rng.choice(sorted(fns))
    return f"({fn} {' '.join(sub() for _ in range(fns[fn]))})"


def _statement(rng, fns):
    names = ("x", "y", "z")
    concl = _form(rng, 3, names, fns)
    if rng.random() < 0.5:
        fn = rng.choice(sorted(fns) + ["car", "cdr"])
        lhs = f"({fn} {' '.join(rng.choice(names) for _ in range(fns.get(fn, 1)))})"
        concl = f"(equal {lhs} {_form(rng, 2, names, fns)})"
    if rng.random() < 0.4:
        return f"(implies {_form(rng, 2, names, fns)} {concl})"
    return concl


def _file(rng):
    """Two defuns, then six theorems, as event forms."""
    fns, events = {}, []
    for name, formals in (("d1", ("x", "y")), ("d2", ("x",))):
        events.append(f"(defun {name} ({' '.join(formals)}) {_form(rng, 3, formals, fns)})")
        fns[name] = len(formals)
    for i in range(6):
        events.append(f"(defthm t{i} {_statement(rng, fns)})")
    return [to_list(parse_one(e)) for e in events]


def _is_equal_rule(items, world):
    """Whether the theorem's conclusion converts to an EQUAL rewrite rule."""
    hyps, concl, _, concl_form = clausify(items[2], world)
    try:
        rule = convert_rule(items[1].name, hyps, concl, concl_form)
    except EventError:
        return False
    return rule.equiv == "EQUAL"


def _ground_instance(rng, term):
    subst = {v: Const(rng.choice(_VALUES)) for v in free_vars(term)}
    return substitute(term, subst)


def test_proved_theorems_are_true_on_ground_instances():
    rng = random.Random(61231)
    proved = rules = 0
    for _ in range(200):
        world, oracle = World(), World()
        install_prelude(world)
        for items in _file(rng):
            if items[0] == Symbol("DEFUN"):
                _do_defun(world, items, 300)
                formals = [s.name for s in to_list(items[2])]
                oracle.add_definition(items[1].name, formals,
                                      beta_reduce(translate(items[3], oracle)))
                continue
            if not _is_equal_rule(items, world):
                items += [parse_one(":rule-classes"), parse_one("nil")]
            if not _do_defthm(world, items, 300).proved:
                continue
            proved += 1
            statement = beta_reduce(translate(items[2], oracle))
            for _ in range(20):
                value = ground_eval(_ground_instance(rng, statement), oracle)
                assert not is_nil(value), f"false theorem: {print_sexpr(items[2])}"
        rules += len(world.rules)
    # the seeded run proves 293 theorems, 41 of them installed as rules
    assert proved >= 250 and rules >= 30
