"""A miniature clause prover with simplification-aware term hints."""

from .sexpr import NIL, Keyword, Pair, ParseError, Symbol, parse, parse_one, print_sexpr
from .term import App, Const, LamApp, Var, beta_reduce, translate, unparse
from .world import World
from .rewrite import StepBudget, rewrite_term, simplify_clause, split_ifs
from .hints import Hint, parse_hint, prove_clause
from .termhint import find_hint, install_prelude, use_termhint

__version__ = "0.1.0"
