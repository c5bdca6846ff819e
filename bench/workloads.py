"""Seeded workload generators for the prover benchmark.

Every workload is a list of event files.  Each file carries its own
answer key, written down before the prover runs: the PROVED/FAILED
verdict of every theorem, in order, and the exit code of the file.
The corpus key is a hand-written table taken from the corpus comments
and the acceptance tests; the generated keys follow from how each
generator builds its theorems.  The prover's own output is never used
as an answer.

A file's theorems are tagged "install" (a proved theorem becomes a
rewrite rule) or "query" (``:rule-classes nil``), which the traced run
uses to split proof time by kind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PROVED, FAILED = True, False


@dataclass(frozen=True)
class Theorem:
    name: str
    proved: bool
    kind: str  # "install" or "query"


@dataclass(frozen=True)
class EventFile:
    name: str       # file name, unique within a workload pass
    text: str       # None for a shipped corpus file, read from disk
    theorems: tuple  # expected Theorem outcomes, in file order
    exit_code: int


def _exit_code(theorems) -> int:
    return 0 if all(t.proved for t in theorems) else 1


# ---------------------------------------------------------------------------
# corpus: the shipped files, hand-written answer key

def _thms(*entries):
    return tuple(Theorem(n, v, k) for n, v, k in entries)


I, Q = "install", "query"

CORPUS_KEY = {
    # both theorems are :rule-classes nil and prove with their hints
    "basic_pipeline.lisp": _thms(("MY-LEMMA", PROVED, Q), ("FA-IS-CONS", PROVED, Q)),
    # mark-clause labels two failing checkpoints (acceptance criterion 5)
    "mark_clause.lisp": _thms(("TWO-BRANCH-FAILURE", FAILED, Q)),
    # a nil hint term contributes nothing, so the goal stays unproved
    "nil_hint.lisp": _thms(("UNPROVABLE-WITH-NIL-HINT", FAILED, Q)),
    # tag-is-kind stays enabled and the member-equal hints go stale
    "robust_member.lisp": _thms(("TAG-IS-KIND", PROVED, I), ("BUILD-SHAPE", FAILED, Q)),
    "robust_member_base.lisp": _thms(("TAG-IS-KIND", PROVED, I), ("BUILD-SHAPE", PROVED, Q)),
    # term hints survive the new rewrite rule (acceptance criterion 2)
    "robust_termhint.lisp": _thms(
        ("TAG-IS-KIND", PROVED, I), ("BUILD-NON-PAIR", PROVED, Q), ("BUILD-SHAPE", PROVED, Q)),
    "robust_termhint_base.lisp": _thms(
        ("TAG-IS-KIND", PROVED, I), ("BUILD-NON-PAIR", PROVED, Q), ("BUILD-SHAPE", PROVED, Q)),
    # staged hints prove in all three spellings (acceptance criterion 3)
    "seq_inline.lisp": _thms(
        ("MY-THEORY1", PROVED, I), ("MY-THEORY2", PROVED, I), ("MY-THEORY3", PROVED, I),
        ("STAGED-REWRITE", PROVED, Q)),
    "seq_normalize_nil.lisp": _thms(
        ("MY-THEORY1", PROVED, I), ("MY-THEORY2", PROVED, I), ("MY-THEORY3", PROVED, I),
        ("STAGED-REWRITE", PROVED, Q)),
    "seq_normalized.lisp": _thms(
        ("MY-THEORY1", PROVED, I), ("MY-THEORY2", PROVED, I), ("MY-THEORY3", PROVED, I),
        ("STAGED-REWRITE", PROVED, Q)),
    "smoke.lisp": _thms(
        ("TWICE-UNFOLDS", PROVED, Q), ("QUOTED-ARITH", PROVED, Q),
        ("MEMBER-FINDS-TAIL", PROVED, Q), ("IF-KNOWS-HYP", PROVED, Q),
        ("HIDE-IS-OPAQUE", PROVED, Q), ("WRAPPED-OPEN", PROVED, I),
        ("USE-WRAPPED-RULE", PROVED, Q), ("LEN2-NIL", PROVED, Q),
        ("BSTAR-WORKS", PROVED, Q), ("COND-WORKS", PROVED, Q),
        ("OR-WORKS", PROVED, Q), ("QUASI-WORKS", PROVED, Q)),
}


def corpus_pass(rng: random.Random):
    """One pass over the shipped corpus in a seeded order."""
    names = sorted(CORPUS_KEY)
    rng.shuffle(names)
    return [EventFile(n, None, CORPUS_KEY[n], _exit_code(CORPUS_KEY[n])) for n in names]


# ---------------------------------------------------------------------------
# rules: install many rewrite rules, then query deep chains over them

RULES_PARAMS = {
    # Files are kept to about 150 ms so that the host-speed readings taken
    # between files describe the time spent inside them.
    "files": 4,          # files per pass
    "stubs": 4,          # opaque unary stubs the definitions bottom out in
    "leaf_fns": 5,       # definitions over stubs only
    "composite_fns": 15,  # definitions calling one leaf definition
    "queries": 5,        # query theorems per file, a fifth of its theorems
    "depth": 20,         # definitions per query chain
    "false_queries": 1,  # false queries in even-numbered files, none in odd ones
}


def _sx(t) -> str:
    """Print a nested (head, arg...) tuple as event-file text."""
    if isinstance(t, str):
        return t
    return "(" + " ".join(_sx(a) for a in t) + ")"


def _subst_x(t, value):
    if t == "x":
        return value
    if isinstance(t, tuple):
        return tuple(_subst_x(a, value) for a in t)
    return t


def _mutate_const(t, rng):
    """Change one quoted constant of t, so the equality no longer holds."""
    spots = []

    def walk(u, path):
        if isinstance(u, tuple):
            if u[0] == "quote":
                spots.append(path)
            for i, a in enumerate(u):
                walk(a, path + (i,))

    walk(t, ())
    target = rng.choice(spots)

    def rebuild(u, path):
        if path == target:
            return ("quote", str(int(u[1]) + 1000))
        if isinstance(u, tuple):
            return tuple(rebuild(a, path + (i,)) for i, a in enumerate(u))
        return u

    return rebuild(t, ())


def _rules_file(rng: random.Random, index: int, p) -> EventFile:
    lines, theorems = [], []
    stubs = [f"s{k}" for k in range(p["stubs"])]
    lines += [f"(defstub {s} 1)" for s in stubs]
    expanded = {}  # definition name -> normal form of its body with x free
    n_leaf, n_comp = p["leaf_fns"], p["composite_fns"]
    for i in range(n_leaf + n_comp):
        name = f"f{i}"
        if i < n_leaf:
            body = (rng.choice(stubs), ("cons", "x", ("quote", str(rng.randrange(1000)))))
            nf = body
        else:
            leaf = f"f{rng.randrange(n_leaf)}"
            body = (rng.choice(stubs), (leaf, "x"))
            nf = (body[0], expanded[leaf])
        expanded[name] = nf
        # leaf rules are proved by enabling the definition, composite ones
        # by expanding the call, as users write both
        hint = f"(:in-theory (enable {name}))" if i < n_leaf else f"(:expand (({name} x)))"
        lines.append(f"(defund {name} (x) {_sx(body)})")
        lines.append(
            f"(defthm {name}-open (equal ({name} x) {_sx(body)}) :hints ({hint}))")
        theorems.append(Theorem(f"{name.upper()}-OPEN", PROVED, "install"))

    n_false = p["false_queries"] if index % 2 == 0 else 0
    false_at = set(rng.sample(range(p["queries"]), n_false))
    names = list(expanded)
    for q in range(p["queries"]):
        chain = [rng.choice(names) for _ in range(p["depth"])]
        lhs, nf = "x", "x"
        for fn in reversed(chain):
            lhs = (fn, lhs)
            nf = _subst_x(expanded[fn], nf)
        if q in false_at:
            nf = _mutate_const(nf, rng)
        # every query carries a term hint that labels its checkpoint, as a
        # user tracking many queries would write; only false queries reach
        # a stable goal and extract it
        label = f"q{index}-{q}"
        lines.append(
            f"(defthm query-{q} (equal {_sx(lhs)} {_sx(nf)}) :rule-classes nil"
            f" :hints ((use-termhint ''(:use ((:instance mark-clause-is-true"
            f" (x '{label})))))))")
        theorems.append(Theorem(f"QUERY-{q}", q not in false_at, "query"))
    theorems = tuple(theorems)
    return EventFile(f"rules-{index:03d}.lisp", "\n".join(lines) + "\n",
                     theorems, _exit_code(theorems))


def rules_pass(rng: random.Random):
    return [_rules_file(rng, i, RULES_PARAMS) for i in range(RULES_PARAMS["files"])]


# ---------------------------------------------------------------------------
# termhint-split: hint terms case-split along with wide goals

SPLIT_PARAMS = {
    "groups": 10,  # copies of the theorem mix a pass holds
    # The theorem mix as (IF tests K, termhint-seq staging, one marked
    # branch), one theorem a file.  The mix is fixed, so seeds change
    # names, tests, branch polarity and order but not how much work a pass
    # holds, and the p50 and p90 theorems fall inside the K=4 and the
    # K=5/staged groups, not between groups.
    "theorems": [(3, False, False), (3, False, True),
                 (4, False, False), (4, False, False), (4, False, False),
                 (4, False, False), (4, False, True), (4, True, False),
                 (5, False, False), (5, False, False)],
}

_MAX_K = 5


def _split_theorem(rng: random.Random, name: str, k: int, seq: bool, mark: bool):
    tests = rng.sample(range(_MAX_K), k)
    args = []
    for slot, t in enumerate(tests):
        yes, no = f"(g{slot} x)", f"(h{slot} x)"
        if rng.random() < 0.5:
            yes, no = no, yes
        args.append(f"(if (p{t} x) {yes} {no})")
    goal_args = " ".join(args)
    if seq:
        # the right side stays closed until the first stage enables nrmK-open
        rhs = f"(nrm{k} {goal_args})"
    else:
        rhs = args[-1]
        for a in reversed(args[:-1]):
            rhs = f"(cons {a} {rhs})"
    goal = f"(equal (fw{k} {goal_args}) {rhs})"

    binds = " ".join(f"(t{slot} {a})" for slot, a in enumerate(args))
    expand = "`'(:expand ((fw{} {})))".format(
        k, " ".join(f",(hq t{slot})" for slot in range(k)))
    branch = expand
    if mark:
        # exactly one of the 2^k branches gets a label instead of the expand
        conds = " ".join(
            f"(p{t} x)" if rng.random() < 0.5 else f"(not (p{t} x))" for t in tests)
        branch = (f"(if (and {conds})"
                  f" ''(:use ((:instance mark-clause-is-true (x 'bad-{name}))))"
                  f" {expand})")
    hint = f"(let* ({binds}) {branch})"
    if seq:
        hint = f"(termhint-seq ''(:in-theory (enable nrm{k}-open)) {hint})"
    text = (f"(defthm {name} {goal} :rule-classes nil\n"
            f"  :hints ((use-termhint {hint})))")
    return text, Theorem(name.upper(), not mark, "query")


def _split_file(rng: random.Random, name: str, k: int, seq: bool, mark: bool) -> EventFile:
    lines = [f"(defstub {f}{i} 1)" for f in "pgh" for i in range(_MAX_K)]
    formals = [f"a{i}" for i in range(k)]
    body = formals[-1]
    for f in reversed(formals[:-1]):
        body = f"(cons {f} {body})"
    lines.append(f"(defund fw{k} ({' '.join(formals)}) {body})")
    theorems = []
    if seq:
        # the first stage enables a rule proved here and then disabled,
        # as in corpus/seq_inline.lisp
        args = " ".join(formals)
        lines.append(f"(defund nrm{k} ({args}) {body})")
        lines.append(f"(defthm nrm{k}-open (equal (nrm{k} {args}) {body})"
                     f" :hints ((:in-theory (enable nrm{k}))))")
        lines.append(f"(in-theory (disable nrm{k}-open))")
        theorems.append(Theorem(f"NRM{k}-OPEN", PROVED, "install"))
    text, thm = _split_theorem(rng, name, k, seq, mark)
    lines.append(text)
    theorems = tuple(theorems + [thm])
    return EventFile(f"{name}.lisp", "\n".join(lines) + "\n", theorems, _exit_code(theorems))


def split_pass(rng: random.Random):
    files = []
    for g in range(SPLIT_PARAMS["groups"]):
        shapes = list(SPLIT_PARAMS["theorems"])
        rng.shuffle(shapes)
        files += [_split_file(rng, f"split-{g:02d}-{j:02d}", *shape)
                  for j, shape in enumerate(shapes)]
    return files


WORKLOADS = {
    "corpus": corpus_pass,
    "rules": rules_pass,
    "termhint-split": split_pass,
}


def make_pass(workload: str, seed: int):
    """The event files of one pass over a workload, drawn from `seed`."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
