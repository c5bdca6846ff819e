"""Measurement for the prover benchmark: timed passes, host reference, tracing.

The prover is measured from outside.  Nothing under ``src/`` changes:
the harness replaces module attributes at the names the calling module
imported (for example ``hintprover.cli.prove_clause``) and restores them
afterwards.

* A timed pass hooks one name only: a clock read when
  ``cli.prove_clause`` returns, which marks each theorem's verdict.
* A traced pass wraps every layer boundary listed in ``_SPANS`` and
  records one span per call: (layer, start, end, parent, file, theorem).
  Spans stay in memory and are written out when the run ends.  A
  layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager

clock = time.perf_counter

# The reference loop takes this long at "nominal" host speed; timings are
# scaled by NOMINAL_REF_MS / (measured reference) so that runs on a host
# that is momentarily faster or slower report comparable numbers.
NOMINAL_REF_MS = 3.0


def reference_work() -> int:
    """Fixed pure-Python work: builds and walks small tuple trees.

    Calls, tuple allocation, isinstance tests and dict stores, the same
    interpreter operations the prover spends its time in.
    """
    table = {}

    def build(depth, k):
        if depth == 0:
            return k
        return (build(depth - 1, 2 * k + 1), build(depth - 1, 2 * k))

    def walk(t, acc):
        if isinstance(t, tuple):
            return walk(t[1], walk(t[0], acc))
        table[t & 255] = acc
        return (acc * 33 + t) & 0xFFFFFF

    acc = 0
    for r in range(6):
        acc = walk(build(10, r), acc)
    return acc


def time_reference() -> float:
    t0 = clock()
    reference_work()
    return (clock() - t0) * 1000.0


def scale(ref_before: float, ref_after: float) -> float:
    """Factor that brings a time measured between two readings to nominal speed."""
    return NOMINAL_REF_MS * 2.0 / (ref_before + ref_after)


@contextmanager
def patched(replacements):
    """Set (object, attribute, value) triples; restore the originals on exit."""
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in replacements]
    try:
        for obj, name, value in replacements:
            setattr(obj, name, value)
        yield
    finally:
        for obj, name, value in reversed(saved):
            setattr(obj, name, value)


# ---------------------------------------------------------------------------
# Processing one event file and checking it against its answer key

def output_digest(text: str) -> str:
    """sha256 of a file's report, with the FILE line reduced to the base name."""
    first, _, rest = text.partition("\n")
    head = "FILE " + os.path.basename(first[len("FILE "):])
    return hashlib.sha256((head + "\n" + rest).encode()).hexdigest()


class FileResult:
    __slots__ = ("busy", "marks", "report", "text", "problem")

    def __init__(self):
        self.busy = 0.0
        self.marks = []
        self.report = None
        self.text = None
        self.problem = None


def process(cli, path: str, expected, marks) -> FileResult:
    """Run one file the way ``prover --trace --checkpoints`` does, then check it.

    `marks` is the list the verdict hook appends to; it is cleared here.
    """
    res = FileResult()
    marks.clear()
    t0 = clock()
    try:
        report = cli.run([path])
        text = cli.format_report(report, trace=True, checkpoints=True)
    except Exception as e:  # a traceback is a failed file, never a crash of the run
        res.busy = clock() - t0
        res.problem = f"exception {type(e).__name__}: {e}"
        return res
    res.busy = clock() - t0
    res.marks = [t0] + list(marks)
    res.report, res.text = report, text

    outcome = report.files[0]
    got = [(t.name, t.proved) for t in outcome.theorems]
    want = [(t.name, t.proved) for t in expected.theorems]
    if outcome.error is not None:
        res.problem = f"input rejected: {outcome.error}"
    elif got != want:
        res.problem = f"verdicts {got} != expected {want}"
    elif report.exit_code != expected.exit_code:
        res.problem = f"exit code {report.exit_code} != expected {expected.exit_code}"
    elif len(res.marks) != len(want) + 1:
        res.problem = f"{len(res.marks) - 1} verdicts timed for {len(want)} theorems"
    return res


def verdict_hook(cli, marks):
    """The timed run's only hook: read the clock when cli.prove_clause returns."""
    prove_clause = cli.prove_clause

    def timed_prove_clause(*args, **kwargs):
        try:
            return prove_clause(*args, **kwargs)
        finally:
            marks.append(clock())

    return [(cli, "prove_clause", timed_prove_clause)]


# ---------------------------------------------------------------------------
# Set-up time

_IMPORT_TIMER = """
import sys, time
sys.path.insert(0, sys.argv[1])

def reading():
    t = time.perf_counter()
    reference_work()
    return (time.perf_counter() - t) * 1000.0

before = reading()
t = time.perf_counter()
import hintprover.cli
t = time.perf_counter() - t
print(t, before, reading())
"""


def import_seconds(src_dir: str, repeats: int) -> list:
    """(scaled, raw) seconds a fresh interpreter spends importing hintprover.cli.

    The child takes a host-reference reading just before and just after
    the import, and the import time is scaled by them.  The child gets the
    reference loop as source, so it imports nothing the prover would not.
    One unrecorded import first writes the bytecode cache, as an
    installed package would have it.
    """
    code = inspect.getsource(reference_work) + _IMPORT_TIMER
    out = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, "-E", "-s", "-c", code, src_dir],
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            t, before, after = (float(x) for x in done.stdout.split())
            out.append((t * scale(before, after), t))
    return out


# ---------------------------------------------------------------------------
# Tracing

# (layer, module, attribute): every name through which one module calls
# into the layer.  Calls a module makes to its own functions are inside
# the caller's span.
_SPANS = [
    ("cli.process_file", "cli", "process_file"),
    ("sexpr.parse", "cli", "parse"),
    ("sexpr.print", "cli", "print_sexpr"),
    ("sexpr.print", "termhint", "print_sexpr"),
    ("term.translate", "cli", "translate"),
    ("term.translate", "hints", "translate"),
    ("term.translate", "termhint", "translate"),
    ("term.beta_reduce", "cli", "beta_reduce"),
    ("term.beta_reduce", "hints", "beta_reduce"),
    ("term.beta_reduce", "rewrite", "beta_reduce"),
    ("rewrite.normalize", "cli", "normalize_definition"),
    ("rewrite.simplify", "hints", "simplify_clause"),
    ("rewrite.split", "rewrite", "split_ifs"),
    ("rewrite.expand", "hints", "expand_calls"),
    ("hints.clausify", "cli", "clausify"),
    ("hints.prove", "cli", "prove_clause"),
    ("hints.computed_eval", "hints", "eval_computed_hint"),
    ("hints.computed_eval", "termhint", "eval_computed_hint"),
    ("hints.clause_sexpr", "hints", "clause_sexpr"),
    ("hints.clause_sexpr", "cli", "clause_sexpr"),
    ("hints.apply", "hints", "apply_hint"),
    ("termhint.find_hint", "termhint", "find_hint"),
]

LAYERS = sorted({layer for layer, _, _ in _SPANS} | {"cli.format_report"})

# layers whose return value says whether the call did something useful
_USEFUL_IF_NOT_NONE = {"rewrite.split", "hints.computed_eval", "termhint.find_hint"}


class Tracer:
    """Spans and counters for traced passes, kept in memory."""

    def __init__(self, marks):
        self.spans = []    # (layer, start, end, parent index, file, theorem)
        self.stack = []
        self.counts = Counter()
        self.file = None   # name of the file in progress
        self.marks = marks  # verdicts so far in that file: the theorem in progress
        self.rule_base_max = 0
        self.missing = []

    def span(self, layer, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        useful = layer in _USEFUL_IF_NOT_NONE

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (layer, t0, t1, parent, self.file, len(self.marks))
            if useful and out is not None:
                counts[layer + ".useful"] += 1
            return out

        return traced

    def wrappers(self, modules):
        """Replacements that install every span and counter.

        A boundary the prover no longer has is left out and listed in
        self.missing, so its layer reads 0 instead of the run failing.
        """
        self.missing = [f"{mod}.{attr}" for _, mod, attr in _SPANS
                        if not hasattr(modules[mod], attr)]
        out = [(modules[mod], attr, self.span(layer, getattr(modules[mod], attr)))
               for layer, mod, attr in _SPANS if hasattr(modules[mod], attr)]
        rewrite, world_cls = modules["rewrite"], modules["world"].World
        match, counts = rewrite.match, self.counts

        # about a million calls a pass on `rules`: counted, never timed
        def counted_match(pattern, target):
            counts["rewrite.match_calls"] += 1
            out = match(pattern, target)
            if out is not None:
                counts["rewrite.match_hits"] += 1
            return out

        add_rule, add_definition = world_cls.add_rule, world_cls.add_definition

        def counted_add_rule(world, *args, **kwargs):
            add_rule(world, *args, **kwargs)
            counts["world.rules_installed"] += 1
            self.rule_base_max = max(self.rule_base_max, len(world.rule_order))

        def counted_add_definition(world, *args, **kwargs):
            add_definition(world, *args, **kwargs)
            self.rule_base_max = max(self.rule_base_max, len(world.rule_order))

        return out + [
            (rewrite, "match", counted_match),
            (world_cls, "add_rule", counted_add_rule),
            (world_cls, "add_definition", counted_add_definition),
        ]


def layer_metrics(tracer: Tracer, results, kinds, scale):
    """Per-layer figures for one traced pass, and self time by layer in ms.

    `results` holds the FileResult of each file; `kinds` maps
    (file, theorem index) to "install" or "query"; `scale` maps a file
    to the factor that brings its times to nominal host speed.
    """
    spans, counts = tracer.spans, tracer.counts
    n = len(spans)
    child = [0.0] * n
    for layer, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_ms, calls = Counter(), Counter()
    prove_by_kind = Counter()
    for i, (layer, t0, t1, _, fname, thm) in enumerate(spans):
        ms = 1000.0 * scale[fname]
        self_ms[layer] += (t1 - t0 - child[i]) * ms
        calls[layer] += 1
        if layer == "hints.prove":
            prove_by_kind[kinds[(fname, thm)]] += (t1 - t0) * ms

    steps = goals = events = 0
    for res in results:
        for t in res.report.files[0].theorems:
            steps += t.steps
            events += len(t.events)
            goals += len({goal for goal, _, _ in t.events})

    def ratio(useful, total):
        return useful / total if total else 0.0

    m = {
        "sexpr.parse_ms": self_ms["sexpr.parse"],
        "sexpr.print_ms": self_ms["sexpr.print"],
        "sexpr.print_calls": calls["sexpr.print"],
        "term.translate_ms": self_ms["term.translate"],
        "term.translate_calls": calls["term.translate"],
        "term.beta_reduce_ms": self_ms["term.beta_reduce"],
        "world.rules_installed": counts["world.rules_installed"],
        "world.rule_base_max": tracer.rule_base_max,
        "rewrite.simplify_ms": self_ms["rewrite.simplify"],
        "rewrite.simplify_calls": calls["rewrite.simplify"],
        "rewrite.match_calls": counts["rewrite.match_calls"],
        "rewrite.match_hits": counts["rewrite.match_hits"],
        "rewrite.match_hit_ratio": ratio(counts["rewrite.match_hits"],
                                         counts["rewrite.match_calls"]),
        "rewrite.split_ms": self_ms["rewrite.split"],
        "rewrite.splits": counts["rewrite.split.useful"],
        "rewrite.expand_ms": self_ms["rewrite.expand"],
        "rewrite.normalize_ms": self_ms["rewrite.normalize"],
        "rewrite.steps": steps,
        "hints.prove_ms": self_ms["hints.prove"],
        "hints.prove_install_ms": prove_by_kind["install"],
        "hints.prove_query_ms": prove_by_kind["query"],
        "hints.goals": goals,
        "hints.events": events,
        "hints.computed_eval_ms": self_ms["hints.computed_eval"],
        "hints.computed_eval_calls": calls["hints.computed_eval"],
        "hints.computed_fire_ratio": ratio(counts["hints.computed_eval.useful"],
                                           calls["hints.computed_eval"]),
        "hints.clause_sexpr_ms": self_ms["hints.clause_sexpr"],
        "hints.clause_sexpr_calls": calls["hints.clause_sexpr"],
        "hints.apply_ms": self_ms["hints.apply"],
        "hints.clausify_ms": self_ms["hints.clausify"],
        "termhint.find_hint_ms": self_ms["termhint.find_hint"],
        "termhint.find_hint_calls": calls["termhint.find_hint"],
        "termhint.found_ratio": ratio(counts["termhint.find_hint.useful"],
                                      calls["termhint.find_hint"]),
        "cli.process_file_ms": self_ms["cli.process_file"],
        "cli.format_report_ms": self_ms["cli.format_report"],
    }
    return m, dict(self_ms)


# Counts that must repeat exactly for the same inputs.
DETERMINISTIC = [
    "sexpr.print_calls", "term.translate_calls", "world.rules_installed",
    "world.rule_base_max", "rewrite.simplify_calls", "rewrite.match_calls",
    "rewrite.match_hits", "rewrite.splits", "rewrite.steps", "hints.goals",
    "hints.events", "hints.computed_eval_calls", "hints.clause_sexpr_calls",
    "termhint.find_hint_calls",
]


@contextmanager
def tracing(cli, modules, tracer: Tracer, marks):
    """Install every span and counter, plus the verdict hook."""
    format_report = tracer.span("cli.format_report", cli.format_report)
    with patched(tracer.wrappers(modules) + [(cli, "format_report", format_report)]):
        # the verdict hook goes outside the hints.prove span, so a span
        # ending before the hook fires belongs to the theorem len(marks)
        with patched(verdict_hook(cli, marks)):
            yield


# The separation the workloads were chosen for, checked on self-time
# shares of each traced pass.  A miss is reported, not fixed by changing
# the workload.
SEPARATION = {
    "corpus": [
        ("every layer does a little: parse, translate, clause_sexpr and"
         " report rendering each take at least 3%",
         lambda sh, m: min(sh["sexpr.parse"], sh["term.translate"], sh["hints.clause_sexpr"],
                           sh["cli.format_report"] + sh["sexpr.print"]) >= 0.03),
    ],
    "rules": [
        ("rule lookup dominates: rewriting takes at least half",
         lambda sh, m: sh["rewrite.simplify"] >= 0.5),
        ("trace payloads stay small: clause_sexpr under 3%",
         lambda sh, m: sh["hints.clause_sexpr"] < 0.03),
        ("over 1000 rule matches per simplify call",
         lambda sh, m: m["rewrite.match_calls"] > 1000 * m["rewrite.simplify_calls"]),
    ],
    "termhint-split": [
        ("payloads, computed hints and rendering take at least 40%",
         lambda sh, m: sh["hints.clause_sexpr"] + sh["hints.computed_eval"]
         + sh["cli.format_report"] + sh["sexpr.print"] >= 0.4),
        ("rule lookup is idle: under 20 rule matches per simplify call",
         lambda sh, m: m["rewrite.match_calls"] < 20 * m["rewrite.simplify_calls"]),
    ],
}
