"""Benchmark the prover: time to verdict per theorem, throughput, set-up, memory.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 10     # every workload, one table

One process, one client, closed loop: each event file goes through
``hintprover.cli.run`` and then ``format_report(trace=True,
checkpoints=True)``, as ``prover --trace --checkpoints`` does, and the
next file starts when that one is done.  Workloads are described in
``bench/workloads.py`` and ``bench/workloads.json``.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over the same
inputs and reports the per-layer metrics and the tracing overhead.
Either way every file is checked against its answer key, and the
workload's default-seed files and the corpus are checked against the
output digests in ``bench/digests.json`` (behaviour preservation).

Human-readable lines come first; the last line of stdout is one JSON
object.  A record of the run, with raw times and the host reference,
is written to ``bench/results/``.  ``--record-digests`` rewrites
``bench/digests.json`` from the current prover instead of measuring.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import clock  # noqa: E402
from workloads import WORKLOADS, make_pass  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 7
HARD_LIMIT_S = 150.0  # stop measuring here whatever --seconds says
DIGESTS = HERE / "digests.json"
RESULTS = HERE / "results"


def _load_prover():
    src = ROOT / "src"
    if not (src / "hintprover" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        raise SystemExit(f"error: no hintprover sources under {ROOT}; "
                         "run from a checkout that has src/ and corpus/")
    sys.path.insert(0, str(src))
    from hintprover import cli, hints, rewrite, sexpr, term, termhint, world
    if Path(cli.__file__).resolve().parent != src / "hintprover":
        raise SystemExit(f"error: imported hintprover from {cli.__file__}, not {src}")
    modules = dict(cli=cli, hints=hints, rewrite=rewrite, sexpr=sexpr, term=term,
                   termhint=termhint, world=world)
    return cli, modules


def _materialize(files, workdir: Path):
    """(path, EventFile) pairs; generated files are written under workdir."""
    out = []
    for f in files:
        if f.text is None:
            p = ROOT / "corpus" / f.name
        else:
            p = workdir / f.name
            p.write_text(f.text)
        out.append((os.path.relpath(p), f))
    return out


def _percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Tally:
    """Files attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, name, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {problem}")


def _digested_files(workload, seed):
    """Files whose output is digest-checked: the corpus, or the first file
    of a generated pass, since every generated file holds the same mix."""
    files = make_pass(workload, seed)
    return files if workload == "corpus" else files[:1]


def check_behaviour(cli, workload, workdir, tally):
    """Digest the default-seed files and the corpus; count each mismatch as a failure."""
    recorded = json.loads(DIGESTS.read_text())
    names = ["corpus"] if workload == "corpus" else ["corpus", workload]
    checked = differ = 0
    marks = []
    with harness.patched(harness.verdict_hook(cli, marks)):
        for name in names:
            want = recorded["workloads"][name]
            files = _materialize(_digested_files(name, recorded["seed"]), workdir / "default")
            for path, expected in files:
                res = harness.process(cli, path, expected, marks)
                problem = res.problem
                if problem is None and harness.output_digest(res.text) != want.get(expected.name):
                    problem = "--trace --checkpoints output differs from bench/digests.json"
                    differ += 1
                tally.add(f"behaviour {name}/{expected.name}", problem)
                checked += 1
    return {"files": checked, "differ": differ, "seed": recorded["seed"]}


def record_digests(cli, workdir):
    marks = []
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    with harness.patched(harness.verdict_hook(cli, marks)):
        for name in WORKLOADS:
            digests = {}
            for path, expected in _materialize(_digested_files(name, DEFAULT_SEED), workdir):
                res = harness.process(cli, path, expected, marks)
                if res.problem is not None:
                    raise SystemExit(f"error: {name}/{expected.name}: {res.problem}")
                digests[expected.name] = harness.output_digest(res.text)
            out["workloads"][name] = digests
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {os.path.relpath(DIGESTS)}")


def _with_readings(cli, files, marks, tally, tracer=None):
    """Process files in order with a host-reference reading between each two.

    Yields (scale, EventFile, FileResult) per file; scale maps the file's
    times to nominal host speed by the readings just before and after it.
    The host's speed changes within tens of milliseconds, so the readings
    go with single files.
    """
    ref = harness.time_reference()
    for path, expected in files:
        if tracer is not None:
            tracer.file = expected.name
        res = harness.process(cli, path, expected, marks)
        after = harness.time_reference()
        tally.add(expected.name, res.problem)
        yield harness.scale(ref, after), expected, res
        ref = after


class TimedRun:
    """What a timed run keeps: per-theorem times in flat arrays, so that
    the benchmark's own memory grows by 16 bytes a verdict, not by a
    report a file."""

    def __init__(self):
        self.times = {}  # (file, theorem index) -> (unscaled ms, scaled ms)
        self.scales = array("d")
        self.busy = [0.0, 0.0]  # unscaled, scaled seconds
        self.decided = 0

    def add(self, scale, name, busy, marks):
        self.scales.append(scale)
        self.busy[0] += busy
        self.busy[1] += busy * scale
        if marks is None:
            return
        for j, (a, b) in enumerate(zip(marks, marks[1:])):
            raw, scaled = self.times.setdefault((name, j), (array("d"), array("d")))
            raw.append((b - a) * 1000.0)
            scaled.append((b - a) * 1000.0 * scale)
        self.decided += len(marks) - 1

    def metrics(self, scaled=True):
        """p50, p90 and throughput, scaled to nominal host speed or not.

        A theorem's time is the lower quartile of its times to verdict
        across passes (the fastest when it ran fewer than four times):
        other tenants of the host only ever add time, and the quartile,
        unlike the minimum, is not set by one file whose scale came out
        too small.  p50 and p90 are taken over theorems.  Throughput is
        all theorems decided over all busy time.
        """
        typical = [sorted(v[scaled])[len(v[scaled]) // 4] for v in self.times.values()]
        return {
            "theorem_ms_p50": statistics.median(typical),
            "theorem_ms_p90": _percentile(typical, 90),
            "theorems_per_s": self.decided / self.busy[scaled],
        }


def timed_run(cli, files, seconds, tally) -> TimedRun:
    """Closed loop over the pass until `seconds` have passed and every file ran."""
    marks, out = [], TimedRun()
    start = clock()
    with harness.patched(harness.verdict_hook(cli, marks)):
        for n, (scale, expected, res) in enumerate(
                _with_readings(cli, itertools.cycle(files), marks, tally), 1):
            out.add(scale, expected.name, res.busy, res.marks if res.problem is None else None)
            elapsed = clock() - start
            if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and n >= len(files)):
                return out


def traced_run(cli, modules, files, seconds, tally):
    """Alternate untraced and traced passes over the same files until `seconds` pass."""
    kinds = {(f.name, i): t.kind for _, f in files for i, t in enumerate(f.theorems)}
    overhead, per_pass, shares, span_sets, scales = [], [], [], [], []
    marks = []
    start = clock()
    while True:
        with harness.patched(harness.verdict_hook(cli, marks)):
            plain = list(_with_readings(cli, files, marks, tally))
        tracer = harness.Tracer(marks)
        with harness.tracing(cli, modules, tracer, marks):
            traced = list(_with_readings(cli, files, marks, tally, tracer))
        span_sets.append(tracer.spans)
        scales += [sc for run in (plain, traced) for sc, _, _ in run]
        busy = [sum(sc * r.busy for sc, _, r in run) for run in (plain, traced)]
        overhead.append((busy[1] / busy[0] - 1.0) * 100.0)
        if all(r.problem is None for _, _, r in traced):
            file_scale = {f.name: sc for sc, f, _ in traced}
            m, self_ms = harness.layer_metrics(
                tracer, [r for _, _, r in traced], kinds, file_scale)
            per_pass.append(m)
            shares.append({k: v / (busy[1] * 1000.0) for k, v in self_ms.items()})
        elapsed = clock() - start
        if elapsed >= seconds or elapsed >= HARD_LIMIT_S:
            break
    return overhead, per_pass, shares, span_sets, scales, tracer.missing


def run_all(args) -> int:
    """Every workload, each in its own process, then one table of the results."""
    rows, total = {}, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", wl, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=HARD_LIMIT_S + 120)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        res = json.loads(done.stdout.strip().splitlines()[-1])
        rows[wl] = res
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{wl}/{k}"] = v
    print()
    print(f"{'metric':28s} {'unit':6s}" + "".join(f"{wl:>16s}" for wl in rows))
    for k in next(iter(rows.values()))["metrics"]:
        unit = next(iter(rows.values()))["metrics"][k]["unit"]
        print(f"{k:28s} {unit:6s}" + "".join(
            f"{r['metrics'][k]['value']:16.6g}" for r in rows.values()))
    print(f"{'error_rate':28s} {'files':6s}" + "".join(
        f"{r['failed'] / r['attempted']:16.6g}" for r in rows.values()))
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if not args.record_digests and args.workload is None:
        ap.error("--workload is required")

    if args.workload == "all":
        return run_all(args)
    cli, modules = _load_prover()
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    (workdir / "default").mkdir()
    try:
        if args.record_digests:
            record_digests(cli, workdir)
            return 0
        return measure(cli, modules, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _host_record(scales):
    q = statistics.quantiles(scales, n=4)
    return {"nominal_reference_ms": harness.NOMINAL_REF_MS, "files_scaled": len(scales),
            "scale_median": statistics.median(scales), "scale_q1": q[0], "scale_q3": q[2]}


def traced_metrics(cli, modules, args, files, tally, record):
    overhead, per_pass, shares, span_sets, scales, missing = traced_run(
        cli, modules, files, args.seconds, tally)
    metrics = {}
    if per_pass:
        first = per_pass[0]
        if any(p[k] != first[k] for p in per_pass for k in harness.DETERMINISTIC):
            tally.add("traced passes", "deterministic counts differ between passes")
        for k in first:
            if k.endswith("_ms"):
                metrics[k] = {"value": statistics.median(p[k] for p in per_pass), "unit": "ms"}
            else:
                metrics[k] = {"value": first[k],
                              "unit": "ratio" if k.endswith("_ratio") else "count"}
    metrics["trace.overhead_pct"] = {"value": statistics.median(overhead), "unit": "%"}
    share = {k: statistics.median(s.get(k, 0.0) for s in shares)
             for k in (harness.LAYERS if shares else ())}
    checks = {text: bool(per_pass) and test(share, per_pass[0])
              for text, test in harness.SEPARATION[args.workload]}
    record.update(passes=len(overhead), overhead_pct=overhead, self_time_share=share,
                  separation=checks, missing_boundaries=missing, host=_host_record(scales))
    for name in missing:
        print(f"MISSING layer boundary {name}: its spans are not recorded")
    print(f"passes: {len(overhead)} untraced and {len(overhead)} traced; tracing overhead "
          f"{metrics['trace.overhead_pct']['value']:+.1f}% (traced over untraced busy time)")
    for k, v in sorted(share.items(), key=lambda kv: -kv[1]):
        if v >= 0.001:
            print(f"  self-time share {k:22s} {v * 100:5.1f}%")
    for text, ok in checks.items():
        print(f"  separation {'holds' if ok else 'MISSES'}: {text}")
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace1.spans.jsonl", "w") as out:
        for n, spans in enumerate(span_sets):
            for sp in spans:
                out.write(json.dumps([n, *sp]) + "\n")
    return metrics


def timed_metrics(cli, args, files, tally, record):
    setup = harness.import_seconds(str(ROOT / "src"), SETUP_REPEATS)
    run = timed_run(cli, files, args.seconds, tally)
    if not run.times:
        raise SystemExit("error: no file matched its answer key, so no verdict was timed:\n  "
                         + "\n  ".join(tally.problems))
    values = run.metrics()
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["setup_s"] = statistics.median(s for s, _ in setup)
    raw = run.metrics(scaled=False)
    raw["setup_s"] = statistics.median(r for _, r in setup)
    units = {"theorem_ms_p50": "ms", "theorem_ms_p90": "ms", "theorems_per_s": "1/s",
             "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    record.update(theorems=len(run.times), verdicts=run.decided, files_run=len(run.scales),
                  busy_s=run.busy[0], setup_runs_scaled_raw=setup,
                  unscaled=raw, host=_host_record(run.scales))
    print(f"samples: {run.decided} verdicts of {len(run.times)} distinct theorems in "
          f"{len(run.scales)} file runs; p50 and p90 are over theorems, each theorem's time "
          f"the lower quartile of its {run.decided / len(run.times):.1f} verdicts on average")
    for k, v in metrics.items():
        extra = f"  (unscaled {raw[k]:.6g})" if k in raw else ""
        print(f"{k:16s} {v['value']:12.6g} {v['unit']}{extra}")
    return metrics


def measure(cli, modules, args, workdir) -> int:
    wl = args.workload
    record = {"workload": wl, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(), "machine": platform.machine(),
              "cpus": os.cpu_count()}
    files = _materialize(make_pass(wl, args.seed), workdir)
    tally = Tally()
    record["behaviour"] = check_behaviour(cli, wl, workdir, tally)
    RESULTS.mkdir(exist_ok=True)
    print(f"workload {wl}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}  "
          f"({len(files)} files, {sum(len(f.theorems) for _, f in files)} theorems a pass)")
    if args.trace:
        metrics = traced_metrics(cli, modules, args, files, tally, record)
    else:
        metrics = timed_metrics(cli, args, files, tally, record)
    h = record["host"]
    print(f"host reference: {h['files_scaled']} files scaled to the nominal "
          f"{h['nominal_reference_ms']} ms by a median factor of {h['scale_median']:.4f} "
          f"(quartiles {h['scale_q1']:.4f}-{h['scale_q3']:.4f})")

    error_rate = tally.failed / tally.attempted
    b = record["behaviour"]
    print(f"behaviour preservation: {b['files']} corpus and default-seed files "
          f"digest-checked, {b['differ']} differ")
    print(f"correctness: {tally.attempted} files attempted, {tally.failed} failed "
          f"(verdicts, exit codes, exceptions, digests); error_rate {error_rate:g}")
    for p in tally.problems:
        print(f"  FAILED {p}")
    if args.trace:
        for k, v in metrics.items():
            print(f"{k:28s} {v['value']:12.6g} {v['unit']}")
    record.update(attempted=tally.attempted, failed=tally.failed, error_rate=error_rate,
                  problems=tally.problems, metrics=metrics)
    (RESULTS / f"{wl}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
