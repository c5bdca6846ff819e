"""Exact-count smoke check for the benchmark: each workload briefly, twice.

    python3 -m pytest -q bench/test_smoke.py

Every file must match its answer key (error_rate 0) and the counts that
do not depend on timing must repeat exactly.  No timing is asserted.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402
from workloads import make_pass  # noqa: E402

# files of one pass to run: the whole corpus, one rules file, one
# termhint-split mix
SUBSET = {"corpus": None, "rules": 1, "termhint-split": 10}


@pytest.fixture(scope="module")
def prover():
    return run._load_prover()


@pytest.mark.parametrize("workload", sorted(SUBSET))
def test_counts_repeat_and_no_file_fails(workload, prover, tmp_path):
    cli, modules = prover
    files = run._materialize(make_pass(workload, 7)[:SUBSET[workload]], tmp_path)
    counts = []
    for _ in range(2):
        tally = run.Tally()
        _, per_pass, _, _, _, missing = run.traced_run(cli, modules, files, 0.0, tally)
        assert missing == []
        run.timed_run(cli, files, 0.0, tally)
        assert tally.failed == 0, tally.problems
        assert len(per_pass) == 1
        counts.append({k: per_pass[0][k] for k in harness.DETERMINISTIC})
    assert counts[0] == counts[1]
    assert counts[0]["hints.goals"] > 0 and counts[0]["rewrite.simplify_calls"] > 0


def test_behaviour_digests_match(prover, tmp_path):
    cli, _ = prover
    for workload in SUBSET:
        (tmp_path / workload / "default").mkdir(parents=True)
        tally = run.Tally()
        checked = run.check_behaviour(cli, workload, tmp_path / workload, tally)
        assert tally.failed == 0, tally.problems
        assert checked["files"] > 0 and checked["differ"] == 0
