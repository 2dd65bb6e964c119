"""Quick-mode checks of the benchmark itself.

Run from the repository root (a plain ``pytest`` collects only ``tests/``)::

    python3 -m pytest perfbench -q

Each workload runs briefly, untraced and traced; the printed metric
names and units must be exactly those BENCHMARK.json declares. A wrong
golden digest must be counted as a failed operation, not crash the run
or pass it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.run import tail  # noqa: E402
from perfbench.workloads import STRATA, sample  # noqa: E402
from repro.workloads.suite import FP_WORKLOADS, INTEGER_WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

QUICK = ["--seconds", "1"]


def bench(*args, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return completed


def last_json(completed):
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def declared(section):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def copy_benchmark(destination):
    """BENCHMARK.json and perfbench/ alone, as in a bare checkout."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), destination)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    destination / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_prints_declared_metrics(workload, trace):
    result = last_json(bench("--workload", workload, "--seed", "3",
                             "--trace", trace, *QUICK))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    expected = declared("end_to_end" if trace == "0" else "per_layer")
    assert printed == expected


def test_wrong_golden_digest_is_counted_as_failure(tmp_path):
    copy_benchmark(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    golden_path = tmp_path / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    victim = sample("slow", 5)[0]
    for key in golden["results"]:
        if key.startswith(f"{victim}:"):
            golden["results"][key] = {"result": "0" * 64,
                                      "timing": "0" * 64}
    golden_path.write_text(json.dumps(golden))
    result = last_json(bench("--workload", "slow", "--seed", "5", *QUICK,
                             cwd=tmp_path))
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["failed"] < result["attempted"]


def test_without_program_sources_exits_nonzero_and_prints_no_result(
        tmp_path):
    copy_benchmark(tmp_path)
    completed = bench("--workload", "slow", *QUICK, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_strata_partition_categories():
    for workload, strata in STRATA.items():
        seen = set()
        for category, members in strata:
            pool = INTEGER_WORKLOADS if category == "int" else FP_WORKLOADS
            assert set(members) <= set(pool), (workload, members)
            assert not seen & set(members), (workload, members)
            seen |= set(members)
        assert sample(workload, 7) == sample(workload, 7)
        assert len(sample(workload, 7)) == len(strata)


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(100)]
    value, percentile = tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(90.0)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
