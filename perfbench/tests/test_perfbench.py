"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke tests run ``perfbench/run.py`` from the repository root, as a
user would, on a short run (``--seconds 0``: one measured pass).  The
check-failure test drives ``run.py``'s checking and reporting in-process.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in named:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        if not trace:
            assert printed["value"] > 0, metric["name"]


def load_run_module():
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_a_flipped_digest_fails_the_run(capsys):
    run = load_run_module()
    _numpy, _meter, workloads = run._import_program()
    passes = [workloads.PassResult(), workloads.PassResult()]
    for result in passes:
        result.decisions.add("SpGEMM/merchandiser", 128)
        result.results.add("SpGEMM/merchandiser", 1.5)
    metrics = {"wall_s": (1.0, "s")}

    assert run.check_passes(passes, workloads.PassResult()) == []
    assert run.report({}, [], 2, 0, metrics) == 0
    capsys.readouterr()

    passes[1].decisions.add("flipped")
    problems = run.check_passes(passes, workloads.PassResult())
    assert len(problems) == 1 and "decisions digest" in problems[0]
    assert run.report({}, problems, 2, 0, metrics) == 1
    printed = capsys.readouterr()
    result = json.loads(printed.out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert "CHECK FAILED" in printed.err


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
