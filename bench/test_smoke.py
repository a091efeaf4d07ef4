"""Smoke test for the benchmark's own code.

Runs every workload for one cycle, untraced and traced, and checks that
each metric BENCHMARK.json names prints in the table with its unit and
sample count and in the final JSON line, that a traced run writes its
spans, and that the benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
JOBS = [(w, trace) for w in WORKLOADS for trace in (0, 1)]


def _bench(cwd: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "0", "--trace", str(trace), *extra,
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def spans_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("spans")


@pytest.fixture(scope="module")
def runs(spans_dir):
    def job(args):
        workload, trace = args
        extra = ["--spans", str(spans_dir / f"{workload}.csv")] if trace else []
        return _bench(ROOT, workload, trace, *extra)

    with ThreadPoolExecutor(max_workers=2) as pool:
        done = list(pool.map(job, JOBS))
    return dict(zip(JOBS, done))


@pytest.mark.parametrize("workload,trace", JOBS)
def test_every_metric_prints_with_unit_and_samples(runs, workload, trace):
    proc = runs[(workload, trace)]
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    table = {row[0]: row for row in (line.split() for line in lines[:-1]) if row}
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        row = table[metric["name"]]
        assert row[2] == metric["unit"]
        assert row[3].startswith("n=") and int(row[3][2:]) >= 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_its_spans(runs, spans_dir, workload):
    assert runs[(workload, 1)].returncode == 0
    lines = (spans_dir / f"{workload}.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "op,name,parent,start_ns,end_ns,work"
    roots = [line for line in lines[1:] if line.split(",")[1] == "op"]
    assert roots and all(line.split(",")[2] == "-1" for line in roots)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
