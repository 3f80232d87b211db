"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench

They run the harness end to end on tiny inputs (about a minute in all) and
gate on output shape and correctness only, never on absolute time.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from worker import NullTracer, run_task  # noqa: E402
from workloads import WORKLOADS, Landscape  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_follows_the_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert set(SPEC["workloads"][0]) == {"name", "why"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for group in ("end_to_end", "per_layer"):
        for m in SPEC[group]:
            assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("seed", ["1", "2"])
def test_smoke_runs_every_workload_with_checks(seed):
    result = result_of(bench("--smoke", "--seed", seed))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS)


def test_timed_run_prints_every_end_to_end_metric():
    result = result_of(bench("--workload", "landscape", "--seed", "3", "--seconds", "1",
                             "--trace", "0"))
    assert result["correct"] and result["attempted"] >= Landscape.block_len
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_prints_every_per_layer_metric():
    result = result_of(bench("--workload", "oracle", "--seed", "3", "--seconds", "1",
                             "--trace", "1"))
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["dynamics.busy_share"]["value"] > 0.5
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(metrics[n]["unit"] == units[n] for n in metrics)


def test_refuses_to_run_without_the_package_sources():
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("--workload", "landscape", "--seed", "1", "--seconds", "1", cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


@pytest.mark.parametrize("name", ["landscape", "oracle"])
def test_checks_reject_a_corrupted_output(name):
    workload = WORKLOADS[name]
    inp = workload.make_inputs(5, 0, smoke=True)
    out = workload.run(NullTracer(), inp)
    assert workload.check(inp, out).failures == []
    if name == "landscape":
        out["energies"][1] *= 1.0 + 1e-6
    else:
        out["reduced"] = out["reduced"] * (1.0 + 1e-6)
    assert workload.check(inp, out).failures


def test_a_task_that_raises_counts_as_failed():
    class Broken:
        name = "broken"

        @staticmethod
        def run(tr, inp):
            raise ValueError("boom")

    elapsed, failures, diag = run_task(Broken, NullTracer(), {}, 0)
    assert failures and "boom" in failures[0] and diag == {} and elapsed >= 0
