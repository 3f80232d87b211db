"""Benchmark of the floquet-qubit package: one workload per run.

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke --seed 1

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(``worker.py``) as a closed loop with one client.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a traced
run and the tracing overhead against an untraced run of the same tasks.
``--smoke`` runs one tiny task of every workload with all checks on and no
timing.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# BENCHMARK.json lists the first two; cli runs by hand, in --smoke and as a
# probe of the traced runs.
WORKLOADS = ("landscape", "oracle", "cli")
SETUP_SAMPLES = 5  # fresh interpreters set up per timed run; setup_s is their median
DEADLINE_S = 170.0  # the whole run, set-ups and workers included
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def metric_units(group: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One BLAS thread, well under the nproc cap: the workloads' arrays are
    # small, so a second thread would only spin on the other core.
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def git_revision() -> str:
    """HEAD of the checkout's git directory, read without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args, env: dict) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"git_revision": git_revision(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "blas_threads": {v: env[v] for v in BLAS_VARS},
            "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke}


class Runner:
    """Starts workers one at a time and stops each before the next starts."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def worker(self, *argv: str) -> tuple[float | None, dict | None]:
        """Run one worker; returns (seconds until READY, its result object)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                                stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        ready = result = None
        try:
            for line in proc.stdout:
                if line.startswith("READY"):
                    ready = time.perf_counter() - start
                elif line.startswith("{"):
                    result = json.loads(line)
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0:
            raise BenchError(f"worker {' '.join(argv)} exited with {code}")
        return ready, result


def timed_run(runner: Runner, args) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [runner.worker(*base, "--setup-only")[0] for _ in range(SETUP_SAMPLES - 1)]
    ready, result = runner.worker(*base, "--seconds", str(args.seconds))
    setups.append(ready)
    if None in setups or result is None:
        raise BenchError("a worker ended without reporting")
    times = result["task_s"]
    # A block is a few whole rounds (one task of each order in the workload's
    # mix), some 6 s of work; the median is taken over block means, so it
    # moves with the share of the run the shared host ran slow instead of
    # jumping between its fast and slow modes or between the orders' modes.
    size = result["block_len"]
    blocks = [statistics.fmean(times[i:i + size]) for i in range(0, len(times), size)]
    metrics = {
        "tasks_per_s": len(times) / sum(times),
        "task_s_p50": statistics.median(blocks),
        "setup_s": statistics.median(setups),
        "ok_frac": (result["tasks"] - result["failed"]) / result["tasks"],
        "peak_rss_mb": result["rss_mb"],
    }
    print(f"# {args.workload}: {len(times)} tasks, task_s_p50 over n={len(blocks)} blocks, "
          f"setup_s over n={len(setups)}")
    return metrics, result


def traced_run(runner: Runner, args) -> tuple[dict, dict]:
    """Untraced tasks for half the time, then the same tasks traced."""
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    _, plain = runner.worker(*base, "--seconds", str(args.seconds / 2.0))
    if plain is None:
        raise BenchError("the untraced worker ended without reporting")
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    _, traced = runner.worker(*base, "--tasks", str(plain["tasks"]), "--trace", "1",
                              "--spans", str(spans))
    if traced is None:
        raise BenchError("the traced worker ended without reporting")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = sum(traced["task_s"]) / sum(plain["task_s"]) - 1.0
    combined = {"tasks": plain["tasks"] + traced["tasks"],
                "failed": plain["failed"] + traced["failed"] + traced["probe_failed"],
                "failures": plain["failures"] + traced["failures"]}
    print(f"# {args.workload}: {plain['tasks']} tasks untraced, then traced; spans in {spans}")
    return metrics, combined


def smoke_run(runner: Runner, args) -> tuple[dict, dict]:
    metrics, tasks, failed, failures = {}, 0, 0, []
    for name in WORKLOADS:
        _, result = runner.worker("--workload", name, "--seed", str(args.seed), "--smoke")
        if result is None:
            raise BenchError(f"the {name} smoke worker ended without reporting")
        metrics[f"{name}.smoke_s"] = result["task_s"][0]
        tasks += result["tasks"]
        failed += result["failed"]
        failures += result["failures"]
    return metrics, {"tasks": tasks, "failed": failed, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "floquet_qubit" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'floquet_qubit'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    env = worker_env()
    record = environment(args, env)
    print("# env " + json.dumps(record, sort_keys=True))
    runner = Runner(env, time.monotonic() + DEADLINE_S)
    try:
        if args.smoke:
            metrics, result = smoke_run(runner, args)
        elif args.trace:
            metrics, result = traced_run(runner, args)
        else:
            metrics, result = timed_run(runner, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.smoke:
        units = dict.fromkeys(metrics, "s")
    else:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        if set(units) != set(metrics):
            print(f"error: metrics {sorted(set(units) ^ set(metrics))} do not match "
                  "BENCHMARK.json", file=sys.stderr)
            return 1
    for failure in result["failures"]:
        print("# FAILED " + failure.strip().replace("\n", "\n#   "))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    report = {
        "correct": result["failed"] == 0,
        "attempted": result["tasks"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    label = "smoke" if args.smoke else f"{args.workload}-trace{args.trace}"
    with open(OUT / f"{label}-seed{args.seed}.json", "w", encoding="utf-8") as handle:
        json.dump({"env": record, **report, "failures": result["failures"]}, handle, indent=1)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
