"""One workload in a fresh interpreter: set up, run a closed loop, check.

Started by ``run.py``; not meant to be run by hand.  It prints ``READY`` once
the package is imported, the first inputs are generated and the first-call
lazy set-up is done, then runs tasks one after another (one client, closed
loop) in blocks of whole rounds, and prints one JSON line with its task
times, failures and, when traced, the per-layer metrics built from its spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

import floquet_qubit as fq
from workloads import CLI_COMMANDS, WARMUP_INDEX, WORKLOADS, cli_argv

LAYERS = ("specfun", "model", "floquet", "dynamics", "analysis", "cli")
IMPORT_SAMPLES = 3


class NullTracer:
    """Untraced runs: a span costs one context-manager entry and nothing else."""

    task = None

    def span(self, name: str, units: float = 0.0):
        return nullcontext()


class Tracer:
    """Spans kept in memory: name, start, end, parent span, task id, work units."""

    def __init__(self):
        self.spans: list[dict] = []
        self.task = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, units: float = 0.0):
        record = {"id": len(self.spans), "name": name, "task": self.task,
                  "parent": self._stack[-1] if self._stack else None,
                  "units": float(units), "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def run_task(workload, tracer, inp: dict, task_id) -> tuple[float, list[str], dict]:
    """One task under a ``task`` span; returns its wall time, failures, diagnostics."""
    tracer.task = task_id
    start = time.perf_counter()
    try:
        with tracer.span("task"):
            out = workload.run(tracer, inp)
    except Exception:  # a task that raises counts as failed, the loop goes on
        return time.perf_counter() - start, [traceback.format_exc(limit=3)], {}
    elapsed = time.perf_counter() - start
    checks = workload.check(inp, out)
    return elapsed, checks.failures, checks.diag


def warm_up(workload, seed: int) -> None:
    """First-call lazy set-up, on inputs no timed task uses."""
    if workload.name == "cli":
        subprocess.run(cli_argv("--help"), capture_output=True, check=True, timeout=120)
    else:
        workload.run(NullTracer(), workload.make_inputs(seed, WARMUP_INDEX, smoke=True))


def cli_import_s() -> float:
    """Median wall time of a fresh interpreter importing the CLI module."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import floquet_qubit.cli"], check=True,
                       timeout=120)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def peak_rss_mb(workload) -> float:
    # the cli workload's work happens in its child processes
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _collect(into: dict[str, list[float]], diag: dict[str, float]) -> None:
    for name, value in diag.items():
        into.setdefault(name, []).append(value)


def _cache_lookups() -> tuple[int, int] | None:
    info = getattr(fq.mean_bessel, "cache_info", None)
    if info is None:
        return None
    stats = info()
    return stats.hits, stats.misses


def layer_metrics(spans: list[dict], tasks: int, diag: dict, probe_diag: dict,
                  cache: float, import_s: float) -> dict:
    """Per-layer metrics of a traced run.

    A metric comes from the spans of the workload's own tasks when they call
    that function, and otherwise from the probe tasks (one smoke task of each
    other workload, run after the timed tasks), so every layer is reported on
    every workload.  Shares of task time count task spans only.
    """
    own: dict[str, list[dict]] = {}
    probe: dict[str, list[dict]] = {}
    for s in spans:
        (own if isinstance(s["task"], int) else probe).setdefault(s["name"], []).append(s)

    def pick(*names):
        chosen = [s for n in names for s in own.get(n, [])]
        if chosen:
            return chosen, tasks
        chosen = [s for n in names for s in probe.get(n, [])]
        return chosen, len({s["task"] for s in chosen})

    def busy(group):
        return sum(s["end"] - s["start"] for s in group)

    def per_call(*names, scale=1.0):
        group, _ = pick(*names)
        return scale * busy(group) / len(group)

    def per_task(name):
        group, count = pick(name)
        return busy(group) / count

    def rate(name):
        group, _ = pick(name)
        return sum(s["units"] for s in group) / busy(group)

    def per_unit(name, scale):
        group, _ = pick(name)
        return scale * busy(group) / sum(s["units"] for s in group)

    def measured(name, reduce):
        values = diag.get(name) or probe_diag[name]
        return reduce(values)

    quasienergy, qe_tasks = pick("floquet.quasienergy")
    m = {
        "specfun.bessel_j.scalar_us_per_call": per_call("specfun.bessel_j.scalar", scale=1e6),
        "specfun.bessel_j.array_ns_per_elem": per_unit("specfun.bessel_j.array", 1e9),
        "floquet.quasienergy.us_per_call": per_call("floquet.quasienergy", scale=1e6),
        "floquet.quasienergy.calls": len(quasienergy) / qe_tasks,
        "floquet.mean_bessel.cache_hit_ratio": cache,
        "floquet.fourier_phase.busy_s": per_task("floquet.fourier_phase"),
        "floquet.qes_state.us_per_call": per_call("floquet.qes_state", scale=1e6),
        "floquet.build_phase_decomposition.busy_s": per_task("floquet.build_phase_decomposition"),
        "analysis.quasienergy_zeros.s_per_window": per_call("analysis.quasienergy_zeros"),
        "analysis.periodicity_residual.busy_s": per_task("analysis.periodicity_residual"),
        "analysis.spectral_lines.busy_s": per_task("analysis.spectral_lines"),
        "analysis.spectral_lines.lines": measured("analysis.spectral_lines.lines",
                                                  statistics.fmean),
        "dynamics.evolve_full_z.carrier_periods_per_s": rate("dynamics.evolve_full_z"),
        "dynamics.evolve_full_x.carrier_periods_per_s": rate("dynamics.evolve_full_x"),
        "dynamics.evolve_reduced.modulation_periods_per_s": rate("dynamics.evolve_reduced"),
        "dynamics.evolve_full.s_per_call": per_call("dynamics.evolve_full_z",
                                                    "dynamics.evolve_full_x"),
        "dynamics.analytic_populations.ns_per_sample": per_unit(
            "dynamics.analytic_populations", 1e9),
        "model.validate_regime.warned_frac": measured("model.validate_regime.warned",
                                                      statistics.fmean),
        "cli.import_s": import_s,
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = per_call(f"cli.{cmd}")
        m[f"cli.{cmd}.out_bytes"] = measured(f"cli.{cmd}.out_bytes", statistics.fmean)
    m["cli.startup_share"] = import_s * len(CLI_COMMANDS) / sum(
        m[f"cli.{cmd}.s"] for cmd in CLI_COMMANDS)

    task_time = sum(s["end"] - s["start"] for s in own.get("task", []))
    for layer in LAYERS:
        layer_time = sum(busy(group) for name, group in own.items()
                         if name.split(".", 1)[0] == layer)
        m[f"{layer}.busy_share"] = layer_time / task_time
    for name in ("dynamics.evolve_full.norm_drift_max", "dynamics.evolve_reduced.norm_drift_max",
                 "dynamics.hadamard_err_max", "dynamics.reduced_vs_closed_err_max",
                 "dynamics.full_vs_closed_err_max"):
        m[name] = measured(name, max)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tasks", type=int, default=0, help="run exactly this many tasks")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the spans of a traced run here (JSON)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="one tiny task, checks only")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.smoke:
        elapsed, failures, _ = run_task(workload, NullTracer(),
                                        workload.make_inputs(args.seed, 0, smoke=True), 0)
        print(json.dumps({"tasks": 1, "task_s": [elapsed], "failed": int(bool(failures)),
                          "failures": failures}))
        return 0

    warm_up(workload, args.seed)
    inp = workload.make_inputs(args.seed, 0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else NullTracer()
    lookups_before = _cache_lookups()
    task_s: list[float] = []
    failures: list[str] = []
    failed = 0
    diag: dict[str, list[float]] = {}
    start = block_start = time.perf_counter()
    longest_block = 0.0
    index = 0
    while True:
        if args.tasks:
            if index == args.tasks:
                break
        elif index and index % workload.block_len == 0:
            # whole blocks only, so every block holds the same mix of orders,
            # and no block that would end past --seconds
            now = time.perf_counter()
            longest_block = max(longest_block, now - block_start)
            block_start = now
            if now - start + longest_block > args.seconds:
                break
        elapsed, task_failures, task_diag = run_task(workload, tracer, inp, index)
        task_s.append(elapsed)
        failed += bool(task_failures)
        failures.extend(task_failures[:2])
        _collect(diag, task_diag)
        index += 1
        inp = workload.make_inputs(args.seed, index)
    lookups_after = _cache_lookups()

    result = {"tasks": index, "block_len": workload.block_len, "task_s": task_s,
              "failed": failed, "failures": failures[:10], "rss_mb": peak_rss_mb(workload)}
    if args.trace:
        if lookups_before is None:
            cache = -1.0  # mean_bessel no longer has a cache
        else:
            hits = lookups_after[0] - lookups_before[0]
            total = hits + lookups_after[1] - lookups_before[1]
            cache = hits / total if total else 0.0
        probe_diag: dict[str, list[float]] = {}
        probe_failed = 0
        for other in WORKLOADS.values():
            if other is workload:
                continue
            _, probe_failures, other_diag = run_task(
                other, tracer, other.make_inputs(args.seed, 0, smoke=True), f"probe:{other.name}")
            probe_failed += bool(probe_failures)
            failures.extend(probe_failures[:2])
            _collect(probe_diag, other_diag)
        result["probe_failed"] = probe_failed
        result["failures"] = failures[:10]
        result["layers"] = layer_metrics(tracer.spans, index, diag, probe_diag, cache,
                                         cli_import_s())
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump(tracer.spans, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
