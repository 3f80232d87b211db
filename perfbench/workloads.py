"""The benchmark workloads: input generation, one task, and its checks.

A task calls the package only through its public functions (or, for ``cli``,
the ``floquet-qubit`` command line), and wraps every such call in a tracer
span named ``<layer>.<function>``.  The checks compare the outputs against
independent ``scipy.special`` closed forms (DLMF 10.22) or against invariants
(norm, Hadamard map) and return failure messages plus accuracy diagnostics.

Inputs come only from ``make_inputs(seed, index)``: task ``index`` of seed
``seed`` always gets the same parameters, whatever ran before it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache

import numpy as np
from scipy import optimize, special

import floquet_qubit as fq
from floquet_qubit.model import HADAMARD
from floquet_qubit.specfun import bessel_j

# Inputs of the warm-up call that does the first-call lazy set-up come from
# their own stream, so no timed task reuses its parameters.
WARMUP_INDEX = 2**31 - 1

# Accuracy gates of the oracle.  The reduced run at tol 1e-10 must keep the
# norm within criterion 8's 1e-8; the full runs at tol 1e-8 drift off the unit
# sphere by a few 1e-6 over ~100 carrier periods (RK45 is not norm-preserving),
# so they are gated at 1e-4.  Reduced against closed form is criterion 3's
# 1e-6 times ten: at tol 1e-10, RK45 stepping over the |cos| kink of the
# envelope left a global error of 1.09e-6 at N = 1, A/omega_0 = 0.36,
# Delta = 0.0129, delta = omega_0/48 over 4 periods, where tol 1e-12 agrees
# with the closed form to 4e-11.  The z/x Hadamard agreement is gated at 1e3
# times the full runs' tolerance.
NORM_DRIFT_REDUCED = 1.0e-8
NORM_DRIFT_FULL = 1.0e-4
REDUCED_VS_CLOSED = 1.0e-5
HADAMARD_ERR = 1.0e-5


# Step of the 3-d Kronecker (R-sequence) low-discrepancy draws.
_STRATA_STEP = np.array([0.8191725133961644, 0.6710436067037893, 0.5497004779019703])
_STRATA_STREAM = 2**31 - 2


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _strata(seed: int, index: int, round_len: int) -> np.ndarray:
    """Three draws in [0, 1) that the tasks of a seed spread evenly.

    Parameters that set a task's cost (drive ratio, zero-window offset,
    modulation) come from here rather than from independent draws, so every
    run covers their range about equally and its mean cost does not depend on
    the seed.  Rounds follow a low-discrepancy sequence whose offset the seed
    picks; within a round of two the second task takes 1 - u (antithetic), in
    a round of three the tasks take u, u + 1/3, u + 2/3.
    """
    shift = _rng(seed, _STRATA_STREAM).uniform(size=3)
    u = (shift + (index // round_len + 1) * _STRATA_STEP) % 1.0
    position = index % round_len
    if round_len == 2:
        return 1.0 - u if position else u
    return (u + position / round_len) % 1.0


def _resonant(order: int, ratio: float, delta_gap: float, modulation: float) -> fq.SystemParams:
    return fq.SystemParams(epsilon0=float(order), delta_gap=delta_gap, amplitude=ratio,
                           carrier=1.0, modulation=modulation, order=order)


@lru_cache(maxsize=None)
def _half_order_roots(order: int, upto: float = 12.0) -> tuple[float, ...]:
    """Positive roots of J_{N/2} below ``upto``: the zeros of E_N in A/omega_0."""
    x = np.linspace(0.5, upto, 20001)
    v = special.jv(0.5 * order, x)
    idx = np.nonzero(np.signbit(v[:-1]) != np.signbit(v[1:]))[0]
    return tuple(optimize.brentq(lambda r: special.jv(0.5 * order, r), x[i], x[i + 1],
                                 xtol=1e-14) for i in idx)


def _closed_energy(order: int, delta_gap: float, ratio: float) -> float:
    """E_N = (-1)^N (Delta/2) J_{N/2}(A/omega_0)^2 (Neumann product integral)."""
    return (-1.0) ** order * 0.5 * delta_gap * special.jv(0.5 * order, ratio) ** 2


def _drift(amps: np.ndarray) -> float:
    return float(np.max(np.abs(np.abs(amps[0]) ** 2 + np.abs(amps[1]) ** 2 - 1.0)))


# (c1 on |down>, c2 on |up>) image of |down> under the Hadamard, which maps
# the z configuration onto the x configuration exactly.
_X_INITIAL = fq.AmplitudePair(c1=complex(HADAMARD[1, 1]), c2=complex(HADAMARD[0, 1]))


def _hadamard_error(z: np.ndarray, x: np.ndarray) -> float:
    """max |psi_x - H psi_z|, both evolved from Hadamard-related initial states."""
    up_down = HADAMARD @ np.vstack((z[1], z[0]))
    return float(max(np.max(np.abs(x[1] - up_down[0])), np.max(np.abs(x[0] - up_down[1]))))


class _Checks:
    """Collects failure messages and max-aggregated accuracy diagnostics."""

    def __init__(self):
        self.failures: list[str] = []
        self.diag: dict[str, float] = {}

    def gate(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def record(self, name: str, value: float) -> float:
        self.diag[name] = max(self.diag.get(name, 0.0), float(value))
        return value


# ---------------------------------------------------------------------------
# landscape: quasienergy-versus-drive and zero-table traffic
# ---------------------------------------------------------------------------

class Landscape:
    name = "landscape"
    round_len = 3  # one base per order N = 1, 2, 3
    block_len = 6  # two rounds, about 6 s
    GRID = 24
    SCALARS = 100
    ENVELOPE = 4096
    WINDOW = 0.3
    PAIRS = ((1, 1), (1, 2), (2, 1), (2, 3))

    @staticmethod
    def make_inputs(seed: int, index: int, smoke: bool = False) -> dict:
        rng = _rng(seed, index)
        u = _strata(seed, index, Landscape.round_len)
        order = 1 + index % 3
        base = _resonant(order, 0.2 + 2.8 * u[2],
                         float(rng.uniform(0.005, 0.15)), float(rng.uniform(5e-4, 2e-3)))
        grid_size = 4 if smoke else Landscape.GRID
        grid = (np.arange(grid_size) + u[0]) * (11.0 / grid_size)
        # narrow window round the second zero (the first in smoke mode), in
        # the drive range where the Bessel kernel is at its slowest
        root = _half_order_roots(order)[0 if smoke else 1]
        lo = root - (0.05 + 0.2 * u[1])
        envelope_t = np.linspace(0.0, base.period, 64 if smoke else Landscape.ENVELOPE)
        return {
            "base": base,
            "grid": grid,
            "window": (lo, lo + Landscape.WINDOW),
            "envelope": 2.0 * base.drive_ratio * np.abs(np.cos(base.modulation * envelope_t)),
            "scalars": rng.uniform(0.0, 11.0, 5 if smoke else Landscape.SCALARS),
            "weak_t": float(rng.uniform(0.0, base.period)),
        }

    @staticmethod
    def run(tr, inp: dict) -> dict:
        base = inp["base"]
        with tr.span("model.validate_regime"):
            regime = fq.validate_regime(base)
        energies = []
        for ratio in inp["grid"]:
            params = replace(base, amplitude=float(ratio) * base.carrier)
            with tr.span("floquet.quasienergy"):
                energies.append(fq.quasienergy(params))
        with tr.span("analysis.quasienergy_zeros"):
            zeros = fq.quasienergy_zeros(base, *inp["window"])
        residuals = []
        for m in range(1, 7):
            for n in range(1, 7):
                with tr.span("analysis.periodicity_residual"):
                    residuals.append(fq.periodicity_residual(base, m, n))
        periodic = []
        for m, n in Landscape.PAIRS:
            with tr.span("analysis.solve_periodic_ratio"):
                periodic.append(fq.solve_periodic_ratio(base, m, n))
        with tr.span("floquet.fourier_phase"):
            fourier = fq.fourier_phase(base, 64)
        # threshold 0 keeps every line, so the signed weights must sum to 1
        with tr.span("analysis.spectral_lines"):
            lines = fq.spectral_lines(base, weight_threshold=0.0)
        with tr.span("floquet.weak_forms"):
            weak = fq.weak_forms(base, inp["weak_t"])
        envelope = inp["envelope"]
        with tr.span("specfun.bessel_j.array", envelope.size):
            envelope_j = bessel_j(base.order, envelope)
        scalar_j = []
        for x in inp["scalars"]:
            with tr.span("specfun.bessel_j.scalar"):
                scalar_j.append(bessel_j(base.order, float(x)))
        return {"regime": regime, "energies": energies, "zeros": zeros,
                "residuals": residuals, "periodic": periodic, "fourier": fourier,
                "lines": lines, "weak": weak, "envelope_j": envelope_j,
                "scalar_j": scalar_j}

    @staticmethod
    def check(inp: dict, out: dict) -> _Checks:
        c = _Checks()
        base = inp["base"]
        order, gap, ratio = base.order, base.delta_gap, base.drive_ratio
        c.record("model.validate_regime.warned", 0.0 if out["regime"].clean else 1.0)

        ref = np.array([_closed_energy(order, gap, r) for r in inp["grid"]])
        err = np.max(np.abs(np.array(out["energies"]) - ref))
        c.gate(err <= 1e-10 * gap, f"quasienergy off the closed form by {err:.3g}")

        lo, hi = inp["window"]
        expected = [z for z in _half_order_roots(order) if lo <= z <= hi]
        found = out["zeros"]
        c.gate(len(found) == len(expected),
               f"zeros in [{lo:.4f}, {hi:.4f}]: found {found}, expected {expected}")
        if len(found) == len(expected) and found:
            zerr = max(abs(a - b) for a, b in zip(found, expected))
            c.gate(zerr <= 1e-4, f"zero off the J_N/2 root by {zerr:.3g}")

        energy = _closed_energy(order, gap, ratio)
        res = [abs(m * abs(energy) - n * base.modulation) / base.modulation
               for m in range(1, 7) for n in range(1, 7)]
        rerr = max(abs(r.residual - e) for r, e in zip(out["residuals"], res))
        c.gate(rerr <= 1e-8 * max(1.0, max(res)), f"periodicity residual off by {rerr:.3g}")
        mean = special.jv(0.5 * order, ratio) ** 2
        perr = max(abs(v - (n / m) * 0.5 * mean)
                   for v, (m, n) in zip(out["periodic"], Landscape.PAIRS))
        c.gate(perr <= 1e-10, f"solve_periodic_ratio off by {perr:.3g}")

        harm = np.arange(-64, 65)
        g_ref = special.jv(0.5 * order + harm, ratio) * special.jv(0.5 * order - harm, ratio)
        gerr = np.max(np.abs(out["fourier"].coefficients - g_ref))
        c.gate(gerr <= 1e-10, f"G(n) off J_(N/2+n) J_(N/2-n) by {gerr:.3g}")

        lines = out["lines"]
        c.record("analysis.spectral_lines.lines", len(lines))
        jn = special.jv(np.array([l.n for l in lines]), ratio)
        jmn = special.jv(np.array([l.m - l.n for l in lines]), ratio)
        weights = np.array([l.weight for l in lines])
        werr = np.max(np.abs(weights - 2.0 * np.abs(jn * jmn)))
        c.gate(werr <= 1e-12, f"spectral weights off 2|J_n J_(m-n)| by {werr:.3g}")
        total = float(np.sum(np.sign(jn * jmn) * weights) / 2.0)
        c.gate(abs(total - 1.0) <= 1e-8, f"signed spectral weights sum to {total!r}")

        moment = (0.5 * ratio) ** order / special.gamma(0.5 * order + 1.0) ** 2
        merr = abs(out["weak"].mean_moment - moment)
        c.gate(merr <= 1e-12 * max(1.0, moment), f"weak mean_moment off by {merr:.3g}")

        berr = max(np.max(np.abs(out["envelope_j"] - special.jv(order, inp["envelope"]))),
                   np.max(np.abs(np.array(out["scalar_j"]) - special.jv(order, inp["scalars"]))))
        c.gate(berr <= 1e-12, f"bessel_j off scipy jv by {berr:.3g}")
        return c


# ---------------------------------------------------------------------------
# oracle: long commensurate windows, closed form against both integrators
# ---------------------------------------------------------------------------

class Oracle:
    name = "oracle"
    round_len = 2  # N = 1, 2
    block_len = 6  # three rounds, about 7 s
    SAMPLES = 2001
    QES_TIMES = 500
    TOL_REDUCED = 1.0e-10
    TOL_FULL = 1.0e-8
    # delta = omega_0 / k; the window of round(200 / k) modulation periods
    # spans about 100 carrier periods whatever k is, so task cost does not
    # depend on the draw
    KS = (24, 32, 40, 48)

    @staticmethod
    def make_inputs(seed: int, index: int, smoke: bool = False) -> dict:
        rng = _rng(seed, index)
        u = _strata(seed, index, Oracle.round_len)
        order = 1 + index % 2
        k = Oracle.KS[0] if smoke else Oracle.KS[int(u[2] * len(Oracle.KS))]
        periods = 1 if smoke else int(round(200 / k))
        params = _resonant(order, 0.05 + 0.95 * u[0], 0.005 + 0.015 * u[1], 1.0 / k)
        t_end = periods * params.period
        return {
            "params": params,
            "periods": periods,
            "times": np.linspace(0.0, t_end, 201 if smoke else Oracle.SAMPLES),
            "qes_times": rng.uniform(0.0, t_end, 20 if smoke else Oracle.QES_TIMES),
        }

    @staticmethod
    def run(tr, inp: dict) -> dict:
        params, times = inp["params"], inp["times"]
        with tr.span("model.validate_regime"):
            regime = fq.validate_regime(params)
        with tr.span("floquet.build_phase_decomposition"):
            fq.build_phase_decomposition(params)
        with tr.span("dynamics.analytic_populations", times.size):
            analytic = fq.analytic_populations(params, times)
        states = []
        for i, t in enumerate(inp["qes_times"]):
            with tr.span("floquet.qes_state"):
                states.append(fq.qes_state(params, "plus" if i % 2 == 0 else "minus", float(t)))
        carrier_periods = times[-1] * params.carrier / (2.0 * math.pi)
        with tr.span("dynamics.evolve_reduced", inp["periods"]):
            reduced = fq.evolve_reduced(params, times, tol=Oracle.TOL_REDUCED)
        with tr.span("dynamics.evolve_full_z", carrier_periods):
            full_z = fq.evolve_full(params, "z", times, tol=Oracle.TOL_FULL)
        with tr.span("dynamics.evolve_full_x", carrier_periods):
            full_x = fq.evolve_full(params, "x", times, tol=Oracle.TOL_FULL, initial=_X_INITIAL)
        return {"regime": regime, "analytic": analytic, "states": states,
                "reduced": reduced, "full_z": full_z, "full_x": full_x}

    @staticmethod
    def check(inp: dict, out: dict) -> _Checks:
        c = _Checks()
        params = inp["params"]
        c.record("model.validate_regime.warned", 0.0 if out["regime"].clean else 1.0)
        p1 = out["analytic"].p1
        # at t_end = whole periods the phase is (Delta/2) t_end J_{N/2}(r)^2
        gamma_end = 0.5 * params.delta_gap * inp["times"][-1] * special.jv(
            0.5 * params.order, params.drive_ratio) ** 2
        aerr = abs(p1[-1] - math.cos(gamma_end) ** 2)
        c.gate(aerr <= 1e-9, f"closed form at t_end off by {aerr:.3g}")

        energy = _closed_energy(params.order, params.delta_gap, params.drive_ratio)
        for i, state in enumerate(out["states"]):
            sign = 1.0 if i % 2 == 0 else -1.0
            ok = (abs(state.norm - 1.0) <= 1e-12 and state.c_up == sign * state.c_down
                  and abs(state.quasienergy - sign * energy) <= 1e-9 * params.delta_gap)
            c.gate(ok, f"qes_state {i} is not the {sign:+.0f} branch of E_N")
            if not ok:
                break

        reduced, full_z, full_x = out["reduced"], out["full_z"], out["full_x"]
        drift = c.record("dynamics.evolve_reduced.norm_drift_max", _drift(reduced))
        c.gate(drift <= NORM_DRIFT_REDUCED, f"reduced norm drift {drift:.3g}")
        for axis, amps in (("z", full_z), ("x", full_x)):
            drift = c.record("dynamics.evolve_full.norm_drift_max", _drift(amps))
            c.gate(drift <= NORM_DRIFT_FULL, f"full {axis} norm drift {drift:.3g}")
        had = c.record("dynamics.hadamard_err_max", _hadamard_error(full_z, full_x))
        c.gate(had <= HADAMARD_ERR, f"z/x Hadamard mismatch {had:.3g}")
        rerr = c.record("dynamics.reduced_vs_closed_err_max",
                        np.max(np.abs(np.abs(reduced[0]) ** 2 - p1)))
        c.gate(rerr <= REDUCED_VS_CLOSED, f"reduced off the closed form by {rerr:.3g}")
        # the known criterion-3 departure of the resonance model: reported only
        c.record("dynamics.full_vs_closed_err_max", np.max(np.abs(np.abs(full_z[0]) ** 2 - p1)))
        return c


# ---------------------------------------------------------------------------
# cli: one session runs each of the six commands as its own process
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("sweep", "dynamics", "zeros", "periodicity", "spectrum", "oracle")
CLI_OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "cli")


def cli_argv(*args: str) -> list[str]:
    """The ``floquet-qubit`` entry point, run from the checkout's sources."""
    return [sys.executable, "-m", "floquet_qubit.cli", *args]


class Cli:
    name = "cli"
    round_len = 1
    block_len = 1  # one session, about 7 s

    @staticmethod
    def make_inputs(seed: int, index: int, smoke: bool = False) -> dict:
        del smoke  # a session is already small; smoke runs one of them
        rng = _rng(seed, index)
        fmt = "csv" if rng.uniform() < 0.5 else "json"
        order = int(rng.integers(1, 4))
        gap = float(rng.uniform(0.005, 0.05))
        modulation = repr(float(rng.uniform(5e-4, 2e-3)))
        ratio = float(rng.uniform(0.2, 2.0))
        root = _half_order_roots(order)[0]
        lo = root - float(rng.uniform(0.05, 0.25))
        cutoff = math.ceil(ratio) + 20  # the spectrum command's default
        spectrum_rows = sum(
            1 for m in range(-cutoff, cutoff + 1) for n in range(-cutoff, cutoff + 1)
            if 2.0 * abs(special.jv(n, ratio) * special.jv(m - n, ratio)) >= 1e-8)
        # (extra flags, expected rows) per command; every input is small, so
        # interpreter start and import dominate each command's time
        commands = {
            "sweep": (["--modulation", modulation, "--ratio-min", "0", "--ratio-max", "2",
                       "--ratio-step", "0.02"], 101),
            "dynamics": (["--modulation", modulation, "--amplitude", repr(ratio),
                          "--samples", "201", "--t-end", repr(2 * math.pi / float(modulation))],
                         201),
            "zeros": (["--modulation", modulation, "--ratio-min", repr(lo),
                       "--ratio-max", repr(lo + 0.3)], 1),
            "periodicity": (["--modulation", modulation, "--amplitude", repr(ratio),
                             "--m-max", "4", "--n-max", "4"], 16),
            "spectrum": (["--modulation", modulation, "--amplitude", repr(ratio)],
                         spectrum_rows),
            # one period of a fast modulation keeps the full oracle short
            "oracle": (["--modulation", "0.05", "--amplitude", repr(ratio), "--samples", "101",
                        "--tol", "1e-6", "--t-end", repr(math.pi / 0.05)], 101),
        }
        return {"fmt": fmt, "order": order, "gap": gap, "root": root,
                "out": os.path.join(CLI_OUT_DIR, f"{seed}-{index}"),
                "common": ["--format", fmt, "--order", str(order), "--delta-gap", repr(gap)],
                "commands": commands}

    @staticmethod
    def run(tr, inp: dict) -> dict:
        os.makedirs(CLI_OUT_DIR, exist_ok=True)
        results = {}
        for cmd in CLI_COMMANDS:
            out = f"{inp['out']}-{cmd}.{inp['fmt']}"
            argv = cli_argv(cmd, "--out", out, *inp["common"], *inp["commands"][cmd][0])
            with tr.span(f"cli.{cmd}"):
                proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            text = ""
            if proc.returncode == 0:
                with open(out, "r", encoding="utf-8") as handle:
                    text = handle.read()
                os.remove(out)
            results[cmd] = (proc.returncode, proc.stdout + proc.stderr, text)
        return results

    @staticmethod
    def check(inp: dict, out: dict) -> _Checks:
        c = _Checks()
        for cmd in CLI_COMMANDS:
            code, log, text = out[cmd]
            c.record(f"cli.{cmd}.out_bytes", len(text.encode()))
            if code != 0:
                c.gate(False, f"cli {cmd} exited {code}: {log.strip()[-200:]}")
                continue
            try:
                rows = _parse_cli_output(cmd, inp["fmt"], text)
            except (ValueError, KeyError, AttributeError) as exc:
                c.gate(False, f"cli {cmd} output does not parse: {exc}")
                continue
            expected = inp["commands"][cmd][1]
            c.gate(len(rows) == expected, f"cli {cmd} wrote {len(rows)} rows, expected {expected}")
            if cmd == "sweep" and rows:
                ref = np.array([_closed_energy(inp["order"], inp["gap"], float(r[0]))
                                for r in rows])
                err = np.max(np.abs(np.array([float(r[1]) for r in rows]) - ref))
                c.gate(err <= 1e-10 * inp["gap"], f"cli sweep off the closed form by {err:.3g}")
            if cmd == "zeros" and rows:
                c.gate(abs(float(rows[0][0]) - inp["root"]) <= 1e-4,
                       f"cli zero {rows[0][0]} is not the J_N/2 root {inp['root']}")
            if cmd == "oracle":
                c.gate("max_abs_err = " in log, "cli oracle printed no max_abs_err")
        return c


def _parse_cli_output(cmd: str, fmt: str, text: str) -> list[list]:
    """Rows of a CLI output file as lists of cell strings (or numbers)."""
    if fmt == "json":
        data = json.loads(text)
        if cmd == "zeros":
            return [[v] for v in data]
        return [list(row.values()) for row in data]
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if cmd == "zeros":
        return rows
    for row in rows[1:]:
        for cell in row:
            float(cell)
    return rows[1:]


WORKLOADS = {w.name: w for w in (Landscape, Oracle, Cli)}
