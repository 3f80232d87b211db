"""Command-line front end.

Subcommands: quasienergy sweeps, dynamics traces, zero finding, periodicity
search, probe spectra, and the analytic-versus-full oracle comparison.
Configuration comes from a flat ``key = value`` file, command-line flags
(flags override file values), or both.  Output files are deterministic CSV
or JSON with every real printed to 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .analysis import periodicity_residual, quasienergy_zeros, spectral_lines
from .dynamics import (analytic_populations, integrate_corrected, integrate_full,
                       integrate_reduced)
from .floquet import quasienergy
from .model import SystemParams

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


_FLOAT_KEYS = {
    "epsilon0", "delta_gap", "amplitude", "carrier", "modulation",
    "tol", "ratio_min", "ratio_max", "ratio_step", "t_end", "weight_threshold",
}
_INT_KEYS = {"order", "samples", "m_max", "n_max", "index_cutoff"}
_STR_KEYS = {"method", "axis", "format", "out"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS

_COMMANDS = ("sweep", "dynamics", "zeros", "periodicity", "spectrum", "oracle")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description for one CLI invocation."""

    command: str
    params: SystemParams
    out: str
    fmt: str
    tol: float = 1.0e-9
    ratio_min: float = 0.0
    ratio_max: float = 11.0
    ratio_step: float = 0.02
    t_end: float = 0.0
    samples: int = 2001
    method: str = "analytic"
    axis: str = "z"
    m_max: int = 6
    n_max: int = 6
    weight_threshold: float = 1.0e-8
    index_cutoff: int | None = None


def _parse_source(source: str) -> dict:
    values: dict = {}
    for lineno, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key '{key}'")
        if key in _FLOAT_KEYS:
            try:
                values[key] = float(raw)
            except ValueError:
                raise ConfigError(f"invalid number for '{key}': {raw!r}") from None
        elif key in _INT_KEYS:
            try:
                values[key] = int(raw)
            except ValueError:
                raise ConfigError(f"invalid integer for '{key}': {raw!r}") from None
        else:
            values[key] = raw
    return values


def parse_config(source: str, overrides: dict | None = None,
                 command: str = "dynamics") -> RunConfig:
    """Build a validated RunConfig from config text plus typed overrides.

    ``source`` is a flat ``key = value`` document ('#' starts a comment, the
    last occurrence of a key wins); ``overrides`` (typically the command-line
    flags) take precedence over file values.
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command '{command}'")
    values = _parse_source(source)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key '{key}'")
        values[key] = value

    # physical parameters, later defaults derived from earlier ones; the
    # carrier is checked first so a bad value is reported under its own key
    # rather than through a derived default
    carrier = float(values.get("carrier", 1.0))
    if not carrier > 0:
        raise ConfigError(f"invalid value for 'carrier': must be > 0, got {carrier}")
    modulation = float(values.get("modulation", carrier / 1000.0))
    order = int(values.get("order", 1))
    epsilon0 = float(values.get("epsilon0", order * carrier))
    delta_gap = float(values.get("delta_gap", carrier / 100.0))
    amplitude = float(values.get("amplitude", 0.1 * carrier))
    try:
        params = SystemParams(epsilon0=epsilon0, delta_gap=delta_gap,
                              amplitude=amplitude, carrier=carrier,
                              modulation=modulation, order=order)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    fmt = values.get("format")
    if fmt is None:
        raise ConfigError("missing key 'format' (csv or json)")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"invalid value for 'format': {fmt!r} (expected csv or json)")
    out = values.get("out")
    if not out:
        raise ConfigError("missing key 'out' (output path)")

    tol = float(values.get("tol", 1.0e-9))
    if tol <= 0:
        raise ConfigError(f"invalid value for 'tol': must be > 0, got {tol}")
    ratio_min = float(values.get("ratio_min", 0.0))
    ratio_max = float(values.get("ratio_max", 11.0))
    ratio_step = float(values.get("ratio_step", 0.02))
    if ratio_min < 0:
        raise ConfigError(f"invalid value for 'ratio_min': must be >= 0, got {ratio_min}")
    if ratio_max <= ratio_min:
        raise ConfigError("invalid range: 'ratio_max' must exceed 'ratio_min'")
    if ratio_step <= 0:
        raise ConfigError(f"invalid value for 'ratio_step': must be > 0, got {ratio_step}")
    t_end = float(values.get("t_end", 5.0 * math.pi / params.modulation))
    if t_end <= 0:
        raise ConfigError(f"invalid value for 't_end': must be > 0, got {t_end}")
    samples = int(values.get("samples", 2001))
    if samples < 2:
        raise ConfigError(f"invalid value for 'samples': must be >= 2, got {samples}")
    method = values.get("method", "analytic")
    if method not in ("analytic", "reduced"):
        raise ConfigError(f"invalid value for 'method': {method!r}")
    axis = values.get("axis", "z")
    if axis not in ("z", "x"):
        raise ConfigError(f"invalid value for 'axis': {axis!r}")
    m_max = int(values.get("m_max", 6))
    n_max = int(values.get("n_max", 6))
    if m_max < 1 or n_max < 1:
        raise ConfigError("invalid value for 'm_max'/'n_max': must be >= 1")
    weight_threshold = float(values.get("weight_threshold", 1.0e-8))
    if weight_threshold < 0:
        raise ConfigError("invalid value for 'weight_threshold': must be >= 0")
    index_cutoff = values.get("index_cutoff")
    if index_cutoff is not None:
        index_cutoff = int(index_cutoff)
        if index_cutoff < 0:
            raise ConfigError("invalid value for 'index_cutoff': must be >= 0")

    return RunConfig(command=command, params=params, out=str(out), fmt=str(fmt),
                     tol=tol, ratio_min=ratio_min, ratio_max=ratio_max,
                     ratio_step=ratio_step, t_end=t_end, samples=samples,
                     method=method, axis=axis, m_max=m_max, n_max=n_max,
                     weight_threshold=weight_threshold, index_cutoff=index_cutoff)


# ---------------------------------------------------------------------------
# deterministic writers (12 significant digits everywhere)
# ---------------------------------------------------------------------------

def format_real(x: float) -> str:
    return f"{float(x):.11e}"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_real(value)


def _json_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    return format_real(value)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_rows(config: RunConfig, header: list[str], rows: list[tuple]) -> None:
    if config.fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        _write_text(config.out, "\n".join(lines) + "\n")
    else:
        body = ",\n".join(
            "  {" + ", ".join(f'"{k}": {_json_cell(v)}' for k, v in zip(header, row)) + "}"
            for row in rows)
        _write_text(config.out, "[\n" + body + "\n]\n" if rows else "[]\n")


def _write_values(config: RunConfig, values: list[float]) -> None:
    if config.fmt == "csv":
        _write_text(config.out, "".join(format_real(v) + "\n" for v in values))
    else:
        body = ", ".join(format_real(v) for v in values)
        _write_text(config.out, "[" + body + "]\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _run_sweep(config: RunConfig) -> None:
    count = int(math.floor((config.ratio_max - config.ratio_min) / config.ratio_step + 1e-9)) + 1
    ratios = [config.ratio_min + i * config.ratio_step for i in range(count)]
    params = config.params
    energies = [quasienergy(replace(params, amplitude=r * params.carrier)) for r in ratios]
    header = ["ratio", f"quasienergy_{params.order}"]
    _write_rows(config, header, list(zip(ratios, energies)))
    print(f"sweep: wrote {len(ratios)} points to {config.out}")


def _run_dynamics(config: RunConfig) -> None:
    times = np.linspace(0.0, config.t_end, config.samples)
    if config.method == "analytic":
        trace = analytic_populations(config.params, times)
    else:
        trace = integrate_reduced(config.params, config.t_end, tol=config.tol,
                                  times=times)
    rows = list(zip(trace.times, trace.p1, trace.p2))
    _write_rows(config, ["t", "p1", "p2"], rows)
    print(f"dynamics: wrote {len(rows)} samples to {config.out}")


def _run_zeros(config: RunConfig) -> None:
    zeros = quasienergy_zeros(config.params, config.ratio_min, config.ratio_max,
                              tol=config.tol)
    _write_values(config, zeros)
    print(f"zeros: found {len(zeros)} in [{config.ratio_min:g}, {config.ratio_max:g}], "
          f"wrote {config.out}")


def _run_periodicity(config: RunConfig) -> None:
    rows = []
    for m in range(1, config.m_max + 1):
        for n in range(1, config.n_max + 1):
            res = periodicity_residual(config.params, m, n)
            rows.append((m, n, res.residual, res.is_periodic))
    _write_rows(config, ["m", "n", "residual", "is_periodic"], rows)
    print(f"periodicity: wrote {len(rows)} candidates to {config.out}")


def _run_spectrum(config: RunConfig) -> None:
    lines = spectral_lines(config.params, weight_threshold=config.weight_threshold,
                           index_cutoff=config.index_cutoff)
    rows = [(line.m, line.n, line.frequency, line.weight) for line in lines]
    _write_rows(config, ["m", "n", "frequency", "weight"], rows)
    print(f"spectrum: wrote {len(rows)} lines to {config.out}")


def _run_oracle(config: RunConfig) -> None:
    times = np.linspace(0.0, config.t_end, config.samples)
    analytic = analytic_populations(config.params, times)
    full = integrate_full(config.params, config.axis, config.t_end,
                          tol=config.tol, times=times)
    err = np.abs(analytic.p1 - full.p1)
    rows = list(zip(times, analytic.p1, full.p1, err))
    _write_rows(config, ["t", "p1_analytic", "p1_full", "abs_err"], rows)
    print(f"max_abs_err = {format_real(float(np.max(err)))}")
    corrected = integrate_corrected(config.params, config.t_end, tol=config.tol, times=times)
    print(f"max_abs_err_corrected = {format_real(float(np.max(np.abs(corrected.p1 - full.p1))))}")


_RUNNERS = {
    "sweep": _run_sweep,
    "dynamics": _run_dynamics,
    "zeros": _run_zeros,
    "periodicity": _run_periodicity,
    "spectrum": _run_spectrum,
    "oracle": _run_oracle,
}


def run(config: RunConfig) -> int:
    """Execute one validated run; returns the process exit status."""
    _RUNNERS[config.command](config)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floquet-qubit",
        description="Quasienergies and dynamics of a qubit in an "
                    "amplitude-modulated (bichromatic) drive.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "sweep": "quasienergy versus drive ratio A/omega_0",
        "dynamics": "population trace from the resonant closed form or the reduced ODE",
        "zeros": "zeros of the quasienergy in a drive-ratio window",
        "periodicity": "residuals of the periodic-oscillation condition over (m, n)",
        "spectrum": "probe spectral-line catalog (frequency and weight per line)",
        "oracle": ("analytic populations against the full integration, with error column; "
                   "also prints the corrected reduction's maximum error"),
    }
    for command in _COMMANDS:
        sp = sub.add_parser(command, help=descriptions[command])
        sp.add_argument("--config", help="flat key = value config file")
        sp.add_argument("--out", help="output file path")
        sp.add_argument("--format", choices=("csv", "json"), help="output format")
        for key in sorted(_FLOAT_KEYS - {"tol"}):
            sp.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
        sp.add_argument("--tol", type=float)
        for key in sorted(_INT_KEYS):
            sp.add_argument(f"--{key.replace('_', '-')}", type=int, dest=key)
        sp.add_argument("--method", choices=("analytic", "reduced"))
        sp.add_argument("--axis", choices=("z", "x"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key, None) for key in _ALL_KEYS}
    source = ""
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as handle:
                source = handle.read()
        config = parse_config(source, overrides=overrides, command=args.command)
        return run(config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
