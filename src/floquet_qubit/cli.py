"""Command-line front end.

Subcommands: quasienergy sweeps, dynamics traces, zero finding, periodicity
search, probe spectra, and the analytic-versus-full oracle comparison.
Configuration comes from a flat ``key = value`` file, command-line flags
(flags override file values), or both.  Output files are deterministic CSV
or JSON with every real printed to 12 significant digits.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .analysis import (DEFAULT_WEIGHT_THRESHOLD, periodicity_residual, quasienergy_zeros,
                       spectral_lines)
from .dynamics import (DEFAULT_TOL, AmplitudePair, analytic_populations, evolve_full,
                       integrate_corrected, integrate_reduced)
from .floquet import quasienergy
from .model import SystemParams, check_real
from .specfun import check_domain

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

DEFAULT_SAMPLES = 2001
MAX_SWEEP_POINTS = 10 ** 6  # a sweep this long already takes seconds and writes tens of MB


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


# Every config key and flag: its type, and either its choices or the rule a
# valid value meets ("<op> <number or key>"; a value meeting a rule is also
# finite).  SystemParams checks the physical keys (its fields); the carrier
# has a rule here too because the other physical defaults derive from it.
_KEYS = {
    "epsilon0": (float, None),
    "delta_gap": (float, None),
    "amplitude": (float, None),
    "carrier": (float, "> 0"),
    "modulation": (float, None),
    "order": (int, None),
    "tol": (float, "> 0"),
    "ratio_min": (float, ">= 0"),
    "ratio_max": (float, "> ratio_min"),
    "ratio_step": (float, "> 0"),
    "t_end": (float, "> 0"),
    "samples": (int, ">= 2"),
    "method": (str, ("analytic", "reduced")),
    "axis": (str, ("z", "x")),
    "m_max": (int, ">= 1"),
    "n_max": (int, ">= 1"),
    "weight_threshold": (float, ">= 0"),
    "index_cutoff": (int, ">= 0"),
    "format": (str, ("csv", "json")),
    "out": (str, None),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description for one CLI invocation."""

    command: str
    params: SystemParams
    out: str
    fmt: str
    t_end: float  # derived from the modulation when not given
    tol: float = DEFAULT_TOL
    ratio_min: float = 0.0
    ratio_max: float = 11.0
    ratio_step: float = 0.02
    samples: int = DEFAULT_SAMPLES
    method: str = "analytic"
    axis: str = "z"
    m_max: int = 6
    n_max: int = 6
    weight_threshold: float = DEFAULT_WEIGHT_THRESHOLD
    index_cutoff: int | None = None  # None: spectral_lines' ceil(A/omega_0) + 20


def _typed(key: str, raw):
    """``raw`` (config-file text or a typed override) as the type of ``key``."""
    if key not in _KEYS:
        raise ConfigError(f"unknown key '{key}'")
    kind, rule = _KEYS[key]
    if isinstance(rule, tuple):
        if raw not in rule:
            raise ConfigError(f"invalid value for '{key}': {raw!r} "
                              f"(expected {' or '.join(rule)})")
        return raw
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    # int(2.7) truncates: only text or an integral number is an integer
    if value is None or (kind is int and not isinstance(raw, str) and value != raw):
        noun = "integer" if kind is int else "number"
        raise ConfigError(f"invalid {noun} for '{key}': {raw!r}")
    return value


def _check(key: str, value, config: RunConfig | None = None) -> None:
    """Raise unless ``value`` is finite and meets the rule of ``key``
    (``model.check_real``)."""
    rule = _KEYS[key][1]
    if value is None or not isinstance(rule, str):
        return
    op, bound = rule.split()
    try:
        check_real(key, value, op, getattr(config, bound) if bound in _KEYS else float(bound))
    except ValueError:
        raise ConfigError(f"invalid value for '{key}': must be finite and {rule}, "
                          f"got {value}") from None


def _parse_source(source: str) -> dict:
    values: dict = {}
    for lineno, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        values[key] = _typed(key, raw)
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
    values.update((key, _typed(key, value)) for key, value in (overrides or {}).items()
                  if value is not None)

    # physical parameters, later defaults derived from earlier ones; the
    # carrier is checked first so a bad value is reported under its own key
    # rather than through a derived default
    carrier = values.setdefault("carrier", 1.0)
    _check("carrier", carrier)
    values.setdefault("modulation", carrier / 1000.0)
    order = values.setdefault("order", 1)
    values.setdefault("epsilon0", order * carrier)
    values.setdefault("delta_gap", carrier / 100.0)
    values.setdefault("amplitude", 0.1 * carrier)
    try:
        params = SystemParams(**{f.name: values.pop(f.name) for f in fields(SystemParams)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    values.setdefault("t_end", 5.0 * math.pi / params.modulation)

    fmt = values.pop("format", None)
    if fmt is None:
        raise ConfigError("missing key 'format' (csv or json)")
    if not values.get("out"):
        raise ConfigError("missing key 'out' (output path)")
    config = RunConfig(command=command, params=params, fmt=fmt, **values)
    for f in fields(config):
        if f.name in _KEYS:
            _check(f.name, getattr(config, f.name), config)
    return config


# ---------------------------------------------------------------------------
# deterministic writers (12 significant digits everywhere)
# ---------------------------------------------------------------------------

def format_real(x: float) -> str:
    return f"{float(x):.11e}"


def _cell(value, fmt: str) -> str:
    """A bool as 1/0 in CSV and true/false in JSON, an integer as is, a real
    by ``format_real``."""
    if isinstance(value, bool) and fmt == "json":
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_real(value)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_rows(config: RunConfig, header: list[str], rows: list[tuple]) -> None:
    if config.fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_cell(v, "csv") for v in row) for row in rows)
        _write_text(config.out, "\n".join(lines) + "\n")
    else:
        body = ",\n".join(
            "  {" + ", ".join(f'"{k}": {_cell(v, "json")}' for k, v in zip(header, row)) + "}"
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
    span = (config.ratio_max - config.ratio_min) / config.ratio_step + 1e-9
    if span >= MAX_SWEEP_POINTS:
        raise ConfigError(f"invalid value for 'ratio_step': {config.ratio_step} gives more than "
                          f"{MAX_SWEEP_POINTS} points on [ratio_min, ratio_max]")
    params = config.params
    check_domain(params.order, config.ratio_max)
    count = int(math.floor(span)) + 1
    ratios = [config.ratio_min + i * config.ratio_step for i in range(count)]
    energies = [quasienergy(replace(params, amplitude=r * params.carrier)) for r in ratios]
    header = ["ratio", f"quasienergy_{params.order}"]
    _write_rows(config, header, list(zip(ratios, energies)))
    print(f"sweep: wrote {len(ratios)} points to {config.out}")


def _run_dynamics(config: RunConfig) -> None:
    times = np.linspace(0.0, config.t_end, config.samples)
    if config.method == "analytic":
        trace = analytic_populations(config.params, times)
    else:
        trace = integrate_reduced(config.params, times, tol=config.tol)
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
    _write_rows(config, ["m", "n", "frequency", "weight"], lines)
    print(f"spectrum: wrote {len(lines)} lines to {config.out}")


def _run_oracle(config: RunConfig) -> None:
    times = np.linspace(0.0, config.t_end, config.samples)
    analytic = analytic_populations(config.params, times)
    # the Hadamard maps the z configuration onto the x one: the x run starts
    # from the image of |down> and its |down> population is read back through it
    x = config.axis == "x"
    c1, c2 = evolve_full(config.params, config.axis, times, tol=config.tol,
                         initial=AmplitudePair(-math.sqrt(0.5), math.sqrt(0.5)) if x else None)
    p1_full = np.abs(c2 - c1) ** 2 / 2 if x else np.abs(c1) ** 2
    err = np.abs(analytic.p1 - p1_full)
    rows = list(zip(times, analytic.p1, p1_full, err))
    _write_rows(config, ["t", "p1_analytic", "p1_full", "abs_err"], rows)
    print(f"max_abs_err = {format_real(float(np.max(err)))}")
    corrected = integrate_corrected(config.params, times, tol=config.tol)
    print(f"max_abs_err_corrected = {format_real(float(np.max(np.abs(corrected.p1 - p1_full))))}")


# command: (runner, help)
_COMMANDS = {
    "sweep": (_run_sweep, "quasienergy versus drive ratio A/omega_0"),
    "dynamics": (_run_dynamics,
                 "population trace from the resonant closed form or the reduced ODE"),
    "zeros": (_run_zeros, "zeros of the quasienergy in a drive-ratio window"),
    "periodicity": (_run_periodicity,
                    "residuals of the periodic-oscillation condition over (m, n)"),
    "spectrum": (_run_spectrum, "probe spectral-line catalog (frequency and weight per line)"),
    "oracle": (_run_oracle, "analytic populations against the full integration, with error "
                            "column; also prints the corrected reduction's maximum error"),
}


def run(config: RunConfig) -> int:
    """Execute one validated run; returns the process exit status."""
    _COMMANDS[config.command][0](config)
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
    for command, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help="flat key = value config file")
        for key, (kind, rule) in _KEYS.items():
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=kind,
                            choices=rule if isinstance(rule, tuple) else None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _KEYS}
    source = ""
    try:
        if args.config:
            with open(args.config, "r", encoding="utf-8") as handle:
                source = handle.read()
        return run(parse_config(source, overrides=overrides, command=args.command))
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
