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
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

from .analysis import (DEFAULT_WEIGHT_THRESHOLD, periodicity_residual, quasienergy_zeros,
                       spectral_lines)
from .dynamics import (DEFAULT_TOL, AmplitudePair, PopulationTrace, analytic_populations,
                       evolve_corrected, evolve_full, evolve_reduced)
from .floquet import quasienergy
from .model import SystemParams, check_real
from .specfun import check_domain

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

DEFAULT_SAMPLES = 2001
MAX_ROWS = 10 ** 6  # a run this long already takes seconds and writes tens of MB


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


def _key(default=None, rule=None):
    """A RunConfig field that is also a config key and flag: its default and
    either its choices (a tuple) or the rule a valid value meets
    ("<op> <number or key>"; a value meeting a rule is also finite)."""
    return field(default=default, metadata={"rule": rule})


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description for one CLI invocation.

    Every field after ``params`` is a config key and flag, as is every
    field of ``SystemParams``; ``format`` and ``out`` are required.
    """

    command: str
    params: SystemParams
    tol: float = _key(DEFAULT_TOL, "> 0")
    ratio_min: float = _key(0.0, ">= 0")
    ratio_max: float = _key(11.0, "> ratio_min")
    ratio_step: float = _key(0.02, "> 0")
    t_end: float = _key(rule="> 0")  # derived from the modulation when not given
    samples: int = _key(DEFAULT_SAMPLES, ">= 2")
    method: str = _key("analytic", ("analytic", "reduced"))
    axis: str = _key("z", ("z", "x"))
    m_max: int = _key(6, ">= 1")
    n_max: int = _key(6, ">= 1")
    weight_threshold: float = _key(DEFAULT_WEIGHT_THRESHOLD, ">= 0")
    format: str = _key(rule=("csv", "json"))
    out: str = _key()


# every config key and flag: the SystemParams fields (which check
# themselves), then the RunConfig fields after params
_FIELDS = {f.name: f for f in fields(SystemParams) + fields(RunConfig)[2:]}
_TYPES = {**get_type_hints(SystemParams), **get_type_hints(RunConfig)}


def _value(key: str, raw, rule=None, values: dict | None = None):
    """``raw`` (config or flag text, or a typed value) as the type of ``key``,
    one of the choices or meeting the rule of ``_key`` (a key the rule names
    is looked up in ``values``); otherwise a ConfigError naming ``key``."""
    if isinstance(rule, tuple):
        if raw not in rule:
            raise ConfigError(f"invalid value for '{key}': {raw!r} "
                              f"(expected {' or '.join(rule)})")
        return raw
    kind = _TYPES[key]
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    # int(2.7) truncates: only text or an integral number is an integer
    if value is None or (kind is int and not isinstance(raw, str) and value != raw):
        noun = "integer" if kind is int else "number"
        raise ConfigError(f"invalid {noun} for '{key}': {raw!r}")
    if rule is not None:
        op, bound = rule.split()
        try:
            check_real(key, value, op, values[bound] if bound in _FIELDS else float(bound))
        except ValueError:
            raise ConfigError(f"invalid value for '{key}': must be finite and {rule}, "
                              f"got {value}") from None
    return value


def _parse_source(source: str) -> dict:
    values: dict = {}
    for lineno, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        values[key] = raw
    return values


def parse_config(source: str, overrides: dict | None = None,
                 command: str = "dynamics") -> RunConfig:
    """Build a validated RunConfig from config text plus overrides.

    ``source`` is a flat ``key = value`` document ('#' starts a comment, the
    last occurrence of a key wins); ``overrides`` (text, as the command-line
    flags give, or typed values) take precedence over file values.
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command '{command}'")
    given = _parse_source(source)
    given.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    for key in given:
        if key not in _FIELDS:
            raise ConfigError(f"unknown key '{key}'")

    # physical parameters, later defaults derived from earlier ones;
    # SystemParams checks them
    def physical(key, default):
        return _value(key, given[key]) if key in given else default

    carrier = physical("carrier", 1.0)
    order = physical("order", 1)
    try:
        params = SystemParams(epsilon0=physical("epsilon0", order * carrier),
                              delta_gap=physical("delta_gap", carrier / 100.0),
                              amplitude=physical("amplitude", 0.1 * carrier), carrier=carrier,
                              modulation=physical("modulation", carrier / 1000.0), order=order)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    values = {"t_end": 5.0 * math.pi / params.modulation}
    for f in fields(RunConfig)[2:]:
        value = given.get(f.name, values.get(f.name, f.default))
        values[f.name] = None if value is None else _value(f.name, value, f.metadata["rule"],
                                                           values)
    if values["format"] is None:
        raise ConfigError("missing key 'format' (csv or json)")
    if not values["out"]:
        raise ConfigError("missing key 'out' (output path)")
    return RunConfig(command=command, params=params, **values)


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
    if config.format == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_cell(v, "csv") for v in row) for row in rows)
        _write_text(config.out, "\n".join(lines) + "\n")
    else:
        body = ",\n".join(
            "  {" + ", ".join(f'"{k}": {_cell(v, "json")}' for k, v in zip(header, row)) + "}"
            for row in rows)
        _write_text(config.out, "[\n" + body + "\n]\n" if rows else "[]\n")


def _write_values(config: RunConfig, values: list[float]) -> None:
    if config.format == "csv":
        _write_text(config.out, "".join(format_real(v) + "\n" for v in values))
    else:
        body = ", ".join(format_real(v) for v in values)
        _write_text(config.out, "[" + body + "]\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _check_rows(config: RunConfig, key: str, count, rows: str) -> None:
    """Refuse, naming ``key``, a run of more than ``MAX_ROWS`` output rows."""
    if count > MAX_ROWS:
        raise ConfigError(f"invalid value for '{key}': {getattr(config, key)} gives more than "
                          f"{MAX_ROWS} {rows}")


def _sample_times(config: RunConfig) -> np.ndarray:
    _check_rows(config, "samples", config.samples, "rows")
    return np.linspace(0.0, config.t_end, config.samples)


def _run_sweep(config: RunConfig) -> None:
    count = np.floor((config.ratio_max - config.ratio_min) / config.ratio_step + 1e-9) + 1
    _check_rows(config, "ratio_step", count, "points on [ratio_min, ratio_max]")
    params = config.params
    check_domain(params.order, config.ratio_max)
    ratios = [config.ratio_min + i * config.ratio_step for i in range(int(count))]
    energies = [quasienergy(replace(params, amplitude=r * params.carrier)) for r in ratios]
    header = ["ratio", f"quasienergy_{params.order}"]
    _write_rows(config, header, list(zip(ratios, energies)))
    print(f"sweep: wrote {len(ratios)} points to {config.out}")


def _run_dynamics(config: RunConfig) -> None:
    times = _sample_times(config)
    if config.method == "analytic":
        trace = analytic_populations(config.params, times)
    else:
        amps = evolve_reduced(config.params, times, tol=config.tol)
        trace = PopulationTrace(times, *np.abs(amps) ** 2)
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
    _check_rows(config, "n_max", config.m_max * config.n_max,
                f"candidates with m_max = {config.m_max}")
    rows = []
    for m in range(1, config.m_max + 1):
        for n in range(1, config.n_max + 1):
            res = periodicity_residual(config.params, m, n)
            rows.append((m, n, res.residual, res.is_periodic))
    _write_rows(config, ["m", "n", "residual", "is_periodic"], rows)
    print(f"periodicity: wrote {len(rows)} candidates to {config.out}")


def _run_spectrum(config: RunConfig) -> None:
    lines = spectral_lines(config.params, weight_threshold=config.weight_threshold)
    _check_rows(config, "weight_threshold", len(lines), "lines")  # known only once built
    _write_rows(config, ["m", "n", "frequency", "weight"], lines.tolist())
    print(f"spectrum: wrote {len(lines)} lines to {config.out}")


def _run_oracle(config: RunConfig) -> None:
    times = _sample_times(config)
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
    p1_corrected = np.abs(evolve_corrected(config.params, times, tol=config.tol)[0]) ** 2
    print(f"max_abs_err_corrected = {format_real(float(np.max(np.abs(p1_corrected - p1_full))))}")


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
        # a flag is text, converted and checked by _value as a config line is
        for key, f in _FIELDS.items():
            rule = f.metadata.get("rule")
            choices = "{" + ",".join(rule) + "}" if isinstance(rule, tuple) else None
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key, metavar=choices)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _FIELDS}
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
