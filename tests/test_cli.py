import json
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

import floquet_qubit
from floquet_qubit import cli
from floquet_qubit.cli import ConfigError, format_real, main, parse_config
from floquet_qubit.model import SystemParams


BASE_FILE = """
# resonant first-order run
epsilon0 = 1.0
delta_gap = 0.01
amplitude = 0.1
carrier = 1.0
modulation = 1e-3
order = 1
format = csv
out = IGNORED
"""


def test_parse_round_trip():
    config = parse_config(BASE_FILE, command="dynamics")
    assert config.params.epsilon0 == 1.0
    assert config.params.modulation == 1e-3
    assert config.format == "csv"
    assert config.command == "dynamics"


def test_parse_defaults():
    config = parse_config("format = csv\nout = x.csv\n", command="sweep")
    assert config.params.carrier == 1.0
    assert config.params.modulation == pytest.approx(1e-3)
    assert config.params.order == 1
    assert config.params.epsilon0 == 1.0
    assert config.tol == 1e-9


def test_parse_unknown_key_is_named():
    with pytest.raises(ConfigError, match="frequency"):
        parse_config("frequency = 2.0\n", command="sweep")


def test_parse_bad_number_is_named():
    with pytest.raises(ConfigError, match="carrier"):
        parse_config("carrier = fast\nformat = csv\nout = x\n", command="sweep")


def test_parse_invariant_violation_is_named():
    with pytest.raises(ConfigError, match="carrier"):
        parse_config("carrier = -1\nformat = csv\nout = x\n", command="sweep")


def test_parse_requires_explicit_format():
    with pytest.raises(ConfigError, match="format"):
        parse_config("out = x\n", command="sweep")


def test_parse_refuses_a_line_without_equals():
    with pytest.raises(ConfigError, match="line 2: expected 'key = value', got 'carrier 1.0'"):
        parse_config("format = csv\ncarrier 1.0\n", command="sweep")


def test_parse_refuses_an_unknown_command():
    with pytest.raises(ConfigError, match="unknown command 'plot'"):
        parse_config(BASE_FILE, command="plot")


def test_flags_override_file():
    config = parse_config(BASE_FILE, overrides={"amplitude": 0.7, "out": "real.csv"},
                          command="zeros")
    assert config.params.amplitude == 0.7
    assert config.out == "real.csv"


def test_flags_alone_match_file_form():
    # every key, each off its default: every SystemParams field, and every
    # RunConfig field but the command and the params it holds
    overrides = dict(epsilon0=2.0, delta_gap=0.02, amplitude=0.3, carrier=1.0,
                     modulation=2e-3, order=2, tol=1e-7, ratio_min=0.5, ratio_max=4.0,
                     ratio_step=0.25, t_end=300.0, samples=11, method="reduced", axis="x",
                     m_max=3, n_max=4, weight_threshold=1e-6, format="json", out="x.json")
    keys = {f.name for f in fields(SystemParams) + fields(cli.RunConfig)} - {"command", "params"}
    assert set(overrides) == keys
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in overrides.items()]
    assert {k for k, v in vars(cli._build_parser().parse_args(["sweep", *flags])).items()
            if v is not None} == keys | {"command"}
    source = "".join(f"{key} = {value}\n" for key, value in overrides.items())
    from_flags = parse_config("", overrides=overrides, command="dynamics")
    from_file = parse_config(source, command="dynamics")
    assert from_flags == from_file
    assert from_file.weight_threshold == 1e-6 and from_file.axis == "x"
    assert from_file.format == "json"
    assert from_file.params.order == 2 and from_file.t_end == 300.0


_VALID = {"format": "csv", "out": "x.csv"}


@pytest.mark.parametrize("overrides, key", [
    ({"tol": 0.0}, "tol"),
    ({"ratio_min": -1.0}, "ratio_min"),
    ({"ratio_min": 2.0, "ratio_max": 1.0}, "ratio_max"),
    ({"ratio_min": 12.0}, "ratio_max"),  # past the default ratio_max
    ({"ratio_step": 0.0}, "ratio_step"),
    ({"t_end": 0.0}, "t_end"),
    ({"samples": 1}, "samples"),
    ({"m_max": 0}, "m_max"),
    ({"n_max": 0}, "n_max"),
    ({"weight_threshold": -1.0}, "weight_threshold"),
    ({"index_cutoff": 5}, "index_cutoff"),  # gone: spectral_lines derives its range
    ({"method": "exact"}, "method"),
    ({"axis": "y"}, "axis"),
    ({"format": "xml"}, "format"),
    ({"format": None}, "format"),
    ({"out": ""}, "out"),
    ({"carrier": 0.0}, "carrier"),
    # not finite
    ({"weight_threshold": math.nan}, "weight_threshold"),
    ({"ratio_max": math.inf}, "ratio_max"),
    ({"ratio_step": math.nan}, "ratio_step"),
    ({"tol": math.nan}, "tol"),
    ({"ratio_min": math.nan}, "ratio_min"),
    ({"t_end": math.inf}, "t_end"),
    ({"carrier": math.inf}, "carrier"),
    ({"carrier": math.nan}, "carrier"),
    ({"amplitude": math.nan}, "amplitude"),
    # not integral
    ({"order": 1.5}, "order"),
    ({"samples": 2.7}, "samples"),
    ({"m_max": 1.5}, "m_max"),
    ({"n_max": 1.5}, "n_max"),
    ({"samples": math.nan}, "samples"),
])
def test_invalid_value_is_named(overrides, key):
    with pytest.raises(ConfigError, match=rf"\b{key}\b"):
        parse_config("", overrides={**_VALID, **overrides}, command="sweep")


def test_non_integral_file_value_is_named():
    with pytest.raises(ConfigError, match="'samples'"):
        parse_config("samples = 2.7\nformat = csv\nout = x\n", command="dynamics")


@pytest.mark.parametrize("command, flag, value", [
    ("spectrum", "--weight-threshold", "nan"),
    ("sweep", "--ratio-max", "inf"),
    ("sweep", "--ratio-step", "nan"),
    ("zeros", "--tol", "nan"),
    # a flag is text, refused by the rule of its config line
    ("dynamics", "--samples", "2.7"),
    ("dynamics", "--order", "abc"),
    ("oracle", "--axis", "y"),
    ("dynamics", "--format", "xml"),
    ("dynamics", "--method", "exact"),
])
def test_cli_rejects_non_finite_flags(tmp_path, capsys, command, flag, value):
    out = tmp_path / "x.csv"
    # the flag comes last, so it overrides the --format given with --out
    code = main([command, "--out", str(out), "--format", "csv", flag, value])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{flag[2:].replace('-', '_')}'" in err
    assert not out.exists()


def test_help_lists_the_choices(capsys):
    with pytest.raises(SystemExit):
        main(["oracle", "--help"])
    out = capsys.readouterr().out
    for flag in ("--axis {z,x}", "--format {csv,json}", "--method {analytic,reduced}"):
        assert flag in out


@pytest.mark.parametrize("fmt, expected", [
    ("csv", "m,n,residual,is_periodic\n"
            "1,1,6.82749733070e-01,0\n"
            "1,2,1.68274973307e+00,0\n"),
    ("json", "[\n"
             '  {"m": 1, "n": 1, "residual": 6.82749733070e-01, "is_periodic": false},\n'
             '  {"m": 1, "n": 2, "residual": 1.68274973307e+00, "is_periodic": false}\n'
             "]\n"),
])
def test_periodicity_output_golden(tmp_path, capsys, fmt, expected):
    out = tmp_path / f"p.{fmt}"
    assert main(["periodicity", "--m-max", "1", "--n-max", "2", "--out", str(out),
                 "--format", fmt]) == 0
    assert out.read_bytes() == expected.encode()
    assert capsys.readouterr().out == f"periodicity: wrote 2 candidates to {out}\n"


# the package's public names before each module's __all__ was re-exported
# whole, less tunneling_amplitude, quasienergy_pair and phase_gamma, which
# restated rabi_frequency, quasienergy and PhaseDecomposition.gamma_at
_PUBLIC_NAMES = (
    "AmplitudePair FourierPhase IntegrationError PeriodicityResult PhaseDecomposition "
    "PopulationTrace QesState RegimeReport SystemParams WeakDriveForms "
    "XConfigPoint analytic_populations build_phase_decomposition circuit_controls "
    "drive_field effective_bessel_argument evolve_corrected evolve_full "
    "evolve_reduced fourier_phase hamiltonian mean_bessel periodicity_residual "
    "phase_phi qes_state quasienergy quasienergy_zeros "
    "rabi_frequency reconstruct_periodic_phase solve_periodic_ratio spectral_lines "
    "trace_periodicity_check validate_regime weak_forms "
    "xconfig_dynamics xconfig_spectral_lines").split()


def test_public_names_still_import():
    assert len(_PUBLIC_NAMES) == 36
    assert set(_PUBLIC_NAMES) <= set(floquet_qubit.__all__)
    for name in floquet_qubit.__all__:
        assert getattr(floquet_qubit, name) is not None
    assert len(floquet_qubit.__all__) == len(set(floquet_qubit.__all__))


def test_dynamics_zero_amplitude(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["dynamics", "--amplitude", "0", "--t-end", "100", "--samples", "11",
                 "--out", str(out), "--format", "csv"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,p1,p2"
    for line in lines[1:]:
        assert line.split(",")[1] == format_real(1.0)


def test_zeros_command_finds_first_zero(tmp_path):
    out = tmp_path / "zeros.csv"
    code = main(["zeros", "--ratio-min", "2.8", "--ratio-max", "3.5",
                 "--tol", "1e-6", "--out", str(out), "--format", "csv"])
    assert code == 0
    values = [float(line) for line in out.read_text().splitlines()]
    assert len(values) == 1
    assert values[0] == pytest.approx(math.pi, abs=1e-3)


def test_zeros_command_writes_a_json_list(tmp_path):
    out = tmp_path / "zeros.json"
    code = main(["zeros", "--ratio-min", "2.8", "--ratio-max", "3.5",
                 "--tol", "1e-6", "--out", str(out), "--format", "json"])
    assert code == 0
    values = json.loads(out.read_text())
    assert isinstance(values, list) and len(values) == 1
    assert out.read_text() == f"[{format_real(values[0])}]\n"
    assert values[0] == pytest.approx(math.pi, abs=1e-3)


def test_config_file_runs_as_its_flags(tmp_path):
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    config = tmp_path / "run.cfg"
    config.write_text(BASE_FILE.replace("IGNORED", str(from_file)))
    window = ["--t-end", "100", "--samples", "11"]
    assert main(["dynamics", "--config", str(config)] + window) == 0
    assert main(["dynamics", "--epsilon0", "1.0", "--delta-gap", "0.01", "--amplitude", "0.1",
                 "--carrier", "1.0", "--modulation", "1e-3", "--order", "1",
                 "--format", "csv", "--out", str(from_flags)] + window) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()
    assert len(from_file.read_text().splitlines()) == 12


def test_dynamics_reduced_method_matches_the_closed_form(tmp_path):
    # at exact resonance the closed form solves the reduced equations
    rows = {}
    for method in ("analytic", "reduced"):
        out = tmp_path / f"{method}.json"
        assert main(["dynamics", "--method", method, "--t-end", "2000", "--samples", "21",
                     "--out", str(out), "--format", "json"]) == 0
        rows[method] = json.loads(out.read_text())
    assert [row["t"] for row in rows["reduced"]] == [row["t"] for row in rows["analytic"]]
    p1 = np.array([[row["p1"] for row in rows[method]] for method in rows])
    assert np.min(p1) < 0.99  # the population moves
    assert np.max(np.abs(p1[0] - p1[1])) < 1e-8


def test_output_is_deterministic(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["sweep", "--ratio-min", "0", "--ratio-max", "0.5", "--ratio-step", "0.1",
            "--format", "csv"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_csv_reparses_to_printed_precision(tmp_path):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--ratio-min", "0", "--ratio-max", "1", "--ratio-step", "0.5",
          "--out", str(out), "--format", "csv"])
    lines = out.read_text().splitlines()
    assert lines[0] == "ratio,quasienergy_1"
    for line in lines[1:]:
        for cell in line.split(","):
            assert format_real(float(cell)) == cell


def test_spectrum_json_schema(tmp_path):
    out = tmp_path / "spectrum.json"
    code = main(["spectrum", "--amplitude", "0.4", "--out", str(out),
                 "--format", "json"])
    assert code == 0
    lines = json.loads(out.read_text())
    assert isinstance(lines, list) and lines
    assert set(lines[0]) == {"m", "n", "frequency", "weight"}
    assert all(line["weight"] >= 0 for line in lines)


@pytest.mark.parametrize("fmt, expected", [("csv", "m,n,frequency,weight\n"),
                                           ("json", "[]\n")])
def test_spectrum_empty_catalogue(tmp_path, capsys, fmt, expected):
    out = tmp_path / f"spectrum.{fmt}"
    assert main(["spectrum", "--weight-threshold", "3", "--out", str(out),
                 "--format", fmt]) == 0
    assert out.read_bytes() == expected.encode()
    assert capsys.readouterr().out == f"spectrum: wrote 0 lines to {out}\n"


def test_periodicity_command(tmp_path):
    out = tmp_path / "periodicity.json"
    code = main(["periodicity", "--order", "2", "--delta-gap", "0.401",
                 "--amplitude", "0.1", "--modulation", "1e-3", "--epsilon0", "2",
                 "--m-max", "4", "--n-max", "4", "--out", str(out),
                 "--format", "json"])
    assert code == 0
    rows = json.loads(out.read_text())
    best = min(rows, key=lambda row: row["residual"])
    assert (best["m"], best["n"]) == (2, 1)
    assert best["is_periodic"] is True


def test_oracle_command_reports_max_error(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    code = main(["oracle", "--modulation", "0.05", "--delta-gap", "0.005",
                 "--amplitude", "0.1", "--t-end", "120", "--samples", "61",
                 "--tol", "1e-8", "--out", str(out), "--format", "csv"])
    assert code == 0
    captured = capsys.readouterr()
    assert "max_abs_err = " in captured.out
    lines = out.read_text().splitlines()
    assert lines[0] == "t,p1_analytic,p1_full,abs_err"
    reported = float(_printed_values(captured.out)["max_abs_err"])
    errors = [float(line.split(",")[3]) for line in lines[1:]]
    assert reported == pytest.approx(max(errors), rel=1e-12)


def _printed_values(text: str) -> dict:
    return dict(line.split(" = ") for line in text.splitlines() if " = " in line)


def test_oracle_command_reports_the_corrected_reduction(tmp_path, capsys):
    # first order over three envelope periods pi/delta: the paper's |cos| closed form
    # departs from the full integration by about 0.99, the corrected
    # reduction (signed envelope and level shift) stays inside criterion 3's
    # 0.05 on the same samples
    code = main(["oracle", "--order", "1", "--amplitude", "0.3", "--delta-gap", "1e-2",
                 "--modulation", "2e-3", "--t-end", "4712.4",
                 "--out", str(tmp_path / "oracle.csv"), "--format", "csv"])
    assert code == 0
    values = _printed_values(capsys.readouterr().out)
    assert set(values) == {"max_abs_err", "max_abs_err_corrected"}
    assert float(values["max_abs_err"]) > 0.9
    assert float(values["max_abs_err_corrected"]) <= 0.05


def test_oracle_x_axis_reports_the_z_errors(tmp_path, capsys):
    # the Hadamard maps the z configuration onto the x one exactly, so the x
    # run, started from the image of |down> and read back through it, has
    # the z run's errors
    values = {}
    for axis in ("z", "x"):
        assert main(["oracle", "--axis", axis, "--t-end", "100", "--samples", "11",
                     "--out", str(tmp_path / f"{axis}.csv"), "--format", "csv"]) == 0
        values[axis] = _printed_values(capsys.readouterr().out)
    for key in ("max_abs_err", "max_abs_err_corrected"):
        assert float(values["x"][key]) == pytest.approx(float(values["z"][key]), abs=1e-10)


@pytest.mark.parametrize("argv, key", [
    (["zeros", "--ratio-max", "1e12"], "ratio_max"),
    (["sweep", "--ratio-max", "1e300", "--ratio-step", "1e-300"], "ratio_step"),
    (["sweep", "--ratio-max", "3", "--ratio-step", "1e-6"], "ratio_step"),
])
def test_cli_rejects_unbounded_windows(tmp_path, capsys, argv, key):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out), "--format", "csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["dynamics", "--samples", "1000000000000"],
     "'samples': 1000000000000 gives more than 1000000 rows"),
    (["oracle", "--samples", "1000001"], "'samples': 1000001 gives more than 1000000 rows"),
    (["periodicity", "--m-max", "100000", "--n-max", "100000"],
     "'n_max': 100000 gives more than 1000000 candidates with m_max = 100000"),
], ids=["dynamics", "oracle", "periodicity"])
def test_cli_refuses_more_rows_than_the_bound(tmp_path, monkeypatch, capsys, argv, message):
    def refused(*args, **kwargs):
        raise AssertionError("work started before the row bound was checked")

    for name in ("analytic_populations", "evolve_full", "periodicity_residual"):
        monkeypatch.setattr(cli, name, refused)
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out), "--format", "csv"]) == 1
    assert capsys.readouterr().err == f"error: invalid value for {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, rows", [
    (["periodicity", "--m-max", "4", "--n-max", "4"], 16),
    (["periodicity", "--m-max", "4", "--n-max", "5"], None),
    (["dynamics", "--samples", "16", "--t-end", "10"], 16),
    (["dynamics", "--samples", "17", "--t-end", "10"], None),
    (["sweep", "--ratio-max", "0.3"], 16),
    (["sweep", "--ratio-max", "0.32"], None),
    (["spectrum", "--weight-threshold", "1e-3"], 13),
    (["spectrum", "--weight-threshold", "1e-4"], None),
], ids=["periodicity-16", "periodicity-20", "dynamics-16", "dynamics-17", "sweep-16",
        "sweep-17", "spectrum-13", "spectrum-21"])
def test_the_row_bound_admits_its_own_count(tmp_path, monkeypatch, capsys, argv, rows):
    monkeypatch.setattr(cli, "MAX_ROWS", 16)
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out), "--format", "csv"]) == (0 if rows else 1)
    if rows:
        assert len(out.read_text().splitlines()) == rows + 1
    else:
        assert "gives more than 16 " in capsys.readouterr().err and not out.exists()


def test_dynamics_past_the_fold_fails_cleanly(tmp_path, capsys):
    # 4 eps t_end reaches the period pi/delta: every sample would fold onto 0
    out = tmp_path / "d.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["dynamics", "--method", "reduced", "--modulation", "2.5e-4", "--t-end",
                     "1e300", "--samples", "2", "--out", str(out), "--format", "csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "t_end = 1e+300 is too long" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_past_the_bessel_domain_fails_cleanly(tmp_path, capsys):
    # zeros refuses the same window; sweep used to write E_N past it
    out = tmp_path / "s.csv"
    assert main(["sweep", "--ratio-max", "600", "--out", str(out), "--format", "csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Bessel argument" in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_refuses_the_domain_before_computing(tmp_path, monkeypatch, capsys):
    quasienergy, calls = cli.quasienergy, []

    def counted(params):
        calls.append(params.drive_ratio)
        return quasienergy(params)

    monkeypatch.setattr(cli, "quasienergy", counted)
    assert main(["sweep", "--ratio-max", "600", "--out", str(tmp_path / "s.csv"),
                 "--format", "csv"]) == 1
    assert "Bessel argument" in capsys.readouterr().err
    assert len(calls) == 0


def test_cli_rule_message_names_the_key_and_its_rule(tmp_path, capsys):
    out = tmp_path / "z.csv"
    assert main(["zeros", "--ratio-min", "2", "--ratio-max", "1", "--out", str(out),
                 "--format", "csv"]) == 1
    assert capsys.readouterr().err == ("error: invalid value for 'ratio_max': must be finite "
                                       "and > ratio_min, got 1.0\n")
    assert not out.exists()


def test_cli_error_goes_to_stderr(tmp_path, capsys):
    code = main(["dynamics", "--carrier", "-1", "--out", str(tmp_path / "x.csv"),
                 "--format", "csv"])
    assert code == 1
    assert "carrier" in capsys.readouterr().err


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["dynamics", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "x.csv"), "--format", "csv"])
    assert code == 1
    assert "absent.cfg" in capsys.readouterr().err
