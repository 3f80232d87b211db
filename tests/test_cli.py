import json
import math

import numpy as np
import pytest

from floquet_qubit.cli import ConfigError, format_real, main, parse_config


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
    assert config.fmt == "csv"
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


def test_flags_override_file():
    config = parse_config(BASE_FILE, overrides={"amplitude": 0.7, "out": "real.csv"},
                          command="zeros")
    assert config.params.amplitude == 0.7
    assert config.out == "real.csv"


def test_flags_alone_match_file_form():
    overrides = dict(epsilon0=1.0, delta_gap=0.01, amplitude=0.1, carrier=1.0,
                     modulation=1e-3, order=1, format="csv", out="x.csv")
    from_flags = parse_config("", overrides=overrides, command="dynamics")
    from_file = parse_config(BASE_FILE, overrides={"out": "x.csv"}, command="dynamics")
    assert from_flags == from_file


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
