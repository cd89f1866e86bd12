"""CLI subcommands, strict config schema, and output-file stability."""

import csv
import dataclasses
import errno
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mirroratoms import cli
from conftest import checkout_env


def run_cli(*args):
    return cli.main(list(args))


# ---------------------------------------------------------------------
# RunConfig schema
# ---------------------------------------------------------------------

def test_config_roundtrip():
    cfg = cli.RunConfig(a_over_omega=0.7, omega_L=1.3, y_over_L=0.2,
                        alignment="vertical", d1=(0.0, 1.0, 0.0),
                        horizon=12.5, output_format="json")
    again = cli.RunConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_matrix_initial_state_roundtrip():
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    rho[0, 3] = rho[3, 0] = 0.1
    cfg = cli.RunConfig(initial_state=rho)
    again = cli.RunConfig.from_dict(cfg.to_dict())
    np.testing.assert_allclose(np.asarray(again.initial_state), rho)
    again.initial()  # parses and validates


def test_unknown_keys_are_rejected_by_name():
    with pytest.raises(cli.ConfigError, match="acceleration"):
        cli.RunConfig.from_dict({"acceleration": 0.5})


def test_invalid_values_are_config_errors():
    with pytest.raises(cli.ConfigError):
        cli.RunConfig.from_dict({"alignment": "sideways"})
    with pytest.raises(cli.ConfigError):
        cli.RunConfig.from_dict({"initial_state": "Q"})
    with pytest.raises(cli.ConfigError):
        cli.RunConfig.from_dict({"output_format": "xml"})
    with pytest.raises(cli.ConfigError):
        cli.RunConfig.from_dict({"horizon": -2.0})


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def test_coeffs_factor_two_near_mirror(capsys):
    rc = run_cli("coeffs", "--a", "0.5", "--omega-l", "1",
                 "--y-over-l", "1e-4", "--d1", "0,1,0", "--d2", "0,1,0")
    out = capsys.readouterr().out
    assert rc == 0
    values = {line.split(" = ")[0].strip(): float(line.split(" = ")[1])
              for line in out.splitlines() if " = " in line}
    coth = 1.0 / np.tanh(np.pi / 0.5)
    free_a1 = 0.25 * coth * 1.25
    assert abs(values["A1"] - 2.0 * free_a1) <= 1e-3 * abs(2.0 * free_a1)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"a_over_omega": 0.5, "omega_L": 1.0,
                                    "y_over_L": 0.5, "d1": [0, 1, 0],
                                    "d2": [0, 1, 0]}))
    rc = run_cli("coeffs", "--config", str(cfg_file), "--y-over-l", "1e-4")
    assert rc == 0
    out = capsys.readouterr().out
    a1 = float([l for l in out.splitlines() if "A1 =" in l][0].split("=")[1])
    coth = 1.0 / np.tanh(np.pi / 0.5)
    assert abs(a1 - 0.5 * coth * 1.25) <= 1e-3


def _read_csv(path):
    meta = {}
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            else:
                row = next(csv.reader([line]))
                if header is None:
                    header = row
                else:
                    rows.append(row)
    return meta, header, rows


def test_evolve_trajectory_schema(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = run_cli("evolve", "--a", "0.5", "--omega-l", "1", "--y-over-l",
                 "0.5", "--initial-state", "S", "--horizon", "2",
                 "--sample-step", "0.5", "--output", str(out))
    assert rc == 0
    meta, header, rows = _read_csv(out)
    assert header == ["gamma0_tau", "pG", "pE", "pA", "pS", "re_rhoAS",
                      "im_rhoAS", "re_rhoGE", "im_rhoGE", "concurrence"]
    assert meta["alignment"] == "parallel"
    assert meta["version"]
    assert float(rows[0][9]) == 1.0  # C(|S>) at tau = 0
    # 17 significant digits in the serialization
    assert any(len(cell.split(".")[-1]) >= 15 for cell in rows[1])
    taus = [float(r[0]) for r in rows]
    assert taus == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_evolve_frozen_configuration_constant_concurrence(tmp_path):
    out = tmp_path / "frozen.csv"
    rc = run_cli("evolve", "--a", "0.5", "--omega-l", "1", "--y-over-l",
                 "1e-4", "--d1", "1,0,0", "--d2", "0,0,1",
                 "--initial-state", "S", "--horizon", "10",
                 "--sample-step", "0.1", "--output", str(out))
    assert rc == 0
    _, _, rows = _read_csv(out)
    concurrence = np.array([float(r[9]) for r in rows])
    assert np.max(np.abs(concurrence - 1.0)) <= 1e-6


def test_events_json_report(tmp_path, capsys):
    out = tmp_path / "events.json"
    rc = run_cli("events", "--a", "0.5", "--omega-l", "1", "--y-over-l",
                 "0.1", "--alignment", "vertical", "--initial-state", "S",
                 "--horizon", "12", "--format", "json",
                 "--output", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["alignment"] == "vertical"
    assert len(doc["data"]["death_times"]) >= 1
    assert len(doc["data"]["revival_intervals"]) >= 1


def test_events_csv_lists_both_crossings(tmp_path):
    # the state dies near gamma0 tau = 3.88 and is reborn 0.07 later
    out = tmp_path / "events.csv"
    assert run_cli("events", "--a", "0.5", "--alignment", "vertical",
                   "--y-over-l", "0.1", "--initial-state", "S", "--horizon",
                   "20", "--output", str(out)) == 0
    rows = [row for row in _read_csv(out)[2] if row[0] in ("death", "birth")]
    assert [event for event, _ in rows] == ["death", "birth"]
    assert [float(time) for _, time in rows] == pytest.approx(
        [3.88178, 3.94832], abs=1e-5)


def test_a_failed_sweep_point_is_a_named_numerical_failure(tmp_path, capsys):
    # the point of the test above and one that passes, as a sweep: the
    # error goes in its row, and the exit status 2 says why on stderr
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "axis": "acceleration", "values": [0.5, 0.6], "initial_state": "E",
        "outputs": ["maxc"], "base": {"omega_L": 1e-3, "y_over_L": 0.5}}))
    out = tmp_path / "out"
    rc = run_cli("sweep", "--spec", str(spec_file), "--output", str(out))
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("numerical failure: 1 of 2 sweep points failed; "
                          "the first: pA is negative beyond tolerance")
    assert (out / "sweep_summary.csv").exists()


def test_a_generator_entry_that_overflows_is_a_numerical_failure():
    # finite rates near the largest double whose sums in the generator
    # overflow to inf.  No configuration gives such rates: the largest finite
    # closed-form rate is about 8.5e239.
    rates = cli.co.CoefficientSet(1e308, 1e308, 0.0, 1e308, 1e308, 0.0)
    with pytest.raises(cli.dy.PropagationError,
                       match="^a generator entry overflows or is NaN$"):
        cli.dy.build_generator(rates)


@pytest.mark.parametrize("alignment", ["parallel", "vertical"])
@pytest.mark.parametrize("a", ["1e-310", "5e-324"])
def test_subnormal_acceleration_gives_the_inertial_rates(a, alignment,
                                                         capsys):
    # 2/a overflows in the orbit phase, whose value is then s itself
    rc = run_cli("coeffs", "--a", a, "--alignment", alignment)
    captured = capsys.readouterr()
    assert rc == 0
    assert "Traceback" not in captured.err
    assert run_cli("coeffs", "--a", "0", "--alignment", alignment) == 0
    assert captured.out == capsys.readouterr().out


def test_presets_lists_figures(capsys):
    rc = run_cli("presets")
    out = capsys.readouterr().out
    assert rc == 0
    for k in range(2, 17):
        assert f"fig{k}" in out


def test_sweep_from_spec_file(tmp_path):
    spec = {
        "label": "demo", "axis": "boundary_distance",
        "values": [0.1, 0.7], "initial_state": "S", "horizon": 6.0,
        "outputs": ["maxc", "events", "curve"],
        "include_free_space": True,
        "base": {"a_over_omega": 0.5, "omega_L": 1.0,
                 "alignment": "vertical", "d1": [1, 0, 0], "d2": [1, 0, 0]},
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    rc = run_cli("sweep", "--spec", str(spec_file),
                 "--output", str(tmp_path))
    assert rc == 0
    meta, header, rows = _read_csv(tmp_path / "demo_summary.csv")
    assert len(rows) == 2
    assert "max_c" in header
    assert "free_max_c" in header
    _, cheader, crows = _read_csv(tmp_path / "demo_curves.csv")
    assert cheader[:4] == ["label", "axis_value", "gamma0_tau",
                           "concurrence"]
    assert len(crows) >= 2 * 600


def test_time_axis_events_scan_to_the_last_time(tmp_path):
    # the default horizon (40) ends before the last sample time (100); the
    # events must cover every sample, as the curve does, and the row and
    # the metadata state that span
    spec = {"label": "t", "axis": "time", "values": [0, 10, 50, 100],
            "initial_state": "S", "outputs": ["events", "maxc"]}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert run_cli("sweep", "--spec", str(spec_file),
                   "--output", str(tmp_path)) == 0
    _, cheader, crows = _read_csv(tmp_path / "t_curves.csv")
    curve = [float(r[cheader.index("concurrence")]) for r in crows]
    assert curve[0] == 1.0 and curve[1] > 0.0 and curve[2:] == [0.0, 0.0]
    meta, header, (row,) = _read_csv(tmp_path / "t_summary.csv")
    row = dict(zip(header, row))
    assert row["error"] == ""
    assert float(row["horizon"]) == 100.0
    assert float(meta["horizon"]) == 100.0
    assert "sample_step" not in meta
    assert row["n_deaths"] == "1"
    assert float(row["first_death"]) == pytest.approx(13.326, abs=1e-3)
    assert row["truncated"] == "false"


def test_sweep_spec_inline_initial_state_matches_preset(tmp_path):
    spec = {"label": "g", "axis": "acceleration", "values": [0.5, 2.0],
            "horizon": 5.0}
    summaries = []
    for init in ("G", [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                       [0, 0, 0, 0]]):
        outdir = tmp_path / str(len(summaries))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**spec, "initial_state": init}))
        assert run_cli("sweep", "--spec", str(spec_file),
                       "--output", str(outdir)) == 0
        _, header, rows = _read_csv(outdir / "g_summary.csv")
        summaries.append([{k: v for k, v in zip(header, row)
                           if k != "initial_state"} for row in rows])
    assert summaries[0] == summaries[1]


def test_sweep_output_records_the_resolved_configuration(tmp_path):
    rho = [[0.25, 0, 0, 0], [0, 0.25, [0.1, 0.05], 0],
           [0, [0.1, -0.05], 0.25, 0], [0, 0, 0, 0.25]]
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "label": "rec", "axis": "acceleration", "values": [0.5],
        "horizon": 2.0, "outputs": ["maxc", "curve"],
        "base": {"d1": [0, 1, 0], "omega_L": 2.0}, "initial_state": rho}))
    for fmt in ("csv", "json"):
        outdir = tmp_path / fmt
        assert run_cli("sweep", "--spec", str(spec_file), "--output",
                       str(outdir), "--format", fmt) == 0
        for kind in ("summary", "curves"):
            path = outdir / f"rec_{kind}.{fmt}"
            if fmt == "csv":
                specs = json.loads(_read_csv(path)[0]["specs"])
            else:
                specs = json.loads(path.read_text())["metadata"]["specs"]
            (record,) = specs
            assert record["label"] == "rec"
            assert record["base"]["d1"] == [0.0, 1.0, 0.0]
            assert record["base"]["d2"] == [1.0, 0.0, 0.0]
            assert record["base"]["L"] == 2.0
            assert record["base"]["a"] == 0.5
            matrix = np.array([[complex(*z) for z in row]
                               for row in record["initial_state"]])
            expected = np.array([[complex(*z) if isinstance(z, list)
                                  else complex(z) for z in row]
                                 for row in rho])
            assert np.allclose(matrix, expected, rtol=0, atol=1e-15)


def test_sweep_preset_end_to_end(tmp_path):
    rc = run_cli("sweep", "--preset", "fig12", "--output", str(tmp_path))
    assert rc == 0
    meta, header, rows = _read_csv(tmp_path / "fig12_summary.csv")
    assert len(rows) == 8  # two initial states x four accelerations
    assert meta["preset"] == "fig12"
    assert (tmp_path / "fig12_curves.csv").exists()


def test_unwritable_sweep_output_fails_before_any_point(tmp_path, capsys,
                                                        monkeypatch):
    # the label names the output files, and 300 characters is past the
    # file-name limit
    label = "x" * 300
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"label": label, "axis": "acceleration",
                                     "values": [0.5], "horizon": 1.0}))
    swept = []
    run_sweep = cli.sw.run_sweep
    monkeypatch.setattr(cli.sw, "run_sweep",
                        lambda spec: swept.append(spec) or run_sweep(spec))
    outdir = tmp_path / "out"
    rc = run_cli("sweep", "--spec", str(spec_file), "--output", str(outdir))
    err = capsys.readouterr().err
    assert rc == 1
    assert (f"configuration error: cannot write "
            f"{outdir / (label + '_summary.csv')}: ") in err
    assert swept == []
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_coeffs_format_without_an_output_is_a_config_error(
        source, tmp_path, capsys, monkeypatch):
    # coeffs prints its rates and writes a file only to --output, so a format
    # alone would be accepted and never used
    monkeypatch.chdir(tmp_path)
    if source == "flag":
        argv = ["--format", "json"]
    else:
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"output_format": "csv"}))
        argv = ["--config", str(cfg_file)]
    rc = run_cli("coeffs", *argv)
    assert (rc, capsys.readouterr()) == (
        1, ("", "configuration error: output_format (--format) needs "
                "output_path (--output): coeffs writes a file only there\n"))
    out = tmp_path / "rates.json"
    assert run_cli("coeffs", *argv, "--output", str(out)) == 0
    assert out.exists()


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "nested"))
    rc = run_cli("evolve", "--a", "0.5", "--omega-l", "1",
                 "--y-over-l", "0.5", "--horizon", "1",
                 "--sample-step", "0.5")
    assert rc == 0
    assert (tmp_path / "nested" / "trajectory.csv").exists()


def test_outdir_env_var_under_a_file_is_a_config_error(tmp_path, monkeypatch,
                                                       capsys):
    (tmp_path / "file").write_text("")
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "file" / "nested"))
    rc = run_cli("evolve", "--horizon", "1")
    err = capsys.readouterr().err
    assert rc == 1
    assert (f"configuration error: cannot write "
            f"{tmp_path / 'file' / 'nested' / 'trajectory.csv'}: ") in err


def test_validate_small_sample(capsys):
    for seed in ("7", "3"):
        rc = run_cli("validate", "--samples", "1", "--seed", seed)
        out = capsys.readouterr().out
        assert rc == 0
        worst = float(out.split("overall max relative error:")[1].split()[0])
        assert worst <= 0.01


def test_coeffs_oracle_prints_the_max_relative_error(capsys):
    rc = run_cli("coeffs", "--a", "0.5", "--omega-l", "1", "--y-over-l",
                 "0.1", "--oracle")
    out = capsys.readouterr().out
    assert rc == 0
    worst = float(out.split("oracle max relative error:")[1].split()[0])
    assert worst <= 0.01


@pytest.mark.parametrize("argv", [
    ["--a", "1e5"],
    ["--a", "0.5", "--omega-l", "1e-3", "--y-over-l", "0.5"],
    ["--a", "1e-310"],
    ["--a", "0", "--omega-l", "2.577778", "--y-over-l", "0.5",
     "--alignment", "vertical"],
    ["--a", "0.5", "--omega-l", "1", "--y-over-l", "1000"],
], ids=["a-1e5", "omega-l-1e-3", "a-subnormal", "fig18-vertical-a0",
        "far-mirror"])
def test_coeffs_oracle_converges_at_extreme_points(argv, capsys):
    # at a = 1e5 the window of 40/a is 4e-4, at omega L = 1e-3 two boundary
    # components cancel to a part in 1e3 of their parts, at a = 1e-310,
    # where 2/a overflows, the orbit is the inertial line, at the fig18
    # and fig20 vertical_a0 point one boundary component, 4.27e-5, sits
    # near a zero crossing, so its window tail is judged on a small value,
    # and at y/L = 1000 every boundary component nearly vanishes
    rc = run_cli("coeffs", *argv, "--oracle")
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    worst = float(captured.out.split("oracle max relative error:")[1]
                  .split()[0])
    assert worst <= 0.01


def test_inertial_coeffs_oracle_reads_the_algebraic_tail(capsys):
    # at a = 0 the correlation decays only like u^-4, so the window's tail
    # sets the error; the window of 400 leaves it far below 1e-6
    rc = run_cli("coeffs", "--a", "0", "--oracle")
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    worst = float(captured.out.split("oracle max relative error:")[1]
                  .split()[0])
    assert worst <= 8.9e-7


@pytest.mark.parametrize("argv", [["coeffs", "--oracle"],
                                  ["validate", "--samples", "2"]])
def test_an_oracle_failure_names_its_components(argv, capsys, monkeypatch):
    # a window of 1 cuts every component's tail off
    monkeypatch.setattr(cli.fc, "default_window", lambda a: 1.0)
    rc = run_cli(*argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("oracle validation FAILED")
    assert "free (1, 1) [11]: window truncation tail too large" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------
# refused input: a configuration error exits 1, a numerical failure 2, and
# each names its cause on one stderr line, never with a traceback
# ---------------------------------------------------------------------

_PREFIX = {1: "configuration error: ", 2: "numerical failure: "}


def _assert_refused(argv, files, code, message, work, capsys, monkeypatch):
    """Run ``argv`` in ``work`` with its input ``files`` written there (a
    name to a JSON value, or to raw text).  It exits ``code``, prints nothing
    on stdout, prints the code's prefix and ``message`` as its one stderr
    line, and leaves ``work`` holding only its inputs.  A message that ends
    in OS text is the pair (its text before that, the path the OS names)."""
    work.mkdir(exist_ok=True)
    monkeypatch.chdir(work)
    for name, value in files.items():
        (work / name).write_text(
            value if isinstance(value, str) else json.dumps(value))
    rc = cli.main(argv.split())
    out, err = capsys.readouterr()
    if isinstance(message, tuple):
        head, path = message
        assert err.startswith(_PREFIX[code] + head), err
        assert err.endswith(f": {path!r}\n") and err.count("\n") == 1, err
    else:
        assert err == _PREFIX[code] + message + "\n"
    assert (rc, out) == (code, "")
    inputs = sorted(work / name for name in files)
    _assert_exit_contract(rc, err, work, inputs)
    assert sorted(work.iterdir()) == inputs


def _x_matrix(ge=0.0, as_=0.0):
    return [[0.25, 0, 0, ge], [0, 0.25, as_, 0],
            [0, as_, 0.25, 0], [ge, 0, 0, 0.25]]


_A05 = {"axis": "acceleration", "values": [0.5]}
_LABEL = ("sweep label must be a non-empty string naming a file, without "
          f"'/', {os.sep!r} or NUL, and not '.' or '..'; got ")
_GRID = f"asks for more than {cli.en.MAX_SAMPLES} grid samples"
_JSON_ERROR = ("Expecting property name enclosed in double quotes: "
               "line 1 column 2 (char 1)")

# Every refused input, by the test that runs it: a dict is one case per id,
# a list one case that runs its rows in turn.  A row is the argv (split on
# spaces), the input files, the exit code and the message (_assert_refused).
REFUSED = {
    # every rate is in units of Gamma0 and every time is Gamma0 tau
    "test_gamma0_is_the_unit_not_an_input": {
        "flag": ("coeffs --gamma0 2", {}, 1,
                 "unrecognized arguments: --gamma0 2"),
        "config": ("coeffs --config in.json", {"in.json": {"gamma0": 1}}, 1,
                   "unknown config key(s): gamma0"),
        "spec": ("sweep --spec in.json --output out",
                 {"in.json": {**_A05, "base": {"gamma0": 1}}}, 1,
                 "unknown base key(s): gamma0"),
    },
    "test_bad_config_file_exits_1": [
        ("coeffs --config run.json",
         {"run.json": {"a_over_omega": 0.5, "granularity": 3}}, 1,
         "unknown config key(s): granularity"),
        # events runs no oracle
        ("events --config run.json", {"run.json": {"oracle_validation": True}},
         1, "unknown config key(s): oracle_validation"),
    ],
    "test_coeffs_takes_no_flag_of_a_scan": {
        f"argv{i}": (f"coeffs {flags} --output c.csv", {}, 1,
                     f"unrecognized arguments: {flags}")
        for i, flags in enumerate(["--initial-state S", "--horizon 5",
                                   "--sample-step 0.5"])},
    # argparse's own exit 2 would read as a numerical failure
    "test_argument_errors_are_config_errors": {
        "float": ("coeffs --a abc", {}, 1,
                  "argument --a: invalid float value: 'abc'"),
        "choice": ("coeffs --alignment diagonal", {}, 1,
                   "argument --alignment: invalid choice: 'diagonal' "
                   "(choose from 'parallel', 'vertical')"),
        "int": ("validate --samples x", {}, 1,
                "argument --samples: invalid int value: 'x'"),
        "no-command": ("", {}, 1,
                       "the following arguments are required: command"),
    },
    "test_malformed_dipole_flag_is_a_config_error": [
        ("coeffs --d1 x,0,0", {}, 1,
         "invalid dipole flag: could not convert string to float: 'x'")],
    "test_non_finite_inputs_are_config_errors": {
        case: (f"{argv} --output out.csv", {}, 1, message)
        for case, argv, message in [
            ("argv0-acceleration must be finite", "coeffs --a nan",
             "acceleration must be finite"),
            ("argv1-acceleration must be finite", "coeffs --a inf",
             "acceleration must be finite"),
            ("argv2-boundary distance y must be finite",
             "coeffs --y-over-l inf", "boundary distance y must be finite"),
            ("argv3-separation L must be finite", "coeffs --omega-l nan",
             "separation L must be finite"),
            ("argv4-d1 must be a unit vector", "coeffs --d1 nan,0,0",
             "d1 must be a unit vector (|d1| = nan)"),
            ("argv5-separation L must be finite", "evolve --omega-l inf",
             "separation L must be finite"),
            ("argv6-horizon must be finite", "evolve --horizon inf",
             "horizon must be finite"),
            ("argv7-sample_step must be finite", "evolve --sample-step nan",
             "sample_step must be finite"),
        ]},
    # the norm prints as a Python float, not as a numpy scalar
    "test_a_dipole_off_the_unit_sphere_is_named_with_its_norm": {
        f"{d1}-{norm}": (f"coeffs --d1 {d1}", {}, 1,
                         f"d1 must be a unit vector (|d1| = {norm})")
        for d1, norm in [("0,0,0", "0.0"), ("nan,0,0", "nan"),
                         ("1,1,0", "1.4142135623730951")]},
    "test_an_underflowing_boundary_distance_is_named": [
        ("coeffs --omega-l 1e-300 --y-over-l 1e-300", {}, 1,
         "boundary distance y = (y/L) * L = 1e-300 * 1e-300 underflows to 0")],
    "test_an_unknown_state_preset_is_named_by_the_state_table": [
        ("evolve --initial-state Q --output t.csv", {}, 1,
         "invalid initial_state: unknown state preset 'Q'; "
         "use one of ['A', 'E', 'G', 'S']")],
    # an over-fine grid is refused before any array is allocated: at 1e300 /
    # 1e-300 horizon / sample_step overflows, and a 1e22-sample grid fails
    # in numpy
    "test_over_fine_evolve_grid_is_a_config_error": {
        "overflow": ("evolve --horizon 1e300 --sample-step 1e-300 "
                     "--output x.csv", {}, 1,
                     f"horizon / sample_step = inf {_GRID}"),
        "huge": ("evolve --horizon 1e20 --output x.csv", {}, 1,
                 f"horizon / sample_step = 1e+22 {_GRID}"),
    },
    "test_over_fine_spec_grid_is_a_config_error": {
        case: ("sweep --spec spec.json --output out",
               {"spec.json": {**_A05, **grid}}, 1,
               f"invalid sweep spec: horizon / sample_step = {ratio} {_GRID}")
        for case, grid, ratio in [
            ("overflow", {"horizon": 1e300, "sample_step": 1e-300}, "inf"),
            ("huge", {"horizon": 1e20}, "1e+22")]},
    "test_unreadable_config_file_is_a_config_error": {
        "missing": ("coeffs --config run.json", {}, 1,
                    ("cannot read config file run.json: ", "run.json")),
        "malformed": ("coeffs --config run.json", {"run.json": "{not json"},
                      1, f"cannot read config file run.json: {_JSON_ERROR}"),
    },
    "test_non_numeric_config_horizon_is_named": {
        str(horizon): ("evolve --config run.json --output x.csv",
                       {"run.json": {"horizon": horizon}}, 1,
                       "horizon must be a number")
        for horizon in ["x", True]},
    # JSON strings and true/false are not read by truthiness or through
    # float(): a flag must be true or false, and a number a number
    "test_config_field_of_the_wrong_json_type_is_named": {
        case: (f"{command} --config run.json --output out.csv",
               {"run.json": data}, 1, message)
        for case, command, data, message in [
            ("oracle-string", "coeffs", {"oracle_validation": "false"},
             "oracle_validation must be true or false"),
            ("companion-string", "evolve",
             {"include_free_space_companion": "no"},
             "include_free_space_companion must be true or false"),
            ("companion-int", "evolve", {"include_free_space_companion": 1},
             "include_free_space_companion must be true or false"),
            ("a-bool", "coeffs", {"a_over_omega": True},
             "a_over_omega must be a number"),
            ("omega-string", "coeffs", {"omega_L": "1.5"},
             "omega_L must be a number"),
            ("y-list", "events", {"y_over_L": [0.5]},
             "y_over_L must be a number"),
            ("a-null", "events", {"a_over_omega": None},
             "a_over_omega must be a number"),
            ("step-bool", "evolve", {"sample_step": False},
             "sample_step must be a number"),
            ("d1-bool", "coeffs", {"d1": [True, 0, 0]},
             "d1 must be a list of numbers"),
            ("d2-string", "coeffs", {"d2": ["1", 0, 0]},
             "d2 must be a list of numbers"),
            ("d1-string", "coeffs", {"d1": "100"},
             "d1 must be a list of numbers"),
        ]},
    "test_config_output_path_of_the_wrong_json_type_is_named": {
        case: ("coeffs --config run.json", {"run.json": {"output_path": path}},
               1, "output_path must be a string")
        for case, path in [("number", 5), ("bool", True), ("list", ["a"]),
                           ("object", {}), ("null", None)]},
    "test_invalid_inline_initial_state_is_a_config_error": {
        case: ("evolve --config run.json --output out.csv",
               {"run.json": {"initial_state": matrix}}, 1, message)
        for case, matrix, message in [
            ("non-positive", _x_matrix(ge=0.6), "invalid initial_state: "
             "density matrix is not positive semidefinite"),
            ("ragged", [[1, 0, 0]] + [[0, 0, 0, 0]] * 3, "inline "
             "initial_state must be a 4x4 matrix of numbers or [re, im] "
             "pairs"),
            ("nan-as", _x_matrix(as_=float("nan")), "invalid initial_state: "
             "density matrix entries must be finite"),
            ("short-pair", [[0.25, 0, 0, [0.1]]] + _x_matrix()[1:], "inline "
             "initial_state must be a 4x4 matrix of numbers or [re, im] "
             "pairs"),
        ]},
    # the closed-form rates at this point are not completely positive and pA
    # leaves the state space within the first samples
    "test_propagation_failure_is_a_numerical_failure": {
        command: (f"{command} --a 0.5 --omega-l 1e-3 --y-over-l 0.5 "
                  "--initial-state E --output out.csv", {}, 2,
                  "pA is negative beyond tolerance at gamma0_tau = 0.11")
        for command in ["evolve", "events"]},
    "test_overflowing_closed_forms_are_a_numerical_failure": {
        case: (f"{argv} --output out.csv", {}, 2,
               f"closed-form rates {failure} at a/omega = {a}, "
               f"omega*L = {wl}, y/L = {y} ({alignment} alignment)")
        for case, argv, failure, a, wl, y, alignment in [
            ("a-1e80", "coeffs --a 1e80 --y-over-l 0.5", "overflow", "1e+80",
             "1.0", "0.5", "parallel"),
            ("wl-1e300", "coeffs --omega-l 1e300", "overflow", "0.5",
             "1e+300", "0.5", "parallel"),
            ("wl-1e-300", "coeffs --omega-l 1e-300", "divide by zero", "0.5",
             "1e-300", "0.5", "parallel"),
            ("a-1e200-vertical", "coeffs --a 1e200 --alignment vertical",
             "are not finite", "1e+200", "1.0", "0.5", "vertical"),
            ("evolve", "evolve --a 1e200", "overflow", "1e+200", "1.0", "0.5",
             "parallel"),
            # 2y overflows to inf, and the image chord's phase with it
            ("chord", "coeffs --y-over-l 1e308", "overflow", "0.5", "1.0",
             "1e+308", "parallel"),
            ("chord-inertial", "coeffs --a 0 --y-over-l 1e308", "overflow",
             "0.0", "1.0", "1e+308", "parallel"),
            ("chord-vertical", "coeffs --y-over-l 1e308 --alignment vertical",
             "overflow", "0.5", "1.0", "1e+308", "vertical"),
        ]},
    "test_unwritable_evolve_output_is_a_config_error": [
        ("evolve --horizon 1 --output missing/x.csv", {}, 1,
         ("cannot write missing/x.csv: ", "missing/x.csv"))],
    "test_sweep_without_preset_or_spec_is_a_config_error": [
        ("sweep", {}, 1, "either --preset or --spec is required")],
    "test_sweep_unknown_preset_exits_1": [
        ("sweep --preset fig99", {}, 1,
         "unknown preset 'fig99'; see 'presets'")],
    "test_sweep_takes_a_preset_or_a_spec_not_both": [
        ("sweep --preset fig3 --spec missing.json", {}, 1,
         "argument --spec: not allowed with argument --preset"),
        # an empty preset name is a preset name that names no preset
        ("sweep --preset=", {}, 1, "unknown preset ''; see 'presets'"),
    ],
    # --spec= gives a spec path, the empty one, and no file has that path
    "test_an_empty_spec_path_is_named": [
        ("sweep --spec=", {}, 1, ("cannot read spec file : ", ""))],
    "test_unreadable_spec_file_is_a_config_error": {
        "missing": ("sweep --spec spec.json --output .", {}, 1,
                    ("cannot read spec file spec.json: ", "spec.json")),
        "malformed": ("sweep --spec spec.json --output .",
                      {"spec.json": "{not json"}, 1,
                      f"cannot read spec file spec.json: {_JSON_ERROR}"),
    },
    "test_sweep_spec_rejects_unknown_keys": [
        ("sweep --spec spec.json",
         {"spec.json": {"axis": "time", "values": [0], "resolution": 5}}, 1,
         "unknown sweep key(s): resolution")],
    "test_unsafe_sweep_label_is_a_config_error": {
        case: ("sweep --spec spec.json --output out",
               {"spec.json": {"label": label, **_A05, "horizon": 1.0}}, 1,
               _LABEL + repr(label))
        for case, label in [("slash", "sub/x"), ("parent", "../escaped"),
                            ("list", ["x", 1]), ("empty", ""), ("dot", "."),
                            ("dotdot", ".."), ("nul", "nul\0")]},
    "test_invalid_sweep_spec_is_a_config_error": {
        case: ("sweep --spec spec.json --output .", {"spec.json": spec}, 1,
               message)
        for case, spec, message in [
            ("spec0-axis", {"values": [0.5]}, "sweep spec lacks key(s): axis"),
            ("spec1-values", {"axis": "acceleration"},
             "sweep spec lacks key(s): values"),
            ("spec2-separation L must be positive",
             {**_A05, "base": {"omega_L": -1.0}},
             "invalid sweep spec: separation L must be positive"),
            ("spec3-horizon must be finite", {**_A05, "horizon": float("inf")},
             "invalid sweep spec: horizon must be finite"),
            ("spec4-unknown state preset 'Q'", {**_A05, "initial_state": "Q"},
             "invalid sweep spec: unknown state preset 'Q'; "
             "use one of ['A', 'E', 'G', 'S']"),
            ("spec5-not positive semidefinite",
             {**_A05, "initial_state": [[0.5, 0, 0, 0], [0, 0.5, 0, 0],
                                        [0, 0, 0.5, 0], [0, 0, 0, -0.5]]},
             "invalid sweep spec: density matrix is not positive "
             "semidefinite"),
            ("spec6-base must be a JSON object", {**_A05, "base": 5},
             "sweep spec base must be a JSON object"),
            ("spec7-invalid sweep spec: sample_step must be a number",
             {**_A05, "sample_step": "fine"},
             "invalid sweep spec: sample_step must be a number"),
        ]},
    "test_spec_field_of_the_wrong_json_type_is_named": {
        case: ("sweep --spec spec.json --output out",
               {"spec.json": {**_A05, **fields}}, 1,
               f"invalid sweep spec: {message}")
        for case, fields, message in [
            ("free-string", {"include_free_space": "no"},
             "include_free_space must be true or false"),
            ("free-null", {"include_free_space": None},
             "include_free_space must be true or false"),
            ("values-bool", {"values": [True]}, "values must be numbers"),
            ("values-string", {"values": ["0.5"]}, "values must be numbers"),
            ("values-text", {"values": "0.5"}, "values must be numbers"),
            ("base-bool", {"base": {"a_over_omega": False}},
             "a_over_omega must be a number"),
            ("base-d2-string", {"base": {"d2": [0, "1", 0]}},
             "d2 must be a list of numbers"),
        ]},
    # a time axis samples its own values: a horizon and a step it would
    # never read are refused by name, whether or not they make a valid grid
    "test_a_time_axis_spec_takes_no_scan_grid": {
        f"{key}-{value}": ("sweep --spec spec.json --output out",
                           {"spec.json": {"axis": "time", "values": [0, 1, 2],
                                          key: value}}, 1,
                           f"a time-axis sweep spec samples its values and "
                           f"takes no {key}")
        for key, value in [("horizon", 1e9), ("sample_step", 0.5)]},
    "test_a_grid_no_point_can_take_is_a_config_error": {
        case: ("sweep --spec spec.json --output out", {"spec.json": spec}, 1,
               f"invalid sweep spec: {message}")
        for case, spec, message in [
            ("negative-time", {"axis": "time", "values": [-1, 2]},
             "times must be non-negative and ascending"),
            ("descending-time", {"axis": "time", "values": [3, 1]},
             "times must be non-negative and ascending"),
            ("zero-separation", {"axis": "separation", "values": [0]},
             "separation value 0.0: separation L must be positive"),
        ]},
}


def _refusal_test(group):
    """The test of one group of REFUSED."""
    if isinstance(group, dict):
        @pytest.mark.parametrize("row", list(group.values()), ids=list(group))
        def test(row, tmp_path, capsys, monkeypatch):
            _assert_refused(*row, tmp_path, capsys, monkeypatch)
    else:
        def test(tmp_path, capsys, monkeypatch):
            for i, row in enumerate(group):
                _assert_refused(*row, tmp_path / str(i), capsys, monkeypatch)
    return test


# each group runs as the test of its name, so every case keeps its test id
for _name, _group in REFUSED.items():
    globals()[_name] = _refusal_test(_group)


# ---------------------------------------------------------------------
# a command accepts and records exactly the settings it reads
# ---------------------------------------------------------------------

_RUN_FIELDS = {f.name: f.default for f in dataclasses.fields(cli.RunConfig)}


def _fields_read(command):
    """The RunConfig fields a command reads: the dests of its flags."""
    return set(_RUN_FIELDS) & set(vars(cli.build_parser().parse_args(
        [command])))


@pytest.mark.parametrize("command", ["coeffs", "evolve", "events"])
def test_a_config_file_sets_only_what_its_command_reads(command, tmp_path,
                                                        capsys):
    # coeffs scans nothing, and neither evolve nor events runs the oracle;
    # events writes no free-space companion.  A key at its default value
    # is refused for its name alone.
    unread = sorted(set(_RUN_FIELDS) - _fields_read(command))
    assert unread
    out = tmp_path / "out.csv"
    for key in unread:
        cfg_file = tmp_path / f"{key}.json"
        cfg_file.write_text(json.dumps({key: _RUN_FIELDS[key]}))
        rc = run_cli(command, "--config", str(cfg_file), "--output", str(out))
        assert (rc, capsys.readouterr().err) == (
            1, f"configuration error: unknown config key(s): {key}\n")
        assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command, extra", [
    ("coeffs", set()), ("evolve", {"propagation"}),
    ("events", {"refine_tol"})], ids=["coeffs", "evolve", "events"])
def test_metadata_records_exactly_the_settings_read(command, extra, fmt,
                                                    tmp_path):
    out = tmp_path / f"out.{fmt}"
    scan = [] if command == "coeffs" else ["--horizon", "1"]
    assert run_cli(command, *scan, "--format", fmt, "--output", str(out)) == 0
    meta = (_read_csv(out)[0] if fmt == "csv"
            else json.loads(out.read_text())["metadata"])
    assert set(meta) == _fields_read(command) | {"tool", "version"} | extra


def test_unwritable_coeffs_output_fails_before_the_oracle(tmp_path, capsys,
                                                         monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "_oracle_report",
                        lambda cfg: reports.append(cfg)
                        or (0, {"max_rel_error": 0.0}))
    out = tmp_path / "missing" / "x.csv"
    rc = run_cli("coeffs", "--oracle", "--output", str(out))
    captured = capsys.readouterr()
    assert rc == 1
    assert f"configuration error: cannot write {out}: " in captured.err
    assert reports == []
    assert " = " not in captured.out
    assert not out.parent.exists()


def test_unwritable_validate_output_fails_before_the_battery(tmp_path, capsys,
                                                           monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "_oracle_report",
                        lambda cfg: reports.append(cfg)
                        or (0, {"max_rel_error": 0.0,
                                "worst_component": "", "failures": []}))
    out = tmp_path / "missing" / "x.csv"
    rc = run_cli("validate", "--samples", "1", "--output", str(out))
    captured = capsys.readouterr()
    assert rc == 1
    assert f"configuration error: cannot write {out}: " in captured.err
    assert reports == []
    assert captured.out == ""
    assert not out.parent.exists()


@pytest.mark.parametrize("argv, message", [
    (["--samples", "0"], "--samples must be at least 1, got 0"),
    (["--samples", "-3"], "--samples must be at least 1, got -3"),
    (["--seed", "-1"], "--seed must be non-negative, got -1"),
], ids=["samples-0", "samples-negative", "seed-negative"])
def test_invalid_validate_flags_are_config_errors(argv, message, capsys,
                                                  monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "_oracle_report",
                        lambda cfg: reports.append(cfg)
                        or (0, {"max_rel_error": 0.0,
                                "worst_component": "", "failures": []}))
    rc = run_cli("validate", *argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"configuration error: {message}\n"
    assert reports == []
    assert captured.out == ""


@pytest.mark.parametrize("command", ["evolve", "events"])
def test_unwritable_output_fails_before_propagation(command, tmp_path,
                                                    capsys, monkeypatch):
    scanned = []
    scan = cli.en.scan_trajectory
    monkeypatch.setattr(cli.en, "scan_trajectory",
                        lambda *a: scanned.append(a) or scan(*a))
    out = tmp_path / "missing" / "x.csv"
    rc = run_cli(command, "--horizon", "1", "--output", str(out))
    err = capsys.readouterr().err
    assert rc == 1
    assert f"configuration error: cannot write {out}: " in err
    assert scanned == []
    assert not out.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device whose writes fail")
@pytest.mark.parametrize("argv", [
    ["evolve", "--horizon", "1"], ["events", "--horizon", "1"], ["coeffs"],
    ["validate", "--samples", "2", "--seed", "3"],
], ids=["evolve", "events", "coeffs", "validate"])
def test_a_write_that_fails_is_a_config_error(argv, capsys):
    # /dev/full opens, and every write to it fails with ENOSPC
    rc = run_cli(*argv, "--output", "/dev/full")
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("configuration error: cannot write /dev/full: ")
    assert "No space left on device" in err


def test_a_failed_write_removes_the_file_it_made(tmp_path, capsys,
                                                monkeypatch):
    def full(fh, block):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_write_float_rows", full)
    out = tmp_path / "x.csv"
    rc = run_cli("evolve", "--horizon", "1", "--output", str(out))
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"configuration error: cannot write {out}: ")
    assert not out.exists()
    # a file that was there before the run keeps its bytes, and the sibling
    # the run wrote to is gone
    out.write_text("old")
    assert run_cli("evolve", "--horizon", "1", "--output", str(out)) == 1
    assert out.read_text() == "old"
    assert list(tmp_path.iterdir()) == [out]
    # a run that succeeds replaces it and keeps its permission bits
    out.chmod(0o640)
    monkeypatch.undo()
    assert run_cli("evolve", "--horizon", "1", "--output", str(out)) == 0
    assert out.read_text().startswith("# tool = mirroratoms\n")
    assert out.stat().st_mode & 0o777 == 0o640
    assert list(tmp_path.iterdir()) == [out]


# an inner-block eigenvalue of -1e-11, within the -1e-10 that states allow,
# makes the K2 radicand -2e-11
_NEGATIVE_INNER = [[0.5, 0, 0, 0], [0, -1e-11, 0, 0],
                   [0, 0, 0.50000000001, 0], [0, 0, 0, 0]]


@pytest.mark.parametrize("command", ["events", "evolve", "sweep"])
def test_every_accepted_state_has_a_concurrence(command, tmp_path, capsys):
    kind = "spec" if command == "sweep" else "config"
    data = {"initial_state": _NEGATIVE_INNER, "horizon": 2}
    if kind == "spec":
        data.update(axis="acceleration", values=[0.5])
    (tmp_path / "in.json").write_text(json.dumps(data))
    rc = run_cli(command, f"--{kind}", str(tmp_path / "in.json"),
                 "--output", str(tmp_path / "out"))
    assert (rc, capsys.readouterr().err) == (0, "")


# the parallel point's A1 is 7.8e239, near the largest finite closed-form
# rate (about 8.5e239); the vertical point's rates, as large, propagate to NaN
_HUGE_RATES = ["--a", "1e30", "--omega-l", "1000", "--y-over-l", "1e-8"]
_NAN_RATES = ["--a", "1e30", "--omega-l", "1e-8", "--y-over-l", "1000",
              "--alignment", "vertical", "--d1", "0,1,0", "--d2", "0,1,0"]


@pytest.mark.parametrize("argv, failure", [
    (["events", *_HUGE_RATES], None),
    (["evolve", *_HUGE_RATES], None),
    (["events", *_NAN_RATES], "populations must sum to 1, got nan"),
], ids=["events", "evolve", "events-nan"])
def test_extreme_rates_warn_about_nothing(argv, failure, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run_cli(*argv, "--output", str(tmp_path / "out.csv"))
    err = capsys.readouterr().err
    if failure is None:
        assert (rc, err) == (0, "")
    else:
        assert rc == 2
        assert err.startswith(f"numerical failure: {failure}")
        assert err.count("\n") == 1 and err.endswith("\n")


# the base of a sweep point whose boundary rates, near 7.8e239, propagate;
# its free-space companion's populations end in NaN
_HUGE_BASE = {"a_over_omega": 1e30, "omega_L": 1000, "y_over_L": 1e-8}


def test_an_overflowing_sweep_point_warns_about_nothing(tmp_path, capsys):
    # the frozen test multiplies the largest rate, 7.8e239, by the span
    (tmp_path / "spec.json").write_text(json.dumps({
        "axis": "acceleration", "values": [1e30], "include_free_space": True,
        "base": _HUGE_BASE}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = run_cli("sweep", "--spec", str(tmp_path / "spec.json"),
                     "--output", str(tmp_path / "out"))
    err = capsys.readouterr().err
    # the companion's propagation fails, and the row names it
    assert (rc, err) == (2, "numerical failure: 1 of 1 sweep points failed; "
                            "the first: populations must sum to 1, got nan "
                            "at gamma0_tau = 0.01\n")


def test_refining_at_an_overflowing_horizon_warns_about_nothing(tmp_path):
    # event refinement's state_at multiplies the rates, near 7.8e239, by
    # times near 1e300; a fresh process prints numpy's warnings, which
    # the test process's warning registry may already have swallowed
    (tmp_path / "spec.json").write_text(json.dumps({
        "axis": "acceleration", "values": [1e30], "horizon": 1e300,
        "sample_step": 1e298, "base": _HUGE_BASE}))
    proc = subprocess.run(
        [sys.executable, "-m", "mirroratoms.cli", "sweep", "--spec",
         str(tmp_path / "spec.json"), "--output", str(tmp_path / "out")],
        env=checkout_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("coeffs", "--help")
    assert exc.value.code == 0
    assert "--y-over-l" in capsys.readouterr().out


def test_every_physics_flag_is_named_after_its_config_field():
    # _load_config lays each flag given over the config file by its dest,
    # so every dest but the file's own must name a RunConfig field, and a
    # flag not given must read None
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    dests = {}
    for command in ("coeffs", "evolve", "events"):
        namespace = vars(cli.build_parser().parse_args([command]))
        dests.update((key, value) for key, value in namespace.items()
                     if key not in ("command", "func", "config", "expansion"))
    assert set(dests) == fields
    assert set(dests.values()) == {None}


# zero, the subnormal and overflow edges, the non-finite values and a
# string that is no number, for every float flag of coeffs, events and
# evolve
_EDGE_ARGS = ["0", "5e-324", "-5e-324", "1e308", "-1e308", "nan", "inf",
              "-inf", "abc"]
_FLOAT_FLAGS = ["--a", "--omega-l", "--y-over-l", "--sample-step"]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from([("coeffs",), ("events", "--horizon", "2"),
                                 ("evolve", "--horizon", "2")]),
       flags=st.dictionaries(st.sampled_from(_FLOAT_FLAGS),
                             st.sampled_from(_EDGE_ARGS), max_size=3))
@example(command=("coeffs",), flags={"--y-over-l": "1e308"})
@example(command=("coeffs",), flags={"--a": "abc"})
def test_every_exit_code_names_its_cause(command, flags, tmp_path, capsys):
    # an uncaught exception fails the call itself; "--flag=value" lets a
    # negative value reach the program instead of reading as a flag
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    rc = run_cli(*command, *(f"{k}={v}" for k, v in flags.items()),
                 "--output", str(out))
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    assert (rc == 1) == err.startswith("configuration error")
    assert (rc == 2) == err.startswith("numerical failure")
    # a configuration error is refused before any output is written
    assert rc != 1 or not out.exists()


# every JSON type of the wrong kind (string, bool, list, object, null) and
# the edge numbers, for the fields of a --config or --spec file
_JSON_EDGES = ["abc", "", "1", True, False, [], [0.5], [1, 0, 0], {}, None,
               0, -1, 0.5, 5e-324, 1e308, -1e308]
_FILE_KEYS = {
    "config": [f.name for f in dataclasses.fields(cli.RunConfig)],
    "spec": [f.name for f in dataclasses.fields(cli.sw.SweepSpec)
             if f.name != "base"],
}
# output_path only from the values that name no path, so that no drawn
# path is written
_EDGE_FIELDS = st.lists(
    st.sampled_from(sorted({*_FILE_KEYS["config"], *_FILE_KEYS["spec"]}))
    .flatmap(lambda key: st.tuples(st.just(key), st.sampled_from(
        [v for v in _JSON_EDGES if not isinstance(v, str)]
        if key == "output_path" else _JSON_EDGES))),
    max_size=3, unique_by=lambda item: item[0]).map(dict)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["coeffs", "events", "evolve", "sweep"]),
       fields=_EDGE_FIELDS,
       base=st.dictionaries(st.sampled_from(cli._PHYSICAL_KEYS),
                            st.sampled_from(_JSON_EDGES), max_size=2))
@example(command="coeffs", fields={"oracle_validation": "false"}, base={})
@example(command="sweep", fields={"include_free_space": "no"}, base={})
@example(command="sweep", fields={"values": [True]}, base={})
# the free-space companion of this point propagates to NaN, and the sweep
# exits 2 with the point's error
@example(command="sweep", fields={"include_free_space": True},
         base=_HUGE_BASE)
@example(command="coeffs", fields={"output_path": 5}, base={})
def test_every_exit_code_of_a_file_names_its_cause(command, fields, base,
                                                   tmp_path, capsys,
                                                   monkeypatch):
    # the config file holds the physical keys itself, a spec in its base
    kind = "spec" if command == "sweep" else "config"
    fields = {k: v for k, v in fields.items() if k in _FILE_KEYS[kind]}
    fields = ({"axis": "acceleration", "values": [0.5], **fields,
               "base": base} if kind == "spec" else {**base, **fields})
    # hypothesis reuses tmp_path across examples
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(work)
    path = work / f"{kind}.json"
    path.write_text(json.dumps(fields))
    # the output file of coeffs, events and evolve; the directory of sweep.
    # --output would replace a drawn output_path, so that one goes alone.
    out = work / "out"
    output = [] if "output_path" in fields else ["--output", str(out)]
    rc = run_cli(command, f"--{kind}", str(path), *output)
    _assert_exit_contract(rc, capsys.readouterr().err, work, [path])


def _assert_exit_contract(rc, err, work, inputs):
    """Exit 2 and 1 each name their cause on stderr, and a configuration
    error leaves no file under ``work`` but the run's ``inputs``."""
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    assert (rc == 1) == err.startswith("configuration error")
    assert (rc == 2) == (err.startswith("numerical failure")
                         or err.startswith("oracle validation FAILED"))
    # a configuration error is refused before any output is written
    if rc == 1:
        assert sorted(p for p in work.rglob("*") if p.is_file()) == inputs


# one-point sweep specs: a good one, one whose companion propagates to NaN
# (exit 2), one that is malformed (exit 1), and a spec file that is missing
_ONE_POINT_SPECS = [
    {"axis": "acceleration", "values": [0.5], "horizon": 2},
    {"axis": "acceleration", "values": [1e30], "horizon": 2,
     "base": _HUGE_BASE, "include_free_space": True},
    {"axis": "acceleration", "values": []},
    None,
]
# edge integers and strings; no count above 2, so that a validate battery
# stays within two configurations
_COUNT_ARGS = ["1", "2", "0", "-1", "-9223372036854775809", "1e3", "0x10",
               "abc", ""]
_RUN_FLAGS = {
    "sweep": {"--preset": st.sampled_from(["fig3", "fig11", "fig99", "",
                                           "FIG3", "fig3 "]),
              "--format": st.sampled_from(["csv", "json", "xml", ""]),
              "--spec": st.sampled_from(range(len(_ONE_POINT_SPECS)))},
    "validate": {"--seed": st.sampled_from(
        ["0", "3", "18446744073709551616", *_COUNT_ARGS[3:]])},
}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(_RUN_FLAGS)), data=st.data())
def test_every_exit_code_of_sweep_and_validate_names_its_cause(
        command, data, tmp_path, capsys, monkeypatch):
    flags = data.draw(st.fixed_dictionaries({}, optional=_RUN_FLAGS[command]))
    if command == "validate":
        # always given, since the default battery is 20 configurations
        flags["--samples"] = data.draw(st.sampled_from(_COUNT_ARGS))
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(work)
    inputs = []
    if "--spec" in flags:
        spec = _ONE_POINT_SPECS[flags["--spec"]]
        flags["--spec"] = str(work / "spec.json")
        if spec is not None:
            Path(flags["--spec"]).write_text(json.dumps(spec))
            inputs.append(Path(flags["--spec"]))
    # the report file of validate; the directory of sweep
    out = work / ("out" if command == "sweep" else "report.csv")
    rc = run_cli(command, *(f"{k}={v}" for k, v in flags.items()),
                 "--output", str(out))
    _assert_exit_contract(rc, capsys.readouterr().err, work, inputs)


# ---------------------------------------------------------------------
# float bodies: the same bytes as the csv.writer loop they replace
# ---------------------------------------------------------------------

def _reference_write_csv(path, meta, header, rows):
    """The csv.writer + _fmt loop that wrote every CSV body before
    :class:`cli.FloatRows`."""
    with open(path, "w", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key} = {json.dumps(value) if isinstance(value, (list, dict)) else cli._fmt(value)}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._fmt(v) for v in row])


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e16, 1e17,
                123456789012345678.0, float("nan"), float("inf"),
                float("-inf"), 1.0, -3.0, 42.0, 1e15, 0.1, 1 / 3,
                # exact ties at the 17th digit, which round half to even
                1234567890123456.75, 1234567890123457.25,
                # the switch between fixed and exponent notation
                *(np.nextafter(x, to) for x in (1e-5, 1e-4)
                  for to in (0.0, x, 1.0)),
                9.9999999999999992e22]

# every power of ten a double reaches and both neighbours of each: 10**k
# as the nearest double and as 10.0 ** k, which can differ by an ulp
_POWERS_OF_TEN = [float(x) for k in range(-323, 309)
                  for p in {float(f"1e{k}"), 10.0 ** k}
                  for x in (np.nextafter(p, -np.inf), p,
                            np.nextafter(p, np.inf))]


def _assert_same_bytes(tmp_path, header, body, reference_rows):
    meta = {"tool": "mirroratoms", "specs": [{"label": "x"}], "step": 0.01}
    cli.write_csv(tmp_path / "new.csv", meta, header, body)
    _reference_write_csv(tmp_path / "ref.csv", meta, header, reference_rows)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_float_rows_match_the_csv_writer_loop(tmp_path, rng):
    # more rows than one formatted write holds, edge values in each column
    values = rng.standard_normal((2 * cli._CELLS_PER_WRITE // 4 + 37, 4))
    values *= 10.0 ** rng.integers(-300, 300, size=values.shape)
    for col in range(values.shape[1]):
        rows = rng.choice(len(values), size=len(_EDGE_FLOATS), replace=False)
        values[rows, col] = np.roll(_EDGE_FLOATS, col)
    # the trajectory rows were Python floats from ndarray.tolist()
    _assert_same_bytes(tmp_path, list("abcd"), [cli.FloatRows(values)],
                       values.tolist())


def test_labelled_float_rows_match_the_csv_writer_loop(tmp_path, rng):
    labels = ["plain", "a,b", 'say "hi"', "100%", "%s%%d", "two\nlines",
              "cr\rlf", " spaced "]
    sizes = [0, 1, 30, 5, 17, 3, 8, cli._CELLS_PER_WRITE // 4 + 88]
    pool = np.concatenate([_EDGE_FLOATS, rng.standard_normal(20)])
    body, reference = [], []
    for i, (label, size) in enumerate(zip(labels, sizes)):
        values = rng.choice(pool, size=(size, 2 + i % 2))
        body.append(cli.FloatRows(values, lead=(label, _EDGE_FLOATS[i])))
        # the sweep curve rows were the label, the axis value and numpy
        # scalars
        reference += [[label, _EDGE_FLOATS[i], *row] for row in values]
    _assert_same_bytes(tmp_path, ["label", "axis_value", "t", "c", "f"],
                       body, reference)


def test_narrow_labelled_bodies_take_blocks_of_cells(tmp_path, rng,
                                                    monkeypatch):
    # a preset curve body: a one-record lead and 3 columns, so a block holds
    # _CELLS_PER_WRITE // 4 rows, and 2,001 rows take 2 blocks, not 4
    blocks = []
    g17_block = cli._g17_block
    monkeypatch.setattr(cli, "_g17_block", lambda values, lead=b"": (
        blocks.append(len(values)) or g17_block(values, lead)))
    lead = ("parallel", 0.1)
    values = rng.standard_normal((2001, 3))
    values[::7, 1] = 0.0
    _assert_same_bytes(tmp_path, ["label", "axis_value", "t", "c", "f"],
                       [cli.FloatRows(values, lead=lead)],
                       [[*lead, *row] for row in values.tolist()])
    per_block = cli._CELLS_PER_WRITE // 4
    assert blocks == [per_block, 2001 - per_block]
    # an 11-column trajectory body keeps 512-row blocks
    blocks.clear()
    cli.write_csv(tmp_path / "t.csv", {}, ["x"] * 11,
                  [cli.FloatRows(rng.standard_normal((1100, 11)))])
    assert blocks == [512, 512, 76]


def test_powers_of_ten_and_their_neighbours_match(tmp_path):
    values = np.array(_POWERS_OF_TEN)
    values = np.concatenate([values, -values])[:, None] * [1.0, 1.0]
    values[:, 1] = values[::-1, 0]
    _assert_same_bytes(tmp_path, ["a", "b"], [cli.FloatRows(values)],
                       values.tolist())


_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.uint64(b).view(np.float64)))


# exact zeros skip the kernel's digit arithmetic, so they are drawn often
_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cells=st.lists(_SIGNED_ZEROS | _BIT_PATTERNS | st.floats()
                      | st.sampled_from(_EDGE_FLOATS + _POWERS_OF_TEN),
                      max_size=60),
       cols=st.integers(1, 6),
       cells_per_write=st.sampled_from([1, 3, 7, 5632]),
       lead=st.sampled_from([(), ("fig2", 0.5), ("a,b", -0.0),
                             ('say "hi"', float("nan"))]),
       zeros=st.sampled_from(["as drawn", "every cell", "no cell",
                              "first column only"]))
def test_float_rows_match_the_csv_writer_loop_on_any_bits(
        cells, cols, cells_per_write, lead, zeros, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CELLS_PER_WRITE", cells_per_write)
    values = np.array(cells[:len(cells) // cols * cols]).reshape(-1, cols)
    signed_zeros = np.copysign(0.0, values)
    if zeros == "every cell":
        values = signed_zeros
    elif zeros != "as drawn":
        # the smallest subnormal of the zero's sign takes its place
        values = np.where(values == 0, np.copysign(5e-324, values), values)
        if zeros == "first column only":
            values[:, 0] = signed_zeros[:, 0]
    _assert_same_bytes(tmp_path, ["label", "x"],
                       [cli.FloatRows(values, lead=lead)],
                       [[*lead, *row] for row in values.tolist()])


@pytest.mark.parametrize("state", ["G", "E", "A", "S"])
def test_evolve_bodies_match_the_csv_writer_loop(state, tmp_path):
    # an X-state trajectory: Im rho_AS and rho_GE are exact zeros, and so is
    # the concurrence wherever it has died
    config = cli.RunConfig(a_over_omega=0.5, alignment="vertical",
                           y_over_L=0.1, initial_state=state, horizon=20.0,
                           include_free_space_companion=True)
    out = tmp_path / "t.csv"
    assert run_cli("evolve", "--a", "0.5", "--alignment", "vertical",
                   "--y-over-l", "0.1", "--initial-state", state,
                   "--horizon", "20", "--free-space-companion",
                   "--output", str(out)) == 0
    _, rows = cli._trajectory_rows(config)
    assert np.all(rows[:, 6:9] == 0)
    _reference_write_csv(tmp_path / "ref.csv", {},
                         [*cli._TRAJ_HEADER, "free_concurrence"],
                         rows.tolist())
    reference = (tmp_path / "ref.csv").read_bytes()
    assert out.read_bytes().endswith(b"\n" + reference)


# ---------------------------------------------------------------------
# metadata and the parser
# ---------------------------------------------------------------------

def test_line_break_in_a_metadata_value_stays_on_its_line(tmp_path):
    out = tmp_path / "a\nb\rc.csv"
    rc = run_cli("evolve", "--horizon", "1", "--sample-step", "0.5",
                 "--output", str(out))
    assert rc == 0
    lines = out.read_bytes().split(b"\r\n")[0].split(b"\n")
    header = lines.index(b"gamma0_tau,pG,pE,pA,pS,re_rhoAS,im_rhoAS,"
                         b"re_rhoGE,im_rhoGE,concurrence")
    assert all(line.startswith(b"# ") for line in lines[:header])
    meta, _, _ = _read_csv(out)
    assert json.loads(meta["output_path"]) == str(out)


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_every_splitlines_break_in_a_metadata_value_stays_on_its_line(
        brk, tmp_path):
    # a reader that splits on str.splitlines() ends a line at each of these
    out = tmp_path / f"a{brk}b.csv"
    rc = run_cli("evolve", "--horizon", "1", "--sample-step", "0.5",
                 "--output", str(out))
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    header = lines.index("gamma0_tau,pG,pE,pA,pS,re_rhoAS,im_rhoAS,"
                         "re_rhoGE,im_rhoGE,concurrence")
    assert all(line.startswith("# ") for line in lines[:header])
    assert f"# output_path = {json.dumps(str(out))}" in lines[:header]


def test_empty_metadata_value_stays_bare(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    assert run_cli("evolve", "--horizon", "1", "--sample-step", "0.5") == 0
    lines = (tmp_path / "trajectory.csv").read_text().split("\n")
    assert "# output_path = " in lines


def test_main_leaks_nothing_between_calls(tmp_path):
    # the parser is built once per process; each run must still write
    # what a fresh process writes
    common = ["--a", "0.5", "--alignment", "vertical", "--y-over-l", "0.1",
              "--initial-state", "S", "--horizon", "6"]
    runs = [["evolve", *common, "--free-space-companion"],
            ["evolve", *common], ["events", *common]]
    in_process = []
    for i, argv in enumerate(runs):
        out = tmp_path / f"run{i}.csv"
        assert cli.main([*argv, "--output", str(out)]) == 0
        in_process.append(out.read_bytes())
    env = checkout_env()
    for i, argv in enumerate(runs):
        out = tmp_path / f"run{i}.csv"
        out.unlink()
        subprocess.run([sys.executable, "-m", "mirroratoms.cli", *argv,
                        "--output", str(out)], env=env, check=True,
                       capture_output=True, timeout=120)
        assert out.read_bytes() == in_process[i], argv
