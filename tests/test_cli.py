"""Command-line surface: every subcommand in process, exit-code contract."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neoms.dynamics
from neoms.cli import build_parser, main
from neoms.config import RunConfig
from neoms.model import LinewidthConvention, derive
from neoms.bifurcation import bistability_window, family_sweep
from neoms.output import FAMILY_HEADER, family_to_csv
from curve_csv import parse_curve_csv
from neoms.presets import PRESETS, get_preset
from draws import clean_system

SUB_THRESHOLD = """\
cavity_length = 0.25 m
wavelength = 1064 nm
mass1 = 145 ng
mass2 = 145 ng
omega1 = 2pi*947 kHz
omega2 = 2pi*947 kHz
gamma1 = 2pi*140 kHz
gamma2 = 2pi*140 kHz
kappa = 2pi*215 kHz
delta_c_over_kappa = 0.5
g0 = 2pi*5 kHz
drive_power = 9 mW
"""


@pytest.fixture(scope="module")
def clean_conf(tmp_path_factory):
    rng = np.random.default_rng(509)
    params, drives = clean_system(rng, min_detuning_kappa=2.5)
    cfg = RunConfig(params=params, drives=drives)
    path = tmp_path_factory.mktemp("conf") / "clean.conf"
    path.write_text(cfg.snapshot(), encoding="utf-8")
    win = bistability_window(derive(params, drives), drives)
    return str(path), win


def test_curve_preset_csv(capsys):
    assert main(["curve", "--preset", "fig2", "--points", "31"]) == 0
    out = capsys.readouterr().out
    comments, rows = parse_curve_csv(out)
    assert rows and any("kappa = " in c for c in comments)
    assert max(r["branch_index"] for r in rows) == 2


def test_curve_json_kind(capsys):
    assert main(["curve", "--preset", "fig2", "--points", "11",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "curve" and doc["method"] == "eigen"
    assert len(doc["points"]) == 11


def test_overflowing_power_is_an_unsolved_point(capsys):
    """A power whose drive amplitude overflows is recorded as unsolved; it
    does not abort the sweep with an eigenvalue failure (exit 4)."""
    argv = ["curve", "--preset", "fig2", "--pmin", "1e-9", "--pmax",
            "1e300", "--points", "3"]
    msg = "root residual contract violated"
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert [ln for ln in out.splitlines() if ln.startswith("# unsolved")] \
        == [f"# unsolved point at power_W = {p}: {msg}"
            for p in ("5e+299", "1e+300")]
    assert main(argv + ["--format", "json"]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert len(points[0]["branches"]) == 3
    # eps^2 overflowed too: JSON has no inf, so it reads null
    assert [(p["eps_sq"], p["error"], p["branches"]) for p in points[1:]] \
        == [(None, msg, [])] * 2


def test_mirror_kind_and_slope_method(capsys):
    assert main(["mirror", "--preset", "fig8a", "--points", "11",
                 "--format", "json", "--method", "slope"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "mirror" and doc["method"] == "slope-rule"
    branches = doc["points"][5]["branches"]
    assert all(b["stability_margin"] is None for b in branches)
    assert any(b["q1_m"] != 0.0 for b in branches)


def test_window_preset(capsys):
    assert main(["window", "--preset", "fig2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exists"] is True
    assert doc["power_up_W"] == pytest.approx(3.7258716992579795e-09,
                                              rel=1e-12)


def test_window_absent_exits_3_but_reports(tmp_path, capsys):
    conf = tmp_path / "sub.conf"
    conf.write_text(SUB_THRESHOLD, encoding="utf-8")
    assert main(["window", "--config", str(conf), "--format", "json"]) == 3
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["exists"] is False and doc["reason"] == "below_threshold"
    assert "below_threshold" in captured.err


def test_curve_without_window_needs_bounds(tmp_path, capsys):
    conf = tmp_path / "sub.conf"
    conf.write_text(SUB_THRESHOLD, encoding="utf-8")
    for argv, reason in (
            (["curve"], "below_threshold"),
            (["hysteresis"], "below_threshold"),
            (["family", "--vary", "g0", "--values", "2pi*4 kHz, 2pi*5 kHz"],
             "no family member is bistable")):
        assert main(argv + ["--config", str(conf)]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].endswith("give explicit power bounds"), lines[0]
        assert reason in lines[0]
    assert main(["curve", "--config", str(conf), "--points", "5",
                 "--pmin", "1e-12", "--pmax", "1e-10"]) == 0
    _, rows = parse_curve_csv(capsys.readouterr().out)
    assert len(rows) == 5   # single valued everywhere below threshold


def _reversed_slope_conf(tmp_path, detuning):
    """fig2 at gc = 2pi*1 MHz, past the Kerr slope's sign change."""
    text = get_preset("fig2").text
    for old, new in (("gc = 0 rad/s", "gc = 2pi*1 MHz"),
                     ("delta_c_over_kappa = 3.6",
                      f"delta_c_over_kappa = {detuning}")):
        assert old in text
        text = text.replace(old, new)
    conf = tmp_path / f"reversed_{detuning}.conf"
    conf.write_text(text, encoding="utf-8")
    return str(conf)


def test_reversed_kerr_slope_window_curve_and_threshold(tmp_path, capsys):
    """Past the Kerr slope's sign change the window sits at negative
    detuning: its folds come in order, the default grid spans it with
    three roots inside, and the threshold is reported on that side."""
    conf = _reversed_slope_conf(tmp_path, -3.6)
    assert main(["window", "--config", conf, "--format", "json"]) == 0
    win = json.loads(capsys.readouterr().out)
    assert win["x_c_minus"] < win["x_c_plus"]
    assert win["power_down_W"] < win["power_up_W"] and win["width_W"] > 0.0
    assert win["fold_ratio"] == pytest.approx(8.057443846721128, rel=1e-12)
    assert main(["threshold", "--config", conf, "--format", "json"]) == 0
    thr = json.loads(capsys.readouterr().out)
    assert thr["in_kappa_units"] == win["threshold_in_kappa_units"] \
        == pytest.approx(-3 ** 0.5 / 2, rel=1e-14)
    assert main(["curve", "--config", conf, "--points", "21"]) == 0
    _, rows = parse_curve_csv(capsys.readouterr().out)
    inside = [r for r in rows
              if win["power_down_W"] < r["power_W"] < win["power_up_W"]]
    assert inside and max(r["branch_index"] for r in inside) == 2


def test_reversed_kerr_slope_wrong_side_exits_3(tmp_path, capsys):
    """The same config at +3.6 kappa has no window, and names the side."""
    conf = _reversed_slope_conf(tmp_path, 3.6)
    assert main(["window", "--config", conf, "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["reason"] == "wrong_detuning_side"
    assert captured.err == "no bistability window: wrong_detuning_side\n"
    assert main(["curve", "--config", conf]) == 3
    assert capsys.readouterr().err == ("no bistability: wrong_detuning_side; "
                                       "give explicit power bounds\n")


def test_threshold_both_conventions(capsys):
    assert main(["threshold", "--preset", "fig2", "--format", "json"]) == 0
    half = json.loads(capsys.readouterr().out)
    assert half["in_kappa_units"] == pytest.approx(0.8660254037844385,
                                                   rel=1e-14)
    assert main(["threshold", "--preset", "fig2", "--format", "json",
                 "--convention", "kappa"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert full["in_kappa_units"] == pytest.approx(3 ** 0.5, rel=1e-14)


def test_hysteresis_algebraic(capsys):
    assert main(["hysteresis", "--preset", "fig2", "--points", "101",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["up_jump_powers_W"] and doc["down_jump_powers_W"]
    assert doc["up"][0][1] < doc["up"][-1][1]


def test_hysteresis_lists_unsolved_points_as_curve_does(capsys):
    """An overflowing drive leaves grid points unsolved; `hysteresis` lists
    them in both formats with the lines and pairs `curve` writes."""
    grid = ["--preset", "fig2", "--pmin", "1e-9", "--pmax", "1e300",
            "--points", "3"]
    unsolved = [[5e299, "root residual contract violated"],
                [1e300, "root residual contract violated"]]
    listed = [f"# unsolved point at power_W = {p!r}: {e}" for p, e in unsolved]
    for cmd in ("curve", "hysteresis"):
        assert main([cmd, *grid]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("# unsolved")] == listed
    assert main(["hysteresis", *grid, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["unsolved"] == unsolved
    assert doc["up"] == doc["down"] == [[1e-9, doc["up"][0][1]]]


def test_family_lists_each_members_unsolved_points(capsys):
    """An overflowing drive leaves each member's top grid points unsolved;
    the family CSV lists them, each with its member's value, where the JSON
    carries their errors."""
    grid = ["--preset", "fig3", "--pmin", "1e-9", "--pmax", "1e300",
            "--points", "3"]
    assert main(["family", *grid, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    listed = [f"# unsolved point at g0 = {m['value']!r}, "
              f"power_W = {pt['power_W']!r}: {pt['error']}"
              for m in doc["members"] for pt in m["curve"]
              if pt["error"] is not None]
    assert len(listed) == 6
    assert main(["family", *grid]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("# unsolved")] == listed
    assert len(lines) == lines.index(FAMILY_HEADER) + 10


def test_hysteresis_dynamic_on_clean_point(clean_conf, capsys):
    path, win = clean_conf
    assert main(["hysteresis", "--config", path, "--mode", "dynamic",
                 "--points", "9", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["up_jump_powers_W"]
    step = doc["up"][1][0] - doc["up"][0][0]
    assert abs(doc["up_jump_powers_W"][0] - win.power_up) <= 2 * step


def test_family_from_preset(capsys):
    assert main(["family", "--preset", "fig3", "--points", "21",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vary"] == "g0" and len(doc["members"]) == 3
    widths = [m["window"]["width_W"] for m in doc["members"]]
    assert widths[0] > widths[1] > widths[2]


def test_family_cli_override(capsys):
    assert main(["family", "--preset", "fig2", "--vary", "delta_c",
                 "--values", "2pi*580.5 kHz, 2pi*774 kHz",
                 "--points", "11", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["vary"] == "delta_c" and len(doc["values"]) == 2


def test_family_needs_vary(capsys):
    assert main(["family", "--preset", "fig2"]) == 2
    assert "vary" in capsys.readouterr().err


def test_dynamics_settles_on_clean_point(clean_conf, capsys):
    path, win = clean_conf
    power = (win.power_down * win.power_up) ** 0.5
    assert main(["dynamics", "--config", path, "--power", repr(power),
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "steady_fields"
    assert doc["photon_number"] > 0.0


def test_dynamics_limit_cycle_exits_4(capsys):
    # vacuum start well above the window at the wide headline linewidth:
    # the only root is oscillatory, so relaxation must fail loudly
    assert main(["dynamics", "--preset", "fig2", "--power", "1.2e-8"]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_fig_dispatches_by_preset_shape(capsys):
    assert main(["fig", "fig2", "--points", "11", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "curve"
    assert main(["fig", "fig7", "--points", "11", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "family" and doc["vary"] == "g0"
    assert main(["fig", "fig8a", "--points", "11", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "mirror"


def test_bad_config_exits_2(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("kappa = fish\n", encoding="utf-8")
    assert main(["window", "--config", str(conf)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["window", "--config", str(tmp_path / "missing.conf")]) == 2


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    assert main(["window", "--preset", "fig2", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write output "
                          f"{target}: "), err


def test_family_sweep_convention_reaches_every_member(capsys):
    """family_sweep derives each member under the convention it is given,
    and writes the bytes that `family --convention kappa` prints."""
    assert main(["family", "--preset", "fig5", "--convention", "kappa"]) == 0
    printed = capsys.readouterr().out
    cfg = get_preset("fig5").config()._replace(
        convention=LinewidthConvention.FULL_KAPPA)
    fam = family_sweep(cfg.params, cfg.drives, cfg.vary, cfg.values,
                       convention=LinewidthConvention.FULL_KAPPA)
    assert {m.derived.convention for m in fam.members} == {
        LinewidthConvention.FULL_KAPPA}
    text = family_to_csv(fam, cfg.snapshot(),
                         get_preset("fig5").assumptions)
    assert text == printed


def test_usage_errors_exit_2(tmp_path, capsys):
    sub = tmp_path / "sub.conf"
    sub.write_text(SUB_THRESHOLD, encoding="utf-8")
    phi_inf = tmp_path / "phi_inf.conf"
    phi_inf.write_text(SUB_THRESHOLD + "phi1 = inf rad\n", encoding="utf-8")
    vary = tmp_path / "vary.conf"
    vary.write_text(get_preset("fig2").text + "vary = g0\n", encoding="utf-8")
    phi_nan = tmp_path / "phi_nan.conf"
    phi_nan.write_text(get_preset("fig2").text
                       + "phi1 = nan rad\neps1 = 1e6 rad/s\n",
                       encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["curve"])   # neither --config nor --preset
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    for argv, says in (
            (["curve", "--preset", "fig2", "--points", "1"], "points"),
            (["curve", "--preset", "fig2", "--pmin", "1e-9",
              "--pmax", "1e-10"], "pmax"),
            (["fig", "fig3", "--points", "-2"], "points"),
            (["family", "--preset", "fig3", "--points", "0"], "points"),
            # a vary key with no values anywhere, and an empty value
            (["family", "--config", str(vary)],
             "family needs values, from --values or the config\n"),
            (["family", "--preset", "fig6a", "--vary", "phi1",
              "--values", "1 rad,,2 rad", "--points", "3"],
             "empty entry in --values\n"),
            # the factor as typed, not the dwell in seconds
            (["hysteresis", "--preset", "fig2", "--mode", "dynamic",
              "--dwell-factor", "-1", "--points", "3"],
             "dwell_factor: must be finite and > 0, got -1.0\n"),
            # the bad option, not the missing window (exit 3), is reported
            (["hysteresis", "--config", str(sub), "--mode", "dynamic",
              "--dwell-factor", "-1"],
             "dwell_factor: must be finite and > 0, got -1.0\n"),
            # the algebraic mode does not use the dwell, but still refuses it
            (["hysteresis", "--preset", "fig2", "--dwell-factor", "-1",
              "--points", "3"],
             "dwell_factor: must be finite and > 0, got -1.0\n"),
            # a non-finite phase, from a config file or a family value
            (["window", "--config", str(phi_inf)],
             "phi1: must be finite, got inf\n"),
            (["window", "--config", str(phi_nan), "--format", "json"],
             "phi1: must be finite, got nan\n"),
            (["family", "--preset", "fig6a", "--vary", "phi1",
              "--values", "inf rad", "--points", "3"],
             "phi1: must be finite, got inf\n"),
            # a non-finite grid bound never reaches np.linspace
            (["curve", "--preset", "fig2", "--pmin", "nan", "--pmax", "1",
              "--points", "3"], "pmin: must be finite, got nan\n"),
            (["hysteresis", "--preset", "fig2", "--pmin", "0",
              "--pmax", "inf", "--points", "3"],
             "pmax: must be finite, got inf\n"),
            # the power as typed, not the drive amplitude it overflows to
            (["dynamics", "--preset", "fig2", "--power", "1e300"],
             "power: drive amplitude overflows at 1e+300 W\n"),
            # a finite drive amplitude whose steady-state cubic overflows
            (["dynamics", "--preset", "fig2", "--power", "1e150"],
             "power: steady-state cubic overflows at 1e+150 W\n")):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and \
            err.count("\n") == 1, argv
        assert says in err, err


@pytest.mark.parametrize("argv", [
    ["curve", "--preset", "fig2", "--points", "11"],
    ["mirror", "--preset", "fig2", "--points", "11"],
    ["window", "--preset", "fig2"],
    ["threshold", "--preset", "fig2"],
    ["hysteresis", "--preset", "fig2", "--points", "11"],
    ["family", "--preset", "fig2", "--vary", "g0",
     "--values", "2pi*5 kHz, 2pi*6 kHz", "--points", "11"],
    ["dynamics", "--preset", "fig2", "--power", "2e-9"],
    ["fig", "fig2", "--points", "11"],
], ids=lambda argv: argv[0])
def test_json_envelope_on_every_command(argv, capsys):
    assert main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] in ("curve", "mirror", "window", "threshold",
                           "hysteresis", "family", "steady_fields")
    assert doc["snapshot"][0].startswith("cavity_length = ")
    assert doc["assumptions"] == list(get_preset("fig2").assumptions)


def test_out_file_matches_stdout(tmp_path, capsys):
    assert main(["window", "--preset", "fig4", "--format", "json"]) == 0
    stdout_text = capsys.readouterr().out
    target = tmp_path / "win.json"
    assert main(["window", "--preset", "fig4", "--format", "json",
                 "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == stdout_text


def test_identical_invocations_identical_bytes(capsys):
    assert main(["curve", "--preset", "fig5", "--points", "41"]) == 0
    first = capsys.readouterr().out
    assert main(["curve", "--preset", "fig5", "--points", "41"]) == 0
    assert capsys.readouterr().out == first


_SCIPY_PROBE = """
import contextlib, io, json, sys
loaded = {}
import neoms
loaded["import neoms"] = "scipy" in sys.modules
import neoms.cli
loaded["import neoms.cli"] = "scipy" in sys.modules
codes = []
for argv in (["window", "--preset", "fig2"],
             ["dynamics", "--preset", "fig2", "--power", "2e-9"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(neoms.cli.main(argv))
    loaded[argv[0]] = "scipy" in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_algebraic_paths_do_not_import_scipy(subprocess_env):
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE],
                          env=subprocess_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0, 0]
    assert report["loaded"] == {"import neoms": False,
                                "import neoms.cli": False, "window": False,
                                "dynamics": False}
    from neoms import relax_to_steady
    assert relax_to_steady is neoms.dynamics.relax_to_steady
    for name in ("ORIGIN", "MeanFieldState", "hysteresis_loop"):
        assert getattr(neoms, name) is getattr(neoms.dynamics, name)
    with pytest.raises(AttributeError):
        neoms.no_such_name


_WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None    # every import of scipy now fails
import neoms.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(neoms.cli.main(argv))
print(json.dumps(codes))
"""


def test_every_command_runs_without_scipy(clean_conf, subprocess_env):
    path, win = clean_conf
    power = repr((win.power_down * win.power_up) ** 0.5)
    commands = [
        ["curve", "--preset", "fig2", "--points", "11"],
        ["mirror", "--preset", "fig8a", "--points", "11"],
        ["window", "--preset", "fig2"],
        ["threshold", "--preset", "fig2"],
        ["hysteresis", "--preset", "fig2", "--points", "11"],
        ["family", "--preset", "fig3", "--points", "11"],
        ["fig", "fig2", "--points", "11"],
        ["dynamics", "--preset", "fig2", "--power", "2e-9"],
        ["dynamics", "--config", path, "--power", power],
        ["hysteresis", "--config", path, "--mode", "dynamic",
         "--points", "9"],
    ]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY,
                           json.dumps(commands)],
                          env=subprocess_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(commands)


_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None    # every import of numpy now fails
import neoms.cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([neoms.cli.main(argv), out.getvalue()])
print(json.dumps(runs))
"""

_LOADS_NUMPY = """
import contextlib, io, sys
heavy = ("numpy", "dataclasses", "inspect")
import neoms
loaded = [[name in sys.modules for name in heavy]]
import neoms.cli
loaded.append([name in sys.modules for name in heavy])
with contextlib.redirect_stdout(io.StringIO()):
    neoms.cli.main(["curve", "--preset", "fig2", "--format", "json"])
print(loaded + ["numpy" in sys.modules])
"""


def test_csv_commands_run_without_numpy(subprocess_env, capsys):
    """Every CSV command of the benchmark's CLI mix, and the slope rule,
    prints the same bytes with numpy blocked: stability comes from
    intervals in the photon number.  Only the JSON margins load numpy, and
    neither `import neoms` nor `import neoms.cli` loads it, `dataclasses`
    or `inspect`."""
    commands = [
        ["window", "--preset", "fig2"],
        ["threshold", "--preset", "fig2"],
        ["curve", "--preset", "fig2"],
        ["hysteresis", "--preset", "fig2"],
        ["dynamics", "--preset", "fig2", "--power", "2e-9"],
        ["curve", "--preset", "fig2", "--method", "slope"],
    ] + [["fig", name] for name in sorted(PRESETS)]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY,
                           json.dumps(commands)],
                          env=subprocess_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    assert len(blocked) == len(commands) == 19
    for argv, (code, out) in zip(commands, blocked):
        assert (code, out) == (main(argv), capsys.readouterr().out), argv
    proc = subprocess.run([sys.executable, "-c", _LOADS_NUMPY],
                          env=subprocess_env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    none = "[False, False, False]"
    assert proc.stdout == f"[{none}, {none}, True]\n"


@pytest.mark.parametrize("argv, says", [
    (["dynamics", "--preset", "fig2", "--power", "nan"],
     "power: must be finite, got nan"),
    (["dynamics", "--preset", "fig2", "--power", "inf"],
     "power: must be finite, got inf"),
    (["curve", "--preset", "fig2", "--pmin", "0", "--pmax", "inf",
      "--points", "3"], "pmax: must be finite, got inf"),
], ids=["dynamics-nan", "dynamics-inf", "curve-pmax-inf"])
def test_non_finite_power_exits_2_promptly(argv, says, subprocess_env):
    # in a subprocess with a timeout: an unchecked NaN power integrates
    # without end, and the test must fail rather than hang
    proc = subprocess.run([sys.executable, "-m", "neoms", *argv],
                          env=subprocess_env, capture_output=True,
                          text=True, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"configuration error: {says}\n"
    assert "RuntimeWarning" not in proc.stderr and proc.stdout == ""


def test_subnormal_g0_reports_no_window_like_zero(tmp_path, capsys):
    reports = []
    for g0 in ("0", "1e-310"):
        conf = tmp_path / f"g0_{g0}.conf"
        text = get_preset("fig2").text.replace("g0 = 2pi*5 kHz",
                                               f"g0 = {g0} rad/s")
        assert f"g0 = {g0} rad/s" in text
        conf.write_text(text, encoding="utf-8")
        assert main(["window", "--config", str(conf), "--format",
                     "json"]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("no bistability window: "
                                "no_cubic_nonlinearity\n")
        doc = json.loads(captured.out)
        assert doc["exists"] is False
        assert doc["reason"] == "no_cubic_nonlinearity"
        del doc["snapshot"]
        reports.append(doc)
    assert reports[0] == reports[1]


def test_vanishing_kerr_slope_solves_like_zero_g0(tmp_path, capsys):
    """A tiny g0 solves fig2 as g0 = 0 does, bit for bit, and dynamics
    settles: chi^2 underflows at 1e-90 rad/s, the closed form's ** overflows
    at 1e-40, and x = t - shift cancels at 1e-6."""
    numbers = {}
    for g0 in ("0", "1e-90", "1e-40", "1e-6"):
        conf = tmp_path / f"g0_{g0}.conf"
        conf.write_text(get_preset("fig2").text.replace(
            "g0 = 2pi*5 kHz", f"g0 = {g0} rad/s"), encoding="utf-8")
        assert main(["curve", "--config", str(conf), "--pmin", "1e-12",
                     "--pmax", "1e-9", "--points", "3"]) == 0
        comments, rows = parse_curve_csv(capsys.readouterr().out)
        assert not [c for c in comments if c.startswith("unsolved")]
        numbers[g0] = [r["photon_number"].hex() for r in rows]
        assert len(numbers[g0]) == 3 and numbers[g0] == numbers["0"], g0
        assert main(["dynamics", "--config", str(conf), "--power",
                     "1e-9"]) == 0, g0
        capsys.readouterr()


def test_cli_diff_list_names_only_existing_subcommands(capsys):
    """scripts/cli_diff.py's invocations parse, except the usage errors it
    lists on purpose, and together they reach every subcommand."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "cli_diff.py"
    spec = importlib.util.spec_from_file_location("cli_diff", path)
    cli_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_diff)
    reached = set()
    for argv in cli_diff.INVOCATIONS:
        if argv in cli_diff.USAGE_ERRORS:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2, argv
        else:
            reached.add(build_parser().parse_args(argv).command)
    capsys.readouterr()
    assert reached == {"curve", "mirror", "window", "threshold", "hysteresis",
                       "family", "dynamics", "fig"}
