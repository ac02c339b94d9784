import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import strainlim
import strainlim.cli as cli
from strainlim.analysis import certify_constants, run_convergence_hencky
from strainlim.cli import (_COMMANDS, ExperimentConfig, _build_parser, _jsonable, main,
                           parse_config)
from strainlim.errors import ConfigInvalid
from strainlim.families import FamilySpec
from strainlim.kinematics import RotationSpec
from strainlim.symtensor import SymTensor

AXIS = [1.0 / math.sqrt(3.0)] * 3
LADDER = [2.0 ** -k for k in range(6, 14)]

CONVERGE = {
    "family": {"kind": "power_law", "a": 1.0, "p": 2.0},
    "stress": [0.5, 0.25, -0.125, 0.0, 0.0, 0.0],
    "rotation": {"axis": AXIS, "coefficient": 1.0},
    "deltas": LADDER,
}

CERTIFY = {
    "family": {"kind": "power_law", "a": 1.0, "p": 2.0},
    "deltas": LADDER[:4],
    "samples": 300,
    "seed": 11,
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# --- config parsing ---------------------------------------------------------


def test_parse_config_round_trip():
    cfg = parse_config(CONVERGE, "converge")
    again = parse_config(cfg.to_dict(), "converge")
    assert again == cfg


def test_parse_config_field_order_is_irrelevant():
    shuffled = dict(reversed(list(CONVERGE.items())))
    assert parse_config(shuffled, "converge") == parse_config(CONVERGE, "converge")


def test_parse_config_rejects_unknown_keys():
    bad = dict(CONVERGE, typo=1)
    with pytest.raises(ConfigInvalid):
        parse_config(bad, "converge")
    bad = dict(CONVERGE, family={"kind": "power_law", "alpha": 2.0})
    with pytest.raises(ConfigInvalid):
        parse_config(bad, "converge")
    bad = dict(CONVERGE, rotation={"axis": AXIS, "coefficient": 1.0, "angle": 0.2})
    with pytest.raises(ConfigInvalid):
        parse_config(bad, "converge")


def test_parse_config_rejects_missing_or_malformed():
    with pytest.raises(ConfigInvalid):
        parse_config({k: v for k, v in CONVERGE.items() if k != "stress"}, "converge")
    with pytest.raises(ConfigInvalid):
        parse_config(dict(CONVERGE, stress=[1.0, 2.0]), "converge")
    with pytest.raises(ConfigInvalid):
        parse_config(dict(CONVERGE, deltas=[]), "converge")
    with pytest.raises(ConfigInvalid):
        parse_config(dict(CONVERGE, deltas=[0.01, 0.02]), "converge")
    with pytest.raises(ConfigInvalid):
        parse_config(dict(CONVERGE, samples=0), "converge")
    with pytest.raises(ConfigInvalid):
        parse_config(dict(CONVERGE, command="certify"), "converge")
    with pytest.raises(ConfigInvalid):
        parse_config(dict(CERTIFY, family={"kind": "power_law", "a": -1.0}), "certify")
    with pytest.raises(ConfigInvalid):
        parse_config({"family": {"kind": "power_law"}, "delta": 0.001}, "oned")


def test_parse_config_oned_scalar_fallback():
    cfg = parse_config(
        {"family": {"kind": "power_law"}, "delta": 0.001, "stress": 0.25}, "oned"
    )
    assert cfg.stresses == (0.25,)


# --- end-to-end exit codes ----------------------------------------------------


def test_converge_passes(tmp_path, capsys):
    code = main(["converge", "--config", _write(tmp_path, "c.json", CONVERGE),
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS converge")
    header = (tmp_path / "converge.csv").read_text().splitlines()[0]
    assert header == "delta,delta0,residual_full,residual_leading,stress_gap,strain_gap"
    report = json.loads((tmp_path / "converge_report.json").read_text())
    assert report["verdict"] == "PASS"


def test_empty_deltas_is_config_error(tmp_path, capsys):
    bad = dict(CONVERGE, deltas=[])
    code = main(["converge", "--config", _write(tmp_path, "c.json", bad),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "FAIL config" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["converge", "--config", str(tmp_path / "nope.json")])
    assert code == 1


def test_unreadable_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["converge", "--config", str(path)]) == 1


def test_certify_is_byte_deterministic(tmp_path):
    cfg = _write(tmp_path, "cert.json", CERTIFY)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["certify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["certify", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "certify.csv").read_bytes()
    assert b1 == (out2 / "certify.csv").read_bytes()
    header = b1.decode().splitlines()[0]
    assert header == "delta,C0_hat,C1_hat,D0_hat,C3_hat"
    # a different seed must change the sampled constants
    out3 = tmp_path / "run3"
    assert main(["certify", "--config", cfg, "--seed", "12", "--out", str(out3)]) == 0
    assert b1 != (out3 / "certify.csv").read_bytes()


def test_seed_precedence(tmp_path):
    cfg = _write(tmp_path, "cert.json", CERTIFY)
    out_cfg, out_cli = tmp_path / "a", tmp_path / "b"
    main(["certify", "--config", cfg, "--out", str(out_cfg)])
    main(["certify", "--config", cfg, "--seed", "99", "--out", str(out_cli)])
    rep_cfg = json.loads((out_cfg / "certify_report.json").read_text())
    rep_cli = json.loads((out_cli / "certify_report.json").read_text())
    assert rep_cfg["config"]["seed"] == 11
    assert rep_cli["config"]["seed"] == 99


def test_env_seed_when_config_is_silent(tmp_path, monkeypatch):
    payload = {k: v for k, v in CERTIFY.items() if k != "seed"}
    cfg = _write(tmp_path, "cert.json", payload)
    monkeypatch.setenv("STRAINLIM_SEED", "17")
    out = tmp_path / "env"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "certify_report.json").read_text())
    assert rep["config"]["seed"] == 17
    monkeypatch.setenv("STRAINLIM_SEED", "promise")
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 1


def test_oned_default_thresholds_fail_honestly(tmp_path, capsys):
    payload = {
        "family": {"kind": "power_law", "a": 1.0, "p": 2.0},
        "delta": 0.001,
        "stresses": [round(s, 4) for s in
                     [0.01 + k * (0.49 / 99.0) for k in range(100)]],
    }
    code = main(["oned", "--config", _write(tmp_path, "o.json", payload),
                 "--out", str(tmp_path)])
    # the measured decay order of the stress gap is ~3, not the first-order
    # window the defaults ask for, so this is a true negative
    assert code == 2
    assert "FAIL oned" in capsys.readouterr().out
    header = (tmp_path / "oned.csv").read_text().splitlines()[0]
    assert header == "Sbar,E,eps,delta0,sigma,gap"
    report = json.loads((tmp_path / "oned_report.json").read_text())
    assert report["verdict"] == "FAIL"
    assert 2.8 <= report["slope"] <= 3.2


def test_oned_passes_with_explicit_window(tmp_path):
    payload = {
        "family": {"kind": "power_law", "a": 1.0, "p": 2.0},
        "delta": 0.001,
        "stresses": [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5],
        "thresholds": {"slope": [2.5, 3.5]},
    }
    code = main(["oned", "--config", _write(tmp_path, "o.json", payload),
                 "--out", str(tmp_path)])
    assert code == 0


def test_solve_command(tmp_path, capsys):
    payload = {
        "family": {"kind": "density_modulus_direct", "E0": 1.0, "nu": 0.3,
                   "a": 0.3, "b": 0.5, "c": 1.0},
        "stress": [0.5, 0.25, -0.125, 0.0, 0.0, 0.0],
        "delta": 0.015625,
    }
    code = main(["solve", "--config", _write(tmp_path, "s.json", payload),
                 "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "solve.csv").read_text().splitlines()
    assert rows[0].startswith("delta,iterations,residual,method,interior_ball_ok")
    assert len(rows) == 2


def test_energy_command(tmp_path):
    payload = {
        "family": {"kind": "power_law", "a": 1.0, "p": 2.0, "c": 3.0},
        "delta": 0.01,
        "samples": 20,
        "seed": 5,
    }
    code = main(["energy", "--config", _write(tmp_path, "e.json", payload),
                 "--out", str(tmp_path)])
    assert code == 0


def test_usage_errors_map_to_one(capsys):
    assert main(["bogus"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0


def _fresh_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(strainlim.__file__)))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _fresh_processes(*argvs):
    """(exit code, stdout, stderr) of `python -m strainlim argv`, one new process each."""
    env = _fresh_env()
    procs = [subprocess.Popen([sys.executable, "-m", "strainlim", *argv], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for argv in argvs]
    outputs = [proc.communicate() for proc in procs]
    return [(proc.returncode, out, err) for proc, (out, err) in zip(procs, outputs)]


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    ok = ["converge", "--config", _write(tmp_path, "c.json", CONVERGE), "--out", str(tmp_path)]
    usage = ["converge", "--out", str(tmp_path)]
    bad = ["converge", "--config", _write(tmp_path, "bad.json", dict(CONVERGE, typo=1))]
    in_process = []
    for argv in (ok, usage, bad, ok):
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [r[0] for r in in_process] == [0, 1, 1, 0]
    fresh_ok, fresh_usage, fresh_bad = _fresh_processes(ok, usage, bad)
    assert in_process == [fresh_ok, fresh_usage, fresh_bad, fresh_ok]
    assert in_process[0][1].startswith("PASS converge")
    assert in_process[1][2] == ("FAIL usage: strainlim converge: the following arguments "
                                "are required: --config\n")
    assert in_process[2][2].startswith("FAIL config: unknown config keys")
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize("argv", [["converge"], ["bogus", "--config", "x.json"], [],
                                  ["solve", "--config", "x.json", "--seed", "z"]])
def test_usage_errors_print_one_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL usage: strainlim")


def test_study_errors_exit_two(tmp_path, capsys):
    # an inadmissibly coarse rung kills the whole ladder: exit 2, not 1
    bad = dict(CONVERGE, deltas=[0.5, 0.25, 0.125, 0.0625])
    code = main(["converge", "--config", _write(tmp_path, "c.json", bad),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "InadmissibleDelta" in capsys.readouterr().out


# --- parameter and threshold validation -----------------------------------------


def _run_expect_config_error(tmp_path, capsys, command, payload):
    code = main([command, "--config", _write(tmp_path, "x.json", payload),
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL config")
    return lines[0]


def test_thin_certify_sampling_is_config_error(tmp_path, capsys):
    line = _run_expect_config_error(tmp_path, capsys, "certify", dict(CERTIFY, samples=50))
    assert "samples" in line


def test_oned_delta_out_of_range_is_config_error(tmp_path, capsys):
    payload = {"family": {"kind": "power_law"}, "delta": 0.5, "stresses": [0.1, 0.2]}
    line = _run_expect_config_error(tmp_path, capsys, "oned", payload)
    assert "delta" in line


@pytest.mark.parametrize("command, payload, key", [
    ("certify", CERTIFY, "C9"),
    ("certify", CERTIFY, "order_full"),
    ("converge", CONVERGE, "C0"),
    ("oned", {"family": {"kind": "power_law"}, "delta": 0.001, "stress": 0.25}, "slop"),
])
def test_unknown_threshold_keys_are_rejected(tmp_path, capsys, command, payload, key):
    bad = dict(payload, thresholds={key: 1})
    line = _run_expect_config_error(tmp_path, capsys, command, bad)
    assert key in line
    with pytest.raises(ConfigInvalid):
        parse_config(bad, command)


def test_known_certify_thresholds_apply(tmp_path, capsys):
    ok = dict(CERTIFY, thresholds={"C0": 1.0, "C1": 1e-12, "D0": 2.0, "C3": 0.0})
    assert main(["certify", "--config", _write(tmp_path, "c.json", ok),
                 "--out", str(tmp_path)]) == 0
    tight = dict(CERTIFY, thresholds={"C0": 0.01})
    assert main(["certify", "--config", _write(tmp_path, "t.json", tight),
                 "--out", str(tmp_path)]) == 2
    assert "check C0" in capsys.readouterr().out


# one valid config per command; together they hold every key some command reads
VALID = {
    "solve": {"family": {"kind": "power_law", "a": 1.0, "p": 2.0},
              "stress": CONVERGE["stress"], "delta": 0.015625},
    "converge": CONVERGE,
    "converge-hencky": CONVERGE,
    "certify": CERTIFY,
    "oned": {"family": {"kind": "power_law"}, "delta": 0.001, "stresses": [0.1, 0.2, 0.3]},
    "energy": {"family": {"kind": "power_law", "a": 1.0, "p": 2.0, "c": 3.0},
               "delta": 0.01, "samples": 20, "seed": 5},
}
READ_KEYS = sorted({key for command in _COMMANDS.values() for key in command.keys})


@pytest.mark.parametrize("command, key", [(command, key) for command in _COMMANDS
                                          for key in READ_KEYS
                                          if key not in _COMMANDS[command].keys])
def test_keys_a_command_does_not_read_are_rejected(tmp_path, capsys, command, key):
    parse_config(VALID[command], command)
    # a well-formed value, taken from a command that does read the key
    value = next(cfg[key] for cfg in VALID.values() if key in cfg)
    bad = dict(VALID[command], **{key: value})
    line = _run_expect_config_error(tmp_path, capsys, command, bad)
    assert line.startswith("FAIL config: unknown config keys") and key in line


@pytest.mark.parametrize("command, runner, thresholds", [
    ("converge", "run_convergence", {"order_full": [1.0]}),
    ("certify", "certify_constants", {"C0": "x"}),
    ("converge", "run_convergence", {"order_full": [2.1, 1.9]}),
])
def test_bad_thresholds_stop_before_the_study(tmp_path, capsys, monkeypatch, command, runner,
                                               thresholds):
    calls = []
    real = getattr(cli, runner)
    monkeypatch.setattr(cli, runner, lambda *args: calls.append(args) or real(*args))
    _run_expect_config_error(tmp_path, capsys, command, dict(VALID[command],
                                                             thresholds=thresholds))
    assert calls == []
    # the patched runner is the one the command calls
    assert main([command, "--config", _write(tmp_path, "ok.json", VALID[command]),
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["solve", "converge", "energy"])
def test_spelled_out_defaults_match_no_thresholds(tmp_path, command):
    defaults = {key: list(value) if isinstance(value, tuple) else value
                for key, value in _COMMANDS[command].thresholds.items()}
    outputs = []
    for name, payload in (("bare", VALID[command]),
                          ("spelled", dict(VALID[command], thresholds=defaults))):
        out = tmp_path / name
        code = main([command, "--config", _write(tmp_path, name + ".json", payload),
                     "--out", str(out)])
        report = json.loads((out / (command + "_report.json")).read_text())
        outputs.append((code, (out / (command + ".csv")).read_bytes(), report["verdict"],
                        report["checks"]))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


# --- import contract ----------------------------------------------------------

_SCIPY_FREE_SCRIPT = """
import json, sys
import strainlim.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()
*numpy_only, integrating = json.loads(sys.argv[1])
for argv in numpy_only:
    assert cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
assert cli.main(integrating) == 0, integrating
assert "scipy.integrate" in sys.modules
"""


def test_only_integrating_energy_studies_load_scipy(tmp_path):
    """A fresh interpreter runs solve, converge, converge-hencky and certify on numpy
    alone; a p = 3 energy study then loads scipy.integrate on first use."""
    solve = {"family": {"kind": "power_law", "a": 1.0, "p": 2.0},
             "stress": CONVERGE["stress"], "delta": 0.015625}
    energy = {"family": {"kind": "power_law", "a": 1.0, "p": 3.0, "c": 3.0},
              "delta": 0.01, "samples": 20, "seed": 5}
    runs = [[command, "--config", _write(tmp_path, command + ".json", payload),
             "--out", str(tmp_path)]
            for command, payload in (("solve", solve), ("converge", CONVERGE),
                                     ("converge-hencky", CONVERGE), ("certify", CERTIFY),
                                     ("energy", energy))]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_SCRIPT, json.dumps(runs)],
                          env=_fresh_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("PASS") == 5


# --- report serialization -------------------------------------------------------


def _asdict_route(obj):
    """The former _jsonable: dataclasses.asdict first, then a second walk."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _asdict_route(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {k: _asdict_route(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_asdict_route(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def test_one_walk_serialization_matches_asdict_route():
    spec = FamilySpec(kind="power_law", a=1.0, p=2.0)
    converge = run_convergence_hencky(spec, SymTensor(*CONVERGE["stress"]),
                                      RotationSpec(axis=tuple(AXIS), magnitude_coefficient=1.0),
                                      LADDER)
    certify = certify_constants(spec, LADDER[:4], 300, 11)
    odd = dataclasses.replace(converge, records=(
        dataclasses.replace(converge.records[0], residual_full=math.nan,
                            residual_leading=math.inf, stress_gap=-math.inf),),
        failures=((0.5, "NoConvergence: stalled"),))
    for report in (converge, certify, odd, {"report": odd, "slope": math.nan}):
        assert (json.dumps(_jsonable(report), sort_keys=True)
                == json.dumps(_asdict_route(report), sort_keys=True))
