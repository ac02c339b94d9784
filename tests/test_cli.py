import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


SCALED_ENERGY = {"family": {"kind": "scaled_base", "base": "power_law", "a": 1.0},
                 "delta": 0.01, "thresholds": {"grad_tol": 1}}


def test_parse_config_round_trip():
    for command, raw in list(VALID.items()) + [("energy", SCALED_ENERGY)]:
        cfg = parse_config(raw, command)
        echo = json.loads(json.dumps(cfg.to_dict()))
        assert parse_config(echo, command) == cfg, command
        # the echo holds the common fields and the fields this command reads, nothing else
        read = set(_COMMANDS[command].keys)
        assert set(echo) == {"command", "family", "thresholds"} | read


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
    for key, value in (("angle", 0.2), ("mode", "exact_exponential")):
        bad = dict(CONVERGE, rotation={"axis": AXIS, "coefficient": 1.0, key: value})
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
    with pytest.raises(ConfigInvalid, match="samples must be a positive integer"):
        parse_config(dict(CERTIFY, samples=0), "certify")
    with pytest.raises(ConfigInvalid, match="seed must be a nonnegative integer"):
        parse_config(dict(CERTIFY, seed=-1), "certify")
    with pytest.raises(ConfigInvalid):
        parse_config(dict(CONVERGE, command="certify"), "converge")
    with pytest.raises(ConfigInvalid):
        parse_config(dict(CERTIFY, family={"kind": "power_law", "a": -1.0}), "certify")
    with pytest.raises(ConfigInvalid):
        parse_config({"family": {"kind": "power_law"}, "delta": 0.001}, "oned")


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
    huge = json.dumps(dict(CONVERGE, family={"kind": "power_law", "a": 10 ** 400}))
    for name, content in (("broken", b"{not json"),
                          ("latin1", '{"out": "caf\xe9"}'.encode("latin-1")),
                          ("deep", b"[" * 100000 + b"]" * 100000),
                          ("huge_int", huge.encode())):
        path = tmp_path / (name + ".json")
        path.write_bytes(content)
        assert main(["converge", "--config", str(path)]) == 1, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("FAIL config"), (name, lines)


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
    reseeded = _write(tmp_path, "cert12.json", dict(CERTIFY, seed=12))
    assert main(["certify", "--config", reseeded, "--out", str(out3)]) == 0
    assert b1 != (out3 / "certify.csv").read_bytes()


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


@pytest.mark.parametrize("c", [1e-4, 1e-5])
@pytest.mark.parametrize("family", [
    {"kind": "power_law", "a": 1.0, "p": 2.0},
    {"kind": "scaled_base", "base": "power_law", "a": 1.0},
], ids=["power_law", "scaled_base"])
def test_energy_study_on_a_small_stress_ball(tmp_path, family, c):
    # the gradient step scales with c, so probes near |S| = 0.9 c stay in the ball
    payload = {"family": dict(family, c=c), "delta": 0.01, "samples": 20, "seed": 5}
    assert main(["energy", "--config", _write(tmp_path, "e.json", payload),
                 "--out", str(tmp_path)]) == 0


def test_scaled_base_energy_study_makes_one_cubature_call(tmp_path, monkeypatch):
    # all four probes' 48 finite-difference rows go through one integral
    rows = []
    real = strainlim.energy.cubature

    def counted(*args, **kwargs):
        result = real(*args, **kwargs)
        rows.append(len(result.estimate))
        return result

    monkeypatch.setattr(strainlim.energy, "cubature", counted)
    payload = dict(SCALED_ENERGY, samples=4, seed=3)
    assert main(["energy", "--config", _write(tmp_path, "e.json", payload),
                 "--out", str(tmp_path)]) == 0
    assert rows == [48]


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
                                  ["solve", "--config", "x.json", "--seed", "z"],
                                  ["certify", "--config", "x.json", "--seed", "3"]])
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


@pytest.mark.parametrize("delta", [5.0, 1e10, 1e300, 1e-320])
def test_inadmissible_energy_delta_exits_two(tmp_path, capsys, delta):
    # power_law admits deltas in (0, 0.1); the study stops before it samples
    bad = dict(VALID["energy"], delta=delta)
    code = main(["energy", "--config", _write(tmp_path, "e.json", bad), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().out.startswith(
        "FAIL energy kind=power_law InadmissibleDelta: delta %r " % delta)
    assert not (tmp_path / "energy.csv").exists()


def test_subnormal_certify_delta_exits_two(tmp_path, capsys):
    bad = {"family": {"kind": "power_law"}, "deltas": [1e-320], "samples": 100}
    code = main(["certify", "--config", _write(tmp_path, "c.json", bad), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().out == (
        "FAIL certify kind=power_law InadmissibleDelta: delta 1e-320 is below the "
        "smallest normal float 2.2250738585072014e-308\n")


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


@pytest.mark.parametrize("command", ["converge", "converge-hencky"])
@pytest.mark.parametrize("axis", [[1.0, 1.0, 0.0], [0.0, 0.0, 1.4e154]])
def test_non_unit_rotation_axis_is_config_error(tmp_path, capsys, command, axis):
    bad = dict(CONVERGE, rotation={"axis": axis, "coefficient": 1.0})
    assert "rotation.axis" in _run_expect_config_error(tmp_path, capsys, command, bad)


@pytest.mark.parametrize("command", ["certify", "solve", "energy"])
def test_family_whose_power_overflows_is_config_error(tmp_path, capsys, command):
    # (a c)^p = 1e400 is past the float range
    bad = dict(VALID[command], family={"kind": "power_law", "a": 1e200, "p": 2.0})
    assert "bad family" in _run_expect_config_error(tmp_path, capsys, command, bad)


def test_a_study_that_runs_out_of_memory_is_config_error(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 43.7 TiB for an array with shape (10**12, 6)")

    monkeypatch.setattr(cli, "certify_constants", out_of_memory)
    line = _run_expect_config_error(tmp_path, capsys, "certify", dict(CERTIFY, samples=10 ** 12))
    assert "memory" in line


def test_thin_certify_sampling_is_config_error(tmp_path, capsys):
    line = _run_expect_config_error(tmp_path, capsys, "certify", dict(CERTIFY, samples=50))
    assert "samples" in line


def test_oned_delta_out_of_range_is_config_error(tmp_path, capsys):
    payload = {"family": {"kind": "power_law"}, "delta": 0.5, "stresses": [0.1, 0.2]}
    line = _run_expect_config_error(tmp_path, capsys, "oned", payload)
    assert "delta" in line


def test_subnormal_oned_delta_is_config_error(tmp_path, capsys):
    # the gaps of a subnormal delta are rounding noise, so a wide window must not pass them
    payload = {"family": {"kind": "power_law"}, "delta": 1e-310,
               "stresses": [0.1, 0.2, 0.3, 0.4, 0.5], "thresholds": {"slope": [0.0, 5.0]}}
    line = _run_expect_config_error(tmp_path, capsys, "oned", payload)
    assert "delta must lie in [2.2250738585072014e-308, 0.1]" in line


@pytest.mark.parametrize("command, payload, key", [
    ("certify", CERTIFY, "C9"),
    ("certify", CERTIFY, "order_full"),
    ("converge", CONVERGE, "C0"),
    ("oned", {"family": {"kind": "power_law"}, "delta": 0.001, "stresses": [0.25]}, "slop"),
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


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_config_out_key_is_rejected(tmp_path, capsys, command):
    # --out is the one source of the output directory
    line = _run_expect_config_error(tmp_path, capsys, command, dict(VALID[command], out="x"))
    assert line.startswith("FAIL config: unknown config keys: ['out']")


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_configs_parse():
    examples = re.findall(r"```json\n(.*?)```\s*runs `strainlim ([\w-]+)`", README.read_text(),
                          re.DOTALL)
    assert [command for _, command in examples] == ["converge", "certify"]
    for text, command in examples:
        parse_config(json.loads(text), command)


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


def _spelled_thresholds(command):
    """The command's threshold defaults as a config spells them; certify's caps have none."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in _COMMANDS[command].thresholds.items() if value is not None}


@pytest.mark.parametrize("command", ["solve", "converge", "energy"])
def test_spelled_out_defaults_match_no_thresholds(tmp_path, command):
    defaults = _spelled_thresholds(command)
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


# --- CLI fuzz -------------------------------------------------------------------


def _paths(obj, prefix=()):
    """The key path of every value in a config, top-level and nested."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replaced(raw, path, value):
    raw = json.loads(json.dumps(raw))
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return raw


def _non_finite(obj):
    """True if a parsed report holds NaN or inf, as a float or as its repr string."""
    if isinstance(obj, dict):
        return any(_non_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_non_finite(v) for v in obj)
    return obj in ("nan", "inf", "-inf") or (isinstance(obj, float) and not math.isfinite(obj))


# each valid config with its thresholds spelled out, so threshold values are fuzzed too
FUZZ_BASES = {command: dict(raw, thresholds=_spelled_thresholds(command))
              for command, raw in VALID.items()}
FUZZ_TARGETS = [(command, path) for command, raw in FUZZ_BASES.items() for path in _paths(raw)]
# huge ints, NaN and Infinity literals, subnormals, wrong types
_FUZZ_VALUES = st.one_of(
    st.sampled_from([10 ** 400, 1e300, 1e-320, 0, -1, -2.5, math.nan, math.inf, -math.inf,
                     "x", [1.0], {"k": 1}, None]),
    st.floats(), st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=150, deadline=None)
@example(target=("certify", ("family", "a")), value=1e200)
@example(target=("solve", ("family", "a")), value=1e200)
@example(target=("converge", ("family", "a")), value=10 ** 400)
@example(target=("oned", ("stresses", 0)), value=1e300)
@example(target=("oned", ("stresses", 1)), value=1e-320)
@example(target=("oned", ("delta",)), value=5e-324)
@example(target=("certify", ("deltas", 3)), value=1e-320)
@example(target=("certify", ("deltas", 3)), value=1e-200)
@example(target=("energy", ("family", "c")), value=1e-320)
@example(target=("converge", ("thresholds", "order_full", 0)), value=math.nan)
@given(target=st.sampled_from(FUZZ_TARGETS), value=_FUZZ_VALUES)
def test_cli_fuzz_exits_cleanly(target, value):
    """One replaced value: exit 0, 1 or 2, one output line, no non-finite number in a PASS."""
    command, path = target
    raw = _replaced(FUZZ_BASES[command], path, value)
    with tempfile.TemporaryDirectory() as out:
        config = os.path.join(out, "fuzz.json")
        with open(config, "w") as handle:
            json.dump(raw, handle)  # NaN and inf become the NaN and Infinity literals
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", config, "--out", out])
        lines = (stdout.getvalue() + stderr.getvalue()).splitlines()
        assert code in (0, 1, 2) and len(lines) == 1, (code, lines)
        if code == 0:
            with open(os.path.join(out, command.replace("-", "_") + "_report.json")) as handle:
                report = json.load(handle)
            assert report["verdict"] == "PASS" and not _non_finite(report), report


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
