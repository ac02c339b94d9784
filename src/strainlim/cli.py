"""Batch experiment runner.

Each subcommand reads a JSON config, runs one study, writes a CSV and a
JSON report next to it, and prints a single PASS/FAIL line. Exit codes:
0 study ran and met its thresholds, 1 configuration or I/O problem,
2 study ran but failed a threshold (or died partway with a solver error).

One table, `_COMMANDS`, says per command which config keys it reads and
which thresholds it knows, each with its default. `parse_config` walks that
table: it rejects every key the command does not read, parses each value
once and checks every given threshold, so a bad config exits 1 before the
study runs.

Outputs are written atomically (tempfile + rename) and floats are
serialized with repr(), so reruns with the same config and seed produce
byte-identical files.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from .analysis import ball_points, certify_constants, run_convergence, run_convergence_hencky
from .energy import (
    EnergyProfile,
    complementary_energy,
    complementary_gradient,
    conjugate_stress,
    green_stress,
    legendre_transform,
)
from .errors import ConfigInvalid, StrainLimError, StudyFailed
from .families import KINDS, FamilySpec, _density_guaranteed_coeff, family_leading
from .kinematics import RotationSpec
from .scalar1d import Scalar1DParams, oned_delta0_study
from .solver import solve_implicit
from .symtensor import SymTensor, frobenius, inner

_FAMILY_KEYS = ("kind", "a", "p", "E0", "nu", "b", "c", "delta1", "delta_max", "base")
_ROTATION_KEYS = ("axis", "coefficient", "mode")
# keys every command accepts; the rest are in each command's `_COMMANDS` entry
_COMMON_KEYS = ("command", "family", "samples", "seed", "out", "thresholds")


@dataclasses.dataclass
class ExperimentConfig:
    command: str
    family: FamilySpec
    stress: "SymTensor | None" = None
    stresses: "tuple | None" = None  # scalar sweep, oned only
    rotation: "RotationSpec | None" = None
    deltas: "tuple | None" = None
    delta: "float | None" = None
    samples: int = 10000
    seed: int = 0
    output_dir: str = "."
    thresholds: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "command": self.command,
            "family": _family_to_dict(self.family),
            "samples": self.samples,
            "seed": self.seed,
            "thresholds": dict(sorted(self.thresholds.items())),
        }
        if self.stress is not None:
            out["stress"] = list(self.stress.components())
        if self.stresses is not None:
            out["stresses"] = list(self.stresses)
        if self.rotation is not None:
            out["rotation"] = {
                "axis": list(self.rotation.axis),
                "coefficient": self.rotation.magnitude_coefficient,
                "mode": self.rotation.mode,
            }
        if self.deltas is not None:
            out["deltas"] = list(self.deltas)
        if self.delta is not None:
            out["delta"] = self.delta
        return out


def _family_to_dict(spec: FamilySpec) -> dict:
    d = {"kind": spec.kind, "a": spec.a, "p": spec.p, "E0": spec.E0, "nu": spec.nu,
         "b": spec.b, "c": spec.c, "delta1": spec.delta1}
    if spec.delta_max is not None:
        d["delta_max"] = spec.delta_max
    if spec.kind == "scaled_base":
        d["base"] = spec.base if isinstance(spec.base, str) else "custom"
    return d


def _require(cond, msg):
    if not cond:
        raise ConfigInvalid(msg)


def _as_float(value, name) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             "%s must be a number, got %r" % (name, value))
    v = float(value)
    _require(math.isfinite(v), "%s must be finite" % name)
    return v


def _parse_family(raw) -> FamilySpec:
    _require(isinstance(raw, dict), "family must be an object")
    unknown = set(raw) - set(_FAMILY_KEYS)
    _require(not unknown, "unknown family keys: %s" % sorted(unknown))
    _require("kind" in raw, "family.kind is required")
    kwargs = {"kind": raw["kind"]}
    for key in _FAMILY_KEYS[1:]:
        if key not in raw:
            continue
        if key == "base":
            _require(raw[key] == "power_law", "family.base must be 'power_law'")
            kwargs[key] = raw[key]
        elif key == "delta_max" and raw[key] is None:
            continue
        else:
            kwargs[key] = _as_float(raw[key], "family.%s" % key)
    try:
        return FamilySpec(**kwargs)
    except ValueError as exc:
        raise ConfigInvalid("bad family: %s" % exc)


def _numbers(raw, name, length=None) -> tuple:
    _require(isinstance(raw, (list, tuple)) and len(raw) > 0 and length in (None, len(raw)),
             "%s must be a list of %s numbers" % (name, length or "one or more"))
    return tuple(_as_float(v, "%s[%d]" % (name, i)) for i, v in enumerate(raw))


def _positive(raw, name) -> float:
    value = _as_float(raw, name)
    _require(value > 0.0, "%s must be positive" % name)
    return value


def _parse_rotation(raw, name) -> RotationSpec:
    _require(isinstance(raw, dict), "%s must be an object" % name)
    unknown = set(raw) - set(_ROTATION_KEYS)
    _require(not unknown, "unknown %s keys: %s" % (name, sorted(unknown)))
    _require("axis" in raw and "coefficient" in raw,
             "%s needs axis and coefficient" % name)
    axis = _numbers(raw["axis"], name + ".axis", 3)
    coef = _as_float(raw["coefficient"], name + ".coefficient")
    _require(coef >= 0.0, "%s.coefficient must be nonnegative" % name)
    mode = raw.get("mode", "exact_exponential")
    _require(mode == "exact_exponential", "%s.mode must be 'exact_exponential'" % name)
    return RotationSpec(axis=axis, magnitude_coefficient=coef, mode=mode)


def _parse_deltas(raw, name) -> tuple:
    vals = _numbers(raw, name)
    _require(all(v > 0.0 for v in vals), "%s must be positive" % name)
    _require(all(lo < hi for lo, hi in zip(vals[1:], vals)),
             "%s must be strictly decreasing" % name)
    return vals


def parse_config(raw: dict, command: str) -> ExperimentConfig:
    """Validate a raw config dict against `command`'s entry in `_COMMANDS`."""
    _require(command in _COMMANDS, "unknown command %r" % command)
    spec = _COMMANDS[command]
    _require(isinstance(raw, dict), "config root must be an object")
    unknown = set(raw) - set(_COMMON_KEYS) - set(spec.keys)
    _require(not unknown, "unknown config keys: %s" % sorted(unknown))
    if "command" in raw:
        _require(raw["command"] == command,
                 "config is for %r, not %r" % (raw["command"], command))

    cfg = ExperimentConfig(command=command, family=_parse_family(raw.get("family", {"kind": "power_law"})))
    _require(cfg.family.kind in spec.kinds,
             "%s needs a family.kind in %s" % (command, list(spec.kinds)))

    thresholds = raw.get("thresholds", {})
    _require(isinstance(thresholds, dict), "thresholds must be an object")
    unknown = set(thresholds) - set(spec.thresholds)
    _require(not unknown, "unknown %s thresholds: %s" % (command, sorted(unknown)))
    cfg.thresholds = {key: _numbers(value, key, 2) if isinstance(spec.thresholds[key], tuple)
                      else _as_float(value, key) for key, value in thresholds.items()}
    for key, value in cfg.thresholds.items():
        _require(not isinstance(value, tuple) or value[0] <= value[1],
                 "%s must be a window [lo, hi] with lo <= hi" % key)
    if "samples" in raw:
        _require(isinstance(raw["samples"], int) and not isinstance(raw["samples"], bool)
                 and raw["samples"] > 0, "samples must be a positive integer")
        cfg.samples = raw["samples"]
    if "seed" in raw:
        _require(isinstance(raw["seed"], int) and not isinstance(raw["seed"], bool),
                 "seed must be an integer")
        cfg.seed = raw["seed"]
    if "out" in raw:
        _require(isinstance(raw["out"], str), "out must be a string")
        cfg.output_dir = raw["out"]

    for key, (field, parse) in spec.keys.items():
        if key in raw:
            setattr(cfg, field, parse(raw[key], key))
    missing = sorted({field for field, _ in spec.keys.values() if getattr(cfg, field) is None})
    _require(not missing, "%s needs %s" % (command, " and ".join(missing)))
    return cfg


# ---------------------------------------------------------------------------
# output helpers


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".strainlim-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header: tuple, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_report(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


# ---------------------------------------------------------------------------
# command runners. Each returns (checks, header, csv_rows, extra_report)
# where checks is a list of (name, ok, detail) triples.


def _in_window(value, window) -> bool:
    return value is not None and window[0] <= value <= window[1]


def _thresholds(cfg: ExperimentConfig) -> dict:
    """The command's threshold defaults, overridden by the config's checked values."""
    return dict(_COMMANDS[cfg.command].thresholds, **cfg.thresholds)


def _run_converge(cfg: ExperimentConfig):
    runner = run_convergence_hencky if cfg.command == "converge-hencky" else run_convergence
    report = runner(cfg.family, cfg.stress, cfg.rotation, cfg.deltas)
    rows = [(r.delta, r.delta0, r.residual_full, r.residual_leading,
             r.stress_gap, r.strain_gap) for r in report.records]
    header = ("delta", "delta0", "residual_full", "residual_leading",
              "stress_gap", "strain_gap")

    limits = _thresholds(cfg)
    w_full, w_lead = limits["order_full"], limits["order_leading"]
    w_stress, row_factor = limits["order_stress"], limits["stress_row_factor"]
    sn = frobenius(cfg.stress)

    checks = [("no_failed_rows", not report.failures,
               "failures=%d" % len(report.failures))]
    checks.append(("order_full", _in_window(report.fitted_order_full, w_full),
                   "fitted=%r window=%r" % (report.fitted_order_full, list(w_full))))
    lead_ok = report.fitted_order_leading is None or _in_window(
        report.fitted_order_leading, w_lead)
    checks.append(("order_leading", lead_ok,
                   "fitted=%r window=%r" % (report.fitted_order_leading, list(w_lead))))
    checks.append(("order_stress", _in_window(report.fitted_order_stress, w_stress),
                   "fitted=%r window=%r" % (report.fitted_order_stress, list(w_stress))))
    bad = [r for r in report.records if r.stress_gap > row_factor * r.delta * sn]
    checks.append(("stress_rows", not bad,
                   "first violation at delta=%r" % (bad[0].delta if bad else None)))
    return checks, header, rows, {"report": _jsonable(report)}


_CERT_EPS = 1e-9


def _certify_caps(spec: FamilySpec) -> dict:
    # the closed-form constants of each family kind; None leaves a constant uncapped
    if spec.kind == "power_law":
        return {"C0": 1.0 + _CERT_EPS, "C1": 1e-12, "D0": 2.0 * spec.a + 1e-6}
    if spec.kind == "scaled_base":
        return {"C0": 1.0 + _CERT_EPS}
    return {"C0": _density_guaranteed_coeff(spec)}


def _run_certify(cfg: ExperimentConfig):
    report = certify_constants(cfg.family, cfg.deltas, cfg.samples, cfg.seed)
    rows = [(r.delta, r.C0_hat, r.C1_hat, r.D0_hat, r.C3_hat) for r in report.rows]
    header = ("delta", "C0_hat", "C1_hat", "D0_hat", "C3_hat")

    caps = dict(_certify_caps(cfg.family), **cfg.thresholds)
    checks = []
    for key, value in (("C0", report.C0_hat), ("C1", report.C1_hat),
                       ("D0", report.D0_hat), ("C3", report.C3_hat)):
        if not math.isfinite(value):
            checks.append((key + "_finite", False, "value=%r" % value))
            continue
        cap = caps.get(key)
        if cap is None:
            checks.append((key + "_finite", True, "value=%r" % value))
        else:
            checks.append((key, value <= cap, "value=%r cap=%r" % (value, cap)))
    return checks, header, rows, {"report": _jsonable(report)}


def _run_oned(cfg: ExperimentConfig):
    params = Scalar1DParams(a=cfg.family.a, p=cfg.family.p, delta=cfg.delta)
    study = oned_delta0_study(params, cfg.stresses)
    header = ("Sbar", "E", "eps", "delta0", "sigma", "gap")
    rows = [(r["Sbar"], r["E"], r["eps"], r["delta0"], r["sigma"], r["gap"])
            for r in study.rows]
    w = _thresholds(cfg)["slope"]
    slope_ok = study.slope is None or _in_window(study.slope, w)
    checks = [("gap_slope", slope_ok,
               "fitted=%r window=%r" % (study.slope, list(w)))]
    extra = {"slope": study.slope, "ratio_max": study.ratio_max,
             "quad_constant_max": study.quad_constant_max}
    return checks, header, rows, extra


def _run_solve(cfg: ExperimentConfig):
    report = solve_implicit(cfg.family, cfg.delta, cfg.stress)
    comps = report.solution.components()
    header = ("delta", "iterations", "residual", "method", "interior_ball_ok",
              "xx", "yy", "zz", "xy", "xz", "yz")
    rows = [(cfg.delta, report.iterations, report.residual, report.method,
             report.interior_ball_ok) + comps]
    tol = _thresholds(cfg)["residual"]
    checks = [("residual", report.residual <= tol,
               "residual=%r cap=%r" % (report.residual, tol))]
    return checks, header, rows, {"report": _jsonable(report)}


def _energy_strain_radius(spec: FamilySpec) -> float:
    # Saturation value of the scalar law at 99% of the stress ball; conjugate
    # stresses of strains drawn inside this radius stay within the ball.
    u = spec.a * 0.99 * spec.c
    return min(0.9, u * (1.0 + u ** spec.p) ** (-1.0 / spec.p))


def _run_energy(cfg: ExperimentConfig):
    profile = EnergyProfile(cfg.family)
    spec = cfg.family
    rng = np.random.default_rng(cfg.seed)
    n = min(cfg.samples, 1000)
    limits = _thresholds(cfg)
    grad_tol, fy_tol, rt_tol = (limits["grad_tol"], limits["fenchel_tol"],
                                limits["roundtrip_tol"])

    stress_r = 0.9 * spec.c
    strain_r = _energy_strain_radius(spec)
    power = spec.kind == "power_law"
    zero = SymTensor()

    rows = []
    worst = {"grad": 0.0, "fenchel": 0.0, "roundtrip": 0.0}
    for i in range(n):
        g = rng.standard_normal(6)
        u = rng.random(3)
        S = SymTensor(*ball_points(g, u[0], stress_r).tolist())
        grad_err = frobenius(complementary_gradient(profile, S)
                             - family_leading(spec, zero, S))

        fy_err = float("nan")
        rt_err = float("nan")
        if power:
            g2 = rng.standard_normal(6)
            Et = SymTensor(*ball_points(g2, u[1], strain_r).tolist())
            star = conjugate_stress(profile, Et)
            fy_err = abs(legendre_transform(profile, Et)
                         + complementary_energy(profile, star) - inner(Et, star))
            g3 = rng.standard_normal(6)
            eps = SymTensor(*ball_points(g3, u[2], strain_r * cfg.delta).tolist())
            sig = green_stress(profile, cfg.delta, eps)
            back = family_leading(spec, zero, sig) * cfg.delta
            rt_err = frobenius(back - eps)
            worst["fenchel"] = max(worst["fenchel"], fy_err)
            worst["roundtrip"] = max(worst["roundtrip"], rt_err)
        worst["grad"] = max(worst["grad"], grad_err)
        rows.append((i, grad_err, fy_err, rt_err))

    header = ("index", "grad_error", "fenchel_error", "roundtrip_error")
    checks = [("grad", worst["grad"] <= grad_tol,
               "max=%r cap=%r" % (worst["grad"], grad_tol))]
    if power:
        checks.append(("fenchel", worst["fenchel"] <= fy_tol,
                       "max=%r cap=%r" % (worst["fenchel"], fy_tol)))
        checks.append(("roundtrip", worst["roundtrip"] <= rt_tol,
                       "max=%r cap=%r" % (worst["roundtrip"], rt_tol)))
    return checks, header, rows, {"worst": dict(worst), "probes": n}


class _Command(NamedTuple):
    blurb: str
    run: Callable
    # config key read besides _COMMON_KEYS -> (ExperimentConfig field, parser);
    # every field is required, and a later key for the same field wins
    keys: dict
    # threshold key -> default: a (lo, hi) window, a number, or None for a
    # family-dependent certification cap
    thresholds: dict
    kinds: tuple = KINDS


_STRESS = ("stress", lambda raw, name: SymTensor(*_numbers(raw, name, 6)))
_DELTA = ("delta", _positive)
_DELTAS = ("deltas", _parse_deltas)
_CONVERGE = _Command(
    "strain-driven convergence sweep", _run_converge,
    {"stress": _STRESS, "rotation": ("rotation", _parse_rotation), "deltas": _DELTAS},
    {"order_full": (1.9, 2.1), "order_leading": (1.9, 2.1), "order_stress": (0.9, 1.1),
     "stress_row_factor": 10.0})

# Everything a command reads from its config. Order windows come from the
# quadratic/linear claims the studies are meant to confirm.
_COMMANDS = {
    "solve": _Command("solve the implicit relation at one delta", _run_solve,
                      {"stress": _STRESS, "delta": _DELTA}, {"residual": 1e-10}),
    "converge": _CONVERGE,
    "converge-hencky": _CONVERGE._replace(blurb="stress-driven convergence sweep"),
    "certify": _Command("sample family constants over the admissible ball", _run_certify,
                        {"deltas": _DELTAS}, dict.fromkeys(("C0", "C1", "D0", "C3"))),
    "oned": _Command("scalar diagnostic sweep", _run_oned,
                     {"delta": _DELTA,
                      "stress": ("stresses", lambda raw, name: (_as_float(raw, name),)),
                      "stresses": ("stresses", _numbers)},
                     {"slope": (0.9, 1.1)}, ("power_law",)),
    "energy": _Command("complementary energy consistency probes", _run_energy,
                       {"delta": _DELTA},
                       {"grad_tol": 1e-6, "fenchel_tol": 1e-9, "roundtrip_tol": 1e-8},
                       ("power_law", "scaled_base")),
}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one configured study and write its CSV and JSON outputs.

    Returns the JSON report payload on success. Raises StudyFailed if the
    study dies partway or misses a threshold; outputs that could be written
    are written either way.
    """
    try:
        checks, header, rows, extra = _COMMANDS[cfg.command].run(cfg)
    except ValueError as exc:
        # parameters the library refuses (samples, delta ranges) are config errors
        raise ConfigInvalid("bad parameters: %s" % exc)
    except StrainLimError as exc:
        raise StudyFailed("%s: %s" % (type(exc).__name__, exc))

    stem = cfg.command.replace("-", "_")
    csv_path = os.path.join(cfg.output_dir, stem + ".csv")
    json_path = os.path.join(cfg.output_dir, stem + "_report.json")
    _write_csv(csv_path, header, rows)

    ok = all(passed for _, passed, _ in checks)
    payload = {
        "command": cfg.command,
        "config": cfg.to_dict(),
        "verdict": "PASS" if ok else "FAIL",
        "checks": [{"name": n, "ok": p, "detail": d} for n, p, d in checks],
        "csv": csv_path,
    }
    payload.update(_jsonable(extra))
    _write_report(json_path, payload)

    if not ok:
        name, detail = next((n, d) for n, p, d in checks if not p)
        raise StudyFailed("check %s: %s" % (name, detail))
    return payload


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one stderr line in place of argparse's usage and error lines;
        # the subcommand parsers inherit this class
        print("FAIL usage: %s: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(2)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # built on first use and kept: parse_args leaves the parser unchanged
    parser = _Parser(
        prog="strainlim",
        description="Strain-limited constitutive model studies.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.blurb)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    return parser


def _resolve_seed(cli_seed, raw_config) -> "int | None":
    if cli_seed is not None:
        return cli_seed
    if "seed" in raw_config:
        return None  # keep what parse_config read
    env = os.environ.get("STRAINLIM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigInvalid("STRAINLIM_SEED must be an integer, got %r" % env)
    return None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if exc.code in (0, None) else 1

    try:
        try:
            with open(args.config, "r") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigInvalid("cannot read config: %s" % exc)
        except json.JSONDecodeError as exc:
            raise ConfigInvalid("config is not valid JSON: %s" % exc)
        cfg = parse_config(raw, args.command)
        seed = _resolve_seed(args.seed, raw)
        if seed is not None:
            cfg.seed = seed
        if args.out is not None:
            cfg.output_dir = args.out
        try:
            payload = run_experiment(cfg)
        except OSError as exc:
            raise ConfigInvalid("cannot write outputs: %s" % exc)
        print("PASS %s kind=%s checks=%d csv=%s"
              % (cfg.command, cfg.family.kind, len(payload["checks"]),
                 payload["csv"]))
        return 0
    except StudyFailed as exc:
        print("FAIL %s kind=%s %s" % (args.command, cfg.family.kind, exc))
        return 2
    except ConfigInvalid as exc:
        print("FAIL config: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
