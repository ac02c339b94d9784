"""Batch experiment runner.

Each subcommand reads a JSON config, runs one study, writes a CSV and a
JSON report next to it, and prints a single PASS/FAIL line. Exit codes:
0 study ran and met its thresholds, 1 configuration or I/O problem,
2 study ran but failed a threshold (or died partway with a solver error).

One table, `_COMMANDS`, is the config schema: per command, which config
keys it reads, the defaults of its optional keys (`samples` and `seed`)
and which thresholds it knows, each threshold with its default. Every
other key a command reads is required. `parse_config` walks that table:
it rejects every key the command does not read, parses each value once
and checks every given threshold, so a bad config exits 1 before the
study runs. It returns a namespace of `command`, `family`, `thresholds`
and exactly the keys the command reads, which the report echoes. The CSV
columns of converge, certify and oned are the fields of the result types
(`ConvergenceRecord`, `CertificateRow`, the `Delta0Study` row keys).

Outputs are written atomically (tempfile + rename) as UTF-8, floats through
repr() and reports as the bytes of `json.dumps(report, indent=2, sort_keys=True)`,
so reruns with the same config and seed produce byte-identical files.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .analysis import ball_points, certify_constants, run_convergence, run_convergence_hencky
from .energy import (
    ENERGY_KINDS,
    complementary_energy,
    complementary_gradient,
    conjugate_stress,
    green_stress,
    legendre_transform,
)
from .errors import (ConfigInvalid, InvalidAxis, InvalidParameter, StrainLimError, StudyFailed,
                     integer, real)
from .families import KINDS, FamilySpec, certify_caps, check_delta, family_leading
from .kinematics import RotationSpec
from .scalar1d import oned_delta0_study
from .solver import solve_implicit
from .symtensor import SymTensor, frobenius, inner

_FAMILY_KEYS = tuple(f.name for f in dataclasses.fields(FamilySpec))
_ROTATION_KEYS = ("axis", "coefficient")
# keys every command accepts besides those in its `_COMMANDS` entry
_COMMON_KEYS = ("command", "family", "thresholds")


def _echo(value):
    if isinstance(value, SymTensor):
        return list(value.components())
    if isinstance(value, RotationSpec):
        return {"axis": list(value.axis), "coefficient": value.magnitude_coefficient}
    if isinstance(value, FamilySpec):
        return {name: _echo(getattr(value, name)) for name in ("kind", *KINDS[value.kind])}
    return value


def _require(cond, msg, *args):  # formats `msg % args` only for a failed check
    if not cond:
        raise ConfigInvalid(msg % args)


def _as_float(value, name) -> float:
    v = real(value, name)
    _require(math.isfinite(v), "%s must be finite", name)
    return v


def _object(raw, name, allowed, required=()) -> dict:
    """`raw` if it is a JSON object with every `required` key and no key outside `allowed`."""
    _require(isinstance(raw, dict), "%s must be an object", name)
    unknown = raw.keys() - allowed
    _require(not unknown, "unknown %s keys: %s", name, sorted(unknown))
    missing = [key for key in required if key not in raw]
    _require(not missing, "%s needs %s", name, " and ".join(missing))
    return raw


def _parse_family(raw) -> FamilySpec:
    _object(raw, "family", _FAMILY_KEYS, ("kind",))
    try:
        return FamilySpec(**raw)
    except ValueError as exc:
        raise ConfigInvalid("bad family: %s" % exc)


def _numbers(raw, name, length=None) -> tuple:
    _require(isinstance(raw, (list, tuple)) and len(raw) > 0 and length in (None, len(raw)),
             "%s must be a list of %s numbers", name, length or "one or more")
    return tuple(_as_float(v, "%s[%d]" % (name, i)) for i, v in enumerate(raw))


def _parse_rotation(raw, name) -> RotationSpec:
    _object(raw, name, _ROTATION_KEYS, _ROTATION_KEYS)
    try:
        return RotationSpec(raw["axis"], raw["coefficient"])
    except (InvalidAxis, InvalidParameter) as exc:
        raise ConfigInvalid("%s: %s" % (name, exc))


def _parse_deltas(raw, name) -> tuple:
    vals = _numbers(raw, name)
    _require(all(lo < hi for lo, hi in zip(vals[1:], vals)),
             "%s must be strictly decreasing", name)
    return vals


def parse_config(raw: dict, command: str) -> SimpleNamespace:
    """Validate a raw config dict against `command`'s entry in `_COMMANDS`."""
    _require(command in _COMMANDS, "unknown command %r", command)
    spec = _COMMANDS[command]
    _object(raw, "config", (*_COMMON_KEYS, *spec.keys))
    if "command" in raw:
        _require(raw["command"] == command,
                 "config is for %r, not %r", raw["command"], command)

    cfg = SimpleNamespace(command=command,
                          family=_parse_family(raw.get("family", {"kind": "power_law"})))
    _require(cfg.family.kind in spec.kinds,
             "%s needs a family.kind in %s", command, list(spec.kinds))

    thresholds = _object(raw.get("thresholds", {}), "thresholds", spec.thresholds)
    try:  # a value the library's number rule refuses is a config error
        cfg.thresholds = {key: _numbers(v, key, 2) if isinstance(spec.thresholds[key], tuple)
                          else _as_float(v, key) for key, v in thresholds.items()}
        for key, value in cfg.thresholds.items():
            _require(not isinstance(value, tuple) or value[0] <= value[1],
                     "%s must be a window [lo, hi] with lo <= hi", key)
        missing = sorted(set(spec.keys) - set(raw) - set(spec.defaults))
        _require(not missing, "%s needs %s", command, " and ".join(missing))
        for key, parse in spec.keys.items():
            setattr(cfg, key, parse(raw[key], key) if key in raw else spec.defaults[key])
    except InvalidParameter as exc:
        raise ConfigInvalid(str(exc)) from None
    return cfg


# ---------------------------------------------------------------------------
# output helpers


def _atomic_write(directory: str, name: str, data: bytes):
    # mkstemp opens with O_EXCL and mode 0600; the bytes go straight to its descriptor
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".strainlim-")
    try:
        try:
            while data:  # a short write leaves the rest for the next one
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, os.path.join(directory, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(value) -> str:
    if type(value) is bool:
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _table(records):
    """CSV header and rows of dataclass records or dicts, columns in field order."""
    dicts = [r if isinstance(r, dict) else vars(r) for r in records]
    return tuple(dicts[0]), [tuple(d.values()) for d in dicts]


_quote = json.encoder.encode_basestring_ascii
# how json.dumps writes each scalar type; a non-finite float is its quoted repr
_SCALARS = {str: _quote, int: int.__repr__, bool: ["false", "true"].__getitem__,
            float: lambda v: float.__repr__(v) if math.isfinite(v) else _quote(repr(v)),
            type(None): lambda _: "null"}
# each dataclass type `_json` has met -> its field names, sorted
_FIELDS = {}


def _json(obj, pad="\n") -> str:
    """`obj` as `json.dumps(obj, indent=2, sort_keys=True)` writes it, with each
    dataclass a dict of its fields and each tuple a list; dict keys are strings
    and `pad` is the newline and indent of the line `obj` starts on."""
    kind = type(obj)
    if kind in _SCALARS:
        return _SCALARS[kind](obj)
    inner = pad + "  "
    names = _FIELDS.get(kind)
    if names is None and dataclasses.is_dataclass(kind):
        names = _FIELDS[kind] = sorted(f.name for f in dataclasses.fields(kind))
    if names is not None:
        items = [(name, getattr(obj, name)) for name in names]
    elif isinstance(obj, dict):
        items = sorted(obj.items())
    elif isinstance(obj, (list, tuple)):
        body = ("," + inner).join([_json(v, inner) for v in obj])
        return "[" + inner + body + pad + "]" if obj else "[]"
    else:  # a scalar subclass (np.float64) as its base; `_quote` raises TypeError for others
        return _SCALARS[next((b for b in kind.__mro__ if b in _SCALARS), str)](obj)
    body = ("," + inner).join([_quote(key) + ": " + _json(value, inner) for key, value in items])
    return "{" + inner + body + pad + "}" if items else "{}"


# ---------------------------------------------------------------------------
# command runners. Each returns (checks, header, csv_rows, extra_report)
# where checks is a list of (name, ok, detail) triples.


def _in_window(value, window) -> bool:
    return value is not None and window[0] <= value <= window[1]


def _thresholds(cfg) -> dict:
    """The command's threshold defaults, overridden by the config's checked values."""
    return dict(_COMMANDS[cfg.command].thresholds, **cfg.thresholds)


def _run_converge(cfg):
    runner = run_convergence_hencky if cfg.command == "converge-hencky" else run_convergence
    report = runner(cfg.family, cfg.stress, cfg.rotation, cfg.deltas)
    header, rows = _table(report.records)

    limits = _thresholds(cfg)
    checks = [("no_failed_rows", not report.failures,
               "failures=%d" % len(report.failures))]
    for name in ("order_full", "order_leading", "order_stress"):
        fitted, window = getattr(report, "fitted_" + name), limits[name]
        # an identically zero leading residual has no order and passes
        ok = _in_window(fitted, window) or (name == "order_leading" and fitted is None)
        checks.append((name, ok, "fitted=%r window=%r" % (fitted, list(window))))
    sn, row_factor = frobenius(cfg.stress), limits["stress_row_factor"]
    bad = [r for r in report.records if r.stress_gap > row_factor * r.delta * sn]
    checks.append(("stress_rows", not bad,
                   "first violation at delta=%r" % (bad[0].delta if bad else None)))
    return checks, header, rows, {"report": report}


def _run_certify(cfg):
    report = certify_constants(cfg.family, cfg.deltas, cfg.samples, cfg.seed)
    header, rows = _table(report.rows)

    caps = dict(certify_caps(cfg.family), **cfg.thresholds)
    checks = []
    for key, value in (("C0", report.C0_hat), ("C1", report.C1_hat),
                       ("D0", report.D0_hat), ("C3", report.C3_hat)):  # finite, or certify raises
        cap = caps.get(key)
        if cap is None:
            checks.append((key + "_finite", True, "value=%r" % value))
        else:
            checks.append((key, value <= cap, "value=%r cap=%r" % (value, cap)))
    return checks, header, rows, {"report": report}


def _run_oned(cfg):
    study = oned_delta0_study(cfg.family, cfg.delta, cfg.stresses)
    header, rows = _table(study.rows)
    w = _thresholds(cfg)["slope"]
    slope_ok = study.slope is None or _in_window(study.slope, w)
    checks = [("gap_slope", slope_ok,
               "fitted=%r window=%r" % (study.slope, list(w)))]
    extra = {"slope": study.slope, "ratio_max": study.ratio_max,
             "quad_constant_max": study.quad_constant_max}
    return checks, header, rows, extra


def _run_solve(cfg):
    report = solve_implicit(cfg.family, cfg.delta, cfg.stress)
    comps = report.solution.components()
    header = ("delta", "iterations", "residual", "method", "interior_ball_ok",
              "xx", "yy", "zz", "xy", "xz", "yz")
    rows = [(cfg.delta, report.iterations, report.residual, report.method,
             report.interior_ball_ok) + comps]
    tol = _thresholds(cfg)["residual"]
    checks = [("residual", report.residual <= tol,
               "residual=%r cap=%r" % (report.residual, tol))]
    return checks, header, rows, {"report": report}


def _run_energy(cfg):
    spec = cfg.family
    check_delta(spec, cfg.delta)  # scaled_base reads delta for this check alone
    rng = np.random.default_rng(cfg.seed)
    power = spec.kind == "power_law"
    zero = SymTensor()
    # Saturation value of the scalar law at 99% of the stress ball; conjugate
    # stresses of strains drawn inside this radius stay within the ball.
    x = spec.a * 0.99 * spec.c
    strain_r = min(0.9, x * (1.0 + x ** spec.p) ** (-1.0 / spec.p))
    # radii of a probe's S, Et and eps: ball_points' rows are independent, so one call
    # on their stack gives each point as a call of its own would, bit for bit
    radii = np.array([[0.9 * spec.c], [strain_r], [strain_r * cfg.delta]][:3 if power else 1])
    rows = []
    for i in range(cfg.samples):  # one probe per sample, drawing g, u, then Et and eps
        g, u = rng.standard_normal(6), rng.random(3)
        gauss = [g, rng.standard_normal(6), rng.standard_normal(6)] if power else [g]
        S, *strains = [SymTensor(*p) for p in ball_points(gauss, u[:len(gauss)], radii).tolist()]
        grad_err = frobenius(complementary_gradient(spec, S) - family_leading(spec, zero, S))
        fy_err = rt_err = float("nan")
        if power:
            Et, eps = strains
            star = conjugate_stress(spec, Et)
            fy_err = abs(legendre_transform(spec, Et)
                         + complementary_energy(spec, star) - inner(Et, star))
            sig = green_stress(spec, cfg.delta, eps)
            rt_err = frobenius(family_leading(spec, zero, sig) * cfg.delta - eps)
        rows.append((i, grad_err, fy_err, rt_err))

    names = ("grad", "fenchel", "roundtrip")
    checked = names if power else names[:1]  # scaled_base's other columns: NaN, reported 0.0
    worst = {name: math.nan if name in checked and any(map(math.isnan, col))
             else max([0.0, *col]) for name, col in zip(names, list(zip(*rows))[1:])}
    limits = _thresholds(cfg)
    checks = [(name, worst[name] <= limits[name + "_tol"],
               "max=%r cap=%r" % (worst[name], limits[name + "_tol"])) for name in checked]
    header = ("index", "grad_error", "fenchel_error", "roundtrip_error")
    return checks, header, rows, {"worst": worst, "probes": len(rows)}


class _Command(NamedTuple):
    blurb: str
    run: Callable
    # config key read besides _COMMON_KEYS -> its parser; the key is required
    # unless `defaults` names it
    keys: dict
    # threshold key -> default: a (lo, hi) window, a number, or None for a
    # family-dependent certification cap
    thresholds: dict
    kinds: tuple = tuple(KINDS)
    defaults: dict = {}


_STRESS = lambda raw, name: SymTensor(*_numbers(raw, name, 6))
_SAMPLES, _SEED = functools.partial(integer, least=1), functools.partial(integer, least=0)
_CONVERGE = _Command(
    "strain-driven convergence sweep", _run_converge,
    {"stress": _STRESS, "rotation": _parse_rotation, "deltas": _parse_deltas},
    {"order_full": (1.9, 2.1), "order_leading": (1.9, 2.1), "order_stress": (0.9, 1.1),
     "stress_row_factor": 10.0})

# Everything a command reads from its config. Order windows come from the
# quadratic/linear claims the studies are meant to confirm.
_COMMANDS = {
    "solve": _Command("solve the implicit relation at one delta", _run_solve,
                      {"stress": _STRESS, "delta": _as_float}, {"residual": 1e-10}),
    "converge": _CONVERGE,
    "converge-hencky": _CONVERGE._replace(blurb="stress-driven convergence sweep"),
    "certify": _Command("sample family constants over the admissible ball", _run_certify,
                        {"deltas": _parse_deltas, "samples": _SAMPLES, "seed": _SEED},
                        dict.fromkeys(("C0", "C1", "D0", "C3")),
                        defaults={"samples": 10000, "seed": 0}),
    "oned": _Command("scalar diagnostic sweep", _run_oned,
                     {"delta": _as_float, "stresses": _numbers},
                     {"slope": (0.9, 1.1)}, ("power_law",)),
    "energy": _Command("complementary energy consistency probes", _run_energy,
                       {"delta": _as_float, "samples": functools.partial(_SAMPLES, most=1000),
                        "seed": _SEED},
                       {"grad_tol": 1e-6, "fenchel_tol": 1e-9, "roundtrip_tol": 1e-8},
                       ENERGY_KINDS, defaults={"samples": 1000, "seed": 0}),
}


def run_experiment(cfg: SimpleNamespace, output_dir: str) -> dict:
    """Run one configured study and write its CSV and JSON outputs into `output_dir`.

    Returns the report payload on success. Raises StudyFailed if the
    study dies partway or misses a threshold; outputs that could be written
    are written either way.
    """
    try:
        checks, header, rows, extra = _COMMANDS[cfg.command].run(cfg)
    except ValueError as exc:
        # parameters the library refuses (samples) are config errors
        raise ConfigInvalid("bad parameters: %s" % exc)
    except MemoryError as exc:
        raise ConfigInvalid("the study does not fit in memory: %s" % exc)
    except StrainLimError as exc:
        raise StudyFailed("%s: %s" % (type(exc).__name__, exc))

    stem = cfg.command.replace("-", "_")
    directory = os.path.abspath(output_dir)
    if not os.path.isdir(directory):  # one stat where makedirs would try a mkdir
        os.makedirs(directory, exist_ok=True)
    _atomic_write(directory, stem + ".csv", "".join(
        ",".join(map(_cell, row)) + "\n" for row in (header, *rows)).encode())

    ok = all(passed for _, passed, _ in checks)
    payload = {
        "command": cfg.command,
        "config": {key: _echo(value) for key, value in vars(cfg).items()},
        "verdict": "PASS" if ok else "FAIL",
        "checks": [{"name": n, "ok": p, "detail": d} for n, p, d in checks],
        "csv": stem + ".csv",  # a name, not a path: the report sits next to it
    }
    payload.update(extra)
    _atomic_write(directory, stem + "_report.json", (_json(payload) + "\n").encode())

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
        p.add_argument("--out", default=".", help="output directory (default: .)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if exc.code in (0, None) else 1

    try:
        try:
            with open(args.config, "rb") as handle:
                text = handle.read().decode("utf-8")
            # the newlines a text-mode read would give, so JSON errors name the same offsets
            raw = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
        except OSError as exc:
            raise ConfigInvalid("cannot read config: %s" % exc)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
            raise ConfigInvalid("config is not valid JSON: %s" % exc)
        cfg = parse_config(raw, args.command)
        try:
            payload = run_experiment(cfg, args.out)
        except OSError as exc:
            raise ConfigInvalid("cannot write outputs: %s" % exc)
        print("PASS %s kind=%s checks=%d csv=%s"
              % (cfg.command, cfg.family.kind, len(payload["checks"]),
                 os.path.join(args.out, payload["csv"])))
        return 0
    except StudyFailed as exc:
        print("FAIL %s kind=%s %s" % (args.command, cfg.family.kind, exc))
        return 2
    except ConfigInvalid as exc:
        print("FAIL config: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
