"""Output checks for one CLI study.

A study *fails* when it exits non-zero, its report verdict is not PASS, it
reports a non-finite number under PASS, or a rerun does not reproduce its
CSV/JSON bytes. Failing a study is an outcome of the program under test
and is counted, not hidden. A study's output is *wrong* when it breaks the
CLI contract itself: an exit code outside {0, 2} for a valid config, a
verdict that disagrees with the exit code, a non-finite number under PASS,
a CSV that does not match the documented columns or the config, or bytes
that differ on a rerun. Any wrong output makes the run's `correct` false.
"""

import json
import math

HEADERS = {
    "solve": "delta,iterations,residual,method,interior_ball_ok,xx,yy,zz,xy,xz,yz",
    "converge": "delta,delta0,residual_full,residual_leading,stress_gap,strain_gap",
    "converge-hencky": "delta,delta0,residual_full,residual_leading,stress_gap,strain_gap",
    "certify": "delta,C0_hat,C1_hat,D0_hat,C3_hat",
    "oned": "Sbar,E,eps,delta0,sigma,gap",
    "energy": "index,grad_error,fenchel_error,roundtrip_error",
}

_NONFINITE_TEXT = ("nan", "inf", "-inf")


def output_names(command):
    """File names the CLI writes for `command`: (csv, report)."""
    stem = command.replace("-", "_")
    return stem + ".csv", stem + "_report.json"


def first_column(command, cfg):
    """The CSV's first column as the config determines it."""
    if command in ("converge", "converge-hencky", "certify"):
        return [float(d) for d in cfg["deltas"]]
    if command == "solve":
        return [float(cfg["delta"])]
    if command == "oned":
        return [float(s) for s in cfg["stresses"]]
    return [float(i) for i in range(min(cfg.get("samples", 10000), 1000))]


def nonfinite_paths(value, path="$"):
    """JSON paths of non-finite numbers (floats, or the CLI's repr strings)."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [path]
    if isinstance(value, str):
        return [path] if value in _NONFINITE_TEXT else []
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in nonfinite_paths(v, path + "." + k)]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in nonfinite_paths(v, "%s[%d]" % (path, i))]
    return []


def check_study(command, cfg, rc, csv_bytes, report_bytes):
    """Judge one study from its exit code and output bytes (None when not written).

    Returns (failed, problems): `problems` lists the ways the output is
    wrong, and a wrong output always counts as failed.
    """
    if rc not in (0, 2):
        return True, ["exit code %r for a generated config" % (rc,)]
    verdict = None
    report = None
    if report_bytes is not None:
        try:
            report = json.loads(report_bytes)
            verdict = report.get("verdict")
        except ValueError as exc:
            return True, ["report is not JSON: %s" % exc]
    if rc == 2:
        if verdict == "PASS":
            return True, ["exit code 2 with a PASS report"]
        return True, []
    if verdict != "PASS":
        return True, ["exit code 0 with verdict %r" % (verdict,)]
    problems = ["non-finite %s under PASS" % p for p in nonfinite_paths(report)]
    problems += _csv_problems(command, cfg, csv_bytes)
    return bool(problems), problems


def _csv_problems(command, cfg, csv_bytes):
    if csv_bytes is None:
        return ["no CSV written"]
    lines = csv_bytes.decode("utf-8").split("\n")
    if lines[-1] != "":
        return ["CSV does not end with a newline"]
    if lines[0] != HEADERS[command]:
        return ["CSV header %r" % lines[0]]
    rows = [line.split(",") for line in lines[1:-1]]
    expected = first_column(command, cfg)
    if len(rows) != len(expected):
        return ["CSV has %d rows, config implies %d" % (len(rows), len(expected))]
    width = HEADERS[command].count(",") + 1
    for i, (row, want) in enumerate(zip(rows, expected)):
        if len(row) != width:
            return ["CSV row %d has %d cells" % (i, len(row))]
        if float(row[0]) != want:
            return ["CSV row %d starts with %s, config gives %r" % (i, row[0], want)]
    return []
