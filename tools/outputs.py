#!/usr/bin/env python3
"""Snapshot the outputs of the standard study set, and compare two snapshots.

    python3 tools/outputs.py snapshot DIR [--src SRC] [--seed N]
    python3 tools/outputs.py compare A B

`snapshot` runs the standard set in one process through `strainlim.cli.main`:
converge seed 401 x480, energy seeds 401 and 3 x300 each and certify seed
7 x102, the configs of `perfbench/workloads.py`. `--seed N` runs the same
workloads and lengths at seed N instead (energy then once, x300), so that a
claim about outputs can be checked on a seed it was not written against.
Each study gets its own
directory `DIR/<workload>-<seed>-<index>/` holding `config.json`, the
`exit` code, `stdout`, `stderr`, and the outputs in `out/`, written with
`--out .` from inside `out/` so that no path of the snapshot leaks into
them. `DIR/manifest.json` maps every study to the SHA-256 digest of each
of its files. `--src` imports strainlim from another checkout's `src/`, so
one copy of this tool and of the workloads serves both sides of a change.

`compare` lists each file that differs between two snapshots: per CSV
column the largest absolute and relative difference, per JSON report the
paths that changed (`-` only in A, `+` only in B, `~` different), and for
any other file both first lines. A summary groups the differences by file
and what changed, with each CSV column's largest absolute and relative
difference over the group's studies. Exit 0 when the snapshots are equal,
1 otherwise.
"""

import argparse
import collections
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STANDARD = (("converge", 401, 480), ("energy", 401, 300), ("energy", 3, 300),
            ("certify", 7, 102))


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "strainlim_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def studies(cycle=False, seed=None):
    """(study id, command, config) of the standard set, or of its first cycle per
    workload; a `seed` replaces every standard seed."""
    workloads = _workloads()
    plan, seen = [], set()
    standard = STANDARD if seed is None else {(w, seed, n): None for w, _, n in STANDARD}
    for workload, seed, length in standard:
        if cycle:
            if workload in seen:
                continue
            seen.add(workload)
            length = workloads.CYCLE[workload]
        generated = workloads.generate(workload, seed, length)
        plan += [("%s-%d-%03d" % (workload, seed, index), command, cfg)
                 for index, (command, cfg) in enumerate(generated)]
    return plan


def _run(main, study_dir, command, cfg):
    (study_dir / "out").mkdir(parents=True)
    (study_dir / "config.json").write_text(json.dumps(cfg))
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(study_dir / "out")
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", "../config.json", "--out", "."])
    except Exception:  # the CLI promises an exit code; record what broke it and go on
        code = "raised"
        stderr.write(traceback.format_exc())
    finally:
        os.chdir(cwd)
    (study_dir / "exit").write_text("%s\n" % code)
    (study_dir / "stdout").write_text(stdout.getvalue())
    (study_dir / "stderr").write_text(stderr.getvalue())


def manifest(directory):
    """{study id: {file path in the study directory: SHA-256 hex digest}}."""
    directory = Path(directory)
    return {study.name: {path.relative_to(study).as_posix():
                         hashlib.sha256(path.read_bytes()).hexdigest()
                         for path in sorted(study.rglob("*")) if path.is_file()}
            for study in sorted(directory.iterdir()) if study.is_dir()}


def snapshot(directory, src=None, cycle=False, seed=None):
    """Run the study set (at `seed`, if given) into the new or empty `directory`;
    return its manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if any(directory.iterdir()):
        raise SystemExit("snapshot: %s is not empty" % directory)
    sys.path.insert(0, str(Path(src).resolve() if src else ROOT / "src"))
    from strainlim.cli import main
    for study_id, command, cfg in studies(cycle, seed):
        _run(main, directory / study_id, command, cfg)
    digests = manifest(directory)
    (directory / "manifest.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return digests


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_diff(a, b):
    """{column: (largest abs, largest rel) difference, or None for a text cell}, or
    {"layout": what differs} when the headers or the row counts differ."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(p.read_text()))) for p in (a, b))
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return {"layout": "%d vs %d rows, header %s vs %s"
                % (len(rows_a), len(rows_b), rows_a[:1], rows_b[:1])}
    worst = {}
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for column, x, y in zip(rows_a[0], row_a, row_b):
            if x == y:
                continue
            fx, fy = _float(x), _float(y)
            if fx is None or fy is None:
                worst[column] = None
                continue
            d = abs(fx - fy)
            if not d < math.inf:  # an inf, or a NaN on one side only
                d = rel = math.inf
            else:  # 0.0 for "0.0" against "-0.0"
                rel = d / max(abs(fx), abs(fy)) if d else 0.0
            old = worst.get(column, (0.0, 0.0))
            if old is not None:
                worst[column] = (max(old[0], d), max(old[1], rel))
    return worst


def _csv_items(worst):
    return ["%s: %s" % (column, w) if isinstance(w, str) else "%s text" % column if w is None
            else "%s abs=%.3g rel=%.3g" % (column, *w) for column, w in worst.items()]


def _json_paths(x, y, path=""):
    if isinstance(x, dict) and isinstance(y, dict):
        for key in sorted(set(x) | set(y)):
            sub = "%s.%s" % (path, key) if path else key
            if key not in y:
                yield "-" + sub
            elif key not in x:
                yield "+" + sub
            else:
                yield from _json_paths(x[key], y[key], sub)
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        for i, (u, v) in enumerate(zip(x, y)):
            yield from _json_paths(u, v, "%s[%d]" % (path, i))
    elif x != y or type(x) is not type(y):
        yield "~" + path


def _first_line(path):
    return repr(path.read_text().split("\n", 1)[0][:100])


def describe(a, b):
    """How file `a` differs from file `b`: a list of short items."""
    if not (a.exists() and b.exists()):
        return ["only in " + ("A" if a.exists() else "B")]
    if a.suffix == ".csv":
        return _csv_items(_csv_diff(a, b))
    if a.suffix == ".json":
        return list(_json_paths(json.loads(a.read_text()), json.loads(b.read_text())))
    return ["A %s B %s" % (_first_line(a), _first_line(b))]


def compare(a, b):
    """(lines listing each differing file, summary lines); both empty when A equals B."""
    a, b = Path(a), Path(b)
    ma, mb = manifest(a), manifest(b)
    # (file name, what changed) -> studies; a CSV column also keeps its largest move
    lines, groups, moved = [], collections.Counter(), collections.defaultdict(dict)
    for study in sorted(set(ma) | set(mb)):
        if study not in ma or study not in mb:
            lines.append("%s: study only in %s" % (study, "A" if study in ma else "B"))
            groups["study only in " + ("A" if study in ma else "B"), ()] += 1
            continue
        for name in sorted(set(ma[study]) | set(mb[study])):
            if ma[study].get(name) == mb[study].get(name):
                continue
            fa, fb = a / study / name, b / study / name
            both = fa.exists() and fb.exists()
            worst = _csv_diff(fa, fb) if both and fa.suffix == ".csv" else {}
            items = _csv_items(worst) if worst else describe(fa, fb)
            lines.append("%s %s: %s" % (study, name, "; ".join(items)))
            # CSV columns, JSON paths or a missing file; any other file just differs
            key = name, tuple(sorted(worst) if worst else sorted(set(items))
                              if fa.suffix == ".json" or not both else ["differs"])
            for column, w in worst.items():
                if isinstance(w, tuple):
                    old = moved[key].get(column, w)
                    moved[key][column] = (max(old[0], w[0]), max(old[1], w[1]))
            groups[key] += 1
    differing = len({line.split(" ")[0].rstrip(":") for line in lines})
    summary = ["%d of %d studies differ" % (differing, len(set(ma) | set(mb)))]
    for (name, kinds), n in sorted(groups.items()):
        shown = [k if k not in moved[name, kinds] else "%s (max abs=%.3g rel=%.3g)"
                 % (k, *moved[name, kinds][k]) for k in kinds]
        summary.append("  %5d x %s" % (n, ": ".join([name, ", ".join(shown)] if kinds else [name])))
    return lines, summary if lines else []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    snap = sub.add_parser("snapshot", help="run the study set into a new directory")
    snap.add_argument("directory")
    snap.add_argument("--src", help="the src/ directory to import strainlim from")
    snap.add_argument("--seed", type=int, help="run every workload at this seed")
    comp = sub.add_parser("compare", help="list the differences between two snapshots")
    comp.add_argument("a")
    comp.add_argument("b")
    args = parser.parse_args(argv)
    if args.action == "snapshot":
        digests = snapshot(args.directory, args.src, seed=args.seed)
        print("%d studies in %s" % (len(digests), args.directory))
        return 0
    lines, summary = compare(args.a, args.b)
    print("\n".join(lines + summary or ["snapshots are equal"]))
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
