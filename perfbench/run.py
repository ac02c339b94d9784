#!/usr/bin/env python3
"""strainlim benchmark: CLI studies in a closed loop with one client.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; it imports `strainlim` from
`src/` of that checkout and writes only under `perfbench/out/`.

Each request is one study: an in-process `strainlim.cli.main([...])` on a
generated JSON config, which parses the config, computes and writes the
CSV and JSON report atomically. The next study starts when the previous
one has returned and its outputs have been checked.

`--trace 0` measures the end-to-end metrics with tracing off: the closed
loop, and between its studies the wall time of a fresh
`python -m strainlim` on the workload's smallest config (setup_s).
`--trace 1` alternates untraced and traced passes over the head of the
same study list, checks that tracing leaves every output byte-identical,
and reports the per-layer metrics of the first traced pass (counts and
seconds summed over that pass) plus the tracing overhead.

Each study's time is the mean over its timed runs; study_s_p50 and
study_s_tail are quantiles over studies. The last line of standard output
is one JSON object: correct, attempted, failed, metrics. A fuller record,
with machine facts, goes to
`perfbench/out/<workload>-trace<t>/result-seed<n>.json`; the same
directory keeps the timed runs of each study of an untraced run
(`durations.json`) and the spans of a traced one (`spans.json`).

Tests for the benchmark itself: `python3 -m pytest perfbench`.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# one process, one BLAS thread: load never exceeds nproc threads
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 9
IMPORT_REPEATS = 3
TAIL_LADDER = (90.0, 99.0, 99.9)
# studies in a workload's list: whole mix cycles, one pass well inside a run
LIST_LENGTH = {"certify": 102, "converge": 480, "energy": 300}
# studies in one traced pass: the head of the same list
TRACE_STUDIES = {"certify": 6, "converge": 48, "energy": 20}

END_TO_END_UNITS = {"setup_s": "s", "study_s_p50": "s", "study_s_tail": "s",
                    "studies_per_s": "1/s", "peak_rss_mb": "MB"}

# (metric, unit, traced function, statistic) read straight off the spans
SPAN_METRICS = [
    ("families.family_eval.calls", "count", "families.family_eval", "calls"),
    ("families.family_eval.us_per_call", "us", "families.family_eval", "us_per_call"),
    ("families.family_eval.self_s", "s", "families.family_eval", "self_s"),
    ("families.family_leading.calls", "count", "families.family_leading", "calls"),
    ("families.family_leading.self_s", "s", "families.family_leading", "self_s"),
    ("families.leading_gap.self_s", "s", "families.leading_gap", "self_s"),
    ("analysis.certify_constants.self_s", "s", "analysis.certify_constants", "self_s"),
    ("analysis.run_convergence.self_s", "s", "analysis.run_convergence", "self_s"),
    ("analysis.run_convergence_hencky.self_s", "s", "analysis.run_convergence_hencky", "self_s"),
    ("analysis.fit_order.calls", "count", "analysis.fit_order", "calls"),
    ("solver.solve_implicit.calls", "count", "solver.solve_implicit", "calls"),
    ("solver.solve_implicit.self_s", "s", "solver.solve_implicit", "self_s"),
    ("solver.solve_implicit_hencky.calls", "count", "solver.solve_implicit_hencky", "calls"),
    ("solver.solve_implicit_hencky.self_s", "s", "solver.solve_implicit_hencky", "self_s"),
    ("symtensor.eig_sym.calls", "count", "symtensor.eig_sym", "calls"),
    ("symtensor.eig_sym.us_per_call", "us", "symtensor.eig_sym", "us_per_call"),
    ("symtensor.eig_sym.self_s", "s", "symtensor.eig_sym", "self_s"),
    ("symtensor.spd_sqrt.self_s", "s", "symtensor.spd_sqrt", "self_s"),
    ("symtensor.sym_log.self_s", "s", "symtensor.sym_log", "self_s"),
    ("symtensor.sym_exp.self_s", "s", "symtensor.sym_exp", "self_s"),
    ("kinematics.make_rotation.self_s", "s", "kinematics.make_rotation", "self_s"),
    ("kinematics.deformation_from_green.self_s", "s", "kinematics.deformation_from_green", "self_s"),
    ("kinematics.deformation_from_hencky.self_s", "s", "kinematics.deformation_from_hencky", "self_s"),
    ("kinematics.sigma_from_piola.self_s", "s", "kinematics.sigma_from_piola", "self_s"),
    ("kinematics.sigma_from_cauchy.self_s", "s", "kinematics.sigma_from_cauchy", "self_s"),
    ("energy.complementary_energy.calls", "count", "energy.complementary_energy", "calls"),
    ("energy.legendre_transform.calls", "count", "energy.legendre_transform", "calls"),
    ("energy.complementary_gradient.self_s", "s", "energy.complementary_gradient", "self_s"),
    ("energy.green_stress.self_s", "s", "energy.green_stress", "self_s"),
    ("energy.quad.calls", "count", "energy.quad", "calls"),
    ("energy.quad.self_s", "s", "energy.quad", "self_s"),
    ("scalar1d.oned_delta0_study.self_s", "s", "scalar1d.oned_delta0_study", "self_s"),
    ("cli.parse_config.self_s", "s", "cli.parse_config", "self_s"),
    ("cli.run_experiment.self_s", "s", "cli.run_experiment", "self_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
]
# metrics the runner derives from solver outcomes, configs, files and timings
DERIVED_UNITS = {
    "solver.iterations_per_solve": "count",
    "solver.newton_share": "share",
    "solver.failed_share": "share",
    "analysis.certify_constants.us_per_sample": "us",
    "cli.bytes_written": "bytes",
    "cli.import_s": "s",
    "trace.untraced_studies_per_s": "1/s",
    "trace.traced_studies_per_s": "1/s",
    "trace.overhead_studies_per_s": "1/s",
}
# which traced functions a workload should call (True) or never reach (False)
PREDICTED_CALLS = {
    "certify": {
        "families.family_eval": True, "families.family_leading": True,
        "families.leading_gap": True, "analysis.certify_constants": True,
        "analysis.run_convergence": False, "analysis.run_convergence_hencky": False,
        "analysis.fit_order": False, "solver.solve_implicit": False,
        "solver.solve_implicit_hencky": False, "symtensor.eig_sym": False,
        "kinematics.make_rotation": False, "energy.complementary_energy": False,
        "energy.quad": False, "scalar1d.oned_delta0_study": False, "cli.main": True,
    },
    "converge": {
        "families.family_eval": True, "families.family_leading": True,
        "analysis.certify_constants": False, "analysis.run_convergence": True,
        "analysis.run_convergence_hencky": True, "analysis.fit_order": True,
        "solver.solve_implicit": True, "solver.solve_implicit_hencky": True,
        "symtensor.eig_sym": True, "symtensor.spd_sqrt": True, "symtensor.sym_log": True,
        "symtensor.sym_exp": True, "kinematics.make_rotation": True,
        "kinematics.deformation_from_green": True, "kinematics.deformation_from_hencky": True,
        "kinematics.sigma_from_piola": True, "kinematics.sigma_from_cauchy": True,
        "energy.complementary_energy": False, "energy.quad": False,
        "scalar1d.oned_delta0_study": False, "cli.main": True,
    },
    "energy": {
        "families.family_eval": False, "families.family_leading": True,
        "analysis.certify_constants": False, "analysis.run_convergence": False,
        "analysis.fit_order": True, "solver.solve_implicit": False,
        "solver.solve_implicit_hencky": False, "symtensor.eig_sym": False,
        "kinematics.make_rotation": False, "energy.complementary_energy": True,
        "energy.legendre_transform": True, "energy.complementary_gradient": True,
        "energy.green_stress": True, "energy.quad": True,
        "scalar1d.oned_delta0_study": True, "cli.main": True,
    },
}
PER_LAYER_UNITS = dict([(m, u) for m, u, _, _ in SPAN_METRICS] + list(DERIVED_UNITS.items()))


class StudyResult(NamedTuple):
    """Exit code, wall time and output bytes of one study."""

    rc: Optional[int]
    seconds: float
    csv: Optional[bytes]
    report: Optional[bytes]
    error: Optional[str]  # set when cli.main raised instead of returning

    def outputs(self):
        return self.csv, self.report


def _read(path):
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None


def run_study(cli, command, cfg, work):
    """Run one study in-process; only the `cli.main` call is timed."""
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    csv_name, report_name = checks.output_names(command)
    out_dir = work / "study"
    for name in (csv_name, report_name):
        with contextlib.suppress(FileNotFoundError):
            (out_dir / name).unlink()
    argv = [command, "--config", str(cfg_path), "--out", str(out_dir)]
    sink = io.StringIO()
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # the CLI promises a line, never a traceback
            rc = None
            error = "%s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - start
    return StudyResult(rc, seconds, _read(out_dir / csv_name), _read(out_dir / report_name), error)


class Tally:
    """Attempted and failed studies, and the wrong outputs among them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def add(self, index, command, cfg, result):
        self.attempted += 1
        if result.error is not None:
            failed, problems = True, ["raised " + result.error]
        else:
            failed, problems = checks.check_study(command, cfg, result.rc, *result.outputs())
        self.failed += failed
        self.wrong += ["study %d (%s): %s" % (index, command, p) for p in problems]
        return failed

    def mismatch(self, index, command, already_failed, what):
        self.failed += not already_failed
        self.wrong.append("study %d (%s): %s" % (index, command, what))


def tail_percentile(n):
    """Highest percentile with at least 10 of n distinct studies beyond it.

    Reruns of a study are not new samples of the workload, so n counts
    distinct studies. Rounded down to TAIL_LADDER when n allows, so that
    the percentile stays put when the study list grows a little.
    """
    fitting = [pct for pct in TAIL_LADDER if n * (100.0 - pct) / 100.0 >= 10.0]
    if fitting:
        return fitting[-1]
    return max(0.0, 100.0 * (n - 10) / n) if n else 0.0


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def machine_facts():
    cpu = platform.processor() or ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": dict(BLAS_ENV)}


def _child_env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_probe(command, cfg, work):
    """One fresh `python -m strainlim` on `cfg`: (wall seconds, output problems)."""
    cfg_path = work / "smallest.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = work / "setup"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "strainlim", command, "--config", str(cfg_path),
         "--out", str(out_dir)],
        cwd=ROOT, env=_child_env(), capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    csv_name, report_name = checks.output_names(command)
    _, problems = checks.check_study(command, cfg, proc.returncode,
                                     _read(out_dir / csv_name), _read(out_dir / report_name))
    if proc.returncode != 0:
        problems = problems or ["exit code %d" % proc.returncode]
    return elapsed, ["set-up run: " + p for p in problems]


def measure_import():
    """Median time to import strainlim in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import strainlim; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for attempt in range(IMPORT_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        if attempt:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_end_to_end(cli, workload, seed, seconds, work):
    """Closed loop over the workload's study list for `seconds`.

    The first pass judges every study once, so `attempted` and `failed` are
    fixed by the seed; later passes are reruns whose bytes must match the
    first pass. The first run of the first mix cycle is warm-up and is not
    timed; the loop goes on at least until that cycle has been rerun.
    """
    tally = Tally()
    smallest = workloads.smallest(workload)
    setup_times = []

    def probe():
        seconds_taken, problems = setup_probe(*smallest, work)
        tally.wrong += problems
        return seconds_taken

    probe()  # warms the bytecode cache; not timed
    studies = workloads.generate(workload, seed, LIST_LENGTH[workload])
    warm = workloads.CYCLE[workload]
    first = []  # (failed, output bytes) per study of the first pass
    runs_of = [[] for _ in studies]  # timed wall seconds per study
    runs = 0
    start = time.perf_counter()
    probing = 0.0
    while True:
        elapsed = time.perf_counter() - start - probing
        if runs >= len(studies) + warm and elapsed >= seconds:
            break
        # set-up probes are spread over the run, so they meet the same
        # machine conditions as the studies; their time is not loop time
        if len(setup_times) < SETUP_REPEATS and elapsed >= len(setup_times) * seconds / SETUP_REPEATS:
            probe_start = time.perf_counter()
            setup_times.append(probe())
            probing += time.perf_counter() - probe_start
        index = runs % len(studies)
        command, cfg = studies[index]
        result = run_study(cli, command, cfg, work)
        if runs < len(studies):
            first.append((tally.add(index, command, cfg, result), result.outputs()))
        elif result.outputs() != first[index][1]:
            tally.mismatch(index, command, first[index][0],
                           "rerun %d is not byte-identical" % (runs // len(studies)))
            first[index] = (True, first[index][1])
        if runs >= warm:
            runs_of[index].append(result.seconds)
        runs += 1
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(probe())
    (work / "durations.json").write_text(json.dumps(runs_of))
    # a study's time is the mean over its timed runs: reruns of one study
    # are not new samples of the workload, and the mean weighs the machine's
    # fast and slow spells by how long they lasted, where a quantile of the
    # raw runs would jump between them
    study_s = [statistics.fmean(r) for r in runs_of]
    timed = [t for r in runs_of for t in r]
    pct = tail_percentile(len(study_s))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup_times),
        "study_s_p50": statistics.median(study_s),
        "study_s_tail": percentile(study_s, pct),
        "studies_per_s": len(timed) / sum(timed),
        "peak_rss_mb": rss_kib / 1024.0,
    }
    details = {"study_list": len(studies), "study_runs": runs,
               "reruns": runs - len(studies), "timed_runs": len(timed),
               "tail_percentile": pct}
    return tally, metrics, END_TO_END_UNITS, details


def unpredicted_calls(workload, stats):
    """Traced functions whose call count breaks the workload's prediction."""
    wrong = []
    for name, expect in PREDICTED_CALLS[workload].items():
        calls = stats.get(name, {}).get("calls", 0)
        if bool(calls) != expect:
            wrong.append("%s: %d calls, predicted %s" % (name, calls, "some" if expect else "none"))
    return wrong


def span_stats(spans):
    """Per traced function: calls, self_s and us_per_call (inclusive)."""
    stats = {}
    for name, (calls, inclusive, self_s) in tracing.self_times(spans).items():
        stats[name] = {"calls": calls, "self_s": self_s,
                       "us_per_call": 1e6 * inclusive / calls}
    return stats


def run_traced(cli, workload, seed, seconds, work):
    """Untraced and traced passes in turn over one fixed list of studies."""
    tally = Tally()
    studies = workloads.generate(workload, seed, TRACE_STUDIES[workload])
    tracer = tracing.Tracer()
    baseline = []
    busy = {False: 0.0, True: 0.0}
    done = {False: 0, True: 0}
    kept = None  # spans, solver outcomes and bytes of the first traced pass
    passes = 0
    start = time.perf_counter()
    # pass 0 warms up and records the untraced bytes; then untraced/traced pairs
    while passes < 3 or passes % 2 == 0 or time.perf_counter() - start < seconds:
        traced = passes % 2 == 0 and passes > 0
        spans, solves, written = [], [], 0
        if traced:
            tracer.install()
        try:
            for index, (command, cfg) in enumerate(studies):
                result = run_study(cli, command, cfg, work)
                study_spans, study_solves = tracer.take()
                if passes == 0:
                    baseline.append((tally.add(index, command, cfg, result), result.outputs()))
                    continue
                failed, outputs = baseline[index]
                if result.outputs() != outputs:
                    tally.mismatch(index, command, failed, "pass %d (%s) changed the output bytes"
                                   % (passes, "traced" if traced else "untraced"))
                    baseline[index] = (True, outputs)
                busy[traced] += result.seconds
                done[traced] += 1
                if traced and kept is None:
                    spans += study_spans
                    solves += study_solves
                    written += sum(len(b) for b in result.outputs() if b is not None)
        finally:
            if traced:
                tracer.uninstall()
        if traced and kept is None:
            kept = (spans, solves, written)
        passes += 1
    spans, solves, written = kept
    write_spans(spans, work / "spans.json")

    stats = span_stats(spans)
    zero = {"calls": 0, "self_s": 0.0, "us_per_call": 0.0}
    metrics = {m: stats.get(fn, zero)[stat] for m, _, fn, stat in SPAN_METRICS}
    solved = [s for s in solves if s is not None]
    samples = sum(cfg["samples"] * len(cfg["deltas"]) for command, cfg in studies
                  if command == "certify")
    certify_s = stats.get("analysis.certify_constants")
    rate = {mode: done[mode] / busy[mode] for mode in (False, True)}
    metrics.update({
        "solver.iterations_per_solve": (sum(i for i, _ in solved) / len(solved)) if solved else 0.0,
        "solver.newton_share": (sum(m == "newton" for _, m in solved) / len(solved)) if solved else 0.0,
        "solver.failed_share": (solves.count(None) / len(solves)) if solves else 0.0,
        "analysis.certify_constants.us_per_sample":
            (certify_s["us_per_call"] * certify_s["calls"] / samples) if certify_s else 0.0,
        "cli.bytes_written": written,
        "cli.import_s": measure_import(),
        "trace.untraced_studies_per_s": rate[False],
        "trace.traced_studies_per_s": rate[True],
        "trace.overhead_studies_per_s": rate[True] - rate[False],
    })
    details = {"trace_studies": len(studies), "passes": passes, "spans": len(spans),
               "unpredicted_calls": unpredicted_calls(workload, stats)}
    return tally, metrics, PER_LAYER_UNITS, details


def write_spans(spans, path):
    """Write one pass's spans as columns; study roots are the `cli.main` spans."""
    names = sorted({s[2] for s in spans})
    code = {n: i for i, n in enumerate(names)}
    columns = {"names": names,
               "id": [s[0] for s in spans], "parent": [s[1] for s in spans],
               "name": [code[s[2]] for s in spans],
               "start": [s[3] for s in spans], "end": [s[4] for s in spans]}
    path.write_text(json.dumps(columns))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "strainlim" / "__init__.py").is_file():
        print("no strainlim sources under %s" % SRC, file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import strainlim.cli as cli

    work = OUT / ("%s-trace%d" % (args.workload, args.trace))
    work.mkdir(parents=True, exist_ok=True)
    runner = run_traced if args.trace else run_end_to_end
    tally, metrics, units, details = runner(cli, args.workload, args.seed, args.seconds, work)

    facts = machine_facts()
    failed_ratio = tally.failed / tally.attempted
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "details": details,
              "attempted": tally.attempted, "failed": tally.failed,
              "failed_ratio": failed_ratio, "wrong": tally.wrong,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (work / ("result-seed%d.json" % args.seed)).write_text(json.dumps(record, indent=2) + "\n")

    print("machine: " + json.dumps(facts, sort_keys=True))
    for key, value in details.items():
        print("%s: %s" % (key, value))
    for problem in tally.wrong:
        print("WRONG " + problem)
    print("failed_ratio = %r ratio (%d failed of %d attempted)"
          % (failed_ratio, tally.failed, tally.attempted))
    for key, value in metrics.items():
        note = ""
        if key == "study_s_tail":
            note = " (p%g of %d studies, each the mean of its timed runs)" % (
                details["tail_percentile"], details["study_list"])
        print("%s = %r %s%s" % (key, value, units[key], note))
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
