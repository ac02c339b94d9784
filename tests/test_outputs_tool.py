"""tools/outputs.py: snapshots of one commit agree, and compare names a one-ulp change."""

import importlib.util
import json
import math
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("outputs_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_snapshots_agree_and_compare_names_a_one_ulp_change(tmp_path, capsys):
    outputs = _tool()
    a, b = tmp_path / "a", tmp_path / "b"
    first, second = outputs.snapshot(a, cycle=True), outputs.snapshot(b, cycle=True)
    capsys.readouterr()
    assert len(first) == 20
    assert first == second == json.loads((a / "manifest.json").read_text())
    assert outputs.compare(a, b) == ([], [])

    study = "converge-401-000"
    csv = b / study / "out" / "converge.csv"
    header, row, *rest = csv.read_text().splitlines()
    cells = row.split(",")
    column = header.split(",").index("residual_full")
    old = float(cells[column])
    new = math.nextafter(old, math.inf)
    cells[column] = repr(new)
    csv.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")

    lines, summary = outputs.compare(a, b)
    assert len(lines) == 1
    assert lines[0].startswith(study + " out/converge.csv: residual_full abs=")
    # the summary quotes how far the column moved: one ulp
    assert summary == ["1 of 20 studies differ",
                       "      1 x out/converge.csv: residual_full (max abs=%.3g rel=%.3g)"
                       % (new - old, (new - old) / max(abs(old), abs(new)))]
    assert outputs.main(["compare", str(a), str(b)]) == 1


def test_a_seed_replaces_every_standard_seed(tmp_path, capsys):
    outputs = _tool()
    digests = outputs.snapshot(tmp_path / "c", cycle=True, seed=5)
    capsys.readouterr()
    assert len(digests) == 20
    assert {study.split("-")[1] for study in digests} == {"5"}
    # the same workloads and lengths; energy runs once at the one seed
    assert [s[0].replace("-5-", "-") for s in outputs.studies(cycle=True, seed=5)] == [
        s[0].replace("-401-", "-").replace("-7-", "-") for s in outputs.studies(cycle=True)]
    assert len(outputs.studies(seed=5)) == 480 + 300 + 102
    assert outputs.studies(cycle=True, seed=401)[:12] == outputs.studies(cycle=True)[:12]
