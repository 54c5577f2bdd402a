"""Show that every correctness check catches a corrupted output tree.

    python3 perfbench/selftest.py

Run from the root of a longmatch checkout (about 20 s). Builds one small
pipeline tree (the `study` shape cut to 40 subjects with one image per eye
per session), requires every check to pass on it, then for each check makes
a copy with one targeted corruption and requires that check to fail. The
byte-for-byte tree comparison is tried on an identical and a one-byte-changed
copy. Prints one line per case; exits 1 if any case misbehaves.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
from pathlib import Path

import checks
import run
import workloads


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    edit({name: j for j, name in enumerate(header)}, body)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + body)


def _bump(col: str, delta: float, row: int = 0, as_int: bool = False):
    def edit(c, body):
        value = float(body[row][c[col]]) + delta
        body[row][c[col]] = str(int(value)) if as_int else repr(value)
    return edit


def _drop_last_row(c, body):
    body.pop()


def _self_impostor(c, body):
    body[0][c["probe_image_id"]] = body[0][c["gallery_image_id"]]


def _loosest_threshold(out: Path):
    thresholds = json.loads((out / "thresholds.json").read_text(encoding="utf-8"))
    thresholds["simA"] = -1000.0
    (out / "thresholds.json").write_text(json.dumps(thresholds), encoding="utf-8")


def _fused_fnmr(out: Path):
    path = out / "fusion_report.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    j = next(j for j, line in enumerate(lines) if line.startswith("fused FNMR: "))
    lines[j] = f"fused FNMR: {float(lines[j].split(': ')[1]) + 0.001!r}\n"
    path.write_text("".join(lines), encoding="utf-8")


def _coefficient_shift(c, body):
    row = next(r for r in body if r[c["predictor"]] == "T")
    row[c["beta"]] = repr(float(row[c["beta"]]) + 10 * float(row[c["se"]]))


def _raise_all_delta_aic(c, body):
    for row in body:
        row[c["delta_aic"]] = repr(float(row[c["delta_aic"]]) + 1.0)


def _add_incomplete(out: Path):
    with open(out / "pairs_incomplete.csv", "a", encoding="utf-8") as fh:
        fh.write("I0000000,I0000001,simA\n")


def _truncate(path: Path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


# check name -> corruption of a copied output tree
CORRUPTIONS = {
    "genuine_pairs": lambda out: _edit_csv(out / "pairs_genuine.csv", _drop_last_row),
    "impostor_pairs": lambda out: _edit_csv(out / "pairs_impostor.csv", _self_impostor),
    "pair_scores": lambda out: _edit_csv(out / "pairs_genuine.csv", _bump("score_simA", 1.0)),
    "no_incomplete_pairs": _add_incomplete,
    "calibration": _loosest_threshold,
    "interval_fnmr": lambda out: _edit_csv(
        out / "interval_fnmr_simA.csv", _bump("n_false_nonmatch", 1, as_int=True)),
    "det": lambda out: _edit_csv(out / "det_summary.csv", _bump("auc", -0.01)),
    "fusion": _fused_fnmr,
    "failures": lambda out: _edit_csv(
        out / "failure_categories.csv", _bump("n_pairs", 1, as_int=True)),
    "lmm_truth": lambda out: _edit_csv(out / "coefficients_simA.csv", _coefficient_shift),
    "apc": lambda out: _edit_csv(out / "apc_models.csv", _raise_all_delta_aic),
    "cv_folds": lambda out: _edit_csv(
        out / "cv_report.csv", _bump("n_test_rows", 1, as_int=True)),
    "svg_xml": lambda out: _truncate(out / "fnmr.svg"),
}


def small_config(seed: int) -> dict:
    config = workloads.config("study", seed)
    config["synth"] = dict(config["synth"], n_subjects=40, images_per_eye_per_session=1)
    return config


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "longmatch" / "cli.py").is_file():
        print("error: run from the root of a longmatch checkout", file=sys.stderr)
        return 2
    base = root / ".perfbench_runs" / f"selftest-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        return selftest(run.Runner(root), base)
    finally:
        run.remove_workdir(base)


def selftest(runner: run.Runner, base: Path) -> int:
    config = small_config(7)
    rundir = run.new_rundir(base / "clean", config)
    for command in ("synth",) + run.ANALYSIS:
        runner.run(command, rundir)
    if runner.failed:
        print("pipeline failed", file=sys.stderr)
        return 1
    clean = rundir / "out"
    bad = 0
    for name, ok, detail in checks.run_all(clean, config):
        print(f"clean      {name:20s} {'pass' if ok else 'FAIL'} {detail}")
        bad += not ok
    for name, corrupt in CORRUPTIONS.items():
        copy = base / f"corrupt-{name}"
        shutil.copytree(clean, copy)
        corrupt(copy)
        [(_, ok, detail)] = checks.run_all(copy, config, [name])
        print(f"corrupted  {name:20s} {'caught' if not ok else 'MISSED'} {detail}")
        bad += ok
    twin = base / "twin"
    shutil.copytree(clean, twin)
    same, _ = run.same_tree(clean, twin)
    data = bytearray((twin / "det_summary.csv").read_bytes())
    data[0] ^= 1
    (twin / "det_summary.csv").write_bytes(bytes(data))
    differs, detail = run.same_tree(clean, twin)
    print(f"identical  {'same_tree':20s} {'pass' if same else 'FAIL'}")
    print(f"corrupted  {'same_tree':20s} {'caught' if not differs else 'MISSED'} {detail}")
    bad += (not same) + differs
    missing = set(checks.CHECKS) - set(CORRUPTIONS)
    if missing:
        print(f"checks without a corruption case: {sorted(missing)}")
        bad += 1
    print("selftest", "ok" if bad == 0 else f"{bad} case(s) wrong")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
