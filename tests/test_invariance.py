"""Metamorphic relations of the whole pipeline.

Each test runs the subcommands in-process twice, on an input and on a
transformed copy of it, and compares the two output trees file by file.
No oracle gives the exact output of either run; the relation says which
files may differ and how.
"""

import hashlib
import re
import json
import shutil
from pathlib import Path

import numpy as np

from longmatch.cli import main

from test_cli import write_config

ANALYSIS = ["ingest", "pairs", "calibrate", "fnmr", "det", "failures", "fuse",
            "lmm", "apc", "cv", "report"]


def run(cfg: Path, commands, outdir: Path) -> dict[str, bytes]:
    """Run `commands` in-process on `cfg`; the tree then in `outdir`, as
    {file name: bytes}."""
    for command in commands:
        assert main([command, "--config", str(cfg)]) == 0, command
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


def differing(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    """The names of the files that differ between two trees, or are in one only."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def _shuffled_rows(text: bytes, rng) -> bytes:
    """`text`, a table, with its data rows in a random order."""
    header, *rows = text.split(b"\r\n")[:-1]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    return b"\r\n".join([header, *rows, b""])


def test_row_order_of_the_inputs_changes_only_their_digests(tmp_path):
    # two images per eye per session: rows equal up to the image id, whose
    # sort key then decides their order
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    config = json.loads(cfg.read_text(encoding="utf-8"))
    config["synth"]["images_per_eye_per_session"] = 2
    cfg.write_text(json.dumps(config), encoding="utf-8")
    inputs = run(cfg, ["synth"], outdir)
    given = run(cfg, ANALYSIS, outdir)

    shuffled_names = ("captures.csv", "scores.csv")
    rng = np.random.default_rng(15)
    shutil.rmtree(outdir)
    outdir.mkdir()
    for name, data in inputs.items():
        (outdir / name).write_bytes(_shuffled_rows(data, rng) if name in shuffled_names else data)
    shuffled = run(cfg, ANALYSIS, outdir)

    changed_manifests = [f"manifest_{c}.json"
                         for c in ("ingest", "pairs", "failures", "lmm", "apc", "cv")]
    assert differing(given, shuffled) == sorted([*shuffled_names, *changed_manifests])
    for name in shuffled_names:
        assert shuffled[name] != given[name]
        assert sorted(shuffled[name].split(b"\r\n")) == sorted(given[name].split(b"\r\n"))
    for name in changed_manifests:
        a, b = json.loads(given[name]), json.loads(shuffled[name])
        for input_name in shuffled_names:
            if input_name in a["inputs"]:
                assert b["inputs"].pop(input_name) == hashlib.sha256(
                    shuffled[input_name]).hexdigest()
                del a["inputs"][input_name]
        assert a == b, name


def _negated(cell: str) -> str:
    return repr(-float(cell))


def _cells(data: bytes) -> list[list[str]]:
    """The rows of a table, header first, as lists of cell texts."""
    return [line.split(",") for line in data.decode("utf-8").split("\r\n")[:-1]]


def _unsigned(line: str) -> str:
    """`line` with the sign of every number dropped."""
    return re.sub(r"[-+](?=\d)", "", line)


_CORRELATION = re.compile(r"corr\(simB, (\w+)\) r=([-+][0-9.]+) p=(\S+)")


def test_orientation_flip_negates_only_the_flipped_matcher(tmp_path):
    # simB is a distance; the flipped arm reads its negated scores as a
    # similarity with its range, default and threshold negated too. Each
    # threshold is a matcher's median genuine score (the upper middle one of
    # an even count), so that some genuine pairs fail, the failure
    # correlations are defined, and one pair sits at each threshold.
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    config = json.loads(cfg.read_text(encoding="utf-8"))
    inputs = run(cfg, ["synth"], outdir)
    run(cfg, ["pairs"], outdir)
    header, *genuine = _cells((outdir / "pairs_genuine.csv").read_bytes())
    config["thresholds"] = {
        m: sorted(float(row[header.index(f"score_{m}")]) for row in genuine)[len(genuine) // 2]
        for m in ("simA", "simB")}
    cfg.write_text(json.dumps(config), encoding="utf-8")
    given = run(cfg, ANALYSIS, outdir)

    shutil.rmtree(outdir)
    outdir.mkdir()
    scores = _cells(inputs["scores.csv"])
    score, matcher = scores[0].index("score"), scores[0].index("matcher")
    for row in scores[1:]:
        if row[matcher] == "simB":
            row[score] = _negated(row[score])
    for name, data in inputs.items():
        (outdir / name).write_bytes(data)
    (outdir / "scores.csv").write_bytes("".join(",".join(row) + "\r\n" for row in scores).encode())
    sim_b = config["matchers"][1]
    assert sim_b["name"] == "simB" and sim_b["orientation"] == "lower"
    sim_b.update(orientation="higher", score_min=-sim_b["score_max"],
                 score_max=-sim_b["score_min"], default_threshold=-sim_b["default_threshold"])
    config["thresholds"]["simB"] *= -1
    cfg.write_text(json.dumps(config), encoding="utf-8")
    flipped = run(cfg, ANALYSIS, outdir)

    # every rate, count, EER, AUC, model file and figure is byte-identical
    texts = ["calibrate_summary.txt", "failure_report.txt", "fnmr_summary.txt",
             "fusion_report.txt", "thresholds.json"]
    tables = ["det_simB.csv", "pairs_genuine.csv", "pairs_impostor.csv", "scores.csv"]
    manifests = sorted(name for name in given if name.startswith("manifest_")
                       and name != "manifest_synth.json")
    assert differing(given, flipped) == sorted([*texts, *tables, *manifests])
    # simB's score cells and DET thresholds are negated, and no other cell changes
    for name, negated in (("pairs_genuine.csv", "score_simB"), ("pairs_impostor.csv", "score_simB"),
                          ("det_simB.csv", "threshold"), ("scores.csv", None)):
        a, b = _cells(given[name]), _cells(flipped[name])
        assert a[0] == b[0] and len(a) == len(b), name
        column = a[0].index(negated) if negated else score
        for row_a, row_b in zip(a[1:], b[1:]):
            if negated or row_a[matcher] == "simB":
                row_a[column] = _negated(row_a[column])
        assert a == b, name
    # in the text reports, only simB's lines change, and only in the signs of numbers
    for name in texts:
        a, b = given[name].decode().splitlines(), flipped[name].decode().splitlines()
        assert len(a) == len(b), name
        for line_a, line_b in zip(a, b):
            if line_a != line_b:
                assert "simB" in line_a and _unsigned(line_a) == _unsigned(line_b), (name, line_a)
    # each of simB's correlations changes sign, and its p does not
    a, b = (_CORRELATION.findall(tree["failure_report.txt"].decode()) for tree in (given, flipped))
    assert len(a) == len(b) > 0
    for (covariate, r_a, p_a), (covariate_b, r_b, p_b) in zip(a, b):
        assert (covariate_b, float(r_b), p_b) == (covariate, -float(r_a), p_a)
    for name in manifests:
        a, b = json.loads(given[name]), json.loads(flipped[name])
        for manifest in (a, b):
            del manifest["config_sha256"]
            for side in ("inputs", "outputs"):
                for changed in set(manifest[side]) & {*texts, *tables}:
                    del manifest[side][changed]
        assert a == b, name


def _renamed(data: bytes, names: dict[str, str]) -> bytes:
    """`data` with each of its alphanumeric words that `names` maps replaced."""
    return re.sub(rb"[0-9A-Za-z]+", lambda m: names.get(m[0].decode(), m[0].decode()).encode(),
                  data)


def assert_manifests_differ_in_hashes(given: dict, changed: dict, files) -> None:
    """Each manifest of the analysis in the `changed` tree equals its `given`
    one, apart from the hashes of `files`, which are those of the `changed`
    tree's files; synth's manifest is a copy, as the inputs were."""
    for name in (name for name in given if name.startswith("manifest_")
                 and name != "manifest_synth.json"):
        a, b = json.loads(given[name]), json.loads(changed[name])
        for side in ("inputs", "outputs"):
            for file in set(b[side]) & set(files):
                assert b[side].pop(file) == hashlib.sha256(changed[file]).hexdigest()
                del a[side][file]
        assert a == b, name


def test_order_preserving_id_renaming_changes_only_id_cells(tmp_path):
    # every image and subject id gets a new text of another length and other
    # digits, in the same sorted order: codes, folds and sampled positions
    # follow that order, never the text
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    inputs = run(cfg, ["synth"], outdir)
    given = run(cfg, ANALYSIS, outdir)
    header, *rows = _cells(inputs["captures.csv"])
    names = {}
    for column, form in (("image_id", "J{:09d}"), ("subject_id", "P{:07d}")):
        ids = sorted({row[header.index(column)] for row in rows})
        names.update((old, form.format(7 * rank + 3)) for rank, old in enumerate(ids))

    renamed_inputs = ("captures.csv", "scores.csv")
    shutil.rmtree(outdir)
    outdir.mkdir()
    for name, data in inputs.items():
        (outdir / name).write_bytes(_renamed(data, names) if name in renamed_inputs else data)
    renamed = run(cfg, ANALYSIS, outdir)

    # the files that hold ids, and the manifests that hash them; every model
    # output, cv_report.csv among them, is byte-identical
    id_files = [*renamed_inputs, "pairs_genuine.csv", "pairs_impostor.csv"]
    manifests = [f"manifest_{c}.json" for c in ("ingest", "pairs", "calibrate", "fnmr", "det",
                                                "failures", "fuse", "lmm", "apc", "cv")]
    assert differing(given, renamed) == sorted([*id_files, *manifests])
    for name in id_files:
        assert renamed[name] == _renamed(given[name], names) != given[name], name
    assert_manifests_differ_in_hashes(given, renamed, id_files)


def test_subject_with_one_collection_changes_only_the_impostor_side(tmp_path):
    # one more subject, sorting among the others, with two images per eye in
    # its one session and a score for every ordered same-eye pair it is in:
    # it has no genuine pair, so the genuine file and every model output are
    # unchanged, while it joins every impostor pool
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    config = json.loads(cfg.read_text(encoding="utf-8"))
    inputs = run(cfg, ["synth"], outdir)
    given = run(cfg, ANALYSIS, outdir)

    captures = _cells(inputs["captures.csv"])
    column = {name: i for i, name in enumerate(captures[0])}
    template = captures[1]
    added = []
    for i, eye in enumerate("LLRR"):
        row = list(template)
        row[column["image_id"]] = f"{template[column['image_id']]}{'abcd'[i]}"
        row[column["subject_id"]] = "S00011a"
        row[column["eye"]], row[column["collection_index"]] = eye, "1"
        added.append(row)
    eye_of = {row[column["image_id"]]: row[column["eye"]] for row in captures[1:] + added}
    new = {row[column["image_id"]] for row in added}
    rng = np.random.default_rng(4)
    scores = [f"{g},{p},{m['name']},{rng.normal(m['impostor']['loc'], m['impostor']['scale'])!r}"
              for m in config["synth"]["matchers"] for g in eye_of for p in eye_of
              if g != p and eye_of[g] == eye_of[p] and new & {g, p}]
    shutil.rmtree(outdir)
    outdir.mkdir()
    for name, data in inputs.items():
        (outdir / name).write_bytes(data)
    with (outdir / "captures.csv").open("ab") as fh:
        fh.write("".join(",".join(row) + "\r\n" for row in added).encode())
    with (outdir / "scores.csv").open("ab") as fh:
        fh.write("".join(line + "\r\n" for line in scores).encode())
    grown = run(cfg, ANALYSIS, outdir)

    # the impostor pools change, and with them the pairs drawn, the pairs the
    # synthetic scores do not cover, the DET rows, the thresholds calibrated
    # on them and the reports that print those; on this cohort no genuine
    # decision, EER, failure category or figure changes
    impostor_side = [
        "pairs_impostor.csv", "pairs_incomplete.csv", "pairs_summary.txt",
        "calibrate_summary.txt", "thresholds.json", "det_simA.csv", "det_simB.csv",
        "fnmr_summary.txt", "fusion_report.txt"]
    changed = ["captures.csv", "scores.csv", "ingest_summary.txt", *impostor_side]
    manifests = [name for name in given if name.startswith("manifest_")
                 and name != "manifest_synth.json"]
    assert differing(given, grown) == sorted([*changed, *manifests])
    assert_manifests_differ_in_hashes(given, grown, changed)
