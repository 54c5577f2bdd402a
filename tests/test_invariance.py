"""Metamorphic relations of the whole pipeline.

Each test runs the subcommands in-process twice, on an input and on a
transformed copy of it, and compares the two output trees file by file.
No oracle gives the exact output of either run; the relation says which
files may differ and how.
"""

import hashlib
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
