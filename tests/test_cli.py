import csv
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import longmatch
from longmatch import cli, tableio
from longmatch.cli import _COMMANDS, build_parser, main
from longmatch.core import QUALITY_TERMS
from longmatch.rng import shuffled
from longmatch.tableio import CAPTURE_HEADER, read_table


def write_config(path: Path, outdir: Path, **overrides) -> Path:
    config = {
        "seed": 404,
        "out": str(outdir),
        "captures": "captures.csv",
        "scores": "scores.csv",
        "matchers": [
            {"name": "simA", "orientation": "higher", "score_min": -5000.0,
             "score_max": 5000.0, "default_threshold": 150.0},
            {"name": "simB", "orientation": "lower", "score_min": -5000.0,
             "score_max": 5000.0, "default_threshold": -150.0},
        ],
        "pairing": {"max_impostor_probes": 3, "base_seed": 17},
        "calibration": {"target_fmr": 0.01},
        "fnmr": {"bin_width_months": 6},
        "model": {
            "outcome": "simA",
            "apc_mode": "gallery_age_plus_t",
            "quality_terms": ["Q_gallery", "Q_probe", "DC"],
            "random_structure": "intercept_slope",
        },
        "cv": {"k": 3, "seed": 5},
        "synth": {
            "n_subjects": 24,
            "session_schedule": [0, 6, 12, 18, 24],
            "images_per_eye_per_session": 1,
            "attrition_rate": 0.08,
            "matchers": [
                {"name": "simA", "orientation": "higher",
                 "beta": {"intercept": 300.0, "T": -0.5, "Q_gallery": 1.0,
                          "DC": 100.0},
                 "Sigma": [[400.0, 0.0], [0.0, 0.04]], "sigma2": 900.0,
                 "impostor": {"family": "normal", "loc": -150.0, "scale": 40.0}},
                {"name": "simB", "orientation": "lower",
                 "beta": {"intercept": -300.0, "T": 0.5},
                 "Sigma": [[400.0, 0.0], [0.0, 0.04]], "sigma2": 900.0,
                 "impostor": {"family": "normal", "loc": 150.0, "scale": 40.0}},
            ],
        },
    }
    config.update(overrides)
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path


PIPELINE = ["synth", "pairs", "calibrate", "fnmr", "det", "failures", "fuse",
            "lmm", "apc", "cv", "report"]


def run_pipeline(cfg: Path, commands=PIPELINE):
    for command in commands:
        code = main([command, "--config", str(cfg)])
        assert code == 0, f"{command} exited {code}"


def test_smoke_pipeline(tmp_path, capsys):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    run_pipeline(cfg, ["synth", "pairs", "lmm"])
    for artifact in ("captures.csv", "scores.csv", "ground_truth.json",
                     "pairs_genuine.csv", "pairs_impostor.csv",
                     "fit_report_simA.txt", "coefficients_simA.csv",
                     "trajectories_simA.csv", "manifest_lmm.json"):
        assert (outdir / artifact).exists(), artifact


def test_full_pipeline_and_reports(tmp_path):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    run_pipeline(cfg)
    for artifact in ("thresholds.json", "interval_fnmr_simA.csv",
                     "det_simA.csv", "det_summary.csv", "failure_report.txt",
                     "fusion_report.txt", "apc_report.txt", "apc_models.csv",
                     "cv_report.csv", "fnmr.svg", "det.svg",
                     "trajectories_simA.svg"):
        assert (outdir / artifact).exists(), artifact
    svg = (outdir / "fnmr.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg")


def test_unfit_age_group_model_writes_an_empty_trajectory_table(tmp_path):
    # every subject enrolls at 4-5, so the [6, 7] group has no gallery row
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    config = json.loads(cfg.read_text(encoding="utf-8"))
    config["synth"].update(enrollment_age_low=4, enrollment_age_high=5)
    cfg.write_text(json.dumps(config), encoding="utf-8")
    run_pipeline(cfg, ["synth", "pairs", "lmm"])
    assert (outdir / "trajectories_simA.csv").read_bytes() == b"age_group,T_months,predicted\r\n"
    assert "'A_gallery[6-7]'" in (outdir / "fit_report_simA_age_groups.txt").read_text()


def test_calibration_infeasible_exit_code(tmp_path, capsys):
    outdir = tmp_path / "run"
    # impostors sit above every genuine score, so no observed threshold can
    # push FMR below the target
    synth = {
        "n_subjects": 24,
        "session_schedule": [0, 6, 12, 18, 24],
        "images_per_eye_per_session": 1,
        "attrition_rate": 0.08,
        "matchers": [
            {"name": "simA", "orientation": "higher",
             "beta": {"intercept": 300.0, "T": -0.5},
             "Sigma": [[400.0, 0.0], [0.0, 0.04]], "sigma2": 900.0,
             "impostor": {"family": "normal", "loc": 2000.0, "scale": 40.0}},
            {"name": "simB", "orientation": "lower",
             "beta": {"intercept": -300.0, "T": 0.5},
             "Sigma": [[400.0, 0.0], [0.0, 0.04]], "sigma2": 900.0,
             "impostor": {"family": "normal", "loc": 150.0, "scale": 40.0}},
        ],
    }
    cfg = write_config(tmp_path / "config.json", outdir, synth=synth,
                       calibration={"target_fmr": 1e-9, "matchers": ["simA"]})
    run_pipeline(cfg, ["synth", "pairs"])
    code = main(["calibrate", "--config", str(cfg)])
    assert code == 6
    err = capsys.readouterr().err
    assert "error code=calibration-infeasible" in err


def test_missing_prerequisite_exit_code(tmp_path, capsys):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    code = main(["pairs", "--config", str(cfg)])
    assert code == 4
    assert "error code=missing-input" in capsys.readouterr().err


def test_invalid_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["synth", "--config", str(bad)])
    assert code == 3
    assert "error code=config-invalid" in capsys.readouterr().err


def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--config", "x.json", "--frobnicate"])
    assert exc.value.code == 2


def test_help_documents_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--out", "--seed"):
        assert flag in out


def test_pipeline_deterministic_across_runs(tmp_path):
    trees = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        cfg = write_config(tmp_path / f"config_{name}.json", outdir)
        run_pipeline(cfg, ["synth", "pairs", "calibrate", "fnmr", "det", "report"])
        trees.append(outdir)
    files1 = sorted(p.relative_to(trees[0]) for p in trees[0].rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(trees[1]) for p in trees[1].rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        if rel.name.startswith("manifest_"):
            # manifests embed the absolute config path; compare the stable parts
            a = json.loads((trees[0] / rel).read_text(encoding="utf-8"))
            b = json.loads((trees[1] / rel).read_text(encoding="utf-8"))
            assert a["outputs"] == b["outputs"]
            assert a["seed"] == b["seed"]
            continue
        assert (trees[0] / rel).read_bytes() == (trees[1] / rel).read_bytes(), rel


def test_seed_override_changes_outputs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg1 = write_config(tmp_path / "c1.json", out1)
    cfg2 = write_config(tmp_path / "c2.json", out2)
    assert main(["synth", "--config", str(cfg1)]) == 0
    assert main(["synth", "--config", str(cfg2), "--seed", "999"]) == 0
    assert (out1 / "captures.csv").read_bytes() != (out2 / "captures.csv").read_bytes()


def test_import_loads_no_heavy_scipy():
    # the runtime is numpy only: importing the CLI loads no scipy module,
    # not even the top-level package
    src = str(Path(longmatch.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, longmatch.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _one_error_line(capsys, code_name: str) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error code={code_name}: "), err
    return err[0]


def test_thresholds_from_partial_calibration_exit_three(tmp_path, capsys):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir,
                       calibration={"target_fmr": 0.01, "matchers": ["simA"]})
    run_pipeline(cfg, ["synth", "pairs", "calibrate"])
    assert json.loads((outdir / "thresholds.json").read_text()).keys() == {"simA"}
    capsys.readouterr()
    for command in ("fnmr", "failures", "fuse"):
        assert main([command, "--config", str(cfg)]) == 3
        assert "'simB'" in _one_error_line(capsys, "config-invalid")


@pytest.mark.parametrize("thresholds", [
    {"simA": 150.0},
    {"simA": 150.0, "simB": "high"},
    {"simA": 150.0, "simB": None},
    {"simA": 150.0, "simB": True},
    {"simA": 150.0, "simB": float("nan")},
])
def test_config_thresholds_need_a_number_per_matcher(tmp_path, capsys, thresholds):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir, thresholds=thresholds)
    run_pipeline(cfg, ["synth", "pairs"])
    capsys.readouterr()
    assert main(["fnmr", "--config", str(cfg)]) == 3
    assert "'simB'" in _one_error_line(capsys, "config-invalid")


def test_genuine_only_subcommands_do_not_read_impostor_pairs(tmp_path):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    run_pipeline(cfg, ["synth", "pairs"])
    (outdir / "pairs_impostor.csv").unlink()
    run_pipeline(cfg, ["fnmr", "failures", "lmm", "apc", "cv"])
    for command in ("fnmr", "failures", "lmm", "apc", "cv"):
        inputs = json.loads((outdir / f"manifest_{command}.json").read_text())["inputs"]
        assert "pairs_genuine.csv" in inputs
        assert "pairs_impostor.csv" not in inputs
    assert main(["det", "--config", str(cfg)]) == 4


@pytest.mark.parametrize("seed", ["abc", -1, 2**64, 1.5, True, None, [1]])
def test_config_seed_must_be_u64(tmp_path, capsys, seed):
    cfg = write_config(tmp_path / "config.json", tmp_path / "run", seed=seed)
    assert main(["synth", "--config", str(cfg)]) == 3
    assert "seed" in _one_error_line(capsys, "config-invalid")


@pytest.mark.parametrize("seed", ["abc", "-1", str(2**64), "1.5", ""])
def test_seed_flag_must_be_u64(tmp_path, capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--config", "x.json", "--seed", seed])
    assert exc.value.code == 2
    assert "seed must be an integer in [0, 2**64)" in capsys.readouterr().err


def test_seed_range_ends_accepted():
    for seed in (0, 2**64 - 1):
        args = build_parser().parse_args(["synth", "--config", "x.json", "--seed", str(seed)])
        assert args.seed == seed


@pytest.mark.parametrize("path, value", [
    ("synth.n_subjects", 10**9),
    ("synth.images_per_eye_per_session", 2**62),
    ("synth.session_schedule", list(range(0, 6 * 10**5, 6))),
    ("pairing.max_impostor_probes", 10**7),
])
def test_synth_refuses_unbounded_work_before_drawing(tmp_path, capsys, monkeypatch,
                                                      path, value):
    from longmatch import synth

    def refuse(cfg):
        raise AssertionError("generate_longitudinal called")

    monkeypatch.setattr(synth, "generate_longitudinal", refuse)
    config = json.loads(write_config(tmp_path / "config.json", tmp_path / "run").read_text())
    _set(config, path, value)
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["synth", "--config", str(tmp_path / "config.json")]) == 3
    line = _one_error_line(capsys, "config-invalid")
    assert "config synth: " in line and f"the limit of {synth.MAX_SYNTH_WORK}" in line
    assert not (tmp_path / "run" / "captures.csv").exists()


# SHA-256 of the synth and pairs outputs on the write_config config; a change
# to any of them is a change to the program's output and says why
GOLDEN_SYNTH_PAIRS = {
    "captures.csv": "07e8231f4f6f141eb51416176da9f0c09d6dee9503e2a149c31b2ed3bcda5550",
    "scores.csv": "3a5db7b442ef6fbce7a963228a017eab7f46fe78db293cd7ee6ce408c1f19b80",
    "pairs_genuine.csv": "f342fd7b81a9e6695745a47569520f06940a4aff5d428c871ec1e44dbc220608",
    "pairs_impostor.csv": "b45d6339f7ed4a0c2ea8a40664a29cce19862ce078afba3b255714dee1fa9ab5",
    "pairs_incomplete.csv": "da8e4b693bdd113b5e524c8f979798ce7a0167141f58e1c6cbf86cc8f8dce1ad",
}


def test_synth_and_pairs_golden_digests(tmp_path):
    outdir = tmp_path / "run"
    run_pipeline(write_config(tmp_path / "config.json", outdir), ["synth", "pairs"])
    digests = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
               for name in GOLDEN_SYNTH_PAIRS}
    assert digests == GOLDEN_SYNTH_PAIRS


# SHA-256 of every other file that synth, ingest, pairs, calibrate, fnmr, det,
# failures, fuse, lmm, apc, cv and report write on the write_config config;
# like the digests above, a change to any of them is a change to the
# program's output. The model-side files hold repr-written Wald p-values, so
# their digests also pin the normal CDF bit for bit.
GOLDEN_PIPELINE = {
    **GOLDEN_SYNTH_PAIRS,
    "apc_models.csv": "ec4f8566a266cc07f0df740a3cd6b761e52e813807bc528a87ec3c851c11d11b",
    "apc_report.txt": "a683e71db84345bf14c9424ba95a6eae219e06dd794a09bde40e2c821d13d2e5",
    "calibrate_summary.txt": "757732e17ee960dea19f026a882fb57c52c71eb25a882cfce9cbb89451d91947",
    "coefficients_simA.csv": "d01d2fada0a900c01bb3807a2c818adde2e4fff4351b221bb248956b5b930262",
    "cv_report.csv": "f512e663524a7739a2410d56c67b7c1fc24d457210c7ff964f8496f2ca8dca5c",
    "cv_summary.txt": "e1ab1decfe6d39f2232b15af6768137c69bfc1f8b25d0404b9d4a5d1a46448c5",
    "det.svg": "a75707e2267dab62754781ac1dae38eb31cf81290df4beaa47aaad828e95d6bb",
    "det_simA.csv": "39134f1d8b722b774a8d567f21412c9635d0f351618e66cd3cad90eddd84f5f8",
    "det_simB.csv": "80947123084d532a009413f5866d5eb93730a1052dad050d474e2e6d6dacf987",
    "det_summary.csv": "6c6e33c903be570069ed7f7e90cf9ec9c2acdd15603505deed73e403e9a8ed12",
    "det_summary.txt": "7adda102a20850577252fdbea36cced7696e28ceab529ed0d53db66e3cb3bf9e",
    "failure_categories.csv": "4c47962a310a60eafb495f686e368172850d49a0884ea8413b4041a65e971565",
    "failure_report.txt": "e69daceacf6eb9c1be703ee60da514531d92d7c600c6f5f0596333fe6647b7f4",
    "fit_report_simA.txt": "dd5ecdad3d561191b0891f9e986d2619f9f1d0240a60dced949e40a239f5646d",
    "fit_report_simA_age_groups.txt":
        "c6732f7047abb5c17e70a7d334552df627714082aff7e47cc999fcb51274d143",
    "fnmr.svg": "242b6357eb32bd9ce919d6241b53ec7d7fe73b79ea71ab8eea3b7f52b428af38",
    "fnmr_summary.txt": "4899d1a93af82a3b813aa3084b818d1eadd927463c58ea3c7f7acf08d83fad4f",
    "fusion_report.txt": "403bd3717d4ad924ead6e9226c41ac0dc9d1ee9e0b0d439e958cc67044c9d067",
    "ground_truth.json": "e57e4986383582769f42b1201adc4e08fded5fd70f29be7ff1046fb708aa9e3f",
    "ingest_rejections.csv": "80c2078deb19e5103ef5e1eef8e4d767f81e9bce09ae370701c533f0af2d2742",
    "ingest_summary.txt": "e560f0709abf274682d261482a24b379681404bf0464f77c7b5b3781ff357199",
    "interval_fnmr_simA.csv": "919255e102b8c18221a81cf050a052917b3101d04c84b8d0f2b93f6453a814fa",
    "interval_fnmr_simB.csv": "919255e102b8c18221a81cf050a052917b3101d04c84b8d0f2b93f6453a814fa",
    "pairs_summary.txt": "15b4e7a8d6e1a96887c99d060fc0537b07899e9e6653aa0438fae73aeb8c3ae2",
    "qq_simA.csv": "0eb0ca586af03e9d46d290278457eccc42d3b1c1a81a60b11c7a81f3f62e2616",
    "synth_summary.txt": "e8d5ab732d98e1036d9408eac092d8bb0572fb0f91766a11234be04904466104",
    "thresholds.json": "fed8db91ef23eca31c470f6d6232f7442537ce7f226dfccb58559dd706af2978",
    "trajectories_simA.csv": "7058efdc5d3a7696c557453707069a8aa204711ef212a44569d68bc64c8726ae",
    "trajectories_simA.svg": "c166fcb3b143a644d1ba300cf2781554e7703cd4c616255122572dd84caea602",
}
# (inputs, outputs) each manifest names; their digests are the files' above
GOLDEN_MANIFESTS = {
    "synth": ((),
              ("captures.csv", "ground_truth.json", "scores.csv", "synth_summary.txt")),
    "ingest": (("captures.csv",),
               ("ingest_rejections.csv", "ingest_summary.txt")),
    "pairs": (("captures.csv", "scores.csv"),
              ("pairs_genuine.csv", "pairs_impostor.csv", "pairs_incomplete.csv",
               "pairs_summary.txt")),
    "calibrate": (("pairs_genuine.csv", "pairs_impostor.csv"),
                  ("calibrate_summary.txt", "thresholds.json")),
    "fnmr": (("pairs_genuine.csv", "thresholds.json"),
             ("fnmr_summary.txt", "interval_fnmr_simA.csv", "interval_fnmr_simB.csv")),
    "det": (("pairs_genuine.csv", "pairs_impostor.csv"),
            ("det_simA.csv", "det_simB.csv", "det_summary.csv", "det_summary.txt")),
    "failures": (("captures.csv", "pairs_genuine.csv", "thresholds.json"),
                 ("failure_categories.csv", "failure_report.txt")),
    "fuse": (("pairs_genuine.csv", "pairs_impostor.csv", "thresholds.json"),
             ("fusion_report.txt",)),
    "lmm": (("captures.csv", "pairs_genuine.csv"),
            ("coefficients_simA.csv", "fit_report_simA.txt", "fit_report_simA_age_groups.txt",
             "qq_simA.csv", "trajectories_simA.csv")),
    "apc": (("captures.csv", "pairs_genuine.csv"),
            ("apc_models.csv", "apc_report.txt")),
    "cv": (("captures.csv", "pairs_genuine.csv"),
           ("cv_report.csv", "cv_summary.txt")),
    "report": (("det_simA.csv", "det_simB.csv", "interval_fnmr_simA.csv",
                "interval_fnmr_simB.csv", "trajectories_simA.csv"),
               ("det.svg", "fnmr.svg", "trajectories_simA.svg")),
}


def test_pipeline_golden_digests(tmp_path):
    outdir = tmp_path / "run"
    run_pipeline(write_config(tmp_path / "config.json", outdir), list(GOLDEN_MANIFESTS))
    written = sorted(p.name for p in outdir.iterdir() if not p.name.startswith("manifest_"))
    assert {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in written} == GOLDEN_PIPELINE
    # det.svg draws only the corners of its two staircases (3,289 bytes; it
    # was 25,231 when it drew every DET row)
    assert (outdir / "det.svg").stat().st_size < 4000
    for command, (inputs, outputs) in GOLDEN_MANIFESTS.items():
        manifest = json.loads((outdir / f"manifest_{command}.json").read_text())
        assert manifest["command"] == command and manifest["seed"] == 404
        assert manifest["inputs"] == {name: GOLDEN_PIPELINE[name] for name in inputs}
        assert manifest["outputs"] == {name: GOLDEN_PIPELINE[name] for name in outputs}


@pytest.mark.parametrize("fnmr, key", [
    ({"bin_width_months": 0}, "fnmr.bin_width_months"),
    ({"bin_width_months": "x"}, "fnmr.bin_width_months"),
    ({"bin_width_months": 6, "confidence": 2.0}, "fnmr.confidence"),
])
def test_fnmr_settings_out_of_range_exit_three(tmp_path, capsys, fnmr, key):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir, fnmr=fnmr)
    run_pipeline(cfg, ["synth", "pairs"])
    capsys.readouterr()
    assert main(["fnmr", "--config", str(cfg)]) == 3
    assert key in _one_error_line(capsys, "config-invalid")
    assert not list(outdir.glob("interval_fnmr_*.csv"))


@pytest.mark.parametrize("command, overrides, key", [
    ("cv", {"cv": {"k": "x", "seed": 5}}, "cv.k"),
    ("cv", {"cv": {"k": 3, "seed": "abc"}}, "cv.seed"),
    ("calibrate", {"calibration": {"target_fmr": "x"}}, "calibration.target_fmr"),
])
def test_bad_config_values_exit_three(tmp_path, capsys, command, overrides, key):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir, **overrides)
    run_pipeline(cfg, ["synth", "pairs"])
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 3
    assert key in _one_error_line(capsys, "config-invalid")


def test_unknown_model_outcome_exit_three(tmp_path, capsys):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir,
                       model={"outcome": "nope", "quality_terms": ["Q_gallery"]})
    run_pipeline(cfg, ["synth", "pairs"])
    capsys.readouterr()
    for command in ("lmm", "apc", "cv"):
        assert main([command, "--config", str(cfg)]) == 3
        line = _one_error_line(capsys, "config-invalid")
        assert "model.outcome" in line and "'nope'" in line


@pytest.mark.parametrize("model, key", [
    ({"quality_terms": ["Q_gallery", "nope"]}, "model.quality_terms"),
    ({"interactions": [5]}, "model.interactions"),
])
def test_bad_model_columns_exit_three(tmp_path, capsys, model, key):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir, model={"outcome": "simA", **model})
    run_pipeline(cfg, ["synth", "pairs"])
    capsys.readouterr()
    assert main(["lmm", "--config", str(cfg)]) == 3
    assert key in _one_error_line(capsys, "config-invalid")


def test_matcher_missing_from_pair_tables_exit_five(tmp_path, capsys):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    run_pipeline(cfg, ["synth", "pairs"])
    config = json.loads(cfg.read_text(encoding="utf-8"))
    config["matchers"].append({"name": "nope", "orientation": "higher",
                               "score_min": 0.0, "score_max": 1.0,
                               "default_threshold": 0.5})
    cfg.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    for command in ("calibrate", "fnmr", "det", "failures", "fuse", "lmm", "apc", "cv"):
        assert main([command, "--config", str(cfg)]) == 5
        line = _one_error_line(capsys, "data-invalid")
        assert "pairs_genuine.csv: missing mandatory column(s) ['score_nope']" in line


@pytest.mark.parametrize("damage", ["non-numeric", "truncated"])
def test_damaged_pair_file_exit_five(tmp_path, capsys, damage):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    run_pipeline(cfg, ["synth", "pairs"])
    path = outdir / "pairs_genuine.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[3].split(",")
    if damage == "non-numeric":
        cells[4] = "six"          # gap_T_months
    else:
        cells = cells[:9]
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["fnmr", "--config", str(cfg)]) == 5
    line = _one_error_line(capsys, "data-invalid")
    assert "pairs_genuine.csv" in line and "data row 3" in line


@pytest.mark.parametrize("command, overrides, key", [
    ("failures", {"fusion": {"min_quality_cut": "x"}}, "fusion.min_quality_cut"),
    ("lmm", {"model": {"outcome": "simA", "age_groups": [[4]]}}, "model.age_groups"),
    ("lmm", {"model": {"outcome": "simA", "age_groups": "x"}}, "model.age_groups"),
    ("pairs", {"pairing": "x"}, "config pairing"),
    ("lmm", {"model": "x"}, "config model"),
    ("lmm", {"model": {"outcome": "simA", "eyes": "L"}}, "model.eyes"),
])
def test_malformed_config_values_exit_three(tmp_path, capsys, command, overrides, key):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    run_pipeline(cfg, ["synth", "pairs"])
    write_config(cfg, outdir, **overrides)
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 3
    assert key in _one_error_line(capsys, "config-invalid")


# a finder that refuses every scipy import, run ahead of the real ones
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    # the runtime is numpy only: with every scipy import refused, all twelve
    # subcommands exit 0 and write the same bytes as an unblocked run
    src = str(Path(longmatch.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    commands = list(_COMMANDS)
    assert len(commands) == 12
    probe = ("import sys\nfrom longmatch.cli import main\n"
             f"for command in {commands!r}:\n"
             "    assert main([command, '--config', 'config.json']) == 0, command\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    trees = {}
    for name, prelude in (("open", ""), ("blocked", BLOCK_SCIPY)):
        rundir = tmp_path / name
        rundir.mkdir()
        write_config(rundir / "config.json", Path("run"))
        out = subprocess.run([sys.executable, "-c", prelude + probe], cwd=rundir, env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.strip().splitlines()[-1] == "[]", name
        trees[name] = {p.name: p.read_bytes() for p in (rundir / "run").iterdir()}
    assert len(trees["blocked"]) > 40
    assert trees["blocked"] == trees["open"]


def test_subcommands_but_lmm_load_no_heavy_scipy(tmp_path):
    # with scipy importable, no subcommand but lmm loads any scipy module;
    # test_every_subcommand_runs_with_scipy_blocked covers lmm with scipy refused
    cfg = write_config(tmp_path / "config.json", tmp_path / "run")
    commands = [c for c in PIPELINE if c != "lmm"]
    src = str(Path(longmatch.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys\nfrom longmatch.cli import main\n"
             f"for command in {commands!r}:\n"
             f"    assert main([command, '--config', {str(cfg)!r}]) == 0, command\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"


# the longmatch modules each subcommand's process loads beyond the package,
# cli, core and tableio, which every subcommand shares
LAYERS_LOADED = {
    "synth": {"synth", "pairing", "rng", "_special"},
    "ingest": set(),
    "pairs": {"pairing", "rng"},
    # metrics loads _special for a Wilson bound or a correlation p-value, and
    # this config's few genuine failures need neither
    "calibrate": {"metrics"},
    "fnmr": {"metrics"},
    "det": {"metrics"},
    "failures": {"metrics"},
    "fuse": {"metrics"},
    "lmm": {"lmm", "validation", "rng", "_special"},
    "apc": {"lmm", "_special"},
    "cv": {"lmm", "validation", "rng", "_special"},
    "report": {"svgplot"},
}


def test_each_subcommand_loads_only_its_layers(tmp_path):
    # one fresh process per subcommand, in pipeline order on one tree: each
    # loads exactly its own layer modules, and none loads numpy.ma or
    # urllib.request
    assert list(LAYERS_LOADED) == list(_COMMANDS)
    src = str(Path(longmatch.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    write_config(tmp_path / "config.json", Path("run"))
    probe = ("import json, sys\nfrom longmatch.cli import main\n"
             "code = main([sys.argv[1], '--config', 'config.json'])\n"
             "print(json.dumps([code, sorted(sys.modules)]))")
    for command, layers in LAYERS_LOADED.items():
        out = subprocess.run([sys.executable, "-c", probe, command], cwd=tmp_path, env=env,
                             check=True, capture_output=True, text=True).stdout
        code, modules = json.loads(out.strip().splitlines()[-1])
        assert code == 0, command
        assert {m for m in modules if m.split(".")[0] == "longmatch"} == {
            "longmatch", "longmatch.cli", "longmatch.core", "longmatch.tableio",
            *(f"longmatch.{m}" for m in layers)}, command
        assert "numpy.ma" not in modules, command
        # pathlib loads urllib.parse; xml.sax.saxutils would add urllib.request
        assert not {"urllib.request", "http.client", "email"} & set(modules), command


# the pair columns each subcommand asks read_pairs for, by the kind of pair
# file, in the order read; read_pairs reads kind with any set, and the two
# image ids with a joined column such as gallery_subject or DC. The config's
# matchers are simA and simB, and its model names Q_gallery, Q_probe and DC
# besides simA.
_SCORES = {"score_simA", "score_simB"}
_MODEL_READ = {"eye", "gallery_subject", "A_gallery", "A_probe", "gap_T_months",
               "delta_age_years", "Q_gallery", "Q_probe", "DC", *_SCORES}
PAIR_READS = {
    "calibrate": [("genuine", _SCORES), ("impostor", _SCORES)],
    "fnmr": [("genuine", {"gap_T_months", *_SCORES})],
    "det": [("genuine", _SCORES), ("impostor", _SCORES)],
    "failures": [("genuine", {"gap_T_months", *QUALITY_TERMS, "gallery_subject", *_SCORES})],
    "fuse": [("genuine", _SCORES), ("impostor", _SCORES)],
    "lmm": [("genuine", _MODEL_READ)],
    "apc": [("genuine", _MODEL_READ)],
    "cv": [("genuine", _MODEL_READ)],
}


# the times each subcommand ingests captures.csv: once for a capture join,
# else never
CAPTURE_INGESTS = {"calibrate": 0, "fnmr": 0, "det": 0, "failures": 1, "fuse": 0,
                   "lmm": 1, "apc": 1, "cv": 1}


def test_each_subcommand_reads_only_its_pair_columns(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "config.json", tmp_path / "run")
    run_pipeline(cfg, ["synth", "pairs"])
    read_pairs, ingest_captures, asked, ingested = cli.read_pairs, cli.ingest_captures, [], []

    def recording(path, kind, captures, columns):
        assert Path(path).name == f"pairs_{kind}.csv"
        asked.append((kind, set(columns)))
        return read_pairs(path, kind, captures, columns)

    def counting(path):
        ingested.append(Path(path).name)
        return ingest_captures(path)

    monkeypatch.setattr(cli, "read_pairs", recording)
    monkeypatch.setattr(cli, "ingest_captures", counting)
    assert list(CAPTURE_INGESTS) == list(PAIR_READS)
    for command, reads in PAIR_READS.items():
        asked.clear()
        ingested.clear()
        assert main([command, "--config", str(cfg)]) == 0, command
        assert asked == reads, command
        assert ingested == ["captures.csv"] * CAPTURE_INGESTS[command], command


def test_no_subcommand_parses_a_capture_covariate_from_a_pair_file(tmp_path, monkeypatch):
    # DC, Q_*, U_*, C_* and R_* come from the capture join alone; the genuine
    # pair file shows them, but no subcommand reads them back from it
    cfg = write_config(tmp_path / "config.json", tmp_path / "run")
    run_pipeline(cfg, ["synth", "pairs"])
    read_table, schemas = tableio.read_table, []

    def recording(path, schema):
        if Path(path).name.startswith("pairs_"):
            schemas.append((Path(path).name, list(schema)))
        return read_table(path, schema)

    monkeypatch.setattr(tableio, "read_table", recording)
    for command, reads in PAIR_READS.items():
        schemas.clear()
        assert main([command, "--config", str(cfg)]) == 0, command
        assert [name for name, _ in schemas] == [f"pairs_{kind}.csv" for kind, _ in reads]
        parsed = [c for _, schema in schemas for c in schema]
        assert not [c for c in parsed if re.fullmatch(r"DC|[QUCR]_(gallery|probe)", c)], command


def test_package_import_loads_no_submodule():
    src = str(Path(longmatch.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, longmatch; print(sorted(m for m in sys.modules if 'longmatch' in m))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "['longmatch']"


def _env_without_blas_threads(**given) -> dict:
    """This process's environment for a child that imports the source tree,
    with OPENBLAS_NUM_THREADS only as `given`."""
    src = str(Path(longmatch.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**env, **given}


@pytest.mark.parametrize("prelude, given, changed", [
    ("", {}, {"OPENBLAS_NUM_THREADS": "1"}),
    ("", {"OPENBLAS_NUM_THREADS": "3"}, {}),
    ("import numpy\n", {}, {}),
], ids=["unset", "given", "numpy-first"])
def test_cli_import_pins_blas_to_one_thread_unless_set_or_numpy_loaded(prelude, given,
                                                                       changed):
    probe = prelude + (
        "import json, os\nbefore = dict(os.environ)\nimport longmatch.cli\n"
        "task = '/proc/self/task'\n"
        "print(json.dumps([{k: v for k, v in os.environ.items() if before.get(k) != v},\n"
        "                  os.environ.get('OPENBLAS_NUM_THREADS'),\n"
        "                  len(os.listdir(task)) if os.path.isdir(task) else None]))")
    out = subprocess.run([sys.executable, "-c", probe], env=_env_without_blas_threads(**given),
                         check=True, capture_output=True, text=True).stdout
    seen, value, threads = json.loads(out)
    assert seen == changed
    assert value == given.get("OPENBLAS_NUM_THREADS", changed.get("OPENBLAS_NUM_THREADS"))
    if changed:
        if threads is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert threads == 1


def test_model_outputs_do_not_depend_on_blas_threads(tmp_path, monkeypatch):
    # one tree up to pairs, copied; lmm, apc and cv in fresh processes on
    # each copy, one with one BLAS thread and one with two
    trees = [tmp_path / "one", tmp_path / "two"]
    trees[0].mkdir()
    write_config(trees[0] / "config.json", Path("run"))
    monkeypatch.chdir(trees[0])
    run_pipeline(Path("config.json"), ["synth", "pairs"])
    shutil.copytree(trees[0], trees[1])
    for tree, threads in zip(trees, ("1", "2")):
        env = _env_without_blas_threads(OPENBLAS_NUM_THREADS=threads)
        for command in ("lmm", "apc", "cv"):
            subprocess.run([sys.executable, "-m", "longmatch.cli", command, "--config",
                            "config.json"], cwd=tree, env=env, check=True, capture_output=True)
    files = sorted(p.relative_to(trees[0]) for p in trees[0].rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(trees[1]) for p in trees[1].rglob("*") if p.is_file())
    assert {"run/manifest_lmm.json", "run/manifest_apc.json",
            "run/manifest_cv.json"} <= {str(rel) for rel in files}
    for rel in files:
        assert (trees[0] / rel).read_bytes() == (trees[1] / rel).read_bytes(), rel


def test_package_names_resolve_to_their_submodules():
    import ast
    import importlib

    assert len(longmatch.__all__) == 42
    # the package exports only what the CLI or a demo imports
    sources = [Path(longmatch.__file__).with_name("cli.py"),
               *(Path(__file__).resolve().parents[1] / "demos").glob("*.py")]
    imported = {alias.name for source in sources
                for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(longmatch.__all__) <= imported, sorted(set(longmatch.__all__) - imported)
    for name in longmatch.__all__:
        module = importlib.import_module(f"longmatch.{longmatch._SOURCE[name]}")
        assert getattr(longmatch, name) is getattr(module, name), name
    from longmatch import ModelError, fit_spec, lmm
    assert (ModelError, fit_spec) == (lmm.ModelError, lmm.fit_spec)
    with pytest.raises(AttributeError, match="no_such_name"):
        longmatch.no_such_name
    with pytest.raises(ImportError):
        from longmatch import no_such_name  # noqa: F401


def test_traced_launcher_finds_the_names_it_wraps(tmp_path):
    # perfbench/launcher.py rebinds package functions by name and reads
    # cli._COMMANDS and ComparisonTable.concat; a rename blanks its spans or
    # crashes it, and only a traced run shows it
    root = Path(__file__).resolve().parents[1]
    cfg = write_config(tmp_path / "config.json", tmp_path / "out")
    spans = tmp_path / "spans.json"
    out = subprocess.run([sys.executable, str(root / "perfbench" / "launcher.py"), str(spans),
                          "synth", "--config", str(cfg)],
                         env=_env_without_blas_threads(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    names = {span[0] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    assert {"cli.cmd.synth", "synth.generate", "pairing.genuine", "pairing.impostor"} <= names


def _traced_counts(tmp_path, command: str) -> tuple[dict, dict]:
    """The counts of each span name of `command` run by perfbench/launcher.py
    after synth and pairs, and the data rows of each file in the tree."""
    root = Path(__file__).resolve().parents[1]
    cfg = write_config(tmp_path / "config.json", tmp_path / "out")
    run_pipeline(cfg, ["synth", "pairs"])
    spans = tmp_path / "spans.json"
    out = subprocess.run([sys.executable, str(root / "perfbench" / "launcher.py"), str(spans),
                          command, "--config", str(cfg)],
                         env=_env_without_blas_threads(), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    counts = {}
    for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]:
        counts.setdefault(span[0], []).append(span[5])
    data_rows = {path.name: len(path.read_bytes().splitlines()) - 1
                 for path in (tmp_path / "out").glob("*.csv")}
    return counts, data_rows


def test_traced_launcher_counts_the_pair_rows_it_reads(tmp_path):
    # perfbench/launcher.py wraps read_pairs by name in cli's namespace and
    # counts its rows with len(): a change of its signature or result shows
    # only in a traced run
    counts, data_rows = _traced_counts(tmp_path, "calibrate")
    rows = [data_rows[f"pairs_{kind}.csv"] for kind in ("genuine", "impostor")]
    assert min(rows) > 0
    assert counts["tableio.read_pairs"] == [{"rows": n} for n in rows]


def test_traced_launcher_counts_the_capture_join_of_failures(tmp_path):
    # failures takes its covariates from the capture join: one capture ingest
    # and one read of the genuine pairs, each counted in a traced run
    counts, data_rows = _traced_counts(tmp_path, "failures")
    assert counts["tableio.ingest_captures"] == [{"rows": data_rows["captures.csv"]}]
    assert counts["tableio.read_pairs"] == [{"rows": data_rows["pairs_genuine.csv"]}]
    assert data_rows["pairs_genuine.csv"] > 0


def test_model_outputs_match_golden(tmp_path):
    # numeric cells of the model tables on the write_config config, written
    # by the L-BFGS-B fitter this package used before its Newton fitter; a
    # fitter change may move them only within rtol 1e-6
    outdir = tmp_path / "run"
    run_pipeline(write_config(tmp_path / "config.json", outdir),
                 ["synth", "pairs", "lmm", "apc", "cv"])
    golden = json.loads(Path(__file__).with_name("golden_model_outputs.json").read_text())
    for name, rows in golden.items():
        with open(outdir / name, newline="", encoding="utf-8") as fh:
            got = list(csv.reader(fh))
        assert [len(r) for r in got] == [len(r) for r in rows], name
        for want_row, got_row in zip(rows, got):
            for want, cell in zip(want_row, got_row):
                try:
                    expected = float(want)
                except ValueError:
                    assert cell == want, (name, want_row[0])
                    continue
                assert float(cell) == pytest.approx(expected, rel=1e-6, abs=1e-12), \
                    (name, want_row[0], want, cell)


@pytest.fixture(scope="module")
def fault_tree(tmp_path_factory):
    """A small output tree every fault case copies: pairs, thresholds, tables."""
    outdir = tmp_path_factory.mktemp("faults") / "run"
    run_pipeline(write_config(outdir.parent / "config.json", outdir),
                 ["synth", "pairs", "calibrate", "fnmr", "det", "lmm"])
    return outdir


def _copy_tree(fault_tree: Path, tmp_path: Path) -> tuple[Path, dict]:
    """A copy of `fault_tree` holding its own config.json, and that config."""
    outdir = tmp_path / "run"
    shutil.copytree(fault_tree, outdir)
    config = json.loads((fault_tree.parent / "config.json").read_text(encoding="utf-8"))
    config["out"] = str(outdir)
    return outdir, config


def _set(config: dict, path: str, value) -> None:
    """Set `value` at a dotted config path with list indexes ("a.b[0].c")."""
    *parents, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    for key in parents:
        config = config[key]
    config[last] = value


def _at(offset: int):
    """Damage: the byte at `offset` replaced by 0xff, which is never UTF-8."""
    return lambda data: data[:offset] + b"\xff" + data[offset + 1:]


def _cell(column: str, text: str, row: int = 1):
    """Damage: the `column` cell of 1-based data row `row` set to `text`."""
    def damage(data: bytes) -> bytes:
        lines = data.decode("utf-8").split("\r\n")
        cells = lines[row].split(",")
        cells[lines[0].split(",").index(column)] = text
        lines[row] = ",".join(cells)
        return "\r\n".join(lines).encode("utf-8")
    return damage


def _header_only(data: bytes) -> bytes:
    """Damage: every data row removed."""
    return data.split(b"\r\n")[0] + b"\r\n"


def _removed(data: bytes) -> None:
    """Damage: the file deleted."""
    return None


def _short(row: int):
    """Damage: 1-based data row `row` cut to its first cell."""
    def damage(data: bytes) -> bytes:
        lines = data.decode("utf-8").split("\r\n")
        lines[row] = lines[row].split(",")[0]
        return "\r\n".join(lines).encode("utf-8")
    return damage


def _first(column: str):
    """Damage: `column` moved to the front of the header and of every data row."""
    def damage(data: bytes) -> bytes:
        lines = [line.split(",") for line in data.decode("utf-8").split("\r\n")]
        i = lines[0].index(column)
        for cells in lines[:-1]:   # the text after the last line break is empty
            cells.insert(0, cells.pop(i))
        return "\r\n".join(",".join(cells) for cells in lines).encode("utf-8")
    return damage


def _repeated(row: int):
    """Damage: 1-based data row `row` written twice, the copy right after it."""
    def damage(data: bytes) -> bytes:
        lines = data.decode("utf-8").split("\r\n")
        return "\r\n".join([*lines[:row + 1], *lines[row:]]).encode("utf-8")
    return damage


def _impostor_layout(data: bytes) -> bytes:
    """Damage: the pair file cut to the columns of the impostor layout, the
    key columns and the scores."""
    lines = [line.split(",") for line in data.decode("utf-8").split("\r\n")]
    keep = [i for i, name in enumerate(lines[0]) if name.startswith("score_") or name in (
        "kind", "eye", "gallery_image_id", "probe_image_id", "gap_T_months")]
    rows = [[cells[i] for i in keep] for cells in lines[:-1]]   # the last line is empty
    return "\r\n".join(map(",".join, [*rows, []])).encode("utf-8")


def _constant_fold(column: str, text: str, k: int, seed: int) -> dict:
    """Damage: `column` set to `text` on every genuine pair of the subjects of
    CV fold 0 (k folds, shuffle seed `seed`). captures.csv, left unchanged,
    tells which subject each gallery image belongs to."""
    subject_of = {}

    def read_captures(data: bytes) -> bytes:
        header, *rows = [line.split(",") for line in data.decode("utf-8").split("\r\n")[:-1]]
        image, subject = header.index("image_id"), header.index("subject_id")
        subject_of.update((cells[image], cells[subject]) for cells in rows)
        return data

    def damage(data: bytes) -> bytes:
        header, *rows = [line.split(",") for line in data.decode("utf-8").split("\r\n")[:-1]]
        gallery, target = header.index("gallery_image_id"), header.index(column)
        subjects = sorted({subject_of[cells[gallery]] for cells in rows})
        held = set(shuffled(subjects, seed)[::k])
        for cells in rows:
            if subject_of[cells[gallery]] in held:
                cells[target] = text
        return "\r\n".join(map(",".join, [header, *rows, []])).encode("utf-8")

    return {"captures.csv": read_captures, "pairs_genuine.csv": damage}


WIDE_RANGE = {"matchers[0].score_min": -1e306, "matchers[0].score_max": 1e306}
# simA declared alone, and simB, still scored in the pair files, as the outcome
SIM_A_ONLY = {"matchers": [{"name": "simA", "orientation": "higher", "score_min": -5000.0,
                            "score_max": 5000.0, "default_threshold": 150.0}],
              "model.outcome": "simB"}

# (subcommand, config edits {path: value}, file damage {name: edit}, exit code,
# texts the single stderr line must hold; on exit 0, texts the subcommand's
# <subcommand>_summary.txt, or its REPORTS file, must hold, with nothing on stderr)
FAULTS = [
    ("pairs", {"captures": 5}, {}, 3, ["config captures"]),
    ("pairs", {"scores": 5}, {}, 3, ["config scores"]),
    ("synth", {"out": 5}, {}, 3, ["config out"]),
    ("pairs", {"captures": ""}, {}, 3, ["config captures"]),
    ("pairs", {"pairing.max_impostor_probes": [1]}, {}, 3, ["pairing.max_impostor_probes"]),
    ("lmm", {"model.apc_mode": ["x"]}, {}, 3, ["model.apc_mode"]),
    ("pairs", {"matchers[0].name": ["simA"]}, {}, 3, ["matchers[0].name"]),
    ("synth", {"synth.session_schedule": "abc"}, {}, 3, ["synth.session_schedule"]),
    ("synth", {"synth.covariates": []}, {}, 3, ["synth.covariates"]),
    ("synth", {"synth.matchers[0].beta": [1, 2]}, {}, 3, ["synth.matchers[0].beta"]),
    ("synth", {"synth.matchers[0].Sigma": "abc"}, {}, 3, ["synth.matchers[0].Sigma"]),
    ("synth", {"synth.matchers[0].Sigma": [[1.0, 0.0, 0.0]]}, {}, 3,
     ["synth.matchers[0]", "Sigma"]),
    ("synth", {"synth.matchers[0].orientation": 5}, {}, 3, ["synth.matchers[0].orientation"]),
    ("synth", {"synth.matchers[0].impostor.scale": float("nan")}, {}, 3,
     ["synth.matchers[0].impostor.scale"]),
    ("calibrate", {"calibration.target_fmr": True}, {}, 3, ["calibration.target_fmr"]),
    ("lmm", {"model.standardize_outcome": "no"}, {}, 3, ["model.standardize_outcome"]),
    ("synth", {"synth.include_impostors": "false"}, {}, 3, ["synth.include_impostors"]),
    ("synth", {"synth.n_subjects": True}, {}, 3, ["synth.n_subjects"]),
    ("synth", {"synth.n_subjects": 2.7}, {}, 3, ["synth.n_subjects"]),
    ("fnmr", {"fnmr.bin_width_months": 6.9}, {}, 3, ["fnmr.bin_width_months"]),
    ("fnmr", {"fnmr.bin_width_months": True}, {}, 3, ["fnmr.bin_width_months"]),
    ("cv", {"cv.k": 3.5}, {}, 3, ["cv.k"]),
    ("pairs", {"pairing.max_impostor_probes": 2.9}, {}, 3, ["pairing.max_impostor_probes"]),
    ("pairs", {"pairing.base_seed": -3}, {}, 3, ["pairing.base_seed"]),
    ("synth", {"synth.session_schedule": [0, 6.5]}, {}, 3, ["synth.session_schedule[1]"]),
    ("synth", {"synth.enrollment_age_low": "4"}, {}, 3, ["synth.enrollment_age_low"]),
    ("synth", {"synth.matchers[0].sigma2": -1.0}, {}, 3, ["synth.matchers[0]", "sigma2"]),
    ("lmm", {"model.quality_terms": "Q_probe"}, {}, 3, ["model.quality_terms"]),
    ("calibrate", {"calibration.matchers": "simA"}, {}, 3, ["calibration.matchers"]),
    ("synth", {"synth.session_schedule": []}, {}, 3, ["config synth", "session_schedule"]),
    ("synth", {"synth.matchers[0].beta": {"nope": 1.0}}, {}, 3, ["synth.matchers[0]", "'nope'"]),
    ("synth", {"synth.covariates": {"Q": {"mean": 500.0, "sd": 1.0, "low": 0.0, "high": 100.0}}},
     {}, 3, ["config synth", "infeasible"]),
    ("pairs", {}, {"captures.csv": _at(9000)}, 5, ["captures.csv", "byte offset 9000"]),
    ("pairs", {}, {"scores.csv": _at(9000)}, 5, ["scores.csv", "byte offset 9000"]),
    ("fnmr", {}, {"pairs_genuine.csv": _at(9000)}, 5, ["pairs_genuine.csv", "byte offset 9000"]),
    ("det", {}, {"pairs_impostor.csv": _at(9000)}, 5, ["pairs_impostor.csv", "byte offset 9000"]),
    ("fnmr", {}, {"config.json": _at(20)}, 3, ["config.json", "byte offset 20"]),
    ("fnmr", {}, {"thresholds.json": _at(5)}, 3, ["thresholds.json", "byte offset 5"]),
    ("fnmr", {}, {"pairs_genuine.csv": _cell("score_simA", "nan")}, 5,
     ["pairs_genuine.csv", "score_simA at data row 1"]),
    # the capture covariates are joined from captures.csv, not read from the pair file
    ("failures", {}, {"pairs_genuine.csv": _cell("DC", "inf", row=2)}, 0,
     ["matchers: simA vs simB\n", "genuine pairs: "]),
    ("lmm", {}, {"pairs_genuine.csv": _cell("score_simB", "1e999", row=3)}, 5,
     ["pairs_genuine.csv", "score_simB at data row 3"]),
    ("report", {}, {"trajectories_simA.csv": _cell("T_months", "six", row=2)}, 5,
     ["trajectories_simA.csv", "data row 2"]),
    ("report", {}, {"trajectories_simA.csv": _short(2)}, 5,
     ["trajectories_simA.csv", "data row 2"]),
    ("report", {}, {"trajectories_simA.csv": _at(30)}, 5,
     ["trajectories_simA.csv", "byte offset 30"]),
    ("pairs", {"captures": "."}, {}, 4, ["Is a directory"]),
    ("pairs", {"scores": "absent.csv"}, {}, 4, ["absent.csv"]),
    ("pairs", {}, {"captures.csv": lambda data: b""}, 5, ["captures.csv", "empty file"]),
    ("synth", {"synth.matchers[0].beta": {"intercept": 1e308, "T": 1e308}}, {}, 3,
     ["config synth", "'simA'", "non-finite genuine scores"]),
    ("ingest", {}, {"captures.csv": _header_only}, 0, ["accepted rows: 0", "rejected rows: 0"]),
    ("pairs", {}, {"captures.csv": _header_only}, 0, ["genuine pairs: 0", "impostor pairs: 0"]),
    ("calibrate", {}, {"pairs_genuine.csv": _header_only}, 5,
     ["calibration needs non-empty genuine and impostor scores"]),
    ("fnmr", {}, {"pairs_genuine.csv": _header_only}, 0,
     ["overall FNMR=undefined over 0 intervals"]),
    ("det", {}, {"pairs_impostor.csv": _removed}, 4, ["pairs_impostor.csv does not exist"]),
    ("ingest", {}, {"captures.csv": _cell("capture_time_months", "100000000000000000000")}, 0,
     ["accepted rows: 213", "  invalid integer: 1"]),
    ("pairs", {}, {"captures.csv": _cell("capture_time_months", "100000000000000000000")}, 0,
     ["genuine pairs: "]),
    ("ingest", {}, {"captures.csv": _cell("iris_radius", "inf")}, 0,
     ["accepted rows: 213", "  invalid number: 1"]),
    ("pairs", {}, {"scores.csv": _header_only}, 0,
     ["genuine pairs: 0\n", "impostor pairs: 0\n", "incomplete pairs: 808\n"]),
    ("calibrate", {}, {"pairs_impostor.csv": _header_only}, 5,
     ["calibration needs non-empty genuine and impostor scores"]),
    ("det", {}, {"pairs_impostor.csv": _header_only}, 5,
     ["det_curve needs non-empty genuine and impostor scores"]),
    ("fuse", {}, {"pairs_impostor.csv": _header_only}, 0,
     ["fused FMR: None\n", "impostor accepts: a_only=0 b_only=0 both=0 neither=0\n"]),
    ("failures", {}, {"pairs_genuine.csv": _header_only}, 0,
     ["genuine pairs: 0\n", "failure pairs: 0\n"]),
    ("fuse", {}, {"pairs_genuine.csv": _header_only}, 0,
     ["fused FNMR: None\n", "genuine rejects: a_only=0 b_only=0 both=0 neither=0\n"]),
    ("lmm", {}, {"pairs_genuine.csv": _header_only}, 7,
     ["no rows left to model (0 of 0 genuine rows dropped"]),
    ("apc", {}, {"pairs_genuine.csv": _header_only}, 7,
     ["no rows left to model (0 of 0 genuine rows dropped"]),
    ("cv", {}, {"pairs_genuine.csv": _header_only}, 5, ["need at least k=3 subjects, have 0"]),
    ("fnmr", {}, {"pairs_genuine.csv": _cell("gap_T_months", "100000000000000000000")}, 5,
     ["pairs_genuine.csv", "gap_T_months", "data row 1"]),
    # an age difference past int64 stops the capture join, naming the pair
    ("lmm", {}, {"captures.csv": _cell("age_years", str(-2**63))}, 5,
     ["the age_years difference of gallery I0000000 and probe I0000002 does not fit in int64"]),
    ("pairs", {}, {"scores.csv": lambda data: _short(2)(_first("score")(data))}, 5,
     ["scores.csv", "data row 2"]),
    ("synth", {"synth.matchers[0].impostor": {"family": "uniform", "loc": 1e308, "scale": 1e308}},
     {}, 3, ["config synth.matchers[0].impostor", "upper end"]),
    # a matcher named like a pair column would be shadowed by it in the models
    ("synth", {"synth.matchers[0].name": "DC"}, {}, 3,
     ["config synth.matchers[0]", "'DC'", "pair-table column"]),
    ("pairs", {"matchers[0].name": "DC"}, {}, 3,
     ["config matchers[0]", "'DC'", "pair-table column"]),
    ("lmm", {"model.outcome": "eye"}, {}, 3, ["config model.outcome", "'eye'"]),
    # a matcher name is the stem of det_<name>.csv and interval_fnmr_<name>.csv
    ("det", {"matchers[1].name": "summary"}, {}, 3,
     ["config matchers[1]", "'summary'", "cannot name its output files"]),
    ("det", {"matchers[0].name": "a/b"}, {}, 3,
     ["config matchers[0]", "'a/b'", "cannot name its output files"]),
    ("fnmr", {"matchers[1].name": "a\\b"}, {}, 3,
     ["config matchers[1]", "cannot name its output files"]),
    ("pairs", {"matchers[0].name": "."}, {}, 3,
     ["config matchers[0]", "'.'", "cannot name its output files"]),
    ("pairs", {"matchers[1].name": ".."}, {}, 3,
     ["config matchers[1]", "'..'", "cannot name its output files"]),
    ("synth", {"synth.matchers[1].name": "summary"}, {}, 3,
     ["config synth.matchers[1]", "'summary'", "cannot name its output files"]),
    # a score outside its matcher's [score_min, score_max] = [-5000, 5000]
    ("calibrate", {}, {"pairs_genuine.csv": _cell("score_simA", "5000.5")}, 5,
     ["pairs_genuine.csv", "score_simA 5000.5 at data row 1", "'simA'", "[-5000.0, 5000.0]"]),
    ("fnmr", {}, {"pairs_genuine.csv": _cell("score_simB", "-9000", row=2)}, 5,
     ["pairs_genuine.csv", "score_simB -9000.0 at data row 2", "'simB'"]),
    ("det", {}, {"pairs_impostor.csv": _cell("score_simA", "-5001", row=4)}, 5,
     ["pairs_impostor.csv", "score_simA -5001.0 at data row 4", "'simA'"]),
    ("failures", {}, {"pairs_genuine.csv": _cell("score_simA", "5000.0000001")}, 5,
     ["pairs_genuine.csv", "at data row 1", "'simA'"]),
    ("fuse", {}, {"pairs_impostor.csv": _cell("score_simB", "1e300", row=3)}, 5,
     ["pairs_impostor.csv", "score_simB 1e+300 at data row 3", "'simB'"]),
    ("calibrate", {"matchers[0].score_max": 100.0, "matchers[0].default_threshold": 0.0}, {}, 5,
     ["pairs_genuine.csv", "score_simA", "outside matcher 'simA' range [-5000.0, 100.0]"]),
    # the model subcommands read the genuine pairs under the same range rule
    ("lmm", {}, {"pairs_genuine.csv": _cell("score_simA", "5000.5")}, 5,
     ["pairs_genuine.csv", "score_simA 5000.5 at data row 1", "'simA'", "[-5000.0, 5000.0]"]),
    ("apc", {}, {"pairs_genuine.csv": _cell("score_simB", "-9000", row=2)}, 5,
     ["pairs_genuine.csv", "score_simB -9000.0 at data row 2", "'simB'"]),
    ("cv", {}, {"pairs_genuine.csv": _cell("score_simA", "1e300", row=3)}, 5,
     ["pairs_genuine.csv", "score_simA 1e+300 at data row 3", "'simA'"]),
    # a score inside a declared range so wide that its spread overflows float64
    ("lmm", WIDE_RANGE, {"pairs_genuine.csv": _cell("score_simA", "1e300")}, 7,
     ["outcome 'simA' overflows float64"]),
    ("apc", WIDE_RANGE, {"pairs_genuine.csv": _cell("score_simA", "1e300")}, 7,
     ["outcome 'simA' overflows float64"]),
    ("cv", WIDE_RANGE, {"pairs_genuine.csv": _cell("score_simA", "1e300")}, 7,
     ["outcome 'simA' overflows float64"]),
    # a subcommand judges only the pair columns it reads, and calibrate reads no DC
    ("calibrate", {}, {"pairs_genuine.csv": _cell("DC", "inf", row=2)}, 0,
     ["target FMR: ", "simA: threshold="]),
    ("failures", {}, {"pairs_genuine.csv": _cell("probe_image_id", "nope", row=3)}, 5,
     ["pairs_genuine.csv", "data row 3 references image ids missing from the capture table"]),
    # only a subcommand that joins captures reads captures.csv
    ("det", {}, {"captures.csv": _removed}, 0, ["simA: EER=", "simB: EER="]),
    ("fuse", {}, {"captures.csv": _removed}, 0, ["fused FMR: ", "fused FNMR: "]),
    ("failures", {}, {"captures.csv": _removed}, 4, ["capture table", "captures.csv",
                                                     "does not exist"]),
    ("lmm", {}, {"captures.csv": _at(9000)}, 5, ["captures.csv", "byte offset 9000"]),
    # a gap is never negative: genuine gaps are positive, impostor gaps absolute
    ("fnmr", {}, {"pairs_genuine.csv": _cell("gap_T_months", "-6")}, 5,
     ["pairs_genuine.csv", "negative gap_T_months at data row 1"]),
    ("lmm", {}, {"pairs_genuine.csv": _cell("gap_T_months", "-1", row=5)}, 5,
     ["pairs_genuine.csv", "negative gap_T_months at data row 5"]),
    # a config int is an int64
    ("synth", {"synth.session_schedule": [0, 10**30]}, {}, 3,
     ["config synth.session_schedule[1]", "an integer in [-2**63, 2**63)"]),
    ("synth", {"synth.enrollment_age_high": 10**30}, {}, 3, ["config synth.enrollment_age_high"]),
    ("synth", {"synth.enrollment_age_low": -2**63 - 1}, {}, 3, ["config synth.enrollment_age_low"]),
    ("fnmr", {"fnmr.bin_width_months": 10**30}, {}, 3, ["config fnmr.bin_width_months"]),
    ("fnmr", {"fnmr.bin_width_months": 2**63}, {}, 3, ["config fnmr.bin_width_months"]),
    ("fnmr", {"fnmr.bin_width_months": 2**62}, {}, 0,
     ["simA: threshold=", "simB: threshold=", "over 1 intervals"]),
    ("fnmr", {"fnmr.bin_width_months": 2**63 - 1}, {}, 0, ["over 1 intervals"]),
    # the first and last capture of a schedule are an int64 gap apart at most
    ("synth", {"synth.session_schedule": [-2**63, 0]}, {}, 3,
     ["config synth: ", "session_schedule must span less than 2**63 months"]),
    # a key no reader names: the top level in every subcommand, a section in
    # each subcommand that reads it
    ("det", {"modle": {"outcome": "simA"}}, {}, 3,
     ["config modle is not a known key (did you mean 'model'?)"]),
    ("det", {"xyzzy": 1}, {}, 3,
     ["config xyzzy is not a known key (known keys: seed, out, captures, scores, matchers,"]),
    ("fnmr", {"fnmr.bin_width_month": 12}, {}, 3,
     ["config fnmr.bin_width_month is not a known key (did you mean 'bin_width_months'?)"]),
    ("pairs", {"pairing.max_impostor_probe": 5}, {}, 3,
     ["config pairing.max_impostor_probe is not a known key "
      "(did you mean 'max_impostor_probes'?)"]),
    ("apc", {"model.eye": ["L"]}, {}, 3,
     ["config model.eye is not a known key (did you mean 'eyes'?)"]),
    ("failures", {"fusion": {"min_quality": 40.0}}, {}, 3,
     ["config fusion.min_quality is not a known key (did you mean 'min_quality_cut'?)"]),
    ("fnmr", {"thresholds": {"simA": 150.0, "simB": -150.0, "simC": 0.0}}, {}, 3,
     ["config thresholds.simC is not a known key (did you mean 'simB'?)"]),
    ("synth", {"synth.covariates": {"Q": {"meen": 70.0, "sd": 10.0, "low": 0.0, "high": 100.0}}},
     {}, 3, ["config synth.covariates.Q.meen is not a known key (did you mean 'mean'?)"]),
    ("synth", {"synth.matchers[0].impostor.sclae": 40.0}, {}, 3,
     ["config synth.matchers[0].impostor.sclae is not a known key (did you mean 'scale'?)"]),
    # det reads no fnmr section
    ("det", {"fnmr.bin_width_month": 12}, {}, 0, ["simA: EER=", "simB: EER="]),
    # a noiseless outcome is fitted exactly, and the REML criterion has no minimum
    ("lmm", {"synth.matchers[0].sigma2": 0.0}, {}, 7, ["the outcome is fitted exactly"]),
    ("apc", {"synth.matchers[0].sigma2": 0.0}, {}, 7, ["the outcome is fitted exactly"]),
    ("cv", {"synth.matchers[0].sigma2": 0.0}, {}, 7, ["the outcome is fitted exactly"]),
    # ages synth would draw beyond int64 are a config fault, not a fault of its data
    ("synth", {"synth.enrollment_age_low": -2**63, "synth.enrollment_age_high": 2**63 - 1},
     {}, 3, ["config synth: ", "enrollment ages over the session_schedule"]),
    # a genuine pair file in the impostor layout holds every column failures reads
    # from it: the covariates are joined from captures.csv
    ("failures", {}, {"pairs_genuine.csv": _impostor_layout}, 0,
     ["matchers: simA vs simB\n", "genuine pairs: "]),
    # report plots finite numbers only, on axes whose span float64 holds
    ("report", {}, {"det_simA.csv": _cell("fmr", "inf", row=3)}, 5,
     ["det_simA.csv", "fmr inf at data row 3 does not plot as a finite number"]),
    ("report", {}, {"interval_fnmr_simB.csv": _cell("fnmr", "1e307", row=2)}, 5,
     ["interval_fnmr_simB.csv", "fnmr 1e+307 at data row 2 does not plot as a finite number"]),
    ("report", {}, {"trajectories_simA.csv": _cell("predicted", "nan", row=4)}, 5,
     ["trajectories_simA.csv", "predicted nan at data row 4 does not plot as a finite number"]),
    ("report", {}, {"trajectories_simA.csv": _cell("T_months", "1.75e308", row=2)}, 5,
     ["trajectories_simA.csv", "T_months 1.75e+308 at data row 2", "trajectories_simA.svg",
      "the x axis from -8.75e+306 to inf"]),
    # out-of-sample R2 is undefined on a held-out fold whose outcome is constant
    ("cv", {}, _constant_fold("score_simA", "60.0", k=3, seed=5), 5,
     ["fold 0: the held-out outcome is constant"]),
    # a model names declared matchers only: simB's scores are in the pair
    # file, but no range rule has checked them
    *((command, SIM_A_ONLY, {}, 3, ["config model.outcome names unknown column 'simB'"])
      for command in ("lmm", "apc", "cv")),
    # the model is read before the pairs
    ("cv", {"model.outcome": "nope"}, {"pairs_genuine.csv": _removed}, 3,
     ["config model.outcome names unknown column 'nope'"]),
    # bins that overlap would put an age in the later bin alone
    ("lmm", {"model.age_groups": [[4, 8], [6, 12]]}, {}, 3,
     ["config model.age_groups", "age groups [4, 8] and [6, 12] overlap"]),
    ("apc", {"model.eyes": []}, {}, 3,
     ["config model.eyes must be a non-empty list of 'L', 'R' or 'pooled', got []"]),
    # the model subcommands judge the pair columns a design reads, and no other
    ("lmm", {}, {"pairs_genuine.csv": _cell("U_gallery", "inf", row=2)}, 0,
     ["=== simA ~ gallery_age_plus_t + quality ===", "rows dropped for missing values: 0"]),
    # and DC is joined from captures.csv, not read from the pair file
    ("lmm", {}, {"pairs_genuine.csv": _cell("DC", "inf", row=2)}, 0,
     ["=== simA ~ gallery_age_plus_t + quality ===", "rows dropped for missing values: 0"]),
    # synth covariates whose bounds would make capture rows that ingest rejects
    ("synth", {"synth.covariates": {"D": {"mean": 1.0, "sd": 0.1, "low": 0.5, "high": 1.5}}},
     {}, 3, ["config synth: covariate 'D' bounds [0.5, 1.5] break the capture-row rule "
             "'dilation bounds': pupil_radius=1.5 iris_radius=1.0"]),
    ("synth", {"synth.covariates": {"D": {"mean": 0.0, "sd": 0.0, "low": 0.0, "high": 0.5}}},
     {}, 3, ["config synth: covariate 'D' bounds [0.0, 0.5] break the capture-row rule "
             "'dilation bounds': pupil_radius=0.0 iris_radius=1.0"]),
    ("synth", {"synth.covariates": {"Q": {"mean": 50, "sd": 0, "low": -50, "high": -10}}},
     {}, 3, ["config synth: covariate 'Q' bounds [-50.0, -10.0] break the capture-row rule "
             "'quality range': quality=-50.0"]),
    # a pair row of another kind than its file's, in each subcommand that reads the file
    *((command, {}, {"pairs_genuine.csv": _cell("kind", "impostor")}, 5,
       ["pairs_genuine.csv: 'impostor' pair at data row 1 of a file of genuine pairs"])
      for command in ("calibrate", "fnmr", "det", "failures", "fuse", "lmm", "apc", "cv")),
    *((command, {}, {"pairs_impostor.csv": _cell("kind", "genuine", row=2)}, 5,
       ["pairs_impostor.csv: 'genuine' pair at data row 2 of a file of impostor pairs"])
      for command in ("calibrate", "det", "fuse")),
    # a score key that repeats, named with its file and the row of the repeat
    ("pairs", {}, {"scores.csv": _repeated(3)}, 5,
     ["scores.csv: duplicate score row for ('", "at data row 4"]),
    # a damaged capture is rejected at ingest, and the pairs that reference it
    # fail the capture join
    *((command, {}, {"captures.csv": _cell(column, text)}, 5,
       ["pairs_genuine.csv", "references image ids missing from the capture table"])
      for column, text in (("pupil_radius", "inf"), ("quality", "150"))
      for command in ("failures", "lmm")),
    # and the model subcommands read no column the impostor layout lacks:
    # delta_age_years is joined from captures.csv too
    ("lmm", {}, {"pairs_genuine.csv": _impostor_layout}, 0,
     ["=== simA ~ gallery_age_plus_t + quality ===", "rows dropped for missing values: 0"]),
]
# the text report of the subcommands that write no <subcommand>_summary.txt
REPORTS = {"failures": "failure_report.txt", "fuse": "fusion_report.txt",
           "lmm": "fit_report_simA.txt"}


@pytest.mark.filterwarnings("error")   # a warning would be a second stderr line
@pytest.mark.parametrize("command, edits, damage, code, named", FAULTS)
def test_fault_matrix(fault_tree, tmp_path, capsys, command, edits, damage, code, named):
    outdir, config = _copy_tree(fault_tree, tmp_path)
    for path, value in edits.items():
        _set(config, path, value)
    (outdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    if command != "synth" and any(path.startswith("synth.") for path in edits):
        for stage in ("synth", "pairs"):   # a synth edit reaches a later stage through its data
            assert main([stage, "--config", str(outdir / "config.json")]) == 0
    for name, edit in damage.items():
        data = edit((outdir / name).read_bytes())
        if data is None:
            (outdir / name).unlink()
        else:
            (outdir / name).write_bytes(data)
    capsys.readouterr()
    assert main([command, "--config", str(outdir / "config.json")]) == code
    if code == 0:
        assert capsys.readouterr().err == ""
        report = REPORTS.get(command, f"{command}_summary.txt")
        line = (outdir / report).read_text(encoding="utf-8")
    else:
        line = _one_error_line(capsys, {3: "config-invalid", 4: "missing-input",
                                        5: "data-invalid", 7: "model-error"}[code])
    for text in named:
        assert text in line, line


def test_subject_stages_sort_no_object_column(fault_tree, tmp_path, monkeypatch):
    # subjects become integer keys through core.encode alone: np.unique on the
    # subject strings would sort them as objects
    unique = np.unique

    def unique_of_numbers(values, *args, **kwargs):
        if np.asarray(values).dtype == object:
            raise AssertionError("np.unique on an object array")
        return unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", unique_of_numbers)
    outdir, config = _copy_tree(fault_tree, tmp_path)
    (outdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    for command in ("failures", "lmm", "apc", "cv"):
        assert main([command, "--config", str(outdir / "config.json")]) == 0, command


def test_report_output_path_is_no_glob_pattern(fault_tree, tmp_path, capsys):
    outdir, config = _copy_tree(fault_tree, tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 0
    # "[1]" in the path is no character class: report finds its inputs
    brackets = shutil.copytree(fault_tree, tmp_path / "o[1]")
    assert main(["report", "--config", str(cfg), "--out", str(brackets)]) == 0
    for name in ("det.svg", "fnmr.svg", "trajectories_simA.svg"):
        assert (brackets / name).read_bytes() == (outdir / name).read_bytes(), name
    # and "?" matches no sibling: an empty "q?" next to a finished run "qX"
    shutil.copytree(fault_tree, tmp_path / "qX")
    (tmp_path / "q?").mkdir()
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "q?")]) == 4
    assert "no report inputs found" in _one_error_line(capsys, "missing-input")
    assert not any((tmp_path / "q?").iterdir())


def test_trajectory_legend_in_table_order(fault_tree, tmp_path):
    outdir, config = _copy_tree(fault_tree, tmp_path)
    (outdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["report", "--config", str(outdir / "config.json")]) == 0
    groups = read_table(outdir / "trajectories_simA.csv", {"age_group": object}).column(
        "age_group").tolist()
    svg = (outdir / "trajectories_simA.svg").read_text(encoding="utf-8")
    # the model's age groups in numeric order, which a string sort would not keep
    assert list(dict.fromkeys(groups)) == ["4-5", "6-7", "8-9", "10-12"]
    assert re.findall(r">enrolled ([0-9-]+)<", svg) == list(dict.fromkeys(groups))


@pytest.mark.parametrize("edits, flags, named", [
    ({"seed": -1}, ["--seed", "5"], "config seed"),
    ({"out": 5}, ["--out", "elsewhere"], "config out"),
    ({"captures": ""}, [], "config captures"),
])
def test_top_level_is_read_whatever_the_flags_override(fault_tree, tmp_path, capsys,
                                                        edits, flags, named):
    outdir, config = _copy_tree(fault_tree, tmp_path)
    config.update(edits)
    (outdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert main(["det", "--config", str(outdir / "config.json"), *flags]) == 3
    assert named in _one_error_line(capsys, "config-invalid")


def test_difflib_loads_only_to_refuse_a_key(tmp_path):
    src = str(Path(longmatch.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    write_config(tmp_path / "config.json", Path("run"))
    write_config(tmp_path / "typo.json", Path("run"), modle={})
    probe = ("import sys\nfrom longmatch.cli import main\n"
             "code = main(['synth', '--config', sys.argv[1]])\n"
             "print(code, 'difflib' in sys.modules)")
    for config, expected in (("config.json", "0 False"), ("typo.json", "3 True")):
        out = subprocess.run([sys.executable, "-c", probe, config], cwd=tmp_path, env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.strip().splitlines()[-1] == expected, config


def test_readme_config_table_lists_the_top_level_keys():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("### Config schema")[1]
    table = section.split("| key | meaning |")[1].split("\n\n")[0]
    names = [name for row in re.findall(r"^\| (`.*?) \|", table, re.M)
             for name in re.findall(r"`(\w+)`", row)]
    assert names == [*cli.TOP_LEVEL, *cli.SECTIONS]


# the subcommands that read each fuzzed file; on seeds 0-7 every file gets a
# non-UTF-8 byte at least once
FUZZED = {"captures.csv": ["ingest", "pairs"], "scores.csv": ["pairs"],
          "pairs_genuine.csv": ["calibrate", "fnmr"], "thresholds.json": ["fnmr"],
          "config.json": ["synth", "pairs", "fnmr"]}
# bytes a flip writes: digits, separators, JSON punctuation, letters, NUL, non-UTF-8
FLIP_BYTES = b"0123456789.,-+eE\"\n xT[]{}:\x00\x80\xc3\xff"


@pytest.mark.parametrize("name", list(FUZZED))
def test_byte_flips_never_crash(fault_tree, tmp_path, capsys, name):
    for seed in range(8):
        outdir, config = _copy_tree(fault_tree, tmp_path / str(seed))
        (outdir / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
        rng = random.Random(f"{name}:{seed}")
        data = bytearray((outdir / name).read_bytes())
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.choice(FLIP_BYTES)
        (outdir / name).write_bytes(bytes(data))
        for command in FUZZED[name]:
            # --out keeps a flipped "out" from writing outside tmp_path
            code = main([command, "--config", str(outdir / "config.json"),
                         "--out", str(outdir)])
            assert code != 1, (name, seed, command)
    capsys.readouterr()


def test_ingest_summary_counts_rejections_by_reason(tmp_path):
    # 97 bad rows among 18,318: the flagged fraction is just above half a percent
    outdir = tmp_path / "run"
    outdir.mkdir()
    cfg = write_config(tmp_path / "config.json", outdir)
    good = {"subject_id": "S001", "eye": "L", "collection_index": "1",
            "capture_time_months": "0", "age_years": "8", "quality": "70.0",
            "usable_area": "80.0", "circularity": "85.0", "pupil_radius": "45.0",
            "iris_radius": "110.0"}
    bad = [{"pupil_radius": "150.0"}] * 60 + [{"quality": "101.0"}] * 30 + [{"eye": "X"}] * 7
    with open(outdir / "captures.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CAPTURE_HEADER)
        writer.writeheader()
        for i in range(18318):
            writer.writerow({**good, "image_id": f"I{i:05d}", **(bad[i] if i < 97 else {})})
    assert main(["ingest", "--config", str(cfg)]) == 0
    assert (outdir / "ingest_summary.txt").read_text(encoding="utf-8") == (
        "accepted rows: 18221\n"
        "rejected rows: 97\n"
        "validation findings: 97\n"
        "flagged fraction: 0.5295%\n"
        "  dilation bounds: 60\n"
        "  invalid eye: 7\n"
        "  quality range: 30\n")
    with open(outdir / "ingest_rejections.csv", newline="", encoding="utf-8") as fh:
        assert [int(r["row_number"]) for r in csv.DictReader(fh)] == list(range(1, 98))


def test_partial_covariates_keep_the_other_defaults(tmp_path):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    config = json.loads(cfg.read_text(encoding="utf-8"))
    config["synth"]["covariates"] = {"Q": {"mean": 50, "sd": 0, "low": 0, "high": 100}}
    cfg.write_text(json.dumps(config), encoding="utf-8")
    assert main(["synth", "--config", str(cfg)]) == 0
    with open(outdir / "captures.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["quality"] for r in rows} == {"50.0"}
    assert len({r["usable_area"] for r in rows}) > 1


def test_capture_and_score_files_outside_out_keep_absolute_manifest_keys(tmp_path):
    outdir = tmp_path / "run"
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    captures, scores = elsewhere / "captures.csv", elsewhere / "scores.csv"
    cfg = write_config(tmp_path / "config.json", outdir,
                       captures=str(captures), scores=str(scores))
    run_pipeline(cfg, ["synth", "pairs"])
    synth = json.loads((outdir / "manifest_synth.json").read_text(encoding="utf-8"))
    pairs = json.loads((outdir / "manifest_pairs.json").read_text(encoding="utf-8"))
    for path in (captures, scores):
        assert synth["outputs"][str(path)] == pairs["inputs"][str(path)]
    assert "ground_truth.json" in synth["outputs"]
    assert "pairs_genuine.csv" in pairs["outputs"]


def test_report_legend_keeps_a_matcher_name_holding_a_file_prefix(tmp_path):
    outdir = tmp_path / "run"
    cfg = write_config(tmp_path / "config.json", outdir)
    config = json.loads(cfg.read_text(encoding="utf-8"))
    for block in (config["matchers"], config["synth"]["matchers"]):
        block[1]["name"] = "det_x"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    run_pipeline(cfg, ["synth", "pairs", "fnmr", "det", "report"])
    for svg in ("det.svg", "fnmr.svg"):
        text = (outdir / svg).read_text(encoding="utf-8")
        assert ">det_x</text>" in text and ">x</text>" not in text, svg


def test_report_escapes_markup_in_names(tmp_path):
    # a matcher (and so a legend entry and a chart title) named R&D<1> is
    # written as text, and every SVG the pipeline writes is well-formed XML
    from xml.dom import minidom

    outdir = tmp_path / "run"
    name = "R&D<1>"
    cfg = write_config(tmp_path / "config.json", outdir,
                       model={"outcome": name, "apc_mode": "gallery_age_plus_t",
                              "random_structure": "intercept_slope"})
    config = json.loads(cfg.read_text(encoding="utf-8"))
    for block in (config["matchers"], config["synth"]["matchers"]):
        block[0]["name"] = name
    cfg.write_text(json.dumps(config), encoding="utf-8")
    run_pipeline(cfg, ["synth", "pairs", "fnmr", "det", "lmm", "report"])
    texts = {}
    for svg in sorted(outdir.glob("*.svg")):
        doc = minidom.parse(str(svg))
        texts[svg.name] = [t.firstChild.data for t in doc.getElementsByTagName("text")
                           if t.firstChild is not None]
    assert sorted(texts) == ["det.svg", "fnmr.svg", f"trajectories_{name}.svg"]
    assert name in texts["det.svg"] and name in texts["fnmr.svg"]
    assert f"Predicted {name} score by enrollment age group" in texts[f"trajectories_{name}.svg"]
