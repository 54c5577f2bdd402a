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

import pytest

import longmatch
from longmatch.cli import build_parser, main
from longmatch.tableio import CAPTURE_HEADER


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
    # scipy.stats and scipy.optimize cost over a second per process; only the
    # subcommands that call them may load them
    src = str(Path(longmatch.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, longmatch.cli; "
             "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))")
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


# SHA-256 of the synth and pairs outputs on the write_config config; a change
# to any of them is a change to the program's output and says why
GOLDEN_SYNTH_PAIRS = {
    "captures.csv": "07e8231f4f6f141eb51416176da9f0c09d6dee9503e2a149c31b2ed3bcda5550",
    "scores.csv": "3a5db7b442ef6fbce7a963228a017eab7f46fe78db293cd7ee6ce408c1f19b80",
    "pairs_genuine.csv": "2c7f3347d2e563e75c43bae9662c3aac0c0d10faeee1cd9f2082bf85391d25c3",
    "pairs_impostor.csv": "3615c2f13cd733ec572af733bbdbb6ed542f5ecbd57f467a32195f7a2cc60690",
    "pairs_incomplete.csv": "da8e4b693bdd113b5e524c8f979798ce7a0167141f58e1c6cbf86cc8f8dce1ad",
}


def test_synth_and_pairs_golden_digests(tmp_path):
    outdir = tmp_path / "run"
    run_pipeline(write_config(tmp_path / "config.json", outdir), ["synth", "pairs"])
    digests = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
               for name in GOLDEN_SYNTH_PAIRS}
    assert digests == GOLDEN_SYNTH_PAIRS


# SHA-256 of every other file that synth, ingest, pairs, calibrate, fnmr, det,
# failures, fuse and report write on the write_config config; like the
# digests above, a change to any of them is a change to the program's output
GOLDEN_PIPELINE = {
    **GOLDEN_SYNTH_PAIRS,
    "calibrate_summary.txt": "757732e17ee960dea19f026a882fb57c52c71eb25a882cfce9cbb89451d91947",
    "det.svg": "7e6d8a6f5454c414febbafb7fb924c6fd7fe6b8037dc62416efa410eb8ee352b",
    "det_simA.csv": "39134f1d8b722b774a8d567f21412c9635d0f351618e66cd3cad90eddd84f5f8",
    "det_simB.csv": "80947123084d532a009413f5866d5eb93730a1052dad050d474e2e6d6dacf987",
    "det_summary.csv": "6c6e33c903be570069ed7f7e90cf9ec9c2acdd15603505deed73e403e9a8ed12",
    "det_summary.txt": "7adda102a20850577252fdbea36cced7696e28ceab529ed0d53db66e3cb3bf9e",
    "failure_categories.csv": "4c47962a310a60eafb495f686e368172850d49a0884ea8413b4041a65e971565",
    "failure_report.txt": "e69daceacf6eb9c1be703ee60da514531d92d7c600c6f5f0596333fe6647b7f4",
    "fnmr.svg": "242b6357eb32bd9ce919d6241b53ec7d7fe73b79ea71ab8eea3b7f52b428af38",
    "fnmr_summary.txt": "4899d1a93af82a3b813aa3084b818d1eadd927463c58ea3c7f7acf08d83fad4f",
    "fusion_report.txt": "403bd3717d4ad924ead6e9226c41ac0dc9d1ee9e0b0d439e958cc67044c9d067",
    "ground_truth.json": "e57e4986383582769f42b1201adc4e08fded5fd70f29be7ff1046fb708aa9e3f",
    "ingest_rejections.csv": "80c2078deb19e5103ef5e1eef8e4d767f81e9bce09ae370701c533f0af2d2742",
    "ingest_summary.txt": "e560f0709abf274682d261482a24b379681404bf0464f77c7b5b3781ff357199",
    "interval_fnmr_simA.csv": "919255e102b8c18221a81cf050a052917b3101d04c84b8d0f2b93f6453a814fa",
    "interval_fnmr_simB.csv": "919255e102b8c18221a81cf050a052917b3101d04c84b8d0f2b93f6453a814fa",
    "pairs_summary.txt": "15b4e7a8d6e1a96887c99d060fc0537b07899e9e6653aa0438fae73aeb8c3ae2",
    "synth_summary.txt": "e8d5ab732d98e1036d9408eac092d8bb0572fb0f91766a11234be04904466104",
    "thresholds.json": "fed8db91ef23eca31c470f6d6232f7442537ce7f226dfccb58559dd706af2978",
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
    "calibrate": (("captures.csv", "pairs_genuine.csv", "pairs_impostor.csv"),
                  ("calibrate_summary.txt", "thresholds.json")),
    "fnmr": (("captures.csv", "pairs_genuine.csv", "thresholds.json"),
             ("fnmr_summary.txt", "interval_fnmr_simA.csv", "interval_fnmr_simB.csv")),
    "det": (("captures.csv", "pairs_genuine.csv", "pairs_impostor.csv"),
            ("det_simA.csv", "det_simB.csv", "det_summary.csv", "det_summary.txt")),
    "failures": (("captures.csv", "pairs_genuine.csv", "thresholds.json"),
                 ("failure_categories.csv", "failure_report.txt")),
    "fuse": (("captures.csv", "pairs_genuine.csv", "pairs_impostor.csv", "thresholds.json"),
             ("fusion_report.txt",)),
    "report": (("det_simA.csv", "det_simB.csv", "interval_fnmr_simA.csv",
                "interval_fnmr_simB.csv"),
               ("det.svg", "fnmr.svg")),
}


def test_pipeline_golden_digests(tmp_path):
    outdir = tmp_path / "run"
    run_pipeline(write_config(tmp_path / "config.json", outdir), list(GOLDEN_MANIFESTS))
    written = sorted(p.name for p in outdir.iterdir() if not p.name.startswith("manifest_"))
    assert {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in written} == GOLDEN_PIPELINE
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
    for command in ("calibrate", "fnmr", "det", "failures", "fuse"):
        assert main([command, "--config", str(cfg)]) == 5
        line = _one_error_line(capsys, "data-invalid")
        assert "'nope'" in line and "pairs_genuine.csv" in line
        assert "re-run the pairs subcommand" in line


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


def test_subcommands_but_lmm_load_no_heavy_scipy(tmp_path):
    # lmm needs scipy.stats for Shapiro-Wilk; no other subcommand may load it
    # or scipy.optimize
    cfg = write_config(tmp_path / "config.json", tmp_path / "run")
    commands = [c for c in PIPELINE if c != "lmm"]
    src = str(Path(longmatch.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys\nfrom longmatch.cli import main\n"
             f"for command in {commands!r}:\n"
             f"    assert main([command, '--config', {str(cfg)!r}]) == 0, command\n"
             "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"


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
                 ["synth", "pairs", "calibrate", "lmm"])
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


# (subcommand, config edits {path: value}, file damage {name: edit}, exit code,
# texts the single stderr line must hold; on exit 0, texts the subcommand's
# <subcommand>_summary.txt must hold, with nothing on stderr)
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
    ("calibrate", {}, {"pairs_genuine.csv": _cell("DC", "inf", row=2)}, 5,
     ["pairs_genuine.csv", "DC at data row 2"]),
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
    ("fnmr", {}, {"pairs_genuine.csv": _header_only}, 0, ["overall FNMR=0.0000% over 0 intervals"]),
    ("det", {}, {"pairs_impostor.csv": _removed}, 4, ["pairs_impostor.csv does not exist"]),
    ("ingest", {}, {"captures.csv": _cell("capture_time_months", "100000000000000000000")}, 0,
     ["accepted rows: 213", "  invalid integer: 1"]),
    ("pairs", {}, {"captures.csv": _cell("capture_time_months", "100000000000000000000")}, 0,
     ["genuine pairs: "]),
    ("ingest", {}, {"captures.csv": _cell("iris_radius", "inf")}, 0,
     ["accepted rows: 213", "  invalid number: 1"]),
]


@pytest.mark.filterwarnings("error")   # a warning would be a second stderr line
@pytest.mark.parametrize("command, edits, damage, code, named", FAULTS)
def test_fault_matrix(fault_tree, tmp_path, capsys, command, edits, damage, code, named):
    outdir, config = _copy_tree(fault_tree, tmp_path)
    for path, value in edits.items():
        _set(config, path, value)
    (outdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
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
        line = (outdir / f"{command}_summary.txt").read_text(encoding="utf-8")
    else:
        line = _one_error_line(capsys, {3: "config-invalid", 4: "missing-input",
                                        5: "data-invalid"}[code])
    for text in named:
        assert text in line, line


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
