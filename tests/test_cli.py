import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import longmatch
from longmatch.cli import build_parser, main


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
