"""Command-line pipeline: ingestion -> pairing -> metrics -> models -> reports.

Every subcommand reads one declarative JSON config (documented in the
README), writes machine-readable tables plus a human-readable summary into
the output directory, and records a run manifest (inputs, seed, versions,
checksums). Nothing written contains timestamps, so identical config + seed
reproduces a byte-identical output tree.

Exit codes:
    0  success
    2  usage error (unknown flag / missing argument; raised by argparse)
    3  config-invalid
    4  missing-input
    5  data-invalid
    6  calibration-infeasible
    7  model-error
Errors print one machine-parsable line to stderr: "error code=<name>: <msg>".
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .core import (
    ComparisonTable, DataError, MatcherProfile, validate_dataset,
)
from .lmm import (
    AgeGroups, Continuous, Interaction, ModelError, ModelSpec,
    compare_apc, fit_spec, format_fit_report, marginal_r2,
)
from .metrics import (
    CalibrationInfeasibleError, calibrate_threshold, det_curve,
    failure_analysis, fnmr_by_interval, fuse_and_rule,
)
from .pairing import PairingConfig, attach_scores, generate_genuine_pairs, \
    generate_impostor_pairs
from .svgplot import Chart, Series, render
from .synth import (
    CovariateSpec, DistSpec, MatcherSim, SynthConfig, SynthConfigError,
    generate_longitudinal,
)
from .tableio import (
    IngestError, ingest_captures, ingest_scores, read_pairs, write_captures,
    write_pairs, write_scores, write_table,
)
from .validation import kfold_subject_cv, residual_diagnostics

EXIT_OK = 0
EXIT_CONFIG_INVALID = 3
EXIT_MISSING_INPUT = 4
EXIT_DATA_INVALID = 5
EXIT_CALIBRATION_INFEASIBLE = 6
EXIT_MODEL_ERROR = 7

_CODE_NAMES = {
    EXIT_CONFIG_INVALID: "config-invalid",
    EXIT_MISSING_INPUT: "missing-input",
    EXIT_DATA_INVALID: "data-invalid",
    EXIT_CALIBRATION_INFEASIBLE: "calibration-infeasible",
    EXIT_MODEL_ERROR: "model-error",
}


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


@dataclass
class RunContext:
    config: dict
    config_path: Path
    outdir: Path
    seed: int
    inputs: dict
    outputs: dict

    def resolve(self, name: str, default: str) -> Path:
        p = Path(self.config.get(name, default))
        return p if p.is_absolute() else self.outdir / p

    def record_input(self, path: Path) -> Path:
        try:
            key = str(path.relative_to(self.outdir))
        except ValueError:
            key = str(path)
        self.inputs[key] = _sha256(path)
        return path

    def record_output(self, path: Path) -> Path:
        self.outputs[str(path.relative_to(self.outdir))] = _sha256(path)
        return path


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _u64(value) -> int:
    """`value` as a seed: an integer in [0, 2**64), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {value!r}")
    return value


def _seed_arg(text: str) -> int:
    """argparse type of --seed."""
    try:
        return _u64(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer in [0, 2**64), got {text!r}")


def _load_config(path_str: str) -> tuple[dict, Path]:
    path = Path(path_str)
    if not path.exists():
        raise CliError(EXIT_MISSING_INPUT, f"config file {path} does not exist")
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_CONFIG_INVALID, f"config is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise CliError(EXIT_CONFIG_INVALID, "config root must be a JSON object")
    return config, path


def _profiles(ctx: RunContext) -> list[MatcherProfile]:
    raw = ctx.config.get("matchers")
    if not raw:
        raise CliError(EXIT_CONFIG_INVALID, "config needs a non-empty 'matchers' list")
    out = []
    for entry in raw:
        try:
            out.append(MatcherProfile(
                name=entry["name"], orientation=entry["orientation"],
                score_min=float(entry["score_min"]),
                score_max=float(entry["score_max"]),
                default_threshold=float(entry["default_threshold"])))
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(EXIT_CONFIG_INVALID, f"bad matcher profile entry: {exc}")
    return out


def _profile_by_name(profiles, name) -> MatcherProfile:
    for p in profiles:
        if p.name == name:
            return p
    raise CliError(EXIT_CONFIG_INVALID, f"matcher {name!r} is not declared in config")


def _section(ctx: RunContext, name: str) -> dict:
    """Config section `name` ({} when absent), exit 3 unless a JSON object."""
    raw = ctx.config.get(name, {})
    if not isinstance(raw, dict):
        raise CliError(EXIT_CONFIG_INVALID, f"config {name} must be a JSON object")
    return raw


def _pairing_config(ctx: RunContext) -> PairingConfig:
    raw = _section(ctx, "pairing")
    try:
        return PairingConfig(
            max_impostor_probes=int(raw.get("max_impostor_probes", 10)),
            base_seed=int(raw.get("base_seed", ctx.seed)))
    except ValueError as exc:
        raise CliError(EXIT_CONFIG_INVALID, f"bad pairing config: {exc}")


def _load_captures(ctx: RunContext):
    path = ctx.resolve("captures", "captures.csv")
    if not path.exists():
        raise CliError(EXIT_MISSING_INPUT, f"capture table {path} does not exist")
    ctx.record_input(path)
    return ingest_captures(path)


def _load_pairs(ctx: RunContext, captures, kind: str, profiles=()) -> ComparisonTable:
    """The `kind` ("genuine" or "impostor") pair table written by `pairs`,
    holding a score column for each of `profiles`."""
    path = ctx.outdir / f"pairs_{kind}.csv"
    if not path.exists():
        raise CliError(EXIT_MISSING_INPUT,
                       f"{path} does not exist (run the pairs subcommand first)")
    ctx.record_input(path)
    table = read_pairs(path, captures)
    for p in profiles:
        if p.name not in table.scores:
            raise CliError(EXIT_DATA_INVALID,
                           f"{path} has no scores for matcher {p.name!r} declared in "
                           f"config 'matchers' (re-run the pairs subcommand)")
    return table


def _setting(ctx: RunContext, section: str, key: str, default, convert,
             requirement: str, ok=lambda value: True):
    """Config `section.key` (or `default`) through `convert`, exit 3 naming
    the key unless it converts and passes `ok`."""
    value = _section(ctx, section).get(key, default)
    try:
        parsed = convert(value)
    except (TypeError, ValueError, OverflowError):
        pass
    else:
        if ok(parsed):
            return parsed
    raise CliError(EXIT_CONFIG_INVALID,
                   f"config {section}.{key} must be {requirement}, got {value!r}")


def _finite(value) -> float | None:
    """`value` as a float if it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _thresholds(ctx: RunContext, profiles) -> dict[str, float]:
    """One finite threshold per profile: config 'thresholds', then
    thresholds.json from `calibrate`, then each profile's default."""
    conf = ctx.config.get("thresholds")
    if conf:
        source = "config 'thresholds'"
    else:
        artifact = ctx.outdir / "thresholds.json"
        if not artifact.exists():
            return {p.name: p.default_threshold for p in profiles}
        ctx.record_input(artifact)
        source = str(artifact)
        try:
            conf = json.loads(artifact.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise CliError(EXIT_CONFIG_INVALID, f"{source} is not valid JSON: {exc}")
    if not isinstance(conf, dict):
        raise CliError(EXIT_CONFIG_INVALID, f"{source} must map matcher names to thresholds")
    out = {}
    for p in profiles:
        if p.name not in conf:
            raise CliError(EXIT_CONFIG_INVALID,
                           f"{source} has no threshold for matcher {p.name!r}")
        out[p.name] = _finite(conf[p.name])
        if out[p.name] is None:
            raise CliError(EXIT_CONFIG_INVALID,
                           f"{source} threshold for matcher {p.name!r} must be a finite "
                           f"number, got {conf[p.name]!r}")
    return out


def _model_spec(ctx: RunContext, table: ComparisonTable) -> ModelSpec:
    """The config's model, every column of which `table` must have."""
    raw = _section(ctx, "model")
    outcome = raw.get("outcome")
    if not outcome:
        raise CliError(EXIT_CONFIG_INVALID, "config model.outcome is required")
    try:
        columns = list(raw.get(
            "quality_terms",
            ["Q_gallery", "Q_probe", "U_gallery", "U_probe", "C_gallery", "C_probe", "DC"]))
        pairs = [(a, b) for a, b in raw.get("interactions", [])]
    except (TypeError, ValueError):
        raise CliError(EXIT_CONFIG_INVALID,
                       "config model.quality_terms must be a list of columns and "
                       "model.interactions a list of [column, column] pairs")
    named = [("outcome", outcome)] + [("quality_terms", c) for c in columns] + [
        ("interactions", c) for pair in pairs for c in pair]
    for key, name in named:
        try:
            table.column(name)
        except (KeyError, TypeError):
            raise CliError(EXIT_CONFIG_INVALID,
                           f"config model.{key} names unknown column {name!r}")
    terms = tuple(Continuous(c) for c in columns)
    terms += tuple(Interaction(a, b) for a, b in pairs)
    try:
        return ModelSpec(
            outcome=outcome, fixed_terms=terms,
            apc_mode=raw.get("apc_mode", "gallery_age_plus_t"),
            random_structure=raw.get("random_structure", "intercept_slope"),
            standardize_outcome=bool(raw.get("standardize_outcome", False)))
    except ValueError as exc:
        raise CliError(EXIT_CONFIG_INVALID, f"bad model config: {exc}")


def _write_text(ctx: RunContext, name: str, text: str) -> None:
    path = ctx.outdir / name
    path.write_text(text, encoding="utf-8")
    ctx.record_output(path)


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(ctx: RunContext) -> None:
    raw = _section(ctx, "synth")
    try:
        covariates = {k: CovariateSpec(**v) for k, v in raw.get("covariates", {}).items()} \
            or None
        matchers = tuple(
            MatcherSim(name=m["name"], orientation=m.get("orientation", "higher"),
                       beta={k: float(v) for k, v in m["beta"].items()},
                       Sigma=tuple(tuple(row) for row in m["Sigma"]),
                       sigma2=float(m["sigma2"]),
                       impostor=DistSpec(**m["impostor"]))
            for m in raw.get("matchers", [])) or None
        kwargs = dict(
            n_subjects=int(raw.get("n_subjects", 100)),
            enrollment_age_low=int(raw.get("enrollment_age_low", 4)),
            enrollment_age_high=int(raw.get("enrollment_age_high", 12)),
            session_schedule=tuple(raw.get(
                "session_schedule", SynthConfig.session_schedule)),
            images_per_eye_per_session=int(raw.get("images_per_eye_per_session", 2)),
            attrition_rate=float(raw.get("attrition_rate", 0.134)),
            include_impostors=bool(raw.get("include_impostors", True)),
            pairing=_pairing_config(ctx),
            seed=ctx.seed,
        )
        if covariates:
            kwargs["covariates"] = covariates
        if matchers:
            kwargs["matchers"] = matchers
        cfg = SynthConfig(**kwargs)
    except (KeyError, TypeError, ValueError, SynthConfigError) as exc:
        raise CliError(EXIT_CONFIG_INVALID, f"bad synth config: {exc}")

    result = generate_longitudinal(cfg)
    captures_path = ctx.resolve("captures", "captures.csv")
    scores_path = ctx.resolve("scores", "scores.csv")
    write_captures(result.captures, captures_path)
    write_scores(result.scores, scores_path)
    ctx.record_output(captures_path)
    ctx.record_output(scores_path)
    truth_path = ctx.outdir / "ground_truth.json"
    result.truth.to_json(truth_path)
    ctx.record_output(truth_path)
    _write_text(ctx, "synth_summary.txt", "\n".join([
        f"subjects: {cfg.n_subjects}",
        f"images: {len(result.captures)}",
        f"genuine comparisons scored: {result.truth.n_genuine}",
        f"impostor comparisons scored: {result.truth.n_impostor}",
        f"matchers: {', '.join(sorted(result.truth.betas))}",
        f"seed: {cfg.seed}",
    ]) + "\n")


def cmd_ingest(ctx: RunContext) -> None:
    result = _load_captures(ctx)
    report = validate_dataset(result.table)
    write_table(ctx.outdir / "ingest_rejections.csv",
                ["row_number", "reason", "detail"],
                [(r.row_number, r.reason, r.detail) for r in result.rejections])
    ctx.record_output(ctx.outdir / "ingest_rejections.csv")
    lines = [f"accepted rows: {result.n_accepted}",
             f"rejected rows: {result.n_rejected}",
             f"validation findings: {len(report.findings)}",
             f"flagged fraction: {report.flagged_fraction:.4%}"]
    for cls, count in sorted(report.counts.items()):
        lines.append(f"  {cls}: {count}")
    _write_text(ctx, "ingest_summary.txt", "\n".join(lines) + "\n")


def cmd_pairs(ctx: RunContext) -> None:
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    scores_path = ctx.resolve("scores", "scores.csv")
    if not scores_path.exists():
        raise CliError(EXIT_MISSING_INPUT, f"score table {scores_path} does not exist")
    ctx.record_input(scores_path)
    scores = ingest_scores(scores_path)

    genuine = generate_genuine_pairs(captures)
    impostor = generate_impostor_pairs(captures, _pairing_config(ctx))
    attached_g = attach_scores(genuine, scores, profiles)
    attached_i = attach_scores(impostor, scores, profiles)

    write_pairs(attached_g.table, ctx.outdir / "pairs_genuine.csv")
    write_pairs(attached_i.table, ctx.outdir / "pairs_impostor.csv")
    ctx.record_output(ctx.outdir / "pairs_genuine.csv")
    ctx.record_output(ctx.outdir / "pairs_impostor.csv")
    incomplete = list(attached_g.incomplete) + list(attached_i.incomplete)
    write_table(ctx.outdir / "pairs_incomplete.csv",
                ["gallery_image_id", "probe_image_id", "missing_matchers"],
                [(p.gallery_image_id, p.probe_image_id, ";".join(p.missing_matchers))
                 for p in incomplete])
    ctx.record_output(ctx.outdir / "pairs_incomplete.csv")
    _write_text(ctx, "pairs_summary.txt", "\n".join([
        f"genuine pairs: {len(attached_g.table)}",
        f"impostor pairs: {len(attached_i.table)}",
        f"incomplete pairs: {len(incomplete)}",
    ]) + "\n")


def cmd_calibrate(ctx: RunContext) -> None:
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    genuine = _load_pairs(ctx, captures, "genuine", profiles)
    impostor = _load_pairs(ctx, captures, "impostor", profiles)
    target = _setting(ctx, "calibration", "target_fmr", 0.001, float,
                      "a number in [0, 1]", lambda t: 0.0 <= t <= 1.0)
    names = _section(ctx, "calibration").get("matchers") or [p.name for p in profiles]

    thresholds = {}
    lines = [f"target FMR: {target}"]
    for name in names:
        profile = _profile_by_name(profiles, name)
        res = calibrate_threshold(genuine, impostor, profile, target)
        thresholds[name] = res.threshold
        lines.append(f"{name}: threshold={res.threshold!r} "
                     f"achieved_fmr={res.achieved_fmr:.6g} "
                     f"achieved_fnmr={res.achieved_fnmr:.6g}")
    path = ctx.outdir / "thresholds.json"
    path.write_text(json.dumps(thresholds, indent=2, sort_keys=True), encoding="utf-8")
    ctx.record_output(path)
    _write_text(ctx, "calibrate_summary.txt", "\n".join(lines) + "\n")


def cmd_fnmr(ctx: RunContext) -> None:
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    genuine = _load_pairs(ctx, captures, "genuine", profiles)
    thresholds = _thresholds(ctx, profiles)
    bin_width = _setting(ctx, "fnmr", "bin_width_months", 6, int,
                         "an integer >= 1", lambda b: b >= 1)
    confidence = _setting(ctx, "fnmr", "confidence", 0.95, float,
                          "a number in (0, 1)", lambda c: 0.0 < c < 1.0)

    lines = []
    for profile in profiles:
        stats_rows = fnmr_by_interval(genuine, profile, thresholds[profile.name],
                                      bin_width, confidence)
        path = ctx.outdir / f"interval_fnmr_{profile.name}.csv"
        write_table(path,
                    ["interval_months", "n_genuine", "n_false_nonmatch", "fnmr",
                     "ci_low", "ci_high", "ci_method"],
                    [(s.interval_months, s.n_genuine, s.n_false_nonmatch, s.fnmr,
                      s.ci_low, s.ci_high, s.ci_method) for s in stats_rows])
        ctx.record_output(path)
        overall = sum(s.n_false_nonmatch for s in stats_rows) / max(
            1, sum(s.n_genuine for s in stats_rows))
        lines.append(f"{profile.name}: threshold={thresholds[profile.name]!r} "
                     f"overall FNMR={overall:.4%} over {len(stats_rows)} intervals")
    _write_text(ctx, "fnmr_summary.txt", "\n".join(lines) + "\n")


def cmd_det(ctx: RunContext) -> None:
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    genuine = _load_pairs(ctx, captures, "genuine", profiles)
    impostor = _load_pairs(ctx, captures, "impostor", profiles)
    summary_rows = []
    lines = []
    for profile in profiles:
        curve = det_curve(genuine, impostor, profile)
        path = ctx.outdir / f"det_{profile.name}.csv"
        write_table(path, ["threshold", "fmr", "fnmr"],
                    zip(curve.thresholds.tolist(), curve.fmr.tolist(),
                        curve.fnmr.tolist()))
        ctx.record_output(path)
        summary_rows.append((profile.name, curve.eer, curve.auc))
        lines.append(f"{profile.name}: EER={curve.eer:.4%} AUC={curve.auc:.6f}")
    write_table(ctx.outdir / "det_summary.csv", ["matcher", "eer", "auc"], summary_rows)
    ctx.record_output(ctx.outdir / "det_summary.csv")
    _write_text(ctx, "det_summary.txt", "\n".join(lines) + "\n")


def _two_matchers(ctx: RunContext, profiles):
    raw = _section(ctx, "fusion")
    if "matcher_a" in raw and "matcher_b" in raw:
        names = (raw["matcher_a"], raw["matcher_b"])
    elif len(profiles) >= 2:
        names = (profiles[0].name, profiles[1].name)
    else:
        raise CliError(EXIT_CONFIG_INVALID,
                       "fusion/failure analysis needs two matchers (config 'fusion')")
    return _profile_by_name(profiles, names[0]), _profile_by_name(profiles, names[1])


def cmd_failures(ctx: RunContext) -> None:
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    genuine = _load_pairs(ctx, captures, "genuine", profiles)
    thresholds = _thresholds(ctx, profiles)
    pa, pb = _two_matchers(ctx, profiles)
    cut = _setting(ctx, "fusion", "min_quality_cut", 45.0, float, "a finite number",
                   math.isfinite)
    report = failure_analysis(genuine, pa, thresholds[pa.name], pb, thresholds[pb.name], cut)
    rows = []
    for cat in report.categories:
        rows.append((cat.name, cat.n_pairs, cat.n_subjects,
                     "" if cat.quality_capture_rate is None else cat.quality_capture_rate,
                     "" if cat.mean_gap_months is None else cat.mean_gap_months))
    write_table(ctx.outdir / "failure_categories.csv",
                ["category", "n_pairs", "n_subjects", "min_quality_capture_rate",
                 "mean_gap_months"], rows)
    ctx.record_output(ctx.outdir / "failure_categories.csv")

    lines = [f"matchers: {pa.name} vs {pb.name}",
             f"genuine pairs: {report.n_genuine}",
             f"failure pairs: {report.n_failures}",
             f"failure subjects: {report.n_failure_subjects} of {report.n_subjects} "
             f"({report.failure_subject_fraction:.1%})",
             f"min-quality cut: {report.min_quality_cut}"]
    for cat in report.categories:
        lines.append(f"[{cat.name}] n={cat.n_pairs} subjects={cat.n_subjects} "
                     f"capture_rate={cat.quality_capture_rate}")
        for (matcher, covariate), value in sorted(cat.correlations.items()):
            if value is None:
                lines.append(f"    corr({matcher}, {covariate}) undefined (constant column)")
            else:
                r, p = value
                lines.append(f"    corr({matcher}, {covariate}) r={r:+.3f} p={p:.3g}")
    _write_text(ctx, "failure_report.txt", "\n".join(lines) + "\n")


def cmd_fuse(ctx: RunContext) -> None:
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    genuine = _load_pairs(ctx, captures, "genuine", profiles)
    impostor = _load_pairs(ctx, captures, "impostor", profiles)
    thresholds = _thresholds(ctx, profiles)
    pa, pb = _two_matchers(ctx, profiles)
    combined = ComparisonTable.concat([genuine, impostor])
    report = fuse_and_rule(combined, pa, thresholds[pa.name], pb, thresholds[pb.name])
    ia = report.impostor_accepts
    gr = report.genuine_rejects
    _write_text(ctx, "fusion_report.txt", "\n".join([
        f"AND-rule fusion of {pa.name} (thr={thresholds[pa.name]!r}) and "
        f"{pb.name} (thr={thresholds[pb.name]!r})",
        f"fused FMR: {report.fused_fmr}",
        f"fused FNMR: {report.fused_fnmr}",
        f"impostor accepts: a_only={ia.a_only} b_only={ia.b_only} both={ia.both} "
        f"neither={ia.neither}",
        f"genuine rejects: a_only={gr.a_only} b_only={gr.b_only} both={gr.both} "
        f"neither={gr.neither}",
    ]) + "\n")


def cmd_lmm(ctx: RunContext) -> None:
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    genuine_all = _load_pairs(ctx, captures, "genuine")
    spec = _model_spec(ctx, genuine_all)
    raw = _section(ctx, "model")
    eyes = raw.get("eyes", ["pooled"])
    if not isinstance(eyes, list) or not all(e in ("L", "R", "pooled") for e in eyes):
        raise CliError(EXIT_CONFIG_INVALID, "config model.eyes must be a list of 'L', "
                       f"'R' or 'pooled', got {eyes!r}")
    bins = raw.get("age_groups", [[4, 5], [6, 7], [8, 9], [10, 12]])
    if not (isinstance(bins, list) and bins and all(
            isinstance(b, list) and len(b) == 2 and all(_finite(v) is not None for v in b)
            for b in bins)):
        raise CliError(EXIT_CONFIG_INVALID, "config model.age_groups must be a non-empty list "
                       f"of [low, high] number pairs, got {bins!r}")
    age_term = AgeGroups(column="A_gallery", bins=tuple(tuple(b) for b in bins))
    # eyes are independent biometric instances; fit pooled or per eye
    for eye in eyes:
        if eye == "pooled":
            _fit_and_report(ctx, genuine_all, spec, age_term, suffix="")
        else:
            _fit_and_report(ctx, genuine_all.select(genuine_all.eye == eye),
                            spec, age_term, suffix=f"_{eye}")


def _fit_and_report(ctx: RunContext, genuine, spec, age_term, suffix: str) -> None:
    fit = fit_spec(genuine, spec)
    name = spec.outcome + suffix
    diag = residual_diagnostics(fit)
    write_table(ctx.outdir / f"qq_{name}.csv",
                ["sample_quantile", "theoretical_quantile"],
                zip(diag.sample_quantiles.tolist(),
                    diag.theoretical_quantiles.tolist()))
    ctx.record_output(ctx.outdir / f"qq_{name}.csv")
    report_text = format_fit_report(fit, f"{name} ~ {spec.apc_mode} + quality")
    report_text += (f"\nShapiro-Wilk W = {diag.shapiro_w:.4f} "
                    f"(n_used={diag.n_used}, subsampled={diag.subsampled})\n")
    _write_text(ctx, f"fit_report_{name}.txt", report_text)
    write_table(ctx.outdir / f"coefficients_{name}.csv",
                ["predictor", "beta", "se", "z", "p"],
                [(nm, float(fit.beta[j]), float(fit.se[j]), float(fit.z_stats[j]),
                  float(fit.p_values[j])) for j, nm in enumerate(fit.column_names)])
    ctx.record_output(ctx.outdir / f"coefficients_{name}.csv")

    # enrollment age-group companion model and predicted trajectories
    group_spec = ModelSpec(
        outcome=spec.outcome,
        fixed_terms=(Continuous("T"), age_term) + tuple(
            t for t in spec.fixed_terms if isinstance(t, Continuous)),
        apc_mode=None, random_structure=spec.random_structure,
        standardize_outcome=spec.standardize_outcome)
    try:
        group_fit = fit_spec(genuine, group_spec)
    except ModelError as exc:
        _write_text(ctx, f"trajectories_{name}.csv",
                    "age_group,T_months,predicted\n")
        _write_text(ctx, f"fit_report_{name}_age_groups.txt",
                    f"age-group model not fit: {exc}\n")
        return
    _write_text(ctx, f"fit_report_{name}_age_groups.txt",
                format_fit_report(group_fit, f"{name} ~ T + enrollment age group + quality") + "\n")

    design = group_fit.design
    col_means = design.X.mean(axis=0)
    t_grid = sorted(set(int(v) for v in np.unique(design.X[:, design.column_names.index("T")])))
    rows = []
    labels = age_term.labels()
    for label in labels:
        for t_val in t_grid:
            x = col_means.copy()
            x[0] = 1.0
            x[design.column_names.index("T")] = t_val
            for other in labels:
                cname = f"A_gallery[{other}]"
                if cname in design.column_names:
                    x[design.column_names.index(cname)] = 1.0 if other == label else 0.0
            pred = float(x @ group_fit.beta)
            rows.append((label, t_val, pred))
    write_table(ctx.outdir / f"trajectories_{name}.csv",
                ["age_group", "T_months", "predicted"], rows)
    ctx.record_output(ctx.outdir / f"trajectories_{name}.csv")


def cmd_apc(ctx: RunContext) -> None:
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    genuine = _load_pairs(ctx, captures, "genuine")
    spec = _model_spec(ctx, genuine)
    report = compare_apc(genuine, spec)
    rows = []
    lines = ["APC parameterization comparison (loglik/AIC from ML refits)"]
    for e in report.entries:
        rows.append((e.mode, e.n_obs, e.loglik_ml, e.aic_ml, e.delta_aic,
                     e.temporal.name, e.temporal.beta, e.temporal.se, e.temporal.p))
        lines.append(f"{e.mode}: n={e.n_obs} loglik={e.loglik_ml:.2f} "
                     f"AIC={e.aic_ml:.2f} dAIC={e.delta_aic:.2f} "
                     f"temporal {e.temporal.name}: beta={e.temporal.beta:.6g} "
                     f"(se {e.temporal.se:.3g}, p={e.temporal.p:.3g})")
        for c in e.age:
            lines.append(f"    age {c.name}: beta={c.beta:.6g} (se {c.se:.3g}, p={c.p:.3g})")
    write_table(ctx.outdir / "apc_models.csv",
                ["mode", "n_obs", "loglik_ml", "aic_ml", "delta_aic",
                 "temporal_term", "temporal_beta", "temporal_se", "temporal_p"], rows)
    ctx.record_output(ctx.outdir / "apc_models.csv")
    lines.append("overidentified three-variable diagnostic (do not interpret "
                 "coefficients; VIFs shown):")
    for nm, v in sorted(report.overidentified.vifs.items()):
        lines.append(f"    VIF[{nm}] = {v:.4g}")
    _write_text(ctx, "apc_report.txt", "\n".join(lines) + "\n")


def cmd_cv(ctx: RunContext) -> None:
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    genuine = _load_pairs(ctx, captures, "genuine")
    spec = _model_spec(ctx, genuine)
    k = _setting(ctx, "cv", "k", 5, int, "an integer >= 2", lambda k: k >= 2)
    seed = _setting(ctx, "cv", "seed", ctx.seed, _u64, "an integer in [0, 2**64)")
    try:
        report = kfold_subject_cv(genuine, spec, k, seed)
    except ValueError as exc:
        raise CliError(EXIT_DATA_INVALID, str(exc))
    write_table(ctx.outdir / "cv_report.csv",
                ["fold", "oos_r2", "rmse", "n_test_subjects", "n_test_rows"],
                [(f.fold, f.oos_r2, f.rmse, f.n_test_subjects, f.n_test_rows)
                 for f in report.per_fold])
    ctx.record_output(ctx.outdir / "cv_report.csv")
    fit = fit_spec(genuine, spec)
    _write_text(ctx, "cv_summary.txt", "\n".join([
        f"k: {report.k}",
        f"mean out-of-sample R2: {report.mean_oos_r2:.4f}",
        f"mean RMSE: {report.mean_rmse:.4f}",
        f"within-sample marginal R2: {marginal_r2(fit):.4f}",
    ]) + "\n")


def _read_csv_rows(path: Path):
    import csv as _csv
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv.DictReader(fh)
        return list(reader)


def cmd_report(ctx: RunContext) -> None:
    made_any = False
    fnmr_files = sorted(glob.glob(str(ctx.outdir / "interval_fnmr_*.csv")))
    if fnmr_files:
        chart = Chart("Longitudinal FNMR by interval", "interval (months)",
                      "FNMR (%)")
        for path in fnmr_files:
            name = Path(path).stem.replace("interval_fnmr_", "")
            rows = _read_csv_rows(Path(path))
            chart.series.append(Series(
                name=name,
                x=[float(r["interval_months"]) for r in rows],
                y=[100.0 * float(r["fnmr"]) for r in rows],
                whisker_low=[100.0 * float(r["ci_low"]) for r in rows],
                whisker_high=[100.0 * float(r["ci_high"]) for r in rows]))
        render(chart, ctx.outdir / "fnmr.svg")
        ctx.record_output(ctx.outdir / "fnmr.svg")
        made_any = True

    det_files = sorted(glob.glob(str(ctx.outdir / "det_*.csv")))
    det_files = [p for p in det_files if not p.endswith("det_summary.csv")]
    if det_files:
        chart = Chart("DET curves", "FMR", "FNMR", log_x=True, log_y=True)
        for path in det_files:
            name = Path(path).stem.replace("det_", "")
            rows = _read_csv_rows(Path(path))
            chart.series.append(Series(
                name=name,
                x=[float(r["fmr"]) for r in rows],
                y=[float(r["fnmr"]) for r in rows],
                markers=False))
        render(chart, ctx.outdir / "det.svg")
        ctx.record_output(ctx.outdir / "det.svg")
        made_any = True

    for path in sorted(glob.glob(str(ctx.outdir / "trajectories_*.csv"))):
        name = Path(path).stem.replace("trajectories_", "")
        rows = _read_csv_rows(Path(path))
        if not rows:
            continue
        chart = Chart(f"Predicted {name} score by enrollment age group",
                      "gap T (months)", "predicted score")
        groups = sorted({r["age_group"] for r in rows})
        for label in groups:
            sel = [r for r in rows if r["age_group"] == label]
            chart.series.append(Series(
                name=f"enrolled {label}",
                x=[float(r["T_months"]) for r in sel],
                y=[float(r["predicted"]) for r in sel], markers=False))
        render(chart, ctx.outdir / f"trajectories_{name}.svg")
        ctx.record_output(ctx.outdir / f"trajectories_{name}.svg")
        made_any = True

    if not made_any:
        raise CliError(EXIT_MISSING_INPUT,
                       "no report inputs found (run fnmr/det/lmm first)")


_COMMANDS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "pairs": cmd_pairs,
    "calibrate": cmd_calibrate,
    "fnmr": cmd_fnmr,
    "det": cmd_det,
    "failures": cmd_failures,
    "fuse": cmd_fuse,
    "lmm": cmd_lmm,
    "apc": cmd_apc,
    "cv": cmd_cv,
    "report": cmd_report,
}

_HELP = {
    "synth": "generate a synthetic capture/score dataset from known ground truth",
    "ingest": "ingest and validate a capture table",
    "pairs": "build genuine/impostor pairs and join matcher scores",
    "calibrate": "sweep thresholds to hit a target FMR",
    "fnmr": "interval FNMR with Wilson / rule-of-three confidence bounds",
    "det": "DET curve, EER and AUC per matcher",
    "failures": "categorize genuine failures and their quality correlates",
    "fuse": "AND-rule fusion error rates and agreement breakdown",
    "lmm": "fit the longitudinal mixed model and age-group companion",
    "apc": "compare the three age-period-cohort parameterizations",
    "cv": "subject-level k-fold cross-validation",
    "report": "render SVG figures from previously written tables",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longmatch",
        description="Longitudinal permanence analysis for biometric match scores.",
        epilog="Exit codes: 0 ok, 2 usage, 3 config-invalid, 4 missing-input, "
               "5 data-invalid, 6 calibration-infeasible, 7 model-error.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", required=True,
                       help="path to the JSON run config")
        p.add_argument("--out", default=None,
                       help="output directory (overrides config 'out')")
        p.add_argument("--seed", type=_seed_arg, default=None,
                       help="unsigned 64-bit master seed (overrides config 'seed')")
        p.set_defaults(handler=handler)
    return parser


def _write_manifest(ctx: RunContext, command: str) -> None:
    manifest = {
        "command": command,
        "config": str(ctx.config_path),
        "config_sha256": _sha256(ctx.config_path),
        "seed": ctx.seed,
        "versions": {
            "longmatch": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "inputs": dict(sorted(ctx.inputs.items())),
        "outputs": dict(sorted(ctx.outputs.items())),
    }
    path = ctx.outdir / f"manifest_{command}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, config_path = _load_config(args.config)
        outdir = Path(args.out) if args.out else Path(config.get("out", "."))
        outdir.mkdir(parents=True, exist_ok=True)
        if args.seed is not None:
            seed = args.seed
        else:
            try:
                seed = _u64(config.get("seed", 0))
            except ValueError as exc:
                raise CliError(EXIT_CONFIG_INVALID, f"config {exc}")
        ctx = RunContext(config=config, config_path=config_path, outdir=outdir,
                         seed=seed, inputs={}, outputs={})
        args.handler(ctx)
        _write_manifest(ctx, args.command)
    except CliError as exc:
        print(f"error code={_CODE_NAMES[exc.exit_code]}: {exc}", file=sys.stderr)
        return exc.exit_code
    except CalibrationInfeasibleError as exc:
        print(f"error code=calibration-infeasible: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION_INFEASIBLE
    except (IngestError, DataError) as exc:
        print(f"error code=data-invalid: {exc}", file=sys.stderr)
        return EXIT_DATA_INVALID
    except ModelError as exc:
        print(f"error code=model-error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR
    except FileNotFoundError as exc:
        print(f"error code=missing-input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    print(f"ok: {args.command} -> {ctx.outdir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
