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
import csv
import functools
import glob
import hashlib
import json
import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .core import ComparisonTable, DataError, MatcherProfile
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
    DEFAULT_COVARIATES, CovariateSpec, DistSpec, MatcherSim, SynthConfig, SynthConfigError,
    generate_longitudinal,
)
from .tableio import (
    IngestError, ingest_captures, ingest_scores, open_text, read_pairs,
    write_captures, write_pairs, write_scores, write_table,
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
        p = Path(_setting(self, name, default, TEXT))
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


def _seed_arg(text: str) -> int:
    """argparse type of --seed."""
    if not (text.isdecimal() and int(text) < 2**64):
        raise argparse.ArgumentTypeError(
            f"seed must be an integer in [0, 2**64), got {text!r}")
    return int(text)


def _read_json(path: Path):
    with open_text(path, functools.partial(CliError, EXIT_CONFIG_INVALID)) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:   # also an integer past int()'s digit limit
        raise CliError(EXIT_CONFIG_INVALID, f"{path} is not valid JSON: {exc}")


# ---------------------------------------------------------------------------
# config reading: every config value passes through _setting and one of these
# strict converters, each a function (value, label) -> value that exits 3
# naming `label` when the JSON value has the wrong type

def _kind(requirement: str, accepts, convert=None):
    def parse(value, label: str):
        if not accepts(value):
            raise CliError(EXIT_CONFIG_INVALID,
                           f"{label} must be {requirement}, got {value!r}")
        return value if convert is None else convert(value)
    return parse


INTEGER = _kind("an integer", lambda v: type(v) is int)
NUMBER = _kind("a finite number",   # NaN fails the comparison; a huge int is exact
               lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, float)
TEXT = _kind("a non-empty string", lambda v: type(v) is str and v != "")
BOOL = _kind("true or false", lambda v: type(v) is bool)
SEED = _kind("an integer in [0, 2**64)", lambda v: type(v) is int and 0 <= v < 2**64)
OBJECT = _kind("a JSON object", lambda v: type(v) is dict)
LIST = _kind("a list", lambda v: type(v) is list)


def _list_of(kind):
    return lambda value, label: tuple(
        kind(v, f"{label}[{i}]") for i, v in enumerate(LIST(value, label)))


def _map_of(kind):
    return lambda value, label: {
        k: kind(v, f"{label}[{k!r}]") for k, v in OBJECT(value, label).items()}


REQUIRED = object()   # the default of a key that must be present
_ABSENT = object()


def _setting(ctx: RunContext, path: str, default, kind, ok=None):
    """Config value at `path` (keys and list indexes, "synth.matchers[0].sigma2")
    through the strict converter `kind`, or `default` when absent.

    Exits 3 naming the path when a container on the way is not an object or
    list, a REQUIRED value is absent, `kind` rejects the value, or it fails
    `ok`, a (requirement, predicate) pair. The only reader of ctx.config.
    """
    value = ctx.config
    for step in re.finditer(r"\[(\d+)\]|[^.\[]+", path):
        where = f"config {path[:step.start()].rstrip('.')}"
        if step[1] is None:
            value = OBJECT(value, where).get(step[0], _ABSENT)
        else:
            value = LIST(value, where)[int(step[1])]
        if value is _ABSENT:
            if default is REQUIRED:
                raise CliError(EXIT_CONFIG_INVALID, f"config {path} is required")
            return default
    parsed = kind(value, f"config {path}")
    if ok is not None and not ok[1](parsed):
        raise CliError(EXIT_CONFIG_INVALID, f"config {path} must be {ok[0]}, got {value!r}")
    return parsed


def _build(ctx: RunContext, path: str, cls, given=None, **fields):
    """`cls(**given, **fields)`, each of `fields` a (default, kind) pair read
    at config `path.<field>`; exit 3 naming `path` when cls rejects them."""
    values = {name: _setting(ctx, f"{path}.{name}", default, kind)
              for name, (default, kind) in fields.items()}
    try:
        return cls(**(given or {}), **values)
    except ValueError as exc:
        raise CliError(EXIT_CONFIG_INVALID, f"config {path}: {exc}")


def _profiles(ctx: RunContext) -> list[MatcherProfile]:
    n = len(_setting(ctx, "matchers", REQUIRED, LIST, ("a non-empty list", len)))
    return [_build(ctx, f"matchers[{i}]", MatcherProfile, name=(REQUIRED, TEXT),
                   orientation=(REQUIRED, TEXT), score_min=(REQUIRED, NUMBER),
                   score_max=(REQUIRED, NUMBER), default_threshold=(REQUIRED, NUMBER))
            for i in range(n)]


def _profile_by_name(profiles, name) -> MatcherProfile:
    for p in profiles:
        if p.name == name:
            return p
    raise CliError(EXIT_CONFIG_INVALID, f"matcher {name!r} is not declared in config")


def _pairing_config(ctx: RunContext) -> PairingConfig:
    return _build(ctx, "pairing", PairingConfig, max_impostor_probes=(10, INTEGER),
                  base_seed=(ctx.seed, SEED))


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


def _thresholds(ctx: RunContext, profiles) -> dict[str, float]:
    """One finite threshold per profile: config 'thresholds', then
    thresholds.json from `calibrate`, then each profile's default."""
    conf = _setting(ctx, "thresholds", {}, _map_of(NUMBER))
    source = "config thresholds"
    if not conf:
        artifact = ctx.outdir / "thresholds.json"
        if not artifact.exists():
            return {p.name: p.default_threshold for p in profiles}
        ctx.record_input(artifact)
        source = str(artifact)
        conf = _map_of(NUMBER)(_read_json(artifact), source)
    for p in profiles:
        if p.name not in conf:
            raise CliError(EXIT_CONFIG_INVALID,
                           f"{source} has no threshold for matcher {p.name!r}")
    return {p.name: conf[p.name] for p in profiles}


def _model_spec(ctx: RunContext, table: ComparisonTable) -> ModelSpec:
    """The config's model, every column of which `table` must have."""
    outcome = _setting(ctx, "model.outcome", REQUIRED, TEXT)
    columns = _setting(ctx, "model.quality_terms", ("Q_gallery", "Q_probe", "U_gallery",
                       "U_probe", "C_gallery", "C_probe", "DC"), _list_of(TEXT))
    pairs = _setting(ctx, "model.interactions", (), _list_of(_list_of(TEXT)),
                     ("a list of [column, column] pairs", lambda ps: all(len(p) == 2 for p in ps)))
    named = [("outcome", outcome)] + [("quality_terms", c) for c in columns] + [
        ("interactions", c) for pair in pairs for c in pair]
    for key, name in named:
        try:
            table.column(name)
        except KeyError:
            raise CliError(EXIT_CONFIG_INVALID,
                           f"config model.{key} names unknown column {name!r}")
    terms = tuple(Continuous(c) for c in columns)
    terms += tuple(Interaction(a, b) for a, b in pairs)
    return _build(ctx, "model", ModelSpec, {"outcome": outcome, "fixed_terms": terms},
                  apc_mode=("gallery_age_plus_t", TEXT),
                  random_structure=("intercept_slope", TEXT),
                  standardize_outcome=(False, BOOL))


def _write_text(ctx: RunContext, name: str, text: str) -> None:
    path = ctx.outdir / name
    path.write_text(text, encoding="utf-8")
    ctx.record_output(path)


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(ctx: RunContext) -> None:
    """Generate a synthetic capture/score dataset from known ground truth."""
    def matcher(at):
        impostor = _build(ctx, f"{at}.impostor", DistSpec, family=(REQUIRED, TEXT),
                          loc=(REQUIRED, NUMBER), scale=(REQUIRED, NUMBER))
        return _build(ctx, at, MatcherSim, {"impostor": impostor}, name=(REQUIRED, TEXT),
                      orientation=("higher", TEXT), beta=(REQUIRED, _map_of(NUMBER)),
                      Sigma=(REQUIRED, _list_of(_list_of(NUMBER))), sigma2=(REQUIRED, NUMBER))

    n_matchers = len(_setting(ctx, "synth.matchers", (), LIST))
    named = _setting(ctx, "synth.covariates", {}, OBJECT,
                     (f"an object keyed by some of {sorted(DEFAULT_COVARIATES)}",
                      lambda c: set(c) <= set(DEFAULT_COVARIATES)))
    covariates = {name: _build(ctx, f"synth.covariates.{name}", CovariateSpec,
                               mean=(REQUIRED, NUMBER), sd=(REQUIRED, NUMBER),
                               low=(REQUIRED, NUMBER), high=(REQUIRED, NUMBER),
                               between_sd=(0.0, NUMBER)) for name in named}
    cfg = _build(ctx, "synth", SynthConfig, {
        "covariates": {**DEFAULT_COVARIATES, **covariates},
        "matchers": tuple(matcher(f"synth.matchers[{i}]") for i in range(n_matchers))
        or SynthConfig.matchers,
        "pairing": _pairing_config(ctx), "seed": ctx.seed},
        n_subjects=(100, INTEGER), enrollment_age_low=(4, INTEGER),
        enrollment_age_high=(12, INTEGER),
        session_schedule=(SynthConfig.session_schedule, _list_of(INTEGER)),
        images_per_eye_per_session=(2, INTEGER), attrition_rate=(0.134, NUMBER),
        include_impostors=(True, BOOL))

    try:
        result = generate_longitudinal(cfg)
    except SynthConfigError as exc:   # covariate bounds found infeasible while drawing
        raise CliError(EXIT_CONFIG_INVALID, f"config synth: {exc}")
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
    """Ingest and validate a capture table."""
    result = _load_captures(ctx)
    write_table(ctx.outdir / "ingest_rejections.csv",
                ["row_number", "reason", "detail"],
                [(r.row_number, r.reason, r.detail) for r in result.rejections])
    ctx.record_output(ctx.outdir / "ingest_rejections.csv")
    n_rows = result.n_accepted + result.n_rejected
    lines = [f"accepted rows: {result.n_accepted}",
             f"rejected rows: {result.n_rejected}",
             f"validation findings: {result.n_rejected}",
             f"flagged fraction: {result.n_rejected / n_rows if n_rows else 0.0:.4%}"]
    for reason, count in sorted(Counter(r.reason for r in result.rejections).items()):
        lines.append(f"  {reason}: {count}")
    _write_text(ctx, "ingest_summary.txt", "\n".join(lines) + "\n")


def cmd_pairs(ctx: RunContext) -> None:
    """Build genuine/impostor pairs and join matcher scores."""
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
    """Sweep thresholds to hit a target FMR."""
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    genuine = _load_pairs(ctx, captures, "genuine", profiles)
    impostor = _load_pairs(ctx, captures, "impostor", profiles)
    target = _setting(ctx, "calibration.target_fmr", 0.001, NUMBER,
                      ("in [0, 1]", lambda t: 0.0 <= t <= 1.0))
    names = _setting(ctx, "calibration.matchers", (), _list_of(TEXT)) or [
        p.name for p in profiles]

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
    """Interval FNMR with Wilson / rule-of-three confidence bounds."""
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    genuine = _load_pairs(ctx, captures, "genuine", profiles)
    thresholds = _thresholds(ctx, profiles)
    bin_width = _setting(ctx, "fnmr.bin_width_months", 6, INTEGER, (">= 1", lambda b: b >= 1))
    confidence = _setting(ctx, "fnmr.confidence", 0.95, NUMBER,
                          ("in (0, 1)", lambda c: 0.0 < c < 1.0))

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
    """DET curve, EER and AUC per matcher."""
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
    names = (_setting(ctx, "fusion.matcher_a", None, TEXT),
             _setting(ctx, "fusion.matcher_b", None, TEXT))
    if None in names:
        if len(profiles) < 2:
            raise CliError(EXIT_CONFIG_INVALID,
                           "fusion/failure analysis needs two matchers (config 'fusion')")
        names = (profiles[0].name, profiles[1].name)
    return _profile_by_name(profiles, names[0]), _profile_by_name(profiles, names[1])


def cmd_failures(ctx: RunContext) -> None:
    """Categorize genuine failures and their quality correlates."""
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    genuine = _load_pairs(ctx, captures, "genuine", profiles)
    thresholds = _thresholds(ctx, profiles)
    pa, pb = _two_matchers(ctx, profiles)
    cut = _setting(ctx, "fusion.min_quality_cut", 45.0, NUMBER)
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
    """AND-rule fusion error rates and agreement breakdown."""
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
    """Fit the longitudinal mixed model and age-group companion."""
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    genuine_all = _load_pairs(ctx, captures, "genuine")
    spec = _model_spec(ctx, genuine_all)
    eyes = _setting(ctx, "model.eyes", ("pooled",), _list_of(TEXT),
                    ("a list of 'L', 'R' or 'pooled'", lambda e: set(e) <= {"L", "R", "pooled"}))
    bins = _setting(ctx, "model.age_groups", AgeGroups.bins, _list_of(_list_of(INTEGER)))
    age_term = _build(ctx, "model.age_groups", AgeGroups, {"column": "A_gallery", "bins": bins})
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
    """Compare the three age-period-cohort parameterizations."""
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
    """Subject-level k-fold cross-validation."""
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    genuine = _load_pairs(ctx, captures, "genuine")
    spec = _model_spec(ctx, genuine)
    k = _setting(ctx, "cv.k", 5, INTEGER, (">= 2", lambda k: k >= 2))
    seed = _setting(ctx, "cv.seed", ctx.seed, SEED)
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


def _report_rows(ctx: RunContext, path: str, numeric: tuple[str, ...]) -> list[dict]:
    """Rows of an earlier subcommand's table, recorded as an input, with the
    `numeric` columns as floats."""
    rows = []
    with open_text(ctx.record_input(Path(path))) as fh:
        for row_number, row in enumerate(csv.DictReader(fh), start=1):
            try:
                rows.append({**row, **{c: float(row[c]) for c in numeric}})
            except (KeyError, TypeError, ValueError) as exc:
                raise IngestError(
                    f"{path}: bad or missing cell at data row {row_number}: {exc}")
    return rows


def cmd_report(ctx: RunContext) -> None:
    """Render SVG figures from previously written tables."""
    charts = {}
    fnmr_files = sorted(glob.glob(str(ctx.outdir / "interval_fnmr_*.csv")))
    if fnmr_files:
        chart = charts["fnmr.svg"] = Chart("Longitudinal FNMR by interval",
                                           "interval (months)", "FNMR (%)")
        for path in fnmr_files:
            rows = _report_rows(ctx, path, ("interval_months", "fnmr", "ci_low", "ci_high"))
            chart.series.append(Series(
                name=Path(path).stem.replace("interval_fnmr_", ""),
                x=[r["interval_months"] for r in rows],
                y=[100.0 * r["fnmr"] for r in rows],
                whisker_low=[100.0 * r["ci_low"] for r in rows],
                whisker_high=[100.0 * r["ci_high"] for r in rows]))

    det_files = sorted(glob.glob(str(ctx.outdir / "det_*.csv")))
    det_files = [p for p in det_files if not p.endswith("det_summary.csv")]
    if det_files:
        chart = charts["det.svg"] = Chart("DET curves", "FMR", "FNMR", log_x=True, log_y=True)
        for path in det_files:
            rows = _report_rows(ctx, path, ("fmr", "fnmr"))
            chart.series.append(Series(
                name=Path(path).stem.replace("det_", ""), x=[r["fmr"] for r in rows],
                y=[r["fnmr"] for r in rows], markers=False))

    for path in sorted(glob.glob(str(ctx.outdir / "trajectories_*.csv"))):
        name = Path(path).stem.replace("trajectories_", "")
        rows = _report_rows(ctx, path, ("T_months", "predicted"))
        if not rows:
            continue
        chart = charts[f"trajectories_{name}.svg"] = Chart(
            f"Predicted {name} score by enrollment age group", "gap T (months)",
            "predicted score")
        for label in sorted({r["age_group"] for r in rows}):
            sel = [r for r in rows if r["age_group"] == label]
            chart.series.append(Series(
                name=f"enrolled {label}",
                x=[r["T_months"] for r in sel], y=[r["predicted"] for r in sel],
                markers=False))

    if not charts:
        raise CliError(EXIT_MISSING_INPUT,
                       "no report inputs found (run fnmr/det/lmm first)")
    for name, chart in charts.items():
        render(chart, ctx.outdir / name)
        ctx.record_output(ctx.outdir / name)


_COMMANDS = {name: globals()[f"cmd_{name}"] for name in (
    "synth", "ingest", "pairs", "calibrate", "fnmr", "det", "failures", "fuse", "lmm",
    "apc", "cv", "report")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longmatch",
        description="Longitudinal permanence analysis for biometric match scores.",
        epilog="Exit codes: 0 ok, 2 usage, 3 config-invalid, 4 missing-input, "
               "5 data-invalid, 6 calibration-infeasible, 7 model-error.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
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
        config_path = Path(args.config)
        ctx = RunContext(config=OBJECT(_read_json(config_path), f"config {config_path}"),
                         config_path=config_path, outdir=None, seed=args.seed,
                         inputs={}, outputs={})
        ctx.outdir = Path(args.out or _setting(ctx, "out", ".", TEXT))
        if ctx.seed is None:
            ctx.seed = _setting(ctx, "seed", 0, SEED)
        ctx.outdir.mkdir(parents=True, exist_ok=True)
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
    except OSError as exc:   # a path that is absent, a directory, unreadable, ...
        print(f"error code=missing-input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    print(f"ok: {args.command} -> {ctx.outdir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
