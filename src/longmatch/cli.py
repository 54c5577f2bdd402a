"""Command-line pipeline: ingestion -> pairing -> metrics -> models -> reports.

Every subcommand reads one declarative JSON config (documented in the
README), writes machine-readable tables plus a human-readable summary into
the output directory, and records a run manifest (inputs, seed, versions,
checksums). Nothing written contains timestamps, so identical config + seed
reproduces a byte-identical output tree.

Exit codes: 0 success, 2 usage error (unknown flag / missing argument; raised
by argparse), 3 config-invalid, 4 missing-input, 5 data-invalid,
6 calibration-infeasible, 7 model-error. Errors print one machine-parsable
line to stderr: "error code=<name>: <msg>".
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path

# one OpenBLAS thread: the CLI hands BLAS nothing wider than n x 12, where a
# second thread only burns CPU, and outputs then do not depend on the core
# count. The pool is sized when numpy loads, so an explicit setting, or a
# numpy the importer loaded first, is left alone.
if "OPENBLAS_NUM_THREADS" not in os.environ and "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
# only what every subcommand shares: each subcommand runs in its own process,
# and each cmd_* (or helper) imports the layer modules it calls in its body
from .core import (
    MODEL_COLUMNS, QUALITY_TERMS, CalibrationInfeasibleError, ComparisonTable, DataError,
    MatcherProfile, ModelError, ScoreRangeError,
)
from .tableio import (
    IngestError, ingest_captures, ingest_scores, open_text, read_pairs, read_table,
    write_captures, write_pairs, write_scores, write_table,
)

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
# the exit code of each error main reports, the first match applying; a
# CliError carries its own
_EXIT_CODES = {CalibrationInfeasibleError: EXIT_CALIBRATION_INFEASIBLE,
               IngestError: EXIT_DATA_INVALID, DataError: EXIT_DATA_INVALID,
               ModelError: EXIT_MODEL_ERROR,
               OSError: EXIT_MISSING_INPUT}   # a path absent, a directory, unreadable, ...


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
    captures: Path
    scores: Path
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def section(self, name: str, kind):
        """Top-level config section `name` through `kind`; absent, it reads as {}."""
        return kind(self.config.get(name, {}), _child("config", name))

    def _key(self, path: Path) -> str:
        """The manifest key of `path`: relative to `outdir` when inside it."""
        return str(path.relative_to(self.outdir) if path.is_relative_to(self.outdir) else path)

    def record_input(self, path: Path) -> Path:
        self.inputs[self._key(path)] = _sha256(path)
        return path

    def record_output(self, path: Path) -> Path:
        self.outputs[self._key(path)] = _sha256(path)
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
# config reading: each JSON object is read in one place, by an `_object` kind;
# a kind is a strict converter (value, label) -> value that exits 3 naming
# `label` when the JSON value is REQUIRED (absent) or of the wrong type

REQUIRED = object()   # the default of a key that must be present
UNSET = object()      # the default of a key whose dataclass field or parameter default applies


def _kind(requirement: str, accepts, convert=None):
    def parse(value, label: str):
        if value is REQUIRED:
            raise CliError(EXIT_CONFIG_INVALID, f"{label} is required")
        if not accepts(value):
            raise CliError(EXIT_CONFIG_INVALID,
                           f"{label} must be {requirement}, got {value!r}")
        return value if convert is None else convert(value)
    return parse


INTEGER = _kind("an integer in [-2**63, 2**63)",   # what numpy's int64 holds
                lambda v: type(v) is int and -2**63 <= v < 2**63)
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


def _child(label: str, key: str) -> str:
    """The label of `key` in the object labelled `label` ("config" at the top)."""
    return f"config {key}" if label == "config" else f"{label}.{key}"


def _refuse_unknown(obj: dict, label: str, known) -> None:
    """Exit 3 naming the first key of `obj` that is not in `known`."""
    unknown = [key for key in obj if key not in known]
    if unknown:
        import difflib   # only on refusal
        close = difflib.get_close_matches(unknown[0], known, n=1)
        hint = f"did you mean {close[0]!r}?" if close else f"known keys: {', '.join(known)}"
        raise CliError(EXIT_CONFIG_INVALID,
                       f"{_child(label, unknown[0])} is not a known key ({hint})")


def _map_of(kind, keys=None):
    """A free-keyed object of `kind` values; with `keys`, only those keys."""
    def parse(value, label: str):
        obj = OBJECT(value, label)
        if keys is not None:
            _refuse_unknown(obj, label, keys)
        return {k: kind(v, f"{label}[{k!r}]") for k, v in obj.items()}
    return parse


def _object(keys: dict, build=None, taken=()):
    """The kind of a JSON object whose keys are `keys`, each name -> (default,
    kind[, (requirement, predicate)]), plus `taken`, which another reader
    reads. It returns {name: parsed value}, without an UNSET one, or
    `build(**values)`. An absent key takes its default, parsed like a given
    value. Exits 3 naming the path for a key outside `keys` and `taken`, a
    value `kind` refuses or that fails the predicate, and a ValueError of a
    kind or of `build`.
    """
    def parse(value, label: str):
        obj = OBJECT(value, label)
        _refuse_unknown(obj, label, [*keys, *taken])
        values = {}
        try:
            for key, (default, kind, *rule) in keys.items():
                at = _child(label, key)
                raw = obj.get(key, default)
                parsed = UNSET if raw is UNSET else kind(raw, at)
                if parsed is UNSET:
                    continue
                if rule and not rule[0][1](parsed):
                    raise CliError(EXIT_CONFIG_INVALID, f"{at} must be {rule[0][0]}, got {raw!r}")
                values[key] = parsed
            at = label
            return values if build is None else build(**values)
        except ValueError as exc:   # a dataclass refusing its fields
            raise CliError(EXIT_CONFIG_INVALID, f"{at}: {exc}")
    return parse


# the top level: main reads these keys, and the subcommands each section
TOP_LEVEL = {"seed": (0, SEED), "out": (".", TEXT), "captures": ("captures.csv", TEXT),
             "scores": ("scores.csv", TEXT)}
SECTIONS = ("matchers", "pairing", "thresholds", "calibration", "fnmr", "fusion", "model",
            "cv", "synth")


_MATCHERS = _list_of(_object(
    {"name": (REQUIRED, TEXT), "orientation": (REQUIRED, TEXT), "score_min": (REQUIRED, NUMBER),
     "score_max": (REQUIRED, NUMBER), "default_threshold": (REQUIRED, NUMBER)}, MatcherProfile))


def _profiles(ctx: RunContext) -> list[MatcherProfile]:
    profiles = _MATCHERS(ctx.config.get("matchers", REQUIRED), "config matchers")
    if not profiles:
        raise CliError(EXIT_CONFIG_INVALID, "config matchers must be a non-empty list, got []")
    return list(profiles)


def _profile_by_name(profiles, name) -> MatcherProfile:
    for p in profiles:
        if p.name == name:
            return p
    raise CliError(EXIT_CONFIG_INVALID, f"matcher {name!r} is not declared in config")


def _pairing_config(ctx: RunContext):
    from .pairing import PairingConfig
    return ctx.section("pairing", _object(
        {"max_impostor_probes": (UNSET, INTEGER), "base_seed": (ctx.seed, SEED)}, PairingConfig))


def _load_captures(ctx: RunContext):
    if not ctx.captures.exists():
        raise CliError(EXIT_MISSING_INPUT, f"capture table {ctx.captures} does not exist")
    return ingest_captures(ctx.record_input(ctx.captures))


def _load_pairs(ctx: RunContext, kind: str, profiles, columns) -> ComparisonTable:
    """The `kind` ("genuine" or "impostor") pair table written by `pairs`,
    holding the `columns` a subcommand uses (as `read_pairs` takes them)
    and a score column for each of `profiles`, each score within its
    profile's range (the rule `attach_scores` applies when it writes them).
    The capture table is ingested only if `read_pairs` joins it."""
    path = ctx.outdir / f"pairs_{kind}.csv"
    if not path.exists():
        raise CliError(EXIT_MISSING_INPUT,
                       f"{path} does not exist (run the pairs subcommand first)")
    ctx.record_input(path)
    columns = (*columns, *(f"score_{p.name}" for p in profiles))
    table = read_pairs(path, kind, lambda: _load_captures(ctx).table, columns)
    for p in profiles:
        scores = table.scores[p.name]
        outside = np.flatnonzero(p.out_of_range(scores))
        if outside.size:
            row = int(outside[0])
            raise ScoreRangeError(f"{path}: score_{p.name} {float(scores[row])!r} at data row "
                                  f"{row + 1} outside matcher {p.name!r} range "
                                  f"[{p.score_min}, {p.score_max}]")
    return table


def _thresholds(ctx: RunContext, profiles) -> dict[str, float]:
    """One finite threshold per profile: config 'thresholds', then
    thresholds.json from `calibrate`, then each profile's default."""
    conf = ctx.section("thresholds", _map_of(NUMBER, [p.name for p in profiles]))
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


def _model(ctx: RunContext):
    """The genuine pairs and the config's model, as (genuine, ModelSpec,
    eyes, AgeGroups). Every name the model gives must be a MODEL_COLUMNS
    name or a declared matcher; that is checked first, and the pairs are
    then read in lmm.DESIGN_COLUMNS and the columns the model names."""
    from .lmm import DESIGN_COLUMNS, AgeGroups, Continuous, Interaction, ModelSpec
    profiles = _profiles(ctx)
    matchers = {p.name for p in profiles}

    def build(outcome, quality_terms, interactions, eyes, age_groups=None, **options):
        named = [("outcome", outcome)] + [("quality_terms", c) for c in quality_terms] + [
            ("interactions", c) for pair in interactions for c in pair]
        for key, name in named:
            if name not in MODEL_COLUMNS and name not in matchers:
                raise CliError(EXIT_CONFIG_INVALID,
                               f"config model.{key} names unknown column {name!r}")
        terms = (*map(Continuous, quality_terms), *(Interaction(a, b) for a, b in interactions))
        columns = (*DESIGN_COLUMNS, *(MODEL_COLUMNS[n] for _, n in named if n in MODEL_COLUMNS))
        return ModelSpec(outcome, terms, **options), eyes, age_groups or AgeGroups(), columns

    spec, eyes, age_groups, columns = ctx.section("model", _object({
        "outcome": (REQUIRED, TEXT),
        "quality_terms": (list(QUALITY_TERMS), _list_of(TEXT)),
        "interactions": ([], _list_of(_list_of(TEXT)), (
            "a list of [column, column] pairs", lambda ps: all(len(p) == 2 for p in ps))),
        "apc_mode": (UNSET, TEXT), "random_structure": (UNSET, TEXT),
        "standardize_outcome": (UNSET, BOOL),
        "eyes": (["pooled"], _list_of(TEXT), ("a non-empty list of 'L', 'R' or 'pooled'",
                                              lambda e: e and set(e) <= {"L", "R", "pooled"})),
        "age_groups": (UNSET, lambda v, at: AgeGroups(_list_of(_list_of(INTEGER))(v, at)))},
        build))
    return _load_pairs(ctx, "genuine", profiles, columns), spec, eyes, age_groups


def _write_text(ctx: RunContext, name: str, text: str) -> None:
    path = ctx.outdir / name
    path.write_text(text, encoding="utf-8")
    ctx.record_output(path)


def _write_table(ctx: RunContext, name: str, header: list[str], columns) -> None:
    path = ctx.outdir / name
    write_table(path, header, columns)
    ctx.record_output(path)


def _fields(records, names) -> list[list]:
    """One column per attribute name of `records`; a dotted name reaches a
    nested attribute."""
    return [list(map(attrgetter(name), records)) for name in names]


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(ctx: RunContext) -> None:
    """Generate a synthetic capture/score dataset from known ground truth."""
    from .synth import (
        DEFAULT_COVARIATES, CovariateSpec, DistSpec, MatcherSim, SynthConfig,
        SynthConfigError, generate_longitudinal,
    )

    impostor = _object({"family": (REQUIRED, TEXT), "loc": (REQUIRED, NUMBER),
                        "scale": (REQUIRED, NUMBER)}, DistSpec)
    matchers = _list_of(_object(
        {"impostor": (REQUIRED, impostor), "name": (REQUIRED, TEXT), "orientation": (UNSET, TEXT),
         "beta": (REQUIRED, _map_of(NUMBER)), "Sigma": (REQUIRED, _list_of(_list_of(NUMBER))),
         "sigma2": (REQUIRED, NUMBER)}, MatcherSim))
    covariate = _object({"mean": (REQUIRED, NUMBER), "sd": (REQUIRED, NUMBER),
                         "low": (REQUIRED, NUMBER), "high": (REQUIRED, NUMBER),
                         "between_sd": (UNSET, NUMBER)}, CovariateSpec)
    cfg = ctx.section("synth", _object({
        **dict.fromkeys(("n_subjects", "enrollment_age_low", "enrollment_age_high",
                         "images_per_eye_per_session"), (UNSET, INTEGER)),
        "session_schedule": (UNSET, _list_of(INTEGER)), "attrition_rate": (UNSET, NUMBER),
        "include_impostors": (UNSET, BOOL),
        # each given covariate replaces its default
        "covariates": (UNSET, _object(dict.fromkeys(DEFAULT_COVARIATES, (UNSET, covariate)),
                                      lambda **given: {**DEFAULT_COVARIATES, **given})),
        # no matcher block means the default matcher
        "matchers": (UNSET, lambda v, at: matchers(v, at) or UNSET)},
        functools.partial(SynthConfig, pairing=_pairing_config(ctx), seed=ctx.seed)))

    try:
        result = generate_longitudinal(cfg)
    except SynthConfigError as exc:   # covariate bounds found infeasible while drawing
        raise CliError(EXIT_CONFIG_INVALID, f"config synth: {exc}")
    write_captures(result.captures, ctx.captures)
    write_scores(result.scores, ctx.scores)
    ctx.record_output(ctx.captures)
    ctx.record_output(ctx.scores)
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
    header = ["row_number", "reason", "detail"]
    _write_table(ctx, "ingest_rejections.csv", header, _fields(result.rejections, header))
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
    from .pairing import attach_scores, generate_genuine_pairs, generate_impostor_pairs
    profiles = _profiles(ctx)
    captures = _load_captures(ctx).table
    if not ctx.scores.exists():
        raise CliError(EXIT_MISSING_INPUT, f"score table {ctx.scores} does not exist")
    scores = ingest_scores(ctx.record_input(ctx.scores))

    genuine = generate_genuine_pairs(captures)
    impostor = generate_impostor_pairs(captures, _pairing_config(ctx))
    attached_g = attach_scores(genuine, scores, profiles)
    attached_i = attach_scores(impostor, scores, profiles)

    for kind, attached in (("genuine", attached_g), ("impostor", attached_i)):
        write_pairs(attached.table, ctx.outdir / f"pairs_{kind}.csv")
        ctx.record_output(ctx.outdir / f"pairs_{kind}.csv")
    incomplete = list(attached_g.incomplete) + list(attached_i.incomplete)
    _write_table(ctx, "pairs_incomplete.csv",
                 ["gallery_image_id", "probe_image_id", "missing_matchers"],
                 [[p.gallery_image_id for p in incomplete],
                  [p.probe_image_id for p in incomplete],
                  [";".join(p.missing_matchers) for p in incomplete]])
    _write_text(ctx, "pairs_summary.txt", "\n".join([
        f"genuine pairs: {len(attached_g.table)}",
        f"impostor pairs: {len(attached_i.table)}",
        f"incomplete pairs: {len(incomplete)}",
    ]) + "\n")


def cmd_calibrate(ctx: RunContext) -> None:
    """Sweep thresholds to hit a target FMR."""
    from .metrics import calibrate_threshold
    profiles = _profiles(ctx)
    genuine = _load_pairs(ctx, "genuine", profiles, ())
    impostor = _load_pairs(ctx, "impostor", profiles, ())
    calibration = ctx.section("calibration", _object(
        {"target_fmr": (0.001, NUMBER, ("in [0, 1]", lambda t: 0.0 <= t <= 1.0)),
         "matchers": ([], _list_of(TEXT))}))
    target = calibration["target_fmr"]

    thresholds = {}
    lines = [f"target FMR: {target}"]
    for name in calibration["matchers"] or [p.name for p in profiles]:
        profile = _profile_by_name(profiles, name)
        res = calibrate_threshold(genuine, impostor, profile, target)
        thresholds[name] = res.threshold
        lines.append(f"{name}: threshold={res.threshold!r} "
                     f"achieved_fmr={res.achieved_fmr:.6g} "
                     f"achieved_fnmr={res.achieved_fnmr:.6g}")
    _write_text(ctx, "thresholds.json", json.dumps(thresholds, indent=2, sort_keys=True))
    _write_text(ctx, "calibrate_summary.txt", "\n".join(lines) + "\n")


def cmd_fnmr(ctx: RunContext) -> None:
    """Interval FNMR with Wilson / rule-of-three confidence bounds."""
    from .metrics import fnmr_by_interval
    profiles = _profiles(ctx)
    genuine = _load_pairs(ctx, "genuine", profiles, ("gap_T_months",))
    thresholds = _thresholds(ctx, profiles)
    fnmr = ctx.section("fnmr", _object(
        {"bin_width_months": (UNSET, INTEGER, (">= 1", lambda b: b >= 1)),
         "confidence": (UNSET, NUMBER, ("in (0, 1)", lambda c: 0.0 < c < 1.0))}))

    lines = []
    for profile in profiles:
        stats_rows = fnmr_by_interval(genuine, profile, thresholds[profile.name], **fnmr)
        header = ["interval_months", "n_genuine", "n_false_nonmatch", "fnmr",
                  "ci_low", "ci_high", "ci_method"]
        _write_table(ctx, f"interval_fnmr_{profile.name}.csv", header,
                     _fields(stats_rows, header))
        n_genuine = sum(s.n_genuine for s in stats_rows)
        overall = (f"{sum(s.n_false_nonmatch for s in stats_rows) / n_genuine:.4%}"
                   if n_genuine else "undefined")
        lines.append(f"{profile.name}: threshold={thresholds[profile.name]!r} "
                     f"overall FNMR={overall} over {len(stats_rows)} intervals")
    _write_text(ctx, "fnmr_summary.txt", "\n".join(lines) + "\n")


def cmd_det(ctx: RunContext) -> None:
    """DET curve, EER and AUC per matcher."""
    from .metrics import det_curve
    profiles = _profiles(ctx)
    genuine = _load_pairs(ctx, "genuine", profiles, ())
    impostor = _load_pairs(ctx, "impostor", profiles, ())
    curves = []
    lines = []
    for profile in profiles:
        curve = det_curve(genuine, impostor, profile)
        _write_table(ctx, f"det_{profile.name}.csv", ["threshold", "fmr", "fnmr"],
                     [curve.thresholds, curve.fmr, curve.fnmr])
        curves.append(curve)
        lines.append(f"{profile.name}: EER={curve.eer:.4%} AUC={curve.auc:.6f}")
    _write_table(ctx, "det_summary.csv", ["matcher", "eer", "auc"],
                 [[p.name for p in profiles], *_fields(curves, ["eer", "auc"])])
    _write_text(ctx, "det_summary.txt", "\n".join(lines) + "\n")


def _fusion(ctx: RunContext, profiles):
    """The config's fusion: its two profiles (by default the first two) and
    the failure_analysis keywords it gives ({} or {"min_quality_cut": ...})."""
    fusion = ctx.section("fusion", _object({"matcher_a": (UNSET, TEXT),
                                            "matcher_b": (UNSET, TEXT),
                                            "min_quality_cut": (UNSET, NUMBER)}))
    names = (fusion.pop("matcher_a", None), fusion.pop("matcher_b", None))
    if None in names:
        if len(profiles) < 2:
            raise CliError(EXIT_CONFIG_INVALID,
                           "fusion/failure analysis needs two matchers (config 'fusion')")
        names = (profiles[0].name, profiles[1].name)
    return _profile_by_name(profiles, names[0]), _profile_by_name(profiles, names[1]), fusion


def cmd_failures(ctx: RunContext) -> None:
    """Categorize genuine failures and their quality correlates."""
    from .metrics import failure_analysis
    profiles = _profiles(ctx)
    # the quality terms and gallery_subject are joined from the capture table
    genuine = _load_pairs(ctx, "genuine", profiles,
                          ("gap_T_months", *QUALITY_TERMS, "gallery_subject"))
    thresholds = _thresholds(ctx, profiles)
    pa, pb, options = _fusion(ctx, profiles)
    report = failure_analysis(genuine, pa, thresholds[pa.name], pb, thresholds[pb.name], **options)
    _write_table(ctx, "failure_categories.csv",
                 ["category", "n_pairs", "n_subjects", "min_quality_capture_rate",
                  "mean_gap_months"],
                 _fields(report.categories, ["name", "n_pairs", "n_subjects",
                                             "quality_capture_rate", "mean_gap_months"]))

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
    from .metrics import fuse_and_rule
    profiles = _profiles(ctx)
    genuine = _load_pairs(ctx, "genuine", profiles, ())
    impostor = _load_pairs(ctx, "impostor", profiles, ())
    thresholds = _thresholds(ctx, profiles)
    pa, pb, _ = _fusion(ctx, profiles)
    combined = ComparisonTable.concat([genuine, impostor])
    report = fuse_and_rule(combined, pa, thresholds[pa.name], pb, thresholds[pb.name])
    ia, gr = report.impostor_accepts, report.genuine_rejects
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
    genuine_all, spec, eyes, age_term = _model(ctx)
    # eyes are independent biometric instances; fit pooled or per eye
    for eye in eyes:
        if eye == "pooled":
            _fit_and_report(ctx, genuine_all, spec, age_term, suffix="")
        else:
            _fit_and_report(ctx, genuine_all.select(genuine_all.eye == eye),
                            spec, age_term, suffix=f"_{eye}")


def _fit_and_report(ctx: RunContext, genuine, spec, age_term, suffix: str) -> None:
    from .lmm import Continuous, fit_spec, format_fit_report
    from .validation import residual_diagnostics

    fit = fit_spec(genuine, spec)
    name = spec.outcome + suffix
    diag = residual_diagnostics(fit)
    _write_table(ctx, f"qq_{name}.csv", ["sample_quantile"], [diag.sample_quantiles])
    report_text = format_fit_report(fit, f"{name} ~ {spec.apc_mode} + quality")
    report_text += (f"\nShapiro-Wilk W = {diag.shapiro_w:.4f} "
                    f"(n_used={diag.n_used}, subsampled={diag.subsampled})\n")
    _write_text(ctx, f"fit_report_{name}.txt", report_text)
    _write_table(ctx, f"coefficients_{name}.csv", ["predictor", "beta", "se", "z", "p"],
                 [fit.column_names, fit.beta, fit.se, fit.z_stats, fit.p_values])

    # enrollment age-group companion model and predicted trajectories
    group_spec = replace(spec, apc_mode=None, fixed_terms=(Continuous("T"), age_term) + tuple(
        t for t in spec.fixed_terms if isinstance(t, Continuous)))
    header = ["age_group", "T_months", "predicted"]
    try:
        group_fit = fit_spec(genuine, group_spec)
    except ModelError as exc:
        _write_table(ctx, f"trajectories_{name}.csv", header, [[], [], []])
        _write_text(ctx, f"fit_report_{name}_age_groups.txt",
                    f"age-group model not fit: {exc}\n")
        return
    _write_text(ctx, f"fit_report_{name}_age_groups.txt",
                format_fit_report(group_fit, f"{name} ~ T + enrollment age group + quality") + "\n")

    design = group_fit.design
    t_col = design.column_names.index("T")
    t_grid = sorted(set(int(v) for v in design.X[:, t_col].tolist()))
    labels = age_term.labels()
    dummy = {label: design.column_names.index(f"A_gallery[{label}]") for label in labels
             if f"A_gallery[{label}]" in design.column_names}
    x = design.X.mean(axis=0)
    x[0] = 1.0
    groups, months, predicted = [], [], []
    for label in labels:
        for other, column in dummy.items():
            x[column] = float(other == label)
        for t_val in t_grid:
            x[t_col] = t_val
            groups.append(label)
            months.append(t_val)
            predicted.append(float(x @ group_fit.beta))
    _write_table(ctx, f"trajectories_{name}.csv", header, [groups, months, predicted])


def cmd_apc(ctx: RunContext) -> None:
    """Compare the three age-period-cohort parameterizations."""
    from .lmm import compare_apc
    genuine, spec, _, _ = _model(ctx)
    report = compare_apc(genuine, spec)
    lines = ["APC parameterization comparison (loglik/AIC from ML refits)"]
    for e in report.entries:
        lines.append(f"{e.mode}: n={e.n_obs} loglik={e.loglik_ml:.2f} "
                     f"AIC={e.aic_ml:.2f} dAIC={e.delta_aic:.2f} "
                     f"temporal {e.temporal.name}: beta={e.temporal.beta:.6g} "
                     f"(se {e.temporal.se:.3g}, p={e.temporal.p:.3g})")
        for c in e.age:
            lines.append(f"    age {c.name}: beta={c.beta:.6g} (se {c.se:.3g}, p={c.p:.3g})")
    _write_table(ctx, "apc_models.csv",
                 ["mode", "n_obs", "loglik_ml", "aic_ml", "delta_aic",
                  "temporal_term", "temporal_beta", "temporal_se", "temporal_p"],
                 _fields(report.entries, ["mode", "n_obs", "loglik_ml", "aic_ml", "delta_aic",
                                          "temporal.name", "temporal.beta", "temporal.se",
                                          "temporal.p"]))
    lines.append("overidentified three-variable diagnostic (do not interpret "
                 "coefficients; VIFs shown):")
    for nm, v in sorted(report.overidentified.vifs.items()):
        lines.append(f"    VIF[{nm}] = {v:.4g}")
    _write_text(ctx, "apc_report.txt", "\n".join(lines) + "\n")


def cmd_cv(ctx: RunContext) -> None:
    """Subject-level k-fold cross-validation."""
    from .lmm import fit_spec, marginal_r2
    from .validation import kfold_subject_cv
    genuine, spec, _, _ = _model(ctx)
    cv = ctx.section("cv", _object({"k": (5, INTEGER, (">= 2", lambda k: k >= 2)),
                                    "seed": (ctx.seed, SEED)}))
    try:
        report = kfold_subject_cv(genuine, spec, cv["k"], cv["seed"])
    except ValueError as exc:
        raise CliError(EXIT_DATA_INVALID, str(exc))
    header = ["fold", "oos_r2", "rmse", "n_test_subjects", "n_test_rows"]
    _write_table(ctx, "cv_report.csv", header, _fields(report.per_fold, header))
    fit = fit_spec(genuine, spec)
    _write_text(ctx, "cv_summary.txt", "\n".join([
        f"k: {report.k}",
        f"mean out-of-sample R2: {report.mean_oos_r2:.4f}",
        f"mean RMSE: {report.mean_rmse:.4f}",
        f"within-sample marginal R2: {marginal_r2(fit):.4f}",
    ]) + "\n")


def cmd_report(ctx: RunContext) -> None:
    """Render SVG figures from previously written tables."""
    from .svgplot import Chart, Series, render
    charts, largest = {}, {}   # largest: chart title -> (|value|, where) of its largest value

    def plotted(chart, path, text, column, scale=1.0):
        """`scale` times a column; exit 5 at a value that does not plot as a finite number."""
        cells = text.column(column)
        with np.errstate(over="ignore"):
            values = scale * cells
        if values.size:
            row = int(np.abs(values).argmax())   # a NaN first, then an infinity
            top = (abs(values[row]), f"{path}: {column} {cells[row]} at data row {row + 1}")
            if not np.isfinite(top[0]):
                raise CliError(EXIT_DATA_INVALID, f"{top[1]} does not plot as a finite number")
            largest[chart.title] = max(largest.get(chart.title, top), top)
        return values

    fnmr_files = sorted(ctx.outdir.glob("interval_fnmr_*.csv"))
    if fnmr_files:
        chart = charts["fnmr.svg"] = Chart("Longitudinal FNMR by interval",
                                           "interval (months)", "FNMR (%)")
        for path in fnmr_files:
            text = read_table(ctx.record_input(path), dict.fromkeys(
                ("interval_months", "fnmr", "ci_low", "ci_high"), np.float64))
            x, y, low, high = (plotted(chart, path, text, c, scale) for c, scale in (
                ("interval_months", 1.0), ("fnmr", 100.0), ("ci_low", 100.0), ("ci_high", 100.0)))
            chart.series.append(Series(name=path.stem.removeprefix("interval_fnmr_"),
                                       x=x, y=y, whisker_low=low, whisker_high=high))

    det_files = [p for p in sorted(ctx.outdir.glob("det_*.csv")) if p.name != "det_summary.csv"]
    if det_files:
        chart = charts["det.svg"] = Chart("DET curves", "FMR", "FNMR", log_x=True, log_y=True)
        for path in det_files:
            text = read_table(ctx.record_input(path), dict.fromkeys(("fmr", "fnmr"), np.float64))
            chart.series.append(Series(
                name=path.stem.removeprefix("det_"), x=plotted(chart, path, text, "fmr"),
                y=plotted(chart, path, text, "fnmr"), markers=False))

    for path in sorted(ctx.outdir.glob("trajectories_*.csv")):
        name = path.stem.removeprefix("trajectories_")
        text = read_table(ctx.record_input(path), {
            "age_group": object, "T_months": np.float64, "predicted": np.float64})
        if not len(text):
            continue
        chart = charts[f"trajectories_{name}.svg"] = Chart(
            f"Predicted {name} score by enrollment age group", "gap T (months)", "predicted score")
        group = text.column("age_group")
        t_months = plotted(chart, path, text, "T_months")
        predicted = plotted(chart, path, text, "predicted")
        for label in dict.fromkeys(group):   # the table's order, that of model.age_groups
            sel = group == label
            chart.series.append(Series(name=f"enrolled {label}", x=t_months[sel],
                                       y=predicted[sel], markers=False))

    if not charts:
        raise CliError(EXIT_MISSING_INPUT,
                       "no report inputs found (run fnmr/det/lmm first)")
    for name, chart in charts.items():
        try:
            render(chart, ctx.outdir / name)
        except ValueError as exc:   # an axis without a finite span: blame its largest value
            raise CliError(EXIT_DATA_INVALID, f"{largest[chart.title][1]}: {name}: {exc}")
        ctx.record_output(ctx.outdir / name)


_COMMANDS = {name: globals()[f"cmd_{name}"] for name in (
    "synth", "ingest", "pairs", "calibrate", "fnmr", "det", "failures", "fuse", "lmm",
    "apc", "cv", "report")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longmatch",
        description="Longitudinal permanence analysis for biometric match scores.",
        epilog="Exit codes: 0 ok, 2 usage, "
               + ", ".join(f"{code} {name}" for code, name in _CODE_NAMES.items()) + ".")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides config 'out')")
        p.add_argument("--seed", type=_seed_arg, default=None,
                       help="unsigned 64-bit master seed (overrides config 'seed')")
        p.set_defaults(handler=handler)
    return parser


def _write_manifest(ctx: RunContext, command: str) -> None:
    manifest = {"command": command, "config": str(ctx.config_path),
                "config_sha256": _sha256(ctx.config_path), "seed": ctx.seed,
                "versions": {"longmatch": __version__, "numpy": np.__version__},
                "inputs": ctx.inputs, "outputs": ctx.outputs}
    path = ctx.outdir / f"manifest_{command}.json"   # sort_keys orders every level
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = Path(args.config)
        config = OBJECT(_read_json(config_path), f"config {config_path}")
        # read in full whatever the flags override
        top = _object(TOP_LEVEL, taken=SECTIONS)(config, "config")
        outdir = Path(args.out or top["out"])
        ctx = RunContext(config=config, config_path=config_path, outdir=outdir,
                         seed=top["seed"] if args.seed is None else args.seed,
                         captures=outdir / top["captures"], scores=outdir / top["scores"])
        ctx.outdir.mkdir(parents=True, exist_ok=True)
        args.handler(ctx)
        _write_manifest(ctx, args.command)
    except (CliError, *_EXIT_CODES) as exc:
        code = exc.exit_code if isinstance(exc, CliError) else next(
            code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
        print(f"error code={_CODE_NAMES[code]}: {exc}", file=sys.stderr)
        return code
    print(f"ok: {args.command} -> {ctx.outdir}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
