"""longmatch: longitudinal permanence analysis for biometric match scores.

Builds genuine/impostor comparison protocols from longitudinal capture
tables, computes interval error rates with exact confidence bounds,
calibrates decision thresholds, and fits REML linear mixed-effects models
with age-period-cohort parameterizations to separate template aging from
developmental and quality effects. A built-in synthetic generator with
known ground truth serves as the verification oracle.
"""

__version__ = "0.1.0"

import importlib

# the names the CLI and the demos import, each with the submodule that
# defines it (any other public name is imported from its submodule); a name
# loads its submodule on first use (PEP 562), so `import longmatch` loads
# none of them and each CLI process loads only the layers its subcommand calls
_EXPORTS = {
    "core": (
        "CalibrationInfeasibleError", "ComparisonTable", "DataError", "MatcherProfile",
        "ModelError", "ScoreRangeError",
    ),
    "tableio": (
        "IngestError", "ingest_captures", "ingest_scores", "read_pairs", "write_captures",
        "write_pairs", "write_scores",
    ),
    "pairing": (
        "PairingConfig", "attach_scores", "generate_genuine_pairs", "generate_impostor_pairs",
    ),
    "metrics": (
        "calibrate_threshold", "det_curve", "failure_analysis", "fnmr_by_interval",
        "fuse_and_rule",
    ),
    "lmm": (
        "AgeGroups", "Continuous", "Interaction", "ModelSpec", "build_design", "compare_apc",
        "fit_reml", "fit_spec", "format_fit_report", "icc", "likelihood_ratio_test",
        "marginal_r2", "vif",
    ),
    "validation": ("kfold_subject_cv", "residual_diagnostics"),
    "synth": (
        "CovariateSpec", "DistSpec", "MatcherSim", "SynthConfig", "generate_longitudinal",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value
