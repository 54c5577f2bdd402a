"""longmatch: longitudinal permanence analysis for biometric match scores.

Builds genuine/impostor comparison protocols from longitudinal capture
tables, computes interval error rates with exact confidence bounds,
calibrates decision thresholds, and fits REML linear mixed-effects models
with age-period-cohort parameterizations to separate template aging from
developmental and quality effects. A built-in synthetic generator with
known ground truth serves as the verification oracle.
"""

__version__ = "0.1.0"

from .core import (
    GENUINE, IMPOSTOR, HIGHER_IS_BETTER, LOWER_IS_BETTER,
    CaptureTable, ComparisonTable, MatcherProfile, DataError, ScoreRangeError,
    dilation_ratio, dilation_constancy,
)
from .tableio import (
    IngestResult, IngestError, DuplicateImageIdError, RowRejection, ScoreTable,
    ingest_captures, ingest_scores, read_pairs, write_captures, write_pairs,
    write_scores,
)
from .pairing import (
    AttachResult, PairingConfig, attach_scores, generate_genuine_pairs,
    generate_impostor_pairs,
)
from .metrics import (
    CalibrationInfeasibleError, CalibrationResult, DetCurve, FailureReport,
    FusionReport, IntervalStat, calibrate_threshold, decide, det_curve,
    failure_analysis, fmr_at_threshold, fnmr_by_interval,
    fuse_and_rule, rule_of_three, wilson_interval,
)
from .lmm import (
    AgeGroups, ApcReport, Continuous, DesignMatrices, FittedModel,
    Interaction, LrtResult, ModelError, ModelSpec, RankDeficientError,
    build_design, compare_apc, fit_reml, fit_spec, format_fit_report, icc,
    likelihood_ratio_test, marginal_r2, matcher_comparison, vif,
)
from .validation import CvReport, DiagnosticsReport, kfold_subject_cv, residual_diagnostics
from .synth import (
    CovariateSpec, DistSpec, GroundTruth, MatcherSim, SynthConfig, SynthResult,
    generate_longitudinal, generate_score_populations,
)
