"""Verification error rates, confidence bounds, calibration, DET, fusion.

Decision semantics are pinned: a similarity matcher matches at score >=
threshold, a distance matcher at score <= threshold (the threshold itself
is always an accept).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GENUINE, HIGHER_IS_BETTER, QUALITY_TERMS, CalibrationInfeasibleError, ComparisonTable,
    DataError, MatcherProfile, distinct, encode,
)

WILSON = "wilson"
RULE_OF_THREE = "rule-of-three"


def match_mask(scores: np.ndarray, threshold: float, orientation: str) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if orientation == HIGHER_IS_BETTER:
        return scores >= threshold
    return scores <= threshold


def wilson_interval(k: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    """Closed-form Wilson score bounds for a binomial proportion.

    Accurate near 0 and 1 without a normal approximation on p-hat. The
    k = 0 lower bound and k = n upper bound are exactly 0 and 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 <= k <= n):
        raise ValueError("k must satisfy 0 <= k <= n")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must lie in (0, 1)")
    from ._special import ndtri   # here, so calibrate, det and fuse never load _special
    z = ndtri(0.5 + confidence / 2.0)
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    low = 0.0 if k == 0 else max(0.0, float(center - half))
    high = 1.0 if k == n else min(1.0, float(center + half))
    return low, high


def rule_of_three(n: int) -> float:
    """Conservative 95-percent upper bound 3/n when zero events occur in n trials."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 3.0 / n


@dataclass(frozen=True)
class IntervalStat:
    interval_months: int
    n_genuine: int
    n_false_nonmatch: int
    fnmr: float
    ci_low: float
    ci_high: float
    ci_method: str


def assign_interval(gap_months: np.ndarray, bin_width: int) -> np.ndarray:
    """Nearest bin-center multiple of bin_width, half rounded away from zero.

    Integer arithmetic, so 45 months -> 48 exactly, in uint64 with no
    intermediate past the center: the center of any int64 gap fits, for any
    width below 2**64.
    """
    if bin_width < 1:
        raise ValueError(f"bin_width must be >= 1, got {bin_width}")
    gap = np.asarray(gap_months, dtype=np.int64)
    if np.any(gap < 0):
        raise ValueError("gaps must be non-negative")
    gap, width = gap.astype(np.uint64), np.uint64(bin_width)
    r = gap % width
    return gap - r + width * (r >= width - r)


def _require_kind(table: ComparisonTable, kind: str, op: str) -> None:
    if not np.all(table.kind == kind):
        raise DataError(f"{op} expects a table of {kind} pairs only")


def fnmr_by_interval(table: ComparisonTable, profile: MatcherProfile,
                     threshold: float, bin_width_months: int = 6,
                     confidence: float = 0.95) -> list[IntervalStat]:
    """Per-interval FNMR with Wilson bounds; Rule of Three when errors = 0.

    Each genuine pair is assigned to the nearest bin_width_months increment of
    its enrollment-to-probe gap. Empty bins are omitted, never emitted 0/0.
    """
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must lie in (0, 1)")
    _require_kind(table, GENUINE, "fnmr_by_interval")
    bins = assign_interval(table.gap_T_months, bin_width_months)
    matches = match_mask(table.score(profile.name), threshold, profile.orientation)
    out: list[IntervalStat] = []
    for center in distinct(bins):
        sel = bins == center
        n = int(sel.sum())
        k = int((~matches[sel]).sum())
        fnmr = k / n
        if k == 0:
            low, high, method = 0.0, rule_of_three(n), RULE_OF_THREE
        else:
            (low, high), method = wilson_interval(k, n, confidence), WILSON
        out.append(IntervalStat(int(center), n, k, fnmr, low, high, method))
    return out


def _scores_of(source, profile: MatcherProfile, kind: str) -> np.ndarray:
    if isinstance(source, ComparisonTable):
        _require_kind(source, kind, "metric")
        return source.score(profile.name)
    return np.asarray(source, dtype=np.float64)


def _oriented(scores: np.ndarray, orientation: str) -> np.ndarray:
    # normalized space: match <=> oriented score >= oriented threshold
    return scores if orientation == HIGHER_IS_BETTER else -scores


def _sweep(genuine: np.ndarray, impostor: np.ndarray, orientation: str):
    """Exact (threshold, fmr, fnmr) steps over all observed unique scores.

    Thresholds ascend in the normalized space, i.e. loosest to strictest.
    """
    g = np.sort(_oriented(genuine, orientation))
    im = np.sort(_oriented(impostor, orientation))
    thresholds = distinct(np.concatenate([g, im]))
    n_im = im.size
    n_g = g.size
    fmr = (n_im - np.searchsorted(im, thresholds, side="left")) / n_im
    fnmr = np.searchsorted(g, thresholds, side="left") / n_g
    return thresholds, fmr, fnmr


@dataclass(frozen=True)
class DetCurve:
    thresholds: np.ndarray   # original scale, loosest to strictest
    fmr: np.ndarray
    fnmr: np.ndarray
    eer: float
    auc: float


def det_curve(genuine, impostor, profile: MatcherProfile) -> DetCurve:
    """Exact stepwise DET over observed scores, with interpolated EER and ROC AUC.

    Stepwise curves rarely cross exactly, so the EER is linearly interpolated
    between the two bracketing steps; AUC integrates the ROC (TPR over FPR)
    by the trapezoid rule including the (0,0) and (1,1) endpoints.
    """
    g = _scores_of(genuine, profile, kind=GENUINE)
    im = _scores_of(impostor, profile, kind="impostor")
    if g.size == 0 or im.size == 0:
        raise DataError("det_curve needs non-empty genuine and impostor scores")
    thresholds, fmr, fnmr = _sweep(g, im, profile.orientation)

    # virtual fully-strict endpoint so a crossing always exists
    fmr_x = np.concatenate([fmr, [0.0]])
    fnmr_x = np.concatenate([fnmr, [1.0]])
    diff = fmr_x - fnmr_x
    idx = int(np.argmax(diff <= 0.0))
    if diff[idx] == 0.0:
        eer = float(fmr_x[idx])
    else:
        d0, d1 = diff[idx - 1], diff[idx]
        alpha = d0 / (d0 - d1)
        eer = float((1 - alpha) * fmr_x[idx - 1] + alpha * fmr_x[idx])

    fpr = np.concatenate([[0.0], fmr[::-1], [1.0]])
    tpr = np.concatenate([[0.0], 1.0 - fnmr[::-1], [1.0]])
    auc = float((np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0).sum())   # np.trapezoid's, numpy < 2 too

    out_thr = thresholds if profile.orientation == HIGHER_IS_BETTER else -thresholds
    return DetCurve(out_thr, fmr, fnmr, eer, auc)


@dataclass(frozen=True)
class CalibrationResult:
    threshold: float
    achieved_fmr: float
    achieved_fnmr: float


def calibrate_threshold(genuine, impostor, profile: MatcherProfile,
                        target_fmr: float) -> CalibrationResult:
    """Loosest observed-score threshold with FMR <= target (never above it).

    The sweep runs over the exact set of observed unique scores; because FNMR
    is non-decreasing as the threshold tightens, the loosest feasible
    threshold also minimizes FNMR among feasible ones. Raises
    CalibrationInfeasibleError when even the strictest observed threshold
    exceeds the target.
    """
    g = _scores_of(genuine, profile, kind=GENUINE)
    im = _scores_of(impostor, profile, kind="impostor")
    if g.size == 0 or im.size == 0:
        raise DataError("calibration needs non-empty genuine and impostor scores")
    thresholds, fmr, fnmr = _sweep(g, im, profile.orientation)
    feasible = np.flatnonzero(fmr <= target_fmr)
    if feasible.size == 0:
        raise CalibrationInfeasibleError(
            f"FMR {fmr[-1]:.6g} at the strictest observed threshold exceeds "
            f"target {target_fmr:.6g}")
    i = int(feasible[0])
    thr = float(thresholds[i]) if profile.orientation == HIGHER_IS_BETTER else float(-thresholds[i])
    return CalibrationResult(thr, float(fmr[i]), float(fnmr[i]))


@dataclass(frozen=True)
class AgreementBreakdown:
    a_only: int
    b_only: int
    both: int
    neither: int


@dataclass(frozen=True)
class FusionReport:
    fused_fmr: float | None
    fused_fnmr: float | None
    impostor_accepts: AgreementBreakdown   # accept events on impostor pairs
    genuine_rejects: AgreementBreakdown    # reject events on genuine pairs


def _decisions(table: ComparisonTable, profile: MatcherProfile, threshold: float):
    scores = table.score(profile.name)
    if np.isnan(scores).any():
        raise DataError(f"incomplete score coverage for matcher {profile.name!r}")
    return match_mask(scores, threshold, profile.orientation)


def fuse_and_rule(table: ComparisonTable, profile_a: MatcherProfile, thr_a: float,
                  profile_b: MatcherProfile, thr_b: float) -> FusionReport:
    """AND-rule fusion: accept only when both matchers accept.

    Reports fused FMR over impostor pairs, fused FNMR over genuine pairs, and
    the agreement breakdown of single-matcher events on each side.
    """
    match_a = _decisions(table, profile_a, thr_a)
    match_b = _decisions(table, profile_b, thr_b)
    genuine = table.genuine_mask()
    impostor = ~genuine

    def breakdown(event_a, event_b, sel) -> AgreementBreakdown:
        return AgreementBreakdown(
            a_only=int((event_a & ~event_b & sel).sum()),
            b_only=int((~event_a & event_b & sel).sum()),
            both=int((event_a & event_b & sel).sum()),
            neither=int((~event_a & ~event_b & sel).sum()),
        )

    fused_accept = match_a & match_b
    n_imp = int(impostor.sum())
    n_gen = int(genuine.sum())
    fused_fmr = float((fused_accept & impostor).sum() / n_imp) if n_imp else None
    fused_fnmr = float((~fused_accept & genuine).sum() / n_gen) if n_gen else None
    return FusionReport(
        fused_fmr=fused_fmr, fused_fnmr=fused_fnmr,
        impostor_accepts=breakdown(match_a, match_b, impostor),
        genuine_rejects=breakdown(~match_a, ~match_b, genuine),
    )


FAILURE_COVARIATES = QUALITY_TERMS + ("min_quality",)


@dataclass(frozen=True)
class FailureCategory:
    name: str                     # "a_only", "b_only", "both"
    n_pairs: int
    n_subjects: int
    quality_capture_rate: float | None   # fraction with min quality below the cut
    correlations: dict            # (score matcher, covariate) -> (r, p) or None
    mean_gap_months: float | None


@dataclass(frozen=True)
class FailureReport:
    min_quality_cut: float
    n_genuine: int
    n_failures: int               # pairs below threshold on at least one matcher
    n_failure_subjects: int
    n_subjects: int
    categories: tuple[FailureCategory, ...]

    @property
    def failure_subject_fraction(self) -> float:
        return self.n_failure_subjects / self.n_subjects if self.n_subjects else 0.0


def _pearson(x: np.ndarray, y: np.ndarray):
    """(r, two-sided p) of the Pearson correlation: under independence
    (r + 1) / 2 is Beta(n/2 - 1, n/2 - 1)."""
    if x.size < 2:
        return None
    if np.std(x) == 0.0 or np.std(y) == 0.0:
        return None   # undefined for a constant column, flagged as None
    xc = x - x.mean()
    yc = y - y.mean()
    r = float(np.clip((xc / np.linalg.norm(xc)) @ (yc / np.linalg.norm(yc)), -1.0, 1.0))
    from ._special import betainc   # here, so calibrate, det and fuse never load _special
    a = x.size / 2.0 - 1.0
    p = 1.0 if x.size == 2 else 2.0 * betainc(a, a, (1.0 - abs(r)) / 2.0)
    return r, p


def failure_analysis(table: ComparisonTable, profile_a: MatcherProfile, thr_a: float,
                     profile_b: MatcherProfile, thr_b: float,
                     min_quality_cut: float = 45.0) -> FailureReport:
    """Partition genuine failures into {A-only, B-only, both} and profile them.

    Per category: Pearson correlations of each matcher's scores against DC and
    quality covariates (None when undefined), the distinct-subject count, and
    the fraction captured below the configurable min-quality cut.
    """
    _require_kind(table, GENUINE, "failure_analysis")
    match_a = _decisions(table, profile_a, thr_a)
    match_b = _decisions(table, profile_b, thr_b)
    fail_a = ~match_a
    fail_b = ~match_b
    min_quality = np.minimum(table.Q_gallery, table.Q_probe)
    ids, codes = encode(table.gallery_subject)

    def n_subjects(sel) -> int:
        return int(np.count_nonzero(np.bincount(codes[sel])))

    def covariate(name):
        return min_quality if name == "min_quality" else table.column(name)

    def category(name, sel) -> FailureCategory:
        n = int(sel.sum())
        corr = {}
        for prof in (profile_a, profile_b):
            scores = table.score(prof.name)[sel]
            for cov_name in FAILURE_COVARIATES:
                corr[(prof.name, cov_name)] = _pearson(scores, covariate(cov_name)[sel])
        capture = float((min_quality[sel] < min_quality_cut).mean()) if n else None
        gap = float(table.gap_T_months[sel].mean()) if n else None
        return FailureCategory(name, n, n_subjects(sel), capture, corr, gap)

    union = fail_a | fail_b
    return FailureReport(
        min_quality_cut=min_quality_cut,
        n_genuine=len(table), n_failures=int(union.sum()),
        n_failure_subjects=n_subjects(union), n_subjects=len(ids),
        categories=(
            category("a_only", fail_a & ~fail_b),
            category("b_only", ~fail_a & fail_b),
            category("both", fail_a & fail_b),
        ),
    )
