"""Subject-level cross-validation and residual diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._special import SHAPIRO_MAX_N, shapiro
from .core import ComparisonTable, encode
from .lmm import FittedModel, ModelSpec, build_design, fit_spec
from .rng import sample_indices, shuffled


@dataclass(frozen=True)
class FoldResult:
    fold: int
    oos_r2: float
    rmse: float
    n_test_subjects: int
    n_test_rows: int


@dataclass(frozen=True)
class CvReport:
    k: int
    per_fold: tuple[FoldResult, ...]
    mean_oos_r2: float
    mean_rmse: float
    fold_subjects: tuple[tuple[str, ...], ...]


def kfold_subject_cv(table: ComparisonTable, spec: ModelSpec, k: int,
                     seed: int) -> CvReport:
    """k-fold CV partitioning subjects, never rows.

    The subject codes (core.encode: in sorted-id order) are shuffled
    deterministically by the seed and dealt round-robin into k folds.
    Held-out predictions use fixed effects only: random effects are
    unavailable for unseen subjects, which is exactly why out-of-sample R2
    sits below the within-sample marginal R2 when between-subject
    heterogeneity is strong.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    ids, codes = encode(table.gallery_subject)
    if len(ids) < k:
        raise ValueError(f"need at least k={k} subjects, have {len(ids)}")
    order = shuffled(list(range(len(ids))), seed)
    folds = [order[i::k] for i in range(k)]

    results = []
    for fold_idx, held_out in enumerate(folds):
        test_mask = np.isin(codes, held_out)
        if not test_mask.any():
            raise ValueError(f"fold {fold_idx} has zero rows")
        train = table.select(~test_mask)
        test = table.select(test_mask)

        fit = fit_spec(train, spec)
        design_test = build_design(test, spec, like=fit.design)
        y = design_test.y
        pred = fit.predict_fixed(design_test.X)
        err = y - pred
        sse = float(err @ err)
        sst = float(np.sum((y - y.mean()) ** 2))
        if sst == 0.0 or np.all(y == y[0]):   # a constant 0.1 can leave sst at ~1e-32
            raise ValueError(f"fold {fold_idx}: the held-out outcome is constant, "
                             "so its out-of-sample R2 is undefined")
        oos_r2 = 1.0 - sse / sst
        rmse = float(np.sqrt(np.mean(err ** 2)))
        results.append(FoldResult(fold_idx, oos_r2, rmse, len(held_out), int(test_mask.sum())))

    return CvReport(
        k=k, per_fold=tuple(results),
        mean_oos_r2=float(np.mean([r.oos_r2 for r in results])),
        mean_rmse=float(np.mean([r.rmse for r in results])),
        fold_subjects=tuple(tuple(ids[held_out].tolist()) for held_out in folds),
    )


@dataclass(frozen=True)
class DiagnosticsReport:
    shapiro_w: float
    n_used: int
    subsampled: bool
    sample_quantiles: np.ndarray        # sorted standardized residuals


def residual_diagnostics(fit: FittedModel, y=None, X=None) -> DiagnosticsReport:
    """Marginal residuals y - Xb with Q-Q export and Shapiro-Wilk W.

    W uses Royston's approximation, valid for 3 <= n <= 5000; beyond that a
    subsample of 5000 residuals, drawn with seed 0, is tested and the report
    is flagged as subsampled. The Q-Q partner of the i-th of n sample
    quantiles is ndtri((i - 3/8) / (n + 1/4)), Blom's plotting position.
    """
    y = np.asarray(fit.design.y if y is None else y, dtype=np.float64)
    resid = y - fit.predict_fixed(fit.design.X if X is None else X)
    n = len(resid)
    if n < 3:
        raise ValueError("need at least 3 residuals")
    sd = float(np.std(resid, ddof=1))
    if sd == 0.0:
        raise ValueError("residuals have zero variance")

    if n > SHAPIRO_MAX_N:
        tested = resid[np.array(sample_indices(n, SHAPIRO_MAX_N, 0), dtype=np.int64)]
    else:
        tested = resid
    return DiagnosticsReport(
        shapiro_w=float(shapiro(tested)), n_used=len(tested), subsampled=n > SHAPIRO_MAX_N,
        sample_quantiles=np.sort((resid - resid.mean()) / sd),
    )
