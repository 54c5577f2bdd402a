"""Linear mixed-effects core: design building, REML/ML fitting, inference.

The model is

    y_ij = x_ij' beta + u_0i + u_1i * T_ij + e_ij,
    (u_0i, u_1i) ~ N(0, Sigma),  e_ij ~ N(0, sigma2),

with subjects i as the grouping factor. Fixed effects are profiled out by
GLS and sigma2 is profiled analytically, so the numerical optimization
runs only over the log-Cholesky factor of the relative covariance
Sigma/sigma2 (unconstrained, PSD by construction). One evaluator returns
the profiled criterion with its exact gradient and Hessian; the Woodbury
identity collapses each subject to q x q blocks (q = 1 or 2), stacked
over subjects, so an evaluation is O(n) regardless of subject count.

The fit is a damped Newton iteration from a moment start: Hessian
eigenvalues shifted up where it is not positive definite, backtracking on
the criterion, parameters clipped to a box whose edges mark zero
variances. It stops once the predicted decrease is below the criterion's
rounding, typically after 3-8 evaluations. `converged` and
`diagnostics["local_optimum_ok"]` follow from the certificate of the
returned point: the projected-gradient norm and the smallest Hessian
eigenvalue of the free parameters. The outcome is scaled to unit variance
internally and results are mapped back exactly, so fits are equivariant
under affine rescaling of the outcome. Rows are put in a canonical
content-based order before any summation, so a row-permuted table refits
to bitwise-identical estimates.

Wald inference uses the profiled GLS covariance with a standard normal
reference; appropriate for the designs this targets (hundreds of subjects,
tens of observations each) and documented as unreliable below roughly 50
subjects.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from ._special import chdtrc, ndtr
from .core import GENUINE, ComparisonTable, DataError, ModelError, encode

INTERCEPT_ONLY = "intercept"
INTERCEPT_AND_SLOPE = "intercept_slope"

APC_MODES = {
    "gallery_age_plus_t": ("A_gallery", "T"),
    "probe_age_plus_t": ("A_probe", "T"),
    "gallery_age_plus_delta_a": ("A_gallery", "delta_A"),
}
# the genuine-pair columns any design may read besides its outcome and
# terms: the eye fitted apart, the subject, the APC variables, the slope
DESIGN_COLUMNS = ("eye", "gallery_subject", "A_gallery", "A_probe", "gap_T_months",
                  "delta_age_years")


class RankDeficientError(ModelError):
    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__(f"design matrix is rank deficient; offending columns: {list(columns)}")


# ---------------------------------------------------------------------------
# model specification and design building

@dataclass(frozen=True)
class Continuous:
    column: str


@dataclass(frozen=True)
class AgeGroups:
    """Integer enrollment-age (A_gallery) bins, no two overlapping, expanded
    to dummies against the first bin."""
    bins: tuple[tuple[int, int], ...] = ((4, 5), (6, 7), (8, 9), (10, 12))

    def __post_init__(self):
        if not self.bins or any(len(b) != 2 or b[0] > b[1] for b in self.bins):
            raise ValueError("age groups must be non-empty [low, high] bins, low <= high")
        for a, b in itertools.combinations(self.bins, 2):
            if a[0] <= b[1] and b[0] <= a[1]:
                raise ValueError(f"age groups {list(a)} and {list(b)} overlap")

    def labels(self) -> list[str]:
        return [f"{lo}-{hi}" for lo, hi in self.bins]


@dataclass(frozen=True)
class Interaction:
    left: str
    right: str


@dataclass(frozen=True)
class ModelSpec:
    outcome: str
    fixed_terms: tuple = ()
    apc_mode: str | None = "gallery_age_plus_t"
    random_structure: str = INTERCEPT_AND_SLOPE
    standardize_outcome: bool = False

    def __post_init__(self):
        if self.apc_mode is not None and self.apc_mode not in APC_MODES:
            raise ValueError(f"unknown apc_mode {self.apc_mode!r}")
        if self.random_structure not in (INTERCEPT_ONLY, INTERCEPT_AND_SLOPE):
            raise ValueError(f"unknown random_structure {self.random_structure!r}")


@dataclass
class DesignMatrices:
    """The rows one model fits, checked once when made (by build_design, or
    by fit_reml from bare arrays): X has full column rank and the spread of
    y is finite. Every fit and refit on these rows reads them from here."""
    y: np.ndarray
    X: np.ndarray
    t: np.ndarray | None          # slope column of Z, None for intercept-only
    group_index: np.ndarray       # core.encode subject codes 0..m-1, in sorted subject order
    column_names: list[str]
    n_dropped_missing: int = 0
    outcome_scale: tuple[float, float] | None = None   # (mean, sd) when standardized

    @property
    def n_obs(self) -> int:
        return len(self.y)

    @functools.cached_property
    def _order(self) -> np.ndarray:
        """The canonical content order of the rows, sorted once for all fits on them."""
        return _canonical_order(self.y, self.X, self.t, self.group_index)


def _independent_columns(X: np.ndarray) -> np.ndarray:
    """Mask of the nonzero columns independent of the kept columns before
    them: |R_jj| > 1e-8 ||x_j||, R_jj the residual of x_j against those
    columns by Gram-Schmidt reorthogonalized once; matrix-vector products
    only, as LAPACK's QR of a tall design is slow under threaded BLAS."""
    n, p = X.shape
    keep = np.zeros(p, dtype=bool)
    basis = np.empty((p, n))   # orthonormal rows, the first k spanning the kept columns
    k = 0
    for j, col in enumerate(X.T):
        resid = col
        for _ in range(2):
            resid = resid - basis[:k].T @ (basis[:k] @ resid)
        norm = np.linalg.norm(resid)
        if norm > 1e-8 * np.linalg.norm(col):
            keep[j] = True
            basis[k] = resid / norm
            k += 1
    return keep


def _check_design(y: np.ndarray, X: np.ndarray, names: list[str], label: str, fitted=True) -> None:
    """The checks a design gets once, when it is made: for a design to be
    `fitted`, RankDeficientError naming the columns of X aliased with those
    before them; for every design, ModelError naming the outcome `label`
    where the spread of y overflows float64, as it then overflows every sum
    of squares after this one; for a fitted design, ModelError where a y that
    is not constant (the fit names that fault) is a linear function of X."""
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(np.std(y))
        # Gram-Schmidt runs in column order: with y last, X's flags are X's own
        keep = _independent_columns(np.column_stack([X, y])) if fitted else None
    if fitted and not keep[:-1].all():
        raise RankDeficientError([name for name, kept in zip(names, keep) if not kept])
    if not np.isfinite(spread):
        raise ModelError(f"the spread of {label} overflows float64")
    if fitted and not keep[-1] and (y != y[:1]).any():
        raise ModelError(f"{label} is a linear function of the fixed effects")


def build_design(table: ComparisonTable, spec: ModelSpec, *,
                 like: DesignMatrices | None = None) -> DesignMatrices:
    """Assemble (y, X, random structure, grouping) from a genuine-pair table.

    X gets an intercept column, the APC variable pair (when apc_mode is set),
    then one column per fixed term; age groups expand to dummies against
    their reference bin and interactions are elementwise products
    of the parent columns. Rows with any missing value are dropped and
    counted. Standardization of the outcome (when requested) uses the mean
    and sample sd within the modeled rows, or the training design's values
    when `like` is given. Rows scored against `like` (a held-out CV fold) are
    not fitted, so only a design without `like` is checked for all-zero and
    aliased columns.
    """
    if not np.all(table.kind == GENUINE):
        raise DataError("models are fit on genuine comparisons only")

    names: list[str] = []
    columns: list[np.ndarray] = []
    row_ok = np.ones(len(table), dtype=bool)

    def add(name, values):
        names.append(name)
        columns.append(np.asarray(values, dtype=np.float64))

    if spec.apc_mode is not None:
        for col in APC_MODES[spec.apc_mode]:
            add(col, table.column(col))

    for term in spec.fixed_terms:
        if isinstance(term, Continuous):
            add(term.column, table.column(term.column))
        elif isinstance(term, Interaction):
            add(f"{term.left}:{term.right}",
                table.column(term.left) * table.column(term.right))
        elif isinstance(term, AgeGroups):
            values = table.column("A_gallery")
            level = np.full(len(values), -1, dtype=np.int64)
            for idx, (lo, hi) in enumerate(term.bins):
                level[(values >= lo) & (values <= hi)] = idx
            row_ok &= level >= 0
            for idx, label in enumerate(term.labels()[1:], 1):
                add(f"A_gallery[{label}]", (level == idx).astype(np.float64))
        else:
            raise ModelError(f"unknown term {term!r}")

    y = np.asarray(table.column(spec.outcome), dtype=np.float64)
    row_ok &= np.isfinite(y)
    for col in columns:
        row_ok &= np.isfinite(col)

    n_dropped = int((~row_ok).sum())
    if n_dropped == len(table):
        raise ModelError(f"no rows left to model ({n_dropped} of {len(table)} genuine rows "
                         f"dropped for missing values)")
    y = y[row_ok]
    X = np.column_stack([np.ones(row_ok.sum())] + [c[row_ok] for c in columns]) \
        if columns else np.ones((int(row_ok.sum()), 1))
    names = ["intercept"] + names

    for j, name in enumerate(names):
        if like is None and j > 0 and not np.any(X[:, j] != 0.0):
            raise ModelError(f"factor level absent from data: column {name!r} is all zero")

    _check_design(y, X, names, f"outcome {spec.outcome!r}", fitted=like is None)

    scale = None
    if spec.standardize_outcome:
        if like is not None and like.outcome_scale is not None:
            mean, sd = like.outcome_scale
        else:
            if np.all(y == y[0]):
                raise ModelError("cannot standardize a constant outcome")
            mean = float(np.mean(y))
            sd = float(np.std(y, ddof=1))
        y = (y - mean) / sd
        scale = (mean, sd)

    _, group_index = encode(table.gallery_subject[row_ok])
    t = table.column("T")[row_ok] \
        if spec.random_structure == INTERCEPT_AND_SLOPE else None
    return DesignMatrices(y=y, X=X, t=t, group_index=group_index, column_names=names,
                          n_dropped_missing=n_dropped, outcome_scale=scale)


# ---------------------------------------------------------------------------
# profiled REML machinery

class _GroupStats:
    """Per-subject sums of the random-effects design Z = [1] or [1, t] (the
    rows of `Z`), stacked over the m subjects: zz (m, q, q) holds Z_i'Z_i,
    zx (m, q, p) Z_i'X_i and zy (m, q) Z_i'y_i."""

    def __init__(self, y, X, t, group_index):
        self.n, self.p = X.shape
        self.m = int(group_index.max()) + 1
        self.Z = np.ones((1, self.n)) if t is None else np.stack([np.ones(self.n), t])
        self.q = len(self.Z)
        self.group_index = group_index
        self.zz, self.zx = (np.stack([self.sums(w) for w in W], axis=2) for W in (self.Z, X.T))
        self.zy = self.sums(y)
        self.XtX, self.Xty = X.T @ X, X.T @ y
        self.y, self.X = y, X

    def sums(self, w):
        """Per-subject Z_i'w_i of a vector w (n), an (m, q) array."""
        return np.column_stack([np.bincount(self.group_index, weights=z * w, minlength=self.m)
                                for z in self.Z])


def _cross(P, R):
    """sum_i P_i (x) R_i over stacks P (m, ...) and R (m, ...), as one matrix product."""
    return (P.reshape(len(P), -1).T @ R.reshape(len(R), -1)).reshape(P.shape[1:] + R.shape[1:])


def _inverse(A):
    """Inverses and determinants of a stack of 1x1 or 2x2 matrices, in closed form."""
    if A.shape[-1] == 1:
        return 1.0 / A, A[:, 0, 0]
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    det = a * d - b * c
    return np.stack([d, -b, -c, a], axis=1).reshape(-1, 2, 2) / det[:, None, None], det


_LOG_BOUND = 14.0
_MAX_NEWTON_STEPS = 500


@functools.cache
def _layout(q):
    """Rows and columns in L of the log-Cholesky parameters log L00[, L10,
    log L11], and the mask of the diagonal ones, which are stored as logs."""
    rows, cols = np.tril_indices(q)
    return rows, cols, rows == cols


def _unpack_factor(params, q):
    """The lower-triangular factor L of log-Cholesky parameters."""
    rows, cols, diag = _layout(q)
    L = np.zeros((q, q))
    L[rows, cols] = np.exp(params, out=np.array(params, dtype=np.float64), where=diag)
    return L


def _pack_factor(L):
    """The log-Cholesky parameters of a lower-triangular factor L."""
    rows, cols, diag = _layout(len(L))
    return np.log(L[rows, cols], out=L[rows, cols], where=diag)


@dataclass
class _Evaluation:
    crit: float             # profiled -2 loglik
    grad: np.ndarray
    hess: np.ndarray
    beta: np.ndarray        # GLS fixed effects
    quadform: float         # e'W^-1 e of the GLS residual e, formed from e itself
    XtWX_inv: np.ndarray


def _evaluate(params, gs: _GroupStats, reml: bool) -> _Evaluation | None:
    """Profiled criterion with its exact gradient and Hessian, or None where
    the criterion is not finite; ModelError where r (below) is not above
    1e-300, as the criterion then has no minimum.

    W = I + Z Gamma Z' with Gamma = L L' relative to sigma2, r = e'W^-1 e at
    the GLS beta-hat, c = dof / r and P the REML projection (W^-1 for ML).
    By the envelope theorem at beta-hat,
        df   = tr(P dW_k) - c y'P dW_k P y
        d2f  = tr(P d2W_kl) - tr(P dW_l P dW_k)
               - c (y'P d2W_kl P y - 2 y'P dW_l P dW_k P y)
               - (dof / r^2) (y'P dW_k P y) (y'P dW_l P y).
    Woodbury gives W^-1 = I - Z Gamma H Z' with H = (I + Z'Z Gamma)^-1 per
    subject, and every term collapses to the stacks M = Z'W^-1 Z = H Z'Z,
    B = Z'W^-1 X = H Z'X, v = Z'W^-1 e = H Z'e and E = B (X'W^-1 X)^-1 B'.
    """
    L = _unpack_factor(params, gs.q)
    Gamma = L @ L.T
    H, det = _inverse(gs.zz @ Gamma + np.eye(gs.q))
    B = H @ gs.zx
    GB = (Gamma @ B).reshape(-1, gs.p)                                # Gamma H Z'X
    XtWX = gs.XtX - gs.zx.reshape(-1, gs.p).T @ GB
    XtWy = gs.Xty - GB.T @ gs.zy.ravel()
    sign, logdet_XtWX = np.linalg.slogdet(XtWX)
    if sign <= 0 or not np.isfinite(logdet_XtWX):
        return None
    beta = np.linalg.solve(XtWX, XtWy)
    K = np.linalg.inv(XtWX)

    # residual quadratic form from the residual vector (cancellation-safe)
    e = gs.y - gs.X @ beta
    ze = gs.sums(e)
    v = (H @ ze[:, :, None])[:, :, 0]
    r = float(e @ e) - float(np.sum(Gamma * _cross(ze, v)))
    if r <= 1e-300:   # the criterion falls without bound as r -> 0: no optimum
        raise ModelError("the outcome is fitted exactly")
    dof = gs.n - gs.p if reml else gs.n
    crit = dof * np.log(2.0 * np.pi) + float(np.log(det).sum()) \
        + (logdet_XtWX if reml else 0.0) + dof * (1.0 + np.log(r / dof))
    if not np.isfinite(crit):
        return None

    Mp = M = H @ gs.zz
    if reml:
        E = (B.reshape(-1, gs.p) @ K).reshape(B.shape) @ B.transpose(0, 2, 1)
        Mp = M - E                                                    # diagonal blocks of Z'PZ
    c = dof / r
    V = _cross(v, v)
    S = Mp.sum(axis=0) - c * V

    rows, cols, diag = _layout(gs.q)
    dL = np.zeros((len(rows), gs.q, gs.q))                             # dL / dparams_k
    dL[np.arange(len(rows)), rows, cols] = np.where(diag, L[rows, cols], 1.0)
    dG = dL @ L.T + L @ dL.transpose(0, 2, 1)                         # dGamma / dparams_k
    grad = dG.reshape(len(dG), -1) @ S.ravel()
    w = dG.reshape(len(dG), -1) @ V.ravel()                           # y'P dW_k P y
    # tr(P dW_l P dW_k): sum_i tr(Mp_i dGamma_l Mp_i dGamma_k), and for REML
    # tr(KC_l KC_k) - sum_i tr(E_i dGamma_l E_i dGamma_k)
    traces = np.einsum("abcd,lbc,kda->lk", _cross(Mp, Mp) - (_cross(E, E) if reml else 0), dG, dG)
    if reml:
        KC = K @ np.einsum("kcd,cadb->kab", dG, _cross(B, B))
        traces += np.einsum("lpr,krp->lk", KC, KC)
    # y'P dW_l P dW_k P y: with h_k = dGamma_k v, sum_i h_l' M_i h_k less the
    # share through beta-hat
    Bh = np.einsum("kcd,cad->ka", dG, _cross(B, v))
    quad = np.einsum("lba,kcd,bcad->lk", dG, dG, _cross(M, v[:, :, None] * v[:, None, :])) \
        - Bh @ K @ Bh.T
    # tr(S d2Gamma_kl): d2Gamma_kl = dL_k dL_l' + dL_l dL_k', plus dGamma_k
    # itself for k = l a log parameter, as d2L / d(log L_ii)^2 = dL
    hess = np.einsum("ab,kac,lbc->kl", S + S.T, dL, dL) + np.diag(grad * diag) \
        - traces + 2.0 * c * quad - dof / r**2 * np.outer(w, w)
    return _Evaluation(float(crit), grad, 0.5 * (hess + hess.T), beta, r, K)


def _box(q):
    """Bounds of the log-Cholesky parameters."""
    hi = np.where(_layout(q)[2], _LOG_BOUND, 1e4)
    return -hi, hi


def _held(x, grad, lo, hi):
    """Parameters held at a bound by a gradient pointing out of the box."""
    return ((x <= lo) & (grad >= 0.0)) | ((x >= hi) & (grad <= 0.0))


def _newton(x, gs: _GroupStats, reml: bool):
    """Damped Newton iteration on the profiled criterion inside the box.

    Each step solves with the exact Hessian of the free parameters, its
    eigenvalues shifted up to a positive floor where it is not positive
    definite, and backtracks on the criterion. Returns (x, evaluation at x,
    Newton steps, evaluator calls).
    """
    lo, hi = _box(gs.q)
    logs = np.flatnonzero(_layout(gs.q)[2]).tolist()
    ev = _evaluate(x, gs, reml)
    if ev is None:
        raise ModelError("the REML criterion is not finite at the starting values")
    calls, steps, interior = 1, 0, set()
    while steps < _MAX_NEWTON_STEPS:
        free = ~_held(x, ev.grad, lo, hi)
        step = np.zeros_like(x)
        if free.any():
            w, U = np.linalg.eigh(ev.hess[np.ix_(free, free)])
            floor = 1e-8 * max(1.0, float(np.abs(w).max()))
            w = w + max(0.0, floor - float(w.min()))
            step[free] = -U @ ((U.T @ ev.grad[free]) / w)
        size = float(np.abs(step).max())
        if size <= 1e-9:
            break
        # predicted decrease below the criterion's rounding: this step is the last
        slack = 1e-10 * max(1.0, abs(ev.crit))
        last = -float(ev.grad @ step) <= slack
        if size > 4.0:   # far from the optimum: cap the move
            step *= 4.0 / size
        trials = (np.clip(x + 0.5 ** j * step, lo, hi) for j in range(31))
        # A variance heading for zero: in u = L_ii^2 the 1-D Newton step is
        # du = -2u g / (h - 2g), and h <= 3g puts the minimum of that model
        # at u + du <= -u. Once the other parameters have settled, try the
        # bound first; keep it only if the gradient there still points out of
        # the box, else the variance has an interior optimum: no more tries.
        pinned = [i for i in logs if step[i] < 0.0 and x[i] > lo[i] and i not in interior
                  and 0.0 < ev.hess[i, i] <= 3.0 * ev.grad[i]]
        if pinned and np.abs(np.delete(step, pinned)).max(initial=0.0) <= 0.1:
            jump = np.clip(x + step, lo, hi)
            jump[pinned] = lo[pinned]
            trials = itertools.chain([jump], trials)
        for x_new in trials:
            new = _evaluate(x_new, gs, reml)
            calls += 1
            if new is None or new.crit > ev.crit + 1e-4 * float(ev.grad @ (x_new - x)) + slack:
                continue
            inward = {i for i in pinned if x_new[i] == lo[i] and new.grad[i] < 0.0}
            if not inward:
                break
            interior |= inward
        else:
            break   # no descent left within rounding
        x, ev = x_new, new
        steps += 1
        if last:
            break
    return x, ev, steps, calls


@dataclass
class FittedModel:
    """REML (or ML) estimates, Wald inference, and fit statistics."""

    method: str
    random_structure: str
    column_names: list[str]
    beta: np.ndarray
    se: np.ndarray
    z_stats: np.ndarray
    p_values: np.ndarray
    cov_beta: np.ndarray
    Sigma: np.ndarray
    sigma2: float
    loglik: float
    aic: float
    n_obs: int
    n_subjects: int
    n_params: int
    converged: bool
    iterations: int
    diagnostics: dict
    design: DesignMatrices = field(repr=False)   # the rows fitted
    log_cholesky: np.ndarray = field(repr=False)   # the optimum, on the internal scale

    def coefficient(self, name: str):
        """(beta, se, z, p) for one named fixed effect."""
        j = self.column_names.index(name)
        return (float(self.beta[j]), float(self.se[j]),
                float(self.z_stats[j]), float(self.p_values[j]))

    def predict_fixed(self, X: np.ndarray) -> np.ndarray:
        """Population-level prediction Xb (random effects excluded)."""
        return np.asarray(X, dtype=np.float64) @ self.beta

    def intercept_slope_correlation(self) -> float | None:
        if self.Sigma.shape[0] < 2:
            return None
        denom = np.sqrt(self.Sigma[0, 0] * self.Sigma[1, 1])
        return float(self.Sigma[0, 1] / denom) if denom > 0 else None


def _canonical_order(y, X, t, group_index):
    keys = [X[:, j] for j in range(X.shape[1] - 1, -1, -1)]
    keys.append(y)
    if t is not None:
        keys.append(t)
    keys.append(group_index)
    return np.lexsort(tuple(keys))


def _start_params(gs: _GroupStats):
    """Moment start from per-subject least-squares fits b of the OLS residuals
    on [1(, t)]: the second moment of b less its sampling part, relative to
    the pooled within-subject variance, its eigenvalues floored at 1e-2."""
    q, zz = gs.q, gs.zz
    resid = gs.y - gs.X @ np.linalg.solve(gs.XtX, gs.Xty)
    ok = (zz[:, 0, 0] > q) & (np.linalg.det(zz) > 1e-8 * np.prod(np.diagonal(zz, 0, 1, 2), axis=1))
    if ok.sum() < 2:
        return np.zeros(q * (q + 1) // 2)
    Sinv = np.linalg.inv(zz[ok])
    zr = gs.sums(resid)[ok]
    b = (Sinv @ zr[:, :, None])[:, :, 0]
    rr = np.bincount(gs.group_index, weights=resid * resid, minlength=gs.m)[ok]
    within = max(float((rr - (zr * b).sum(axis=1)).sum() / (zz[ok, 0, 0] - q).sum()), 1e-12)
    # random effects have mean zero: the fixed intercept takes the mean
    # intercept, a mean slope left in the residuals belongs to the random slope
    mean = b.mean(axis=0)
    mean[0] = 0.0
    G = (np.cov(b.T).reshape(q, q) + np.outer(mean, mean) - within * Sinv.mean(axis=0)) / within
    w, U = np.linalg.eigh(G)
    L = np.linalg.cholesky(U @ np.diag(np.maximum(w, 1e-2)) @ U.T)
    return np.clip(_pack_factor(L), *_box(q))


def fit_reml(y, X, t, group_index, *, column_names=None, method: str = "reml") -> FittedModel:
    """Fit the random-intercept(-and-slope) model by profiled REML (or ML).

    Parameters
    ----------
    y, X : outcome vector and fixed-effects design (intercept included).
    t : slope column of the random design (None for intercept-only).
    group_index : int array of subject codes; distinct codes are distinct
        subjects, whatever their values.
    column_names : names of the columns of X (default x0, x1, ...).
    method : "reml" (default) or "ml".

    The arrays are checked as build_design checks a design: ModelError
    "singular fixed-effects design" where X lacks full column rank, then
    the other checks of the fit. Returns a FittedModel. If the cap of
    _MAX_NEWTON_STEPS is hit or the iteration stalls short of a stationary
    point, converged is False, but estimates are still returned;
    diagnostics["local_optimum_ok"] certifies a converged fit by the
    Hessian's eigenvalues. Boundary variance estimates (a component
    collapsing to zero) are flagged in diagnostics["boundary"], never
    raised.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-d")
    _, codes = np.unique(np.asarray(group_index, dtype=np.int64), return_inverse=True)
    design = DesignMatrices(
        np.asarray(y, dtype=np.float64), X,
        None if t is None else np.asarray(t, dtype=np.float64), codes,
        [f"x{j}" for j in range(X.shape[1])] if column_names is None else list(column_names))
    try:
        _check_design(design.y, design.X, design.column_names, "the outcome")
    except RankDeficientError:
        raise ModelError("singular fixed-effects design") from None
    return _fit(design, method)


def _fit(design: DesignMatrices, method: str, start=None) -> FittedModel:
    """The fit of a checked design by `method`, from the log-Cholesky
    parameters `start` on the internal scale (default _start_params); its
    checks and row order are the design's own."""
    reml = method == "reml"
    if method not in ("reml", "ml"):
        raise ValueError("method must be 'reml' or 'ml'")

    n, p = design.X.shape
    q = 1 if design.t is None else 2
    n_params = p + q * (q + 1) // 2 + 1
    m = int(design.group_index.max(initial=-1)) + 1
    if m < 2:
        raise ModelError("at least 2 subjects are required")
    if n <= n_params:
        raise ModelError("n_obs must exceed the parameter count")

    # canonical content order: permutation-invariant sums, bitwise refits
    order = design._order
    yc = design.y[order]
    Xc = design.X[order]
    tc = None if design.t is None else design.t[order]
    gc = design.group_index[order]

    # internal unit-variance outcome: affine equivariance by construction
    y_scale = float(np.std(yc, ddof=1))
    if np.all(yc == yc[0]):
        raise ModelError("outcome is constant (all-identical y)")
    ys = yc / y_scale
    # unit-RMS slope column: keeps the Cholesky parameters of the relative
    # covariance on a common scale (months run to ~100, intercepts are O(1))
    t_scale = 1.0 if tc is None else float(np.sqrt(np.mean(tc * tc))) or 1.0
    tc_int = None if tc is None else tc / t_scale
    gs = _GroupStats(ys, Xc, tc_int, gc)

    lo, hi = _box(q)
    x0 = _start_params(gs) if start is None else np.clip(start, lo, hi)
    x_hat, ev, newton_steps, evaluations = _newton(x0, gs, reml)

    # second-order certificate on the parameters not held at a bound
    free = ~_held(x_hat, ev.grad, lo, hi)
    grad_norm = float(np.abs(ev.grad[free]).max(initial=0.0))
    eigs = np.linalg.eigvalsh(ev.hess[np.ix_(free, free)]) if free.any() else np.zeros(1)
    min_eig = float(eigs.min())
    converged = grad_norm <= 1e-6 * max(1.0, abs(ev.crit))
    local_ok = converged and min_eig >= -1e-8 * max(1.0, float(np.abs(eigs).max()))

    factor = _unpack_factor(x_hat, q)
    dof = n - p if reml else n
    sigma2_s = ev.quadform / dof
    unscale = np.diag([1.0, 1.0 / t_scale][:q])
    Sigma_s = unscale @ (sigma2_s * (factor @ factor.T)) @ unscale

    # map back to the original outcome scale
    beta = ev.beta * y_scale
    cov_beta = sigma2_s * ev.XtWX_inv * y_scale**2
    sigma2 = float(sigma2_s * y_scale**2)
    Sigma = Sigma_s * y_scale**2
    loglik = -0.5 * (ev.crit + 2.0 * dof * np.log(y_scale))
    aic = 2.0 * n_params - 2.0 * loglik

    se = np.sqrt(np.diag(cov_beta))
    zs = beta / se
    pvals = 2.0 * ndtr(-np.abs(zs))

    # boundary: a random-effect variance negligible on the (unit-variance)
    # internal outcome scale, or a log parameter pinned at its bound
    diag_rel = sigma2_s * (factor ** 2).sum(axis=1)
    boundary = bool(np.any(diag_rel < 1e-9) or
                    np.any(np.abs(x_hat[_layout(q)[2]]) >= _LOG_BOUND - 1e-6))

    diagnostics = {
        "newton_steps": int(newton_steps),
        "evaluations": int(evaluations),
        "projected_gradient_norm": grad_norm,
        "min_hessian_eigenvalue": min_eig,
        "boundary": boundary,
        "local_optimum_ok": local_ok,
        "y_scale": y_scale,
        "criterion": float(ev.crit + 2.0 * dof * np.log(y_scale)),
    }

    return FittedModel(
        method=method,
        random_structure=INTERCEPT_ONLY if q == 1 else INTERCEPT_AND_SLOPE,
        column_names=design.column_names, beta=beta, se=se, z_stats=zs, p_values=pvals,
        cov_beta=cov_beta, Sigma=Sigma, sigma2=sigma2, loglik=float(loglik),
        aic=float(aic), n_obs=n, n_subjects=m, n_params=n_params,
        converged=bool(converged), iterations=int(newton_steps),
        diagnostics=diagnostics, design=design, log_cholesky=x_hat,
    )


def fit_spec(table: ComparisonTable, spec: ModelSpec) -> FittedModel:
    """build_design + its REML fit in one step."""
    return _fit(build_design(table, spec), "reml")


def refit(fit: FittedModel, method: str) -> FittedModel:
    """The same model on the same rows by `method`, started at `fit`'s optimum."""
    if fit.method == method:
        return fit
    return _fit(fit.design, method, fit.log_cholesky)


# ---------------------------------------------------------------------------
# inference on fitted models

@dataclass(frozen=True)
class LrtResult:
    chi2: float
    df: int
    p: float
    used_method: str         # the log-likelihoods compared: "ml" or "reml"
    null_distribution: str   # the reference for chi2, e.g. "0.5 chi2(1) + 0.5 chi2(2)"


def likelihood_ratio_test(nested: FittedModel, full: FittedModel) -> LrtResult:
    """LRT between nested fits on identical rows.

    When the fixed effects differ, both models are (re)fit by ML, since REML
    log-likelihoods are not comparable across different mean structures;
    REML log-likelihoods are used directly only for pure random-structure
    comparisons. chi2 is clamped at 0 against numerical jitter.

    Adding a random slope puts its variance on the boundary of the parameter
    space under the null, so chi2 is then referred to the 50:50 mixture of
    chi2(df - 1) and chi2(df) (Self & Liang 1987; Stram & Lee 1994); a test
    of fixed effects alone uses plain chi2(df).
    """
    if not np.array_equal(nested.design.y, full.design.y):
        raise ModelError("LRT requires both models fit on identical rows")
    nested_cols = set(nested.column_names)
    full_cols = set(full.column_names)
    if not nested_cols <= full_cols:
        raise ModelError("models are not nested: fixed effects of the nested "
                         "model are not a subset of the full model's")
    q_nested = nested.Sigma.shape[0]
    q_full = full.Sigma.shape[0]
    if q_nested > q_full:
        raise ModelError("models are not nested: nested model has the richer "
                         "random structure")
    df = full.n_params - nested.n_params
    if df < 0:
        raise ModelError("models are not nested: nested model has more parameters")

    if nested_cols != full_cols:
        a = refit(nested, "ml")
        b = refit(full, "ml")
        used = "ml"
    else:
        if nested.method != full.method:
            a = refit(nested, full.method)
            b = full
        else:
            a, b = nested, full
        used = b.method
    chi2 = max(0.0, 2.0 * (b.loglik - a.loglik))
    if df == 0:
        p = 1.0 if chi2 <= 1e-8 else 0.0
        reference = "chi2(0)"
    elif q_nested != q_full:
        p = 0.5 * chdtrc(df - 1, chi2) + 0.5 * chdtrc(df, chi2)
        reference = f"0.5 chi2({df - 1}) + 0.5 chi2({df})"
    else:
        p = chdtrc(df, chi2)
        reference = f"chi2({df})"
    return LrtResult(float(chi2), int(df), p, used, reference)


def icc(fit: FittedModel) -> float:
    """Intraclass correlation from an intercept-only companion fit.

    Defined only for the random-intercept model; with a random slope the
    within-subject correlation depends on T and a single scalar is not
    meaningful.
    """
    if fit.random_structure != INTERCEPT_ONLY:
        raise ModelError("ICC is defined for intercept-only random structure")
    s_u0 = float(fit.Sigma[0, 0])
    return s_u0 / (s_u0 + fit.sigma2)


def marginal_r2(fit: FittedModel) -> float:
    """Fixed-effects variance share: var(Xb) / (var(Xb) + RE + sigma2).

    The random-effect contribution evaluates Sigma with the slope component
    at the mean of T: [1, mean(T)] Sigma [1, mean(T)]'. With heterogeneous
    slopes this understates the realized random variance away from mean T,
    which is why subject-level out-of-sample R2 can sit well below this
    within-sample value.
    """
    fitted = fit.design.X @ fit.beta
    var_f = float(np.var(fitted))
    if fit.Sigma.shape[0] == 1:
        re_var = float(fit.Sigma[0, 0])
    else:
        v = np.array([1.0, float(np.mean(fit.design.t))])
        re_var = float(v @ fit.Sigma @ v)
    denom = var_f + re_var + fit.sigma2
    if denom <= 0.0:
        raise ModelError("zero total variance")
    return var_f / denom


def vif(X: np.ndarray, column_names=None) -> dict[str, float]:
    """Variance inflation factors for every non-constant column of X.

    Column j is regressed on all remaining columns (intercept included; a
    ones column is appended when X lacks one) and VIF_j = 1 / (1 - R2_j)
    with R2_j = 1 - RSS / sum(x_j^2). The total sum of squares is the raw
    (uncentered) one, the convention under which near-identities between
    integer ages and elapsed time on longitudinal schedules show up as the
    VIF > 1000 collinearity explosions they are. Exact linear dependence is
    reported as +inf.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-d")
    n, p = X.shape
    names = list(column_names) if column_names is not None else [f"x{j}" for j in range(p)]
    is_const = [bool(np.ptp(X[:, j]) == 0.0) for j in range(p)]
    predictors = [j for j in range(p) if not is_const[j]]
    if len(predictors) < 2:
        raise ValueError("VIF needs at least 2 non-constant predictors")
    if not any(is_const):
        X = np.column_stack([X, np.ones(n)])

    out: dict[str, float] = {}
    for j in predictors:
        xj = X[:, j]
        others = np.delete(X, j, axis=1)
        coef, *_ = np.linalg.lstsq(others, xj, rcond=None)
        rss = float(np.sum((xj - others @ coef) ** 2))
        tss = float(np.sum(xj ** 2))
        if tss == 0.0:
            out[names[j]] = float("inf")
            continue
        ratio = rss / tss
        out[names[j]] = float("inf") if ratio < 1e-12 else 1.0 / ratio
    return out


# ---------------------------------------------------------------------------
# APC comparison

@dataclass(frozen=True)
class CoefSummary:
    name: str
    beta: float
    se: float
    p: float


@dataclass(frozen=True)
class ApcModelEntry:
    mode: str
    n_obs: int
    loglik_ml: float
    aic_ml: float
    delta_aic: float
    temporal: CoefSummary
    age: tuple[CoefSummary, ...]
    fit: FittedModel


@dataclass(frozen=True)
class OveridentifiedEntry:
    """Three-variable diagnostic model; interpret nothing but the VIFs."""
    vifs: dict[str, float]
    temporal: CoefSummary
    fit: FittedModel


@dataclass(frozen=True)
class ApcReport:
    entries: tuple[ApcModelEntry, ...]
    overidentified: OveridentifiedEntry


def _coef_summary(fit: FittedModel, name: str) -> CoefSummary:
    beta, se, _, p = fit.coefficient(name)
    return CoefSummary(name, beta, se, p)


def compare_apc(table: ComparisonTable, base_spec: ModelSpec) -> ApcReport:
    """Fit the three two-variable APC parameterizations plus the diagnostic.

    Coefficients come from REML fits; the loglik/AIC comparison columns come
    from ML refits because the three models differ in fixed effects. The
    overidentified model with all of A_gallery, A_probe and T is fit for
    diagnostic purposes only and reported with its VIFs.
    """
    entries = []
    for mode, (_, temporal_name) in APC_MODES.items():
        fit = fit_spec(table, dataclasses.replace(base_spec, apc_mode=mode))
        fit_ml = refit(fit, "ml")
        entries.append(ApcModelEntry(
            mode=mode, n_obs=fit.n_obs,
            loglik_ml=fit_ml.loglik, aic_ml=fit_ml.aic, delta_aic=0.0,
            temporal=_coef_summary(fit, temporal_name),
            age=tuple(_coef_summary(fit, nm) for nm in ("A_gallery", "A_probe")
                      if nm in fit.column_names),
            fit=fit))
    best = min(e.aic_ml for e in entries)
    model_entries = tuple(dataclasses.replace(e, delta_aic=e.aic_ml - best) for e in entries)

    over_terms = (Continuous("A_gallery"), Continuous("A_probe"), Continuous("T"))
    over_spec = dataclasses.replace(base_spec, apc_mode=None,
                                    fixed_terms=over_terms + tuple(base_spec.fixed_terms))
    over_fit = fit_spec(table, over_spec)
    over = OveridentifiedEntry(vifs=vif(over_fit.design.X, over_fit.design.column_names),
                               temporal=_coef_summary(over_fit, "T"), fit=over_fit)
    return ApcReport(model_entries, over)


# ---------------------------------------------------------------------------
# report rendering

def format_fit_report(fit: FittedModel, title: str = "mixed model") -> str:
    """Text table: predictor, beta, SE, p, plus variance components block."""
    lines = [f"=== {title} ===",
             f"method={fit.method}  n_obs={fit.n_obs}  n_subjects={fit.n_subjects}  "
             f"n_params={fit.n_params}",
             f"rows dropped for missing values: {fit.design.n_dropped_missing}",
             f"converged={fit.converged}  iterations={fit.iterations}  "
             f"boundary={fit.diagnostics.get('boundary')}",
             "",
             f"{'predictor':<24}{'beta':>14}{'SE':>12}{'z':>10}{'p':>12}"]
    for j, name in enumerate(fit.column_names):
        lines.append(f"{name:<24}{fit.beta[j]:>14.6g}{fit.se[j]:>12.4g}"
                     f"{fit.z_stats[j]:>10.3f}{fit.p_values[j]:>12.3g}")
    lines.append("")
    lines.append("variance components:")
    q = fit.Sigma.shape[0]
    lines.append(f"  var(intercept) = {fit.Sigma[0, 0]:.6g}")
    if q == 2:
        lines.append(f"  var(slope)     = {fit.Sigma[1, 1]:.6g}")
        lines.append(f"  cov(int,slope) = {fit.Sigma[0, 1]:.6g}  "
                     f"(corr = {fit.intercept_slope_correlation():.3f})")
    lines.append(f"  sigma2 (residual) = {fit.sigma2:.6g}")
    if fit.random_structure == INTERCEPT_ONLY:
        lines.append(f"  ICC = {icc(fit):.4f}")
    try:
        r2 = marginal_r2(fit)
        lines.append(f"  marginal R2 = {r2:.4f}   "
                     "[var(Xb) / (var(Xb) + [1,mean(T)] Sigma [1,mean(T)]' + sigma2)]")
    except ModelError:
        pass
    lines.append(f"loglik ({fit.method}) = {fit.loglik:.4f}   AIC = {fit.aic:.4f}")
    return "\n".join(lines)
