"""Linear mixed-effects core: design building, REML/ML fitting, inference.

The model is

    y_ij = x_ij' beta + u_0i + u_1i * T_ij + e_ij,
    (u_0i, u_1i) ~ N(0, Sigma),  e_ij ~ N(0, sigma2),

with subjects i as the grouping factor. Fixed effects are profiled out by
GLS and sigma2 is profiled analytically, so the numerical optimization runs
only over the log-Cholesky factor of the relative covariance Sigma/sigma2
(unconstrained, PSD by construction). Per-subject blocks are collapsed to
q x q summaries via the Woodbury identity, which makes one criterion
evaluation O(n) regardless of subject count.

Optimization is quasi-Newton (L-BFGS-B) on the analytic gradient,
iteration cap 500, followed by a Newton polish that solves grad = 0 with a
finite-difference Hessian of that gradient. With `check_optimum` (the
default) the optimum must then beat 20 seeded perturbation probes of the
variance parameters (`diagnostics["local_optimum_ok"]`). The outcome is
scaled to unit variance internally and results are mapped back exactly, so
fits are equivariant under affine rescaling of the outcome. Rows are put in
a canonical content-based order before any summation, so a row-permuted
table refits to bitwise-identical estimates.

Wald inference uses the profiled GLS covariance with a standard normal
reference; appropriate for the designs this targets (hundreds of subjects,
tens of observations each) and documented as unreliable below roughly 50
subjects.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .core import GENUINE, ComparisonTable, DataError
from .rng import SplitMix64

INTERCEPT_ONLY = "intercept"
INTERCEPT_AND_SLOPE = "intercept_slope"

APC_MODES = {
    "gallery_age_plus_t": ("A_gallery", "T"),
    "probe_age_plus_t": ("A_probe", "T"),
    "gallery_age_plus_delta_a": ("A_gallery", "delta_A"),
}


class ModelError(Exception):
    pass


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
    """Integer-age bins expanded to dummies against the reference bin."""
    column: str = "A_gallery"
    bins: tuple[tuple[int, int], ...] = ((4, 5), (6, 7), (8, 9), (10, 12))
    reference: int = 0   # index into bins

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
    y: np.ndarray
    X: np.ndarray
    t: np.ndarray | None          # slope column of Z, None for intercept-only
    group_index: np.ndarray
    column_names: list[str]
    subject_ids: list[str]
    n_dropped_missing: int
    outcome_scale: tuple[float, float] | None   # (mean, sd) when standardized
    spec: ModelSpec | None = None

    @property
    def n_obs(self) -> int:
        return len(self.y)

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)


def _independent_columns(X: np.ndarray) -> np.ndarray:
    """Greedy mask of columns linearly independent of their predecessors."""
    n, p = X.shape
    keep = np.zeros(p, dtype=bool)
    basis = np.zeros((n, 0))
    for j in range(p):
        col = X[:, j]
        scale = np.linalg.norm(col)
        if scale == 0.0:
            continue
        if basis.shape[1]:
            coef, *_ = np.linalg.lstsq(basis, col, rcond=None)
            resid = col - basis @ coef
        else:
            resid = col
        if np.linalg.norm(resid) > 1e-8 * scale:
            keep[j] = True
            basis = np.column_stack([basis, col])
    return keep


def build_design(table: ComparisonTable, spec: ModelSpec, *,
                 like: DesignMatrices | None = None) -> DesignMatrices:
    """Assemble (y, X, random structure, grouping) from a genuine-pair table.

    X gets an intercept column, the APC variable pair (when apc_mode is set),
    then one column per fixed term; age groups expand to dummies against
    their reference bin and interactions are elementwise products
    of the parent columns. Rows with any missing value are dropped and
    counted. Standardization of the outcome (when requested) uses the mean
    and sample sd within the modeled rows, or the training design's values
    when `like` is given.
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
            values = table.column(term.column)
            labels = term.labels()
            level = np.full(len(values), -1, dtype=np.int64)
            for idx, (lo, hi) in enumerate(term.bins):
                level[(values >= lo) & (values <= hi)] = idx
            row_ok &= level >= 0
            for idx, label in enumerate(labels):
                if idx == term.reference:
                    continue
                add(f"{term.column}[{label}]", (level == idx).astype(np.float64))
        else:
            raise ModelError(f"unknown term {term!r}")

    y = np.asarray(table.column(spec.outcome), dtype=np.float64)
    row_ok &= np.isfinite(y)
    for col in columns:
        row_ok &= np.isfinite(col)

    n_dropped = int((~row_ok).sum())
    y = y[row_ok]
    X = np.column_stack([np.ones(row_ok.sum())] + [c[row_ok] for c in columns]) \
        if columns else np.ones((int(row_ok.sum()), 1))
    names = ["intercept"] + names

    for j, name in enumerate(names):
        if j > 0 and not np.any(X[:, j] != 0.0):
            raise ModelError(f"factor level absent from data: column {name!r} is all zero")

    keep = _independent_columns(X)
    if not keep.all():
        raise RankDeficientError([names[j] for j in range(len(names)) if not keep[j]])

    scale = None
    if spec.standardize_outcome:
        if like is not None and like.outcome_scale is not None:
            mean, sd = like.outcome_scale
        else:
            mean = float(np.mean(y))
            sd = float(np.std(y, ddof=1))
            if sd == 0.0:
                raise ModelError("cannot standardize a constant outcome")
        y = (y - mean) / sd
        scale = (mean, sd)

    subjects_col = table.gallery_subject[row_ok]
    if like is not None:
        subject_ids = list(like.subject_ids)
        lookup = {s: i for i, s in enumerate(subject_ids)}
        extra = sorted(set(subjects_col) - lookup.keys())
        for s in extra:
            lookup[s] = len(subject_ids)
            subject_ids.append(s)
    else:
        subject_ids = sorted(set(subjects_col))
        lookup = {s: i for i, s in enumerate(subject_ids)}
    group_index = np.fromiter((lookup[s] for s in subjects_col), dtype=np.int64,
                              count=len(subjects_col))

    t = table.gap_t[row_ok].astype(np.float64) \
        if spec.random_structure == INTERCEPT_AND_SLOPE else None
    return DesignMatrices(y=y, X=X, t=t, group_index=group_index,
                          column_names=names, subject_ids=subject_ids,
                          n_dropped_missing=n_dropped, outcome_scale=scale,
                          spec=spec)


# ---------------------------------------------------------------------------
# profiled REML machinery

class _GroupStats:
    """Per-subject sufficient statistics for the Woodbury-collapsed criterion."""

    def __init__(self, y, X, t, group_index):
        self.n, self.p = X.shape
        self.q = 1 if t is None else 2
        m = int(group_index.max()) + 1
        self.m = m
        zcols = [np.ones(self.n)] if t is None else [np.ones(self.n), t]
        q = self.q

        self.ZtZ = np.empty((m, q, q))
        for a in range(q):
            for b in range(a, q):
                s = np.bincount(group_index, weights=zcols[a] * zcols[b], minlength=m)
                self.ZtZ[:, a, b] = s
                self.ZtZ[:, b, a] = s
        self.ZtX = np.empty((m, q, self.p))
        for a in range(q):
            for j in range(self.p):
                self.ZtX[:, a, j] = np.bincount(group_index, weights=zcols[a] * X[:, j],
                                                minlength=m)
        self.Zty = np.empty((m, q))
        for a in range(q):
            self.Zty[:, a] = np.bincount(group_index, weights=zcols[a] * y, minlength=m)

        self.XtX = X.T @ X
        self.Xty = X.T @ y
        self.yty = float(y @ y)
        self.zcols = zcols
        self.group_index = group_index
        self.y = y
        self.X = X

    def _ainv_logdet(self, A):
        q = self.q
        if q == 1:
            det = A[:, 0, 0]
            inv = (1.0 / det)[:, None, None]
        else:
            det = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
            inv = np.empty_like(A)
            inv[:, 0, 0] = A[:, 1, 1]
            inv[:, 1, 1] = A[:, 0, 0]
            inv[:, 0, 1] = -A[:, 0, 1]
            inv[:, 1, 0] = -A[:, 1, 0]
            inv /= det[:, None, None]
        return inv, float(np.log(det).sum())

    def whitened_normal_equations(self, factor):
        """X'W^-1X, X'W^-1y, y'W^-1y, logdet W for W = I + Z F F' Z'."""
        A = np.einsum("ji,mjk->mik", factor, np.einsum("mij,jk->mik", self.ZtZ, factor))
        A[:, np.arange(self.q), np.arange(self.q)] += 1.0
        Ainv, logdet = self._ainv_logdet(A)
        ZtXt = np.einsum("ji,mjp->mip", factor, self.ZtX)
        Ztyt = np.einsum("ji,mj->mi", factor, self.Zty)
        Bx = np.einsum("mij,mjp->mip", Ainv, ZtXt)
        By = np.einsum("mij,mj->mi", Ainv, Ztyt)
        XtWX = self.XtX - np.einsum("mip,miq->pq", ZtXt, Bx)
        XtWy = self.Xty - np.einsum("mip,mi->p", ZtXt, By)
        yWy = self.yty - float(np.einsum("mi,mi->", Ztyt, By))
        return XtWX, XtWy, yWy, logdet, (A, Ainv, factor)

    def residual_quadform(self, factor, beta):
        """e'W^-1 e computed from the residual vector (cancellation-safe)."""
        e = self.y - self.X @ beta
        q = self.q
        m = self.m
        Zte = np.empty((m, q))
        for a in range(q):
            Zte[:, a] = np.bincount(self.group_index, weights=self.zcols[a] * e,
                                    minlength=m)
        A = np.einsum("ji,mjk->mik", factor, np.einsum("mij,jk->mik", self.ZtZ, factor))
        A[:, np.arange(q), np.arange(q)] += 1.0
        Ainv, _ = self._ainv_logdet(A)
        Ztet = np.einsum("ji,mj->mi", factor, Zte)
        Be = np.einsum("mij,mj->mi", Ainv, Ztet)
        return float(e @ e - np.einsum("mi,mi->", Ztet, Be))


_BIG = 1e30
_LOG_BOUND = 14.0


def _unpack_factor(params, q):
    if q == 1:
        return np.array([[np.exp(params[0])]])
    return np.array([[np.exp(params[0]), 0.0],
                     [params[1], np.exp(params[2])]])


def _evaluate(params, gs: _GroupStats, reml: bool, with_grad: bool = False):
    """Profiled criterion (-2 loglik) and, optionally, its exact gradient.

    The gradient follows from d tr log W = tr(Z'W^-1 Z dGamma), the envelope
    theorem at the GLS beta-hat, and the chain rule through Gamma =
    factor factor'; everything collapses to per-group q x q blocks.
    """
    q = gs.q
    factor = _unpack_factor(params, q)
    T1 = np.einsum("mij,jk->mik", gs.ZtZ, factor)
    A = np.einsum("ji,mjk->mik", factor, T1)
    A[:, np.arange(q), np.arange(q)] += 1.0
    Ainv, logdetW = gs._ainv_logdet(A)
    ZtXt = np.einsum("ji,mjp->mip", factor, gs.ZtX)
    Ztyt = np.einsum("ji,mj->mi", factor, gs.Zty)
    XtWX = gs.XtX - np.einsum("mip,mij,mjq->pq", ZtXt, Ainv, ZtXt)
    XtWy = gs.Xty - np.einsum("mip,mij,mj->p", ZtXt, Ainv, Ztyt)
    yWy = gs.yty - float(np.einsum("mi,mij,mj->", Ztyt, Ainv, Ztyt))

    bad = (_BIG, np.zeros_like(params)) if with_grad else (_BIG, None)
    sign, logdetXtWX = np.linalg.slogdet(XtWX)
    if sign <= 0 or not np.isfinite(logdetXtWX):
        return bad
    try:
        beta = np.linalg.solve(XtWX, XtWy)
    except np.linalg.LinAlgError:
        return bad
    ryWy = max(yWy - float(XtWy @ beta), 1e-300)
    n, p = gs.n, gs.p
    dof = n - p
    if reml:
        crit = dof * np.log(2.0 * np.pi) + logdetW + logdetXtWX \
            + dof * (1.0 + np.log(ryWy / dof))
    else:
        crit = n * np.log(2.0 * np.pi) + logdetW + n * (1.0 + np.log(ryWy / n))
    if not np.isfinite(crit):
        return bad
    if not with_grad:
        return crit, None

    TA = np.einsum("mab,mbc->mac", T1, Ainv)
    S = gs.ZtZ.sum(axis=0) - np.einsum("mab,mcb->ac", TA, T1)   # sum Z'W^-1 Z
    Zte = gs.Zty - gs.ZtX @ beta
    Ztet = np.einsum("ji,mj->mi", factor, Zte)
    v = Zte - np.einsum("mab,mb->ma", TA, Ztet)                 # Z'W^-1 e
    c = (dof if reml else n) / ryWy
    S = S - c * np.einsum("ma,mb->ab", v, v)
    if reml:
        B = gs.ZtX - np.einsum("mab,mbp->map", TA, ZtXt)        # Z'W^-1 X
        XtWX_inv = np.linalg.inv(XtWX)
        S = S - np.einsum("map,pr,mbr->ab", B, XtWX_inv, B)
    G = 2.0 * (S @ factor)
    if q == 1:
        grad = np.array([G[0, 0] * factor[0, 0]])
    else:
        grad = np.array([G[0, 0] * factor[0, 0], G[1, 0], G[1, 1] * factor[1, 1]])
    return crit, grad


def _criterion(params, gs: _GroupStats, reml: bool) -> float:
    return _evaluate(params, gs, reml, with_grad=False)[0]


def _newton_polish(x, gs: _GroupStats, reml: bool, lo, hi, max_steps: int = 50):
    """Pin the optimum by Newton steps on the analytic gradient.

    Quasi-Newton stops inside a small criterion-flat region; solving
    grad = 0 with a finite-difference Jacobian of the exact gradient
    localizes the optimum to ~1e-11 in the parameters, which is what makes
    refits reproducible at the 1e-8 level demanded of the inference.
    """
    d = len(x)
    fx, gx = _evaluate(x, gs, reml, with_grad=True)
    f_best = fx
    steps = 0
    for _ in range(max_steps):
        H = np.empty((d, d))
        for i in range(d):
            h = 1e-5 * max(1.0, abs(x[i]))
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            H[:, i] = (_evaluate(xp, gs, reml, True)[1]
                       - _evaluate(xm, gs, reml, True)[1]) / (2.0 * h)
        H = 0.5 * (H + H.T)
        try:
            w_min = float(np.linalg.eigvalsh(H).min())
        except np.linalg.LinAlgError:
            break
        if w_min < 1e-10:
            H = H + (1e-10 + 1.5 * abs(w_min)) * np.eye(d)
        try:
            step = np.linalg.solve(H, -gx)
        except np.linalg.LinAlgError:
            break
        norm = float(np.max(np.abs(step)))
        if norm > 1.0:   # polish stage only: cap the move
            step = step / norm
        accepted = False
        for _ in range(12):
            x_new = np.clip(x + step, lo, hi)
            f_new, g_new = _evaluate(x_new, gs, reml, with_grad=True)
            # near the fixed point f comparisons are roundoff noise; accept
            # anything that does not genuinely climb
            if np.isfinite(f_new) and f_new <= f_best + 1e-9 * max(1.0, abs(f_best)):
                accepted = True
                break
            step = step * 0.5
        if not accepted:
            break
        delta = float(np.max(np.abs(x_new - x)))
        x, fx, gx = x_new, f_new, g_new
        f_best = min(f_best, fx)
        steps += 1
        if delta < 1e-12:
            break
    return x, fx, steps


def central_diff_grad(fun, x):
    """Central finite differences; kept as the oracle the analytic gradient
    is verified against."""
    h0 = 6.0e-6
    g = np.empty_like(x)
    for i in range(len(x)):
        h = h0 * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


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
    design: DesignMatrices | None = field(default=None, repr=False)
    _internal: dict = field(default_factory=dict, repr=False)

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


def _start_params(y, X, t, group_index, q):
    beta0, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta0
    v = float(np.var(resid))
    m = int(group_index.max()) + 1
    counts = np.bincount(group_index, minlength=m).astype(np.float64)
    means = np.bincount(group_index, weights=resid, minlength=m) / np.maximum(counts, 1.0)
    vb = float(np.var(means))
    vw = max(v - vb, 0.25 * v, 1e-12)
    lam11 = np.sqrt(max(vb, 0.05 * v, 1e-12) / vw)
    params = [np.clip(np.log(lam11), -_LOG_BOUND, _LOG_BOUND)]
    if q == 2:
        rms_t = float(np.sqrt(np.mean(t * t))) if t is not None else 1.0
        lam22 = lam11 / max(rms_t, 1.0)
        params += [0.0, np.clip(np.log(max(lam22, 1e-12)), -_LOG_BOUND, _LOG_BOUND)]
    return np.array(params)


def fit_reml(y, X, t, group_index, *, column_names=None, method: str = "reml",
             max_iter: int = 500, check_optimum: bool = True,
             design: DesignMatrices | None = None) -> FittedModel:
    """Fit the random-intercept(-and-slope) model by profiled REML (or ML).

    Parameters
    ----------
    y, X : outcome vector and fixed-effects design (intercept included).
    t : slope column of the random design (None for intercept-only).
    group_index : int array mapping rows to subject index.
    method : "reml" (default) or "ml".

    Returns a FittedModel; if the iteration cap is hit, converged is False
    and diagnostics carry the optimizer states, but estimates are still
    returned. Boundary variance estimates (a component collapsing to zero)
    are flagged in diagnostics["boundary"], never raised.
    """
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    group_index = np.asarray(group_index, dtype=np.int64)
    t = None if t is None else np.asarray(t, dtype=np.float64)
    reml = method == "reml"
    if method not in ("reml", "ml"):
        raise ValueError("method must be 'reml' or 'ml'")

    n, p = X.shape
    q = 1 if t is None else 2
    n_varpar = q * (q + 1) // 2 + 1
    n_params = p + n_varpar
    m = int(group_index.max()) + 1 if len(group_index) else 0
    if m < 2:
        raise ModelError("at least 2 subjects are required")
    if n <= n_params:
        raise ModelError("n_obs must exceed the parameter count")
    if float(np.std(y)) == 0.0:
        raise ModelError("outcome is constant (all-identical y)")
    if np.linalg.matrix_rank(X) < p:
        raise ModelError("singular fixed-effects design")

    # canonical content order: permutation-invariant sums, bitwise refits
    order = _canonical_order(y, X, t, group_index)
    yc = y[order]
    Xc = X[order]
    tc = None if t is None else t[order]
    gc = group_index[order]

    # internal unit-variance outcome: affine equivariance by construction
    y_scale = float(np.std(yc, ddof=1))
    ys = yc / y_scale
    # unit-RMS slope column: keeps the Cholesky parameters of the relative
    # covariance on a common scale (months run to ~100, intercepts are O(1))
    if tc is not None:
        t_scale = float(np.sqrt(np.mean(tc * tc)))
        t_scale = t_scale if t_scale > 0 else 1.0
        tc_int = tc / t_scale
    else:
        t_scale = 1.0
        tc_int = None
    gs = _GroupStats(ys, Xc, tc_int, gc)

    x0 = _start_params(ys, Xc, tc_int, gc, q)
    bounds = [(-_LOG_BOUND, _LOG_BOUND)]
    if q == 2:
        bounds += [(-1e4, 1e4), (-_LOG_BOUND, _LOG_BOUND)]

    from scipy import optimize, special

    res = optimize.minimize(
        lambda params: _evaluate(params, gs, reml, with_grad=True), x0,
        jac=True, method="L-BFGS-B", bounds=bounds,
        options={"maxiter": max_iter, "ftol": 1e-14, "gtol": 1e-9, "maxcor": 12},
    )
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    x_hat, f_hat, newton_steps = _newton_polish(res.x, gs, reml, lo, hi)
    if f_hat > res.fun + 1e-9 * max(1.0, abs(res.fun)):
        x_hat, f_hat = res.x, float(res.fun)
    polish_gain = max(0.0, float(res.fun - f_hat))
    hit_cap = res.nit >= max_iter
    converged = (polish_gain <= 1e-6 * max(1.0, abs(f_hat))) and not (hit_cap and not res.success)

    factor = _unpack_factor(x_hat, q)
    XtWX, XtWy, yWy, logdetW, _ = gs.whitened_normal_equations(factor)
    beta_s = np.linalg.solve(XtWX, XtWy)
    ryWy = max(gs.residual_quadform(factor, beta_s), 1e-300)
    dof = n - p if reml else n
    sigma2_s = ryWy / dof
    Sigma_s = sigma2_s * (factor @ factor.T)
    if q == 2:
        unscale = np.diag([1.0, 1.0 / t_scale])
        Sigma_s = unscale @ Sigma_s @ unscale
    cov_beta_s = sigma2_s * np.linalg.inv(XtWX)

    # map back to the original outcome scale
    beta = beta_s * y_scale
    cov_beta = cov_beta_s * y_scale**2
    sigma2 = float(sigma2_s * y_scale**2)
    Sigma = Sigma_s * y_scale**2
    loglik = -0.5 * (f_hat + 2.0 * dof * np.log(y_scale))
    aic = 2.0 * n_params - 2.0 * loglik

    se = np.sqrt(np.diag(cov_beta))
    zs = beta / se
    pvals = 2.0 * special.ndtr(-np.abs(zs))

    # boundary: a random-effect variance negligible on the (unit-variance)
    # internal outcome scale, or a log parameter pinned at its bound
    diag_rel = sigma2_s * (factor ** 2).sum(axis=1)
    log_params = x_hat[[0, 2]] if q == 2 else x_hat[[0]]
    boundary = bool(np.any(diag_rel < 1e-9) or
                    np.any(np.abs(log_params) >= _LOG_BOUND - 1e-6))

    local_ok = None
    if check_optimum:
        # the returned optimum must beat 20 seeded perturbations of the
        # variance parameters (cheap guard against line-search stalls)
        rng = SplitMix64(0xACCE55 ^ (n << 16) ^ p)
        local_ok = True
        for _ in range(20):
            probe = np.array([xi + (rng.unit() - 0.5) * 0.4 * max(0.25, abs(xi))
                              for xi in x_hat])
            if _criterion(probe, gs, reml) < f_hat - 1e-6 * max(1.0, abs(f_hat)):
                local_ok = False
                break

    diagnostics = {
        "optimizer_status": int(res.status),
        "optimizer_message": str(res.message),
        "polish_gain": polish_gain,
        "newton_steps": int(newton_steps),
        "boundary": boundary,
        "local_optimum_ok": local_ok,
        "y_scale": y_scale,
        "criterion": float(f_hat + 2.0 * dof * np.log(y_scale)),
        "n_dropped_missing": design.n_dropped_missing if design is not None else 0,
    }

    names = list(column_names) if column_names is not None else \
        (design.column_names if design is not None else [f"x{j}" for j in range(p)])
    fit = FittedModel(
        method=method,
        random_structure=INTERCEPT_ONLY if q == 1 else INTERCEPT_AND_SLOPE,
        column_names=names, beta=beta, se=se, z_stats=zs, p_values=pvals,
        cov_beta=cov_beta, Sigma=Sigma, sigma2=sigma2, loglik=float(loglik),
        aic=float(aic), n_obs=n, n_subjects=m, n_params=n_params,
        converged=bool(converged), iterations=int(res.nit + newton_steps),
        diagnostics=diagnostics, design=design,
        _internal={"y": y, "X": X, "t": t, "group_index": group_index},
    )
    return fit


def fit_spec(table: ComparisonTable, spec: ModelSpec, *, method: str = "reml",
             like: DesignMatrices | None = None, **fit_kw) -> FittedModel:
    """build_design + fit_reml in one step."""
    design = build_design(table, spec, like=like)
    return fit_reml(design.y, design.X, design.t, design.group_index,
                    method=method, design=design, **fit_kw)


def refit(fit: FittedModel, method: str) -> FittedModel:
    if fit.method == method:
        return fit
    inner = fit._internal
    return fit_reml(inner["y"], inner["X"], inner["t"], inner["group_index"],
                    column_names=fit.column_names, method=method,
                    design=fit.design)


def gls_beta(y, X, t, group_index, Sigma, sigma2):
    """Closed-form GLS fixed effects with the variance components frozen.

    Returns (beta, cov_beta). Used as the inner step of the fit and exposed
    so it can be checked against a dense weighted-least-squares oracle.
    """
    y = np.asarray(y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    t = None if t is None else np.asarray(t, dtype=np.float64)
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=np.float64))
    gs = _GroupStats(y, X, t, np.asarray(group_index, dtype=np.int64))
    w, U = np.linalg.eigh(Sigma / sigma2)
    factor = U @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    XtWX, XtWy, _, _, _ = gs.whitened_normal_equations(factor)
    beta = np.linalg.solve(XtWX, XtWy)
    cov = sigma2 * np.linalg.inv(XtWX)
    return beta, cov


# ---------------------------------------------------------------------------
# inference on fitted models

@dataclass(frozen=True)
class LrtResult:
    chi2: float
    df: int
    p: float
    used_method: str


def likelihood_ratio_test(nested: FittedModel, full: FittedModel) -> LrtResult:
    """LRT between nested fits on identical rows.

    When the fixed effects differ, both models are (re)fit by ML, since REML
    log-likelihoods are not comparable across different mean structures;
    REML log-likelihoods are used directly only for pure random-structure
    comparisons. chi2 is clamped at 0 against numerical jitter.
    """
    if nested.n_obs != full.n_obs or not np.allclose(
            nested._internal["y"], full._internal["y"], rtol=0.0, atol=0.0):
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
    else:
        from scipy import special

        p = float(special.chdtrc(df, chi2))
    return LrtResult(float(chi2), int(df), p, used)


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


def marginal_r2(fit: FittedModel, X: np.ndarray | None = None) -> float:
    """Fixed-effects variance share: var(Xb) / (var(Xb) + RE + sigma2).

    The random-effect contribution evaluates Sigma with the slope component
    at the mean of T: [1, mean(T)] Sigma [1, mean(T)]'. With heterogeneous
    slopes this understates the realized random variance away from mean T,
    which is why subject-level out-of-sample R2 can sit well below this
    within-sample value.
    """
    if X is None:
        X = fit._internal["X"]
    fitted = np.asarray(X, dtype=np.float64) @ fit.beta
    var_f = float(np.var(fitted))
    if fit.Sigma.shape[0] == 1:
        re_var = float(fit.Sigma[0, 0])
    else:
        t = fit._internal["t"]
        tbar = float(np.mean(t)) if t is not None else 0.0
        v = np.array([1.0, tbar])
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
    outcome_checksum: float
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
    diagnostic_only: bool = True


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
    for mode in APC_MODES:
        spec = dataclasses.replace(base_spec, apc_mode=mode)
        fit = fit_spec(table, spec)
        fit_ml = refit(fit, "ml")
        temporal_name = APC_MODES[mode][1]
        age_names = [c for c in ("A_gallery", "A_probe") if c in fit.column_names]
        entries.append(dict(
            mode=mode, fit=fit,
            n_obs=fit.n_obs,
            outcome_checksum=float(np.sum(fit.design.y)),
            loglik_ml=fit_ml.loglik, aic_ml=fit_ml.aic,
            temporal=_coef_summary(fit, temporal_name),
            age=tuple(_coef_summary(fit, nm) for nm in age_names),
        ))
    best = min(e["aic_ml"] for e in entries)
    model_entries = tuple(
        ApcModelEntry(mode=e["mode"], n_obs=e["n_obs"],
                      outcome_checksum=e["outcome_checksum"],
                      loglik_ml=e["loglik_ml"], aic_ml=e["aic_ml"],
                      delta_aic=e["aic_ml"] - best, temporal=e["temporal"],
                      age=e["age"], fit=e["fit"])
        for e in entries)

    over_terms = (Continuous("A_gallery"), Continuous("A_probe"), Continuous("T"))
    over_spec = dataclasses.replace(base_spec, apc_mode=None,
                                    fixed_terms=over_terms + tuple(base_spec.fixed_terms))
    over_design = build_design(table, over_spec)
    over_vifs = vif(over_design.X, over_design.column_names)
    over_fit = fit_reml(over_design.y, over_design.X, over_design.t,
                        over_design.group_index, design=over_design)
    over = OveridentifiedEntry(vifs=over_vifs,
                               temporal=_coef_summary(over_fit, "T"),
                               fit=over_fit)
    return ApcReport(model_entries, over)


# ---------------------------------------------------------------------------
# combined matcher-comparison model on standardized outcomes

@dataclass(frozen=True)
class MatcherComparisonResult:
    fit: FittedModel
    interaction: CoefSummary   # matcher x T divergence term
    z_scope: str               # "per matcher-eye" or "per matcher"


def matcher_comparison(table: ComparisonTable, matcher_a: str, matcher_b: str,
                       covariate_columns=("Q_gallery", "Q_probe", "U_gallery",
                                          "U_probe", "C_gallery", "C_probe", "DC"),
                       z_scope: str = "per matcher-eye") -> MatcherComparisonResult:
    """Stacked model testing whether two matchers' temporal trends diverge.

    Each matcher's scores are z-standardized (within matcher-eye by default,
    or within matcher pooled over eyes) and stacked; X carries the shared
    covariates, T, a matcher indicator and the matcher x T interaction, with
    subject random intercept and slope. The scope actually used is recorded
    on the result.
    """
    if z_scope not in ("per matcher-eye", "per matcher"):
        raise ValueError("z_scope must be 'per matcher-eye' or 'per matcher'")
    if not np.all(table.kind == GENUINE):
        raise DataError("matcher comparison uses genuine comparisons only")

    blocks_y = []
    for name in (matcher_a, matcher_b):
        scores = table.score(name).copy()
        if z_scope == "per matcher-eye":
            for eye in ("L", "R"):
                sel = table.eye == eye
                if sel.any():
                    scores[sel] = (scores[sel] - scores[sel].mean()) / scores[sel].std(ddof=1)
        else:
            scores = (scores - scores.mean()) / scores.std(ddof=1)
        blocks_y.append(scores)
    y = np.concatenate(blocks_y)

    n = len(table)
    t_single = table.gap_t.astype(np.float64)
    cols = [np.ones(2 * n)]
    names = ["intercept"]
    for c in covariate_columns:
        cols.append(np.tile(table.column(c), 2))
        names.append(c)
    t = np.tile(t_single, 2)
    indicator = np.concatenate([np.zeros(n), np.ones(n)])
    cols += [t, indicator, indicator * t]
    names += ["T", f"matcher[{matcher_b}]", f"matcher[{matcher_b}]:T"]
    X = np.column_stack(cols)

    subjects = sorted(set(table.gallery_subject))
    lookup = {s: i for i, s in enumerate(subjects)}
    gi_single = np.fromiter((lookup[s] for s in table.gallery_subject),
                            dtype=np.int64, count=n)
    group_index = np.tile(gi_single, 2)

    fit = fit_reml(y, X, t, group_index, column_names=names)
    return MatcherComparisonResult(fit, _coef_summary(fit, f"matcher[{matcher_b}]:T"),
                                   z_scope)


# ---------------------------------------------------------------------------
# report rendering

def format_fit_report(fit: FittedModel, title: str = "mixed model") -> str:
    """Text table: predictor, beta, SE, p, plus variance components block."""
    lines = [f"=== {title} ===",
             f"method={fit.method}  n_obs={fit.n_obs}  n_subjects={fit.n_subjects}  "
             f"n_params={fit.n_params}",
             f"rows dropped for missing values: {fit.diagnostics.get('n_dropped_missing', 0)}",
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
