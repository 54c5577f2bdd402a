import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest

from longmatch import lmm
from longmatch.core import GENUINE, JOINED_COLUMNS, PAIR_COLUMNS, QUALITY_TERMS, ComparisonTable
from longmatch.lmm import (
    AgeGroups, Continuous, Interaction, ModelError, ModelSpec,
    RankDeficientError, build_design, compare_apc, fit_reml, fit_spec,
    format_fit_report, icc, likelihood_ratio_test, marginal_r2, refit, vif,
)


def make_model_table(rng, n_subjects=40, obs_per=12, beta=None, Sigma=None,
                     sigma2=1.0, score_name="m1"):
    """Synthetic genuine table with known mixed-model structure.

    beta keys: intercept, T, A_gallery, Q_gallery, DC (subset ok).
    """
    beta = beta or {"intercept": 10.0, "T": -0.05}
    Sigma = np.asarray(Sigma if Sigma is not None else [[1.0, 0.0], [0.0, 0.0]])
    n = n_subjects * obs_per
    g = np.repeat(np.arange(n_subjects), obs_per)
    t = rng.choice(np.arange(6, 103, 6), n).astype(float)
    a_gallery = np.repeat(rng.integers(4, 13, n_subjects), obs_per).astype(float)
    q = rng.normal(70, 10, n)
    dc = 1.0 - np.abs(rng.normal(0, 0.08, n))
    cols = {"intercept": np.ones(n), "T": t, "A_gallery": a_gallery,
            "Q_gallery": q, "DC": dc}
    w, U = np.linalg.eigh(Sigma)
    u = rng.standard_normal((n_subjects, 2)) @ (U @ np.diag(np.sqrt(np.clip(w, 0, None)))).T
    y = sum(coef * cols[k] for k, coef in beta.items())
    y = y + u[g, 0] + u[g, 1] * t + rng.normal(0, np.sqrt(sigma2), n)

    subjects = [f"S{i:04d}" for i in g]
    covariates = {
        "Q_gallery": q, "Q_probe": rng.normal(70, 10, n),
        "U_gallery": rng.normal(80, 8, n), "U_probe": rng.normal(80, 8, n),
        "C_gallery": rng.normal(85, 6, n), "C_probe": rng.normal(85, 6, n),
        "R_gallery": rng.uniform(0.2, 0.8, n), "R_probe": rng.uniform(0.2, 0.8, n),
        "A_gallery": a_gallery,
        "A_probe": a_gallery + np.floor(t / 12.0 + rng.uniform(0, 1, n)),
    }
    return ComparisonTable(
        kind=[GENUINE] * n, eye=["L"] * n,
        gallery_image_id=[f"g{i}" for i in range(n)],
        probe_image_id=[f"p{i}" for i in range(n)],
        gallery_subject=subjects, probe_subject=subjects,
        gap_T_months=t.astype(int), delta_age_years=np.floor(t / 12).astype(int), DC=dc,
        **covariates, scores={score_name: y},
    )


def with_columns(table, **columns):
    """`table` with `columns` in place of its columns of those names."""
    return ComparisonTable(**{**{name: getattr(table, name) for name in
                                 (*PAIR_COLUMNS, *JOINED_COLUMNS)}, **columns},
                           scores=table.scores)


def central_diff_grad(fun, x):
    """Central finite differences, the oracle of the analytic derivatives."""
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


def gls_beta(y, X, t, group_index, Sigma, sigma2, reml=True):
    """GLS fixed effects and their covariance with the variance components
    frozen: the fit's evaluator at the log-Cholesky parameters of Sigma / sigma2."""
    gs = lmm._GroupStats(y, X, t, group_index)
    ev = lmm._evaluate(lmm._pack_factor(np.linalg.cholesky(Sigma / sigma2)), gs, reml=reml)
    return ev.beta, sigma2 * ev.XtWX_inv


def ragged_design(rng):
    """(y, X, t, group_index) of 9 subjects with unequal row counts, one of
    them a single row, and group index 4 unused; rows shuffled across groups."""
    sizes = [7, 3, 1, 5, 0, 9, 2, 4, 6, 8]
    g = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    n = len(g)
    t = rng.uniform(0, 3, n)
    X = np.column_stack([np.ones(n), rng.normal(0, 1, n), t])
    y = 1.0 + rng.normal(0, 0.8, len(sizes))[g] + rng.normal(0, 1, n)
    return y, X, t, g


def random_design(t, group_index, q):
    """Dense Z of the random intercept (q = 1) or intercept and slope (q = 2),
    one block of q columns per group index."""
    Z = np.zeros((len(t), q * (int(group_index.max()) + 1)))
    Z[np.arange(len(t)), q * group_index] = 1.0
    if q == 2:
        Z[np.arange(len(t)), q * group_index + 1] = t
    return Z


class TestBuildDesign:
    def test_column_count_apc_plus_quality(self):
        rng = np.random.default_rng(0)
        table = make_model_table(rng)
        spec = ModelSpec(outcome="m1", fixed_terms=(Continuous("Q_gallery"),),
                         apc_mode="gallery_age_plus_t")
        design = build_design(table, spec)
        assert design.column_names == ["intercept", "A_gallery", "T", "Q_gallery"]
        assert design.X.shape[1] == 4

    def test_age_groups_three_dummies(self):
        rng = np.random.default_rng(1)
        table = make_model_table(rng, n_subjects=60)
        spec = ModelSpec(outcome="m1", fixed_terms=(AgeGroups(),), apc_mode=None)
        design = build_design(table, spec)
        dummies = [c for c in design.column_names if c.startswith("A_gallery[")]
        assert dummies == ["A_gallery[6-7]", "A_gallery[8-9]", "A_gallery[10-12]"]

    @pytest.mark.parametrize("bins", [((4, 8), (6, 12)), ((6, 12), (4, 6)), ((4, 9), (5, 5))])
    def test_overlapping_age_groups_refused(self, bins):
        # an age in two bins would count in the later one alone
        with pytest.raises(ValueError, match="overlap"):
            AgeGroups(bins)
        assert AgeGroups(((4, 5), (6, 12))).labels() == ["4-5", "6-12"]

    def test_interaction_is_elementwise_product(self):
        rng = np.random.default_rng(2)
        table = make_model_table(rng)
        spec = ModelSpec(outcome="m1",
                         fixed_terms=(Interaction("A_gallery", "T"),),
                         apc_mode="gallery_age_plus_t")
        design = build_design(table, spec)
        j = design.column_names.index("A_gallery:T")
        ja = design.column_names.index("A_gallery")
        jt = design.column_names.index("T")
        np.testing.assert_array_equal(design.X[:, j],
                                      design.X[:, ja] * design.X[:, jt])

    def test_missing_rows_dropped_and_counted(self):
        rng = np.random.default_rng(3)
        table = make_model_table(rng)
        q = table.Q_gallery.copy()
        q.flags.writeable = True
        q[:7] = np.nan
        table = with_columns(table, Q_gallery=q)
        spec = ModelSpec(outcome="m1", fixed_terms=(Continuous("Q_gallery"),))
        design = build_design(table, spec)
        assert design.n_dropped_missing == 7
        assert design.n_obs == len(table) - 7

    def test_no_row_left_to_model_is_named_before_a_factor_level(self):
        # with no row left every age-group dummy is all zero: the empty design is named
        table = make_model_table(np.random.default_rng(3))
        spec = ModelSpec(outcome="m1", fixed_terms=(AgeGroups(), Continuous("Q_gallery")))
        for rows, dropped in ((np.zeros(len(table), dtype=bool), "0 of 0"),
                              (np.ones(len(table), dtype=bool), f"{len(table)} of {len(table)}")):
            part = table.select(rows)
            part = with_columns(part, Q_gallery=np.full(len(part), np.nan))
            with pytest.raises(ModelError, match=rf"^no rows left to model \({dropped} genuine "
                                                 r"rows dropped for missing values\)$"):
                build_design(part, spec)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_group_index_codes_the_kept_subjects_as_np_unique_did(self, seed):
        # subjects in shuffled row order, two dropped whole by a missing outcome
        # and some others' rows, so that codes must be dense over kept subjects
        rng = np.random.default_rng(seed)
        table = make_model_table(rng, n_subjects=30, obs_per=5)
        table = table.select(rng.permutation(len(table)))
        kept = ~np.isin(table.gallery_subject, ["S0000", "S0017"]) \
            & (rng.uniform(size=len(table)) > 0.2)
        y = np.where(kept, table.scores["m1"], np.nan)
        design = build_design(table.with_scores({"m1": y}), ModelSpec(outcome="m1"))
        assert design.n_dropped_missing == int((~kept).sum())
        assert design.group_index.dtype == np.int64
        assert design.group_index.tolist() == _group_index_oracle(table, kept).tolist()

    def test_rank_deficiency_names_offender(self):
        rng = np.random.default_rng(4)
        table = make_model_table(rng)
        spec = ModelSpec(outcome="m1", fixed_terms=(Continuous("T"),),
                         apc_mode="gallery_age_plus_t")   # T twice
        with pytest.raises(RankDeficientError) as err:
            build_design(table, spec)
        assert "T" in err.value.columns


def _group_index_oracle(table, kept):
    """The subject codes build_design gave before core.encode: np.unique of
    the kept rows' subject strings. Kept as the oracle."""
    return np.unique(table.gallery_subject[kept], return_inverse=True)[1].ravel()


def _greedy_independent_columns(X):
    """The rank check build_design made before its QR version: one least
    squares per column against the columns kept so far. Kept as the oracle."""
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


class TestRankCheck:
    @pytest.mark.parametrize("seed", range(40))
    def test_qr_mask_matches_greedy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(6, 80)), int(rng.integers(2, 10))
        X = rng.normal(0, 1, (n, p)) * rng.uniform(0.01, 100.0, p)
        X[:, 0] = 1.0
        X[:, rng.integers(1, p)] = rng.integers(0, 13, n)   # integer-valued ages
        for _ in range(int(rng.integers(1, 4))):
            j, k, l = rng.integers(1, p), rng.integers(p), rng.integers(p)
            kind = rng.integers(3)
            if kind == 0:
                X[:, j] = 0.0
            elif kind == 1:
                X[:, j] = X[:, k]
            else:
                X[:, j] = 2.5 * X[:, k] - 0.75 * X[:, l]
        np.testing.assert_array_equal(lmm._independent_columns(X),
                                      _greedy_independent_columns(X))

    def test_offending_columns_match_greedy_oracle(self, monkeypatch):
        table = make_model_table(np.random.default_rng(33))
        table = with_columns(table, U_gallery=2.0 * table.Q_gallery + 3.0)
        spec = ModelSpec(outcome="m1", apc_mode="gallery_age_plus_t",
                         fixed_terms=(Continuous("Q_gallery"), Continuous("U_gallery"),
                                      Continuous("T")))
        with pytest.raises(RankDeficientError) as qr:
            build_design(table, spec)
        monkeypatch.setattr(lmm, "_independent_columns", _greedy_independent_columns)
        with pytest.raises(RankDeficientError) as greedy:
            build_design(table, spec)
        assert qr.value.columns == greedy.value.columns == ("U_gallery", "T")


class TestFitReml:
    def test_balanced_anova_oracle(self):
        rng = np.random.default_rng(5)
        m, n_per = 80, 8
        y = (np.repeat(rng.normal(0, 1.4, m), n_per)
             + rng.normal(0, 0.9, m * n_per) + 3.0)
        g = np.repeat(np.arange(m), n_per)
        X = np.ones((m * n_per, 1))
        fit = fit_reml(y, X, None, g)

        ybar_i = y.reshape(m, n_per).mean(axis=1)
        msb = n_per * np.sum((ybar_i - y.mean()) ** 2) / (m - 1)
        msw = np.sum((y.reshape(m, n_per) - ybar_i[:, None]) ** 2) / (m * (n_per - 1))
        assert fit.Sigma[0, 0] == pytest.approx((msb - msw) / n_per, rel=1e-6)
        assert fit.sigma2 == pytest.approx(msw, rel=1e-6)
        assert fit.converged

    def test_gls_identity_against_dense_oracle(self):
        rng = np.random.default_rng(6)
        m, n_per = 25, 6
        n = m * n_per
        g = np.repeat(np.arange(m), n_per)
        t = rng.uniform(0, 10, n)
        X = np.column_stack([np.ones(n), t, rng.normal(0, 1, n)])
        y = rng.normal(0, 2, n)
        Sigma = np.array([[2.0, 0.3], [0.3, 0.5]])
        sigma2 = 1.7
        y_r, X_r, t_r, g_r = ragged_design(rng)
        for y, X, t, g in ((y, X, t, g), (y_r, X_r, t_r, g_r)):
            for q in (1, 2):
                Z = random_design(t, g, q)
                G = np.kron(np.eye(Z.shape[1] // q), Sigma[:q, :q])
                Vi = np.linalg.inv(sigma2 * np.eye(len(y)) + Z @ G @ Z.T)
                beta_dense = np.linalg.solve(X.T @ Vi @ X, X.T @ Vi @ y)
                cov_dense = np.linalg.inv(X.T @ Vi @ X)
                for reml in (True, False):
                    beta_fast, cov_fast = gls_beta(y, X, t if q == 2 else None, g,
                                                   Sigma[:q, :q], sigma2, reml)
                    np.testing.assert_allclose(beta_fast, beta_dense, atol=1e-8)
                    np.testing.assert_allclose(cov_fast, cov_dense, rtol=1e-7)

    def test_analytic_gradient_matches_central_differences(self):
        from longmatch.lmm import _GroupStats, _evaluate
        rng = np.random.default_rng(30)
        m, n_per = 15, 6
        n = m * n_per
        g = np.repeat(np.arange(m), n_per)
        t = rng.uniform(0, 3, n)
        X = np.column_stack([np.ones(n), rng.normal(0, 1, n)])
        y = 2.0 + 0.4 * np.repeat(rng.normal(0, 1, m), n_per) + rng.normal(0, 1, n)
        y_r, X_r, t_r, g_r = ragged_design(rng)
        for q, gs in ((1, _GroupStats(y, X, None, g)), (2, _GroupStats(y, X, t, g)),
                      (1, _GroupStats(y_r, X_r, None, g_r)), (2, _GroupStats(y_r, X_r, t_r, g_r))):
            for reml in (True, False):
                for trial in range(5):
                    params = rng.uniform(-1.0, 0.5, 1 if q == 1 else 3)
                    grad = _evaluate(params, gs, reml).grad
                    fd = central_diff_grad(
                        lambda prm: _evaluate(prm, gs, reml).crit, params)
                    np.testing.assert_allclose(grad, fd, rtol=2e-5, atol=1e-6)

    def test_analytic_hessian_matches_central_differences(self):
        from longmatch.lmm import _GroupStats, _evaluate
        rng = np.random.default_rng(32)
        m, n_per = 15, 6
        n = m * n_per
        g = np.repeat(np.arange(m), n_per)
        t = rng.uniform(0, 3, n)
        X = np.column_stack([np.ones(n), rng.normal(0, 1, n)])
        y = 2.0 + 0.4 * np.repeat(rng.normal(0, 1, m), n_per) + rng.normal(0, 1, n)
        y_r, X_r, t_r, g_r = ragged_design(rng)
        for q, gs in ((1, _GroupStats(y, X, None, g)), (2, _GroupStats(y, X, t, g)),
                      (1, _GroupStats(y_r, X_r, None, g_r)), (2, _GroupStats(y_r, X_r, t_r, g_r))):
            for reml in (True, False):
                for trial in range(5):
                    params = rng.uniform(-1.0, 0.5, 1 if q == 1 else 3)
                    hess = _evaluate(params, gs, reml).hess
                    fd = np.array([central_diff_grad(
                        lambda prm, k=k: _evaluate(prm, gs, reml).grad[k], params)
                        for k in range(len(params))])
                    np.testing.assert_allclose(hess, fd, rtol=2e-5, atol=1e-6)

    def test_reml_criterion_against_dense_formula(self):
        # the collapsed per-subject criterion must equal the textbook dense one
        from longmatch.lmm import _GroupStats, _evaluate, _unpack_factor
        rng = np.random.default_rng(7)
        m, n_per = 12, 5
        n = m * n_per
        g = np.repeat(np.arange(m), n_per)
        t = rng.uniform(0, 3, n)
        X = np.column_stack([np.ones(n), rng.normal(0, 1, n)])
        y = rng.normal(0, 1, n)
        y_r, X_r, t_r, g_r = ragged_design(rng)
        for y, X, t, g in ((y, X, t, g), (y_r, X_r, t_r, g_r)):
            n, p = X.shape
            for q, params in ((1, np.array([0.3])), (2, np.array([0.3, -0.2, -0.5]))):
                gs = _GroupStats(y, X, t if q == 2 else None, g)
                lam = _unpack_factor(params, q)
                Z = random_design(t, g, q)
                W = np.eye(n) + Z @ np.kron(np.eye(Z.shape[1] // q), lam @ lam.T) @ Z.T
                Wi = np.linalg.inv(W)
                XtWX = X.T @ Wi @ X
                beta = np.linalg.solve(XtWX, X.T @ Wi @ y)
                r = y - X @ beta
                ryWy = r @ Wi @ r
                for reml in (True, False):
                    fast = _evaluate(params, gs, reml=reml)
                    dof = n - p if reml else n
                    dense = (dof * np.log(2 * np.pi) + np.linalg.slogdet(W)[1]
                             + (np.linalg.slogdet(XtWX)[1] if reml else 0.0)
                             + dof * (1 + np.log(ryWy / dof)))
                    assert fast.crit == pytest.approx(dense, rel=1e-10)
                    assert fast.quadform == pytest.approx(ryWy, rel=1e-10)

    def test_noiseless_degenerate_recovery(self):
        rng = np.random.default_rng(8)
        m, n_per = 30, 5
        n = m * n_per
        g = np.repeat(np.arange(m), n_per)
        t = rng.uniform(0, 10, n)
        X = np.column_stack([np.ones(n), t, rng.normal(0, 1, n)])
        beta_true = np.array([2.0, -0.3, 1.1])
        y = X @ beta_true + rng.normal(0, 1e-6, n)
        fit = fit_reml(y, X, t, g)
        np.testing.assert_allclose(fit.beta, beta_true, atol=1e-4)
        assert fit.diagnostics["boundary"]

    def test_error_conditions(self):
        rng = np.random.default_rng(9)
        y = rng.normal(0, 1, 20)
        X = np.ones((20, 1))
        g = np.repeat(np.arange(4), 5)
        with pytest.raises(ModelError, match="identical"):
            fit_reml(np.ones(20), X, None, g)
        with pytest.raises(ModelError, match="singular"):
            fit_reml(y, np.column_stack([X, X]), None, g)
        with pytest.raises(ModelError, match="subjects"):
            fit_reml(y, X, None, np.zeros(20, dtype=int))

    def test_bare_arrays_are_checked_for_rank_first(self):
        # one subject and a rank-deficient X: the design check comes first,
        # as it does in build_design
        y = np.random.default_rng(9).normal(0, 1, 20)
        X = np.ones((20, 1))
        with pytest.raises(ModelError, match="singular fixed-effects design"):
            fit_reml(y, np.column_stack([X, X]), None, np.zeros(20, dtype=int))
        for keyword in ("design", "start"):
            with pytest.raises(TypeError, match=keyword):
                fit_reml(y, X, None, np.repeat(np.arange(4), 5), **{keyword: None})

    @pytest.mark.parametrize("value", [1 / 3, 0.1, 60.0])
    def test_constant_outcome_raises_whatever_its_rounding(self, value):
        # the sample sd of twenty 1/3s or 0.1s is about 1e-17, not 0
        with pytest.raises(ModelError, match=r"outcome is constant \(all-identical y\)"):
            fit_reml(np.full(20, value), np.ones((20, 1)), None, np.repeat(np.arange(4), 5))
        table = make_model_table(np.random.default_rng(13), n_subjects=10, obs_per=4)
        constant = table.with_scores({"m1": np.full(len(table), value)})
        with pytest.raises(ModelError, match=r"outcome is constant \(all-identical y\)"):
            fit_spec(constant, ModelSpec(outcome="m1"))
        with pytest.raises(ModelError, match="cannot standardize a constant outcome"):
            build_design(constant, ModelSpec(outcome="m1", standardize_outcome=True))

    def test_subjects_are_the_distinct_codes(self):
        rng = np.random.default_rng(34)
        y = np.repeat(rng.normal(0, 1, 2), 10) + rng.normal(0, 1, 20)
        X = np.ones((20, 1))
        dense = fit_reml(y, X, None, np.repeat([0, 1], 10))
        sparse = fit_reml(y, X, None, np.repeat([0, 7], 10))
        assert sparse.n_subjects == dense.n_subjects == 2
        for name in ("beta", "se", "Sigma", "sigma2", "loglik", "log_cholesky"):
            np.testing.assert_array_equal(getattr(sparse, name), getattr(dense, name))
        with pytest.raises(ModelError, match="at least 2 subjects"):
            fit_reml(y, X, None, np.full(20, 5))

    def test_outcome_spread_beyond_float64_raises_model_error(self):
        # build_design's rule holds for a direct call too: no overflow
        # warning, and ModelError in place of a ZeroDivisionError
        y = np.random.default_rng(11).normal(0, 1, 100)
        y[7] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="spread of the outcome overflows float64"):
                fit_reml(y, np.ones((100, 1)), None, np.repeat(np.arange(20), 5))

    def test_order_invariance(self):
        rng = np.random.default_rng(10)
        table = make_model_table(rng, n_subjects=30, obs_per=8,
                                 Sigma=[[1.0, 0.0], [0.0, 0.001]])
        spec = ModelSpec(outcome="m1", fixed_terms=(Continuous("Q_gallery"),))
        fit = fit_spec(table, spec)
        perm = rng.permutation(len(table))
        fit2 = fit_spec(table.select(perm), spec)
        np.testing.assert_allclose(fit2.beta, fit.beta, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fit2.Sigma, fit.Sigma, rtol=0, atol=1e-10)

    def test_affine_outcome_scaling_invariance(self):
        rng = np.random.default_rng(11)
        table = make_model_table(rng, n_subjects=30, obs_per=8,
                                 beta={"intercept": 400.0, "T": -0.5,
                                       "Q_gallery": 1.2},
                                 Sigma=[[80.0, 0.0], [0.0, 0.01]], sigma2=50.0)
        spec = ModelSpec(outcome="m1", fixed_terms=(Continuous("Q_gallery"),))
        fit_raw = fit_spec(table, spec)

        s = float(np.std(table.scores["m1"], ddof=1))
        scaled = table.with_scores({"m1": table.scores["m1"] / s})
        fit_scaled = fit_spec(scaled, spec)
        np.testing.assert_allclose(fit_scaled.z_stats, fit_raw.z_stats,
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(fit_scaled.p_values, fit_raw.p_values,
                                   rtol=0, atol=1e-8)
        np.testing.assert_allclose(fit_scaled.beta, fit_raw.beta / s, rtol=1e-10)

    def test_z_standardized_spec_keeps_noninterceptz(self):
        rng = np.random.default_rng(12)
        table = make_model_table(rng, n_subjects=30, obs_per=8,
                                 beta={"intercept": 400.0, "T": -0.5},
                                 Sigma=[[80.0, 0.0], [0.0, 0.01]], sigma2=50.0)
        spec = ModelSpec(outcome="m1")
        fit_raw = fit_spec(table, spec)
        fit_std = fit_spec(table, dataclasses.replace(spec, standardize_outcome=True))
        for name in fit_raw.column_names[1:]:
            _, _, z_raw, _ = fit_raw.coefficient(name)
            _, _, z_std, _ = fit_std.coefficient(name)
            assert z_std == pytest.approx(z_raw, abs=1e-8)

    def test_aic_identity_and_local_optimum(self):
        rng = np.random.default_rng(13)
        table = make_model_table(rng)
        fit = fit_spec(table, ModelSpec(outcome="m1"))
        assert fit.aic == pytest.approx(2 * fit.n_params - 2 * fit.loglik, abs=1e-10)
        assert fit.diagnostics["local_optimum_ok"]


class TestLrt:
    def _fits(self, rng, beta=None, n_subjects=40):
        table = make_model_table(rng, n_subjects=n_subjects,
                                 beta=beta or {"intercept": 10.0, "T": -0.2},
                                 Sigma=[[2.0, 0.0], [0.0, 0.002]], sigma2=1.0)
        with_t = ModelSpec(outcome="m1", apc_mode="gallery_age_plus_t")
        without_t = ModelSpec(outcome="m1", apc_mode=None,
                              fixed_terms=(Continuous("A_gallery"),))
        return fit_spec(table, with_t), fit_spec(table, without_t)

    def test_identical_models(self):
        rng = np.random.default_rng(14)
        fit, _ = self._fits(rng)
        res = likelihood_ratio_test(fit, fit)
        assert res.chi2 == 0.0
        assert res.df == 0
        assert res.p == 1.0

    def test_true_temporal_effect_rejected_strongly(self):
        rng = np.random.default_rng(15)
        full, nested = self._fits(rng, beta={"intercept": 10.0, "T": -0.5})
        res = likelihood_ratio_test(nested, full)
        assert res.used_method == "ml"   # fixed effects differ
        assert res.df == 1
        assert res.chi2 > 10.828   # chi2(1) critical value at p = 0.001
        assert res.p < 0.001

    def test_random_slope_test_uses_reml(self):
        rng = np.random.default_rng(16)
        table = make_model_table(rng, Sigma=[[2.0, 0.0], [0.0, 0.01]])
        spec_slope = ModelSpec(outcome="m1")
        spec_int = dataclasses.replace(spec_slope, random_structure="intercept")
        full = fit_spec(table, spec_slope)
        nested = fit_spec(table, spec_int)
        res = likelihood_ratio_test(nested, full)
        assert res.used_method == "reml"
        assert res.df == 2
        assert res.chi2 >= 0.0

    @pytest.mark.parametrize("seed, slope_var", [(17, 0.0), (16, 0.0005)])
    def test_random_slope_lrt_uses_chi_bar_square(self, seed, slope_var):
        # the slope variance lies on the boundary under the null: chi2 is
        # referred to 0.5 chi2(1) + 0.5 chi2(2), whose tail has the closed form
        # 0.5 erfc(sqrt(c / 2)) + 0.5 exp(-c / 2)
        rng = np.random.default_rng(seed)
        table = make_model_table(rng, Sigma=[[2.0, 0.0], [0.0, slope_var]])
        spec_slope = ModelSpec(outcome="m1")
        spec_int = dataclasses.replace(spec_slope, random_structure="intercept")
        res = likelihood_ratio_test(fit_spec(table, spec_int), fit_spec(table, spec_slope))
        assert res.df == 2 and res.chi2 > 0.0
        assert res.null_distribution == "0.5 chi2(1) + 0.5 chi2(2)"
        half = res.chi2 / 2.0
        oracle = 0.5 * math.erfc(math.sqrt(half)) + 0.5 * math.exp(-half)
        assert res.p == pytest.approx(oracle, rel=1e-12)
        assert res.p < math.exp(-half)   # below the plain chi2(2) tail

    def test_mismatched_rows_rejected(self):
        rng = np.random.default_rng(17)
        fit_a, _ = self._fits(rng)
        fit_b, _ = self._fits(rng)
        with pytest.raises(ModelError, match="identical rows"):
            likelihood_ratio_test(fit_a, fit_b)

    def test_non_nested_rejected(self):
        rng = np.random.default_rng(18)
        table = make_model_table(rng)
        a = fit_spec(table, ModelSpec(outcome="m1", apc_mode="probe_age_plus_t"))
        b = fit_spec(table, ModelSpec(outcome="m1", apc_mode="gallery_age_plus_t"))
        with pytest.raises(ModelError, match="not nested"):
            likelihood_ratio_test(a, b)


class TestDerivedStats:
    def test_icc_by_construction(self):
        rng = np.random.default_rng(19)
        m, n_per = 200, 20
        y = (np.repeat(rng.normal(0, np.sqrt(0.65), m), n_per)
             + rng.normal(0, np.sqrt(0.35), m * n_per))
        g = np.repeat(np.arange(m), n_per)
        fit = fit_reml(y, np.ones((m * n_per, 1)), None, g)
        assert icc(fit) == pytest.approx(0.65, abs=0.02)

    def test_icc_zero_and_one_limits(self):
        rng = np.random.default_rng(20)
        m, n_per = 60, 10
        g = np.repeat(np.arange(m), n_per)
        X = np.ones((m * n_per, 1))
        y_no_group = rng.normal(0, 1, m * n_per)
        fit0 = fit_reml(y_no_group, X, None, g)
        assert icc(fit0) < 0.05
        y_pure_group = np.repeat(rng.normal(0, 1, m), n_per) \
            + rng.normal(0, 1e-4, m * n_per)
        fit1 = fit_reml(y_pure_group, X, None, g)
        assert icc(fit1) > 0.99

    def test_icc_requires_intercept_only(self):
        rng = np.random.default_rng(21)
        table = make_model_table(rng)
        fit = fit_spec(table, ModelSpec(outcome="m1"))
        with pytest.raises(ModelError):
            icc(fit)

    def test_marginal_r2_limits(self):
        rng = np.random.default_rng(22)
        table = make_model_table(rng, beta={"intercept": 5.0, "T": -0.1},
                                 Sigma=[[0.5, 0], [0, 0.001]], sigma2=0.5)
        fit = fit_spec(table, ModelSpec(outcome="m1"))
        zeroed = dataclasses.replace(fit, beta=np.zeros_like(fit.beta))
        assert marginal_r2(zeroed) == 0.0

        noiseless = make_model_table(np.random.default_rng(23),
                                     beta={"intercept": 5.0, "T": -0.1,
                                           "Q_gallery": 0.5},
                                     Sigma=[[0, 0], [0, 0]], sigma2=1e-10)
        fitn = fit_spec(noiseless, ModelSpec(
            outcome="m1", fixed_terms=(Continuous("Q_gallery"),)))
        assert marginal_r2(fitn) > 0.999

    def test_vif_orthogonal_and_duplicate(self):
        rng = np.random.default_rng(24)
        a = rng.normal(0, 1, 500)
        a -= a.mean()
        b = rng.normal(0, 1, 500)
        b -= (b @ a) / (a @ a) * a
        b -= b.mean()
        X = np.column_stack([a, b])
        out = vif(X, ["a", "b"])
        assert out["a"] == pytest.approx(1.0, abs=1e-9)
        assert out["b"] == pytest.approx(1.0, abs=1e-9)

        X_dup = np.column_stack([np.ones(500), a, a, b])
        out = vif(X_dup, ["intercept", "a", "a_copy", "b"])
        assert out["a"] == float("inf")
        assert out["a_copy"] == float("inf")

    def test_vif_requires_two_predictors(self):
        with pytest.raises(ValueError):
            vif(np.column_stack([np.ones(10), np.arange(10.0)]))


class TestAgeGroupOffsets:
    def test_injected_group_offsets_recovered(self):
        rng = np.random.default_rng(31)
        table = make_model_table(rng, n_subjects=120, obs_per=20,
                                 beta={"intercept": 500.0, "T": -0.4,
                                       "Q_gallery": 1.0},
                                 Sigma=[[60.0**2, 0.0], [0.0, 0.5**2]],
                                 sigma2=50.0**2)
        offsets = {(4, 5): 0.0, (6, 7): 10.0, (8, 9): 35.0, (10, 12): 71.0}
        ages = table.A_gallery
        bump = np.zeros(len(table))
        for (lo, hi), off in offsets.items():
            bump[(ages >= lo) & (ages <= hi)] = off
        y = table.scores["m1"] + bump
        y.flags.writeable = False
        table = table.with_scores({"m1": y})

        spec = ModelSpec(outcome="m1", apc_mode=None,
                         fixed_terms=(Continuous("T"), AgeGroups(),
                                      Continuous("Q_gallery")))
        fit = fit_spec(table, spec)
        for label, truth in (("6-7", 10.0), ("8-9", 35.0), ("10-12", 71.0)):
            beta, se, _, _ = fit.coefficient(f"A_gallery[{label}]")
            assert abs(beta - truth) < 3.0 * se, (label, beta, se)


class TestCompareApc:
    def test_bookkeeping_identity(self):
        rng = np.random.default_rng(25)
        table = make_model_table(rng, n_subjects=30, obs_per=10,
                                 beta={"intercept": 10.0, "T": -0.1},
                                 Sigma=[[1.0, 0], [0, 0.001]])
        report = compare_apc(table, ModelSpec(outcome="m1"))
        assert len(report.entries) == 3
        counts = {e.n_obs for e in report.entries}
        assert len(counts) == 1
        y = report.entries[0].fit.design.y
        assert all(np.array_equal(e.fit.design.y, y) for e in report.entries[1:])
        assert "A_probe" in report.overidentified.vifs


class TestMatcherComparison:
    def test_report_renders(self):
        rng = np.random.default_rng(27)
        table = make_model_table(rng)
        fit = fit_spec(table, ModelSpec(outcome="m1"))
        text = format_fit_report(fit, "demo")
        assert "variance components" in text
        assert "marginal R2" in text


def test_refit_method_round_trip():
    rng = np.random.default_rng(28)
    table = make_model_table(rng)
    fit = fit_spec(table, ModelSpec(outcome="m1"))
    fit_ml = refit(fit, "ml")
    assert fit_ml.method == "ml"
    assert fit_ml.loglik != fit.loglik
    assert refit(fit, "reml") is fit


def test_each_design_is_checked_and_ordered_once(monkeypatch):
    calls = collections.Counter()
    for name in ("_independent_columns", "_canonical_order", "_fit"):
        def counted(*args, _name=name, _fn=getattr(lmm, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(lmm, name, counted)
    table = make_model_table(np.random.default_rng(29))
    fit = fit_spec(table, ModelSpec(outcome="m1"))
    assert calls == {"_independent_columns": 1, "_canonical_order": 1, "_fit": 1}
    calls.clear()
    refit(fit, "ml")
    assert calls == {"_fit": 1}
    calls.clear()
    compare_apc(table, ModelSpec(outcome="m1"))
    assert calls == {"_independent_columns": 4, "_canonical_order": 4, "_fit": 7}


def _interior_fits():
    """The interior (non-boundary) fits of this module's tests, rebuilt from
    the same seeds: intercept-only, random slope, misspecified nested models
    and their ML refits."""
    rng = np.random.default_rng(5)
    m, n_per = 80, 8
    y = np.repeat(rng.normal(0, 1.4, m), n_per) + rng.normal(0, 0.9, m * n_per) + 3.0
    fits = [fit_reml(y, np.ones((m * n_per, 1)), None, np.repeat(np.arange(m), n_per))]
    table = make_model_table(np.random.default_rng(10), n_subjects=30, obs_per=8,
                             Sigma=[[1.0, 0.0], [0.0, 0.001]])
    fits.append(fit_spec(table, ModelSpec(outcome="m1", fixed_terms=(Continuous("Q_gallery"),))))
    fits.append(fit_spec(make_model_table(np.random.default_rng(13)), ModelSpec(outcome="m1")))
    fits += TestLrt()._fits(np.random.default_rng(14))
    full, nested = TestLrt()._fits(np.random.default_rng(15), beta={"intercept": 10.0, "T": -0.5})
    fits += [full, nested, refit(full, "ml"), refit(nested, "ml")]
    rng = np.random.default_rng(17)
    fits += TestLrt()._fits(rng) + TestLrt()._fits(rng)
    table = make_model_table(np.random.default_rng(16), Sigma=[[2.0, 0.0], [0.0, 0.01]])
    fits.append(fit_spec(table, ModelSpec(outcome="m1", random_structure="intercept")))
    fits.append(fit_spec(table, ModelSpec(outcome="m1")))
    rng = np.random.default_rng(19)
    m, n_per = 200, 20
    y = np.repeat(rng.normal(0, np.sqrt(0.65), m), n_per) + rng.normal(0, np.sqrt(0.35), m * n_per)
    fits.append(fit_reml(y, np.ones((m * n_per, 1)), None, np.repeat(np.arange(m), n_per)))
    table = make_model_table(np.random.default_rng(26), n_subjects=50, obs_per=15,
                             beta={"intercept": 100.0, "T": -0.5},
                             Sigma=[[25.0, 0], [0, 0.01]], sigma2=9.0, score_name="A")
    table = table.with_scores({**table.scores, "B": 0.004 * table.gap_T_months
                               + np.random.default_rng(27).normal(0, 0.05, len(table))})
    # two matchers stacked: each one's scores z-scored within eye, the quality
    # terms and T shared, a matcher indicator and its product with T
    z = []
    for name in ("A", "B"):
        scores = table.score(name).copy()
        for eye in ("L", "R"):
            sel = table.eye == eye
            if sel.any():
                scores[sel] = (scores[sel] - scores[sel].mean()) / scores[sel].std(ddof=1)
        z.append(scores)
    n = len(table)
    t = np.tile(table.column("T"), 2)
    indicator = np.repeat([0.0, 1.0], n)
    X = np.column_stack([np.ones(2 * n), *(np.tile(table.column(c), 2) for c in QUALITY_TERMS),
                         t, indicator, indicator * t])
    groups = np.unique(table.gallery_subject, return_inverse=True)[1]
    fits.append(fit_reml(np.concatenate(z), X, t, np.tile(groups, 2)))
    return fits


def test_interior_fits_take_at_most_ten_evaluations():
    fits = _interior_fits()
    assert len(fits) == 17
    for fit in fits:
        diag = fit.diagnostics
        assert not diag["boundary"]
        assert fit.converged and diag["local_optimum_ok"]
        assert diag["evaluations"] <= 10, diag
        assert fit.iterations == diag["newton_steps"]
        assert diag["projected_gradient_norm"] <= 1e-6 * abs(diag["criterion"])
        assert diag["min_hessian_eigenvalue"] > 0.0
