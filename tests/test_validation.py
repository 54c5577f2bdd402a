import json

import numpy as np
import pytest

from longmatch.cli import main
from longmatch.lmm import (
    Continuous, ModelSpec, build_design, fit_reml, fit_spec, marginal_r2,
)
from longmatch.rng import shuffled
from longmatch.validation import kfold_subject_cv, residual_diagnostics

from test_lmm import make_model_table


def _folds_oracle(table, k, seed):
    """(fold subjects, held-out row masks) as kfold_subject_cv dealt them
    before core.encode: np.unique of the subject strings, shuffled as strings,
    and each fold mapped back to codes by searchsorted. Kept as the oracle."""
    ids, codes = np.unique(table.gallery_subject, return_inverse=True)
    order = shuffled(ids.tolist(), seed)
    folds = [tuple(order[i::k]) for i in range(k)]
    return folds, [np.isin(codes, np.searchsorted(ids, fold)) for fold in folds]


class TestKfoldSubjectCv:
    def _table(self, rng, **kw):
        return make_model_table(rng, n_subjects=kw.pop("n_subjects", 25),
                                obs_per=kw.pop("obs_per", 8), **kw)

    def test_folds_partition_subjects(self):
        rng = np.random.default_rng(40)
        table = self._table(rng)
        spec = ModelSpec(outcome="m1")
        report = kfold_subject_cv(table, spec, k=5, seed=3)
        all_subjects = [s for fold in report.fold_subjects for s in fold]
        subjects = sorted(set(table.gallery_subject.tolist()))
        assert sorted(all_subjects) == subjects
        # the sorted subjects, shuffled by the seed and dealt round-robin
        order = shuffled(subjects, 3)
        assert report.fold_subjects == tuple(tuple(order[i::5]) for i in range(5))
        assert len(all_subjects) == len(set(all_subjects))
        assert len(report.per_fold) == 5

    @pytest.mark.parametrize("k, seed", [(2, 0), (4, 9), (7, 123)])
    def test_folds_and_held_out_rows_as_the_string_oracle_dealt_them(self, k, seed):
        rng = np.random.default_rng(seed)
        table = self._table(rng, n_subjects=21, obs_per=6)
        table = table.select(rng.permutation(len(table)))   # subjects out of row order
        spec = ModelSpec(outcome="m1")
        report = kfold_subject_cv(table, spec, k=k, seed=seed)
        folds, held_out = _folds_oracle(table, k, seed)
        assert report.fold_subjects == tuple(folds)
        for result, fold, mask in zip(report.per_fold, folds, held_out):
            assert (result.n_test_subjects, result.n_test_rows) == (len(fold), int(mask.sum()))
        fit = fit_spec(table.select(~held_out[0]), spec)
        design = build_design(table.select(held_out[0]), spec, like=fit.design)
        err = design.y - fit.predict_fixed(design.X)
        assert report.per_fold[0].rmse == float(np.sqrt(np.mean(err ** 2)))

    def test_same_seed_same_folds(self):
        rng = np.random.default_rng(41)
        table = self._table(rng)
        spec = ModelSpec(outcome="m1")
        a = kfold_subject_cv(table, spec, k=4, seed=9)
        b = kfold_subject_cv(table, spec, k=4, seed=9)
        assert a.fold_subjects == b.fold_subjects
        assert a.mean_oos_r2 == b.mean_oos_r2

    def test_zero_noise_zero_random_effects(self):
        rng = np.random.default_rng(42)
        table = self._table(rng, beta={"intercept": 5.0, "T": -0.1,
                                       "Q_gallery": 0.4},
                            Sigma=[[0.0, 0.0], [0.0, 0.0]], sigma2=1e-12)
        spec = ModelSpec(outcome="m1", fixed_terms=(Continuous("Q_gallery"),))
        report = kfold_subject_cv(table, spec, k=3, seed=1)
        assert report.mean_oos_r2 > 0.999999

    def test_rmse_identity(self):
        rng = np.random.default_rng(43)
        table = self._table(rng)
        spec = ModelSpec(outcome="m1")
        report = kfold_subject_cv(table, spec, k=3, seed=2)
        # recompute one fold's RMSE by hand from a refit
        fold = report.per_fold[0]
        held = set(report.fold_subjects[0])
        mask = np.fromiter((s in held for s in table.gallery_subject),
                           dtype=bool, count=len(table))
        from longmatch.lmm import build_design
        train_design = build_design(table.select(~mask), spec)
        fit = fit_reml(train_design.y, train_design.X, train_design.t,
                       train_design.group_index)
        test_design = build_design(table.select(mask), spec, like=train_design)
        err = test_design.y - fit.predict_fixed(test_design.X)
        assert fold.rmse ** 2 == pytest.approx(np.mean(err ** 2), abs=1e-12)

    # 30 rows of 0.1 leave a sum of squares of about 1e-32, not 0
    @pytest.mark.parametrize("value", [60.0, 0.1])
    def test_constant_held_out_outcome_names_its_fold(self, value):
        table = self._table(np.random.default_rng(45), obs_per=6)
        spec = ModelSpec(outcome="m1")
        held = kfold_subject_cv(table, spec, k=5, seed=3).fold_subjects[0]
        y = table.scores["m1"].copy()
        y[np.isin(table.gallery_subject, held)] = value
        with pytest.raises(ValueError, match="fold 0: the held-out outcome is constant"):
            kfold_subject_cv(table.with_scores({"m1": y}), spec, k=5, seed=3)

    # ten subjects enrolled at ages 4 and 5: a held-out fold often shares one
    # enrollment age, or one gap, although every training fold but seed 5's
    # identifies both
    @pytest.mark.parametrize("seed, code", [(1, 0), (3, 0), (5, 7)])
    def test_held_out_fold_is_scored_not_fitted(self, tmp_path, capsys, seed, code):
        config = {
            "out": str(tmp_path / "out"), "captures": "captures.csv", "scores": "scores.csv",
            "matchers": [{"name": "simmatch", "orientation": "higher", "score_min": -1e6,
                          "score_max": 1e6, "default_threshold": 150.0}],
            "model": {"outcome": "simmatch", "quality_terms": ["Q_gallery"],
                      "random_structure": "intercept"},
            "cv": {"k": 5},
            "synth": {"n_subjects": 10, "enrollment_age_low": 4, "enrollment_age_high": 5,
                      "session_schedule": [0, 12, 24], "images_per_eye_per_session": 1},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        for command in ("synth", "pairs"):
            assert main([command, "--config", str(path), "--seed", str(seed)]) == 0
        capsys.readouterr()
        assert main(["cv", "--config", str(path), "--seed", str(seed)]) == code
        if code:   # the training fold itself is rank deficient
            assert "rank deficient" in capsys.readouterr().err
        else:
            assert (tmp_path / "out" / "cv_report.csv").read_text().count("\n") == 6

    def test_k_too_small_or_large(self):
        rng = np.random.default_rng(44)
        table = self._table(rng, n_subjects=4)
        spec = ModelSpec(outcome="m1")
        with pytest.raises(ValueError):
            kfold_subject_cv(table, spec, k=1, seed=0)
        with pytest.raises(ValueError):
            kfold_subject_cv(table, spec, k=10, seed=0)


class TestResidualDiagnostics:
    def _fit(self, rng, **kw):
        table = make_model_table(rng, **kw)
        return fit_spec(table, ModelSpec(outcome="m1"))

    def test_normal_residuals_high_w(self):
        # residuals drawn exactly standard normal at n = 2000
        base = self._fit(np.random.default_rng(1000), n_subjects=25, obs_per=8)
        p = base.beta.size
        ws = []
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            X = np.column_stack([np.ones(2000), rng.normal(0, 1, (2000, p - 1))])
            y = X @ base.beta + rng.standard_normal(2000)
            report = residual_diagnostics(base, y=y, X=X)
            assert 0.0 < report.shapiro_w <= 1.0
            ws.append(report.shapiro_w)
        assert min(ws) > 0.985
        assert max(ws) <= 1.0

    def test_heavy_tails_rank_below_normal(self):
        rng = np.random.default_rng(45)
        n = 1500
        m = 30
        g = np.repeat(np.arange(m), n // m)
        X = np.ones((n, 1))
        y_normal = rng.normal(0, 1, n)
        y_heavy = rng.standard_t(2, n)
        fit_n = fit_reml(y_normal + np.repeat(rng.normal(0, 1, m), n // m), X, None, g)
        fit_h = fit_reml(y_heavy + np.repeat(rng.normal(0, 1, m), n // m), X, None, g)
        w_n = residual_diagnostics(fit_n).shapiro_w
        w_h = residual_diagnostics(fit_h).shapiro_w
        assert w_h < w_n

    def test_subsampling_above_validity_range(self):
        rng = np.random.default_rng(46)
        n = 6000
        m = 100
        g = np.repeat(np.arange(m), n // m)
        y = np.repeat(rng.normal(0, 1, m), n // m) + rng.normal(0, 1, n)
        fit = fit_reml(y, np.ones((n, 1)), None, g)
        report = residual_diagnostics(fit)
        assert report.subsampled
        assert report.n_used == 5000
        assert len(report.sample_quantiles) == 6000
        again = residual_diagnostics(fit)
        assert again.shapiro_w == report.shapiro_w

    def test_qq_export_shapes(self):
        rng = np.random.default_rng(47)
        fit = self._fit(rng, n_subjects=20, obs_per=5)
        report = residual_diagnostics(fit)
        assert report.sample_quantiles.shape == (len(fit.design.y),)
        assert np.all(np.diff(report.sample_quantiles) >= 0)

    def test_degenerate_inputs(self):
        rng = np.random.default_rng(48)
        fit = self._fit(rng, n_subjects=20, obs_per=5)
        with pytest.raises(ValueError, match="at least 3"):
            residual_diagnostics(fit, y=np.array([1.0, 2.0]),
                                 X=np.ones((2, fit.beta.size)))
        X3 = np.zeros((3, fit.beta.size))
        with pytest.raises(ValueError, match="zero variance"):
            residual_diagnostics(fit, y=np.zeros(3), X=X3)


class TestCvGapMechanism:
    def test_oos_below_marginal_with_strong_random_effects(self):
        rng = np.random.default_rng(49)
        table = make_model_table(rng, n_subjects=60, obs_per=20,
                                 beta={"intercept": 10.0, "T": -0.02,
                                       "Q_gallery": 0.1},
                                 Sigma=[[4.0, 0.0], [0.0, 0.002]], sigma2=1.0)
        spec = ModelSpec(outcome="m1", fixed_terms=(Continuous("Q_gallery"),))
        report = kfold_subject_cv(table, spec, k=5, seed=11)
        fit = fit_spec(table, spec)
        assert report.mean_oos_r2 < marginal_r2(fit)
