import numpy as np
import pytest

from longmatch.lmm import fit_reml
from longmatch.metrics import det_curve
from longmatch.pairing import PairingConfig, attach_scores, generate_genuine_pairs
from longmatch.synth import (
    CovariateSpec, DistSpec, MatcherSim, SynthConfig, SynthConfigError,
    generate_longitudinal, generate_score_populations,
)
from longmatch.tableio import ingest_captures, write_captures, write_scores

from conftest import capture_rows


def small_config(**kw):
    defaults = dict(
        n_subjects=20,
        session_schedule=(0, 6, 12, 18),
        images_per_eye_per_session=1,
        attrition_rate=0.1,
        include_impostors=kw.pop("include_impostors", True),
        pairing=PairingConfig(max_impostor_probes=2, base_seed=5),
        seed=kw.pop("seed", 11),
    )
    defaults.update(kw)
    return SynthConfig(**defaults)


class TestGenerateLongitudinal:
    def test_tables_are_valid(self, tmp_path):
        result = generate_longitudinal(small_config())
        write_captures(result.captures, tmp_path / "captures.csv")
        ingested = ingest_captures(tmp_path / "captures.csv")
        assert ingested.rejections == ()
        assert ingested.n_accepted == len(result.captures)
        assert result.truth.n_genuine > 0
        assert result.truth.n_impostor > 0

    def test_byte_identical_given_seed(self, tmp_path):
        paths = []
        for run in ("a", "b"):
            result = generate_longitudinal(small_config(seed=42))
            cap = tmp_path / f"captures_{run}.csv"
            sco = tmp_path / f"scores_{run}.csv"
            write_captures(result.captures, cap)
            write_scores(result.scores, sco)
            paths.append((cap.read_bytes(), sco.read_bytes()))
        assert paths[0] == paths[1]

    def test_different_seed_differs(self):
        a = generate_longitudinal(small_config(seed=1))
        b = generate_longitudinal(small_config(seed=2))
        scores_a = [row[3] for row in a.scores]
        scores_b = [row[3] for row in b.scores]
        assert scores_a != scores_b

    def test_noiseless_scores_exactly_linear_and_recoverable(self):
        sim = MatcherSim(name="m1", beta={"intercept": 50.0, "T": -0.2,
                                          "Q_gallery": 0.5, "DC": 20.0},
                         Sigma=((0.0, 0.0), (0.0, 0.0)), sigma2=0.0,
                         impostor=DistSpec("normal", 0.0, 5.0))
        cfg = small_config(matchers=(sim,), n_subjects=30,
                           include_impostors=False)
        result = generate_longitudinal(cfg)
        pairs = generate_genuine_pairs(result.captures)
        table = attach_scores(pairs, result.scores, result.profiles).table
        y = table.scores["m1"]
        X = np.column_stack([np.ones(len(table)), table.gap_t,
                             table.covariates["Q_gallery"], table.dc])
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(coef, [50.0, -0.2, 0.5, 20.0], atol=1e-8)
        resid = y - X @ coef
        assert np.max(np.abs(resid)) < 1e-8

    def test_random_effect_covariance_matches_truth(self):
        Sigma = ((4.0, 0.3 * 2.0 * 0.05), (0.3 * 2.0 * 0.05, 0.05 ** 2))
        sim = MatcherSim(name="m1", Sigma=Sigma, sigma2=1.0)
        cfg = SynthConfig(n_subjects=12000, session_schedule=(0,),
                          images_per_eye_per_session=1, matchers=(sim,),
                          include_impostors=False, seed=3)
        result = generate_longitudinal(cfg)
        u = result.truth.random_effects["m1"]
        emp = np.cov(u.T)
        np.testing.assert_allclose(emp, np.asarray(Sigma), rtol=0.05)

    def test_ages_follow_schedule(self):
        result = generate_longitudinal(small_config(seed=8))
        by_subject = {}
        for rec in capture_rows(result.captures):
            by_subject.setdefault(rec["subject_id"], []).append(rec)
        for recs in by_subject.values():
            recs.sort(key=lambda r: r["capture_time_months"])
            ages = [r["age_years"] for r in recs]
            assert all(b - a in (0, 1) or (b - a) <= 2
                       for a, b in zip(ages, ages[1:]))
            # integer age grows about linearly in elapsed months
            assert ages[-1] - ages[0] <= (recs[-1]["capture_time_months"]
                                          - recs[0]["capture_time_months"]) // 12 + 1

    def test_infeasible_bounds_raise(self):
        cov = dict(SynthConfig().covariates)
        cov["Q"] = CovariateSpec(mean=500.0, sd=1.0, low=0.0, high=100.0)
        with pytest.raises(SynthConfigError, match="infeasible"):
            generate_longitudinal(small_config(covariates=cov))

    def test_config_validation(self):
        with pytest.raises(SynthConfigError):
            SynthConfig(session_schedule=(0, 6, 6))
        with pytest.raises(SynthConfigError):
            SynthConfig(attrition_rate=1.0)
        with pytest.raises(SynthConfigError):
            MatcherSim(Sigma=((1.0, 5.0), (5.0, 1.0))).sigma_matrix()


class TestEndToEndOracle:
    def test_injected_effects_recovered_within_3se(self):
        beta = {"intercept": 520.0, "T": -0.60, "Q_gallery": 1.59,
                "Q_probe": 1.19, "DC": 438.6}
        sim = MatcherSim(name="ve", beta=beta,
                         Sigma=((83.0 ** 2, 0.0), (0.0, 1.0)),
                         sigma2=61.0 ** 2,
                         impostor=DistSpec("normal", 0.0, 30.0))
        cfg = SynthConfig(n_subjects=150, images_per_eye_per_session=2,
                          matchers=(sim,), include_impostors=False, seed=21)
        result = generate_longitudinal(cfg)
        pairs = generate_genuine_pairs(result.captures)
        table = attach_scores(pairs, result.scores, result.profiles).table
        X = np.column_stack([np.ones(len(table)), table.gap_t,
                             table.covariates["Q_gallery"],
                             table.covariates["Q_probe"], table.dc])
        subjects = sorted(set(table.gallery_subject))
        lookup = {s: i for i, s in enumerate(subjects)}
        g = np.array([lookup[s] for s in table.gallery_subject])
        fit = fit_reml(table.scores["ve"], X, table.gap_t.astype(float), g,
                       column_names=["intercept", "T", "Q_gallery", "Q_probe", "DC"])
        truth = [520.0, -0.60, 1.59, 1.19, 438.6]
        for j, t in enumerate(truth):
            assert abs(fit.beta[j] - t) < 3.0 * fit.se[j], fit.column_names[j]


class TestScorePopulations:
    def test_deterministic(self):
        a = generate_score_populations(1000, DistSpec("normal", 1, 1),
                                       DistSpec("normal", 0, 1), seed=5)
        b = generate_score_populations(1000, DistSpec("normal", 1, 1),
                                       DistSpec("normal", 0, 1), seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_identical_distributions_chance_eer(self, similarity_profile):
        g, i = generate_score_populations(20000, DistSpec("normal", 0, 1),
                                          DistSpec("normal", 0, 1), seed=6)
        curve = det_curve(g, i, similarity_profile)
        assert curve.eer == pytest.approx(0.5, abs=0.02)

    def test_disjoint_uniform_supports(self, similarity_profile):
        g, i = generate_score_populations(5000, DistSpec("uniform", 10.0, 1.0),
                                          DistSpec("uniform", 0.0, 1.0), seed=7)
        curve = det_curve(g, i, similarity_profile)
        assert curve.eer == 0.0
        assert curve.auc == 1.0

    def test_invalid_params(self):
        with pytest.raises(SynthConfigError):
            DistSpec("uniform", 0.0, 0.0)
        with pytest.raises(ValueError):
            generate_score_populations(0, DistSpec("normal", 0, 1),
                                       DistSpec("normal", 0, 1), seed=1)
