import numpy as np
import pytest

from longmatch.lmm import fit_reml
from longmatch.metrics import det_curve
from longmatch.pairing import PairingConfig, attach_scores, generate_genuine_pairs
from longmatch.synth import (
    MAX_SYNTH_WORK, CovariateSpec, DistSpec, MatcherSim, SynthConfig, SynthConfigError,
    generate_longitudinal,
)
from longmatch.tableio import ingest_captures, write_captures, write_scores

from conftest import capture_rows
from test_acceptance import generate_score_populations


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
        scores_a = a.scores.score.tolist()
        scores_b = b.scores.score.tolist()
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
        X = np.column_stack([np.ones(len(table)), table.gap_T_months,
                             table.Q_gallery, table.DC])
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

    @pytest.mark.parametrize("name, low, high, rule", [
        ("Q", -50.0, -10.0, "'quality range': quality=-50.0"),
        ("U", 0.0, 100.5, "'quality range': usable_area=100.5"),
        ("C", -0.1, 50.0, "'quality range': circularity=-0.1"),
        ("D", 0.0, 0.5, "'dilation bounds': pupil_radius=0.0 iris_radius=1.0"),
        ("D", 0.5, 1.0, "'dilation bounds': pupil_radius=1.0 iris_radius=1.0"),
        ("Q", 0.0, float("inf"), "'invalid number': quality=inf"),
    ])
    def test_covariate_bounds_must_keep_the_capture_rules(self, name, low, high, rule):
        cov = dict(SynthConfig().covariates)
        cov[name] = CovariateSpec(mean=low, sd=0.0, low=low, high=high)
        with pytest.raises(SynthConfigError, match=f"^covariate '{name}' bounds "
                                                   rf"\[{low}, {high}\] break the "
                                                   f"capture-row rule {rule}$"):
            small_config(covariates=cov)

    def test_config_validation(self):
        with pytest.raises(SynthConfigError):
            SynthConfig(session_schedule=(0, 6, 6))
        with pytest.raises(SynthConfigError):
            SynthConfig(attrition_rate=1.0)
        with pytest.raises(SynthConfigError):
            MatcherSim(Sigma=((1.0, 5.0), (5.0, 1.0))).sigma_matrix()

    def test_work_bound_counts_images_and_comparisons(self):
        # 4 images and 2 genuine comparisons per subject without impostors
        at_bound = dict(session_schedule=(0, 6), images_per_eye_per_session=1,
                        include_impostors=False)
        SynthConfig(n_subjects=MAX_SYNTH_WORK // 4, **at_bound)
        with pytest.raises(SynthConfigError, match="images .* exceed the limit"):
            SynthConfig(n_subjects=MAX_SYNTH_WORK // 4 + 1, **at_bound)
        # with impostors: 4 images x 9 probes + 2 genuine = 38 comparisons per subject
        probes = dict(at_bound, include_impostors=True,
                      pairing=PairingConfig(max_impostor_probes=9))
        SynthConfig(n_subjects=MAX_SYNTH_WORK // 38, **probes)
        with pytest.raises(SynthConfigError, match="comparisons exceed the limit"):
            SynthConfig(n_subjects=MAX_SYNTH_WORK // 38 + 1, **probes)
        # k images per eye per session give k * k genuine comparisons per eye
        # and later session
        SynthConfig(n_subjects=1, session_schedule=(0, 6), images_per_eye_per_session=1000,
                    include_impostors=False)
        with pytest.raises(SynthConfigError, match="comparisons exceed the limit"):
            SynthConfig(n_subjects=1, session_schedule=(0, 6),
                        images_per_eye_per_session=1001, include_impostors=False)


def _covariate(rng, low, high):
    """A CovariateSpec on bounds drawn from [low, high], perhaps `low` and
    `high` themselves, with mass enough between them to draw from."""
    bounds = np.sort(rng.uniform(low, high, 2))
    if rng.uniform() < 0.4:
        bounds[0] = low
    if rng.uniform() < 0.4:
        bounds[1] = high
    lo, hi = (float(b) for b in bounds)
    span = hi - lo
    sd = 0.0 if rng.uniform() < 0.3 else float(rng.uniform(0.05, 2.0) * span)
    between = float(rng.uniform(0.05, 1.0) * span) if rng.uniform() < 0.4 else 0.0
    return CovariateSpec(mean=float(rng.uniform(lo, hi)), sd=sd, low=lo, high=hi,
                         between_sd=between)


@pytest.mark.parametrize("seed", range(20))
def test_synth_writes_no_capture_its_ingest_rejects(tmp_path, seed):
    rng = np.random.default_rng(seed)
    # D lies in (0, 1): its limits are the doubles next to 0 and 1
    covariates = {name: _covariate(rng, 0.0, 100.0) for name in ("Q", "U", "C")}
    covariates["D"] = _covariate(rng, 5e-324, 1.0 - 2**-53)
    cfg = small_config(n_subjects=6, covariates=covariates, include_impostors=False,
                       images_per_eye_per_session=int(rng.integers(1, 3)), seed=seed)
    result = generate_longitudinal(cfg)
    write_captures(result.captures, tmp_path / "captures.csv")
    ingested = ingest_captures(tmp_path / "captures.csv")
    assert ingested.rejections == ()
    assert capture_rows(ingested.table) == capture_rows(result.captures)


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
        X = np.column_stack([np.ones(len(table)), table.gap_T_months,
                             table.Q_gallery,
                             table.Q_probe, table.DC])
        subjects = sorted(set(table.gallery_subject))
        lookup = {s: i for i, s in enumerate(subjects)}
        g = np.array([lookup[s] for s in table.gallery_subject])
        fit = fit_reml(table.scores["ve"], X, table.gap_T_months.astype(float), g,
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
