import math

import numpy as np
import pytest
from scipy import stats

from longmatch.core import (
    GENUINE, IMPOSTOR, ComparisonTable, MatcherProfile, DataError, distinct,
)
from longmatch.metrics import (
    CalibrationInfeasibleError, assign_interval, calibrate_threshold,
    det_curve, failure_analysis, fnmr_by_interval, fuse_and_rule, match_mask,
    rule_of_three, wilson_interval,
)


def _table(kind, gaps=None, scores=None, subjects=None, covs=None, eye="L",
           matchers=("A", "B")):
    """Minimal comparison table for metric fixtures."""
    n = len(next(iter(scores.values())))
    gaps = gaps if gaps is not None else [6] * n
    if subjects is None:
        subjects = [f"S{i:05d}" for i in range(n)]
    gallery_subject = list(subjects)
    if kind == GENUINE:
        probe_subject = gallery_subject
    else:
        probe_subject = [s + "x" for s in gallery_subject]
    covariates = {name: np.full(n, 50.0) for name in
                  ("Q_gallery", "Q_probe", "U_gallery", "U_probe",
                   "C_gallery", "C_probe", "R_gallery", "R_probe",
                   "A_gallery", "A_probe")}
    covariates["DC"] = np.full(n, 0.9)
    if covs:
        covariates.update({k: np.asarray(v, dtype=float) for k, v in covs.items()})
    return ComparisonTable(
        kind=[kind] * n, eye=[eye] * n,
        gallery_image_id=[f"g{i}" for i in range(n)],
        probe_image_id=[f"p{i}" for i in range(n)],
        gallery_subject=gallery_subject, probe_subject=probe_subject,
        gap_T_months=gaps, delta_age_years=[0] * n,
        **covariates,
        scores={m: np.asarray(v, dtype=float) for m, v in scores.items()},
    )


def fmr_at_threshold(impostor, profile, threshold):
    """Fraction of impostor comparisons, a table or bare scores, decided
    Match at the threshold."""
    if isinstance(impostor, ComparisonTable):
        impostor = impostor.score(profile.name)
    return float(match_mask(impostor, threshold, profile.orientation).mean())


class TestDecide:
    def test_similarity_threshold_inclusive(self, similarity_profile):
        assert match_mask([34.0], 34.0, similarity_profile.orientation)[0]

    def test_distance_exceeded_is_nonmatch(self, distance_profile):
        assert not match_mask([0.43], 0.42, distance_profile.orientation)[0]

    def test_distance_boundary_is_match(self, distance_profile):
        assert match_mask([0.42], 0.42, distance_profile.orientation)[0]


class TestWilson:
    def test_zero_events_bounds(self):
        low, high = wilson_interval(0, 100, 0.95)
        assert low == 0.0
        # closed form evaluated independently: z=1.9599639845400545,
        # high = 2*(z^2/200)/(1+z^2/100) = 0.03699335...
        assert high == pytest.approx(0.0369934, abs=1e-6)

    def test_point_estimate_inside(self):
        low, high = wilson_interval(8, 330, 0.95)
        assert low < 8 / 330 < high

    def test_all_events_upper_is_one(self):
        _, high = wilson_interval(25, 25, 0.95)
        assert high == 1.0

    def test_contains_phat_exhaustive(self):
        for n in range(1, 201):
            for k in range(0, n + 1):
                low, high = wilson_interval(k, n, 0.95)
                assert low <= k / n <= high
                assert 0.0 <= low <= high <= 1.0

    @pytest.mark.parametrize("k,n", [(-1, 10), (11, 10), (0, 0)])
    def test_invalid_counts(self, k, n):
        with pytest.raises(ValueError):
            wilson_interval(k, n, 0.95)


class TestRuleOfThree:
    def test_values(self):
        assert rule_of_three(1000) == 0.003
        assert rule_of_three(3) == 1.0
        assert rule_of_three(300) == 0.01

    def test_invalid(self):
        with pytest.raises(ValueError):
            rule_of_three(0)


class TestIntervalAssignment:
    def test_half_rounds_away_from_zero(self):
        assert assign_interval(np.array([45]), 6)[0] == 48

    def test_matches_scalar_oracle(self):
        gaps = np.arange(0, 400)
        got = assign_interval(gaps, 6)
        # independent scalar oracle: round-half-away-from-zero on gap/6
        expected = [6 * math.floor(g / 6 + 0.5) for g in gaps]
        np.testing.assert_array_equal(got, expected)

    def test_matches_python_ints_on_random_and_extreme_gaps(self):
        # no intermediate overflows: every int64 gap and width, up to the
        # bin centers past 2**63 - 1
        rng = np.random.default_rng(19)
        top = 2**63 - 1
        widths = [1, 2, 3, 6, 7, 12, 2**32 + 1, 2**62, top - 1, top,
                  *rng.integers(1, 100, 20).tolist(), *rng.integers(1, top, 40).tolist()]
        for width in widths:
            gaps = [0, 1, width // 2, (width + 1) // 2, width - 1, width, top - 1, top,
                    *rng.integers(0, 1000, 20).tolist(), *rng.integers(0, top, 40).tolist()]
            gaps = [g for g in gaps if g <= top]
            got = assign_interval(np.array(gaps, dtype=np.int64), width)
            assert [int(c) for c in got] == \
                [width * ((2 * g + width) // (2 * width)) for g in gaps], width

    @pytest.mark.parametrize("bin_width", [0, -6])
    def test_rejects_bin_width_below_one(self, bin_width):
        with pytest.raises(ValueError, match="bin_width must be >= 1"):
            assign_interval(np.array([6, 12]), bin_width)


class TestFnmrByInterval:
    def test_zero_errors_rule_of_three(self, similarity_profile):
        table = _table(GENUINE, gaps=[6, 6, 12, 12, 12],
                       scores={"simmatch": [50, 60, 70, 80, 90]},
                       matchers=("simmatch",))
        out = fnmr_by_interval(table, similarity_profile, 34.0)
        assert [s.interval_months for s in out] == [6, 12]
        for s in out:
            assert s.fnmr == 0.0
            assert s.ci_method == "rule-of-three"
            assert s.ci_high == pytest.approx(3.0 / s.n_genuine)

    def test_paper_scale_bin(self, similarity_profile):
        scores = [10.0] * 8 + [60.0] * 322
        table = _table(GENUINE, gaps=[48] * 330, scores={"simmatch": scores},
                       matchers=("simmatch",))
        out = fnmr_by_interval(table, similarity_profile, 34.0)
        assert len(out) == 1
        s = out[0]
        assert s.n_genuine == 330 and s.n_false_nonmatch == 8
        assert s.fnmr == pytest.approx(0.024242, abs=1e-6)
        assert s.ci_method == "wilson"
        assert s.ci_low < s.fnmr < s.ci_high

    def test_rejects_impostor_rows(self, similarity_profile):
        table = _table(IMPOSTOR, scores={"simmatch": [10.0, 20.0]},
                       matchers=("simmatch",))
        with pytest.raises(DataError):
            fnmr_by_interval(table, similarity_profile, 34.0)

    @pytest.mark.parametrize("bin_width, confidence, message", [
        (0, 0.95, "bin_width"),
        (6, 2.0, "confidence"),
        (6, 0.0, "confidence"),
        (6, float("nan"), "confidence"),
    ])
    def test_rejects_bad_settings_without_errors(self, similarity_profile, bin_width,
                                                 confidence, message):
        # every pair matches, so no interval reaches the Wilson bound
        table = _table(GENUINE, gaps=[6, 12], scores={"simmatch": [50.0, 60.0]},
                       matchers=("simmatch",))
        with pytest.raises(ValueError, match=message):
            fnmr_by_interval(table, similarity_profile, 34.0, bin_width, confidence)


class TestFmr:
    def test_none_accepted(self, similarity_profile):
        table = _table(IMPOSTOR, scores={"simmatch": [1.0, 2.0, 3.0]},
                       matchers=("simmatch",))
        assert fmr_at_threshold(table, similarity_profile, 34.0) == 0.0

    def test_paper_scale_rates(self, similarity_profile):
        n = 138190
        for accepts, expected in ((85, 0.000615), (97, 0.000702)):
            scores = np.full(n, 1.0)
            scores[:accepts] = 50.0
            assert fmr_at_threshold(scores, similarity_profile, 34.0) == \
                pytest.approx(expected, abs=5e-7)


class TestCalibration:
    def test_gaussian_analytic_threshold(self, similarity_profile):
        rng = np.random.default_rng(100)
        genuine = rng.normal(50, 5, 10**6)
        impostor = rng.normal(20, 5, 10**6)
        res = calibrate_threshold(genuine, impostor, similarity_profile, 0.001)
        analytic = 20 + stats.norm.ppf(0.999) * 5   # 35.4512
        assert res.threshold == pytest.approx(analytic, abs=0.25)
        assert res.achieved_fmr <= 0.001

    def test_perfect_separation(self, similarity_profile):
        res = calibrate_threshold(np.array([10., 11., 12.]),
                                  np.array([1., 2., 3.]),
                                  similarity_profile, 0.001)
        assert res.achieved_fmr == 0.0
        assert res.achieved_fnmr == 0.0

    def test_lower_is_better_mirror(self, similarity_profile):
        rng = np.random.default_rng(100)
        genuine = rng.normal(50, 5, 200_000)
        impostor = rng.normal(20, 5, 200_000)
        res_hi = calibrate_threshold(genuine, impostor, similarity_profile, 0.001)
        mirror = MatcherProfile("neg", "lower", -1e9, 1e9, 0.0)
        res_lo = calibrate_threshold(-genuine, -impostor, mirror, 0.001)
        assert res_lo.threshold == pytest.approx(-res_hi.threshold)
        assert res_lo.achieved_fmr == res_hi.achieved_fmr
        assert res_lo.achieved_fnmr == res_hi.achieved_fnmr

    def test_unattainable_target(self, similarity_profile):
        genuine = np.array([50.0, 60.0])
        impostor = np.array([100.0, 100.0])   # top score is an impostor
        with pytest.raises(CalibrationInfeasibleError):
            calibrate_threshold(genuine, impostor, similarity_profile, 1e-6)


@pytest.mark.parametrize("values", [
    np.array([]), np.array([2.5]), np.array([3.0, -0.0, 0.0, 3.0, -1.0]),
    np.array([np.nan, 1.0, np.inf, np.nan, -np.inf, 1.0]),
    np.random.default_rng(7).normal(size=500).round(1),
    np.random.default_rng(8).integers(0, 60, 300),
])
def test_distinct_equals_np_unique(values):
    # the numpy.ma-free np.unique of the sweep, the interval binning and the
    # synth bounds gate, against np.unique itself: same dtype, values, order
    # and signs of zero
    got, want = distinct(values), np.unique(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestDetCurve:
    def test_identical_multisets_chance_level(self, similarity_profile):
        rng = np.random.default_rng(20)
        scores = rng.normal(0, 1, 4000)
        curve = det_curve(scores, scores.copy(), similarity_profile)
        assert curve.eer == pytest.approx(0.5, abs=1e-9)

    def test_disjoint_supports(self, similarity_profile):
        curve = det_curve(np.array([10., 11., 12.]), np.array([1., 2., 3.]),
                          similarity_profile)
        assert curve.eer == 0.0
        assert curve.auc == 1.0

    def test_monotone_in_threshold(self, similarity_profile, distance_profile):
        rng = np.random.default_rng(21)
        for trial in range(50):
            n = int(rng.integers(5, 200))
            g = rng.normal(rng.uniform(0, 2), rng.uniform(0.5, 2), n)
            im = rng.normal(0, rng.uniform(0.5, 2), n)
            if rng.uniform() < 0.3:   # force ties
                g = np.round(g, 1)
                im = np.round(im, 1)
            for profile, sg, si in ((similarity_profile, g, im),
                                    (MatcherProfile("d", "lower", -1e9, 1e9, 0.0),
                                     -g, -im)):
                curve = det_curve(sg, si, profile)
                assert np.all(np.diff(curve.fmr) <= 0)
                assert np.all(np.diff(curve.fnmr) >= 0)

    def test_auc_needs_no_np_trapezoid(self, similarity_profile, monkeypatch):
        # np.trapezoid arrived in numpy 2.0; the AUC keeps its bits without it
        rng = np.random.default_rng(23)
        cases = [(np.round(rng.normal(1.0, 1.0, n), 1), np.round(rng.normal(0.0, 1.0, 2 * n), 1))
                 for n in (5, 97, 1000)]
        expected = []
        for g, im in cases:
            curve = det_curve(g, im, similarity_profile)
            fpr = np.concatenate([[1.0], curve.fmr, [0.0]])[::-1]
            tpr = np.concatenate([[1.0], 1.0 - curve.fnmr, [0.0]])[::-1]
            assert float(np.trapezoid(tpr, fpr)) == curve.auc
            expected.append(curve.auc)
        monkeypatch.delattr(np, "trapezoid")
        for (g, im), auc in zip(cases, expected):
            assert np.float64(det_curve(g, im, similarity_profile).auc).view(np.uint64) == \
                np.float64(auc).view(np.uint64)

    def test_eer_matches_brute_force(self, similarity_profile):
        rng = np.random.default_rng(22)
        for trial in range(30):
            n_g = int(rng.integers(10, 400))
            n_i = int(rng.integers(10, 400))
            g = rng.normal(1.0, 1.0, n_g)
            im = rng.normal(0.0, 1.0, n_i)
            curve = det_curve(g, im, similarity_profile)
            # brute force over observed thresholds: midpoint at the minimal gap
            best = None
            for thr in np.unique(np.concatenate([g, im])):
                fmr = float(np.mean(im >= thr))
                fnmr = float(np.mean(g < thr))
                gap = abs(fmr - fnmr)
                if best is None or gap < best[0]:
                    best = (gap, (fmr + fnmr) / 2)
            step = max(1.0 / n_g, 1.0 / n_i)
            assert abs(curve.eer - best[1]) <= step


class TestFusion:
    def test_combined_far_fixture(self, similarity_profile):
        n = 138190
        a = np.full(n, 1.0)
        b = np.full(n, 1.0)
        # 82 accepted by A only, 92 by B only, 3 by both: 177 accept events
        a[:82] = 50.0
        b[82:174] = 50.0
        a[174:177] = 50.0
        b[174:177] = 50.0
        pb = MatcherProfile("B", "higher", -1e9, 1e9, 34.0)
        pa = MatcherProfile("A", "higher", -1e9, 1e9, 34.0)
        table = _table(IMPOSTOR, scores={"A": a, "B": b})
        report = fuse_and_rule(table, pa, 34.0, pb, 34.0)
        assert report.impostor_accepts.a_only == 82
        assert report.impostor_accepts.b_only == 92
        assert report.impostor_accepts.both == 3
        assert report.fused_fmr == pytest.approx(3 / n)
        assert report.fused_fmr == pytest.approx(2.17e-5, abs=2e-7)

    def test_strictest_thresholds_zero_fmr(self):
        rng = np.random.default_rng(23)
        table = _table(IMPOSTOR, scores={"A": rng.normal(0, 1, 500),
                                         "B": rng.normal(0, 1, 500)})
        pa = MatcherProfile("A", "higher", -1e9, 1e9, 0.0)
        pb = MatcherProfile("B", "higher", -1e9, 1e9, 0.0)
        report = fuse_and_rule(table, pa, 1e8, pb, 1e8)
        assert report.fused_fmr == 0.0

    def test_fusion_error_bounds(self):
        rng = np.random.default_rng(24)
        pa = MatcherProfile("A", "higher", -1e9, 1e9, 0.0)
        pb = MatcherProfile("B", "higher", -1e9, 1e9, 0.0)
        for trial in range(20):
            n = 400
            imp = _table(IMPOSTOR, scores={"A": rng.normal(0, 1, n),
                                           "B": rng.normal(0, 1, n)})
            gen = _table(GENUINE, scores={"A": rng.normal(1, 1, n),
                                          "B": rng.normal(1, 1, n)})
            thr_a = float(rng.uniform(-1, 2))
            thr_b = float(rng.uniform(-1, 2))
            combined = ComparisonTable.concat([gen, imp])
            rep = fuse_and_rule(combined, pa, thr_a, pb, thr_b)
            fmr_a = fmr_at_threshold(imp, pa, thr_a)
            fmr_b = fmr_at_threshold(imp, pb, thr_b)
            fnmr_a = float(np.mean(gen.scores["A"] < thr_a))
            fnmr_b = float(np.mean(gen.scores["B"] < thr_b))
            assert rep.fused_fmr <= min(fmr_a, fmr_b) + 1e-12
            assert rep.fused_fnmr >= max(fnmr_a, fnmr_b) - 1e-12


def _failure_subject_counts_oracle(table, fail_a, fail_b):
    """(failure subjects, subjects, per-category subjects) as failure_analysis
    counted them before core.encode, by set. Kept as the oracle."""
    def subjects(sel):
        return len(set(table.gallery_subject[sel]))
    return (subjects(fail_a | fail_b), len(set(table.gallery_subject)),
            [subjects(fail_a & ~fail_b), subjects(~fail_a & fail_b), subjects(fail_a & fail_b)])


class TestFailureAnalysis:
    def _profiles(self):
        return (MatcherProfile("A", "higher", -1e9, 1e9, 34.0),
                MatcherProfile("B", "higher", -1e9, 1e9, 34.0))

    @pytest.mark.parametrize("seed, n, n_subjects", [(0, 1, 1), (1, 40, 3), (2, 600, 97),
                                                     (3, 600, 600)])
    def test_subject_counts_match_the_set_oracle(self, seed, n, n_subjects):
        rng = np.random.default_rng(seed)
        pa, pb = self._profiles()
        subjects = rng.choice([f"S{i:03d}é" for i in range(n_subjects)], n)
        table = _table(GENUINE, subjects=subjects.tolist(),
                       scores={"A": rng.normal(45.0, 10.0, n), "B": rng.normal(50.0, 10.0, n)})
        report = failure_analysis(table, pa, 34.0, pb, 34.0)
        fail_a = table.scores["A"] < 34.0
        fail_b = table.scores["B"] < 34.0
        assert (report.n_failure_subjects, report.n_subjects,
                [cat.n_subjects for cat in report.categories]) \
            == _failure_subject_counts_oracle(table, fail_a, fail_b)

    def test_capture_rate_hundred_percent(self):
        pa, pb = self._profiles()
        qual = np.array([30.0, 30.0, 30.0, 90.0, 90.0])
        table = _table(GENUINE,
                       scores={"A": [10, 10, 50, 50, 50],
                               "B": [10, 50, 10, 50, 50]},
                       covs={"Q_gallery": qual, "Q_probe": qual})
        report = failure_analysis(table, pa, 34.0, pb, 34.0, min_quality_cut=45.0)
        for cat in report.categories:
            assert cat.quality_capture_rate == 1.0
        assert report.n_failures == 3

    def test_constant_column_correlation_undefined(self):
        pa, pb = self._profiles()
        table = _table(GENUINE, scores={"A": [10.0, 12.0, 11.0, 50.0],
                                        "B": [50.0, 52.0, 51.0, 53.0]})
        report = failure_analysis(table, pa, 34.0, pb, 34.0)
        a_only = report.categories[0]
        assert a_only.n_pairs == 3
        # every quality covariate is constant in the fixture: undefined r
        assert a_only.correlations[("A", "Q_gallery")] is None

    def test_distinct_subject_fraction(self):
        pa, pb = self._profiles()
        n_subjects = 276
        rows_per = 2
        scores_a = np.full(n_subjects * rows_per, 50.0)
        subjects = [f"S{i:04d}" for i in range(n_subjects) for _ in range(rows_per)]
        # all failures confined to the first 26 subjects
        for i in range(26):
            scores_a[i * rows_per] = 10.0
        table = _table(GENUINE, subjects=subjects,
                       scores={"A": scores_a,
                               "B": np.full(n_subjects * rows_per, 50.0)})
        report = failure_analysis(table, pa, 34.0, pb, 34.0)
        assert report.n_failure_subjects == 26
        assert report.failure_subject_fraction == pytest.approx(0.094, abs=5e-4)
