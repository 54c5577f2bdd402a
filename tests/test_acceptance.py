"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time

import numpy as np
from scipy import stats

from longmatch.core import IMPOSTOR, ComparisonTable, MatcherProfile
from longmatch.lmm import (
    Continuous, ModelSpec, build_design, compare_apc, fit_reml, fit_spec,
    icc, likelihood_ratio_test, marginal_r2, vif,
)
from longmatch.metrics import (
    calibrate_threshold, det_curve, fuse_and_rule, rule_of_three,
    wilson_interval,
)
from longmatch.pairing import attach_scores, generate_genuine_pairs
from longmatch.synth import (
    CovariateSpec, DistSpec, MatcherSim, SynthConfig, generate_longitudinal,
)
from longmatch.validation import kfold_subject_cv

QUALITY_TERMS = tuple(Continuous(c) for c in
                      ("Q_gallery", "Q_probe", "U_gallery", "U_probe",
                       "C_gallery", "C_probe", "DC"))


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def synth_table(beta, Sigma, sigma2, seed, n_subjects=300, images=2,
                attrition=0.05, covariates=None):
    sim = MatcherSim(name="m", beta=beta, Sigma=Sigma, sigma2=sigma2,
                     impostor=DistSpec("normal", 0.0, 30.0))
    kwargs = dict(n_subjects=n_subjects, images_per_eye_per_session=images,
                  attrition_rate=attrition, matchers=(sim,),
                  include_impostors=False, seed=seed)
    if covariates is not None:
        kwargs["covariates"] = covariates
    result = generate_longitudinal(SynthConfig(**kwargs))
    pairs = generate_genuine_pairs(result.captures)
    return attach_scores(pairs, result.scores, result.profiles).table


def generate_score_populations(n, genuine_dist, impostor_dist, seed):
    """n i.i.d. genuine, then n impostor scores from one PCG64(seed) stream."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return genuine_dist.draw(rng, n), impostor_dist.draw(rng, n)


def subject_index(table):
    subjects = sorted(set(table.gallery_subject))
    lookup = {s: i for i, s in enumerate(subjects)}
    return np.fromiter((lookup[s] for s in table.gallery_subject),
                       dtype=np.int64, count=len(table))


def test_criterion_01_balanced_reml_matches_anova():
    """Random-intercept REML equals one-way ANOVA moment estimators."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    m, n_per = 100, 10
    y = (np.repeat(rng.normal(0.0, 1.6, m), n_per)
         + rng.normal(0.0, 1.1, m * n_per) + 12.0)
    g = np.repeat(np.arange(m), n_per)
    fit = fit_reml(y, np.ones((m * n_per, 1)), None, g)

    ybar_i = y.reshape(m, n_per).mean(axis=1)
    msb = n_per * np.sum((ybar_i - y.mean()) ** 2) / (m - 1)
    msw = np.sum((y.reshape(m, n_per) - ybar_i[:, None]) ** 2) / (m * (n_per - 1))
    sa2 = (msb - msw) / n_per
    rel_a = abs(fit.Sigma[0, 0] - sa2) / sa2
    rel_e = abs(fit.sigma2 - msw) / msw
    elapsed = time.time() - t0
    ok = rel_a < 1e-6 and rel_e < 1e-6 and elapsed < 5.0
    report("C1 balanced-ANOVA oracle", ok,
           f"rel err var_u0={rel_a:.2e}, var_e={rel_e:.2e}, {elapsed:.2f}s")


BETA_PAPER = {"intercept": 520.0, "A_gallery": 6.0, "T": -0.60,
              "Q_gallery": 1.59, "Q_probe": 1.19, "U_gallery": -0.83,
              "U_probe": 1.99, "C_gallery": 3.62, "C_probe": 1.18, "DC": 438.6}
COLS_PAPER = ["intercept", "A_gallery", "T", "Q_gallery", "Q_probe",
              "U_gallery", "U_probe", "C_gallery", "C_probe", "DC"]


def test_criterion_02_parameter_recovery_50_replicates():
    """Injected fixed effects recovered within 3 SE in >= 95% of replicates."""
    t0 = time.time()
    Sigma = ((83.0 ** 2, 0.0), (0.0, 1.0))
    sigma2 = 83.0 ** 2 * 0.35 / 0.65   # intercept/residual split at ICC 0.65
    passed = 0
    n_rows = []
    for seed in range(50):
        table = synth_table(BETA_PAPER, Sigma, sigma2, seed=1000 + seed)
        X = np.column_stack([np.ones(len(table))]
                            + [table.column(c) for c in COLS_PAPER[1:]])
        fit = fit_reml(table.scores["m"], X, table.gap_T_months.astype(float),
                       subject_index(table), column_names=COLS_PAPER)
        ok_rep = all(abs(fit.beta[j] - BETA_PAPER[c]) < 3.0 * fit.se[j]
                     for j, c in enumerate(COLS_PAPER))
        passed += ok_rep
        n_rows.append(len(table))
    elapsed = time.time() - t0
    ok = passed >= 48 and elapsed < 600.0
    report("C2 parameter recovery", ok,
           f"{passed}/50 replicates with every beta within 3 SE "
           f"(~{int(np.mean(n_rows) / 300)} comparisons/subject), {elapsed:.0f}s")


def test_criterion_03_apc_discrimination():
    """Pure-cohort vs pure-aging generators are told apart by the APC fits."""
    cohort = synth_table({"intercept": 500.0, "A_gallery": 8.0},
                         ((70.0 ** 2, 0.0), (0.0, 0.3 ** 2)), 60.0 ** 2,
                         seed=77, n_subjects=150, attrition=0.08)
    rep_a = compare_apc(cohort, ModelSpec(outcome="m", fixed_terms=QUALITY_TERMS))
    gt = next(e for e in rep_a.entries if e.mode == "gallery_age_plus_t")
    t_within_2se = abs(gt.temporal.beta) < 2.0 * gt.temporal.se
    age_sig = gt.age[0].p < 0.001

    aging = synth_table({"intercept": 500.0, "T": 0.5},
                        ((70.0 ** 2, 0.0), (0.0, 0.3 ** 2)), 60.0 ** 2,
                        seed=78, n_subjects=150, attrition=0.08)
    rep_b = compare_apc(aging, ModelSpec(outcome="m", fixed_terms=QUALITY_TERMS))
    temporal_ps = {e.mode: e.temporal.p for e in rep_b.entries}
    all_sig = all(p < 0.01 for p in temporal_ps.values())

    ok = t_within_2se and age_sig and all_sig
    report("C3 APC discrimination", ok,
           f"cohort: |T|/se={abs(gt.temporal.beta) / gt.temporal.se:.2f}, "
           f"A_gallery p={gt.age[0].p:.1e}; aging temporal p per mode="
           + ", ".join(f"{m}:{p:.1e}" for m, p in temporal_ps.items()))


def test_criterion_04_vif_explosion():
    """Integer-age schedule drives VIF(A_probe) past 1000; duplicates hit inf."""
    table = synth_table({"intercept": 500.0, "T": 0.5},
                        ((70.0 ** 2, 0.0), (0.0, 0.3 ** 2)), 60.0 ** 2,
                        seed=78, n_subjects=150, attrition=0.08)
    spec = ModelSpec(outcome="m", apc_mode=None,
                     fixed_terms=(Continuous("A_gallery"), Continuous("A_probe"),
                                  Continuous("T")) + QUALITY_TERMS)
    design = build_design(table, spec)
    vifs = vif(design.X, design.column_names)
    explode = vifs["A_probe"] > 1000.0

    X_dup = np.column_stack([design.X, design.X[:, 2]])
    dup_vifs = vif(X_dup, design.column_names + ["A_probe_copy"])
    dup_inf = dup_vifs["A_probe_copy"] == float("inf") and \
        dup_vifs["A_probe"] == float("inf")
    ok = explode and dup_inf
    report("C4 VIF explosion", ok,
           f"VIF(A_probe)={vifs['A_probe']:.0f} (>1000), duplicate column -> inf")


def test_criterion_05_wilson_coverage_and_rule_of_three():
    """Wilson 95% CI simulated coverage; rule of three exact.

    At p = 0.001, n = 1000 no interval method can land in [94, 96.5]:
    attainable coverages step 73.6% -> 92.0% -> 98.1% (exact binomial), so
    the band is read as pooled over the three p values; per-p values are
    printed, and the band is asserted per-p where it is attainable.
    """
    rng = np.random.default_rng(55)
    coverages = {}
    for p in (0.001, 0.01, 0.1):
        ks = rng.binomial(1000, p, size=10_000)
        unique, counts = np.unique(ks, return_counts=True)
        covered = 0
        for k, c in zip(unique, counts):
            low, high = wilson_interval(int(k), 1000, 0.95)
            if low <= p <= high:
                covered += int(c)
        coverages[p] = covered / 10_000
    pooled = float(np.mean(list(coverages.values())))
    in_band = lambda c: 0.94 <= c <= 0.965
    coverage_ok = in_band(pooled) and in_band(coverages[0.01]) and in_band(coverages[0.1])

    r3_ok = all(rule_of_three(n) == 3.0 / n
                for n in (1, 3, 10, 300, 1000, 45_927, 10 ** 6))
    ok = coverage_ok and r3_ok
    report("C5 Wilson coverage + rule of three", ok,
           "per-p coverage " + ", ".join(f"{p}:{c:.4f}" for p, c in coverages.items())
           + f"; pooled {pooled:.4f} in [0.94, 0.965]; 3/n exact")


def test_criterion_06_roc_eer_oracle_and_monotonicity(similarity_profile):
    """Gaussian-overlap EER/AUC analytics plus exact threshold monotonicity."""
    g, i = generate_score_populations(10 ** 5, DistSpec("normal", 1.0, 1.0),
                                      DistSpec("normal", 0.0, 1.0), seed=606)
    curve = det_curve(g, i, similarity_profile)
    eer_target = stats.norm.cdf(-0.5)            # 0.30854
    auc_target = stats.norm.cdf(1.0 / np.sqrt(2.0))   # 0.76025
    eer_ok = abs(curve.eer - eer_target) < 0.01
    auc_ok = abs(curve.auc - auc_target) < 0.005

    rng = np.random.default_rng(66)
    mono_ok = True
    for _ in range(1000):
        n_g = int(rng.integers(5, 120))
        n_i = int(rng.integers(5, 120))
        gg = rng.normal(rng.uniform(0, 1.5), rng.uniform(0.3, 2.0), n_g)
        ii = rng.normal(0.0, rng.uniform(0.3, 2.0), n_i)
        if rng.uniform() < 0.3:
            gg, ii = np.round(gg, 1), np.round(ii, 1)
        c = det_curve(gg, ii, similarity_profile)
        if np.any(np.diff(c.fmr) > 0) or np.any(np.diff(c.fnmr) < 0):
            mono_ok = False
            break
    ok = eer_ok and auc_ok and mono_ok
    report("C6 ROC/EER oracle", ok,
           f"EER {curve.eer:.4f} vs {eer_target:.4f}, AUC {curve.auc:.5f} vs "
           f"{auc_target:.5f}, monotone on 1000 random fixtures: {mono_ok}")


def test_criterion_07_calibration_oracle(similarity_profile):
    """Gaussian fixture recovers the analytic FMR-0.1% threshold."""
    g, i = generate_score_populations(10 ** 6, DistSpec("normal", 50.0, 5.0),
                                      DistSpec("normal", 20.0, 5.0), seed=707)
    res = calibrate_threshold(g, i, similarity_profile, 0.001)
    analytic = 20.0 + stats.norm.ppf(0.999) * 5.0   # 35.4512
    thr_ok = abs(res.threshold - analytic) < 0.25
    fmr_ok = res.achieved_fmr <= 0.001

    rng = np.random.default_rng(77)
    always_below = True
    for _ in range(50):
        gg = rng.normal(rng.uniform(1, 3), 1.0, 400)
        ii = rng.normal(0.0, 1.0, 400)
        target = float(rng.uniform(0.002, 0.2))
        r = calibrate_threshold(gg, ii, similarity_profile, target)
        if r.achieved_fmr > target:
            always_below = False
            break
    ok = thr_ok and fmr_ok and always_below
    report("C7 calibration oracle", ok,
           f"threshold {res.threshold:.4f} vs analytic {analytic:.4f}, achieved "
           f"FMR {res.achieved_fmr:.6f} <= 0.001; achieved<=target on 50 fixtures")


def test_criterion_08_fusion_arithmetic():
    """AND-rule FAR arithmetic reproduced exactly on the 177-accept fixture."""
    n = 138_190
    a = np.full(n, 1.0)
    b = np.full(n, 1.0)
    a[:82] = 50.0                  # A-only accepts
    b[82:174] = 50.0               # B-only accepts
    a[174:177] = 50.0              # both accept
    b[174:177] = 50.0
    table = ComparisonTable(
        kind=[IMPOSTOR] * n, eye=["L"] * n,
        gallery_image_id=[f"g{j}" for j in range(n)],
        probe_image_id=[f"p{j}" for j in range(n)],
        gallery_subject=[f"s{j}" for j in range(n)],
        probe_subject=[f"t{j}" for j in range(n)],
        gap_T_months=[6] * n, delta_age_years=[0] * n, DC=np.full(n, 0.9),
        **{name: np.full(n, 50.0) for name in ("Q_gallery", "Q_probe", "U_gallery", "U_probe",
                                               "C_gallery", "C_probe", "R_gallery", "R_probe",
                                               "A_gallery", "A_probe")},
        scores={"A": a, "B": b})
    pa = MatcherProfile("A", "higher", -1e9, 1e9, 34.0)
    pb = MatcherProfile("B", "higher", -1e9, 1e9, 34.0)
    rep = fuse_and_rule(table, pa, 34.0, pb, 34.0)
    ia = rep.impostor_accepts
    exact = rep.fused_fmr == 3 / n
    headline = abs(rep.fused_fmr - 2.17e-5) < 2e-7
    breakdown = (ia.a_only, ia.b_only, ia.both) == (82, 92, 3)
    ok = exact and headline and breakdown
    report("C8 fusion arithmetic", ok,
           f"fused FAR {rep.fused_fmr:.3e} == 3/138190, breakdown "
           f"{ia.a_only}/{ia.b_only}/{ia.both} of {ia.a_only + ia.b_only + ia.both}")


def _lrt_replicate(seed, beta_t, n_subjects=150, obs_per=8):
    rng = np.random.default_rng(seed)
    n = n_subjects * obs_per
    g = np.repeat(np.arange(n_subjects), obs_per)
    t = rng.choice(np.arange(6, 103, 6), n).astype(float)
    a_gal = np.repeat(rng.integers(4, 13, n_subjects), obs_per).astype(float)
    q = rng.normal(70, 10, n)
    u = rng.multivariate_normal([0, 0], [[83.0 ** 2, 0.0], [0.0, 1.0]], n_subjects)
    y = (520.0 + 6.0 * a_gal + beta_t * t + 1.2 * q + u[g, 0] + u[g, 1] * t
         + rng.normal(0, 61.0, n))
    X_full = np.column_stack([np.ones(n), a_gal, t, q])
    X_nested = np.column_stack([np.ones(n), a_gal, q])
    full = fit_reml(y, X_full, t, g, method="ml")
    nested = fit_reml(y, X_nested, t, g, method="ml")
    return likelihood_ratio_test(nested, full)


def test_criterion_09_lrt_calibration():
    """Null rejection rate within 0.05 +/- 0.03; paper-scale power > 0.99."""
    t0 = time.time()
    rejections = sum(_lrt_replicate(30_000 + i, 0.0).p < 0.05 for i in range(500))
    size = rejections / 500
    hits = sum(_lrt_replicate(60_000 + i, -0.60).p < 0.05 for i in range(100))
    power = hits / 100
    elapsed = time.time() - t0
    ok = 0.02 <= size <= 0.08 and power > 0.99
    report("C9 LRT calibration", ok,
           f"null size {size:.3f} in [0.02, 0.08], power {power:.2f} > 0.99, "
           f"{elapsed:.0f}s")


def test_criterion_10_cv_gap():
    """Out-of-sample R2 sits >= 0.2 below within-sample marginal R2 at ICC ~0.65."""
    covs = {
        "Q": CovariateSpec(60.0, 5.0, 0.0, 100.0, between_sd=20.0),
        "U": CovariateSpec(70.0, 4.0, 0.0, 100.0, between_sd=6.0),
        "C": CovariateSpec(65.0, 3.5, 0.0, 100.0, between_sd=16.0),
        "D": CovariateSpec(0.45, 0.05, 0.10, 0.90),
    }
    s2_u1 = 6.0
    s01 = -48.0 * s2_u1
    s2_u0 = s01 ** 2 / (0.93 ** 2 * s2_u1)
    beta = dict(BETA_PAPER, intercept=500.0, A_gallery=7.0)
    table = synth_table(beta, ((s2_u0, s01), (s01, s2_u1)), 600.0, seed=314,
                        covariates=covs)
    spec = ModelSpec(outcome="m", fixed_terms=QUALITY_TERMS)
    fit = fit_spec(table, spec)
    within = marginal_r2(fit)
    fit0 = fit_reml(table.scores["m"], np.ones((len(table), 1)), None,
                    subject_index(table))
    companion_icc = icc(fit0)
    cv = kfold_subject_cv(table, spec, k=5, seed=99)
    gap = within - cv.mean_oos_r2
    ok = gap >= 0.2 and 0.60 <= companion_icc <= 0.70
    report("C10 CV gap", ok,
           f"marginal R2 {within:.3f}, mean oos R2 {cv.mean_oos_r2:.3f}, gap "
           f"{gap:.3f} >= 0.2, companion ICC {companion_icc:.3f}")


def test_criterion_11_pipeline_determinism(tmp_path):
    """Identical config + seed: byte-identical tables and figures."""
    from test_cli import PIPELINE, write_config
    cfg = write_config(tmp_path / "config.json", tmp_path / "placeholder")
    from longmatch.cli import main
    trees = []
    for name in ("run1", "run2"):
        outdir = tmp_path / name
        for command in PIPELINE:
            code = main([command, "--config", str(cfg), "--out", str(outdir)])
            assert code == 0, f"{command} exited {code}"
        trees.append(outdir)
    files = sorted(p.relative_to(trees[0]) for p in trees[0].rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(trees[1]) for p in trees[1].rglob("*") if p.is_file())
    same_set = files == files2
    diffs = [str(rel) for rel in files
             if (trees[0] / rel).read_bytes() != (trees[1] / rel).read_bytes()]
    ok = same_set and not diffs
    report("C11 determinism", ok,
           f"{len(files)} artifacts byte-identical across two full runs"
           + (f"; diffs: {diffs}" if diffs else ""))
