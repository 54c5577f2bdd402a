"""The estimation loop closed end to end against known ground truth.

Generates longitudinal scores from an exactly-known random-intercept-and-
slope model, runs the full pipeline (captures -> pairs -> scores -> fit),
and checks every recovered quantity against what was injected: fixed
effects, variance components, the intraclass correlation, the random-slope
likelihood-ratio test, and the gap between within-sample marginal R2 and
subject-level out-of-sample R2.
"""

import numpy as np

from longmatch import (
    Continuous, DistSpec, MatcherSim, ModelSpec, SynthConfig, attach_scores,
    fit_reml, fit_spec, generate_genuine_pairs, generate_longitudinal, icc,
    kfold_subject_cv, likelihood_ratio_test, marginal_r2, residual_diagnostics,
)
from longmatch.lmm import format_fit_report

BETA = {"intercept": 520.0, "A_gallery": 6.0, "T": -0.60, "Q_gallery": 1.59,
        "Q_probe": 1.19, "DC": 438.6}
SIGMA = ((83.0**2, -20.0), (-20.0, 1.0))
SIGMA2 = 61.0**2

sim = MatcherSim(name="ve", beta=BETA, Sigma=SIGMA, sigma2=SIGMA2,
                 impostor=DistSpec("normal", 0.0, 30.0))
cfg = SynthConfig(n_subjects=280, images_per_eye_per_session=2,
                  attrition_rate=0.06, matchers=(sim,),
                  include_impostors=False, seed=4242)
result = generate_longitudinal(cfg)
table = attach_scores(generate_genuine_pairs(result.captures),
                      result.scores, result.profiles).table
print(f"{cfg.n_subjects} subjects, {len(table)} genuine comparisons")

spec = ModelSpec(outcome="ve",
                 fixed_terms=(Continuous("Q_gallery"), Continuous("Q_probe"),
                              Continuous("DC")))
fit = fit_spec(table, spec)
print()
print(format_fit_report(fit, "ve ~ A_gallery + T + quality, random 1 + T | subject"))

print("\nrecovery vs injected truth (|error| / SE):")
for name, truth in (("A_gallery", 6.0), ("T", -0.60), ("Q_gallery", 1.59),
                    ("Q_probe", 1.19), ("DC", 438.6)):
    beta, se, _, _ = fit.coefficient(name)
    print(f"  {name:10s} est {beta:9.3f}  truth {truth:8.2f}  dev {abs(beta-truth)/se:.2f} SE")
print(f"  sigma_u0   est {np.sqrt(fit.Sigma[0,0]):7.2f}  truth 83.00")
print(f"  sigma_u1   est {np.sqrt(fit.Sigma[1,1]):7.3f}  truth  1.000")
print(f"  sigma_e    est {np.sqrt(fit.sigma2):7.2f}  truth 61.00")

# intercept-only companion: the single-scalar ICC
g = fit.design.group_index
fit0 = fit_reml(table.scores["ve"], np.ones((len(table), 1)), None, g)
print(f"\nintercept-only companion ICC: {icc(fit0):.3f}")

# do the data demand random slopes at all?
spec_int = ModelSpec(outcome="ve", fixed_terms=spec.fixed_terms,
                     random_structure="intercept")
fit_int = fit_spec(table, spec_int)
lrt = likelihood_ratio_test(fit_int, fit)
print(f"random-slope LRT: chi2 = {lrt.chi2:.1f} on {lrt.df} df, "
      f"p = {lrt.p:.2g} ({lrt.used_method} logliks, {lrt.null_distribution})")

cv = kfold_subject_cv(table, spec, k=5, seed=9)
print(f"\nwithin-sample marginal R2: {marginal_r2(fit):.3f}")
print(f"5-fold subject-level oos R2: {cv.mean_oos_r2:.3f} "
      f"(fixed effects only for unseen subjects)")

diag = residual_diagnostics(fit)
print(f"Shapiro-Wilk on marginal residuals: W = {diag.shapiro_w:.4f} "
      f"(subsampled: {diag.subsampled})")
