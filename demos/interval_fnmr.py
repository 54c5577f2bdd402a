"""How stable are genuine scores over years of elapsed time?

Generates a nine-year longitudinal study with a mild true aging trend,
builds the fixed-gallery comparison protocol, and tracks the false
non-match rate across 6-month intervals with Wilson confidence bounds
(rule-of-three upper bounds where an interval has zero errors).
"""

from longmatch import (
    DistSpec, MatcherSim, PairingConfig, SynthConfig, attach_scores,
    fnmr_by_interval, generate_genuine_pairs, generate_impostor_pairs,
    generate_longitudinal,
)
from longmatch.svgplot import Chart, Series, render

sim = MatcherSim(
    name="simmatch", orientation="higher",
    beta={"intercept": 420.0, "T": -0.45, "Q_gallery": 1.2, "Q_probe": 1.0,
          "DC": 120.0},
    Sigma=((55.0**2, 0.0), (0.0, 0.6**2)), sigma2=45.0**2,
    impostor=DistSpec("normal", 40.0, 35.0))
cfg = SynthConfig(n_subjects=220, images_per_eye_per_session=2,
                  attrition_rate=0.10, matchers=(sim,),
                  pairing=PairingConfig(max_impostor_probes=5, base_seed=7),
                  seed=20240601)

result = generate_longitudinal(cfg)
profile = result.profiles[0]
genuine = attach_scores(generate_genuine_pairs(result.captures),
                        result.scores, [profile]).table
impostor = attach_scores(generate_impostor_pairs(result.captures, cfg.pairing),
                         result.scores, [profile]).table
print(f"{len(result.captures)} images -> {len(genuine)} genuine / "
      f"{len(impostor)} impostor comparisons")

threshold = 520.0
stats = fnmr_by_interval(genuine, profile, threshold)
print(f"\ninterval FNMR at threshold {threshold} ({profile.orientation} is better):")
print(f"{'months':>7} {'n':>7} {'errors':>7} {'FNMR':>9} {'CI':>22} method")
for s in stats:
    ci = f"[{s.ci_low:.5f}, {s.ci_high:.5f}]"
    print(f"{s.interval_months:>7} {s.n_genuine:>7} {s.n_false_nonmatch:>7} "
          f"{s.fnmr:>9.5f} {ci:>22} {s.ci_method}")

chart = Chart("Longitudinal FNMR with 95% bounds", "gap (months)", "FNMR (%)")
chart.series.append(Series(
    name="simmatch", x=[s.interval_months for s in stats],
    y=[100 * s.fnmr for s in stats],
    whisker_low=[100 * s.ci_low for s in stats],
    whisker_high=[100 * s.ci_high for s in stats]))
render(chart, "demo_interval_fnmr.svg")
print("\nwrote demo_interval_fnmr.svg")
