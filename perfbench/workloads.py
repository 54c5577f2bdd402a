"""Workload configs for the longmatch benchmark.

Each workload is one longmatch JSON config, built from the run's seed and
nothing else. The seed becomes the config's master `seed`, which drives the
synthesizer, impostor sampling and the CV fold shuffle; the shape of each
workload (subjects, schedule, images, probes, models) is fixed.
"""

from __future__ import annotations

# Two matchers shaped like an iris similarity score and a fractional Hamming
# distance. Their genuine and impostor populations overlap, so FNMR at the
# calibrated threshold is nonzero and the failure categories are populated.
_SIM = {
    "name": "simA", "orientation": "higher",
    "beta": {"intercept": 60.0, "T": -0.05, "Q_gallery": 0.2, "Q_probe": 0.2,
             "DC": 10.0},
    "Sigma": [[25.0, 0.0], [0.0, 0.0004]], "sigma2": 36.0,
    "impostor": {"family": "normal", "loc": 55.0, "scale": 8.0},
}
_DIST = {
    "name": "hamB", "orientation": "lower",
    "beta": {"intercept": 0.30, "T": 0.0005, "Q_probe": -0.0005},
    "Sigma": [[0.0004, 0.0], [0.0, 1e-8]], "sigma2": 0.0016,
    "impostor": {"family": "normal", "loc": 0.46, "scale": 0.015},
}
# Profiles declare ranges far outside anything the generators can draw, so
# no seed can trip the score-range check in attach_scores.
_PROFILES = [
    {"name": "simA", "orientation": "higher", "score_min": -1000.0,
     "score_max": 1000.0, "default_threshold": 75.0},
    {"name": "hamB", "orientation": "lower", "score_min": -10.0,
     "score_max": 10.0, "default_threshold": 0.42},
]
_ALL_QUALITY = ["Q_gallery", "Q_probe", "U_gallery", "U_probe", "C_gallery",
                "C_probe", "DC"]

# Full nine-year semi-annual schedule of the synthesizer (months).
NINE_YEARS = [0, 6, 12, 18, 24, 30, 36, 42, 72, 78, 84, 90, 96, 102]

# Sizes keep a run near 50 s (README: why these sizes). Attrition is 0 so
# that image, pair and output counts are the same for every seed; with the
# synthesizer's 0.134 the output size alone spread 16% across five seeds.
WORKLOADS = {
    "study": dict(
        matchers=_PROFILES,
        pairing={"max_impostor_probes": 2},
        calibration={"target_fmr": 0.001},
        model={"outcome": "simA", "apc_mode": "gallery_age_plus_t",
               "quality_terms": _ALL_QUALITY, "eyes": ["pooled", "L", "R"]},
        cv={"k": 5},
        synth={"n_subjects": 70, "enrollment_age_low": 4,
               "enrollment_age_high": 12, "session_schedule": NINE_YEARS,
               "images_per_eye_per_session": 2, "attrition_rate": 0.0,
               "matchers": [_SIM, _DIST]},
    ),
    "wide_cohort": dict(
        matchers=_PROFILES,
        pairing={"max_impostor_probes": 20},
        calibration={"target_fmr": 0.0001},
        model={"outcome": "simA", "apc_mode": "gallery_age_plus_t",
               "quality_terms": ["Q_gallery", "Q_probe", "DC"],
               "random_structure": "intercept"},
        cv={"k": 5},
        synth={"n_subjects": 150, "enrollment_age_low": 4,
               "enrollment_age_high": 12, "session_schedule": [0, 6, 12],
               "images_per_eye_per_session": 1, "attrition_rate": 0.0,
               "matchers": [_SIM, _DIST]},
    ),
}


def config(workload: str, seed: int) -> dict:
    """The longmatch config of `workload` at master seed `seed`.

    Inputs and outputs live in `out/` next to the config file, so a run
    directory can be copied or compared as a whole.
    """
    return {"seed": seed, "out": "out", "captures": "captures.csv",
            "scores": "scores.csv", "fnmr": {"bin_width_months": 6},
            **WORKLOADS[workload]}
