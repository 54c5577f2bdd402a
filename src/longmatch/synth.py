"""Generative oracle: longitudinal capture/score tables from known ground truth.

Genuine scores follow the same random-intercept-and-slope structure the
model module estimates,

    y = x' beta + u_0i + u_1i * T + eps,

so every fitting routine can be checked against injected truth. Impostor
scores come from a configurable location-scale family. Generation is fully
deterministic given the seed (one PCG64 stream consumed in a fixed order).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    HIGHER_IS_BETTER, LOWER_IS_BETTER, PAIR_COVARIATES, CaptureTable,
    MatcherProfile,
)
from .pairing import PairingConfig, generate_genuine_pairs, generate_impostor_pairs
from .tableio import ScoreTable


class SynthConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DistSpec:
    """Location-scale score distribution: normal(loc, scale) or uniform[loc, loc+scale)."""
    family: str
    loc: float
    scale: float

    def __post_init__(self):
        if self.family not in ("normal", "uniform"):
            raise SynthConfigError(f"unknown distribution family {self.family!r}")
        if self.family == "normal" and self.scale < 0:
            raise SynthConfigError("normal scale must be >= 0")
        if self.family == "uniform" and self.scale <= 0:
            raise SynthConfigError("uniform scale must be > 0")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.family == "normal":
            return rng.normal(self.loc, self.scale, size)
        return rng.uniform(self.loc, self.loc + self.scale, size)


@dataclass(frozen=True)
class CovariateSpec:
    """Truncated-normal covariate; between_sd adds a persistent subject component."""
    mean: float
    sd: float
    low: float
    high: float
    between_sd: float = 0.0

    def __post_init__(self):
        if not self.low < self.high:
            raise SynthConfigError("covariate bounds must satisfy low < high")
        if self.sd < 0 or self.between_sd < 0:
            raise SynthConfigError("covariate sds must be >= 0")


DEFAULT_COVARIATES = {
    "Q": CovariateSpec(70.0, 10.0, 0.0, 100.0),
    "U": CovariateSpec(80.0, 8.0, 0.0, 100.0),
    "C": CovariateSpec(85.0, 6.0, 0.0, 100.0),
    "D": CovariateSpec(0.45, 0.08, 0.10, 0.90),   # per-image dilation ratio
}


# the genuine-pair columns a beta may weight (ComparisonTable.column names)
_BETA_TERMS = frozenset(("intercept", "T", "gap_T_months", "delta_A", "delta_age_years", "DC")
                       + PAIR_COVARIATES)


@dataclass(frozen=True)
class MatcherSim:
    """Ground-truth effect structure for one simulated matcher."""
    name: str = "simmatch"
    orientation: str = "higher"
    beta: dict = field(default_factory=lambda: {"intercept": 500.0, "T": -0.6})
    Sigma: tuple = ((80.0**2, 0.0), (0.0, 1.0))
    sigma2: float = 60.0**2
    impostor: DistSpec = DistSpec("normal", 0.0, 30.0)

    def __post_init__(self):
        if self.orientation not in (HIGHER_IS_BETTER, LOWER_IS_BETTER):
            raise SynthConfigError(f"unknown orientation {self.orientation!r}")
        if not self.sigma2 >= 0:
            raise SynthConfigError("sigma2 must be >= 0")
        unknown = sorted(set(self.beta) - _BETA_TERMS)
        if unknown:
            raise SynthConfigError(f"beta names unknown column(s) {unknown}")
        self.sigma_matrix()

    def sigma_matrix(self) -> np.ndarray:
        S = np.atleast_2d(np.asarray(self.Sigma, dtype=np.float64))
        if S.shape != (2, 2) or not np.allclose(S, S.T):
            raise SynthConfigError("Sigma must be a symmetric 2x2 matrix")
        if np.min(np.linalg.eigvalsh(S)) < -1e-10:
            raise SynthConfigError("Sigma must be positive semi-definite")
        return S


@dataclass(frozen=True)
class SynthConfig:
    n_subjects: int = 100
    enrollment_age_low: int = 4
    enrollment_age_high: int = 12
    session_schedule: tuple = (0, 6, 12, 18, 24, 30, 36, 42, 72, 78, 84, 90, 96, 102)
    images_per_eye_per_session: int = 2
    covariates: dict = field(default_factory=lambda: dict(DEFAULT_COVARIATES))
    matchers: tuple = (MatcherSim(),)
    attrition_rate: float = 0.134
    include_impostors: bool = True
    pairing: PairingConfig = PairingConfig()
    seed: int = 0

    def __post_init__(self):
        if self.n_subjects < 1:
            raise SynthConfigError("n_subjects must be >= 1")
        if self.enrollment_age_low > self.enrollment_age_high:
            raise SynthConfigError("enrollment age range is empty")
        sched = tuple(self.session_schedule)
        if not sched or any(b <= a for a, b in zip(sched, sched[1:])):
            raise SynthConfigError("session_schedule must be non-empty and strictly increasing")
        if not (0.0 <= self.attrition_rate < 1.0):
            raise SynthConfigError("attrition_rate must lie in [0, 1)")
        if self.images_per_eye_per_session < 1:
            raise SynthConfigError("images_per_eye_per_session must be >= 1")
        if not self.matchers:
            raise SynthConfigError("at least one matcher block is required")
        if len({m.name for m in self.matchers}) < len(self.matchers):
            raise SynthConfigError("matcher names must be unique")
        if set(self.covariates) != set(DEFAULT_COVARIATES):
            raise SynthConfigError(f"covariates must be exactly {sorted(DEFAULT_COVARIATES)}")


@dataclass(frozen=True)
class GroundTruth:
    subject_ids: tuple
    enrollment_ages: np.ndarray
    random_effects: dict          # matcher -> (m, 2) array of (u0, u1)
    betas: dict                   # matcher -> beta map
    sigmas: dict                  # matcher -> 2x2 Sigma
    sigma2s: dict                 # matcher -> residual variance
    seed: int
    n_genuine: int
    n_impostor: int

    def to_json(self, path) -> None:
        payload = {
            "seed": self.seed,
            "n_genuine": self.n_genuine,
            "n_impostor": self.n_impostor,
            "subject_ids": list(self.subject_ids),
            "enrollment_ages": self.enrollment_ages.tolist(),
            "matchers": {
                name: {
                    "beta": self.betas[name],
                    "Sigma": np.asarray(self.sigmas[name]).tolist(),
                    "sigma2": self.sigma2s[name],
                    "random_effects": self.random_effects[name].tolist(),
                }
                for name in self.betas
            },
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True),
                              encoding="utf-8")


@dataclass(frozen=True)
class SynthResult:
    captures: CaptureTable
    scores: ScoreTable
    truth: GroundTruth
    profiles: tuple


def _normal_mass(low, high, mean, sd):
    """P(low <= X <= high) for X ~ normal(mean, sd); `mean` may be an array."""
    from scipy import special

    return special.ndtr((high - mean) / sd) - special.ndtr((low - mean) / sd)


def _truncated_normal(rng, mean, sd, low, high, size):
    if sd == 0.0:
        if not (low <= mean <= high):
            raise SynthConfigError(f"degenerate covariate mean {mean} outside [{low}, {high}]")
        return np.full(size, float(mean))
    mass = _normal_mass(low, high, mean, sd)
    if mass < 1e-6:
        raise SynthConfigError(
            f"infeasible bounds: [{low}, {high}] carries ~zero mass under "
            f"normal({mean}, {sd})")
    out = rng.normal(mean, sd, size)
    bad = (out < low) | (out > high)
    while bad.any():
        out[bad] = rng.normal(mean, sd, int(bad.sum()))
        bad = (out < low) | (out > high)
    return out


def _psd_factor(S: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(S)
    return U @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def _profile_from_scores(name, orientation, values) -> MatcherProfile:
    if len(values) == 0:
        return MatcherProfile(name=name, orientation=orientation,
                              score_min=-1.0, score_max=1.0,
                              default_threshold=0.0)
    lo = float(np.min(values))
    hi = float(np.max(values))
    pad = 0.05 * (hi - lo) + 1.0
    return MatcherProfile(name=name, orientation=orientation,
                          score_min=lo - pad, score_max=hi + pad,
                          default_threshold=(lo + hi) / 2.0)


def _finite(sim: MatcherSim, kind: str, scores: np.ndarray) -> np.ndarray:
    """`scores`; SynthConfigError naming the matcher when one is not finite."""
    if not np.isfinite(scores).all():
        raise SynthConfigError(f"matcher {sim.name!r} draws non-finite {kind} scores")
    return scores


def generate_longitudinal(cfg: SynthConfig) -> SynthResult:
    """Generate captures, matcher scores for every protocol pair, and truth.

    Subjects all enroll at the first scheduled session and drop out
    permanently with probability attrition_rate at each later session
    (independent per-session exits). Integer ages derive from a continuous
    latent birth offset and floor(), reproducing the integer-age vs
    continuous-time mismatch of real longitudinal tables.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    m = cfg.n_subjects
    schedule = tuple(cfg.session_schedule)
    n_sessions = len(schedule)

    subject_ids = tuple(f"S{i:05d}" for i in range(m))
    ages0 = rng.integers(cfg.enrollment_age_low, cfg.enrollment_age_high + 1, m)
    birth_frac = rng.uniform(0.0, 1.0, m)

    if n_sessions > 1:
        exit_draws = rng.uniform(0.0, 1.0, (m, n_sessions - 1))
        dropped = exit_draws < cfg.attrition_rate
        attends = np.ones((m, n_sessions), dtype=bool)
        attends[:, 1:] = ~np.maximum.accumulate(dropped, axis=1)
    else:
        attends = np.ones((m, 1), dtype=bool)

    cov_names = sorted(cfg.covariates)
    subj_means = {}
    for name in cov_names:
        spec = cfg.covariates[name]
        if spec.between_sd > 0:
            subj_means[name] = _truncated_normal(rng, spec.mean, spec.between_sd,
                                                 spec.low, spec.high, m)
        else:
            subj_means[name] = np.full(m, spec.mean)

    effects = {}
    for sim in cfg.matchers:
        factor = _psd_factor(sim.sigma_matrix())
        effects[sim.name] = rng.standard_normal((m, 2)) @ factor.T

    # capture skeleton in (subject, session, eye, image) order
    skel_subject: list[int] = []
    skel_session: list[int] = []
    skel_eye: list[str] = []
    for i in range(m):
        for s in range(n_sessions):
            if not attends[i, s]:
                continue
            for eye in ("L", "R"):
                for _ in range(cfg.images_per_eye_per_session):
                    skel_subject.append(i)
                    skel_session.append(s)
                    skel_eye.append(eye)
    n_images = len(skel_subject)
    subj_arr = np.array(skel_subject, dtype=np.int64)
    sess_arr = np.array(skel_session, dtype=np.int64)

    image_cov = {}
    for name in cov_names:
        spec = cfg.covariates[name]
        base = subj_means[name][subj_arr]
        if spec.sd == 0.0:
            image_cov[name] = np.clip(base, spec.low, spec.high)
            continue
        mass = _normal_mass(spec.low, spec.high, base, spec.sd)
        if np.min(mass) < 1e-6:
            raise SynthConfigError(f"infeasible bounds for covariate {name!r}")
        vals = rng.normal(base, spec.sd)
        bad = (vals < spec.low) | (vals > spec.high)
        while bad.any():
            vals[bad] = rng.normal(base[bad], spec.sd)
            bad = (vals < spec.low) | (vals > spec.high)
        image_cov[name] = vals
    iris = np.clip(rng.normal(120.0, 6.0, n_images), 80.0, 160.0)

    months = np.array([schedule[s] for s in skel_session], dtype=np.int64)
    latent_age = ages0[subj_arr] + birth_frac[subj_arr] + months / 12.0
    age_years = np.floor(latent_age).astype(np.int64)

    captures = CaptureTable(
        image_id=[f"I{j:07d}" for j in range(n_images)],
        subject_id=np.array(subject_ids, dtype=object)[subj_arr], eye=skel_eye,
        collection_index=sess_arr + 1, capture_time_months=months, age_years=age_years,
        quality=image_cov["Q"], usable_area=image_cov["U"], circularity=image_cov["C"],
        pupil_radius=image_cov["D"] * iris, iris_radius=iris)

    gen_table = generate_genuine_pairs(captures)
    subj_index = {sid: i for i, sid in enumerate(subject_ids)}
    gi = np.fromiter((subj_index[s] for s in gen_table.gallery_subject),
                     dtype=np.int64, count=len(gen_table))
    gap = gen_table.gap_t.astype(np.float64)

    scores = ScoreTable()
    observed: dict[str, list[np.ndarray]] = {sim.name: [] for sim in cfg.matchers}
    for sim in cfg.matchers:
        with np.errstate(over="ignore", invalid="ignore"):   # _finite refuses the result
            lin = np.zeros(len(gen_table))
            for key, coef in sim.beta.items():
                if coef == 0.0:
                    continue
                lin = lin + coef * (np.ones(len(gen_table)) if key == "intercept"
                                    else gen_table.column(key))
            u = effects[sim.name]
            eps = rng.normal(0.0, np.sqrt(sim.sigma2), len(gen_table)) if sim.sigma2 > 0 \
                else np.zeros(len(gen_table))
            vals = _finite(sim, "genuine", lin + u[gi, 0] + u[gi, 1] * gap + eps)
        observed[sim.name].append(vals)
        for gid, pid, value in zip(gen_table.gallery_image_id,
                                   gen_table.probe_image_id, vals.tolist()):
            scores.add(gid, pid, sim.name, value)

    n_impostor = 0
    if cfg.include_impostors:
        impostor = generate_impostor_pairs(captures, cfg.pairing)
        n_impostor = len(impostor)
        for sim in cfg.matchers:
            vals = _finite(sim, "impostor", sim.impostor.draw(rng, n_impostor))
            observed[sim.name].append(vals)
            for gid, pid, value in zip(impostor.gallery_image_id,
                                       impostor.probe_image_id, vals.tolist()):
                scores.add(gid, pid, sim.name, value)

    profiles = tuple(
        _profile_from_scores(sim.name, sim.orientation,
                             np.concatenate(observed[sim.name]))
        for sim in cfg.matchers)
    truth = GroundTruth(
        subject_ids=subject_ids, enrollment_ages=np.asarray(ages0),
        random_effects=effects,
        betas={sim.name: dict(sim.beta) for sim in cfg.matchers},
        sigmas={sim.name: sim.sigma_matrix() for sim in cfg.matchers},
        sigma2s={sim.name: sim.sigma2 for sim in cfg.matchers},
        seed=cfg.seed, n_genuine=len(gen_table), n_impostor=n_impostor,
    )
    return SynthResult(captures, scores, truth, profiles)


def generate_score_populations(n: int, genuine_dist: DistSpec,
                               impostor_dist: DistSpec,
                               seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. genuine and impostor scores, deterministic by seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    return genuine_dist.draw(rng, n), impostor_dist.draw(rng, n)
