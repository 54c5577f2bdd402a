"""Canonical data model: captures, matcher profiles, comparison pairs.

Captures are immutable records. Comparison pairs exist only as the columnar
ComparisonTable, from pairing onward. Tables are read-only after
construction and safe to share across parallel workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

EYES = ("L", "R")
GENUINE = "genuine"
IMPOSTOR = "impostor"
HIGHER_IS_BETTER = "higher"
LOWER_IS_BETTER = "lower"

# pair covariates carried alongside every comparison; A_* are needed by the
# longitudinal models and are re-joined from the capture table when pairs are
# read back from disk (the pair-file header does not include them)
QUALITY_COVARIATES = (
    "Q_gallery", "Q_probe",
    "U_gallery", "U_probe",
    "C_gallery", "C_probe",
    "R_gallery", "R_probe",
)
AGE_COVARIATES = ("A_gallery", "A_probe")
PAIR_COVARIATES = QUALITY_COVARIATES + AGE_COVARIATES


class DataError(Exception):
    """A table violates a structural contract."""


class DuplicateImageIdError(DataError):
    pass


class ScoreRangeError(DataError):
    pass


def dilation_ratio(r_pupil: float, r_iris: float) -> float:
    """Pupil-to-iris radius ratio, dimensionless in (0, 1).

    Scale invariant, so radii can be in any common unit (pixels here).
    """
    if not (r_pupil > 0.0 and r_iris > 0.0):
        raise ValueError(f"radii must be positive, got ({r_pupil}, {r_iris})")
    if r_pupil >= r_iris:
        raise ValueError(f"pupil radius {r_pupil} must be smaller than iris radius {r_iris}")
    return r_pupil / r_iris


def dilation_constancy(d_gallery: float, d_probe: float) -> float:
    """1 - |D_gallery - D_probe|: 1.0 for identical dilation, 0.0 for maximal mismatch."""
    for d in (d_gallery, d_probe):
        if not (0.0 <= d <= 1.0):
            raise ValueError(f"dilation ratio {d} outside [0, 1]")
    return 1.0 - abs(d_gallery - d_probe)


@dataclass(frozen=True)
class CaptureRecord:
    """One eye image's metadata row."""

    image_id: str
    subject_id: str
    eye: str                   # "L" or "R"
    collection_index: int      # 1-based session number
    capture_time_months: int   # months since the dataset epoch
    age_years: int             # integer years at capture
    quality: float             # composite quality, 0..100
    usable_area: float         # 0..100
    circularity: float         # 0..100
    pupil_radius: float        # pixels
    iris_radius: float         # pixels

    def dilation(self) -> float:
        return dilation_ratio(self.pupil_radius, self.iris_radius)

    def sort_key(self):
        return (self.subject_id, self.eye, self.collection_index,
                self.capture_time_months, self.image_id)


@dataclass(frozen=True)
class MatcherProfile:
    """Score orientation and threshold semantics for one matcher."""

    name: str
    orientation: str  # "higher" (similarity) or "lower" (distance)
    score_min: float
    score_max: float
    default_threshold: float

    def __post_init__(self):
        if self.orientation not in (HIGHER_IS_BETTER, LOWER_IS_BETTER):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if not self.score_min < self.score_max:
            raise ValueError("score_min must be strictly below score_max")
        if not (self.score_min <= self.default_threshold <= self.score_max):
            raise ValueError("default_threshold outside the score range")


class CaptureTable:
    """Immutable collection of capture records."""

    def __init__(self, records: Iterable[CaptureRecord]):
        self._records = tuple(records)
        index: dict[str, CaptureRecord] = {}
        for rec in self._records:
            index.setdefault(rec.image_id, rec)
        self._by_image = index

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[CaptureRecord]:
        return iter(self._records)

    @property
    def records(self) -> tuple[CaptureRecord, ...]:
        return self._records

    def get(self, image_id: str) -> CaptureRecord | None:
        return self._by_image.get(image_id)

    def sorted_records(self) -> list[CaptureRecord]:
        """Global canonical order: subject, eye, collection, time, image id."""
        return sorted(self._records, key=CaptureRecord.sort_key)

    def subject_ids(self) -> list[str]:
        return sorted({rec.subject_id for rec in self._records})


@dataclass(frozen=True)
class ValidationFinding:
    image_id: str
    violation: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[ValidationFinding, ...]
    counts: dict[str, int]
    n_records: int
    n_flagged: int

    @property
    def flagged_fraction(self) -> float:
        return self.n_flagged / self.n_records if self.n_records else 0.0

    def is_clean(self) -> bool:
        return not self.findings


def validate_dataset(captures: CaptureTable) -> ValidationReport:
    """List every invariant violation per record; nothing is dropped.

    Violation classes: "duplicate key", "dilation bounds", "quality range",
    "collection index".
    """
    findings: list[ValidationFinding] = []
    seen: set[str] = set()
    flagged: set[int] = set()

    def add(i, rec, violation, detail):
        findings.append(ValidationFinding(rec.image_id, violation, detail))
        flagged.add(i)

    for i, rec in enumerate(captures):
        if rec.image_id in seen:
            add(i, rec, "duplicate key", f"image_id {rec.image_id} already present")
        seen.add(rec.image_id)
        if not (0.0 < rec.pupil_radius < rec.iris_radius):
            add(i, rec, "dilation bounds",
                f"pupil {rec.pupil_radius} vs iris {rec.iris_radius}")
        for name in ("quality", "usable_area", "circularity"):
            value = getattr(rec, name)
            if not (0.0 <= value <= 100.0):
                add(i, rec, "quality range", f"{name}={value}")
        if rec.collection_index < 1:
            add(i, rec, "collection index", f"collection_index={rec.collection_index}")
        if rec.eye not in EYES:
            add(i, rec, "eye value", f"eye={rec.eye!r}")

    counts: dict[str, int] = {}
    for f in findings:
        counts[f.violation] = counts.get(f.violation, 0) + 1
    return ValidationReport(tuple(findings), counts, len(captures), len(flagged))


class ComparisonTable:
    """Columnar, read-only table of comparison pairs, one row per pair.

    Pairing builds it unscored, `attach_scores` adds one score column per
    matcher, and metric and model code reads its numpy columns.
    """

    # the per-pair columns besides the covariate and score maps
    _COLUMNS = ("kind", "eye", "gallery_image_id", "probe_image_id",
                "gallery_subject", "probe_subject", "gap_t", "delta_age", "dc")

    def __init__(self, *, kind, eye, gallery_image_id, probe_image_id,
                 gallery_subject, probe_subject, gap_t, delta_age, dc,
                 covariates, scores):
        self.kind = np.asarray(kind, dtype=object)
        self.eye = np.asarray(eye, dtype=object)
        self.gallery_image_id = np.asarray(gallery_image_id, dtype=object)
        self.probe_image_id = np.asarray(probe_image_id, dtype=object)
        self.gallery_subject = np.asarray(gallery_subject, dtype=object)
        self.probe_subject = np.asarray(probe_subject, dtype=object)
        self.gap_t = np.asarray(gap_t, dtype=np.int64)
        self.delta_age = np.asarray(delta_age, dtype=np.int64)
        self.dc = np.asarray(dc, dtype=np.float64)
        self.covariates = {k: np.asarray(v, dtype=np.float64) for k, v in covariates.items()}
        self.scores = {k: np.asarray(v, dtype=np.float64) for k, v in scores.items()}
        n = len(self.kind)
        for arr in (self.eye, self.gallery_image_id, self.probe_image_id,
                    self.gallery_subject, self.probe_subject, self.gap_t,
                    self.delta_age, self.dc, *self.covariates.values(),
                    *self.scores.values()):
            if len(arr) != n:
                raise ValueError("column length mismatch")
        for arr in (self.gap_t, self.delta_age, self.dc, *self.covariates.values(),
                    *self.scores.values()):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def matchers(self) -> tuple[str, ...]:
        return tuple(self.scores.keys())

    def select(self, mask: np.ndarray) -> "ComparisonTable":
        """Subset or reorder: boolean mask or integer index array."""
        mask = np.asarray(mask)
        if mask.dtype != bool:
            mask = np.asarray(mask, dtype=np.intp)
        return ComparisonTable(
            **{name: getattr(self, name)[mask] for name in self._COLUMNS},
            covariates={k: v[mask] for k, v in self.covariates.items()},
            scores={k: v[mask] for k, v in self.scores.items()},
        )

    def with_scores(self, scores: dict[str, np.ndarray]) -> "ComparisonTable":
        """The same pairs with `scores` (matcher -> column) as their scores."""
        return ComparisonTable(
            **{name: getattr(self, name) for name in self._COLUMNS},
            covariates=self.covariates, scores=scores,
        )

    @classmethod
    def concat(cls, tables: list["ComparisonTable"]) -> "ComparisonTable":
        if not tables:
            raise ValueError("nothing to concatenate")
        cov_names = sorted(set().union(*(t.covariates.keys() for t in tables)))
        matchers = sorted(set().union(*(t.scores.keys() for t in tables)))

        def col(name, table, n):
            store = table.covariates if name in table.covariates else table.scores
            return store[name] if name in store else np.full(n, np.nan)

        return cls(
            **{name: np.concatenate([getattr(t, name) for t in tables])
               for name in cls._COLUMNS},
            covariates={name: np.concatenate([col(name, t, len(t)) for t in tables])
                        for name in cov_names},
            scores={name: np.concatenate([col(name, t, len(t)) for t in tables])
                    for name in matchers},
        )

    def genuine_mask(self) -> np.ndarray:
        return self.kind == GENUINE

    def genuine_only(self) -> "ComparisonTable":
        return self.select(self.genuine_mask())

    def impostor_only(self) -> "ComparisonTable":
        return self.select(~self.genuine_mask())

    def score(self, matcher: str) -> np.ndarray:
        if matcher not in self.scores:
            raise KeyError(f"no scores for matcher {matcher!r}")
        return self.scores[matcher]

    def column(self, name: str) -> np.ndarray:
        """Numeric column by model name; T/delta_A/DC aliases included."""
        if name in ("T", "gap_T_months"):
            return self.gap_t.astype(np.float64)
        if name in ("delta_A", "delta_age_years"):
            return self.delta_age.astype(np.float64)
        if name == "DC":
            return self.dc
        if name in self.covariates:
            return self.covariates[name]
        if name in self.scores:
            return self.scores[name]
        raise KeyError(f"unknown column {name!r}")

    def subjects(self) -> list[str]:
        """Distinct genuine-pair subjects, sorted."""
        mask = self.genuine_mask()
        return sorted(set(self.gallery_subject[mask]))
