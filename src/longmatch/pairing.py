"""Comparison protocols: fixed-gallery genuine pairs, seeded impostor pairs.

Both protocols return an unscored ComparisonTable (no score columns), one
row per pair in protocol order; `attach_scores` then joins one score per
matcher onto it.

Genuine protocol: for each subject and eye, every image from the subject's
first attended collection is a gallery template, compared against every
same-eye image from strictly later collections.

Impostor protocol: the capture table is put in its global sorted order
(subject, eye, collection, time, image id); every image serves as gallery and
up to `max_impostor_probes` same-eye images of other subjects are drawn
without replacement. The draw for gallery row r uses SplitMix64 seeded with
base_seed XOR r (r = 0-based position in the sorted table), so output is
bit-identical across runs and platforms and each row's draw is independent
of every other row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    GENUINE, IMPOSTOR, CaptureTable, ComparisonTable, DataError, MatcherProfile,
    ScoreRangeError, dilation_ratio,
)
from .rng import sample_indices
from .tableio import ScoreTable


@dataclass(frozen=True)
class PairingConfig:
    max_impostor_probes: int = 10
    base_seed: int = 0

    def __post_init__(self):
        if self.max_impostor_probes < 1:
            raise ValueError("max_impostor_probes must be >= 1")


def _pair_table(captures: CaptureTable, order: np.ndarray, gallery: list[int],
                probe: list[int], kind: str) -> ComparisonTable:
    """Unscored table of the pairs of rows (order[gallery[i]], order[probe[i]])
    of `captures`, `order` being its canonical row order.

    Genuine gaps are probe minus gallery time and must be positive; impostor
    gaps are absolute. Every capture in a pair needs 0 < pupil < iris; the
    first offending pair raises, as `dilation_ratio` does.
    """
    g = order[np.asarray(gallery, dtype=np.intp)]
    p = order[np.asarray(probe, dtype=np.intp)]
    months, age = captures.capture_time_months, captures.age_years
    pupil, iris = captures.pupil_radius, captures.iris_radius
    gap = months[p] - months[g]
    bad_radii = ~((pupil > 0.0) & (iris > 0.0) & (pupil < iris))
    bad = bad_radii[g] | bad_radii[p]
    if kind == GENUINE:
        bad |= gap <= 0
    else:
        gap = np.abs(gap)
    if bad.any():
        i = int(np.argmax(bad))
        if kind == GENUINE and gap[i] <= 0:
            raise DataError(
                f"probe {captures.image_id[p[i]]} in a later collection than gallery "
                f"{captures.image_id[g[i]]} but not later in time")
        row = g[i] if bad_radii[g[i]] else p[i]
        dilation_ratio(float(pupil[row]), float(iris[row]))

    sides = {"gallery": g, "probe": p}
    values = {"Q": captures.quality, "U": captures.usable_area,
              "C": captures.circularity, "A": age.astype(np.float64)}
    covariates = {f"{name}_{side}": col[rows]
                  for name, col in values.items() for side, rows in sides.items()}
    d_g = covariates["R_gallery"] = pupil[g] / iris[g]
    d_p = covariates["R_probe"] = pupil[p] / iris[p]
    return ComparisonTable(
        kind=np.full(len(g), kind, dtype=object), eye=captures.eye[g],
        gallery_image_id=captures.image_id[g], probe_image_id=captures.image_id[p],
        gallery_subject=captures.subject_id[g], probe_subject=captures.subject_id[p],
        gap_t=gap, delta_age=age[p] - age[g], dc=1.0 - np.abs(d_g - d_p),
        covariates=covariates, scores={},
    )


def generate_genuine_pairs(captures: CaptureTable) -> ComparisonTable:
    """Fixed-gallery genuine pairs; subjects with one collection contribute none."""
    order = captures.order()
    subject = captures.subject_id[order].tolist()
    eye = captures.eye[order].tolist()
    collection = captures.collection_index[order].tolist()
    # sorted positions of each subject, subjects in sorted order
    by_subject: dict[str, list[int]] = {}
    for idx, sid in enumerate(subject):
        by_subject.setdefault(sid, []).append(idx)

    gallery: list[int] = []
    probe: list[int] = []
    for rows in by_subject.values():
        first = min(collection[r] for r in rows)
        for e in ("L", "R"):
            same_eye = [r for r in rows if eye[r] == e]
            probes = [r for r in same_eye if collection[r] > first]
            for r in same_eye:
                if collection[r] == first:
                    gallery += [r] * len(probes)
                    probe += probes
    return _pair_table(captures, order, gallery, probe, GENUINE)


def generate_impostor_pairs(captures: CaptureTable,
                            cfg: PairingConfig) -> ComparisonTable:
    """Seeded same-eye impostor sampling over the globally sorted table.

    Each gallery row's pool is every same-eye image of a different subject,
    in sorted order; min(pool, max_impostor_probes) probes are selected by a
    partial Fisher-Yates shuffle driven by SplitMix64(base_seed XOR row).
    The pool is indexed virtually, so nothing is materialized per row.
    """
    order = captures.order()
    keys = list(zip(captures.subject_id[order].tolist(), captures.eye[order].tolist()))
    # sorted positions of each eye's rows, and each (subject, eye) contiguous span
    eye_rows: dict[str, list[int]] = {"L": [], "R": []}
    spans: dict[tuple[str, str], tuple[int, int]] = {}
    for idx, key in enumerate(keys):
        lst = eye_rows.setdefault(key[1], [])
        if key not in spans:
            spans[key] = (len(lst), len(lst))
        a, _ = spans[key]
        lst.append(idx)
        spans[key] = (a, len(lst))

    gallery: list[int] = []
    probe: list[int] = []
    for row_index, key in enumerate(keys):
        lst = eye_rows[key[1]]
        a, b = spans[key]
        own = b - a
        pool_size = len(lst) - own
        if pool_size == 0:
            continue
        k = min(pool_size, cfg.max_impostor_probes)
        seed = cfg.base_seed ^ row_index
        for pos in sample_indices(pool_size, k, seed):
            gallery.append(row_index)
            # skip over the gallery subject's own contiguous block
            probe.append(lst[pos if pos < a else pos + own])
    return _pair_table(captures, order, gallery, probe, IMPOSTOR)


@dataclass(frozen=True)
class IncompletePair:
    gallery_image_id: str
    probe_image_id: str
    missing_matchers: tuple[str, ...]


@dataclass(frozen=True)
class AttachResult:
    table: ComparisonTable
    incomplete: tuple[IncompletePair, ...] = field(default_factory=tuple)


def attach_scores(pairs: ComparisonTable, scores: ScoreTable,
                  profiles: list[MatcherProfile]) -> AttachResult:
    """Join one score per declared matcher onto every pair.

    Pairs with any missing (gallery, probe, matcher) cell are returned on the
    incomplete list in pair order, never silently dropped; the table holds
    the complete pairs with one score column per profile, in profile order.
    A score outside its profile's range raises ScoreRangeError naming the
    offending pair.
    """
    n = len(pairs)
    columns = {profile.name: np.empty(n) for profile in profiles}
    complete = np.ones(n, dtype=bool)
    incomplete: list[IncompletePair] = []
    for i, (gallery, probe) in enumerate(zip(pairs.gallery_image_id,
                                             pairs.probe_image_id)):
        missing: list[str] = []
        for profile in profiles:
            value = scores.get(gallery, probe, profile.name)
            if value is None:
                missing.append(profile.name)
                continue
            if not (profile.score_min <= value <= profile.score_max):
                raise ScoreRangeError(
                    f"score {value} for matcher {profile.name!r} on pair "
                    f"({gallery}, {probe}) outside "
                    f"[{profile.score_min}, {profile.score_max}]")
            columns[profile.name][i] = value
        if missing:
            complete[i] = False
            incomplete.append(IncompletePair(gallery, probe, tuple(missing)))
    table = pairs.select(complete).with_scores(
        {name: col[complete] for name, col in columns.items()})
    return AttachResult(table, tuple(incomplete))
