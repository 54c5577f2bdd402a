"""Comparison protocols: fixed-gallery genuine pairs, seeded impostor pairs.

Both protocols return an unscored ComparisonTable (no score columns), one
row per pair in protocol order; `attach_scores` then joins one score per
matcher onto it. A genuine table holds every pair column, an impostor table
the key and joined ones only: no model reads impostor capture covariates.
Every capture keeps the capture-row rules (`core.CAPTURE_RULES`, checked
when its CaptureTable was built), so pairing checks only what relates two
captures: the differences of their times and ages.

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
    ScoreRangeError, ScoreTable,
)
from .rng import sample_indices


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
    of `captures`, `order` being its canonical row order; the capture-derived
    pair columns (delta_age_years, DC, Q_*, U_*, C_*, R_*) for genuine pairs only.

    Genuine gaps are probe minus gallery time and must be positive; impostor
    gaps are absolute. Both differences, of time and of age, must fit in
    int64; the first offending pair raises DataError. The rules on one
    capture, 0 < pupil < iris among them, held when `captures` was built.
    """
    g = order[np.asarray(gallery, dtype=np.intp)]
    p = order[np.asarray(probe, dtype=np.intp)]

    def difference(column):
        """column[p] - column[g] as int64 arrays wrap it, and where it wraps."""
        a, b = column[p], column[g]
        d = a - b
        return d, ((a ^ b) & (a ^ d)) < 0   # operands of unlike sign, result unlike a

    gap, gap_wraps = difference(captures.capture_time_months)
    delta_age, age_wraps = difference(captures.age_years)
    if kind != GENUINE:
        gap_wraps |= gap == np.iinfo(np.int64).min   # whose absolute value does not fit
        gap = np.abs(gap)
    bad = gap_wraps | age_wraps
    if kind == GENUINE:
        bad |= gap <= 0
    if bad.any():
        i = int(np.argmax(bad))
        if gap_wraps[i] or age_wraps[i]:
            raise DataError(
                f"the {'capture_time_months' if gap_wraps[i] else 'age_years'} difference of "
                f"gallery {captures.image_id[g[i]]} and probe {captures.image_id[p[i]]} "
                f"does not fit in int64")
        raise DataError(
            f"probe {captures.image_id[p[i]]} in a later collection than gallery "
            f"{captures.image_id[g[i]]} but not later in time")

    columns = {}
    if kind == GENUINE:
        sides = {"gallery": g, "probe": p}
        values = {"Q": captures.quality, "U": captures.usable_area, "C": captures.circularity}
        columns = {f"{name}_{side}": col[rows]
                   for name, col in values.items() for side, rows in sides.items()}
        ratio = captures.pupil_radius / captures.iris_radius
        columns.update(R_gallery=ratio[g], R_probe=ratio[p])
        columns.update(delta_age_years=delta_age,
                       DC=1.0 - np.abs(columns["R_gallery"] - columns["R_probe"]))
    return ComparisonTable(
        kind=np.full(len(g), kind, dtype=object), eye=captures.eye[g],
        gallery_image_id=captures.image_id[g], probe_image_id=captures.image_id[p],
        gap_T_months=gap, **columns, **captures.joined(g, p), scores={})


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
    gallery = pairs.gallery_image_id.tolist()
    probe = pairs.probe_image_id.tolist()
    rows = np.empty((len(pairs), len(profiles)), dtype=np.intp)
    for j, profile in enumerate(profiles):
        rows[:, j] = scores.rows(gallery, probe, profile.name)
    present = rows >= 0
    # row -1 reads the NaN appended after the last score
    values = np.append(scores.score, np.nan)[rows]
    low = np.array([profile.score_min for profile in profiles])
    high = np.array([profile.score_max for profile in profiles])
    outside = np.flatnonzero(present & ~((low <= values) & (values <= high)))
    if outside.size:
        i, j = divmod(int(outside[0]), len(profiles))
        profile = profiles[j]
        raise ScoreRangeError(
            f"score {float(values[i, j])} for matcher {profile.name!r} on pair "
            f"({gallery[i]}, {probe[i]}) outside "
            f"[{profile.score_min}, {profile.score_max}]")
    complete = present.all(axis=1)
    incomplete = tuple(
        IncompletePair(gallery[i], probe[i],
                       tuple(p.name for p, found in zip(profiles, present[i]) if not found))
        for i in np.flatnonzero(~complete).tolist())
    table = pairs.select(complete).with_scores(
        {profile.name: values[complete, j] for j, profile in enumerate(profiles)})
    return AttachResult(table, incomplete)
