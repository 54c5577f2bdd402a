"""Comparison protocols: fixed-gallery genuine pairs, seeded impostor pairs.

Both protocols return an unscored ComparisonTable (no score columns), one
row per pair in protocol order; `attach_scores` then joins one score per
matcher onto it. A genuine table holds every pair column, an impostor table
the key columns only: no model reads impostor capture covariates.
Every capture keeps the capture-row rules (`core.CAPTURE_RULES`, checked
when its CaptureTable was built), so pairing checks only what relates two
captures: the difference of their times (the capture join checks that of a
genuine pair's ages).

Both protocols are index arithmetic over one grouping of the capture table
in its global sorted order (subject, eye, collection, time, image id): its
(subject, eye) runs and where each subject starts.

Genuine protocol: for each subject and eye, every image from the subject's
first attended collection is a gallery template, compared against every
same-eye image from strictly later collections.

Impostor protocol: every image serves as gallery and up to
`max_impostor_probes` same-eye images of other subjects are drawn without
replacement. The draw for gallery row r uses SplitMix64 seeded with
base_seed XOR r (r = 0-based position in the sorted table), so output is
bit-identical across runs and platforms and each row's draw is independent
of every other row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import (
    GENUINE, IMPOSTOR, CaptureTable, ComparisonTable, MatcherProfile, ScoreRangeError,
    ScoreTable, _difference,
)
from .rng import sample_indices


@dataclass(frozen=True)
class PairingConfig:
    max_impostor_probes: int = 10
    base_seed: int = 0

    def __post_init__(self):
        if self.max_impostor_probes < 1:
            raise ValueError("max_impostor_probes must be >= 1")


def _pair_table(captures: CaptureTable, g: np.ndarray, p: np.ndarray,
                kind: str) -> ComparisonTable:
    """Unscored table of the pairs of rows (g[i], p[i]) of `captures`; the
    JOINED_COLUMNS for genuine pairs only.

    Genuine gaps are probe minus gallery time and must be positive; impostor
    gaps are absolute. The time difference must fit in int64; the first
    offending pair raises DataError. The rules on one capture, 0 < pupil <
    iris among them, held when `captures` was built.
    """
    gap = _difference(captures, "capture_time_months", g, p,
                      absolute=kind == IMPOSTOR, later=kind == GENUINE)
    columns = captures.joined(g, p) if kind == GENUINE else {}
    return ComparisonTable(
        kind=np.full(len(g), kind, dtype=object), eye=captures.eye[g],
        gallery_image_id=captures.image_id[g], probe_image_id=captures.image_id[p],
        gap_T_months=gap, **columns, scores={})


def _sorted_runs(captures: CaptureTable):
    """The canonical row order of `captures` and, over the rows in that
    order: each row's (subject, eye) run, the first and one-past-last row
    of every run, and the first row of every subject."""
    order = captures.order()
    subject, eye = captures.subject_id[order], captures.eye[order]
    new_subject = np.ones(len(order), dtype=bool)
    new_subject[1:] = subject[1:] != subject[:-1]
    new_run = new_subject.copy()
    new_run[1:] |= eye[1:] != eye[:-1]
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], len(order))
    return order, np.cumsum(new_run) - 1, starts, ends, np.flatnonzero(new_subject)


def generate_genuine_pairs(captures: CaptureTable) -> ComparisonTable:
    """Fixed-gallery genuine pairs; subjects with one collection contribute none."""
    order, run, starts, ends, subject_starts = _sorted_runs(captures)
    collection = captures.collection_index[order]
    first = np.repeat(np.minimum.reduceat(collection, subject_starts),
                      np.diff(np.append(subject_starts, len(order))))
    # a run is sorted by collection: its gallery rows, those of the subject's
    # first collection, are a prefix, and every row after them is a probe
    gallery = np.flatnonzero(collection == first)
    probe_start = starts + np.bincount(run[gallery], minlength=len(starts))
    n_probes = (ends - probe_start)[run[gallery]]
    offsets = np.repeat(probe_start[run[gallery]] - (np.cumsum(n_probes) - n_probes), n_probes)
    g = np.repeat(gallery, n_probes)
    return _pair_table(captures, order[g], order[offsets + np.arange(len(g))], GENUINE)


def generate_impostor_pairs(captures: CaptureTable,
                            cfg: PairingConfig) -> ComparisonTable:
    """Seeded same-eye impostor sampling over the globally sorted table.

    Each gallery row's pool is every same-eye image of a different subject,
    in sorted order; min(pool, max_impostor_probes) probes are selected by a
    partial Fisher-Yates shuffle driven by SplitMix64(base_seed XOR row).
    The pool is indexed virtually, so nothing is materialized per row.
    """
    order, run, starts, ends, _ = _sorted_runs(captures)
    n = len(order)
    right = captures.eye[order] == "R"
    # the sorted rows of the left eye, then of the right; slot[r] is row r's place
    by_eye = np.argsort(right, kind="stable")
    slot = np.argsort(by_eye)
    n_left = n - int(right.sum())
    eye_start = np.where(right, n_left, 0)
    own = (ends - starts)[run]
    own_start = slot[starts][run]
    pool = np.where(right, n - n_left, n_left) - own
    k = np.minimum(pool, min(cfg.max_impostor_probes, n))
    draws = [sample_indices(size, count, cfg.base_seed ^ row)
             for row, (size, count) in enumerate(zip(pool.tolist(), k.tolist())) if count]
    g = np.repeat(np.arange(n), k)
    j = eye_start[g] + np.fromiter(chain.from_iterable(draws), dtype=np.intp, count=len(g))
    # skip over the gallery subject's own contiguous block
    p = by_eye[j + own[g] * (j >= own_start[g])]
    return _pair_table(captures, order[g], order[p], IMPOSTOR)


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
    score = np.append(scores.score, np.nan)   # row -1 reads the NaN after the last score
    rows = np.empty((len(pairs), len(profiles)), dtype=np.intp)
    outside = np.empty(rows.shape, dtype=bool)
    for j, profile in enumerate(profiles):
        rows[:, j] = scores.rows(gallery, probe, profile.name)
        outside[:, j] = profile.out_of_range(score[rows[:, j]])
    present = rows >= 0
    values = score[rows]
    outside = np.flatnonzero(present & outside)
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
