"""Flat-file interfaces: capture tables, score tables, pair tables.

All files are comma-delimited UTF-8 with a fixed header row. Empty cells
mean missing. Floats are written with repr() so every table round-trips
bit-exactly.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import (
    CAPTURE_COLUMNS, EYES, GENUINE, IMPOSTOR, QUALITY_COVARIATES,
    CaptureTable, ComparisonTable, DataError, DuplicateImageIdError,
)

CAPTURE_HEADER = list(CAPTURE_COLUMNS)
SCORE_HEADER = ["gallery_image_id", "probe_image_id", "matcher", "score"]
PAIR_HEADER_FIXED = [
    "kind", "eye", "gallery_image_id", "probe_image_id", "gap_T_months",
    "delta_age_years", "DC",
    "Q_gallery", "Q_probe", "U_gallery", "U_probe", "C_gallery", "C_probe",
    "R_gallery", "R_probe",
]


class IngestError(DataError):
    """Structural file problem: missing file content, bad header, duplicate key."""


@dataclass(frozen=True)
class RowRejection:
    row_number: int   # 1-based data row (header not counted)
    reason: str
    detail: str


@dataclass(frozen=True)
class IngestResult:
    table: CaptureTable
    rejections: tuple[RowRejection, ...]

    @property
    def n_accepted(self) -> int:
        return len(self.table)

    @property
    def n_rejected(self) -> int:
        return len(self.rejections)


@contextmanager
def open_text(path, error=IngestError):
    """`path` opened to stream UTF-8 text; a byte that is not UTF-8, or a line
    csv cannot split, raises `error(message)` naming the file (and the byte)."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            try:   # the reader decodes in blocks; decode the whole file to place the byte
                path.read_bytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"{path}: not UTF-8 text at byte offset {exc.start}: "
                            f"{exc.reason}") from None
            raise
        except csv.Error as exc:
            raise error(f"{path}: {exc}") from None


def _header(reader, path: Path, required: list[str]) -> list[str]:
    """The header row of `reader`, IngestError unless it holds every `required` column."""
    header = next(reader, None)
    if header is None:
        raise IngestError(f"{path}: empty file, no header row")
    missing = [c for c in required if c not in header]
    if missing:
        raise IngestError(f"{path}: missing mandatory column(s) {missing}")
    return header


def _fmt(value) -> str:
    # repr of a builtin float is the shortest round-trip form; numpy scalars
    # are coerced first (their repr carries a type wrapper)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def ingest_captures(path) -> IngestResult:
    """Read a capture table; malformed rows land in the rejection report.

    Accepted rows + rejected rows always account for every data row.
    Raises IngestError for structural problems (missing mandatory column)
    and DuplicateImageIdError when an image_id repeats.
    """
    path = Path(path)
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = _header(reader, path, CAPTURE_HEADER)
        col = {name: header.index(name) for name in CAPTURE_HEADER}

        columns: list[list] = [[] for _ in CAPTURE_HEADER]
        rejections: list[RowRejection] = []
        seen: set[str] = set()
        for row_number, row in enumerate(reader, start=1):
            values, problem = _parse_capture_row(row, col)
            if problem is not None:
                rejections.append(RowRejection(row_number, *problem))
                continue
            image_id = values[0]
            if image_id in seen:
                raise DuplicateImageIdError(
                    f"{path}: duplicate image_id {image_id!r} at data row {row_number}")
            seen.add(image_id)
            for column, value in zip(columns, values):
                column.append(value)
    return IngestResult(CaptureTable(**dict(zip(CAPTURE_HEADER, columns))),
                        tuple(rejections))


_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
_INTEGERS = tuple(name for name, dtype in CAPTURE_COLUMNS.items() if dtype is np.int64)
_REALS = tuple(name for name, dtype in CAPTURE_COLUMNS.items() if dtype is np.float64)


def _parse_capture_row(row, col):
    """The row's values in CAPTURE_HEADER order and None, or None and the
    (reason, detail) of its first fault: the one set of capture-row rules."""
    cells = {name: row[i].strip() if i < len(row) else "" for name, i in col.items()}
    for name in CAPTURE_HEADER:
        if cells[name] == "":
            return None, ("missing field", name)

    eye = cells["eye"]
    if eye not in EYES:
        return None, ("invalid eye", f"eye={eye!r}")
    try:
        integers = [int(cells[name]) for name in _INTEGERS]
    except ValueError as exc:
        return None, ("invalid integer", str(exc))
    for name, value in zip(_INTEGERS, integers):
        if not _INT64_MIN <= value <= _INT64_MAX:
            return None, ("invalid integer", f"{name}={value} outside the 64-bit range")
    try:
        reals = [float(cells[name]) for name in _REALS]
    except ValueError as exc:
        return None, ("invalid number", str(exc))
    for name, value in zip(_REALS, reals):
        if not math.isfinite(value):
            return None, ("invalid number", f"{name}={value}")

    collection = integers[0]
    quality, usable, circ, pupil, iris = reals
    if collection < 1:
        return None, ("collection index", f"collection_index={collection}")
    if not (0.0 < pupil < iris):
        return None, ("dilation bounds", f"pupil_radius={pupil} iris_radius={iris}")
    for name, value in (("quality", quality), ("usable_area", usable),
                        ("circularity", circ)):
        if not (0.0 <= value <= 100.0):
            return None, ("quality range", f"{name}={value}")

    return (cells["image_id"], cells["subject_id"], eye, *integers, *reals), None


def write_captures(table: CaptureTable, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CAPTURE_HEADER)
        # builtin ints print as str() and floats as the round-trip repr()
        writer.writerows(zip(*(getattr(table, name).tolist() for name in CAPTURE_HEADER)))


class ScoreTable:
    """(gallery, probe, matcher) -> score lookup with stable iteration order."""

    def __init__(self):
        self._rows: list[tuple[str, str, str, float]] = []
        self._index: dict[tuple[str, str, str], float] = {}

    def add(self, gallery_image_id: str, probe_image_id: str, matcher: str,
            score: float) -> None:
        key = (gallery_image_id, probe_image_id, matcher)
        if key in self._index:
            raise DataError(f"duplicate score row for {key}")
        self._index[key] = score
        self._rows.append((gallery_image_id, probe_image_id, matcher, score))

    def get(self, gallery_image_id: str, probe_image_id: str, matcher: str):
        return self._index.get((gallery_image_id, probe_image_id, matcher))

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    def matchers(self) -> list[str]:
        return sorted({row[2] for row in self._rows})


def ingest_scores(path) -> ScoreTable:
    path = Path(path)
    table = ScoreTable()
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = _header(reader, path, SCORE_HEADER)
        col = {name: header.index(name) for name in SCORE_HEADER}
        for row_number, row in enumerate(reader, start=1):
            try:
                score = float(row[col["score"]])
            except (ValueError, IndexError) as exc:
                raise IngestError(f"{path}: bad score at data row {row_number}: {exc}")
            table.add(row[col["gallery_image_id"]], row[col["probe_image_id"]],
                      row[col["matcher"]], score)
    return table


def write_scores(table: ScoreTable, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_HEADER)
        for gid, pid, matcher, score in table:
            writer.writerow([gid, pid, matcher, _fmt(float(score))])


def pair_header(matchers: Iterable[str]) -> list[str]:
    return PAIR_HEADER_FIXED + [f"score_{m}" for m in matchers]


def write_pairs(table: ComparisonTable, path) -> None:
    """Emit the pair table with the pinned header (one score column per matcher)."""
    path = Path(path)
    matchers = table.matchers
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(pair_header(matchers))
        for i in range(len(table)):
            row = [
                table.kind[i], table.eye[i], table.gallery_image_id[i],
                table.probe_image_id[i], int(table.gap_t[i]),
                int(table.delta_age[i]), _fmt(float(table.dc[i])),
            ]
            row += [_fmt(float(table.covariates[name][i])) for name in QUALITY_COVARIATES]
            row += [_fmt(float(table.scores[m][i])) for m in matchers]
            writer.writerow(row)


def read_pairs(path, captures: CaptureTable | None = None) -> ComparisonTable:
    """Read a pair table back.

    The pinned pair header carries no subject or age columns; when the source
    capture table is supplied, subjects and A_gallery/A_probe are re-joined
    through the image ids (needed for any model fitting or subject grouping).
    A non-finite DC, covariate or score cell raises IngestError naming its row.
    """
    path = Path(path)
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = _header(reader, path, PAIR_HEADER_FIXED)
        matchers = [c[len("score_"):] for c in header if c.startswith("score_")]
        col = {name: header.index(name) for name in header}

        rows = list(reader)

    kind, eye = [], []
    gid, pid = [], []
    gap, dage, dc = [], [], []
    cov = {name: [] for name in QUALITY_COVARIATES}
    scores = {m: [] for m in matchers}
    for row_number, row in enumerate(rows, start=1):
        # a damaged cell (ValueError) or a short row (IndexError) names its row
        try:
            k = row[col["kind"]]
            if k not in (GENUINE, IMPOSTOR):
                raise IngestError(f"{path}: bad kind {k!r} at data row {row_number}")
            kind.append(k)
            eye.append(row[col["eye"]])
            gid.append(row[col["gallery_image_id"]])
            pid.append(row[col["probe_image_id"]])
            gap.append(int(row[col["gap_T_months"]]))
            dage.append(int(row[col["delta_age_years"]]))
            dc.append(float(row[col["DC"]]))
            for name in QUALITY_COVARIATES:
                cov[name].append(float(row[col[name]]))
            for m in matchers:
                scores[m].append(float(row[col[f"score_{m}"]]))
        except (ValueError, IndexError) as exc:
            raise IngestError(
                f"{path}: bad or missing cell at data row {row_number}: {exc}")

    if captures is None:
        gsub = np.full(len(kind), "", dtype=object)
        psub = gsub.copy()
        cov["A_gallery"] = np.full(len(kind), np.nan)
        cov["A_probe"] = cov["A_gallery"].copy()
    else:
        g_rows, p_rows = captures.rows(gid), captures.rows(pid)
        unknown = np.flatnonzero((g_rows < 0) | (p_rows < 0))
        if unknown.size:
            raise IngestError(f"{path}: data row {unknown[0] + 1} references image ids "
                              f"missing from the capture table")
        gsub, psub = captures.subject_id[g_rows], captures.subject_id[p_rows]
        cov["A_gallery"] = captures.age_years[g_rows].astype(np.float64)
        cov["A_probe"] = captures.age_years[p_rows].astype(np.float64)
    table = ComparisonTable(
        kind=kind, eye=eye, gallery_image_id=gid, probe_image_id=pid,
        gallery_subject=gsub, probe_subject=psub, gap_t=gap, delta_age=dage,
        dc=dc, covariates=cov, scores=scores,
    )
    parsed = {"DC": table.dc, **{name: table.covariates[name] for name in QUALITY_COVARIATES},
              **{f"score_{m}": table.scores[m] for m in matchers}}
    for name, values in parsed.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise IngestError(f"{path}: non-finite {name} at data row {bad[0] + 1}")
    return table


def write_table(path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Generic delimited-text emitter used by reports (floats via repr)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
