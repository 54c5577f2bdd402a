"""Flat-file interfaces: capture tables, score tables, pair tables.

All files are comma-delimited UTF-8 with a fixed header row. Empty cells
mean missing. Floats are written with repr() so every table round-trips
bit-exactly.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import (
    GENUINE, IMPOSTOR, PAIR_COVARIATES, QUALITY_COVARIATES,
    CaptureRecord, CaptureTable, ComparisonTable, DataError,
    DuplicateImageIdError,
)

CAPTURE_HEADER = [
    "image_id", "subject_id", "eye", "collection_index", "capture_time_months",
    "age_years", "quality", "usable_area", "circularity", "pupil_radius",
    "iris_radius",
]
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

        records: list[CaptureRecord] = []
        rejections: list[RowRejection] = []
        seen: set[str] = set()
        for row_number, row in enumerate(reader, start=1):
            rec, problem = _parse_capture_row(row, col)
            if problem is not None:
                rejections.append(RowRejection(row_number, *problem))
                continue
            if rec.image_id in seen:
                raise DuplicateImageIdError(
                    f"{path}: duplicate image_id {rec.image_id!r} at data row {row_number}")
            seen.add(rec.image_id)
            records.append(rec)
    return IngestResult(CaptureTable(records), tuple(rejections))


def _parse_capture_row(row, col):
    def cell(name):
        idx = col[name]
        return row[idx].strip() if idx < len(row) else ""

    for name in CAPTURE_HEADER:
        if cell(name) == "":
            return None, ("missing field", name)

    eye = cell("eye")
    if eye not in ("L", "R"):
        return None, ("invalid eye", f"eye={eye!r}")
    try:
        collection = int(cell("collection_index"))
        months = int(cell("capture_time_months"))
        age = int(cell("age_years"))
    except ValueError as exc:
        return None, ("invalid integer", str(exc))
    try:
        quality = float(cell("quality"))
        usable = float(cell("usable_area"))
        circ = float(cell("circularity"))
        pupil = float(cell("pupil_radius"))
        iris = float(cell("iris_radius"))
    except ValueError as exc:
        return None, ("invalid number", str(exc))

    if collection < 1:
        return None, ("collection index", f"collection_index={collection}")
    if not (0.0 < pupil < iris):
        return None, ("dilation bounds", f"pupil_radius={pupil} iris_radius={iris}")
    for name, value in (("quality", quality), ("usable_area", usable),
                        ("circularity", circ)):
        if not (0.0 <= value <= 100.0):
            return None, ("quality range", f"{name}={value}")

    rec = CaptureRecord(
        image_id=cell("image_id"), subject_id=cell("subject_id"), eye=eye,
        collection_index=collection, capture_time_months=months, age_years=age,
        quality=quality, usable_area=usable, circularity=circ,
        pupil_radius=pupil, iris_radius=iris,
    )
    return rec, None


def write_captures(table: CaptureTable, path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CAPTURE_HEADER)
        for rec in table:
            writer.writerow([
                rec.image_id, rec.subject_id, rec.eye, rec.collection_index,
                rec.capture_time_months, rec.age_years, _fmt(rec.quality),
                _fmt(rec.usable_area), _fmt(rec.circularity),
                _fmt(rec.pupil_radius), _fmt(rec.iris_radius),
            ])


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
    gsub, psub = [], []
    gap, dage, dc = [], [], []
    cov = {name: [] for name in PAIR_COVARIATES}
    scores = {m: [] for m in matchers}
    for row_number, row in enumerate(rows, start=1):
        # a damaged cell (ValueError) or a short row (IndexError) names its row
        try:
            k = row[col["kind"]]
            if k not in (GENUINE, IMPOSTOR):
                raise IngestError(f"{path}: bad kind {k!r} at data row {row_number}")
            kind.append(k)
            eye.append(row[col["eye"]])
            g = row[col["gallery_image_id"]]
            p = row[col["probe_image_id"]]
            gid.append(g)
            pid.append(p)
            gap.append(int(row[col["gap_T_months"]]))
            dage.append(int(row[col["delta_age_years"]]))
            dc.append(float(row[col["DC"]]))
            for name in QUALITY_COVARIATES:
                cov[name].append(float(row[col[name]]))
            if captures is not None:
                grec = captures.get(g)
                prec = captures.get(p)
                if grec is None or prec is None:
                    raise IngestError(
                        f"{path}: data row {row_number} references image ids "
                        f"missing from the capture table")
                gsub.append(grec.subject_id)
                psub.append(prec.subject_id)
                cov["A_gallery"].append(float(grec.age_years))
                cov["A_probe"].append(float(prec.age_years))
            else:
                gsub.append("")
                psub.append("")
                cov["A_gallery"].append(np.nan)
                cov["A_probe"].append(np.nan)
            for m in matchers:
                scores[m].append(float(row[col[f"score_{m}"]]))
        except (ValueError, IndexError) as exc:
            raise IngestError(
                f"{path}: bad or missing cell at data row {row_number}: {exc}")

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
