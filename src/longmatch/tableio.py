"""Flat-file interfaces: capture tables, score tables, pair tables.

All files are comma-delimited UTF-8 with a header row, written by
`write_table` and read back by `read_table`, which finds columns by header
name. csv writes each cell with str(), the shortest round-trip form of a
float or a numpy float64, so every table round-trips bit-exactly.
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
    CAPTURE_COLUMNS, EYES, GENUINE, IMPOSTOR, PAIR_COLUMNS, SCORE_COLUMNS,
    CaptureTable, ComparisonTable, DataError, DuplicateImageIdError, ScoreTable,
)

CAPTURE_HEADER = list(CAPTURE_COLUMNS)
SCORE_HEADER = list(SCORE_COLUMNS)


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


def _header(reader, path: Path, required) -> list[str]:
    """The header row of `reader`, IngestError unless it holds every `required` column."""
    header = next(reader, None)
    if header is None:
        raise IngestError(f"{path}: empty file, no header row")
    missing = [c for c in required if c not in header]
    if missing:
        raise IngestError(f"{path}: missing mandatory column(s) {missing}")
    return header


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
    write_table(path, CAPTURE_HEADER,
                zip(*(getattr(table, name).tolist() for name in CAPTURE_HEADER)))


def ingest_scores(path) -> ScoreTable:
    """Read a score table; IngestError names a cell that does not parse,
    DataError a (gallery, probe, matcher) key that repeats."""
    text = read_table(path, SCORE_HEADER)
    return ScoreTable(**{name: text.column(name, dtype) for name, dtype in SCORE_COLUMNS.items()})


def write_scores(table: ScoreTable, path) -> None:
    write_table(path, SCORE_HEADER,
                zip(*(getattr(table, name).tolist() for name in SCORE_HEADER)))


def write_pairs(table: ComparisonTable, path) -> None:
    """Emit the PAIR_COLUMNS of `table`, then one score_<matcher> column per matcher."""
    columns = [*(getattr(table, name) for name in PAIR_COLUMNS), *table.scores.values()]
    write_table(path, [*PAIR_COLUMNS, *(f"score_{m}" for m in table.matchers)],
                zip(*(column.tolist() for column in columns)))


def read_pairs(path, captures: CaptureTable) -> ComparisonTable:
    """Read a pair table back.

    The pair file holds the PAIR_COLUMNS and the scores; the JOINED_COLUMNS
    (subjects, A_gallery/A_probe) are joined back in from `captures` through
    the image ids. A kind other than genuine or impostor, an id missing from
    `captures`, and a non-finite real or score cell raise IngestError naming
    the row.
    """
    path = Path(path)
    text = read_table(path, PAIR_COLUMNS)
    kind = text.column("kind")
    bad = np.flatnonzero((kind != GENUINE) & (kind != IMPOSTOR))
    if bad.size:
        raise IngestError(f"{path}: bad kind {kind[bad[0]]!r} at data row {bad[0] + 1}")
    names = [*PAIR_COLUMNS, *(name for name in text.cells if name.startswith("score_"))]
    parsed = {name: text.column(name, PAIR_COLUMNS.get(name, np.float64)) for name in names}

    g_rows = captures.rows(parsed["gallery_image_id"])
    p_rows = captures.rows(parsed["probe_image_id"])
    unknown = np.flatnonzero((g_rows < 0) | (p_rows < 0))
    if unknown.size:
        raise IngestError(f"{path}: data row {unknown[0] + 1} references image ids "
                          f"missing from the capture table")
    for name, values in parsed.items():
        if values.dtype == np.float64 and not np.isfinite(values).all():
            row = int(np.argmin(np.isfinite(values))) + 1
            raise IngestError(f"{path}: non-finite {name} at data row {row}")
    scores = {name[len("score_"):]: parsed.pop(name) for name in names[len(PAIR_COLUMNS):]}
    return ComparisonTable(
        **parsed, gallery_subject=captures.subject_id[g_rows],
        probe_subject=captures.subject_id[p_rows],
        A_gallery=captures.age_years[g_rows].astype(np.float64),
        A_probe=captures.age_years[p_rows].astype(np.float64), scores=scores)


def write_table(path, header: list[str], rows: Iterable[Iterable]) -> None:
    """Write `header` and then `rows` as delimited text: the one table writer.

    csv writes each cell with str(): a float or numpy float64 as its shortest
    round-trip repr, an integer or numpy int64 as its digits.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass(frozen=True)
class TextColumns:
    """The cells of a delimited-text table, read by `read_table`."""
    path: Path
    n_rows: int
    cells: dict   # header name -> its column's cells, in header order

    def __len__(self) -> int:
        return self.n_rows

    def column(self, name: str, dtype=object) -> np.ndarray:
        """Column `name` as a numpy array of `dtype`: object keeps the text,
        np.int64 and np.float64 parse each cell with int() and float().

        A cell that does not parse, or an integer outside 64 bits, raises
        IngestError naming the file, the column and its data row.
        """
        cells = self.cells[name]
        if dtype is object:
            return np.array(cells, dtype=object)
        parse = int if dtype is np.int64 else float
        try:
            return np.array(list(map(parse, cells)), dtype=dtype)
        except (ValueError, OverflowError):
            for row_number, cell in enumerate(cells, start=1):
                try:
                    np.array(parse(cell), dtype=dtype)
                except (ValueError, OverflowError):
                    raise IngestError(f"{self.path}: bad {name} cell {cell!r} at "
                                      f"data row {row_number}") from None
            raise


def read_table(path, required) -> TextColumns:
    """The columns of the delimited-text table at `path`: the one table reader.

    The header must hold every `required` name; a repeated name keeps its
    first column. A data row with fewer cells than the header raises
    IngestError naming its row.
    """
    path = Path(path)
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = _header(reader, path, required)
        rows = list(reader)
    if rows and min(map(len, rows)) < len(header):
        row_number, row = next((i, row) for i, row in enumerate(rows, start=1)
                               if len(row) < len(header))
        raise IngestError(f"{path}: data row {row_number} has {len(row)} cells, "
                          f"fewer than the {len(header)} header columns")
    cells: dict[str, tuple[str, ...]] = {}
    for name, column in zip(header, zip(*rows) if rows else [()] * len(header)):
        cells.setdefault(name, column)
    return TextColumns(path, len(rows), cells)
