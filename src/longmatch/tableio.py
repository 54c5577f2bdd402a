"""Flat-file interfaces: capture tables, score tables, pair tables.

All files are comma-delimited UTF-8 with a header row, written by
`write_table` and read back by `read_table`, which finds columns by header
name. `write_table` takes columns and writes them in blocks of rows, with
csv's minimal quoting and "\r\n" line ends; a float is written as its
shortest round-trip repr, formatted once per distinct value in a block, so
every table round-trips bit-exactly.

`read_table` is given a schema, each column to read with its dtype; every
one is required and no other column is parsed or judged (`read_pairs` asks
for the pair columns a subcommand uses). It picks one of two paths from the
file's text. Text that is printable ASCII, TAB, CR and LF with no `"`,
whose lines fit csv's field size limit and hold as many commas as the
header, goes to one `np.loadtxt` call that splits every line and converts
the cells of the columns read in C; its float parse is the one float()
runs, and on that alphabet it accepts no cell that int() or float() would
refuse or read otherwise. Any other text (a ragged row among it, even one
short only outside the schema, which `np.loadtxt` with `usecols` would
read), and any text `np.loadtxt` refuses (a bad cell) or reads to fewer
rows than it has data lines (a blank line), goes through csv.reader and
int()/float() cell by cell, the path that names faults and short rows;
both paths give the same columns.
"""

from __future__ import annotations

import csv
import gc
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import (
    CAPTURE_COLUMNS, CAPTURE_RULES, JOINED_COLUMNS, PAIR_COLUMNS, SCORE_COLUMNS, CaptureTable,
    ComparisonTable, DataError, DuplicateImageIdError, ScoreTable, rule_breaks,
)

CAPTURE_HEADER = list(CAPTURE_COLUMNS)
SCORE_HEADER = list(SCORE_COLUMNS)
_INTEGERS = tuple(name for name, dtype in CAPTURE_COLUMNS.items() if dtype is np.int64)
_REALS = tuple(name for name, dtype in CAPTURE_COLUMNS.items() if dtype is np.float64)
# the reason TextColumns.parse gives for an integer that np.int64 cannot hold
OUTSIDE_64_BITS = "outside 64 bits"
# the reasons of ingest_captures besides the CAPTURE_RULES: an empty cell, and
# a cell int() or float() refuses (checked after the rule on text)
MISSING_FIELD, INTEGER_FAULT, NUMBER_FAULT = "missing field", "invalid integer", "invalid number"
# rows per block of write_table: each block is formatted and written at once
BLOCK_ROWS = 4096
# a cell holding one of these is quoted, as csv.writer's QUOTE_MINIMAL does
_NEEDS_QUOTES = re.compile('[,"\r\n]')
# the bytes of text read_table parses in one np.loadtxt call: printable ASCII
# but '"', and TAB, CR, LF. Outside it np.loadtxt accepts cells that float()
# refuses, such as "\x1c8".
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\r\n"


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


def ingest_captures(path) -> IngestResult:
    """Read a capture table; malformed rows land in the rejection report.

    Stripped cells meet the capture-row rules (README order) as column masks;
    a row's first broken rule is its rejection. IngestError for a missing
    column, DuplicateImageIdError when accepted rows repeat an image_id.
    """
    text = read_table(path, CAPTURE_COLUMNS)
    text = replace(text, cells={name: _stripped(text.cells[name]) for name in CAPTURE_HEADER})
    columns, faults = {}, {}
    for name in CAPTURE_HEADER:
        columns[name], faults[name] = text.parse(name)
    found: dict[int, RowRejection] = {}   # 0-based row -> its first broken rule

    def reject(reason, rows, detail):
        """Reject the `rows` (a mask, or rows in order) no earlier rule took."""
        for row in np.flatnonzero(rows).tolist() if isinstance(rows, np.ndarray) else rows:
            if row not in found:
                found[row] = RowRejection(row + 1, reason, detail(row))

    for name in CAPTURE_HEADER:
        reject(MISSING_FIELD, np.array(text.cells[name], dtype=object) == "", lambda row: name)
    for rule in rule_breaks(columns, CAPTURE_RULES[:1]):   # the rule on text
        reject(*rule)
    for name in _INTEGERS:
        reject(INTEGER_FAULT, [row for row, why in faults[name].items()
                               if why != OUTSIDE_64_BITS], faults[name].get)
    for name in _INTEGERS:   # the faults left are integers outside 64 bits
        reject(INTEGER_FAULT, faults[name],
               lambda row: f"{name}={int(text.cells[name][row])} outside the 64-bit range")
    for name in _REALS:
        reject(NUMBER_FAULT, faults[name], faults[name].get)
    for rule in rule_breaks(columns, CAPTURE_RULES[1:]):   # a cell that does not parse holds 0
        reject(*rule)

    kept = ~np.isin(np.arange(len(text)), list(found))
    table = CaptureTable(**{name: values[kept] for name, values in columns.items()})
    repeats = np.flatnonzero(table.rows(table.image_id) != np.arange(len(table)))
    if repeats.size:
        row = np.flatnonzero(kept)[repeats[0]]
        raise DuplicateImageIdError(f"{text.path}: duplicate image_id "
                                    f"{columns['image_id'][row]!r} at data row {row + 1}")
    return IngestResult(table, tuple(found[row] for row in sorted(found)))


def write_captures(table: CaptureTable, path) -> None:
    write_table(path, CAPTURE_HEADER, [getattr(table, name) for name in CAPTURE_HEADER])


def ingest_scores(path) -> ScoreTable:
    """Read a score table; IngestError names a cell that does not parse, and
    DataError the file and data row of a repeated (gallery, probe, matcher) key."""
    text = read_table(path, SCORE_COLUMNS)
    columns = {name: text.column(name) for name in SCORE_HEADER}
    try:
        return ScoreTable(**columns)
    except DataError as exc:
        raise DataError(f"{text.path}: {exc}") from None


def write_scores(table: ScoreTable, path) -> None:
    write_table(path, SCORE_HEADER, [getattr(table, name) for name in SCORE_HEADER])


def write_pairs(table: ComparisonTable, path) -> None:
    """Emit the PAIR_COLUMNS `table` holds, in schema order, then one
    score_<matcher> column per matcher."""
    names = [name for name in table.columns if name in PAIR_COLUMNS]
    write_table(path, [*names, *(f"score_{m}" for m in table.matchers)],
                [*(getattr(table, name) for name in names), *table.scores.values()])


def read_pairs(path, kind: str, captures: Callable[[], CaptureTable], columns) -> ComparisonTable:
    """The `kind` ("genuine" or "impostor") pair table at `path`, in the
    `columns` a caller uses.

    The pair file holds the PAIR_COLUMNS its table held (`write_pairs`:
    every one for genuine pairs, the four keys for impostor pairs) and one
    score_<matcher> column per matcher. `columns` names what to read, each
    required: PAIR_COLUMNS and JOINED_COLUMNS names and score_<matcher>
    file columns, `kind` always read with them; any other name raises
    ValueError. The JOINED_COLUMNS (subjects, ages, delta_age_years and the
    capture covariates DC, Q_*, U_*, C_*, R_*, the first seven of which the
    genuine file also shows) are never read from the file: all are joined in
    through the two image ids when one is asked for, and only then is
    `captures` called, with no argument. A column the file lacks, a row of
    another kind, an id missing from the capture table (when joining), a
    non-finite score cell and a negative gap_T_months read raise IngestError
    naming the row; a column not read, such as the impostor gap an earlier
    version wrote, is not parsed or judged.
    """
    path = Path(path)
    join = not JOINED_COLUMNS.keys().isdisjoint(columns)
    ids = ("gallery_image_id", "probe_image_id") if join else ()
    wanted = {"kind", *columns, *ids} - JOINED_COLUMNS.keys()
    foreign = sorted(n for n in wanted if n not in PAIR_COLUMNS and not n.startswith("score_"))
    if foreign:
        raise ValueError(f"read_pairs cannot read column(s) {foreign}")
    schema = {name: dtype for name, dtype in PAIR_COLUMNS.items() if name in wanted}
    text = read_table(path, {**schema, **dict.fromkeys(
        (name for name in columns if name.startswith("score_")), np.float64)})
    other = np.flatnonzero(text.column("kind") != kind)
    if other.size:
        raise IngestError(f"{path}: {text.cells['kind'][other[0]]!r} pair at data row "
                          f"{other[0] + 1} of a file of {kind} pairs")
    names = [*schema, *(name for name in text.cells if name.startswith("score_"))]
    parsed = {name: text.column(name) for name in names}

    joined = {}
    if join:
        table = captures()
        g_rows, p_rows = (table.rows(parsed[f"{side}_image_id"]) for side in ("gallery", "probe"))
        unknown = np.flatnonzero((g_rows < 0) | (p_rows < 0))
        if unknown.size:
            raise IngestError(f"{path}: data row {unknown[0] + 1} references image ids "
                              f"missing from the capture table")
        joined = table.joined(g_rows, p_rows)
    for name, values in parsed.items():
        if values.dtype == np.float64 and not np.isfinite(values).all():
            row = int(np.argmin(np.isfinite(values))) + 1
            raise IngestError(f"{path}: non-finite {name} at data row {row}")
    if "gap_T_months" in parsed and (parsed["gap_T_months"] < 0).any():
        row = int(np.argmax(parsed["gap_T_months"] < 0)) + 1
        raise IngestError(f"{path}: negative gap_T_months at data row {row}")
    scores = {name[len("score_"):]: parsed.pop(name) for name in names[len(schema):]}
    return ComparisonTable(**parsed, **joined, scores=scores)


def _stripped(cells):
    """Capture cells with surrounding whitespace stripped; numbers that
    read_table parsed are returned as they are."""
    return cells if isinstance(cells, np.ndarray) else [cell.strip() for cell in cells]


def write_table(path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write `header` and then the rows of `columns` (one sequence of cells per
    header name) as delimited text: the one table writer.

    Cells are written as csv.writer writes them: None as "", a float (numpy
    float64 included) as its shortest round-trip repr, anything else with
    str(); a cell holding a comma, quote, CR or LF is quoted, its quotes
    doubled, and each line ends in "\r\n". Rows go out in blocks of
    BLOCK_ROWS; in each block a float64 or int64 array formats each distinct
    value (by bit pattern) once.
    """
    n = len(columns[0]) if len(columns) else 0
    if len(columns) != len(header) or any(len(column) != n for column in columns):
        raise ValueError("write_table needs one column per header name, all of one length")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(_lines([_cells(header)], len(header) == 1))
        for start in range(0, n, BLOCK_ROWS):
            block = [_cells(column[start:start + BLOCK_ROWS]) for column in columns]
            fh.write(_lines(zip(*block), len(header) == 1))


def _lines(rows, one_column: bool) -> str:
    """`rows` of cell texts as "\r\n"-ended lines; csv.writer writes a row of
    one empty cell as "" so that it is not a blank line."""
    if one_column:
        rows = [row if row[0] else ('""',) for row in rows]
    return "\r\n".join(map(",".join, rows)) + "\r\n"


def _cells(values) -> list[str]:
    """The written text of each cell of `values`."""
    if isinstance(values, np.ndarray) and values.dtype in (np.float64, np.int64):
        distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
        text = float.__repr__ if values.dtype == np.float64 else int.__repr__
        texts = list(map(text, distinct.view(values.dtype).tolist()))
        return np.array(texts, dtype=object)[inverse].tolist()
    texts = [value if type(value) is str else _text(value) for value in values]
    if _NEEDS_QUOTES.search("".join(texts)):
        texts = [_quoted(text) for text in texts]
    return texts


def _text(value) -> str:
    if value is None:
        return ""
    return float.__repr__(value) if isinstance(value, float) else str(value)


def _quoted(text: str) -> str:
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


@dataclass(frozen=True)
class TextColumns:
    """The columns of a delimited-text table, read by `read_table`; a data row
    with fewer cells than the header is padded with "" cells."""
    path: Path
    n_rows: int
    # schema name -> its column, in header order: a sequence of cell texts,
    # or the numeric array read_table's one-pass parse made of them
    cells: dict
    dtypes: dict   # schema name -> the dtype `parse` reads its column as
    short_row: str   # the error of the first data row shorter than the header, or ""

    def __len__(self) -> int:
        return self.n_rows

    def parse(self, name: str) -> tuple[np.ndarray, dict[int, str]]:
        """Column `name` as an array of its dtype (object keeps the text;
        np.int64 and np.float64 parse cells with int(), float()) and each
        0-based row at fault, holding 0, with its reason: the error text or
        OUTSIDE_64_BITS."""
        cells, dtype = self.cells[name], self.dtypes[name]
        if isinstance(cells, np.ndarray):
            return cells, {}
        if dtype is object:
            return np.array(cells, dtype=object), {}
        convert = int if dtype is np.int64 else float
        try:
            return np.fromiter(map(convert, cells), dtype=dtype, count=len(cells)), {}
        except (ValueError, OverflowError):
            values, faults = np.zeros(len(cells), dtype=dtype), {}
        for row, cell in enumerate(cells):
            try:
                values[row] = convert(cell)
            except ValueError as exc:
                faults[row] = str(exc)
            except OverflowError:
                faults[row] = OUTSIDE_64_BITS
        return values, faults

    def column(self, name: str) -> np.ndarray:
        """Column `name` as `parse` reads it; IngestError names the file and
        the data row of a short row, or of a cell `parse` finds at fault."""
        if self.short_row:
            raise IngestError(self.short_row)
        values, faults = self.parse(name)
        if faults:
            row = min(faults)
            raise IngestError(f"{self.path}: bad {name} cell {self.cells[name][row]!r} at "
                              f"data row {row + 1}")
        return values


def read_table(path, schema) -> TextColumns:
    """The `schema` columns of the delimited-text table at `path`: the one
    table reader.

    `schema` maps each name to read to the dtype its column is read as;
    every name is required, and a name the header lacks raises IngestError.
    No other column is read. A repeated header name keeps its first column.
    Text `_read_plain` accepts is parsed in one pass; any other goes through
    csv.reader. The cyclic garbage collector is paused while rows accumulate
    and transpose: it would traverse them again and again.
    """
    path = Path(path)
    collecting = gc.isenabled()
    gc.disable()
    try:
        table = _read_plain(path, schema)
        return _read_csv(path, schema) if table is None else table
    finally:
        if collecting:
            gc.enable()


def _read_plain(path: Path, schema) -> TextColumns | None:
    """The `schema` columns of the table at `path` parsed by one np.loadtxt
    call, or None when its text needs csv.reader: a byte outside
    _PLAIN_BYTES, a line longer than csv's field size limit, no data row, a
    missing column, a line whose comma count is not the header's (np.loadtxt
    would not see a ragged row outside the columns read), a cell or row
    np.loadtxt refuses or warns about, or a blank line, which it skips."""
    raw = path.read_bytes()
    if raw.translate(None, _PLAIN_BYTES):
        return None
    lines = raw.decode("ascii").splitlines()
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines[0].split(",")
    if any(name not in header for name in schema):
        return None
    if len(set(map(str.count, lines, repeat(",")))) > 1:
        return None
    names = [name for name in dict.fromkeys(header) if name in schema]
    try:
        # a warning also sends the text to csv.reader: numpy < 2 warns, where
        # int() fails, on an integer cell like "8.0", and all-blank data warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines[1:], delimiter=",", comments=None, quotechar=None,
                              dtype=[(f"f{i}", schema[name]) for i, name in enumerate(names)],
                              usecols=[header.index(name) for name in names], ndmin=1)
    except (ValueError, Warning):
        return None
    if len(rows) != len(lines) - 1:
        return None
    cells = {}
    for i, name in enumerate(names):   # copies, not strided views
        values = rows[f"f{i}"]
        cells[name] = values.tolist() if schema[name] is object else values.copy()
    return TextColumns(path, len(rows), cells, dict(schema), "")


def _read_csv(path: Path, schema) -> TextColumns:
    """The `schema` columns of the table at `path` split by csv.reader, their
    cells left as text; a short row is judged on every column."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestError(f"{path}: empty file, no header row")
        missing = [c for c in schema if c not in header]
        if missing:
            raise IngestError(f"{path}: missing mandatory column(s) {missing}")
        rows = list(reader)
    width, short_row = len(header), ""
    if rows and min(map(len, rows)) < width:
        i = next(i for i, row in enumerate(rows) if len(row) < width)
        short_row = (f"{path}: data row {i + 1} has {len(rows[i])} cells, "
                     f"fewer than the {width} header columns")
        rows = [row + [""] * (width - len(row)) for row in rows]
    cells: dict[str, tuple[str, ...]] = {}
    for name, column in zip(header, zip(*rows) if rows else [()] * width):
        if name in schema:
            cells.setdefault(name, column)
    return TextColumns(path, len(rows), cells, dict(schema), short_row)
