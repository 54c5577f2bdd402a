"""Canonical data model: captures, scores, matcher profiles, comparison pairs.

Captures are held in the columnar CaptureTable, matcher scores in the
columnar ScoreTable, comparison pairs in the columnar ComparisonTable. Each
table holds one read-only numpy column per entry of its schema
(CAPTURE_COLUMNS, SCORE_COLUMNS, PAIR_COLUMNS + JOINED_COLUMNS), as the
attribute of that name, which is also the column's name in its file.
Tables are read-only after construction and safe to share across parallel
workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType

import numpy as np

EYES = ("L", "R")
GENUINE = "genuine"
IMPOSTOR = "impostor"
HIGHER_IS_BETTER = "higher"
LOWER_IS_BETTER = "lower"

# the capture-file columns in file order, each with the dtype a CaptureTable
# holds it in
CAPTURE_COLUMNS = {
    "image_id": object,
    "subject_id": object,
    "eye": object,                      # "L" or "R"
    "collection_index": np.int64,       # 1-based session number
    "capture_time_months": np.int64,    # months since the dataset epoch
    "age_years": np.int64,              # integer years at capture
    "quality": np.float64,              # composite quality, 0..100
    "usable_area": np.float64,          # 0..100
    "circularity": np.float64,          # 0..100
    "pupil_radius": np.float64,         # pixels
    "iris_radius": np.float64,          # pixels
}

# the value rules every capture row keeps, in the order ingest applies them, the
# rule on text first: (reason, columns, the mask of the rows that keep it given
# those columns); a rule on several columns is one entry per column, so that a
# row is named by its first column at fault
CAPTURE_RULES = (
    ("invalid eye", ("eye",), lambda eye: np.isin(eye, EYES)),
    *(("invalid number", (name,), np.isfinite)
      for name, dtype in CAPTURE_COLUMNS.items() if dtype is np.float64),
    ("collection index", ("collection_index",), lambda index: index >= 1),
    ("dilation bounds", ("pupil_radius", "iris_radius"),
     lambda pupil, iris: (0.0 < pupil) & (pupil < iris)),
    *(("quality range", (name,), lambda value: (0.0 <= value) & (value <= 100.0))
      for name in ("quality", "usable_area", "circularity")),
)


def rule_breaks(columns: dict, rules=CAPTURE_RULES):
    """(reason, mask of the rows that break it, detail(row): its cells as
    name=value) of each of `rules` whose columns `columns` holds, in order."""
    for reason, names, holds in rules:
        if columns.keys() >= set(names):
            yield reason, ~holds(*map(columns.get, names)), lambda row, names=names: " ".join(
                f"{name}={columns[name][row]!r}" if columns[name].dtype == object
                else f"{name}={columns[name][row]}" for name in names)


# the score-file columns in file order, each with the dtype a ScoreTable holds
# it in
SCORE_COLUMNS = {
    "gallery_image_id": object,
    "probe_image_id": object,
    "matcher": object,
    "score": np.float64,
}

# the pair-file columns in file order, each with the dtype a ComparisonTable
# holds it in; the file then has one score_<matcher> column per matcher
PAIR_COLUMNS = {
    "kind": object,                     # "genuine" or "impostor"
    "eye": object,
    "gallery_image_id": object,
    "probe_image_id": object,
    "gap_T_months": np.int64,           # probe minus gallery time (impostors: absolute)
    "DC": np.float64,                   # dilation constancy 1 - |R_gallery - R_probe|
    "Q_gallery": np.float64,            # quality
    "Q_probe": np.float64,
    "U_gallery": np.float64,            # usable area
    "U_probe": np.float64,
    "C_gallery": np.float64,            # circularity
    "C_probe": np.float64,
}
# the ComparisonTable columns CaptureTable.joined alone derives from the capture
# table through the image ids: subjects, ages, their difference and the nine
# capture covariates; seven of those (the float PAIR_COLUMNS) are in both
# schemas: write_pairs writes them to the genuine file for readers outside
# longmatch, and read_pairs never reads them
JOINED_COLUMNS = {
    "gallery_subject": object,
    "probe_subject": object,
    "A_gallery": np.float64,            # age in years at capture
    "A_probe": np.float64,
    "delta_age_years": np.int64,        # probe minus gallery age
    **{name: dtype for name, dtype in PAIR_COLUMNS.items() if dtype is np.float64},
    "R_gallery": np.float64,            # dilation ratio pupil / iris radius
    "R_probe": np.float64,
}
# model names of two pair columns
COLUMN_ALIASES = {"T": "gap_T_months", "delta_A": "delta_age_years"}
# the quality covariates a model adjusts for unless its config says otherwise
QUALITY_TERMS = ("Q_gallery", "Q_probe", "U_gallery", "U_probe", "C_gallery",
                 "C_probe", "DC")
_TABLE_COLUMNS = {**PAIR_COLUMNS, **JOINED_COLUMNS}
# the numeric ComparisonTable columns by each name a model may give them (a
# synth beta, a model term or outcome): its own, or an alias
MODEL_COLUMNS = {**{name: name for name, dtype in _TABLE_COLUMNS.items() if dtype is not object},
                 **COLUMN_ALIASES}


class DataError(Exception):
    """A table violates a structural contract."""


class DuplicateImageIdError(DataError):
    pass


class ScoreRangeError(DataError):
    pass


class CalibrationInfeasibleError(Exception):
    """No observed threshold attains the requested FMR target."""


class ModelError(Exception):
    """A mixed model cannot be built or fit on the data given."""


def distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values): its sorted distinct values, NaNs collapsed into one.

    A bare np.unique imports numpy.ma (to ask whether `values` is masked),
    which no subcommand otherwise needs.
    """
    values = np.sort(values)
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = (values[1:] != values[:-1]) & ~np.isnan(values[:-1])
    return values[keep]


def encode(values) -> tuple[np.ndarray, np.ndarray]:
    """(ids, codes): np.unique(values, return_inverse=True) of an object column,
    by one dict over its sorted distinct values, without sorting the column.

    ids are the distinct values in sorted order, as an object array; codes
    the int64 index of each value among them.
    """
    ids = sorted(set(values))
    code = dict(zip(ids, range(len(ids))))
    return (np.array(ids, dtype=object),
            np.fromiter(map(code.__getitem__, values), dtype=np.int64, count=len(values)))


def check_matcher_name(name: str, error=ValueError) -> None:
    """Raise `error` when `name` is a pair-table column or alias, which
    ComparisonTable.column would resolve instead of the matcher's scores, or
    no safe file-name stem for its det_<name>.csv: `summary`, `.`, `..` or a
    name holding a path separator."""
    if name in _TABLE_COLUMNS or name in COLUMN_ALIASES:
        raise error(f"matcher name {name!r} is a pair-table column name")
    if name in ("summary", ".", "..") or "/" in name or "\\" in name:
        raise error(f"matcher name {name!r} cannot name its output files")


@dataclass(frozen=True)
class MatcherProfile:
    """Score orientation and threshold semantics for one matcher."""

    name: str
    orientation: str  # "higher" (similarity) or "lower" (distance)
    score_min: float
    score_max: float
    default_threshold: float

    def __post_init__(self):
        check_matcher_name(self.name)
        if self.orientation not in (HIGHER_IS_BETTER, LOWER_IS_BETTER):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if not self.score_min < self.score_max:
            raise ValueError("score_min must be strictly below score_max")
        if not (self.score_min <= self.default_threshold <= self.score_max):
            raise ValueError("default_threshold outside the score range")

    def out_of_range(self, scores: np.ndarray) -> np.ndarray:
        """Where `scores` lie outside [score_min, score_max]; NaN does."""
        return ~((self.score_min <= scores) & (scores <= self.score_max))


def _read_only(values, dtype, n: int) -> np.ndarray:
    """`values` as a read-only numpy array of `dtype`; ValueError unless it has
    `n` rows."""
    column = np.asarray(values, dtype=dtype)
    if len(column) != n:
        raise ValueError("column length mismatch")
    column.flags.writeable = False
    return column


def _set_columns(table, spec: dict, columns: dict) -> None:
    """Set each `spec` column of `columns` on `table`, as the read-only numpy
    array of its dtype; ValueError unless all have one length."""
    unknown = sorted(set(columns) - set(spec))
    if unknown:
        raise TypeError(f"unknown column(s) {unknown}")
    n = len(columns[next(iter(spec))])
    for name, dtype in spec.items():
        setattr(table, name, _read_only(columns[name], dtype, n))


def _difference(captures: CaptureTable, name: str, g: np.ndarray, p: np.ndarray, *,
                absolute: bool = False, later: bool = False) -> np.ndarray:
    """The `name` column of each probe row p[i] of `captures` minus that of its
    gallery row g[i], or its absolute value. DataError names the first pair
    whose difference does not fit in int64 or, when `later`, is not positive."""
    a, b = getattr(captures, name)[p], getattr(captures, name)[g]
    d = a - b
    wraps = ((a ^ b) & (a ^ d)) < 0   # operands of unlike sign, result unlike a
    if absolute:
        wraps |= d == np.iinfo(np.int64).min   # whose absolute value does not fit
        d = np.abs(d)
    bad = wraps | (d <= 0) if later else wraps
    if bad.any():
        i = int(np.argmax(bad))
        gallery, probe = captures.image_id[g[i]], captures.image_id[p[i]]
        raise DataError(f"the {name} difference of gallery {gallery} and probe {probe} does "
                        f"not fit in int64" if wraps[i] else f"probe {probe} in a later "
                        f"collection than gallery {gallery} but not later in time")
    return d


def _first_rows(keys: list) -> dict:
    """key -> the row of its first occurrence in `keys`."""
    return dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))


class CaptureTable:
    """Columnar, read-only table of captures, one row per eye image in file order.

    Holds one numpy column per CAPTURE_COLUMNS entry, as the attribute of that
    name (`table.subject_id`, `table.iris_radius`, ...). DataError names the
    first row (1-based) that breaks a CAPTURE_RULES rule, and the first rule.
    """

    def __init__(self, **columns):
        _set_columns(self, CAPTURE_COLUMNS, columns)
        breaks = list(rule_breaks(vars(self)))
        first = [int(np.argmax(np.append(mask, True))) for _, mask, _ in breaks]   # n: none
        row = min(first)
        if row < len(self):
            reason, _, detail = breaks[first.index(row)]
            raise DataError(f"capture row {row + 1} (image_id {self.image_id[row]!r}) breaks "
                            f"the {reason!r} rule: {detail(row)}")
        self._row = _first_rows(self.image_id.tolist())

    def __len__(self) -> int:
        return len(self.image_id)

    def order(self) -> np.ndarray:
        """Row permutation into the global canonical order: subject, eye,
        collection, time, image id (file order among equal keys)."""
        return np.lexsort((self.image_id, self.capture_time_months, self.collection_index,
                           self.eye, self.subject_id))

    def rows(self, image_ids) -> np.ndarray:
        """The row of each of `image_ids` (the first, should an id repeat);
        -1 for an id not in the table."""
        return np.fromiter(map(self._row.get, image_ids, repeat(-1)), dtype=np.intp)

    def joined(self, gallery_rows, probe_rows) -> dict:
        """The JOINED_COLUMNS of the pairs of rows (gallery_rows[i], probe_rows[i]):
        the one derivation of the capture covariates. DataError names the first
        pair whose age difference does not fit in int64."""
        values = {"Q": self.quality, "U": self.usable_area, "C": self.circularity,
                  "R": self.pupil_radius / self.iris_radius}
        columns = {f"{name}_{side}": column[rows] for name, column in values.items()
                   for side, rows in (("gallery", gallery_rows), ("probe", probe_rows))}
        return dict(gallery_subject=self.subject_id[gallery_rows],
                    probe_subject=self.subject_id[probe_rows],
                    A_gallery=self.age_years[gallery_rows].astype(np.float64),
                    A_probe=self.age_years[probe_rows].astype(np.float64),
                    delta_age_years=_difference(self, "age_years", gallery_rows, probe_rows),
                    DC=1.0 - np.abs(columns["R_gallery"] - columns["R_probe"]), **columns)


class ScoreTable:
    """Columnar, read-only table of matcher scores, one row per
    (gallery, probe, matcher) score.

    Holds one numpy column per SCORE_COLUMNS entry, as the attribute of that
    name; the key -> row lookup is built once, and a key that repeats raises
    DataError naming it and the 1-based row of its first repeat.
    """

    def __init__(self, **columns):
        _set_columns(self, SCORE_COLUMNS, columns)
        keys = list(zip(self.gallery_image_id.tolist(), self.probe_image_id.tolist(),
                        self.matcher.tolist()))
        self._row = _first_rows(keys)
        if len(self._row) < len(keys):
            row = next(row for row, key in enumerate(keys) if self._row[key] != row)
            raise DataError(f"duplicate score row for {keys[row]} at data row {row + 1}")

    def rows(self, gallery_image_ids, probe_image_ids, matcher: str) -> np.ndarray:
        """The row of the (gallery, probe, `matcher`) key of each pair of ids;
        -1 for a key not in the table."""
        keys = zip(gallery_image_ids, probe_image_ids, repeat(matcher))
        return np.fromiter(map(self._row.get, keys, repeat(-1)), dtype=np.intp)

    def __len__(self) -> int:
        return len(self.score)


class ComparisonTable:
    """Columnar, read-only table of comparison pairs, one row per pair.

    Holds one numpy column per PAIR_COLUMNS and JOINED_COLUMNS entry it is
    given, `kind` always among them, as the attribute of that name;
    `columns` names them in schema order, and reading a column the table
    does not hold raises AttributeError naming it. `scores` is a read-only
    mapping from matcher name to its read-only score column. Pairing builds
    it unscored, a genuine table with every column and an impostor table
    with its file's columns only, `attach_scores` adds the scores,
    `read_pairs` reads back the columns a subcommand asks for, and metric
    and model code reads them.
    """

    def __init__(self, *, scores, **columns):
        if "kind" not in columns:
            raise TypeError("a ComparisonTable needs its kind column")
        self.columns = tuple(name for name in _TABLE_COLUMNS if name in columns)
        _set_columns(self, {name: _TABLE_COLUMNS[name] for name in self.columns}, columns)
        self.scores = MappingProxyType({
            name: _read_only(values, np.float64, len(self)) for name, values in scores.items()})

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def matchers(self) -> tuple[str, ...]:
        return tuple(self.scores)

    def select(self, mask: np.ndarray) -> "ComparisonTable":
        """Subset or reorder: boolean mask or integer index array."""
        mask = np.asarray(mask)
        if mask.dtype != bool:
            mask = np.asarray(mask, dtype=np.intp)
        return ComparisonTable(
            **{name: getattr(self, name)[mask] for name in self.columns},
            scores={name: values[mask] for name, values in self.scores.items()})

    def with_scores(self, scores: dict[str, np.ndarray]) -> "ComparisonTable":
        """The same pairs with `scores` (matcher -> column) as their scores."""
        return ComparisonTable(**{name: getattr(self, name) for name in self.columns},
                               scores=scores)

    @classmethod
    def concat(cls, tables: list["ComparisonTable"]) -> "ComparisonTable":
        """The rows of `tables` in order, in the columns every table holds;
        NaN scores where a table lacks a matcher."""
        if not tables:
            raise ValueError("nothing to concatenate")
        matchers = sorted(set().union(*(t.scores for t in tables)))
        return cls(
            **{name: np.concatenate([getattr(t, name) for t in tables])
               for name in tables[0].columns if all(name in t.columns for t in tables)},
            scores={m: np.concatenate([t.scores[m] if m in t.scores else np.full(len(t), np.nan)
                                       for t in tables]) for m in matchers})

    def genuine_mask(self) -> np.ndarray:
        return self.kind == GENUINE

    def score(self, matcher: str) -> np.ndarray:
        if matcher not in self.scores:
            raise KeyError(f"no scores for matcher {matcher!r}")
        return self.scores[matcher]

    def column(self, name: str) -> np.ndarray:
        """A MODEL_COLUMNS column or a matcher's scores as float64; KeyError
        for any other name."""
        if name in MODEL_COLUMNS:
            return getattr(self, MODEL_COLUMNS[name]).astype(np.float64, copy=False)
        if name in self.scores:
            return self.scores[name]
        raise KeyError(f"unknown column {name!r}")
