import numpy as np
import pytest

from longmatch.core import CAPTURE_COLUMNS, CaptureTable, MatcherProfile


def make_capture(image_id, subject="S001", eye="L", collection=1, months=0,
                 age=8, quality=70.0, usable=80.0, circularity=85.0,
                 pupil=45.0, iris=110.0):
    """One capture row: a dict keyed by the capture-file columns."""
    return dict(
        image_id=image_id, subject_id=subject, eye=eye,
        collection_index=collection, capture_time_months=months, age_years=age,
        quality=quality, usable_area=usable, circularity=circularity,
        pupil_radius=pupil, iris_radius=iris)


def capture_table(rows) -> CaptureTable:
    """The CaptureTable of `make_capture` rows, in their order."""
    return CaptureTable(**{name: [row[name] for row in rows] for name in CAPTURE_COLUMNS})


def capture_rows(table: CaptureTable) -> list[dict]:
    """The rows of `table` in file order, as `make_capture` dicts of builtins."""
    columns = {name: getattr(table, name).tolist() for name in CAPTURE_COLUMNS}
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


@pytest.fixture
def similarity_profile():
    return MatcherProfile(name="simmatch", orientation="higher",
                          score_min=-1e9, score_max=1e9, default_threshold=34.0)


@pytest.fixture
def distance_profile():
    return MatcherProfile(name="hamdist", orientation="lower",
                          score_min=0.0, score_max=1.0, default_threshold=0.42)


def random_capture_table(rng: np.random.Generator, n_subjects=10,
                         n_collections=4, images_per=2) -> CaptureTable:
    """Random but structurally valid longitudinal capture table."""
    rows = []
    counter = 0
    for i in range(n_subjects):
        subject = f"S{i:03d}"
        age0 = int(rng.integers(4, 13))
        attended = sorted(rng.choice(n_collections, size=int(rng.integers(1, n_collections + 1)),
                                     replace=False).tolist())
        for c in attended:
            for eye in ("L", "R"):
                if rng.uniform() < 0.15:
                    continue
                for _ in range(int(rng.integers(1, images_per + 1))):
                    iris = float(rng.uniform(95, 135))
                    rows.append(make_capture(
                        f"I{counter:05d}", subject=subject, eye=eye,
                        collection=c + 1, months=6 * c,
                        age=age0 + (6 * c) // 12,
                        quality=float(rng.uniform(30, 100)),
                        usable=float(rng.uniform(40, 100)),
                        circularity=float(rng.uniform(50, 100)),
                        pupil=float(rng.uniform(0.2, 0.8)) * iris,
                        iris=iris))
                    counter += 1
    return capture_table(rows)
