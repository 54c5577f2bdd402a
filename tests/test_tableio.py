import csv

import numpy as np
import pytest

from longmatch.core import ComparisonTable, MatcherProfile
from longmatch.pairing import PairingConfig, attach_scores, \
    generate_genuine_pairs, generate_impostor_pairs
from longmatch.tableio import (
    BLOCK_ROWS, CAPTURE_HEADER, DuplicateImageIdError, IngestError,
    ingest_captures, ingest_scores, read_pairs, write_captures, write_pairs,
    write_scores, write_table,
)

from conftest import capture_rows, capture_table, random_capture_table, score_table


def _write_rows(path, rows, header=CAPTURE_HEADER):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _good_row(image_id, **overrides):
    row = {
        "image_id": image_id, "subject_id": "S001", "eye": "L",
        "collection_index": 1, "capture_time_months": 0, "age_years": 8,
        "quality": 70.5, "usable_area": 80.0, "circularity": 85.0,
        "pupil_radius": 45.0, "iris_radius": 110.0,
    }
    row.update(overrides)
    return [row[c] for c in CAPTURE_HEADER]


def test_well_formed_file_identity(tmp_path):
    path = tmp_path / "captures.csv"
    _write_rows(path, [_good_row(f"I{i}") for i in range(5)])
    result = ingest_captures(path)
    assert result.n_accepted == 5
    assert result.rejections == ()


def test_dilation_bounds_rejection(tmp_path):
    path = tmp_path / "captures.csv"
    _write_rows(path, [_good_row("I0"), _good_row("I1", pupil_radius=120.0)])
    result = ingest_captures(path)
    assert result.n_accepted == 1
    assert result.n_rejected == 1
    assert result.rejections[0].reason == "dilation bounds"
    assert result.rejections[0].row_number == 2


@pytest.mark.parametrize("overrides, reason, detail", [
    ({"quality": 101.0}, "quality range", "quality=101.0"),
    ({"usable_area": -0.5}, "quality range", "usable_area=-0.5"),
    ({"circularity": 100.25}, "quality range", "circularity=100.25"),
    ({"collection_index": 0}, "collection index", "collection_index=0"),
    ({"eye": "X"}, "invalid eye", "eye='X'"),
    ({"capture_time_months": 10**20}, "invalid integer",
     "capture_time_months=100000000000000000000 outside the 64-bit range"),
    ({"age_years": -2**63 - 1}, "invalid integer", "age_years="),
    ({"iris_radius": "inf"}, "invalid number", "iris_radius=inf"),
    ({"quality": "nan"}, "invalid number", "quality=nan"),
    ({"pupil_radius": "-1e999"}, "invalid number", "pupil_radius=-inf"),
])
def test_row_rule_rejects_one_row(tmp_path, overrides, reason, detail):
    path = tmp_path / "captures.csv"
    _write_rows(path, [_good_row("I0"), _good_row("I1", **overrides), _good_row("I2")])
    result = ingest_captures(path)
    assert result.table.image_id.tolist() == ["I0", "I2"]
    assert [(r.row_number, r.reason) for r in result.rejections] == [(2, reason)]
    assert result.rejections[0].detail.startswith(detail)


# (cells that differ from _good_row, the row's rejection or None when accepted);
# "short" keeps only the first cells of the row, "extra" appends cells to it
RULE_ROWS = [
    ({}, None),
    ({"eye": " L ", "quality": " 70.5\t"}, None),               # cells are stripped
    ({"collection_index": "1_0"}, None),                         # int() reads 10
    ({"extra": ["x", ""]}, None),                                # extra cells are ignored
    ({"short": 4}, ("missing field", "capture_time_months")),
    ({"quality": "  "}, ("missing field", "quality")),
    ({"eye": "l"}, ("invalid eye", "eye='l'")),
    ({"age_years": "8.0"}, ("invalid integer", "invalid literal for int() with base 10: '8.0'")),
    ({"capture_time_months": 10**20}, ("invalid integer",
     "capture_time_months=100000000000000000000 outside the 64-bit range")),
    ({"usable_area": "high"}, ("invalid number", "could not convert string to float: 'high'")),
    ({"pupil_radius": "-1e999"}, ("invalid number", "pupil_radius=-inf")),
    ({"collection_index": 0}, ("collection index", "collection_index=0")),
    ({"pupil_radius": 110.0}, ("dilation bounds", "pupil_radius=110.0 iris_radius=110.0")),
    ({"circularity": 100.25}, ("quality range", "circularity=100.25")),
    # two rules broken: the first in rule order wins
    ({"eye": "X", "image_id": ""}, ("missing field", "image_id")),
    ({"eye": "X", "age_years": "x"}, ("invalid eye", "eye='X'")),
    ({"collection_index": 10**20, "age_years": "x"},
     ("invalid integer", "invalid literal for int() with base 10: 'x'")),
    ({"age_years": -2**63 - 1, "quality": "x"},
     ("invalid integer", "age_years=-9223372036854775809 outside the 64-bit range")),
    ({"quality": "inf", "iris_radius": "r"},
     ("invalid number", "could not convert string to float: 'r'")),
    ({"collection_index": -1, "quality": "nan"}, ("invalid number", "quality=nan")),
    ({"collection_index": 0, "pupil_radius": 0.0}, ("collection index", "collection_index=0")),
    ({"pupil_radius": 0.0, "quality": 101.0},
     ("dilation bounds", "pupil_radius=0.0 iris_radius=110.0")),
    ({"usable_area": 100.5, "circularity": -1.0}, ("quality range", "usable_area=100.5")),
    # a repeat of a rejected row's image_id is no duplicate
    ({"image_id": "D", "eye": "X"}, ("invalid eye", "eye='X'")),
    ({"image_id": "D"}, None),
]


def test_capture_rules_table(tmp_path):
    rows = []
    for i, (cells, _) in enumerate(RULE_ROWS):
        cells = dict(cells)
        short, extra = cells.pop("short", None), cells.pop("extra", [])
        row = _good_row(cells.pop("image_id", f"I{i}"), **cells)
        rows.append((row[:short] if short else row) + extra)
    path = tmp_path / "captures.csv"
    _write_rows(path, rows)
    result = ingest_captures(path)
    assert [(r.row_number, r.reason, r.detail) for r in result.rejections] == [
        (i + 1, *rule) for i, (_, rule) in enumerate(RULE_ROWS) if rule is not None]
    assert result.table.image_id.tolist() == [
        row[0] for row, (_, rule) in zip(rows, RULE_ROWS) if rule is None]
    assert result.table.eye.tolist()[1] == "L"
    assert result.table.collection_index.tolist()[2] == 10

    _write_rows(path, rows + [_good_row("D")])
    with pytest.raises(DuplicateImageIdError,
                       match=f"duplicate image_id 'D' at data row {len(rows) + 1}$"):
        ingest_captures(path)


def test_int64_limits_accepted(tmp_path):
    path = tmp_path / "captures.csv"
    _write_rows(path, [_good_row("I0", capture_time_months=2**63 - 1),
                       _good_row("I1", capture_time_months=-2**63)])
    result = ingest_captures(path)
    assert result.rejections == ()
    assert result.table.capture_time_months.tolist() == [2**63 - 1, -2**63]


def test_header_only_file_gives_empty_table(tmp_path):
    path = tmp_path / "captures.csv"
    _write_rows(path, [])
    result = ingest_captures(path)
    assert len(result.table) == 0 and result.rejections == ()
    assert len(generate_genuine_pairs(result.table)) == 0
    assert len(generate_impostor_pairs(result.table, PairingConfig())) == 0


def test_missing_age_cell_rejected_others_kept(tmp_path):
    path = tmp_path / "captures.csv"
    rows = [_good_row(f"I{i}") for i in range(10)]
    rows[3][CAPTURE_HEADER.index("age_years")] = ""
    _write_rows(path, rows)
    result = ingest_captures(path)
    assert result.n_accepted == 9
    assert result.n_rejected == 1
    assert result.rejections[0].reason == "missing field"
    assert result.rejections[0].detail == "age_years"


def test_accepted_plus_rejected_equals_input(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "captures.csv"
    rows = []
    n = 200
    for i in range(n):
        row = _good_row(f"I{i:04d}")
        roll = rng.uniform()
        if roll < 0.1:
            row[CAPTURE_HEADER.index("quality")] = ""
        elif roll < 0.2:
            row[CAPTURE_HEADER.index("pupil_radius")] = 999.0
        elif roll < 0.25:
            row[CAPTURE_HEADER.index("collection_index")] = "zero"
        rows.append(row)
    _write_rows(path, rows)
    result = ingest_captures(path)
    assert result.n_accepted + result.n_rejected == n


def test_missing_column_raises(tmp_path):
    path = tmp_path / "captures.csv"
    header = [c for c in CAPTURE_HEADER if c != "age_years"]
    path.write_text(",".join(header) + "\n", encoding="utf-8")
    with pytest.raises(IngestError, match="age_years"):
        ingest_captures(path)


def test_duplicate_image_id_raises(tmp_path):
    path = tmp_path / "captures.csv"
    _write_rows(path, [_good_row("I0"), _good_row("I0")])
    with pytest.raises(DuplicateImageIdError):
        ingest_captures(path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest_captures(tmp_path / "nope.csv")


def test_capture_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    table = random_capture_table(rng, n_subjects=6)
    path = tmp_path / "captures.csv"
    write_captures(table, path)
    back = ingest_captures(path)
    assert back.rejections == ()
    assert capture_rows(back.table) == capture_rows(table)


def test_write_table_handles_numpy_scalars(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b", "c"],
                [[np.float64(0.00881392316759429)], [np.int64(7)], [0.25]])
    line = path.read_text(encoding="utf-8").splitlines()[1]
    assert line == "0.00881392316759429,7,0.25"
    assert "np." not in line


def test_scores_round_trip(tmp_path):
    table = score_table([("I0", "I1", "simmatch", 123.456), ("I0", "I2", "simmatch", -0.25)])
    path = tmp_path / "scores.csv"
    write_scores(table, path)
    back = ingest_scores(path)
    rows = back.rows(["I0", "I0", "I9"], ["I1", "I2", "I1"], "simmatch")
    assert back.score[rows[:2]].tolist() == [123.456, -0.25]
    assert rows[2] == -1


def test_pairs_round_trip_with_age_join(tmp_path):
    rng = np.random.default_rng(5)
    captures = random_capture_table(rng, n_subjects=8)
    profile = MatcherProfile("m1", "higher", -1e6, 1e6, 0.0)
    genuine = generate_genuine_pairs(captures)
    impostor = generate_impostor_pairs(captures, PairingConfig(max_impostor_probes=3,
                                                               base_seed=9))
    pairs = ComparisonTable.concat([genuine, impostor])
    scores = score_table([(gid, pid, "m1", float(rng.normal(50, 10)))
                          for gid, pid in zip(pairs.gallery_image_id, pairs.probe_image_id)])
    table = attach_scores(pairs, scores, [profile]).table

    path = tmp_path / "pairs.csv"
    write_pairs(table, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ("kind,eye,gallery_image_id,probe_image_id,gap_T_months,"
                      "delta_age_years,DC,Q_gallery,Q_probe,U_gallery,U_probe,"
                      "C_gallery,C_probe,R_gallery,R_probe,score_m1")

    back = read_pairs(path, captures)
    assert len(back) == len(table)
    np.testing.assert_array_equal(back.gap_T_months, table.gap_T_months)
    np.testing.assert_array_equal(back.kind, table.kind)
    np.testing.assert_allclose(back.DC, table.DC)
    np.testing.assert_allclose(back.scores["m1"], table.scores["m1"])
    # ages and subjects re-joined through the capture table
    np.testing.assert_array_equal(back.gallery_subject, table.gallery_subject)
    np.testing.assert_allclose(back.A_gallery,
                               table.A_gallery)
    # DC = 1 - |R_gallery - R_probe| holds exactly for the stored covariates,
    # before and after the file round trip
    for t in (table, back):
        np.testing.assert_array_equal(
            t.DC, 1.0 - np.abs(t.R_gallery - t.R_probe))


def test_read_pairs_names_first_row_with_unknown_image_id(tmp_path):
    rng = np.random.default_rng(6)
    captures = random_capture_table(rng, n_subjects=6)
    pairs = generate_genuine_pairs(captures)
    path = tmp_path / "pairs.csv"
    write_pairs(pairs, path)
    dropped = pairs.probe_image_id[2]
    known = capture_table([r for r in capture_rows(captures) if r["image_id"] != dropped])
    first = 1 + min(i for i, pid in enumerate(pairs.probe_image_id) if pid == dropped)
    with pytest.raises(IngestError, match=f"data row {first} references image ids "
                                          f"missing from the capture table"):
        read_pairs(path, known)


def _edge_floats(rng, n):
    """`n` finite float64s: signed zeros, the extremes, awkward decimals, random bits."""
    edges = [0.0, -0.0, 5e-324, -5e-324, np.finfo(np.float64).max,
             -np.finfo(np.float64).max, 1e16, 1e-5, 2.2250738585072014e-308, 0.1]
    bits = rng.integers(0, 2**64, 4 * n, dtype=np.uint64).view(np.float64)
    return np.concatenate([edges, bits[np.isfinite(bits)]])[:n]


def test_float_cells_round_trip_bit_exactly(tmp_path):
    rng = np.random.default_rng(7)
    captures = random_capture_table(rng, n_subjects=8)
    pairs = generate_genuine_pairs(captures)
    values = _edge_floats(rng, len(pairs))
    table = pairs.with_scores({"m1": values, "m2": -values[::-1]})
    write_pairs(table, tmp_path / "pairs.csv")
    back = read_pairs(tmp_path / "pairs.csv", captures)
    for name in ("m1", "m2"):
        assert back.scores[name].view(np.uint64).tolist() == \
            table.scores[name].view(np.uint64).tolist()
    assert back.DC.view(np.uint64).tolist() == table.DC.view(np.uint64).tolist()

    scores = score_table([(f"G{i}", f"P{i}", "m1", v) for i, v in enumerate(values.tolist())])
    write_scores(scores, tmp_path / "scores.csv")
    back = ingest_scores(tmp_path / "scores.csv")
    assert back.score.view(np.uint64).tolist() == values.view(np.uint64).tolist()
    assert back.gallery_image_id.tolist() == scores.gallery_image_id.tolist()


def test_score_columns_found_by_name(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("score,matcher,note,probe_image_id,gallery_image_id\r\n"
                    "-0.5,m1,x,P1,G1\r\n2.0,m1,,P2,G1\r\n", encoding="utf-8")
    back = ingest_scores(path)
    assert len(back) == 2
    assert back.score[back.rows(["G1", "G1"], ["P1", "P2"], "m1")].tolist() == [-0.5, 2.0]


def test_repeated_pair_column_reads_its_first(tmp_path):
    captures = random_capture_table(np.random.default_rng(8), n_subjects=6)
    pairs = generate_genuine_pairs(captures)
    table = pairs.with_scores({"m1": np.arange(len(pairs), dtype=np.float64)})
    path = tmp_path / "pairs.csv"
    write_pairs(table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([lines[0] + ",score_m1"] + [line + ",-1.0" for line in lines[1:]])
                    + "\n", encoding="utf-8")
    back = read_pairs(path, captures)
    assert back.matchers == ("m1",)
    assert back.scores["m1"].tolist() == table.scores["m1"].tolist()


def _csv_writer_table(path, header, columns):
    """The oracle: the same table written row by row by csv.writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


_NAN_PAYLOAD = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
# cells of the object column: csv.writer's text rules, quoting, numpy scalars
_OBJECT_CELLS = [
    None, "", "a,b", 'say "hi"', '"', "cr\rmid", "lf\nmid", "crlf\r\n", "  padded  ",
    "naïve ünïcödé ✓", np.float64(0.1), np.float64(-0.0), np.int64(-7), np.float32(0.1),
    np.bool_(True), True, 2 ** 70, -(2 ** 80), 5e-324, float("inf"), -float("inf"),
    float("nan"), 0.0, 1e16, 123456789.125,
]
# bit patterns of the float64 column: signed zeros and NaN payloads stay apart
_FLOAT_CELLS = np.array([0.0, -0.0, np.nan, *_NAN_PAYLOAD, np.inf, -np.inf, 5e-324, -5e-324,
                         1e16, 1e-5, 0.1, 1 / 3, 2.0 ** 60, np.finfo(np.float64).max])
_INT_CELLS = np.array([0, -1, 7, np.iinfo(np.int64).min, np.iinfo(np.int64).max, 10 ** 15])


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_write_table_matches_csv_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    header = ["plain", "needs,quote", 'q"uote', "float64", "int64", "object", "float32", "ids"]
    columns = [
        [f"r{i}" for i in range(n)],
        rng.choice(["x", "y,z"], n).tolist(),
        [None] * n,
        _FLOAT_CELLS[rng.integers(0, len(_FLOAT_CELLS), n)],
        _INT_CELLS[rng.integers(0, len(_INT_CELLS), n)],
        [_OBJECT_CELLS[i] for i in rng.integers(0, len(_OBJECT_CELLS), n)],
        rng.normal(size=n).astype(np.float32),
        np.array([f"I{i % 97:05d}" for i in range(n)], dtype=object),
    ]
    write_table(tmp_path / "columns.csv", header, columns)
    _csv_writer_table(tmp_path / "rows.csv", header, columns)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS + 1])
def test_write_table_one_column_matches_csv_writer(tmp_path, n):
    # csv.writer writes a row of one empty cell as "", so that it is not a blank line
    for header in ([""], ["only"]):
        column = [[None, "", "x", 0.5, 'a"b'][i % 5] for i in range(n)]
        for values in (column, np.arange(n, dtype=np.float64)):
            write_table(tmp_path / "columns.csv", header, [values])
            _csv_writer_table(tmp_path / "rows.csv", header, [values])
            assert (tmp_path / "columns.csv").read_bytes() == \
                (tmp_path / "rows.csv").read_bytes()


def test_write_table_refuses_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="one column per header name"):
        write_table(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3]])
    with pytest.raises(ValueError, match="one column per header name"):
        write_table(tmp_path / "t.csv", ["a", "b"], [[1, 2]])
