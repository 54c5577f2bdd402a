import numpy as np
import pytest

from longmatch.core import ComparisonTable, MatcherProfile
from longmatch.pairing import PairingConfig, attach_scores, \
    generate_genuine_pairs, generate_impostor_pairs
from longmatch.tableio import (
    CAPTURE_HEADER, DuplicateImageIdError, IngestError, ScoreTable,
    ingest_captures, ingest_scores, read_pairs, write_captures, write_pairs,
    write_scores,
)

from conftest import capture_rows, capture_table, random_capture_table


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
    from longmatch.tableio import write_table
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b", "c"],
                [(np.float64(0.00881392316759429), np.int64(7), 0.25)])
    line = path.read_text(encoding="utf-8").splitlines()[1]
    assert line == "0.00881392316759429,7,0.25"
    assert "np." not in line


def test_scores_round_trip(tmp_path):
    table = ScoreTable()
    table.add("I0", "I1", "simmatch", 123.456)
    table.add("I0", "I2", "simmatch", -0.25)
    path = tmp_path / "scores.csv"
    write_scores(table, path)
    back = ingest_scores(path)
    assert back.get("I0", "I1", "simmatch") == 123.456
    assert back.get("I0", "I2", "simmatch") == -0.25
    assert back.get("I9", "I1", "simmatch") is None


def test_pairs_round_trip_with_age_join(tmp_path):
    rng = np.random.default_rng(5)
    captures = random_capture_table(rng, n_subjects=8)
    profile = MatcherProfile("m1", "higher", -1e6, 1e6, 0.0)
    scores = ScoreTable()
    genuine = generate_genuine_pairs(captures)
    impostor = generate_impostor_pairs(captures, PairingConfig(max_impostor_probes=3,
                                                               base_seed=9))
    pairs = ComparisonTable.concat([genuine, impostor])
    for gid, pid in zip(pairs.gallery_image_id, pairs.probe_image_id):
        scores.add(gid, pid, "m1", float(rng.normal(50, 10)))
    table = attach_scores(pairs, scores, [profile]).table

    path = tmp_path / "pairs.csv"
    write_pairs(table, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == ("kind,eye,gallery_image_id,probe_image_id,gap_T_months,"
                      "delta_age_years,DC,Q_gallery,Q_probe,U_gallery,U_probe,"
                      "C_gallery,C_probe,R_gallery,R_probe,score_m1")

    back = read_pairs(path, captures)
    assert len(back) == len(table)
    np.testing.assert_array_equal(back.gap_t, table.gap_t)
    np.testing.assert_array_equal(back.kind, table.kind)
    np.testing.assert_allclose(back.dc, table.dc)
    np.testing.assert_allclose(back.scores["m1"], table.scores["m1"])
    # ages and subjects re-joined through the capture table
    np.testing.assert_array_equal(back.gallery_subject, table.gallery_subject)
    np.testing.assert_allclose(back.covariates["A_gallery"],
                               table.covariates["A_gallery"])
    # DC = 1 - |R_gallery - R_probe| holds exactly for the stored covariates,
    # before and after the file round trip
    for t in (table, back):
        np.testing.assert_array_equal(
            t.dc, 1.0 - np.abs(t.covariates["R_gallery"] - t.covariates["R_probe"]))


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
