import csv
import re
from pathlib import Path

import numpy as np
import pytest

from longmatch import tableio
from longmatch.core import (
    CAPTURE_COLUMNS, CAPTURE_RULES, JOINED_COLUMNS, PAIR_COLUMNS, SCORE_COLUMNS,
    CaptureTable, ComparisonTable, MatcherProfile,
)
from longmatch.pairing import PairingConfig, attach_scores, \
    generate_genuine_pairs, generate_impostor_pairs
from longmatch.synth import SynthConfig, generate_longitudinal
from longmatch.tableio import (
    BLOCK_ROWS, CAPTURE_HEADER, INTEGER_FAULT, MISSING_FIELD, NUMBER_FAULT, OUTSIDE_64_BITS,
    DuplicateImageIdError, IngestError, TextColumns, ingest_captures, ingest_scores, open_text,
    read_pairs, read_table, write_captures, write_pairs, write_scores, write_table,
)

from conftest import (
    capture_rows, capture_table, make_capture, random_capture_table, score_table,
)

# every column a ComparisonTable holds, as read_pairs names them
EVERY_COLUMN = tuple({**PAIR_COLUMNS, **JOINED_COLUMNS})


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


def test_readme_lists_the_rejection_reasons_in_ingest_order():
    # ingest applies the empty-cell rule, the rule on text, the parse of each
    # number, then the other capture-row rules
    steps = [MISSING_FIELD, CAPTURE_RULES[0][0], INTEGER_FAULT, NUMBER_FAULT,
             *(rule[0] for rule in CAPTURE_RULES[1:])]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = " ".join(readme.split("Capture rows that break a row rule")[1]
                         .split("\n\n")[0].split())
    assert re.findall(r"\(`([^`]+)`\)", paragraph) == list(dict.fromkeys(steps))


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
    # each kind's file holds the pair columns its table holds, and an
    # impostor table holds no capture covariates
    headers = {"genuine": ("kind,eye,gallery_image_id,probe_image_id,gap_T_months,"
                           "DC,Q_gallery,Q_probe,U_gallery,U_probe,C_gallery,C_probe,"
                           "score_m1"),
               "impostor": "kind,eye,gallery_image_id,probe_image_id,score_m1"}
    tables, backs = {}, {}
    for kind, unscored in (("genuine", genuine), ("impostor", impostor)):
        table = tables[kind] = attach_scores(unscored, scores, [profile]).table
        path = tmp_path / f"pairs_{kind}.csv"
        write_pairs(table, path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == headers[kind]
        # a pair column the file lacks: the gap, which only genuine files
        # hold, and a key column cut out
        if kind == "impostor":
            with pytest.raises(IngestError, match="missing mandatory column.*gap_T_months"):
                read_pairs(path, kind, lambda: captures, ("gap_T_months",))
            cut = tmp_path / "cut.csv"
            cut.write_text("".join(",".join(cells[:1] + cells[2:]) + "\r\n" for cells in (
                line.split(",") for line in path.read_text(encoding="utf-8").splitlines())),
                encoding="utf-8")
            with pytest.raises(IngestError, match="missing mandatory column.*eye"):
                read_pairs(cut, kind, lambda: captures, ("eye",))
        columns = (*(EVERY_COLUMN if kind == "genuine" else ("eye", "A_gallery")), "score_m1")
        back = backs[kind] = read_pairs(path, kind, lambda: captures, columns)
        assert len(back) == len(table)
        np.testing.assert_array_equal(back.eye, table.eye)
        if kind == "genuine":
            np.testing.assert_array_equal(back.gap_T_months, table.gap_T_months)
        np.testing.assert_array_equal(back.kind, table.kind)
        np.testing.assert_allclose(back.scores["m1"], table.scores["m1"])
        # ages and subjects joined through the capture table
        rows = captures.rows(table.gallery_image_id)
        np.testing.assert_array_equal(back.gallery_subject, captures.subject_id[rows])
        np.testing.assert_array_equal(back.A_gallery, captures.age_years[rows])
    np.testing.assert_allclose(backs["genuine"].DC, tables["genuine"].DC)
    # DC = 1 - |R_gallery - R_probe| holds exactly for the stored covariates,
    # before and after the file round trip
    for t in (tables["genuine"], backs["genuine"]):
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
        read_pairs(path, "genuine", lambda: known, ("kind", "gallery_subject"))


def test_read_pairs_ingests_captures_only_to_join(tmp_path):
    captures = random_capture_table(np.random.default_rng(10), n_subjects=6)
    pairs = generate_genuine_pairs(captures)
    write_pairs(pairs.with_scores({"m1": np.zeros(len(pairs))}), tmp_path / "pairs.csv")
    calls = []

    def ingest():
        calls.append(len(calls))
        return captures

    read_pairs(tmp_path / "pairs.csv", "genuine", ingest, ("kind", "gap_T_months", "score_m1"))
    assert calls == []
    back = read_pairs(tmp_path / "pairs.csv", "genuine", ingest,
                      ("kind", "A_probe", "delta_age_years"))
    assert calls == [0]
    assert back.A_probe.tolist() == pairs.A_probe.tolist()
    assert back.delta_age_years.tolist() == pairs.delta_age_years.tolist()
    # a capture covariate is joined, never read from the file
    back = read_pairs(tmp_path / "pairs.csv", "genuine", ingest, ("kind", "DC"))
    assert calls == [0, 1]
    assert back.DC.tolist() == pairs.DC.tolist()
    read_pairs(tmp_path / "pairs.csv", "genuine", ingest, EVERY_COLUMN)
    assert calls == [0, 1, 2]


def test_genuine_file_of_seventeen_columns_reads_to_the_same_tables(tmp_path):
    # the layout that also wrote delta_age_years after gap_T_months and
    # R_gallery, R_probe after C_probe: read_pairs reads neither, so their
    # stale cells are not judged
    captures = random_capture_table(np.random.default_rng(11), n_subjects=6)
    pairs = generate_genuine_pairs(captures)
    write_pairs(pairs.with_scores({"m1": np.arange(len(pairs), dtype=np.float64)}),
                tmp_path / "pairs.csv")
    lines = [line.split(",") for line in
             (tmp_path / "pairs.csv").read_text(encoding="utf-8").splitlines()]
    stale = [["delta_age_years", "R_gallery", "R_probe"], ["x", "inf", ""],
             *([str(2**64), "nan", "-1"] for _ in lines[2:])]
    (tmp_path / "old.csv").write_text("".join(
        ",".join([*cells[:5], d, *cells[5:12], r_gallery, r_probe, *cells[12:]]) + "\r\n"
        for cells, (d, r_gallery, r_probe) in zip(lines, stale)), encoding="utf-8")
    for columns in ((*EVERY_COLUMN, "score_m1"), ("kind", "gap_T_months", "score_m1")):
        new, old = (read_pairs(tmp_path / name, "genuine", lambda: captures, columns)
                    for name in ("pairs.csv", "old.csv"))
        assert old.columns == new.columns
        assert _table_bits(old, old.columns) == _table_bits(new, new.columns)
        assert _bits(old.scores["m1"]) == _bits(new.scores["m1"])


# the capture covariates the genuine file shows; read_pairs joins them
COVARIATES = tuple(name for name in JOINED_COLUMNS if name in PAIR_COLUMNS)


def _fuzzed_captures(rng):
    """A random capture table whose reals reach the ends the capture-row rules
    allow: 0 and 100, subnormals, and radii up to float64's largest."""
    table = random_capture_table(rng, n_subjects=8)
    n = len(table)
    columns = {name: getattr(table, name) for name in CAPTURE_COLUMNS}
    for name in ("quality", "usable_area", "circularity"):
        columns[name] = np.where(rng.uniform(size=n) < 0.5, columns[name], rng.choice(
            [0.0, 100.0, 5e-324, 0.1, 99.99999999999999, 1e-300], size=n))
    iris = np.where(rng.uniform(size=n) < 0.5, columns["iris_radius"], rng.choice(
        [np.finfo(np.float64).max, 1e300, 1e-300, 1e-320, 1.0], size=n))
    share = rng.choice([0.3, 0.5, 1e-300, 5e-324, np.nextafter(1.0, 0.0)], size=n)
    columns["pupil_radius"] = np.minimum(np.maximum(iris * share, 5e-324),
                                         np.nextafter(iris, 0.0))
    columns["iris_radius"] = iris
    return CaptureTable(**columns)


@pytest.mark.parametrize("source", ["fuzz", "synth"])
def test_written_covariates_equal_the_joined_ones_bit_for_bit(tmp_path, source):
    for seed in range(4):
        if source == "fuzz":
            captures = _fuzzed_captures(np.random.default_rng(200 + seed))
        else:
            captures = generate_longitudinal(SynthConfig(
                n_subjects=12, session_schedule=(0, 6, 12, 24), include_impostors=False,
                seed=seed)).captures
        write_captures(captures, tmp_path / "captures.csv")
        write_pairs(generate_genuine_pairs(captures), tmp_path / "pairs.csv")
        shown = read_table(tmp_path / "pairs.csv", dict.fromkeys(COVARIATES, np.float64))
        joined = read_pairs(tmp_path / "pairs.csv", "genuine",
                            lambda: ingest_captures(tmp_path / "captures.csv").table, COVARIATES)
        assert len(joined) > 0
        for name in COVARIATES:
            assert _bits(shown.column(name)) == _bits(getattr(joined, name)), (seed, name)


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
    back = read_pairs(tmp_path / "pairs.csv", "genuine", lambda: captures,
                      ("kind", "DC", "score_m1", "score_m2"))
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
    back = read_pairs(path, "genuine", lambda: captures, ("kind", "score_m1"))
    assert back.matchers == ("m1",)
    assert back.scores["m1"].tolist() == table.scores["m1"].tolist()


def test_projected_read_pairs_reads_and_judges_only_its_columns(tmp_path):
    captures = random_capture_table(np.random.default_rng(9), n_subjects=6)
    pairs = generate_genuine_pairs(captures)
    table = pairs.with_scores({"m1": np.arange(len(pairs), dtype=np.float64)})
    path = tmp_path / "pairs.csv"
    write_pairs(table, path)
    back = read_pairs(path, "genuine", lambda: captures, ("kind", "gallery_subject"))
    assert back.columns == ("kind", "gallery_image_id", "probe_image_id",
                            *(name for name in EVERY_COLUMN if name in JOINED_COLUMNS))
    assert back.gallery_subject.tolist() == table.gallery_subject.tolist()
    assert back.matchers == ()

    # a non-finite DC in data row 2 is not read: DC is joined from the captures
    lines = path.read_text(encoding="utf-8").splitlines()
    header, cells = lines[0].split(","), lines[2].split(",")
    cells[header.index("DC")] = "inf"
    lines[2] = ",".join(cells)
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    back = read_pairs(path, "genuine", lambda: captures, ("kind", "DC"))
    assert back.DC.view(np.uint64).tolist() == table.DC.view(np.uint64).tolist()

    # and an unknown probe id in data row 2
    cells[header.index("probe_image_id")] = "nope"
    lines[2] = ",".join(cells)
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    back = read_pairs(path, "genuine", lambda: captures, ("kind", "score_m1"))
    assert back.columns == ("kind",)
    assert back.matchers == ("m1",)
    assert back.scores["m1"].tolist() == table.scores["m1"].tolist()
    with pytest.raises(AttributeError, match="'DC'"):
        back.DC
    # every column asked for is required, a matcher's scores too
    with pytest.raises(IngestError, match=r"missing mandatory column\(s\) \['score_m9'\]"):
        read_pairs(path, "genuine", lambda: captures, ("kind", "score_m1", "score_m9"))
    for joined in ("A_probe", "DC"):
        with pytest.raises(IngestError, match="data row 2 references image ids missing"):
            read_pairs(path, "genuine", lambda: captures, ("kind", joined))


def test_read_pairs_reads_a_file_as_the_kind_it_holds(tmp_path):
    captures = random_capture_table(np.random.default_rng(11), n_subjects=6)
    tables = {"genuine": generate_genuine_pairs(captures),
              "impostor": generate_impostor_pairs(captures, PairingConfig(2, base_seed=3))}
    for kind, other in (("genuine", "impostor"), ("impostor", "genuine")):
        path = tmp_path / f"pairs_{kind}.csv"
        write_pairs(tables[kind], path)
        assert len(read_pairs(path, kind, lambda: captures, ())) == len(tables[kind])
        with pytest.raises(IngestError, match=re.escape(
                f"{path}: '{kind}' pair at data row 1 of a file of {other} pairs")):
            read_pairs(path, other, lambda: captures, ())
        # one row of the other kind, or of no kind, in a file of this kind
        lines = path.read_text(encoding="utf-8").splitlines()
        for label in (other, "x"):
            path.write_text("\r\n".join([*lines[:3], label + lines[3][len(kind):], *lines[4:]])
                            + "\r\n", encoding="utf-8")
            with pytest.raises(IngestError, match=re.escape(
                    f"{path}: '{label}' pair at data row 3 of a file of {kind} pairs")):
                read_pairs(path, kind, lambda: captures, ("kind", "eye"))
    # a name no pair file holds is the caller's error, whatever the file
    with pytest.raises(ValueError, match=r"cannot read column\(s\) \['T', 'nope'\]"):
        read_pairs(tmp_path / "absent.csv", "genuine", lambda: captures, ("nope", "T", "DC"))


def test_short_row_outside_the_projection_is_refused_on_both_paths(tmp_path):
    # np.loadtxt reads a row that is short only outside the columns it is
    # asked for, so read_table must send such a text to csv.reader
    lines = ["x,1,2,3", "y,4"]
    assert len(np.loadtxt(lines, delimiter=",", dtype=object, usecols=[0, 1])) == 2
    path = tmp_path / "t.csv"
    path.write_text("a,b,c,d\r\n" + "\r\n".join(lines) + "\r\n", encoding="utf-8")
    schema = {"a": object, "b": np.float64}
    for read in (read_table, _csv_read_table):
        text = read(path, schema)
        assert list(text.cells) == ["a", "b"]
        assert text.short_row == f"{path}: data row 2 has 2 cells, fewer than the 4 header columns"
        with pytest.raises(IngestError, match="data row 2 has 2 cells"):
            text.column("b")
    # a longer row is read as csv.reader reads it: its extra cells dropped
    path.write_text("a,b,c,d\r\nx,1,2,3\r\nz,5,6,7,8\r\n", encoding="utf-8")
    new, old = (read(path, schema) for read in (read_table, _csv_read_table))
    assert _summary(new) == _summary(old)
    assert new.column("b").tolist() == [1.0, 5.0]


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


class _CsvColumns(TextColumns):
    """The oracle's columns: every cell parsed one by one, as the reader did
    before it had a one-pass path."""

    def parse(self, name):
        cells, dtype = self.cells[name], self.dtypes[name]
        if dtype is object:
            return np.array(cells, dtype=object), {}
        convert = int if dtype is np.int64 else float
        try:
            return np.array(list(map(convert, cells)), dtype=dtype), {}
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


def _csv_read_table(path, schema):
    """The oracle: read_table as csv.reader alone reads a table."""
    path = Path(path)
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
    cells = {}
    for name, column in zip(header, zip(*rows) if rows else [()] * width):
        if name in schema:
            cells.setdefault(name, column)
    return _CsvColumns(path, len(rows), cells, dict(schema), short_row)


def _bits(values):
    """`values` with floats by bit pattern, so -0.0 and NaN signs count."""
    values = np.asarray(values)
    if values.dtype == np.float64:
        return "f8", values.view(np.uint64).tolist()
    return str(values.dtype), values.tolist()


def _outcome(read, *args):
    """What `read(*args)` gives, or the type and text of what it raises."""
    try:
        return "ok", read(*args)
    except (IngestError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _summary(text):
    """Everything a caller can read from TextColumns, values by bit pattern."""
    parsed = {name: text.parse(name) for name in text.cells}
    return (len(text), list(text.cells), text.dtypes, text.short_row,
            {name: (_bits(values), faults) for name, (values, faults) in parsed.items()},
            {name: _outcome(lambda n: _bits(text.column(n)), name) for name in text.cells})


def _table_bits(table, names):
    return {name: _bits(getattr(table, name)) for name in names}


# cells that a one-pass parse must read as int()/float() do, or hand to csv.reader
_ODD_CELLS = [
    '"1.5"', '"a,b"', 'a""b', '"', " 1.5 ", "\t2\t", " 7", "1_0", "1e999", "-1e999", "nan",
    "-nan", "+nan", "NaN", "nAn", "inf", "-inf", "+Infinity", "-INFINITY", "infinit",
    "nan(1)", "0x10", "1.", ".5", "1e5", "1E+05", "+7", "-0", "-0.0", "00", "", " ", "\t",
    "\u0663", "\u0661\u0662", "8\u1170", "\x1c8", "8\x1f", "\x1d", "\x1e1", "\x7f", "\x0b1",
    "\x0c1", "\u00a01", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "-9223372036854775809", "1" * 25, "9" * 400, "1" * 5000, "\u00fcn\u00ef", "x", "L", "R",
    "genuine", "impostor", "#1", "'1'", "1,5", "1.5e-320", "2.5e-324",
]
_ENDS = ["\r\n", "\n", "\r"]


def _fuzz_text(rng, columns, dirty: bool) -> str:
    """A table of `columns` (name -> dtype) in text: clean cells of each
    dtype; when `dirty`, also odd cells, blank and ragged lines, mixed
    line ends and header changes."""
    header = list(columns)
    if dirty and rng.uniform() < 0.3:
        header = [header[i] for i in rng.permutation(len(header))]
    if dirty and rng.uniform() < 0.2:
        header.append(header[int(rng.integers(len(header)))])   # a repeated name
    if dirty and rng.uniform() < 0.05:
        header.pop(int(rng.integers(len(header))))              # a missing column
    if rng.uniform() < 0.3:
        header.append("note")
    ends = _ENDS if dirty else _ENDS[:1]
    odd_rate = rng.choice([0.005, 0.02, 0.1])
    lines = [",".join(header)]
    for _ in range(int(rng.integers(1, 7))):
        if dirty and rng.uniform() < 0.08:
            lines.append(str(rng.choice(["", " ", "\t"])))
            continue
        row = []
        for name in header:
            dtype = columns.get(name, object)
            if dirty and rng.uniform() < odd_rate:
                row.append(str(rng.choice(_ODD_CELLS)))
            elif name == "kind" and rng.uniform() < 0.9:
                row.append("genuine")
            elif dtype is np.int64:
                row.append(str(int(rng.integers(-10**12, 10**12))))
            elif dtype is np.float64:
                value = float(rng.choice([rng.normal(50, 20), 0.0, -0.0, 5e-324,
                                          1.7976931348623157e308, 1e16, 0.1]))
                row.append(repr(value) if rng.uniform() < 0.9
                           else str(rng.choice(["nan", "-nan", "inf", "-1e999", " 2.5 ", "+7"])))
            else:
                row.append(str(rng.choice(["I0", "I1", "I2", "I3", "L", "R", "genuine",
                                           "impostor", "", " x "])))
        if dirty and rng.uniform() < 0.08:
            row = row[:int(rng.integers(len(row)))] if rng.uniform() < 0.5 else row + ["extra"]
        lines.append(",".join(row))
    tail = "" if rng.uniform() < 0.2 else str(rng.choice(ends))
    return "".join(line + str(rng.choice(ends)) for line in lines[:-1]) + lines[-1] + tail


# the full schemas of the tables read: captures, scores, pairs with two
# matchers, and a report table
_SCHEMAS = [
    CAPTURE_COLUMNS, SCORE_COLUMNS,
    {**PAIR_COLUMNS, "score_m1": np.float64, "score_m2": np.float64},
    {"age_group": object, "T_months": np.float64, "predicted": np.float64},
]


def _sub_schema(rng, schema):
    """Some names of `schema`, perhaps with "note" (a column some texts hold)
    and "absent" (one no text holds) at random dtypes."""
    extra = {name: [object, np.int64, np.float64][int(rng.integers(3))]
             for name in ("note", "absent")}
    return {name: dtype for name, dtype in {**schema, **extra}.items() if rng.uniform() < 0.4}


@pytest.mark.parametrize("seed", range(4))
def test_read_table_matches_csv_reader_oracle(tmp_path, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path / "table.csv"
    one_pass = 0
    for i in range(120):
        schema = _SCHEMAS[i % len(_SCHEMAS)]
        text = _fuzz_text(rng, schema, dirty=i % 3 != 0)
        path.write_bytes(text.encode("utf-8"))
        # the full schema, then a sub-schema: the same columns, faults, short
        # row and error text on both paths
        for schema_read in (schema, _sub_schema(rng, schema)):
            new = _outcome(read_table, path, schema_read)
            old = _outcome(_csv_read_table, path, schema_read)
            assert (new[0], _summary(new[1]) if new[0] == "ok" else new[1]) == \
                (old[0], _summary(old[1]) if old[0] == "ok" else old[1]), (repr(text), schema_read)
            if new[0] == "ok":
                assert set(new[1].cells) == set(schema_read)
            one_pass += schema_read is schema and new[0] == "ok" and any(
                isinstance(cells, np.ndarray) for cells in new[1].cells.values())
    # both paths ran: clean texts take the one pass, dirty ones mostly csv.reader
    assert 40 <= one_pass <= 100


def test_read_table_oracle_edge_files(tmp_path):
    limit = csv.field_size_limit()
    texts = [
        b"", b"\r\n", b"a,b\r\n", b"\xef\xbb\xbfscore,matcher\r\n1,m\r\n",
        b"score,matcher\r\n\xff,m\r\n", b"score,matcher\r\n" + b"1,m\r\n" * 5000 + b"2,\xe9\r\n",
        # past the first decode block, an undecodable byte loses to a missing column
        b"score\r\n" + b"1\r\n" * 5000 + b"\xe9\r\n",
        b"kind,score,matcher\r\n" + b"x,1,m\r\n" * 3000,
        # a field at csv's size limit, and one past it
        b"score,matcher\r\n1,m\r\n" + b"0" * (limit - 1) + b"1,m\r\n",
        b"score,matcher\r\n1,m\r\n" + b"0" * limit + b"1,m\r\n",
        b"matcher,score\r\nm," + b"1" * (limit + 1) + b"\r\n",
        b"score,matcher\r\n1,m\r\n\r\n", b"score,matcher\r\n1,m\r\n  \r\n", b"score\r\n1\r\n\r\n",
        b"score,matcher\n1,m\r2,m\r\n3,m", b"score,matcher\r\n1,m,\r\n",
    ]
    path = tmp_path / "table.csv"
    schema = {"score": np.float64, "matcher": object}
    for data in texts:
        path.write_bytes(data)
        new = _outcome(read_table, path, schema)
        old = _outcome(_csv_read_table, path, schema)
        assert (new[0], _summary(new[1]) if new[0] == "ok" else new[1]) == \
            (old[0], _summary(old[1]) if old[0] == "ok" else old[1]), data[:80]


# column sets read_pairs is given: kind and scores, a gap, a capture join, and a
# matcher whose scores the file lacks
_PROJECTIONS = [("kind", "score_m1"), ("kind", "gap_T_months", "score_m1"),
                ("kind", "DC", "Q_probe", "gallery_subject", "score_m1"), ("kind", "score_m9")]


def _captures_for_pairs():
    return capture_table([make_capture(f"I{i}", subject=f"S{i % 2}", age=4 + i)
                          for i in range(4)])


@pytest.mark.parametrize("seed", range(3))
def test_ingest_and_read_pairs_match_csv_reader_oracle(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(100 + seed)
    path = tmp_path / "table.csv"
    captures = _captures_for_pairs()
    pair_columns = {**PAIR_COLUMNS, "score_m1": np.float64}

    def ingest(p):
        result = ingest_captures(p)
        return _table_bits(result.table, CAPTURE_HEADER), result.rejections

    def pairs(p):
        table = read_pairs(p, "genuine", lambda: captures, (*EVERY_COLUMN, "score_m1"))
        return _table_bits(table, EVERY_COLUMN), table.matchers, _bits(table.scores["m1"])

    def projected(p, columns):
        table = read_pairs(p, "genuine", lambda: captures, columns)
        return (table.columns, _table_bits(table, table.columns),
                {name: _bits(values) for name, values in table.scores.items()})

    accepted = 0
    for i in range(60):
        if i % 2:
            text = _fuzz_text(rng, pair_columns, dirty=i % 4 == 3)
            read = pairs
        else:
            text = _fuzz_text(rng, CAPTURE_COLUMNS, dirty=i % 4 == 2)
            read = ingest
        path.write_bytes(text.encode("utf-8"))
        new = _outcome(read, path)
        with monkeypatch.context() as patch:
            patch.setattr(tableio, "read_table", _csv_read_table)
            old = _outcome(read, path)
        assert new == old, repr(text)
        accepted += new[0] == "ok"
        if read is pairs:   # and the column sets of the error-rate subcommands
            for columns in _PROJECTIONS:
                new = _outcome(projected, path, columns)
                with monkeypatch.context() as patch:
                    patch.setattr(tableio, "read_table", _csv_read_table)
                    old = _outcome(projected, path, columns)
                assert new == old, (repr(text), columns)
    assert accepted >= 10


def test_pipeline_tables_never_need_csv_reader(tmp_path, monkeypatch):
    rng = np.random.default_rng(12)
    captures = random_capture_table(rng, n_subjects=6)
    pairs = generate_genuine_pairs(captures)
    table = pairs.with_scores({"m1": rng.normal(size=len(pairs))})
    write_captures(captures, tmp_path / "captures.csv")
    write_pairs(table, tmp_path / "pairs.csv")

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", refuse)
    assert capture_rows(ingest_captures(tmp_path / "captures.csv").table) == \
        capture_rows(captures)
    back = read_pairs(tmp_path / "pairs.csv", "genuine", lambda: captures,
                      (*EVERY_COLUMN, "score_m1"))
    assert back.scores["m1"].tolist() == table.scores["m1"].tolist()

    quoted = tmp_path / "quoted.csv"
    quoted.write_text(",".join(CAPTURE_HEADER) + '\r\n"I0",S0,L,1,0,8,70,80,85,45,110\r\n',
                      encoding="utf-8")
    with pytest.raises(AssertionError, match="csv.reader called"):
        ingest_captures(quoted)
