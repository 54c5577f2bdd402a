import numpy as np
import pytest

from longmatch.core import (
    JOINED_COLUMNS, MODEL_COLUMNS, PAIR_COLUMNS, ComparisonTable, DataError, MatcherProfile,
    encode,
)
from longmatch.pairing import generate_genuine_pairs

from conftest import capture_rows, capture_table, make_capture, score_table


def _ratios(*radii):
    """R_gallery, then R_probe of each later capture, of one subject's eye
    captured once per collection with the (pupil, iris) `radii` in turn."""
    table = capture_table([make_capture(f"I{i}", collection=i + 1, months=6 * i,
                                        pupil=pupil, iris=iris)
                           for i, (pupil, iris) in enumerate(radii)])
    pairs = generate_genuine_pairs(table)
    return [pairs.R_gallery[0], *pairs.R_probe.tolist()]


class TestDilationRatio:
    """The pupil-to-iris radius ratio of a genuine pair's two captures."""

    def test_direct_arithmetic(self):
        assert _ratios((30.0, 100.0), (50.0, 100.0)) == [pytest.approx(0.30),
                                                         pytest.approx(0.50)]

    def test_near_boundary(self):
        assert _ratios((45.0, 110.0), (99.0, 100.0))[1] == pytest.approx(0.99)

    @pytest.mark.parametrize("pupil,iris", [(0.0, 10.0), (-1.0, 10.0),
                                            (10.0, 10.0), (11.0, 10.0),
                                            (5.0, 0.0)])
    def test_rejects_bad_radii(self, pupil, iris):
        with pytest.raises(DataError, match="'dilation bounds'"):
            capture_table([make_capture("I0", pupil=pupil, iris=iris)])

    def test_always_in_open_unit_interval(self):
        rng = np.random.default_rng(1)
        radii = []
        for _ in range(200):
            iris = rng.uniform(1e-3, 1e3)
            radii.append((rng.uniform(1e-6, 1.0) * iris * 0.999, iris))
        ratios = np.array(_ratios(*radii))
        assert len(ratios) == 200 and np.all((0.0 < ratios) & (ratios < 1.0))


# (cells that differ from make_capture's, the rule the capture breaks, its detail)
BROKEN_RULES = [
    ({"eye": "X"}, "invalid eye", "eye='X'"),
    ({"collection": 0}, "collection index", "collection_index=0"),
    *(({key: bad}, "invalid number", f"{name}={bad}")
      for key, name in (("quality", "quality"), ("usable", "usable_area"),
                        ("circularity", "circularity"), ("pupil", "pupil_radius"),
                        ("iris", "iris_radius"))
      for bad in (np.nan, np.inf)),
    ({"pupil": 0.0}, "dilation bounds", "pupil_radius=0.0 iris_radius=110.0"),
    ({"pupil": 110.0}, "dilation bounds", "pupil_radius=110.0 iris_radius=110.0"),
    *(({key: bad}, "quality range", f"{name}={bad}")
      for key, name in (("quality", "quality"), ("usable", "usable_area"),
                        ("circularity", "circularity"))
      for bad in (-0.1, 100.5)),
]


class TestCaptureRules:
    @pytest.mark.parametrize("cells, reason, detail", BROKEN_RULES)
    def test_a_broken_rule_raises_naming_row_and_reason(self, cells, reason, detail):
        rows = [make_capture("I0"), make_capture("I1", **cells), make_capture("I2")]
        with pytest.raises(DataError) as caught:
            capture_table(rows)
        assert str(caught.value) == \
            f"capture row 2 (image_id 'I1') breaks the {reason!r} rule: {detail}"
        assert capture_rows(capture_table(rows[::2])) == rows[::2]

    def test_first_offending_row_is_named(self):
        # the first row at fault, and the first rule in CAPTURE_RULES order it breaks
        rows = [make_capture("I0"), make_capture("I1", quality=101.0, eye="X"),
                make_capture("I2", pupil=-3.0)]
        with pytest.raises(DataError, match=r"^capture row 2 \(image_id 'I1'\) breaks the "
                                            r"'invalid eye' rule: eye='X'$"):
            capture_table(rows)

    def test_values_at_the_limits_keep_the_rules(self):
        edge = make_capture("I0", eye="R", collection=1, quality=0.0, usable=100.0,
                            circularity=100.0, pupil=5e-324, iris=np.nextafter(5e-324, 1.0))
        assert capture_rows(capture_table([edge])) == [edge]


class TestCaptureTable:
    def test_columns_order_and_row_join(self):
        table = capture_table([
            make_capture("I3", subject="S002", eye="L", collection=1),
            make_capture("I1", subject="S001", eye="R", collection=1),
            make_capture("I0", subject="S001", eye="L", collection=2, months=6),
            make_capture("I2", subject="S001", eye="L", collection=1),
            make_capture("I3", subject="S000"),
        ])
        assert len(table) == 5
        assert table.image_id.dtype == object and table.age_years.dtype == np.int64
        assert table.iris_radius.dtype == np.float64
        assert table.image_id[table.order()].tolist() == ["I3", "I2", "I0", "I1", "I3"]
        assert table.subject_id[table.order()][0] == "S000"
        # the first row of a repeated id; -1 for an unknown one
        assert table.rows(["I0", "I3", "nope"]).tolist() == [2, 0, -1]
        with pytest.raises(ValueError):
            table.quality[0] = 1.0

    def test_order_is_a_stable_sort_of_the_canonical_keys(self):
        # the sorted() of the keys as Python objects is the oracle: ties, ids
        # that repeat and int64 extremes keep file order among equal keys
        rng = np.random.default_rng(3)
        for _ in range(30):
            table = capture_table([
                make_capture(f"I{rng.integers(4)}", subject=f"S{rng.integers(3)}",
                             eye=("L", "R")[rng.integers(2)],
                             collection=int(rng.choice([1, 2, 2**63 - 1])),
                             months=int(rng.choice([-2**63, -1, 0, 6, 2**63 - 1])))
                for _ in range(int(rng.integers(0, 60)))])
            keys = list(zip(table.subject_id, table.eye, table.collection_index.tolist(),
                            table.capture_time_months.tolist(), table.image_id))
            assert table.order().tolist() == sorted(range(len(table)), key=keys.__getitem__)

    def test_empty_table(self):
        table = capture_table([])
        assert len(table) == 0
        assert table.order().tolist() == [] and table.rows([]).tolist() == []


class TestScoreTable:
    def test_columns_and_lookup(self):
        table = score_table([("G0", "P0", "m1", 1.5), ("G0", "P0", "m2", -0.0),
                             ("G1", "P0", "m1", 2.5)])
        assert len(table) == 3
        assert table.matcher.dtype == object and table.score.dtype == np.float64
        rows = table.rows(["G0", "G1"], ["P0", "P0"], "m2")
        assert rows.tolist() == [1, -1] and table.score[rows[0]] == 0.0
        rows = table.rows(["G1", "G0"], ["P0", "P0"], "m1")
        assert rows.tolist() == [2, 0] and table.score[rows[0]] == 2.5
        assert table.rows([], [], "m1").tolist() == []
        with pytest.raises(ValueError):
            table.score[0] = 1.0

    def test_repeated_key_raises_naming_it(self):
        rows = [("G0", "P0", "m1", 1.0), ("G0", "P1", "m1", 2.0), ("G0", "P0", "m1", 3.0)]
        with pytest.raises(DataError, match=r"duplicate score row for \('G0', 'P0', 'm1'\)"):
            score_table(rows)

    def test_empty_table(self):
        table = score_table([])
        assert len(table) == 0 and table.rows(["G0"], ["P0"], "m1").tolist() == [-1]


TABLE_COLUMNS = {**PAIR_COLUMNS, **JOINED_COLUMNS}


def scored_pairs():
    """Six genuine pairs of two subjects with scores for matchers m1 and m2."""
    table = generate_genuine_pairs(capture_table([
        make_capture("G0", subject="S001", collection=1, months=0, age=6, pupil=40.0),
        make_capture("P0", subject="S001", collection=2, months=6, age=6),
        make_capture("P1", subject="S001", collection=3, months=18, age=7, pupil=50.0),
        make_capture("G1", subject="S002", collection=1, months=0, age=9),
        make_capture("P2", subject="S002", collection=2, months=12, age=10),
        make_capture("P3", subject="S002", collection=3, months=24, age=11, quality=60.0),
    ]))
    n = len(table)
    return table.with_scores({"m1": np.arange(n, dtype=float), "m2": -np.arange(n, dtype=float)})


class TestComparisonTable:
    def test_schema_columns_with_their_dtypes(self):
        table = scored_pairs()
        assert len(table) == 4 and table.matchers == ("m1", "m2")
        for name, dtype in TABLE_COLUMNS.items():
            assert getattr(table, name).dtype == dtype, name
        assert table.gap_T_months.tolist() == [6, 18, 12, 24]
        assert table.delta_age_years.tolist() == [0, 1, 1, 2]
        assert table.A_probe.tolist() == [6.0, 7.0, 10.0, 11.0]

    def test_every_column_and_score_refuses_writes(self):
        table = scored_pairs()
        for name in TABLE_COLUMNS:
            with pytest.raises(ValueError):
                getattr(table, name)[0] = getattr(table, name)[1]
        with pytest.raises(ValueError):
            table.scores["m1"][0] = 1.0
        with pytest.raises(TypeError):
            table.scores["m1"] = np.zeros(len(table))
        with pytest.raises(TypeError):
            table.scores["m3"] = np.zeros(len(table))

    def test_wrong_length_or_unknown_column_raises(self):
        table = scored_pairs()
        columns = {name: getattr(table, name) for name in TABLE_COLUMNS}
        with pytest.raises(ValueError, match="column length mismatch"):
            ComparisonTable(**{**columns, "Q_gallery": np.zeros(3)}, scores={})
        with pytest.raises(ValueError, match="column length mismatch"):
            ComparisonTable(**{**columns, "kind": columns["kind"][:3]}, scores={})
        with pytest.raises(ValueError, match="column length mismatch"):
            ComparisonTable(**columns, scores={"m1": np.zeros(3)})
        with pytest.raises(TypeError, match="gap_t"):
            ComparisonTable(**columns, gap_t=columns["gap_T_months"], scores={})

    def test_select_with_scores_and_concat_keep_schema_and_order(self):
        table = scored_pairs()
        picked = table.select(np.array([3, 0]))
        masked = table.select(np.array([False, True, True, False]))
        rescored = table.with_scores({"m9": np.ones(len(table))})
        joined = ComparisonTable.concat([masked, rescored])
        for name in TABLE_COLUMNS:
            column = getattr(table, name)
            assert getattr(picked, name).tolist() == column[[3, 0]].tolist(), name
            assert getattr(masked, name).tolist() == column[1:3].tolist(), name
            assert getattr(rescored, name).tolist() == column.tolist(), name
            assert getattr(joined, name).tolist() == column[1:3].tolist() + column.tolist()
        assert picked.scores["m2"].tolist() == [-3.0, -0.0]
        assert rescored.matchers == ("m9",)
        # NaN only where a table lacks the matcher
        assert joined.matchers == ("m1", "m2", "m9")
        np.testing.assert_array_equal(joined.scores["m1"], [1.0, 2.0] + [np.nan] * 4)
        np.testing.assert_array_equal(joined.scores["m9"], [np.nan] * 2 + [1.0] * 4)

    def test_a_table_holds_the_columns_it_is_given(self):
        table = scored_pairs()
        assert table.columns == tuple(TABLE_COLUMNS)
        part = ComparisonTable(kind=table.kind, DC=table.DC, scores={"m1": table.scores["m1"]})
        assert part.columns == ("kind", "DC")
        picked = part.select(np.array([2, 0]))
        joined = ComparisonTable.concat([part, picked.with_scores({"m9": np.ones(2)})])
        for t in (picked, joined):
            assert t.columns == ("kind", "DC")
        assert joined.DC.tolist() == [*table.DC, table.DC[2], table.DC[0]]
        assert part.column("DC") is part.DC
        for read in (lambda t: t.gap_T_months, lambda t: t.column("T"),
                     lambda t: ComparisonTable.concat([t, table]).eye):
            with pytest.raises(AttributeError):
                read(part)
        with pytest.raises(AttributeError, match="'gallery_subject'"):
            part.gallery_subject
        with pytest.raises(TypeError, match="kind"):
            ComparisonTable(DC=table.DC, scores={})

    def test_concat_keeps_the_columns_every_table_holds_in_schema_order(self):
        table = scored_pairs()
        # a table of some key columns, a subject and an age, and no covariates
        keys = ComparisonTable(**{name: getattr(table, name) for name in (
            "probe_subject", "gap_T_months", "kind", "gallery_image_id", "A_gallery")},
            scores={"m2": np.ones(len(table))})
        rows = ComparisonTable(kind=table.kind, DC=table.DC, A_gallery=table.A_gallery,
                               scores={})
        common = ("kind", "gallery_image_id", "gap_T_months", "probe_subject", "A_gallery")
        for tables, columns in (([table, keys], common), ([keys, table], common),
                                ([rows, table, keys], ("kind", "A_gallery"))):
            joined = ComparisonTable.concat(tables)
            assert joined.columns == columns
            for name in columns:
                assert getattr(joined, name).tolist() == \
                    [v for t in tables for v in getattr(t, name).tolist()], name
        np.testing.assert_array_equal(ComparisonTable.concat([keys, table]).scores["m2"],
                                      [1.0] * 4 + [-0.0, -1.0, -2.0, -3.0])

    def test_column_names(self):
        table = scored_pairs()
        for name in ("T", "gap_T_months"):
            column = table.column(name)
            assert column.dtype == np.float64 and column.tolist() == [6.0, 18.0, 12.0, 24.0]
        assert table.column("delta_A").tolist() == table.column("delta_age_years").tolist()
        assert table.column("DC") is table.DC
        assert table.column("m2") is table.scores["m2"]
        # the one numeric-column rule: each numeric column by its name, and the aliases
        assert set(MODEL_COLUMNS) == {"T", "delta_A", *(
            name for name, dtype in TABLE_COLUMNS.items() if dtype is not object)}
        for name, column in MODEL_COLUMNS.items():
            assert table.column(name).tolist() == getattr(table, column).tolist(), name
        for name in ("kind", "eye", "gallery_image_id", "probe_image_id",
                     "gallery_subject", "probe_subject", "m3"):
            with pytest.raises(KeyError):
                table.column(name)

    @pytest.mark.parametrize("name", ["DC", "T", "delta_A", "gap_T_months", "A_gallery", "eye"])
    def test_matcher_may_not_take_a_pair_column_name(self, name):
        with pytest.raises(ValueError, match="pair-table column name"):
            MatcherProfile(name, "higher", 0.0, 1.0, 0.5)

    @pytest.mark.parametrize("name", ["summary", ".", "..", "a/b", "a\\b", "/abs"])
    def test_matcher_name_must_be_a_safe_file_stem(self, name):
        with pytest.raises(ValueError, match="cannot name its output files"):
            MatcherProfile(name, "higher", 0.0, 1.0, 0.5)
        for ok in ("det_x", "v1.2", "summary2"):
            MatcherProfile(ok, "higher", 0.0, 1.0, 0.5)


def _fuzzed_columns():
    """Object columns of subject-like ids: empty, one value, repeats, ids that
    sort apart from their code points' lengths, and non-ASCII ids."""
    rng = np.random.default_rng(31)
    yield np.array([], dtype=object)
    yield np.array(["S1"], dtype=object)
    yield np.array(["S1"] * 7, dtype=object)
    yield np.array(["b", "a", "b", "", "ab", "a", "B"], dtype=object)
    yield np.array(["Ünal", "zoë", "Zoe", "ß", "儿童-7", "S\u00e9", "Se\u0301", "ß"], dtype=object)
    alphabet = list("AaZz09-_éß儿")
    for size in (1, 2, 50, 2000):
        pool = ["".join(rng.choice(alphabet, rng.integers(0, 5))) for _ in range(max(1, size // 4))]
        yield np.array(rng.choice(np.array(pool, dtype=object), size), dtype=object)


@pytest.mark.parametrize("values", _fuzzed_columns(), ids=[
    "empty", "one-row", "one-value", "ascii-order", "non-ascii",
    *(f"fuzzed-{size}" for size in (1, 2, 50, 2000))])
def test_encode_equals_np_unique_inverse(values):
    ids, codes = encode(values)
    want_ids, want_codes = np.unique(values, return_inverse=True)
    assert ids.dtype == object and codes.dtype == np.int64
    assert ids.tolist() == want_ids.tolist()
    assert codes.tolist() == want_codes.ravel().tolist()
    assert ids[codes].tolist() == values.tolist()
