import numpy as np
import pytest

from longmatch.core import DataError, dilation_constancy, dilation_ratio

from conftest import capture_table, make_capture, score_table


class TestDilationRatio:
    def test_direct_arithmetic(self):
        assert dilation_ratio(30.0, 100.0) == pytest.approx(0.30)
        assert dilation_ratio(50.0, 100.0) == pytest.approx(0.50)

    def test_near_boundary(self):
        assert dilation_ratio(99.0, 100.0) == pytest.approx(0.99)

    @pytest.mark.parametrize("pupil,iris", [(0.0, 10.0), (-1.0, 10.0),
                                            (10.0, 10.0), (11.0, 10.0),
                                            (5.0, 0.0)])
    def test_rejects_bad_radii(self, pupil, iris):
        with pytest.raises(ValueError):
            dilation_ratio(pupil, iris)

    def test_always_in_open_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            iris = rng.uniform(1e-3, 1e3)
            pupil = rng.uniform(1e-6, 1.0) * iris * 0.999
            d = dilation_ratio(pupil, iris)
            assert 0.0 < d < 1.0


class TestDilationConstancy:
    def test_identical_dilation(self):
        assert dilation_constancy(0.4, 0.4) == 1.0

    def test_examples(self):
        assert dilation_constancy(0.6, 0.3) == pytest.approx(0.7)
        assert dilation_constancy(1.0, 0.0) == 0.0

    @pytest.mark.parametrize("a,b", [(1.2, 0.5), (-0.1, 0.5), (0.5, 1.01)])
    def test_rejects_out_of_range(self, a, b):
        with pytest.raises(ValueError):
            dilation_constancy(a, b)

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            a, b = rng.uniform(0, 1, 2)
            assert dilation_constancy(a, b) == dilation_constancy(b, a)
            assert dilation_constancy(a, a) == 1.0
            assert 0.0 <= dilation_constancy(a, b) <= 1.0


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
        assert table.get("G0", "P0", "m2") == 0.0 and table.get("G1", "P0", "m1") == 2.5
        assert table.get("G1", "P0", "m2") is None
        with pytest.raises(ValueError):
            table.score[0] = 1.0

    def test_repeated_key_raises_naming_it(self):
        rows = [("G0", "P0", "m1", 1.0), ("G0", "P1", "m1", 2.0), ("G0", "P0", "m1", 3.0)]
        with pytest.raises(DataError, match=r"duplicate score row for \('G0', 'P0', 'm1'\)"):
            score_table(rows)

    def test_empty_table(self):
        table = score_table([])
        assert len(table) == 0 and table.get("G0", "P0", "m1") is None
