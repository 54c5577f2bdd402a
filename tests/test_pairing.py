import numpy as np
import pytest

from longmatch.core import (
    GENUINE, IMPOSTOR, ComparisonTable, DataError, MatcherProfile, ScoreRangeError,
)
from longmatch.pairing import (
    PairingConfig, attach_scores, generate_genuine_pairs,
    generate_impostor_pairs,
)
from longmatch.tableio import ScoreTable

from conftest import capture_rows, capture_table, make_capture, random_capture_table


def _pair_keys(table):
    return list(zip(table.gallery_image_id, table.probe_image_id))


class TestGenuinePairs:
    def test_single_collection_contributes_nothing(self):
        table = capture_table([make_capture("I0"), make_capture("I1")])
        assert len(generate_genuine_pairs(table)) == 0

    def test_two_galleries_three_probes(self):
        recs = [
            make_capture("G0", collection=1, months=0),
            make_capture("G1", collection=1, months=0),
            make_capture("P0", collection=2, months=6),
            make_capture("P1", collection=2, months=6),
            make_capture("P2", collection=3, months=12),
        ]
        pairs = generate_genuine_pairs(capture_table(recs))
        assert len(pairs) == 6
        assert set(pairs.gallery_image_id) == {"G0", "G1"}
        assert set(pairs.probe_image_id) == {"P0", "P1", "P2"}
        assert np.all(pairs.kind == GENUINE) and np.all(pairs.gap_t > 0)

    def test_count_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            table = random_capture_table(rng, n_subjects=12, n_collections=5)
            assert len(table) <= 200
            pairs = generate_genuine_pairs(table)

            rows = capture_rows(table)
            expected = set()
            for g in rows:
                first = min(r["collection_index"] for r in rows
                            if r["subject_id"] == g["subject_id"])
                if g["collection_index"] != first:
                    continue
                for p in rows:
                    if (p["subject_id"] == g["subject_id"] and p["eye"] == g["eye"]
                            and p["collection_index"] > first):
                        expected.add((g["image_id"], p["image_id"]))
            assert set(_pair_keys(pairs)) == expected
            assert len(pairs) == len(expected)

    def test_eye_missing_from_first_collection_contributes_nothing(self):
        recs = [
            make_capture("I0", eye="L", collection=1, months=0),
            make_capture("I1", eye="R", collection=2, months=6),
            make_capture("I2", eye="R", collection=3, months=12),
        ]
        pairs = generate_genuine_pairs(capture_table(recs))
        # right eye absent from the first attended collection: no right pairs
        assert len(pairs) == 0


class TestImpostorPairs:
    def test_small_pool_saturates(self):
        recs = [make_capture("I0", subject="S000")]
        recs += [make_capture(f"I{i}", subject=f"S{i:03d}") for i in range(1, 5)]
        pairs = generate_impostor_pairs(capture_table(recs), PairingConfig(base_seed=1))
        from_first = [pid for gid, pid in _pair_keys(pairs) if gid == "I0"]
        assert len(from_first) == 4
        assert set(from_first) == {"I1", "I2", "I3", "I4"}

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(12)
        table = random_capture_table(rng, n_subjects=10)
        cfg = PairingConfig(max_impostor_probes=5, base_seed=777)
        a = generate_impostor_pairs(table, cfg)
        b = generate_impostor_pairs(table, cfg)
        assert _pair_keys(a) == _pair_keys(b)

    def test_exhaustive_membership_three_subjects(self):
        recs = []
        for s in range(3):
            for i in range(2):
                recs.append(make_capture(f"I{s}{i}", subject=f"S{s:03d}",
                                         collection=i + 1, months=6 * i))
        pairs = generate_impostor_pairs(capture_table(recs),
                                        PairingConfig(max_impostor_probes=2,
                                                      base_seed=3))
        assert len(pairs) == 12   # 6 gallery rows x 2 probes
        for kind, gallery_subject, probe_subject, eye in zip(
                pairs.kind, pairs.gallery_subject, pairs.probe_subject, pairs.eye):
            assert kind == IMPOSTOR
            assert gallery_subject != probe_subject
            assert eye == "L"
        by_gallery = {}
        for gid, pid in _pair_keys(pairs):
            by_gallery.setdefault(gid, []).append(pid)
        for gid, probes in by_gallery.items():
            assert len(probes) == len(set(probes)) == 2

    def test_append_after_leaves_earlier_draws_unchanged(self):
        rng = np.random.default_rng(13)
        base = random_capture_table(rng, n_subjects=8)
        cfg = PairingConfig(max_impostor_probes=4, base_seed=99)
        before = generate_impostor_pairs(base, cfg)
        before = before.select(before.eye == "L")

        # appended subject sorts after every existing one and has only
        # right-eye images, so no left-eye pool changes
        extra = [make_capture(f"X{i}", subject="Zzz", eye="R", collection=i + 1,
                              months=6 * i) for i in range(3)]
        extended = capture_table(capture_rows(base) + extra)
        after = generate_impostor_pairs(extended, cfg)
        after = after.select(after.eye == "L")
        assert _pair_keys(before) == _pair_keys(after)

    def test_independent_of_ingestion_order(self):
        rng = np.random.default_rng(14)
        table = random_capture_table(rng, n_subjects=9)
        shuffled_rows = capture_rows(table)
        rng.shuffle(shuffled_rows)
        cfg = PairingConfig(max_impostor_probes=3, base_seed=5)
        a = generate_impostor_pairs(table, cfg)
        b = generate_impostor_pairs(capture_table(shuffled_rows), cfg)
        assert _pair_keys(a) == _pair_keys(b)

    def test_protocol_invariants(self):
        rng = np.random.default_rng(15)
        table = random_capture_table(rng, n_subjects=10)
        genuine = generate_genuine_pairs(table)
        impostor = generate_impostor_pairs(table, PairingConfig(base_seed=2))
        assert np.all(genuine.gap_t > 0)
        assert np.all(impostor.gallery_subject != impostor.probe_subject)
        by_id = {r["image_id"]: r for r in capture_rows(table)}
        for gid, pid in _pair_keys(ComparisonTable.concat([genuine, impostor])):
            assert by_id[gid]["eye"] == by_id[pid]["eye"]


class TestAttachScores:
    def _fixture(self):
        rng = np.random.default_rng(16)
        table = random_capture_table(rng, n_subjects=6)
        pairs = generate_genuine_pairs(table)
        assert len(pairs) > 0
        profile = MatcherProfile("m1", "higher", 0.0, 100.0, 50.0)
        scores = ScoreTable()
        for gid, pid in _pair_keys(pairs):
            scores.add(gid, pid, "m1", float(rng.uniform(1, 99)))
        return pairs, profile, scores

    def test_all_present_zero_incomplete(self):
        pairs, profile, scores = self._fixture()
        result = attach_scores(pairs, scores, [profile])
        assert result.incomplete == ()
        assert len(result.table) == len(pairs)

    def test_missing_cell_flags_pair(self):
        pairs, profile, scores = self._fixture()
        dropped = ScoreTable()
        skip = _pair_keys(pairs)[0]
        for gid, pid, matcher, score in scores:
            if (gid, pid) != skip:
                dropped.add(gid, pid, matcher, score)
        result = attach_scores(pairs, dropped, [profile])
        assert len(result.incomplete) == 1
        assert result.incomplete[0].gallery_image_id == skip[0]
        assert result.incomplete[0].missing_matchers == ("m1",)
        assert len(result.table) == len(pairs) - 1

    def test_out_of_range_score_raises(self):
        pairs, _, scores = self._fixture()
        hamming = MatcherProfile("m1", "lower", 0.0, 1.0, 0.42)
        with pytest.raises(ScoreRangeError, match="outside"):
            attach_scores(pairs, scores, [hamming])


class TestPreservedErrors:
    @pytest.mark.parametrize("pupil, iris, message", [
        (0.0, 110.0, "radii must be positive"),
        (45.0, -1.0, "radii must be positive"),
        (120.0, 110.0, "must be smaller than iris radius"),
    ])
    def test_bad_radii_raise_value_error(self, pupil, iris, message):
        recs = [
            make_capture("G0", collection=1, months=0),
            make_capture("P0", collection=2, months=6, pupil=pupil, iris=iris),
            make_capture("I0", subject="S002"),
        ]
        table = capture_table(recs)
        with pytest.raises(ValueError, match=message):
            generate_genuine_pairs(table)
        with pytest.raises(ValueError, match=message):
            generate_impostor_pairs(table, PairingConfig(base_seed=1))

    def test_first_offending_pair_is_named(self):
        recs = [
            make_capture("G0", collection=1, months=0),
            make_capture("P0", collection=2, months=6, pupil=-3.0),
            make_capture("P1", collection=3, months=12, pupil=-7.0),
        ]
        with pytest.raises(ValueError, match=r"\(-3\.0, 110\.0\)"):
            generate_genuine_pairs(capture_table(recs))

    def test_capture_in_no_pair_is_not_checked(self):
        # a subject with one collection forms no genuine pair
        recs = [make_capture("G0", collection=1, months=0),
                make_capture("P0", collection=2, months=6),
                make_capture("X0", subject="S002", pupil=0.0)]
        pairs = generate_genuine_pairs(capture_table(recs))
        assert _pair_keys(pairs) == [("G0", "P0")]

    def test_later_collection_not_later_in_time_raises_data_error(self):
        recs = [
            make_capture("G0", collection=1, months=6),
            make_capture("P0", collection=2, months=12),
            make_capture("P1", collection=3, months=6),
            make_capture("P2", collection=4, months=0),
        ]
        with pytest.raises(DataError, match="probe P1 in a later collection than "
                                            "gallery G0 but not later in time"):
            generate_genuine_pairs(capture_table(recs))

    def test_time_order_is_checked_before_radii(self):
        recs = [make_capture("G0", collection=1, months=6),
                make_capture("P0", collection=2, months=6, pupil=0.0)]
        with pytest.raises(DataError, match="probe P0"):
            generate_genuine_pairs(capture_table(recs))


class TestUnscoredTable:
    def test_pairing_returns_unscored_tables(self):
        rng = np.random.default_rng(17)
        table = random_capture_table(rng, n_subjects=6)
        by_id = {r["image_id"]: r for r in capture_rows(table)}
        for pairs in (generate_genuine_pairs(table),
                      generate_impostor_pairs(table, PairingConfig(base_seed=4))):
            assert isinstance(pairs, ComparisonTable)
            assert pairs.matchers == ()
            for i, (gid, pid) in enumerate(_pair_keys(pairs)):
                g, p = by_id[gid], by_id[pid]
                d_g = g["pupil_radius"] / g["iris_radius"]
                d_p = p["pupil_radius"] / p["iris_radius"]
                assert pairs.dc[i] == 1.0 - abs(d_g - d_p)
                assert pairs.covariates["Q_probe"][i] == p["quality"]
                assert pairs.covariates["A_gallery"][i] == float(g["age_years"])
                assert pairs.delta_age[i] == p["age_years"] - g["age_years"]

    def test_attach_keeps_profile_order_and_pair_order(self):
        recs = [make_capture("G0", collection=1, months=0),
                make_capture("P0", collection=2, months=6),
                make_capture("P1", collection=3, months=12),
                make_capture("P2", collection=4, months=18)]
        pairs = generate_genuine_pairs(capture_table(recs))
        scores = ScoreTable()
        scores.add("G0", "P0", "zeta", 1.0)
        scores.add("G0", "P0", "alpha", 2.0)
        scores.add("G0", "P2", "zeta", 3.0)
        profiles = [MatcherProfile("zeta", "higher", 0.0, 10.0, 5.0),
                    MatcherProfile("alpha", "higher", 0.0, 10.0, 5.0)]
        result = attach_scores(pairs, scores, profiles)
        assert result.table.matchers == ("zeta", "alpha")
        assert _pair_keys(result.table) == [("G0", "P0")]
        assert result.table.scores["alpha"].tolist() == [2.0]
        assert [(p.probe_image_id, p.missing_matchers) for p in result.incomplete] == [
            ("P1", ("zeta", "alpha")), ("P2", ("alpha",))]

    def test_nan_score_raises_for_first_pair(self):
        recs = [make_capture("G0", collection=1, months=0),
                make_capture("P0", collection=2, months=6),
                make_capture("P1", collection=3, months=12)]
        pairs = generate_genuine_pairs(capture_table(recs))
        scores = ScoreTable()
        scores.add("G0", "P0", "m1", float("nan"))
        scores.add("G0", "P1", "m1", 500.0)
        profile = MatcherProfile("m1", "higher", 0.0, 100.0, 50.0)
        with pytest.raises(ScoreRangeError, match=r"score nan .* \(G0, P0\)"):
            attach_scores(pairs, scores, [profile])
