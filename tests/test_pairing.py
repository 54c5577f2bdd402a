import numpy as np
import pytest

from longmatch.core import (
    GENUINE, IMPOSTOR, JOINED_COLUMNS, PAIR_COLUMNS, SCORE_COLUMNS, ComparisonTable,
    DataError, MatcherProfile, ScoreRangeError, ScoreTable,
)
from longmatch.pairing import (
    AttachResult, IncompletePair, PairingConfig, _pair_table, attach_scores,
    generate_genuine_pairs, generate_impostor_pairs,
)
from longmatch.rng import sample_indices
from longmatch.synth import SynthConfig, generate_longitudinal

from conftest import (
    capture_rows, capture_table, make_capture, random_capture_table, score_table,
)


TABLE_COLUMNS = {**PAIR_COLUMNS, **JOINED_COLUMNS}
# the columns derived from the captures besides the gap, which only genuine tables hold
COVARIATE_COLUMNS = tuple(JOINED_COLUMNS)
# an impostor table holds exactly its file's columns
IMPOSTOR_COLUMNS = ("kind", "eye", "gallery_image_id", "probe_image_id", "gap_T_months")


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
        assert np.all(pairs.kind == GENUINE) and np.all(pairs.gap_T_months > 0)

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
        subject = {r["image_id"]: r["subject_id"] for r in recs}
        for kind, gid, pid, eye in zip(pairs.kind, pairs.gallery_image_id,
                                       pairs.probe_image_id, pairs.eye):
            assert kind == IMPOSTOR
            assert subject[gid] != subject[pid]
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
        # capture covariates on genuine pairs only
        assert genuine.columns == tuple(TABLE_COLUMNS)
        assert impostor.columns == IMPOSTOR_COLUMNS
        for name in COVARIATE_COLUMNS:
            with pytest.raises(AttributeError, match=name):
                getattr(impostor, name)
        assert np.all(genuine.gap_T_months > 0)
        by_id = {r["image_id"]: r for r in capture_rows(table)}
        for gid, pid in _pair_keys(impostor):
            assert by_id[gid]["subject_id"] != by_id[pid]["subject_id"]
        for gid, pid in _pair_keys(ComparisonTable.concat([genuine, impostor])):
            assert by_id[gid]["eye"] == by_id[pid]["eye"]


class TestAttachScores:
    def _fixture(self):
        rng = np.random.default_rng(16)
        table = random_capture_table(rng, n_subjects=6)
        pairs = generate_genuine_pairs(table)
        assert len(pairs) > 0
        profile = MatcherProfile("m1", "higher", 0.0, 100.0, 50.0)
        scores = score_table([(gid, pid, "m1", float(rng.uniform(1, 99)))
                              for gid, pid in _pair_keys(pairs)])
        return pairs, profile, scores

    def test_all_present_zero_incomplete(self):
        pairs, profile, scores = self._fixture()
        result = attach_scores(pairs, scores, [profile])
        assert result.incomplete == ()
        assert len(result.table) == len(pairs)

    def test_missing_cell_flags_pair(self):
        pairs, profile, scores = self._fixture()
        skip = _pair_keys(pairs)[0]
        keep = (scores.gallery_image_id != skip[0]) | (scores.probe_image_id != skip[1])
        dropped = ScoreTable(**{name: getattr(scores, name)[keep] for name in SCORE_COLUMNS})
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

    def test_genuine_difference_past_int64_raises_data_error(self):
        # 2**63 - 1 minus -2**63 wraps to -1, which read as "not later in time"
        recs = [make_capture("G0", collection=1, months=-2**63),
                make_capture("P0", collection=2, months=2**63 - 1),
                make_capture("G1", subject="S002", collection=1, age=-2**63),
                make_capture("P1", subject="S002", collection=2, months=6, age=2**63 - 1)]
        with pytest.raises(DataError, match="the capture_time_months difference of gallery "
                                            "G0 and probe P0 does not fit in int64"):
            generate_genuine_pairs(capture_table(recs[:2]))
        with pytest.raises(DataError, match="the age_years difference of gallery G1 and "
                                            "probe P1 does not fit in int64"):
            generate_genuine_pairs(capture_table(recs[2:]))

    def test_time_fault_is_named_before_an_age_wrap(self):
        # the gaps are checked before the capture join finds the age difference
        # of the first pair, G0 -> P0, past int64
        recs = [make_capture("G0", collection=1, months=6, age=-2**63),
                make_capture("P0", collection=2, months=12, age=2**63 - 1),
                make_capture("P1", collection=3, months=6)]
        with pytest.raises(DataError, match="probe P1 in a later collection than "
                                            "gallery G0 but not later in time"):
            generate_genuine_pairs(capture_table(recs))
        with pytest.raises(DataError, match="the age_years difference of gallery G0 and "
                                            "probe P0 does not fit in int64"):
            generate_genuine_pairs(capture_table(recs[:2]))

    def test_impostor_difference_past_int64_raises_data_error(self):
        # the true gaps are 2**63 and 2**63 + 6: one wraps, one's absolute value
        # does not fit
        recs = [make_capture("A0", subject="S1", collection=1, months=0),
                make_capture("A1", subject="S1", collection=2, months=6),
                make_capture("B0", subject="S2", collection=1, months=-2**63),
                make_capture("B1", subject="S2", collection=2, months=-2**63 + 6)]
        with pytest.raises(DataError, match="the capture_time_months difference of gallery "
                                            "A0 and probe B0 does not fit in int64"):
            generate_impostor_pairs(capture_table(recs), PairingConfig(base_seed=1))
        # every difference in range: the extreme gaps are kept exactly
        recs[2]["capture_time_months"] = -2**63 + 7
        pairs = generate_impostor_pairs(capture_table(recs[:3]), PairingConfig(base_seed=1))
        assert sorted(pairs.gap_T_months.tolist()) == [2**63 - 7] * 2 + [2**63 - 1] * 2

    def test_impostor_age_difference_past_int64_is_not_judged(self):
        # an impostor table holds no age difference, so one past int64 is no fault
        ages = {"A": -(2**62 + 1), "B": 2**62}
        recs = [make_capture(f"{s}{c}", subject=s, collection=c + 1, months=6 * c, age=age)
                for s, age in ages.items() for c in range(2)]
        assert len(generate_genuine_pairs(capture_table(recs))) == 2
        pairs = generate_impostor_pairs(capture_table(recs), PairingConfig(base_seed=1))
        assert pairs.columns == IMPOSTOR_COLUMNS
        assert sorted(_pair_keys(pairs)) == [(f"{a}{i}", f"{b}{j}") for a, b in ("AB", "BA")
                                             for i in range(2) for j in range(2)]


class TestUnscoredTable:
    def test_pairing_returns_unscored_tables(self):
        rng = np.random.default_rng(17)
        table = random_capture_table(rng, n_subjects=6)
        by_id = {r["image_id"]: r for r in capture_rows(table)}
        impostor = generate_impostor_pairs(table, PairingConfig(base_seed=4))
        for kind, pairs in ((GENUINE, generate_genuine_pairs(table)), (IMPOSTOR, impostor)):
            assert isinstance(pairs, ComparisonTable)
            assert pairs.matchers == ()
            # only genuine tables hold the capture covariates
            held = set(COVARIATE_COLUMNS) & set(pairs.columns)
            assert held == (set(COVARIATE_COLUMNS) if kind == GENUINE else set())
            for i, (gid, pid) in enumerate(_pair_keys(pairs)):
                g, p = by_id[gid], by_id[pid]
                if kind == IMPOSTOR:
                    continue
                assert pairs.A_gallery[i] == float(g["age_years"])
                d_g = g["pupil_radius"] / g["iris_radius"]
                d_p = p["pupil_radius"] / p["iris_radius"]
                assert pairs.DC[i] == 1.0 - abs(d_g - d_p)
                assert pairs.Q_probe[i] == p["quality"]
                assert pairs.delta_age_years[i] == p["age_years"] - g["age_years"]

    def test_attach_keeps_profile_order_and_pair_order(self):
        recs = [make_capture("G0", collection=1, months=0),
                make_capture("P0", collection=2, months=6),
                make_capture("P1", collection=3, months=12),
                make_capture("P2", collection=4, months=18)]
        pairs = generate_genuine_pairs(capture_table(recs))
        scores = score_table([("G0", "P0", "zeta", 1.0), ("G0", "P0", "alpha", 2.0),
                              ("G0", "P2", "zeta", 3.0)])
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
        scores = score_table([("G0", "P0", "m1", float("nan")), ("G0", "P1", "m1", 500.0)])
        profile = MatcherProfile("m1", "higher", 0.0, 100.0, 50.0)
        with pytest.raises(ScoreRangeError, match=r"score nan .* \(G0, P0\)"):
            attach_scores(pairs, scores, [profile])


def _attach_scores_loop(pairs, scores, profiles):
    """The oracle: the per-pair join loop `attach_scores` replaced, over a
    (gallery, probe, matcher) -> score dict of `scores`."""
    lookup = dict(zip(zip(scores.gallery_image_id.tolist(), scores.probe_image_id.tolist(),
                          scores.matcher.tolist()), scores.score.tolist()))
    n = len(pairs)
    columns = {profile.name: np.empty(n) for profile in profiles}
    complete = np.ones(n, dtype=bool)
    incomplete = []
    for i, (gallery, probe) in enumerate(zip(pairs.gallery_image_id, pairs.probe_image_id)):
        missing = []
        for profile in profiles:
            value = lookup.get((gallery, probe, profile.name))
            if value is None:
                missing.append(profile.name)
                continue
            if not (profile.score_min <= value <= profile.score_max):
                raise ScoreRangeError(
                    f"score {value} for matcher {profile.name!r} on pair "
                    f"({gallery}, {probe}) outside "
                    f"[{profile.score_min}, {profile.score_max}]")
            columns[profile.name][i] = value
        if missing:
            complete[i] = False
            incomplete.append(IncompletePair(gallery, probe, tuple(missing)))
    table = pairs.select(complete).with_scores(
        {name: col[complete] for name, col in columns.items()})
    return AttachResult(table, tuple(incomplete))


def _join_outcome(join, pairs, scores, profiles):
    """The table columns (as bit patterns) and incomplete list `join` gives,
    or the text of the ScoreRangeError it raises."""
    try:
        result = join(pairs, scores, profiles)
    except ScoreRangeError as exc:
        return str(exc)
    table = result.table
    columns = {name: getattr(table, name) for name in table.columns}
    columns.update({f"score_{m}": values for m, values in table.scores.items()})
    return ({name: (values.view(np.uint64) if values.dtype == np.float64 else values).tolist()
             for name, values in columns.items()}, table.matchers, result.incomplete)


def _fuzzed_scores(rng, pairs, profiles):
    """A shuffled score table for `pairs` with keys dropped, NaN and
    out-of-range scores at random positions, and keys of no pair."""
    p_drop, p_nan, p_out = rng.choice([0.0, 0.02, 0.3]), rng.choice([0.0, 0.002]), \
        rng.choice([0.0, 0.001, 0.01])
    rows = []
    for gallery, probe in _pair_keys(pairs):
        for profile in profiles:
            u = rng.uniform()
            if u < p_drop:
                continue
            value = float(rng.uniform(profile.score_min, profile.score_max))
            if u > 1.0 - p_nan:
                value = float("nan")
            elif u > 1.0 - p_nan - p_out:
                value = profile.score_max + 1.0 if rng.uniform() < 0.5 else profile.score_min - 0.5
            rows.append((gallery, probe, profile.name, value))
    rows += [(f"X{i}", "I00000", profiles[0].name, 1.0) for i in range(3)]
    return score_table([rows[i] for i in rng.permutation(len(rows))])


def test_join_matches_per_pair_loop_on_fuzzed_scores():
    profiles = [MatcherProfile("m1", "higher", 0.0, 100.0, 50.0),
                MatcherProfile("m2", "lower", -1.0, 1.0, 0.0),
                MatcherProfile("m3", "higher", -5.0, 5.0, 0.0)]
    outcomes = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        captures = random_capture_table(rng, n_subjects=int(rng.integers(2, 9)))
        for pairs in (generate_genuine_pairs(captures),
                      generate_impostor_pairs(captures, PairingConfig(3, seed))):
            used = profiles[:int(rng.integers(1, 4))]
            scores = _fuzzed_scores(rng, pairs, used)
            expected = _join_outcome(_attach_scores_loop, pairs, scores, used)
            assert _join_outcome(attach_scores, pairs, scores, used) == expected
            outcomes.append(expected)
    raised = [o for o in outcomes if isinstance(o, str)]
    assert raised and any("score nan" in o for o in raised)
    assert any(not isinstance(o, str) and o[2] for o in outcomes)
    assert any(not isinstance(o, str) and not o[2] for o in outcomes)


def test_join_raises_past_a_missing_matcher_of_the_same_pair():
    recs = [make_capture("G0", collection=1, months=0),
            make_capture("P0", collection=2, months=6),
            make_capture("P1", collection=3, months=12)]
    pairs = generate_genuine_pairs(capture_table(recs))
    profiles = [MatcherProfile(name, "higher", 0.0, 10.0, 5.0) for name in ("a", "b", "c")]
    # pair (G0, P0) has no "a" score and an out-of-range "b"; (G0, P1) an out-of-range "a"
    scores = score_table([("G0", "P1", "a", 11.0), ("G0", "P0", "c", 1.0),
                          ("G0", "P0", "b", -1.0)])
    expected = _join_outcome(_attach_scores_loop, pairs, scores, profiles)
    assert expected == "score -1.0 for matcher 'b' on pair (G0, P0) outside [0.0, 10.0]"
    assert _join_outcome(attach_scores, pairs, scores, profiles) == expected


def test_join_on_an_empty_score_table():
    captures = random_capture_table(np.random.default_rng(3), n_subjects=5)
    pairs = generate_genuine_pairs(captures)
    profiles = [MatcherProfile("m1", "higher", 0.0, 1.0, 0.5),
                MatcherProfile("m2", "higher", 0.0, 1.0, 0.5)]
    empty = score_table([])
    expected = _join_outcome(_attach_scores_loop, pairs, empty, profiles)
    assert _join_outcome(attach_scores, pairs, empty, profiles) == expected
    assert len(expected[2]) == len(pairs) > 0
    assert all(p.missing_matchers == ("m1", "m2") for p in expected[2])
    assert _join_outcome(attach_scores, pairs.select(np.zeros(len(pairs), dtype=bool)),
                         empty, profiles)[2] == ()


def _genuine_loop(captures):
    """The oracle: the per-subject loop over lists of sorted rows that
    `generate_genuine_pairs` replaced."""
    order = captures.order()
    subject = captures.subject_id[order].tolist()
    eye = captures.eye[order].tolist()
    collection = captures.collection_index[order].tolist()
    by_subject: dict[str, list[int]] = {}
    for idx, sid in enumerate(subject):
        by_subject.setdefault(sid, []).append(idx)
    gallery: list[int] = []
    probe: list[int] = []
    for rows in by_subject.values():
        first = min(collection[r] for r in rows)
        for e in ("L", "R"):
            same_eye = [r for r in rows if eye[r] == e]
            probes = [r for r in same_eye if collection[r] > first]
            for r in same_eye:
                if collection[r] == first:
                    gallery += [r] * len(probes)
                    probe += probes
    return _pair_table(captures, order[np.asarray(gallery, dtype=np.intp)],
                       order[np.asarray(probe, dtype=np.intp)], GENUINE)


def _impostor_loop(captures, cfg):
    """The oracle: the per-row loop over per-eye row lists and per-(subject,
    eye) spans that `generate_impostor_pairs` replaced."""
    order = captures.order()
    keys = list(zip(captures.subject_id[order].tolist(), captures.eye[order].tolist()))
    eye_rows: dict[str, list[int]] = {"L": [], "R": []}
    spans: dict[tuple[str, str], tuple[int, int]] = {}
    for idx, key in enumerate(keys):
        lst = eye_rows.setdefault(key[1], [])
        if key not in spans:
            spans[key] = (len(lst), len(lst))
        a, _ = spans[key]
        lst.append(idx)
        spans[key] = (a, len(lst))
    gallery: list[int] = []
    probe: list[int] = []
    for row_index, key in enumerate(keys):
        lst = eye_rows[key[1]]
        a, b = spans[key]
        own = b - a
        pool_size = len(lst) - own
        if pool_size == 0:
            continue
        k = min(pool_size, cfg.max_impostor_probes)
        for pos in sample_indices(pool_size, k, cfg.base_seed ^ row_index):
            gallery.append(row_index)
            probe.append(lst[pos if pos < a else pos + own])
    return _pair_table(captures, order[np.asarray(gallery, dtype=np.intp)],
                       order[np.asarray(probe, dtype=np.intp)], IMPOSTOR)


def _pairing_outcome(protocol, *args):
    """Every column of the table `protocol` gives, with its dtype and float
    columns as bit patterns, or the text of the DataError it raises."""
    try:
        table = protocol(*args)
    except DataError as exc:
        return str(exc)
    columns = {name: getattr(table, name) for name in table.columns}
    return table.matchers, {
        name: (values.dtype.str,
               (values.view(np.uint64) if values.dtype == np.float64 else values).tolist())
        for name, values in columns.items()}


def _fuzzed_captures(rng, n_subjects, eyes=("L", "R"), p_absent=0.25, p_late=0.0):
    """Captures of `n_subjects` subjects in shuffled file order, ids sorting
    apart from creation order: one to four collections each, an eye absent
    from a collection (the first among them) with probability `p_absent`,
    one to three images per eye, ties in time within a collection, and with
    probability `p_late` a capture no later than an earlier collection's."""
    subjects = [f"S{i}" for i in rng.permutation(max(n_subjects, 1) * 3)[:n_subjects]]
    rows = []
    for subject in subjects:
        n_collections = int(rng.integers(1, 5))
        for c in sorted(rng.choice(np.arange(1, 8), n_collections, replace=False).tolist()):
            for eye in eyes:
                if rng.uniform() < p_absent:
                    continue
                for _ in range(int(rng.integers(1, 4))):
                    months = 6 * c + int(rng.integers(0, 3))
                    if rng.uniform() < p_late:
                        months -= 12
                    rows.append(make_capture("", subject=subject, eye=eye, collection=c,
                                             months=months, age=5 + c // 2,
                                             quality=float(rng.uniform(0, 100)),
                                             pupil=float(rng.uniform(20, 60))))
    for i, row in zip(rng.permutation(len(rows)), rows):
        row["image_id"] = f"I{i:04d}"
    return capture_table([rows[i] for i in rng.permutation(len(rows))])


def _assert_protocols_match(captures, cfg):
    genuine = _pairing_outcome(_genuine_loop, captures)
    assert _pairing_outcome(generate_genuine_pairs, captures) == genuine
    impostor = _pairing_outcome(_impostor_loop, captures, cfg)
    assert _pairing_outcome(generate_impostor_pairs, captures, cfg) == impostor
    return genuine, impostor


@pytest.mark.parametrize("n_subjects, eyes, p_absent, probes, seed", [
    (0, ("L", "R"), 0.0, 3, 0),                     # empty
    (1, ("L", "R"), 0.0, 3, 2**64 - 1),             # one subject: no impostor pool
    (6, ("L",), 0.0, 2, 0),                         # one eye only
    (6, ("R",), 0.3, 2, 2**64 - 1),
    (5, ("L", "R"), 0.5, 1000, 7),                  # max_impostor_probes past every pool
    (8, ("L", "R"), 0.6, 1, 2**64 - 1),             # eyes absent from first collections
])
def test_pairing_matches_the_per_row_loops_on_shaped_tables(n_subjects, eyes, p_absent,
                                                            probes, seed):
    for trial in range(10):
        rng = np.random.default_rng([n_subjects, trial])
        captures = _fuzzed_captures(rng, n_subjects, eyes, p_absent)
        _assert_protocols_match(captures, PairingConfig(probes, seed))


def test_pairing_matches_the_per_row_loops_on_fuzzed_tables():
    outcomes = []
    for trial in range(300):
        rng = np.random.default_rng(trial)
        eyes = [("L", "R"), ("L",), ("R",), ("R", "L")][int(rng.integers(4))]
        captures = _fuzzed_captures(rng, int(rng.integers(0, 9)), eyes,
                                    float(rng.choice([0.0, 0.25, 0.6])),
                                    float(rng.choice([0.0, 0.0, 0.05])))
        seed = [0, 2**64 - 1, int(rng.integers(2**63))][trial % 3]
        cfg = PairingConfig(int(rng.choice([1, 2, 5, 50])), seed)
        outcomes.append((len(captures), *_assert_protocols_match(captures, cfg)))
    genuine = [g for _, g, _ in outcomes]
    # the fuzz reaches empty tables, pairs, no genuine pairs and the time-order fault
    assert any(n == 0 for n, _, _ in outcomes)
    assert any(isinstance(g, str) for g in genuine)
    assert any(not isinstance(g, str) and g[1]["kind"][1] for g in genuine)
    assert any(n and not isinstance(g, str) and not g[1]["kind"][1]
               for n, g, _ in outcomes)


@pytest.mark.parametrize("n_subjects, per_eye, probes, seed", [
    (12, 1, 3, 17), (20, 2, 10, 2**64 - 1), (30, 1, 40, 0)])
def test_pairing_matches_the_per_row_loops_on_synth_captures(n_subjects, per_eye, probes,
                                                             seed):
    cfg = SynthConfig(n_subjects=n_subjects, session_schedule=(0, 6, 12, 24),
                      images_per_eye_per_session=per_eye, attrition_rate=0.2,
                      include_impostors=False, seed=n_subjects)
    captures = generate_longitudinal(cfg).captures
    _assert_protocols_match(captures, PairingConfig(probes, seed))
