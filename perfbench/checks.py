"""Correctness checks on one longmatch output tree, made apart from the program.

Every check reads the CSV/JSON/SVG files of a finished pipeline and either
recomputes a result with numpy and the standard library (never with
longmatch code) or tests a property the method must have. `run_all`
returns one `(name, ok, detail)` per check; selftest.py shows that each
check fails on a corrupted copy of a tree.
"""

from __future__ import annotations

import csv
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path
from statistics import NormalDist

import numpy as np

# |fitted - injected| allowed for T and quality coefficients, in fitted SEs.
# At 5 SE a correct fit fails with probability ~6e-7 per coefficient.
TRUTH_SES = 5.0
# VIF above which the overidentified APC design counts as exploded; the usual
# collinearity flag is 10. With uncentered VIFs the quality terms reach ~250
# on these workloads and the temporal triple 700-1300, so the check also
# requires the largest VIF to belong to the triple.
VIF_EXPLOSION = 100.0


def _read_csv(path: Path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return {name: [r[j] for r in rows] for j, name in enumerate(header)}


class Tree:
    """The tables of one output directory, loaded once."""

    def __init__(self, out: Path, config: dict):
        self.out = out
        self.config = config
        cap = _read_csv(out / "captures.csv")
        self.capture = {
            image: (subject, eye, int(coll), int(months), int(age))
            for image, subject, eye, coll, months, age in zip(
                cap["image_id"], cap["subject_id"], cap["eye"],
                cap["collection_index"], cap["capture_time_months"],
                cap["age_years"])}
        self.genuine = _read_csv(out / "pairs_genuine.csv")
        self.impostor = _read_csv(out / "pairs_impostor.csv")
        self.matchers = {m["name"]: m for m in config["matchers"]}
        self.thresholds = {k: float(v) for k, v in json.loads(
            (out / "thresholds.json").read_text(encoding="utf-8")).items()}

    def scores(self, table: dict, matcher: str) -> np.ndarray:
        return np.array(table[f"score_{matcher}"], dtype=np.float64)

    def accepts(self, table: dict, matcher: str) -> np.ndarray:
        s = self.scores(table, matcher)
        thr = self.thresholds[matcher]
        return s >= thr if self.matchers[matcher]["orientation"] == "higher" else s <= thr

    def subject_of(self, images: list[str]) -> np.ndarray:
        return np.array([self.capture[i][0] for i in images], dtype=object)

    def text(self, name: str) -> str:
        return (self.out / name).read_text(encoding="utf-8")


def check_genuine_pairs(tree: Tree):
    """Fixed-gallery protocol recomputed from captures.csv."""
    by_subject: dict[str, list] = {}
    for image, (subject, eye, coll, months, _) in tree.capture.items():
        by_subject.setdefault(subject, []).append((image, eye, coll, months))
    expected = {}
    for subject, images in by_subject.items():
        first = min(coll for _, _, coll, _ in images)
        for g, g_eye, g_coll, g_months in images:
            if g_coll != first:
                continue
            for p, p_eye, p_coll, p_months in images:
                if p_eye == g_eye and p_coll > first:
                    expected[(g, p)] = p_months - g_months
    got = {(g, p): int(t) for g, p, t in zip(
        tree.genuine["gallery_image_id"], tree.genuine["probe_image_id"],
        tree.genuine["gap_T_months"])}
    n_rows = len(tree.genuine["kind"])
    if n_rows != len(expected):
        return False, f"{n_rows} genuine rows, protocol gives {len(expected)}"
    if got != expected:
        return False, "genuine pairs or gaps differ from the protocol"
    if set(tree.genuine["kind"]) != {"genuine"}:
        return False, "non-genuine kind in pairs_genuine.csv"
    return True, f"{n_rows} pairs"


def check_impostor_pairs(tree: Tree):
    """Count = sum of min(pool, probes); same eye, cross subject, no repeats."""
    probes = int(tree.config["pairing"]["max_impostor_probes"])
    per_eye: dict[str, int] = {}
    per_subject_eye: dict[tuple, int] = {}
    for subject, eye, *_ in tree.capture.values():
        per_eye[eye] = per_eye.get(eye, 0) + 1
        per_subject_eye[(subject, eye)] = per_subject_eye.get((subject, eye), 0) + 1
    expected = sum(min(per_eye[eye] - per_subject_eye[(subject, eye)], probes)
                   for subject, eye, *_ in tree.capture.values())
    gallery = tree.impostor["gallery_image_id"]
    probe = tree.impostor["probe_image_id"]
    if len(gallery) != expected:
        return False, f"{len(gallery)} impostor rows, expected {expected}"
    if len(set(zip(gallery, probe))) != len(gallery):
        return False, "repeated impostor pair"
    for g, p, eye, kind in zip(gallery, probe, tree.impostor["eye"], tree.impostor["kind"]):
        cg, cp = tree.capture[g], tree.capture[p]
        if kind != "impostor" or cg[0] == cp[0] or not (cg[1] == cp[1] == eye):
            return False, f"pair ({g}, {p}) is not a same-eye cross-subject impostor"
    return True, f"{expected} pairs"


def check_pair_scores(tree: Tree):
    """Every pair score equals the scores.csv row it joins."""
    sc = _read_csv(tree.out / "scores.csv")
    lookup = {(g, p, m): s for g, p, m, s in zip(
        sc["gallery_image_id"], sc["probe_image_id"], sc["matcher"], sc["score"])}
    for table in (tree.genuine, tree.impostor):
        for m in tree.matchers:
            for g, p, s in zip(table["gallery_image_id"], table["probe_image_id"],
                               table[f"score_{m}"]):
                want = lookup.get((g, p, m))
                if want is None or float(want) != float(s):
                    return False, f"score_{m} of ({g}, {p}) is {s}, scores.csv has {want}"
    return True, ""


def check_no_incomplete(tree: Tree):
    rows = _read_csv(tree.out / "pairs_incomplete.csv")["gallery_image_id"]
    return (not rows), f"{len(rows)} incomplete pairs"


def _oriented(tree: Tree, matcher: str, values: np.ndarray) -> np.ndarray:
    return values if tree.matchers[matcher]["orientation"] == "higher" else -values


def check_calibration(tree: Tree):
    """FMR at each threshold <= target; the next looser observed score exceeds it."""
    target = float(tree.config["calibration"]["target_fmr"])
    for m, thr in tree.thresholds.items():
        imp = _oriented(tree, m, tree.scores(tree.impostor, m))
        gen = _oriented(tree, m, tree.scores(tree.genuine, m))
        t = _oriented(tree, m, np.float64(thr))
        fmr = float(np.mean(imp >= t))
        if fmr > target:
            return False, f"{m}: FMR {fmr} at threshold {thr} exceeds {target}"
        observed = np.concatenate([gen, imp])
        looser = observed[observed < t]
        if looser.size and float(np.mean(imp >= looser.max())) <= target:
            return False, f"{m}: a looser observed threshold also meets {target}"
    return True, ""


def _wilson(k: int, n: int, confidence: float) -> tuple[float, float]:
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (0.0 if k == 0 else max(0.0, center - half),
            1.0 if k == n else min(1.0, center + half))


def check_interval_fnmr(tree: Tree):
    """Interval counts recomputed; Wilson closed form or 3/n; low <= fnmr <= high."""
    width = int(tree.config["fnmr"]["bin_width_months"])
    confidence = float(tree.config["fnmr"].get("confidence", 0.95))
    gap = np.array(tree.genuine["gap_T_months"], dtype=np.int64)
    centers = width * ((2 * gap + width) // (2 * width))
    for m in tree.matchers:
        rows = _read_csv(tree.out / f"interval_fnmr_{m}.csv")
        fails = ~tree.accepts(tree.genuine, m)
        want = sorted(set(centers.tolist()))
        if [int(v) for v in rows["interval_months"]] != want:
            return False, f"{m}: intervals {rows['interval_months']} != {want}"
        for j, c in enumerate(want):
            n = int(np.sum(centers == c))
            k = int(np.sum(fails[centers == c]))
            fnmr, low, high = (float(rows[x][j]) for x in ("fnmr", "ci_low", "ci_high"))
            if int(rows["n_genuine"][j]) != n or int(rows["n_false_nonmatch"][j]) != k:
                return False, f"{m}@{c}: counts {rows['n_genuine'][j]}/" \
                              f"{rows['n_false_nonmatch'][j]} != {n}/{k}"
            wl, wh = (0.0, 3.0 / n) if k == 0 else _wilson(k, n, confidence)
            if not (math.isclose(low, wl, rel_tol=1e-9, abs_tol=1e-12)
                    and math.isclose(high, wh, rel_tol=1e-9)):
                return False, f"{m}@{c}: bounds ({low}, {high}) != ({wl}, {wh})"
            if not (low <= fnmr <= high) or fnmr != k / n:
                return False, f"{m}@{c}: fnmr {fnmr} outside [{low}, {high}]"
    return True, ""


def check_det(tree: Tree):
    """DET monotone; AUC equals the Mann-Whitney count over the pair scores."""
    summary = _read_csv(tree.out / "det_summary.csv")
    auc_of = dict(zip(summary["matcher"], (float(v) for v in summary["auc"])))
    for m in tree.matchers:
        det = _read_csv(tree.out / f"det_{m}.csv")
        fmr = np.array(det["fmr"], dtype=np.float64)
        fnmr = np.array(det["fnmr"], dtype=np.float64)
        if np.any(np.diff(fmr) > 0) or np.any(np.diff(fnmr) < 0):
            return False, f"{m}: DET not monotone"
        gen = np.sort(_oriented(tree, m, tree.scores(tree.genuine, m)))
        imp = np.sort(_oriented(tree, m, tree.scores(tree.impostor, m)))
        below = np.searchsorted(imp, gen, side="left")
        ties = np.searchsorted(imp, gen, side="right") - below
        mw = (below.sum() + 0.5 * ties.sum()) / (gen.size * imp.size)
        if not math.isclose(auc_of[m], mw, rel_tol=0, abs_tol=1e-9):
            return False, f"{m}: AUC {auc_of[m]} != Mann-Whitney {mw}"
    return True, ""


def _fusion_pair(tree: Tree) -> tuple[str, str]:
    fusion = tree.config.get("fusion", {})
    names = list(tree.matchers)
    return fusion.get("matcher_a", names[0]), fusion.get("matcher_b", names[1])


def check_fusion(tree: Tree):
    """Fused FMR/FNMR and the agreement breakdowns recomputed."""
    a, b = _fusion_pair(tree)
    report = tree.text("fusion_report.txt")
    ia, ib = tree.accepts(tree.impostor, a), tree.accepts(tree.impostor, b)
    ra, rb = ~tree.accepts(tree.genuine, a), ~tree.accepts(tree.genuine, b)
    want = {
        "fused FMR": float(np.sum(ia & ib) / ia.size),
        "fused FNMR": float(np.sum(ra | rb) / ra.size),
    }
    for label, value in want.items():
        got = re.search(rf"^{label}: (\S+)$", report, re.M)
        if got is None or float(got.group(1)) != value:
            return False, f"{label} {got and got.group(1)} != {value}"

    def breakdown(x, y):
        return (f"a_only={int(np.sum(x & ~y))} b_only={int(np.sum(~x & y))} "
                f"both={int(np.sum(x & y))} neither={int(np.sum(~x & ~y))}")
    for label, x, y in (("impostor accepts", ia, ib), ("genuine rejects", ra, rb)):
        if f"{label}: {breakdown(x, y)}" not in report:
            return False, f"{label} breakdown != {breakdown(x, y)}"
    return True, ""


def check_failures(tree: Tree):
    """Failure-category pair and subject counts recomputed."""
    a, b = _fusion_pair(tree)
    fa, fb = ~tree.accepts(tree.genuine, a), ~tree.accepts(tree.genuine, b)
    subjects = tree.subject_of(tree.genuine["gallery_image_id"])
    cats = _read_csv(tree.out / "failure_categories.csv")
    got = {c: (int(n), int(s)) for c, n, s in zip(
        cats["category"], cats["n_pairs"], cats["n_subjects"])}
    for name, sel in (("a_only", fa & ~fb), ("b_only", ~fa & fb), ("both", fa & fb)):
        want = (int(sel.sum()), len(set(subjects[sel])))
        if got.get(name) != want:
            return False, f"{name}: {got.get(name)} != {want}"
    report = tree.text("failure_report.txt")
    if f"failure pairs: {int(np.sum(fa | fb))}\n" not in report:
        return False, "failure pair total differs"
    return True, ""


def _coefficient_files(tree: Tree) -> list[str]:
    outcome = tree.config["model"]["outcome"]
    eyes = tree.config["model"].get("eyes", ["pooled"])
    return [f"coefficients_{outcome}{'' if e == 'pooled' else '_' + e}.csv" for e in eyes]


def check_lmm_truth(tree: Tree):
    """Injected T and quality coefficients lie within TRUTH_SES fitted SEs."""
    model = tree.config["model"]
    truth = json.loads(tree.text("ground_truth.json"))["matchers"][model["outcome"]]["beta"]
    terms = ["T"] + list(model["quality_terms"])
    for name in _coefficient_files(tree):
        coef = _read_csv(tree.out / name)
        fitted = dict(zip(coef["predictor"], zip(coef["beta"], coef["se"])))
        for term in terms:
            beta, se = (float(v) for v in fitted[term])
            true = float(truth.get(term, 0.0))
            if not abs(beta - true) <= TRUTH_SES * se:
                return False, f"{name} {term}: {beta} +- {se} vs injected {true}"
    return True, ""


def _pair_column(tree: Tree, name: str) -> np.ndarray:
    g = tree.genuine
    if name in ("A_gallery", "A_probe"):
        images = g["gallery_image_id" if name == "A_gallery" else "probe_image_id"]
        return np.array([tree.capture[i][4] for i in images], dtype=np.float64)
    return np.array(g["gap_T_months" if name == "T" else name], dtype=np.float64)


def check_apc(tree: Tree):
    """Smallest dAIC is 0; reported VIFs match a recomputation; the triple explodes."""
    deltas = [float(v) for v in _read_csv(tree.out / "apc_models.csv")["delta_aic"]]
    if min(deltas) != 0.0:
        return False, f"smallest dAIC {min(deltas)}"
    names = ["A_gallery", "A_probe", "T"] + list(tree.config["model"]["quality_terms"])
    X = np.column_stack([np.ones(len(tree.genuine["kind"]))]
                        + [_pair_column(tree, n) for n in names])
    reported = dict(re.findall(r"VIF\[(\S+)\] = (\S+)", tree.text("apc_report.txt")))
    for j, name in enumerate(names, start=1):
        others = np.delete(X, j, axis=1)
        resid = X[:, j] - others @ np.linalg.lstsq(others, X[:, j], rcond=None)[0]
        want = float(X[:, j] @ X[:, j]) / float(resid @ resid)
        if not math.isclose(float(reported[name]), want, rel_tol=1e-3):
            return False, f"VIF[{name}] {reported[name]} != {want:.6g}"
    top = max(reported, key=lambda n: float(reported[n]))
    if top not in ("A_gallery", "A_probe", "T") or float(reported[top]) <= VIF_EXPLOSION:
        return False, f"largest VIF is {top}={reported[top]}, not a temporal one > {VIF_EXPLOSION}"
    return True, f"VIF[{top}] = {reported[top]}"


_MASK = (1 << 64) - 1


def _splitmix_shuffle(items: list, seed: int) -> list:
    """Fisher-Yates from the top, SplitMix64 draws with modulo-tail rejection."""
    state = seed & _MASK
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        n = i + 1
        limit = (1 << 64) - (1 << 64) % n
        while True:
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
            if z < limit:
                break
        j = z % n
        out[i], out[j] = out[j], out[i]
    return out


def check_cv_folds(tree: Tree):
    """Folds recomputed by subject; they partition subjects and genuine rows."""
    k = int(tree.config["cv"]["k"])
    seed = int(tree.config["cv"].get("seed", tree.config["seed"]))
    subjects = tree.subject_of(tree.genuine["gallery_image_id"])
    order = _splitmix_shuffle(sorted(set(subjects)), seed)
    report = _read_csv(tree.out / "cv_report.csv")
    if [int(f) for f in report["fold"]] != list(range(k)):
        return False, f"folds {report['fold']}"
    for f in range(k):
        held = set(order[f::k])
        rows = int(sum(s in held for s in subjects))
        got = (int(report["n_test_subjects"][f]), int(report["n_test_rows"][f]))
        if got != (len(held), rows):
            return False, f"fold {f}: {got} != {(len(held), rows)}"
    total = sum(int(v) for v in report["n_test_rows"])
    if total != len(subjects) or sum(int(v) for v in report["n_test_subjects"]) != len(order):
        return False, "folds do not partition the genuine rows and subjects"
    return True, ""


def check_svg(tree: Tree):
    """Every SVG parses as XML; fnmr, det and trajectory figures exist."""
    files = sorted(tree.out.glob("*.svg"))
    names = {p.name for p in files}
    if not {"fnmr.svg", "det.svg"} <= names or not any(
            n.startswith("trajectories_") for n in names):
        return False, f"figures missing: {sorted(names)}"
    for path in files:
        try:
            ET.parse(path)
        except ET.ParseError as exc:
            return False, f"{path.name}: {exc}"
    return True, f"{len(files)} files"


CHECKS = {
    "genuine_pairs": check_genuine_pairs,
    "impostor_pairs": check_impostor_pairs,
    "pair_scores": check_pair_scores,
    "no_incomplete_pairs": check_no_incomplete,
    "calibration": check_calibration,
    "interval_fnmr": check_interval_fnmr,
    "det": check_det,
    "fusion": check_fusion,
    "failures": check_failures,
    "lmm_truth": check_lmm_truth,
    "apc": check_apc,
    "cv_folds": check_cv_folds,
    "svg_xml": check_svg,
}


def run_all(out: Path, config: dict, names=None) -> list[tuple[str, bool, str]]:
    """Run the named checks (all by default) on the tree under `out`."""
    try:
        tree = Tree(out, config)
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        return [("load", False, f"{type(exc).__name__}: {exc}")]
    results = []
    for name in names or CHECKS:
        try:
            ok, detail = CHECKS[name](tree)
        except (OSError, KeyError, ValueError, IndexError, ET.ParseError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
