"""SVG rendering: polyline thinning and a differential check against the
point-by-point renderer it replaced."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from longmatch.core import MatcherProfile
from longmatch.metrics import det_curve
from longmatch.svgplot import (
    _COLORS, _HEIGHT, _LOG_FLOOR, _MARGIN_B, _MARGIN_L, _MARGIN_R, _MARGIN_T, _WIDTH,
    Chart, Series, _drawn, _escape, _fmt, _log_ticks, _ticks, render,
)


def _oracle_render(chart: Chart, path) -> None:
    """The renderer before thinning: one sx/sy call and one `x,y` pair per
    point, every point of every polyline written."""
    xs, ys = [], []
    for s in chart.series:
        for v in s.x:
            xs.append(max(v, _LOG_FLOOR) if chart.log_x else v)
        vals = list(s.y)
        if s.whisker_low is not None:
            vals += list(s.whisker_low)
        if s.whisker_high is not None:
            vals += list(s.whisker_high)
        for v in vals:
            ys.append(max(v, _LOG_FLOOR) if chart.log_y else v)
    if not xs or not ys:
        xs, ys = [0.0, 1.0], [0.0, 1.0]

    def span(values, log):
        lo, hi = min(values), max(values)
        if log:
            lo = max(lo, _LOG_FLOOR)
            hi = max(hi, lo * 10.0)
            return lo, hi
        if hi == lo:
            hi = lo + 1.0
        pad = 0.05 * (hi - lo)
        return lo - pad, hi + pad

    x_lo, x_hi = span(xs, chart.log_x)
    y_lo, y_hi = span(ys, chart.log_y)

    def sx(v):
        v = max(v, _LOG_FLOOR) if chart.log_x else v
        if chart.log_x:
            f = (math.log10(v) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        else:
            f = (v - x_lo) / (x_hi - x_lo)
        return _MARGIN_L + f * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def sy(v):
        v = max(v, _LOG_FLOOR) if chart.log_y else v
        if chart.log_y:
            f = (math.log10(v) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        else:
            f = (v - y_lo) / (y_hi - y_lo)
        return _HEIGHT - _MARGIN_B - f * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(chart.title)}</text>',
    ]
    axis = (f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" '
            f'x2="{_WIDTH - _MARGIN_R}" y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>'
            f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
            f'y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>')
    parts.append(axis)

    x_ticks = _log_ticks(x_lo, x_hi) if chart.log_x else _ticks(x_lo, x_hi)
    y_ticks = _log_ticks(y_lo, y_hi) if chart.log_y else _ticks(y_lo, y_hi)
    for v in x_ticks:
        px = sx(v)
        if px < _MARGIN_L - 1 or px > _WIDTH - _MARGIN_R + 1:
            continue
        parts.append(f'<line x1="{px:.1f}" y1="{_HEIGHT - _MARGIN_B}" x2="{px:.1f}" '
                     f'y2="{_HEIGHT - _MARGIN_B + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{_HEIGHT - _MARGIN_B + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                     f'{_fmt(v)}</text>')
    for v in y_ticks:
        py = sy(v)
        if py < _MARGIN_T - 1 or py > _HEIGHT - _MARGIN_B + 1:
            continue
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{py:.1f}" x2="{_MARGIN_L}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(v)}</text>')
    parts.append(f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.1f}" '
                 f'y="{_HEIGHT - 12}" text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">{_escape(chart.xlabel)}</text>')
    parts.append(f'<text x="18" y="{(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2:.1f}" '
                 f'text-anchor="middle" font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {(_MARGIN_T + _HEIGHT - _MARGIN_B) / 2:.1f})">'
                 f'{_escape(chart.ylabel)}</text>')

    for k, s in enumerate(chart.series):
        color = _COLORS[k % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.x, s.y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        if s.whisker_low is not None and s.whisker_high is not None:
            for x, lo, hi in zip(s.x, s.whisker_low, s.whisker_high):
                px = sx(x)
                parts.append(f'<line x1="{px:.2f}" y1="{sy(lo):.2f}" x2="{px:.2f}" '
                             f'y2="{sy(hi):.2f}" stroke="{color}" stroke-width="1"/>')
        if s.markers:
            for x, y in zip(s.x, s.y):
                parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.6" '
                             f'fill="{color}"/>')
        ly = _MARGIN_T + 16 * k
        lx = _WIDTH - _MARGIN_R + 10
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly + 4}" font-family="sans-serif" '
                     f'font-size="11">{_escape(s.name)}</text>')

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def _reference_thin(points: list[str]) -> list[str]:
    """The `x,y` points of a polyline less a repeat of the previous point, then
    less each interior point of a horizontal or vertical run that lies
    strictly between its two neighbours, compared as the written numbers."""
    points = [p for i, p in enumerate(points) if i == 0 or p != points[i - 1]]
    xy = [tuple(map(float, p.split(","))) for p in points]
    kept = []
    for i, p in enumerate(points):
        if 0 < i < len(points) - 1:
            (x0, y0), (x1, y1), (x2, y2) = xy[i - 1], xy[i], xy[i + 1]
            if (x0 == x1 == x2 and min(y0, y2) < y1 < max(y0, y2)) or \
                    (y0 == y1 == y2 and min(x0, x2) < x1 < max(x0, x2)):
                continue
        kept.append(p)
    return kept


_POLYLINE = re.compile(r'(<polyline points=")([^"]*)(")')


def _thinned_oracle(chart: Chart, path: Path) -> str:
    """The oracle's SVG text with the polyline of each series without markers
    thinned by `_reference_thin`."""
    _oracle_render(chart, path)
    series = iter(chart.series)

    def thin(match):
        pts = match.group(2)
        if not next(series).markers and pts:
            pts = " ".join(_reference_thin(pts.split(" ")))
        return match.group(1) + pts + match.group(3)
    return _POLYLINE.sub(thin, path.read_text(encoding="utf-8"))


def _walk(rng, n: int, steps) -> np.ndarray:
    """A random walk over `steps` at a random scale and offset: runs, repeats
    and backtracking."""
    scale, offset = 10.0 ** rng.uniform(-3, 3), rng.normal(0, 1000)
    return offset + scale * np.cumsum(rng.choice(steps, size=n))


def _linear_chart(rng) -> Chart:
    chart = Chart("fuzz & <linear>", "x", "y")
    for k in range(int(rng.integers(1, 4))):
        n = int(rng.integers(0, 400))
        chart.series.append(Series(f"s{k}", _walk(rng, n, [0, 0, 0, 1, -1, 0.5]),
                                   _walk(rng, n, [0, 0, 1, -1, 2]), markers=False))
    return chart


def _log_chart(rng) -> Chart:
    chart = Chart("fuzz DET", "FMR", "FNMR", log_x=True, log_y=True)
    profile = MatcherProfile("m", "higher", -1e6, 1e6, 0.0)
    for k in range(int(rng.integers(1, 4))):
        # integer scores tie, so the curve has flat runs as well as corners
        genuine = np.round(rng.normal(60, 15, int(rng.integers(1, 300))), int(rng.integers(0, 2)))
        impostor = np.round(rng.normal(30, 15, int(rng.integers(1, 600))), 0)
        curve = det_curve(genuine, impostor, profile)
        chart.series.append(Series(f"m{k}", curve.fmr, curve.fnmr, markers=False))
    return chart


@pytest.mark.parametrize("seed", range(40))
def test_thinned_output_equals_the_oracle_after_reference_thinning(tmp_path, seed):
    rng = np.random.default_rng(seed)
    for chart in (_linear_chart(rng), _log_chart(rng)):
        render(chart, tmp_path / "new.svg")
        assert (tmp_path / "new.svg").read_text(encoding="utf-8") == \
            _thinned_oracle(chart, tmp_path / "old.svg"), chart.title


@pytest.mark.parametrize("seed", range(20))
def test_charts_with_markers_are_byte_identical_to_the_oracle(tmp_path, seed):
    rng = np.random.default_rng(100 + seed)
    chart = Chart("FNMR", "interval (months)", "FNMR (%)")
    for k in range(int(rng.integers(1, 4))):
        n = int(rng.integers(0, 30))
        x = 6.0 * np.arange(1, n + 1)
        y = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0, 5, n))
        chart.series.append(Series(f"m{k}", x, y, whisker_low=np.maximum(y - 1.0, 0.0),
                                   whisker_high=y + rng.uniform(0, 3, n)))
    render(chart, tmp_path / "new.svg")
    _oracle_render(chart, tmp_path / "old.svg")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "old.svg").read_bytes()


def test_lists_and_arrays_render_the_same(tmp_path):
    x, y = [0.0, 1.0, 1.0, 2.0, 3.0], [5.0, 5.0, 4.0, 4.0, 4.0]
    render(Chart("t", "x", "y", [Series("a", x, y, markers=False)]), tmp_path / "lists.svg")
    render(Chart("t", "x", "y", [Series("a", np.array(x), np.array(y), markers=False)]),
           tmp_path / "arrays.svg")
    assert (tmp_path / "lists.svg").read_bytes() == (tmp_path / "arrays.svg").read_bytes()


def _check_drawn(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`_drawn(x, y)`, checked: a subsequence that starts at the first point
    and ends at the last one's coordinates, and every dropped point lies on
    the segment between its kept neighbours (a trailing repeat on the last
    kept point)."""
    kept = _drawn(x, y)
    if not len(x):
        assert len(kept) == 0
        return kept
    assert kept[0] == 0 and (x[kept[-1]], y[kept[-1]]) == (x[-1], y[-1])
    assert np.all(np.diff(kept) > 0)
    for a, b in zip(kept, [*kept[1:], kept[-1]]):
        for i in range(a + 1, b if b > a else len(x)):
            # on the segment: collinear and inside its bounding box
            assert (x[i] - x[a]) * (y[b] - y[a]) == (y[i] - y[a]) * (x[b] - x[a]), i
            assert min(x[a], x[b]) <= x[i] <= max(x[a], x[b]), i
            assert min(y[a], y[b]) <= y[i] <= max(y[a], y[b]), i
    return kept


@pytest.mark.parametrize("seed", range(30))
def test_dropped_points_lie_between_their_kept_neighbours(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 200))
    x = np.cumsum(rng.choice([0, 0, 1, -1], size=n)).astype(float)
    y = np.cumsum(rng.choice([0, 0, 1, -1], size=n)).astype(float)
    _check_drawn(x, y)


def test_a_staircase_keeps_its_corners():
    x = np.array([0, 1, 2, 3, 3, 3, 4, 5, 5], dtype=float)
    y = np.array([0, 0, 0, 0, 1, 2, 2, 2, 3], dtype=float)
    assert _check_drawn(x, y).tolist() == [0, 3, 5, 7, 8]


def test_repeats_collapse_to_one_point():
    x = np.array([1, 1, 1, 2, 2, 2], dtype=float)
    y = np.array([5, 5, 5, 7, 7, 7], dtype=float)
    assert _check_drawn(x, y).tolist() == [0, 3]
    assert _check_drawn(np.ones(4), np.ones(4)).tolist() == [0]


def test_a_backtracking_run_keeps_its_turns():
    # along y = 0: 0 -> 3 -> 2 -> 4; the turns at 3 and 2 change the line
    x = np.array([0, 1, 3, 2, 4], dtype=float)
    assert _check_drawn(x, np.zeros(5)).tolist() == [0, 2, 3, 4]
    # a vertical run that turns back on itself
    y = np.array([0, 2, 1, 1, 3], dtype=float)
    assert _check_drawn(np.zeros(5), y).tolist() == [0, 1, 2, 4]


def test_a_diagonal_is_not_thinned():
    t = np.arange(5, dtype=float)
    assert _check_drawn(t, t).tolist() == [0, 1, 2, 3, 4]


def test_short_series():
    assert _check_drawn(np.array([]), np.array([])).tolist() == []
    assert _check_drawn(np.array([1.0]), np.array([2.0])).tolist() == [0]
    assert _check_drawn(np.array([1.0, 2.0]), np.array([2.0, 2.0])).tolist() == [0, 1]


@pytest.mark.parametrize("y", [
    [0.0, 1.75e308],                      # the padded span overflows
    [-1e308, 1e308],                      # the span itself overflows
    [1e17, 1e17],                         # hi = lo + 1 rounds back to lo
    [1e20, 1.0000000000000002e20],        # a tick step would not move a value
    [float("nan"), 1.0],
])
def test_an_axis_without_a_tickable_span_is_refused(tmp_path, y):
    chart = Chart("t", "x", "y", [Series("a", [0.0, 1.0], y, markers=False)])
    with pytest.raises(ValueError, match="the y axis from .* has no span float64 can tick"):
        render(chart, tmp_path / "t.svg")
    assert not (tmp_path / "t.svg").exists()
