"""SVG line charts drawn with numpy alone (textual, diffable figures)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_WIDTH, _HEIGHT = 840, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 48, 56
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_LOG_FLOOR = 1e-6   # zeros are clamped here on log axes


@dataclass
class Series:
    name: str
    x: list | np.ndarray
    y: list | np.ndarray
    whisker_low: list | np.ndarray | None = None
    whisker_high: list | np.ndarray | None = None
    markers: bool = True


@dataclass
class Chart:
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)
    log_x: bool = False
    log_y: bool = False


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-9 * step:
        out.append(round(v, 12))
        v += step
    return out


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(lo_e, hi_e + 1)]


def _escape(text: str) -> str:
    """`text` with &, > and < as XML entities, replaced in that order (what
    xml.sax.saxutils.escape does; importing it loads urllib.request)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _axis(values: np.ndarray, log: bool, name: str, origin: int, length: int) -> tuple:
    """The axis (lo, hi, log, origin, length) drawing `values`: a decade or more from the
    clamped minimum if `log`, else padded 5% each way; a tick step must move a value."""
    lo, hi = float(values.min()), float(values.max())
    if log:
        lo = max(lo, _LOG_FLOOR)
        hi = max(hi, lo * 10.0)
    else:
        hi = lo + 1.0 if hi == lo else hi
        lo, hi = lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)
    if not 0.0 < hi - lo < math.inf or max(-lo, hi) + (hi - lo) / 10 == max(-lo, hi):
        raise ValueError(f"the {name} axis from {lo!r} to {hi!r} has no span float64 can tick")
    return lo, hi, log, origin, length


def _pixels(values, axis) -> np.ndarray:
    """Pixel positions of `values` on an axis (lo, hi, log, origin, length)."""
    lo, hi, log, origin, length = axis
    v = np.asarray(values, dtype=np.float64)
    if log:   # math.log10, which np.log10 can miss in the last bit
        v = np.array([math.log10(max(t, _LOG_FLOOR)) for t in v.tolist()])
        lo, hi = math.log10(lo), math.log10(hi)
    return origin + (v - lo) / (hi - lo) * length


def _labels(values, axis) -> tuple[np.ndarray, np.ndarray]:
    """Each value's pixel position as 2-decimal text and as the number that text
    writes; each distinct value is placed and formatted once."""
    distinct, index = np.unique(np.asarray(values, dtype=np.float64), return_inverse=True)
    text = [f"{p:.2f}" for p in _pixels(distinct, axis).tolist()]
    return np.array(text, dtype=str)[index], np.array(text, dtype=np.float64)[index]


def _drawn(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the points that change the polyline through (x, y): all but a repeat of
    the previous point and one whose steps in and out go the same horizontal or vertical way."""
    kept = np.flatnonzero(np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1])][:len(x)])
    sx, sy = np.sign(np.diff(x[kept])), np.sign(np.diff(y[kept]))
    inside = (sx[:-1] == sx[1:]) & (sy[:-1] == sy[1:]) & (sx[1:] * sy[1:] == 0)
    return kept[np.r_[True, ~inside, True][:len(kept)]]


def render(chart: Chart, path) -> None:
    """Write `chart` as SVG; a series without markers draws only the points that change
    its line (`_drawn`). Raises ValueError for an axis `_axis` refuses."""
    xs = np.concatenate([[], *(s.x for s in chart.series)])
    ys = np.concatenate([[], *(v for s in chart.series
                               for v in (s.y, s.whisker_low, s.whisker_high) if v is not None)])
    xs, ys = (xs, ys) if xs.size and ys.size else (np.array([0.0, 1.0]),) * 2
    x_axis = _axis(xs, chart.log_x, "x", _MARGIN_L, _WIDTH - _MARGIN_L - _MARGIN_R)
    y_axis = _axis(ys, chart.log_y, "y", _HEIGHT - _MARGIN_B, _MARGIN_T + _MARGIN_B - _HEIGHT)

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

    x_ticks = (_log_ticks if chart.log_x else _ticks)(*x_axis[:2])
    y_ticks = (_log_ticks if chart.log_y else _ticks)(*y_axis[:2])
    for v, px in zip(x_ticks, _pixels(x_ticks, x_axis).tolist()):
        if px < _MARGIN_L - 1 or px > _WIDTH - _MARGIN_R + 1:
            continue
        parts.append(f'<line x1="{px:.1f}" y1="{_HEIGHT - _MARGIN_B}" x2="{px:.1f}" '
                     f'y2="{_HEIGHT - _MARGIN_B + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{_HEIGHT - _MARGIN_B + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                     f'{_fmt(v)}</text>')
    for v, py in zip(y_ticks, _pixels(y_ticks, y_axis).tolist()):
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
        (px, nx), (py, ny) = _labels(s.x, x_axis), _labels(s.y, y_axis)
        drawn = slice(None) if s.markers else _drawn(nx, ny)
        pts = " ".join(f"{x},{y}" for x, y in zip(px[drawn].tolist(), py[drawn].tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        if s.whisker_low is not None and s.whisker_high is not None:
            for x, lo, hi in zip(px.tolist(), _labels(s.whisker_low, y_axis)[0].tolist(),
                                 _labels(s.whisker_high, y_axis)[0].tolist()):
                parts.append(f'<line x1="{x}" y1="{lo}" x2="{x}" y2="{hi}" '
                             f'stroke="{color}" stroke-width="1"/>')
        if s.markers:
            for x, y in zip(px.tolist(), py.tolist()):
                parts.append(f'<circle cx="{x}" cy="{y}" r="2.6" fill="{color}"/>')
        ly = _MARGIN_T + 16 * k
        lx = _WIDTH - _MARGIN_R + 10
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly + 4}" font-family="sans-serif" '
                     f'font-size="11">{_escape(s.name)}</text>')

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
