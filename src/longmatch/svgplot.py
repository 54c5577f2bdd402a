"""Dependency-free SVG line charts (textual, diffable figures)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

_WIDTH, _HEIGHT = 840, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 48, 56
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_LOG_FLOOR = 1e-6   # zeros are clamped here on log axes


@dataclass
class Series:
    name: str
    x: list
    y: list
    whisker_low: list | None = None
    whisker_high: list | None = None
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
    if hi <= lo:
        hi = lo + 1.0
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


def render(chart: Chart, path) -> None:
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
