"""Dependency-free SVG line charts with mean +/- sd bands.

The CSV outputs are the contract; these charts are a convenience mirror of
them, so the drawing stays deliberately small: fixed canvas, a handful of
ticks, one polyline and one translucent band per series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Series", "line_chart_svg", "write_line_chart"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]

_WIDTH = 640
_HEIGHT = 420
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 46.0


@dataclass(frozen=True)
class Series:
    label: str
    mean: Sequence[float]
    sd: Sequence[float] | None = None


def _span(lo: float, hi: float) -> tuple[float, float]:
    """The axis [lo, hi]; a one-point one is widened by max(1, |lo| / 1024), downward where upward overflows."""
    if hi > lo:
        return lo, hi
    width = max(1.0, abs(lo) / 1024)
    return (lo, lo + width) if math.isfinite(lo + width) else (lo - width, lo)


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    lo, hi = _span(lo, hi)
    steps = max(count - 1, 1)
    # each end is divided first, so a span past the largest float cannot overflow,
    # and a step below the smallest float is raised to it
    raw = max(hi / steps - lo / steps, math.ulp(0.0))
    exponent = math.floor(math.log10(raw))
    mag = 10.0 ** exponent
    for step in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= step * mag:
            raw = step * mag
            break
    start = math.floor(lo / raw) * raw
    if math.isinf(start):  # the step's multiple below the least float; the one above it is in range
        start = math.ceil(lo / raw) * raw
    ticks = []
    t = start
    # a step can leave t where it is on an axis below its float spacing, or overflow at the largest float
    while math.isfinite(t) and t <= hi + 1e-9 * raw:
        if t >= lo - 1e-9 * raw:
            # to 12 decimals, or 12 past the first digit of a step below 1, so narrow axes keep their ticks apart
            ticks.append(round(t, 12 - min(exponent, 0)))
        if t + raw == t:
            break
        t += raw
    return ticks


def _fraction(v: float, lo: float, hi: float) -> float:
    """(v - lo) / (hi - lo), every term halved first where that span overflows."""
    if math.isinf(hi - lo):
        v, lo, hi = v / 2, lo / 2, hi / 2
    return (v - lo) / (hi - lo)


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:g}"


def line_chart_svg(
    x: Sequence[float],
    series: Sequence[Series],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    xs = [float(v) for v in x]
    if not xs or not series:
        raise ValueError("need at least one x value and one series")
    shown = []  # per series, the (x, mean, sd) points whose band is finite
    for s in series:
        means = [float(v) for v in s.mean]
        if len(means) != len(xs):
            raise ValueError(f"series {s.label!r} length {len(means)} != {len(xs)}")
        sds = [0.0] * len(xs) if s.sd is None else [float(v) for v in s.sd]
        shown.append([(xv, m, d) for xv, m, d in zip(xs, means, sds) if math.isfinite(m - d) and math.isfinite(m + d)])
    bands = [v for points in shown for _, m, d in points for v in (m - d, m + d)]
    y_lo, y_hi = (min(bands), max(bands)) if bands else (0.0, 1.0)
    y_lo, y_hi = _span(min(y_lo, 0.0), y_hi)
    x_lo, x_hi = _span(min(xs), max(xs))

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(v: float) -> float:
        return _MARGIN_LEFT + _fraction(v, x_lo, x_hi) * plot_w

    def py(v: float) -> float:
        return _MARGIN_TOP + _fraction(v, y_hi, y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>')
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.2f}" y1="{_MARGIN_TOP + plot_h:.2f}" x2="{px(t):.2f}" '
            f'y2="{_MARGIN_TOP + plot_h + 5:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(t):.2f}" y="{_MARGIN_TOP + plot_h + 18:.2f}" text-anchor="middle">{_fmt_num(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5:.2f}" y1="{py(t):.2f}" x2="{_MARGIN_LEFT:.2f}" y2="{py(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8:.2f}" y="{py(t) + 4:.2f}" text-anchor="end">{_fmt_num(t)}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_LEFT:.2f}" y="{_MARGIN_TOP:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        f'fill="none" stroke="black"/>'
    )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        cy = _MARGIN_TOP + plot_h / 2
        parts.append(
            f'<text x="16" y="{cy:.1f}" text-anchor="middle" transform="rotate(-90 16 {cy:.1f})">{ylabel}</text>'
        )
    for si, (s, points) in enumerate(zip(series, shown)):
        color = _COLORS[si % len(_COLORS)]
        if not points:
            continue
        if any(d > 0 for _, _, d in points):
            upper = [(px(xv), py(m + d)) for xv, m, d in points]
            lower = [(px(xv), py(m - d)) for xv, m, d in points]
            pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in upper + lower[::-1])
            parts.append(f'<polygon points="{pts}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        pts = " ".join(f"{px(xv):.2f},{py(m):.2f}" for xv, m, _ in points)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        for xv, m, _ in points:
            parts.append(f'<circle cx="{px(xv):.2f}" cy="{py(m):.2f}" r="2.6" fill="{color}"/>')
        ly = _MARGIN_TOP + 14 + 16 * si
        lx = _MARGIN_LEFT + plot_w - 130
        parts.append(f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 22:.1f}" y2="{ly - 4:.1f}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 27:.1f}" y="{ly:.1f}">{s.label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def write_line_chart(path, x, series, **kwargs) -> None:
    with open(path, "w") as fh:
        fh.write(line_chart_svg(x, series, **kwargs))
        fh.write("\n")
