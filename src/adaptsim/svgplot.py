"""Minimal deterministic SVG line charts.

Charts are plain text assembled with fixed float formatting, so the
same data always yields byte-identical files -- no display server, no
library-version drift.  Supports one or two y axes, NaN-gapped lines,
and shaded step intervals for phase annotations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import field

import numpy as np

from .analysis import true_runs
from .errors import frozen

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
SHADE_PALETTE = ("#c6dbef", "#fdd0a2", "#c7e9c0", "#dadaeb")

_MARGIN_L = 64.0
_MARGIN_R = 64.0
_MARGIN_T = 48.0
_MARGIN_B = 44.0
WIDTH = 840
HEIGHT = 420
X_LABEL = "step"
Y_LABEL = "mean satisfaction"
_FLOAT_MAX = sys.float_info.max


@frozen
class Series:
    """A line: its label, values, palette color and y axis."""

    label: str
    values: np.ndarray
    color: str
    axis: str  # "left" or "right"


@frozen
class Shade:
    """A labelled band over the steps [start, end)."""

    start: int
    end: int
    label: str


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions on a 1/2/5 ladder covering [lo, hi], about five of them."""
    raw = hi / 5 - lo / 5  # hi - lo may overflow
    if not raw > 0.0:  # also when the span underflows
        return [lo]
    mag = 10.0 ** max(math.floor(math.log10(raw)), -323)  # 1e-324 underflows to 0
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= min(hi + 1e-9 * step, _FLOAT_MAX):
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        if v + step == v:  # step is below half an ulp of v
            break
        v += step
    return out


def _axis_range(all_values: list[np.ndarray]) -> tuple[float, float]:
    finite = np.concatenate([v[np.isfinite(v)] for v in all_values]) if all_values else np.array([])
    if finite.size == 0:
        return 0.0, 1.0
    lo = float(finite.min())
    hi = float(finite.max())
    if hi == lo:
        pad = 0.5 if lo == 0.0 else abs(lo) * 0.05
    else:
        pad = 0.05 * hi - 0.05 * lo  # hi - lo may overflow
    pad = max(pad, 5e-324)  # a pad that underflows leaves no span
    return max(lo - pad, -_FLOAT_MAX), min(hi + pad, _FLOAT_MAX)


def _tick(x1: float, y1: float, x2: float, y2: float, tx: float, ty: float, anchor: str, value: float):
    """A tick mark from (x1, y1) to (x2, y2) and its value as a label at (tx, ty)."""
    return [
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="#333333"/>',
        f'<text x="{_fmt(tx)}" y="{_fmt(ty)}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="10">{value:g}</text>',
    ]


def _axis_title(x: int, y: float, angle: int, label: str) -> str:
    """A y axis title at (x, y), rotated by angle degrees about that point."""
    return (
        f'<text x="{x}" y="{_fmt(y)}" text-anchor="middle" font-family="sans-serif" font-size="11" '
        f'transform="rotate({angle} {x} {_fmt(y)})">{_esc(label)}</text>'
    )


@frozen
class LineChart:
    """Accumulates series and shades in palette order, and renders a
    standalone SVG document: the steps on x, Y_LABEL on the left axis,
    and a right axis titled by its series' label when one is added."""

    title: str
    series: list[Series] = field(default_factory=list, init=False)
    shades: list[Shade] = field(default_factory=list, init=False)

    def add_series(self, label: str, values, axis: str = "left"):
        color = PALETTE[len(self.series) % len(PALETTE)]
        self.series.append(Series(label, np.asarray(values, dtype=np.float64), color, axis))

    def add_shade(self, start: int, end: int, label: str):
        self.shades.append(Shade(start, end, label))

    def render(self) -> str:
        n = max((s.values.size for s in self.series), default=2)
        plot_w = WIDTH - _MARGIN_L - _MARGIN_R
        plot_h = HEIGHT - _MARGIN_T - _MARGIN_B
        bottom, right_edge, mid_y = _MARGIN_T + plot_h, _MARGIN_L + plot_w, _MARGIN_T + plot_h / 2

        def sx(t: float) -> float:
            return _MARGIN_L + (t / max(n - 1, 1)) * plot_w

        left = [s for s in self.series if s.axis == "left"]
        right = [s for s in self.series if s.axis == "right"]
        l_lo, l_hi = _axis_range([s.values for s in left])
        r_lo, r_hi = _axis_range([s.values for s in right])

        def sy(v: float, lo: float, hi: float) -> float:
            span = hi - lo
            if span == math.inf:  # halved, the span is finite
                v, lo, span = v / 2, lo / 2, hi / 2 - lo / 2
            return _MARGIN_T + (1.0 - (v - lo) / span) * plot_h

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{_fmt(WIDTH / 2)}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15" font-weight="bold">{_esc(self.title)}</text>',
        ]
        for i, sh in enumerate(self.shades):
            x0, x1 = sx(sh.start), sx(max(sh.end - 1, sh.start))
            out.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(_MARGIN_T)}" width="{_fmt(x1 - x0)}" '
                f'height="{_fmt(plot_h)}" fill="{SHADE_PALETTE[i % len(SHADE_PALETTE)]}" '
                'fill-opacity="0.55"/>'
            )
            out.append(
                f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(_MARGIN_T + 12 + 11 * (i % 2))}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="9" '
                f'fill="#444444">{_esc(sh.label)}</text>'
            )
        out.append(
            f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" width="{_fmt(plot_w)}" '
            f'height="{_fmt(plot_h)}" fill="none" stroke="#333333"/>'
        )
        for tv in _ticks(0.0, float(n - 1)):
            x = sx(tv)
            out += _tick(x, bottom, x, bottom + 4, x, bottom + 16, "middle", tv)
        for tv in _ticks(l_lo, l_hi):
            y = sy(tv, l_lo, l_hi)
            out += _tick(_MARGIN_L - 4, y, _MARGIN_L, y, _MARGIN_L - 7, y + 3, "end", tv)
        if right:
            for tv in _ticks(r_lo, r_hi):
                y = sy(tv, r_lo, r_hi)
                out += _tick(right_edge, y, right_edge + 4, y, right_edge + 7, y + 3, "start", tv)
        out.append(
            f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" y="{_fmt(HEIGHT - 10)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">{X_LABEL}</text>'
        )
        out.append(_axis_title(14, mid_y, -90, Y_LABEL))
        if right:
            out.append(_axis_title(WIDTH - 12, mid_y, 90, right[0].label))
        for s in self.series:
            lo, hi = (l_lo, l_hi) if s.axis == "left" else (r_lo, r_hi)
            starts, ends = true_runs(np.isfinite(s.values))
            for run_start, run_end in zip(starts.tolist(), ends.tolist()):
                pts = [(_fmt(sx(t)), _fmt(sy(float(s.values[t]), lo, hi))) for t in range(run_start, run_end)]
                if len(pts) == 1:
                    out.append(f'<circle cx="{pts[0][0]}" cy="{pts[0][1]}" r="1.5" fill="{s.color}"/>')
                else:
                    points = " ".join(f"{x},{y}" for x, y in pts)
                    out.append(
                        f'<polyline points="{points}" fill="none" stroke="{s.color}" stroke-width="1.5"/>'
                    )
        lx = _MARGIN_L + 8.0
        for s in self.series:
            out.append(
                f'<rect x="{_fmt(lx)}" y="{_fmt(_MARGIN_T - 14)}" width="10" height="10" fill="{s.color}"/>'
            )
            label = s.label + (" (right)" if s.axis == "right" else "")
            out.append(
                f'<text x="{_fmt(lx + 14)}" y="{_fmt(_MARGIN_T - 5)}" font-family="sans-serif" '
                f'font-size="10">{_esc(label)}</text>'
            )
            lx += 14 + 7.0 * len(label) + 16
        out.append("</svg>")
        return "\n".join(out) + "\n"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
