"""Minimal deterministic SVG line charts.

Charts are plain text assembled with fixed float formatting, so the
same data always yields byte-identical files -- no display server, no
library-version drift.  Supports one or two y axes, NaN-gapped lines,
and shaded step intervals for phase annotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
SHADE_PALETTE = ("#c6dbef", "#fdd0a2", "#c7e9c0", "#dadaeb")

_MARGIN_L = 64.0
_MARGIN_R = 64.0
_MARGIN_T = 48.0
_MARGIN_B = 44.0
WIDTH = 840
HEIGHT = 420
X_LABEL = "step"


@dataclass(frozen=True)
class Series:
    label: str
    values: np.ndarray
    color: str
    axis: str = "left"  # "left" or "right"


@dataclass(frozen=True)
class Shade:
    start: int
    end: int
    color: str
    label: str = ""


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions on a 1/2/5 ladder covering [lo, hi]."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
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
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


@dataclass
class LineChart:
    """Accumulates series and renders a standalone SVG document."""

    title: str
    y_label: str = ""
    y_right_label: str = ""
    series: list[Series] = field(default_factory=list)
    shades: list[Shade] = field(default_factory=list)

    def add_series(self, label: str, values, color: str | None = None, axis: str = "left"):
        arr = np.asarray(values, dtype=np.float64)
        color = color or PALETTE[len(self.series) % len(PALETTE)]
        self.series.append(Series(label=label, values=arr, color=color, axis=axis))

    def add_shade(self, start: int, end: int, color: str, label: str = ""):
        self.shades.append(Shade(start=start, end=end, color=color, label=label))

    def render(self) -> str:
        n = max((s.values.size for s in self.series), default=2)
        plot_w = WIDTH - _MARGIN_L - _MARGIN_R
        plot_h = HEIGHT - _MARGIN_T - _MARGIN_B

        def sx(t: float) -> float:
            return _MARGIN_L + (t / max(n - 1, 1)) * plot_w

        left = [s.values for s in self.series if s.axis == "left"]
        right = [s.values for s in self.series if s.axis == "right"]
        l_lo, l_hi = _axis_range(left)
        r_lo, r_hi = _axis_range(right)

        def sy(v: float, lo: float, hi: float) -> float:
            return _MARGIN_T + (1.0 - (v - lo) / (hi - lo)) * plot_h

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
                f'height="{_fmt(plot_h)}" fill="{sh.color}" fill-opacity="0.55"/>'
            )
            if sh.label:
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
            out.append(
                f'<line x1="{_fmt(x)}" y1="{_fmt(_MARGIN_T + plot_h)}" x2="{_fmt(x)}" '
                f'y2="{_fmt(_MARGIN_T + plot_h + 4)}" stroke="#333333"/>'
            )
            out.append(
                f'<text x="{_fmt(x)}" y="{_fmt(_MARGIN_T + plot_h + 16)}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="10">{tv:g}</text>'
            )
        for tv in _ticks(l_lo, l_hi):
            y = sy(tv, l_lo, l_hi)
            out.append(
                f'<line x1="{_fmt(_MARGIN_L - 4)}" y1="{_fmt(y)}" x2="{_fmt(_MARGIN_L)}" '
                f'y2="{_fmt(y)}" stroke="#333333"/>'
            )
            out.append(
                f'<text x="{_fmt(_MARGIN_L - 7)}" y="{_fmt(y + 3)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="10">{tv:g}</text>'
            )
        if right:
            for tv in _ticks(r_lo, r_hi):
                y = sy(tv, r_lo, r_hi)
                out.append(
                    f'<line x1="{_fmt(_MARGIN_L + plot_w)}" y1="{_fmt(y)}" '
                    f'x2="{_fmt(_MARGIN_L + plot_w + 4)}" y2="{_fmt(y)}" stroke="#333333"/>'
                )
                out.append(
                    f'<text x="{_fmt(_MARGIN_L + plot_w + 7)}" y="{_fmt(y + 3)}" '
                    f'text-anchor="start" font-family="sans-serif" font-size="10">{tv:g}</text>'
                )
        out.append(
            f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" y="{_fmt(HEIGHT - 10)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">{X_LABEL}</text>'
        )
        if self.y_label:
            out.append(
                f'<text x="14" y="{_fmt(_MARGIN_T + plot_h / 2)}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11" '
                f'transform="rotate(-90 14 {_fmt(_MARGIN_T + plot_h / 2)})">{_esc(self.y_label)}</text>'
            )
        if self.y_right_label and right:
            x = WIDTH - 12
            out.append(
                f'<text x="{x}" y="{_fmt(_MARGIN_T + plot_h / 2)}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11" '
                f'transform="rotate(90 {x} {_fmt(_MARGIN_T + plot_h / 2)})">{_esc(self.y_right_label)}</text>'
            )
        for s in self.series:
            lo, hi = (l_lo, l_hi) if s.axis == "left" else (r_lo, r_hi)
            for run_start, run_end in _finite_runs(s.values):
                pts = " ".join(
                    f"{_fmt(sx(t))},{_fmt(sy(float(s.values[t]), lo, hi))}"
                    for t in range(run_start, run_end)
                )
                if run_end - run_start == 1:
                    t = run_start
                    out.append(
                        f'<circle cx="{_fmt(sx(t))}" cy="{_fmt(sy(float(s.values[t]), lo, hi))}" '
                        f'r="1.5" fill="{s.color}"/>'
                    )
                else:
                    out.append(
                        f'<polyline points="{pts}" fill="none" stroke="{s.color}" stroke-width="1.5"/>'
                    )
        lx = _MARGIN_L + 8.0
        for s in self.series:
            out.append(
                f'<rect x="{_fmt(lx)}" y="{_fmt(_MARGIN_T - 14)}" width="10" height="10" fill="{s.color}"/>'
            )
            label = s.label + (" (right)" if s.axis == "right" and right else "")
            out.append(
                f'<text x="{_fmt(lx + 14)}" y="{_fmt(_MARGIN_T - 5)}" font-family="sans-serif" '
                f'font-size="10">{_esc(label)}</text>'
            )
            lx += 14 + 7.0 * len(label) + 16
        out.append("</svg>")
        return "\n".join(out) + "\n"


def _finite_runs(values: np.ndarray) -> list[tuple[int, int]]:
    runs = []
    start = None
    for i in range(values.size + 1):
        ok = i < values.size and np.isfinite(values[i])
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append((start, i))
            start = None
    return runs


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
