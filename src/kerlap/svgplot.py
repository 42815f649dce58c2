"""Deterministic SVG rendering of benchmark records.

Draws one mean polyline plus a +/- one-standard-deviation band per method
over a log-scaled n axis.  The output is built by plain string formatting
with fixed precision, so identical input bytes produce identical output
bytes (no timestamps, no library-generated ids).
"""

from __future__ import annotations

import math
from collections import defaultdict

from .bench import BenchRecord

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 24, 24, 48

# fixed palette, assigned to methods in sorted order
PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _aggregate(records: list[BenchRecord]) -> dict[str, list[tuple[int, float, float]]]:
    """(n, mean, std) triples per method, NaN (failed) rows skipped."""
    buckets: dict[tuple[str, int], list[float]] = defaultdict(list)
    for r in records:
        if not math.isnan(r.error):
            buckets[(r.method, r.n)].append(r.error)
    series: dict[str, list[tuple[int, float, float]]] = defaultdict(list)
    for (method, n), errs in sorted(buckets.items()):
        mean = sum(errs) / len(errs)
        var = sum((e - mean) ** 2 for e in errs) / len(errs)
        series[method].append((n, mean, math.sqrt(var)))
    return dict(series)


def render_svg(records: list[BenchRecord]) -> str:
    series = _aggregate(records)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    ns = sorted({n for pts in series.values() for (n, _, _) in pts})
    values = [v for pts in series.values() for (_, m, s) in pts for v in (m - s, m + s)]
    if ns:
        lo_x, hi_x = math.log(ns[0]), math.log(ns[-1])
        if hi_x == lo_x:
            lo_x, hi_x = lo_x - 0.5, hi_x + 0.5
        lo_y = min(0.0, min(values))
        hi_y = max(values)
        if hi_y <= lo_y:
            hi_y = lo_y + 1.0
        pad = 0.05 * (hi_y - lo_y)
        lo_y, hi_y = lo_y, hi_y + pad
    else:
        lo_x, hi_x, lo_y, hi_y = 0.0, 1.0, 0.0, 1.0

    def sx(n: int) -> float:
        return MARGIN_L + (math.log(n) - lo_x) / (hi_x - lo_x) * plot_w

    def sy(v: float) -> float:
        return MARGIN_T + (hi_y - v) / (hi_y - lo_y) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        # axes
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-size="13">n (log scale)</text>',
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f})">'
        f'error</text>',
    ]
    # x ticks at each distinct n, y ticks at 5 even splits
    for n in ns:
        x = sx(n)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{HEIGHT - MARGIN_B}" x2="{_fmt(x)}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle" '
            f'font-size="11">{n}</text>'
        )
    for i in range(6):
        v = lo_y + (hi_y - lo_y) * i / 5
        y = sy(v)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{_fmt(y)}" x2="{MARGIN_L}" '
            f'y2="{_fmt(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-size="11">{_fmt(v)}</text>'
        )

    for idx, method in enumerate(sorted(series)):
        pts = series[method]
        color = PALETTE[idx % len(PALETTE)]
        if len(pts) > 1:
            upper = [(sx(n), sy(m + s)) for (n, m, s) in pts]
            lower = [(sx(n), sy(m - s)) for (n, m, s) in reversed(pts)]
            band = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in upper + lower)
            parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.15"/>')
        line = " ".join(f"{_fmt(sx(n))},{_fmt(sy(m))}" for (n, m, _) in pts)
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for (n, m, _) in pts:
            parts.append(
                f'<circle cx="{_fmt(sx(n))}" cy="{_fmt(sy(m))}" r="2.5" fill="{color}"/>'
            )
        ly = MARGIN_T + 16 + 16 * idx
        parts.append(
            f'<line x1="{WIDTH - MARGIN_R - 120}" y1="{ly}" x2="{WIDTH - MARGIN_R - 96}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 90}" y="{ly + 4}" font-size="12">{method}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
