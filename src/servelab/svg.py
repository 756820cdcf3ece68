"""Minimal SVG 1.1 polyline chart emitter. No dependencies, no styling
beyond axes, ticks, series colors and a legend."""

from __future__ import annotations

from html import escape

from .errors import RangeError

__all__ = ["polyline_chart"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#e377c2")

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 56
_MARGIN_R = 16
_MARGIN_T = 28
_MARGIN_B = 44


def _bounds(series):
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        raise RangeError("nothing to plot")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 == 0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 == 0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    return x0, x1, y0, y1


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def polyline_chart(series, title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Render labelled (x, y) series as a 640 x 420 SVG line chart.

    series: iterable of (label, points) with points a sequence of
    (x, y) pairs.  Returns the SVG document as a string.
    """
    series = [(str(label), list(pts)) for label, pts in series]
    x0, x1, y0, y1 = _bounds(series)
    pw = _WIDTH - _MARGIN_L - _MARGIN_R
    ph = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + (x - x0) / (x1 - x0) * pw

    def sy(y: float) -> float:
        return _MARGIN_T + ph - (y - y0) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{escape(title, quote=False)}</text>'
        )
    # axes
    ax_y = _MARGIN_T + ph
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{ax_y}" x2="{_MARGIN_L + pw}" y2="{ax_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{ax_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4
        px = sx(fx)
        out.append(
            f'<line x1="{px:.1f}" y1="{ax_y}" x2="{px:.1f}" y2="{ax_y + 4}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{ax_y + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(fx)}</text>'
        )
        fy = y0 + (y1 - y0) * i / 4
        py = sy(fy)
        out.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{py:.1f}" x2="{_MARGIN_L}" y2="{py:.1f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 6}" y="{py + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(fy)}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{_MARGIN_L + pw / 2:.1f}" y="{_HEIGHT - 8}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{escape(x_label, quote=False)}</text>'
        )
    if y_label:
        cx, cy = 14, _MARGIN_T + ph / 2
        out.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" '
            f'transform="rotate(-90 {cx} {cy:.1f})">{escape(y_label, quote=False)}</text>'
        )
    # series
    for i, (label, pts) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
    # legend, top-right corner of the plot area
    for i, (label, _) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        ly = _MARGIN_T + 10 + 14 * i
        lx = _MARGIN_L + pw - 130
        out.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 23}" y="{ly + 3}" font-family="sans-serif" '
            f'font-size="10">{escape(label, quote=False)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)
