"""Minimal log-log SVG charts for the convergence reports (no plotting deps)."""

import math
from html import escape

_WIDTH, _HEIGHT = 640, 460
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 150, 40, 55
_FLOOR = 1e-18  # log-scale floor for exactly-reproduced (zero-error) series


def _log_ticks(lo, hi):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


class _LogMap:
    def __init__(self, lo, hi, out_lo, out_hi):
        self.lo = math.log10(lo)
        self.hi = math.log10(hi)
        self.out_lo = out_lo
        self.out_hi = out_hi

    def __call__(self, value):
        t = (math.log10(value) - self.lo) / (self.hi - self.lo)
        return self.out_lo + t * (self.out_hi - self.out_lo)


def loglog_svg(path, title, series):
    """Write a log-log polyline chart of L1 error against n.

    series is a list of (label, color, xs, ys) tuples; ys are clipped from
    below at a tiny floor so exactly-zero errors stay plottable.
    """
    xs_all = [x for _, _, xs, _ in series for x in xs]
    ys_all = [max(y, _FLOOR) for _, _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo * 0.9, x_hi * 1.1
    if y_lo == y_hi:
        y_lo, y_hi = y_lo * 0.5, y_hi * 2.0

    x_map = _LogMap(x_lo, x_hi, _MARGIN_L, _WIDTH - _MARGIN_R)
    y_map = _LogMap(y_lo, y_hi, _HEIGHT - _MARGIN_B, _MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title, quote=False)}</text>',
    ]

    # frame
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _HEIGHT - _MARGIN_B, _MARGIN_T
    parts.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )

    for tick in _log_ticks(y_lo, y_hi):
        if not y_lo <= tick <= y_hi:
            continue
        y = y_map(tick)
        parts.append(
            f'<line x1="{x0}" y1="{y:.1f}" x2="{x1}" y2="{y:.1f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{int(math.log10(tick))}</text>'
        )

    for tick in sorted(set(xs_all)):
        x = x_map(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{y0}" x2="{x:.1f}" y2="{y0 + 4}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )

    parts += [
        f'<text x="{(x0 + x1) / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">n</text>',
        f'<text x="18" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.0f})">L1 error</text>',
    ]

    for s_idx, (label, color, xs, ys) in enumerate(series):
        pts = [
            (x_map(x), y_map(max(y, _FLOOR))) for x, y in zip(xs, ys)
        ]
        poly = " ".join(f"{px:.1f},{py:.1f}" for px, py in pts)
        parts.append(
            f'<polyline points="{poly}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
        for px, py in pts:
            parts.append(
                f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="{color}"/>'
            )
        ly = _MARGIN_T + 14 + 18 * s_idx
        lx = _WIDTH - _MARGIN_R + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{escape(label, quote=False)}</text>'
        )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(parts) + "\n")
