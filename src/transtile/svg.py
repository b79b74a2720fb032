"""Hand-emitted SVG charts: line plots and heatmaps.

No plotting dependency: the experiment runner needs byte-identical
output for identical input, and chart libraries do not promise that.
Numbers are formatted through one canonical routine and every element
is written in a fixed order.
"""

from __future__ import annotations

from typing import Optional, Sequence

WIDTH = 640
HEIGHT = 420
MARGIN_L = 64
MARGIN_R = 20
MARGIN_T = 36
MARGIN_B = 52


def escape(text: str) -> str:
    """Escape &, < and > for XML character data, as xml.sax.saxutils does.

    Written out because importing xml.sax.saxutils also loads urllib,
    http, ssl and email, which the set-up of every run would pay for.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    # canonical numeric text; -0 and 7.0000001 round-offs would otherwise
    # leak platform noise into the byte stream
    s = f"{float(x):.6g}"
    return "0" if s == "-0" else s


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _header(title: str) -> list[str]:
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{escape(title)}</text>'
        )
    return out


def _axis_labels(x_label: str, y_label: str) -> list[str]:
    cx = MARGIN_L + (WIDTH - MARGIN_L - MARGIN_R) / 2
    cy = MARGIN_T + (HEIGHT - MARGIN_T - MARGIN_B) / 2
    return [
        f'<text x="{_fmt(cx)}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{escape(x_label)}</text>',
        f'<text x="16" y="{_fmt(cy)}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {_fmt(cy)})">{escape(y_label)}</text>',
    ]


def line_plot(
    points: Sequence[tuple[float, float]],
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """Polyline chart with dot markers; points plot in the given order."""
    if not points:
        raise ValueError("line plot needs at least one point")
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = _header(title)
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>'
    )
    for t in _ticks(x_lo, x_hi):
        x = _fmt(px(t))
        out.append(
            f'<line x1="{x}" y1="{MARGIN_T + plot_h}" x2="{x}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{x}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{_fmt(t)}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = _fmt(py(t))
        out.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y}" x2="{MARGIN_L}" y2="{y}" stroke="#444"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{y}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="monospace" font-size="10">{_fmt(t)}</text>'
        )
    if len(points) > 1:
        path = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{path}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>'
        )
    for x, y in zip(xs, ys):
        out.append(
            f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" fill="#1f6fb2"/>'
        )
    out.extend(_axis_labels(x_label, y_label))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _heat_color(t: float) -> str:
    # two-ramp scale: dark blue -> white -> dark red
    t = min(1.0, max(0.0, t))
    if t < 0.5:
        f = t / 0.5
        r, g, b = int(40 + f * 215), int(60 + f * 195), 200 + int(f * 55)
    else:
        f = (t - 0.5) / 0.5
        r, g, b = 255, int(255 - f * 195), int(255 - f * 215)
    return f"#{r:02x}{g:02x}{b:02x}"


def heatmap(
    values: Sequence[Sequence[float]],
    x_label: str,
    y_label: str,
    x_ticks: Optional[Sequence[str]] = None,
    y_ticks: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Grid chart; values[r][c] drawn top-to-bottom, left-to-right."""
    if not values or not values[0]:
        raise ValueError("heatmap needs a non-empty value grid")
    rows, cols = len(values), len(values[0])
    if any(len(r) != cols for r in values):
        raise ValueError("heatmap rows must have equal length")
    flat = [float(v) for row in values for v in row]
    lo, hi = min(flat), max(flat)
    span = (hi - lo) or 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    cw, ch = plot_w / cols, plot_h / rows
    out = _header(title)
    for r in range(rows):
        for c in range(cols):
            t = (float(values[r][c]) - lo) / span
            out.append(
                f'<rect x="{_fmt(MARGIN_L + c * cw)}" y="{_fmt(MARGIN_T + r * ch)}" '
                f'width="{_fmt(cw)}" height="{_fmt(ch)}" fill="{_heat_color(t)}">'
                f"<title>{_fmt(values[r][c])}</title></rect>"
            )
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>'
    )
    for c, label in enumerate(x_ticks or []):
        if c >= cols:
            break
        x = _fmt(MARGIN_L + (c + 0.5) * cw)
        out.append(
            f'<text x="{x}" y="{MARGIN_T + plot_h + 16}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{escape(str(label))}</text>'
        )
    for r, label in enumerate(y_ticks or []):
        if r >= rows:
            break
        y = _fmt(MARGIN_T + (r + 0.5) * ch)
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{y}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="monospace" font-size="10">{escape(str(label))}</text>'
        )
    out.extend(_axis_labels(x_label, y_label))
    out.append("</svg>")
    return "\n".join(out) + "\n"
