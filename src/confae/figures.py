"""Self-contained SVG figures for diagnostics files.

No plotting library: figures are assembled as plain SVG markup with fixed
float formatting, so identical inputs produce byte-identical files. Each
figure embeds its color-scale endpoints in a ``<metadata>`` element.
"""

from __future__ import annotations

import json
import math

import numpy as np

WIDTH = 640
HEIGHT = 640
MARGIN = 60

# truncated viridis anchors
_SEQUENTIAL = (
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
)
# blue-white-red for signed fields
_DIVERGING = (
    (33, 102, 172),
    (247, 247, 247),
    (178, 24, 43),
)


def _fmt(v: float) -> str:
    return format(float(v), ".6g")


def _interp_color(stops, t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(stops) - 1)
    i = min(int(pos), len(stops) - 2)
    frac = pos - i
    rgb = [round(a + (b - a) * frac) for a, b in zip(stops[i], stops[i + 1])]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _axis_map(values: np.ndarray, lo_px: float, hi_px: float):
    vmin, vmax = float(values.min()), float(values.max())
    if vmax == vmin:
        center = 0.5 * (lo_px + hi_px)
        return lambda v: center
    scale = (hi_px - lo_px) / (vmax - vmin)
    return lambda v: lo_px + (v - vmin) * scale


def _document(body: list[str], meta: dict) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<metadata>{json.dumps(meta, sort_keys=True)}</metadata>",
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def scatter_svg(
    codes: np.ndarray, values: np.ndarray, title: str, *, diverging: bool = False
) -> str:
    """Latent scatter colored by a per-point value."""
    codes = np.asarray(codes, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    vmin, vmax = float(values.min()), float(values.max())
    span = vmax - vmin
    stops = _DIVERGING if diverging else _SEQUENTIAL
    to_x = _axis_map(codes[:, 0], MARGIN, WIDTH - MARGIN)
    to_y = _axis_map(codes[:, 1], HEIGHT - MARGIN, MARGIN)  # flip y
    body = [
        f'<text x="{MARGIN}" y="30" font-family="sans-serif" font-size="16">{title}</text>',
        f'<text x="{MARGIN}" y="{HEIGHT - 20}" font-family="sans-serif" font-size="12">'
        f"min {_fmt(vmin)} / max {_fmt(vmax)}</text>",
    ]
    for (zx, zy), v in zip(codes, values):
        t = 0.5 if span == 0.0 else (v - vmin) / span
        body.append(
            f'<circle cx="{_fmt(to_x(zx))}" cy="{_fmt(to_y(zy))}" r="3" '
            f'fill="{_interp_color(stops, t)}"/>'
        )
    return _document(body, {"title": title, "vmin": vmin, "vmax": vmax})


def kappa_strip_svg(kjac: np.ndarray) -> str:
    """One log-scale strip of the Jacobian's condition numbers kappa_jac with a
    mean marker; the metadata holds the finite range and the count of infinite
    sentinels, which are not drawn."""
    kjac = np.asarray(kjac, dtype=np.float64)
    finite = kjac[np.isfinite(kjac)]
    if finite.size == 0:
        raise ValueError("no finite condition numbers to plot")
    to_x = _axis_map(np.log10(finite), MARGIN, WIDTH - MARGIN)
    row_y = HEIGHT / 2
    body = [
        '<text x="60" y="30" font-family="sans-serif" font-size="16">'
        "kappa_jac (log scale)</text>"
    ]
    for i, v in enumerate(finite):
        jitter = (i % 9 - 4) * 4.0
        body.append(
            f'<circle cx="{_fmt(to_x(math.log10(v)))}" cy="{_fmt(row_y + jitter)}" '
            f'r="2.5" fill="#335566" fill-opacity="0.5"/>'
        )
    mx = to_x(math.log10(finite.mean()))
    body.append(
        f'<polygon points="{_fmt(mx)},{_fmt(row_y - 28)} {_fmt(mx - 7)},{_fmt(row_y - 40)} '
        f'{_fmt(mx + 7)},{_fmt(row_y - 40)}" fill="#1a7a1a"/>'
    )
    meta = {
        "title": "kappa_jac",
        "vmin": float(finite.min()),
        "vmax": float(finite.max()),
        "excluded_infinite": int(kjac.size - finite.size),
    }
    return _document(body, meta)
