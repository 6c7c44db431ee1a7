"""Minimal deterministic SVG rendering for heatmaps and line plots.

No plotting dependency: figures are assembled as plain SVG strings with
fixed float formatting, so identical inputs give identical bytes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["heatmap_svg", "line_svg"]

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 24.0, 34.0, 48.0
_PLOT_W, _PLOT_H = 440.0, 330.0

# Perceptual colormap anchors, dark-to-bright.
_CMAP = np.array(
    [
        (0.267, 0.005, 0.329),
        (0.283, 0.141, 0.458),
        (0.254, 0.265, 0.530),
        (0.207, 0.372, 0.553),
        (0.164, 0.471, 0.558),
        (0.128, 0.567, 0.551),
        (0.135, 0.659, 0.518),
        (0.267, 0.749, 0.441),
        (0.478, 0.821, 0.318),
        (0.741, 0.873, 0.150),
        (0.993, 0.906, 0.144),
    ]
)

_LINE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _f(v: float) -> str:
    return f"{v:.2f}"


def _color(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0) * (len(_CMAP) - 1)
    idx = np.minimum(t.astype(int), len(_CMAP) - 2)
    frac = t - idx
    rgb = _CMAP[idx] * (1.0 - frac[..., None]) + _CMAP[idx + 1] * frac[..., None]
    return (rgb * 255.0 + 0.5).astype(int)


def _axes(parts: list[str], xlo: float, xhi: float, ylo: float, yhi: float, xlabel: str, ylabel: str, title: str) -> None:
    x0, y0 = _MARGIN_L, _MARGIN_T
    x1, y1 = x0 + _PLOT_W, y0 + _PLOT_H
    parts.append(
        f'<rect x="{_f(x0)}" y="{_f(y0)}" width="{_f(_PLOT_W)}" height="{_f(_PLOT_H)}" '
        'fill="none" stroke="#333" stroke-width="1"/>'
    )
    for tx in np.linspace(xlo, xhi, 5):
        px = x0 + (tx - xlo) / (xhi - xlo) * _PLOT_W
        parts.append(f'<line x1="{_f(px)}" y1="{_f(y1)}" x2="{_f(px)}" y2="{_f(y1 + 5)}" stroke="#333"/>')
        parts.append(
            f'<text x="{_f(px)}" y="{_f(y1 + 18)}" font-size="11" text-anchor="middle">{tx:.3g}</text>'
        )
    for ty in np.linspace(ylo, yhi, 5):
        py = y1 - (ty - ylo) / (yhi - ylo) * _PLOT_H
        parts.append(f'<line x1="{_f(x0 - 5)}" y1="{_f(py)}" x2="{_f(x0)}" y2="{_f(py)}" stroke="#333"/>')
        parts.append(
            f'<text x="{_f(x0 - 8)}" y="{_f(py + 4)}" font-size="11" text-anchor="end">{ty:.3g}</text>'
        )
    parts.append(
        f'<text x="{_f(x0 + _PLOT_W / 2)}" y="{_f(y1 + 36)}" font-size="13" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_f(y0 + _PLOT_H / 2)}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_f(y0 + _PLOT_H / 2)})">{ylabel}</text>'
    )
    parts.append(
        f'<text x="{_f(x0 + _PLOT_W / 2)}" y="20" font-size="14" text-anchor="middle" font-weight="bold">{title}</text>'
    )


def _write_document(path, legend_width: float, body: list[str]) -> None:
    """Write `body` as an SVG document on white; `legend_width` is the room right of the plot."""
    total_w = _MARGIN_L + _PLOT_W + _MARGIN_R + legend_width
    total_h = _MARGIN_T + _PLOT_H + _MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(total_w)}" height="{_f(total_h)}" '
        f'viewBox="0 0 {_f(total_w)} {_f(total_h)}">',
        '<rect width="100%" height="100%" fill="white"/>',
        *body,
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def heatmap_svg(
    path,
    values: np.ndarray,
    extent: tuple[tuple[float, float], tuple[float, float]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Render a 2-d array as a color map; values[i, j] maps x to axis 0.

    The first array axis runs along x, the second along y (y up), matching
    the (axis0, axis1) convention of the gridded densities.
    """
    values = np.asarray(values, dtype=float)
    (xlo, xhi), (ylo, yhi) = extent
    vmax = values.max()
    vmin = values.min()
    norm = (values - vmin) / (vmax - vmin) if vmax > vmin else np.zeros_like(values)
    rgb = _color(norm)
    nx, ny = values.shape
    w = _PLOT_W / nx
    h = _PLOT_H / ny
    parts: list[str] = []
    for i in range(nx):
        for j in range(ny):
            r, g, b = rgb[i, j]
            px = _MARGIN_L + i * w
            py = _MARGIN_T + _PLOT_H - (j + 1) * h
            parts.append(
                f'<rect x="{_f(px)}" y="{_f(py)}" width="{_f(w + 0.5)}" height="{_f(h + 0.5)}" '
                f'fill="rgb({r},{g},{b})"/>'
            )
    _axes(parts, xlo, xhi, ylo, yhi, xlabel, ylabel, title)
    # Colorbar.
    bar_x = _MARGIN_L + _PLOT_W + 30
    steps = 64
    for s in range(steps):
        r, g, b = _color(np.array([(s + 0.5) / steps]))[0]
        py = _MARGIN_T + _PLOT_H * (1.0 - (s + 1) / steps)
        parts.append(
            f'<rect x="{_f(bar_x)}" y="{_f(py)}" width="14" height="{_f(_PLOT_H / steps + 0.5)}" '
            f'fill="rgb({r},{g},{b})"/>'
        )
    parts.append(
        f'<text x="{_f(bar_x + 20)}" y="{_f(_MARGIN_T + 10)}" font-size="10">{vmax:.4g}</text>'
    )
    parts.append(
        f'<text x="{_f(bar_x + 20)}" y="{_f(_MARGIN_T + _PLOT_H)}" font-size="10">{vmin:.4g}</text>'
    )
    _write_document(path, 74, parts)


def line_svg(
    path,
    series: list[dict],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Render line series: each item needs `x`, `y`, `label`, optional `dash`."""
    if not series:
        raise ValueError("no series to plot")
    xlo = min(float(np.min(s["x"])) for s in series)
    xhi = max(float(np.max(s["x"])) for s in series)
    ylo = 0.0
    yhi = max(float(np.max(s["y"])) for s in series) * 1.05
    if yhi <= ylo:
        yhi = ylo + 1.0
    parts: list[str] = []
    for idx, s in enumerate(series):
        x = np.asarray(s["x"], dtype=float)
        y = np.asarray(s["y"], dtype=float)
        color = _LINE_COLORS[idx % len(_LINE_COLORS)]
        dash = ' stroke-dasharray="6,4"' if s.get("dash") else ""
        px = _MARGIN_L + (x - xlo) / (xhi - xlo) * _PLOT_W
        py = _MARGIN_T + _PLOT_H - (np.clip(y, ylo, yhi) - ylo) / (yhi - ylo) * _PLOT_H
        pts = " ".join(f"{_f(a)},{_f(b)}" for a, b in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"{dash}/>')
        ly = _MARGIN_T + 16 + 18 * idx
        lx = _MARGIN_L + _PLOT_W + 34
        parts.append(f'<line x1="{_f(lx)}" y1="{_f(ly - 4)}" x2="{_f(lx + 22)}" y2="{_f(ly - 4)}" stroke="{color}" stroke-width="2"{dash}/>')
        parts.append(f'<text x="{_f(lx + 28)}" y="{_f(ly)}" font-size="11">{s["label"]}</text>')
    _axes(parts, xlo, xhi, ylo, yhi, xlabel, ylabel, title)
    _write_document(path, 150, parts)
