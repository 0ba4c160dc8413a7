"""SVG renderers for barcodes, lifespan heatmaps, and complex skeletons.

All output is hand-written SVG with no timestamps or environment-dependent
fields, so identical inputs render to identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .landmarks import load_landmarks
from .mscan import load_lifespan_csv
from .persistence import load_barcode
from .signal import _read_table

_K_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]

# discrete lifespan palette: index 1..8 (0 renders as background white)
_DM_PALETTE = [
    "#0000c0", "#0070ff", "#00c8c8", "#40d040",
    "#c8c800", "#ff9000", "#e00000", "#800000",
]


def _svg_open(width: int, height: int) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


def render_barcode(path, width: int = 720) -> str:
    """Render a barcode CSV; bars grouped by homology degree, open bars get arrows."""
    rows = load_barcode(path)
    margin_l, margin_r, margin_t, row_h = 60, 30, 24, 10
    ks = sorted({k for k, _, _ in rows})
    finite = [v for _, b, d in rows for v in (b, d) if math.isfinite(v)]
    lo = 0.0
    hi = max(finite) if finite else 1.0
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    hi += 0.05 * span
    plot_w = width - margin_l - margin_r

    def sx(v: float) -> float:
        return margin_l + (v - lo) / (hi - lo) * plot_w

    height = margin_t * 2 + row_h * max(len(rows), 1) + 18 * max(len(ks), 1)
    parts = _svg_open(width, height)
    y = margin_t
    for k in ks:
        color = _K_COLORS[k % len(_K_COLORS)]
        parts.append(f'<text x="8" y="{y + 10}" font-size="12" fill="{color}">k={k}</text>')
        y += 18
        for kk, birth, death in rows:
            if kk != k:
                continue
            x0 = sx(birth)
            if math.isinf(death):
                x1 = margin_l + plot_w
                parts.append(
                    f'<line x1="{x0:.2f}" y1="{y:.2f}" x2="{x1:.2f}" y2="{y:.2f}" '
                    f'stroke="{color}" stroke-width="3"/>'
                )
                parts.append(
                    f'<path d="M {x1:.2f} {y - 4:.2f} l 8 4 l -8 4 z" fill="{color}"/>'
                )
            else:
                x1 = sx(death)
                parts.append(
                    f'<line x1="{x0:.2f}" y1="{y:.2f}" x2="{x1:.2f}" y2="{y:.2f}" '
                    f'stroke="{color}" stroke-width="3"/>'
                )
            y += row_h
    axis_y = y + 6
    parts.append(
        f'<line x1="{margin_l}" y1="{axis_y}" x2="{margin_l + plot_w}" y2="{axis_y}" stroke="black"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        x = sx(v)
        parts.append(f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" y2="{axis_y + 4}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 16}" font-size="10" text-anchor="middle">{_fmt(v)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_heatmap(path, cell_limit: int = 800) -> str:
    """Render a lifespan matrix as a discrete-palette heatmap (0 stays white)."""
    matrix = load_lifespan_csv(path)
    n = matrix.shape[0]
    cell = max(1, cell_limit // max(n, 1))
    size = n * cell + 40
    parts = _svg_open(size, size)
    vmax = len(_DM_PALETTE)
    for i in range(n):
        for j in range(n):
            v = int(matrix[i, j])
            if v <= 0:
                continue
            color = _DM_PALETTE[min(v, vmax) - 1]
            parts.append(
                f'<rect x="{20 + j * cell}" y="{20 + i * cell}" width="{cell}" height="{cell}" '
                f'fill="{color}"/>'
            )
    parts.append(
        f'<rect x="20" y="20" width="{n * cell}" height="{n * cell}" fill="none" stroke="black"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _view_matrix(az_deg: float, el_deg: float) -> np.ndarray:
    az = math.radians(az_deg)
    el = math.radians(el_deg)
    rot_z = np.array(
        [[math.cos(az), -math.sin(az), 0.0], [math.sin(az), math.cos(az), 0.0], [0.0, 0.0, 1.0]]
    )
    rot_x = np.array(
        [[1.0, 0.0, 0.0], [0.0, math.cos(el), -math.sin(el)], [0.0, math.sin(el), math.cos(el)]]
    )
    return rot_x @ rot_z


def render_skeleton(edges_path, landmarks_path, view: tuple[float, float] | None = None, width: int = 720) -> str:
    """Render a 1-skeleton: gray edges between red landmark dots.

    Landmarks in three or more dimensions are projected orthographically;
    ``view=(azimuth, elevation)`` in degrees rotates before dropping the
    third coordinate, and higher coordinates are always dropped.
    """
    lms = load_landmarks(landmarks_path)
    coords = lms.coords
    if coords.shape[1] == 1:
        coords = np.column_stack([coords[:, 0], np.zeros(len(coords))])
    elif coords.shape[1] >= 3:
        xyz = coords[:, :3]
        if view is not None:
            xyz = xyz @ _view_matrix(view[0], view[1]).T
        coords = xyz[:, :2]
    else:
        coords = coords[:, :2]

    ell = len(coords)
    table = _read_table(edges_path, "i,j,birth", ints=2)
    edges = table.ints.tolist()
    for row, (i, j) in enumerate(edges):
        if not (0 <= i < ell and 0 <= j < ell):
            raise table.error(row, f"edge ({i}, {j}) names a landmark outside [0, {ell})")

    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    height = int(width * 0.75)
    pad = 20

    def to_px(p) -> tuple[float, float]:
        x = pad + (p[0] - lo[0]) / span[0] * (width - 2 * pad)
        y = pad + (1.0 - (p[1] - lo[1]) / span[1]) * (height - 2 * pad)
        return x, y

    parts = _svg_open(width, height)
    for i, j in edges:
        x0, y0 = to_px(coords[i])
        x1, y1 = to_px(coords[j])
        parts.append(
            f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
            f'stroke="#888888" stroke-width="0.6"/>'
        )
    for p in coords:
        x, y = to_px(p)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.2" fill="#d62728"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
