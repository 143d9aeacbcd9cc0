"""Deterministic SVG rendering of phase-colored graphs.

Quarter-turn phases use the fixed palette blue #0000ff (0), green #00ff00
(pi/2), red #ff0000 (pi), yellow #ffff00 (3pi/2). Phases off the quarter
lattice fall back to a continuous hue wheel and the image gains a legend.
Output is byte-identical for identical inputs.
"""

from __future__ import annotations

import colorsys
import math

import numpy as np

from .degeneracy import QuarterLabeling
from .graphs import Graph
from .oscillator import HALF_PI, TWO_PI, circular_distance, phase_vector

PALETTE = ("#0000ff", "#00ff00", "#ff0000", "#ffff00")
QUARTER_NAMES = ("0", "pi/2", "pi", "3pi/2")

__all__ = ["PALETTE", "render_svg", "circular_layout", "hypercube_layout"]


def circular_layout(n: int) -> list[tuple[float, float]]:
    """Vertex k at angle 2 pi k / n on the unit circle."""
    return [
        (math.cos(TWO_PI * k / n), math.sin(TWO_PI * k / n)) for k in range(n)
    ] or [(0.0, 0.0)]


def hypercube_layout(n: int) -> list[tuple[float, float]]:
    """Nested-squares preset for 2^d vertices: bit pairs pick square corners
    at geometrically growing scales; an odd top bit becomes a diagonal nudge."""
    d = n.bit_length() - 1
    if n < 1 or (1 << d) != n:
        raise ValueError("hypercube layout needs a power-of-two vertex count")
    pts = []
    for v in range(n):
        x = y = 0.0
        for pair in range(d // 2):
            b0 = (v >> (2 * pair)) & 1
            b1 = (v >> (2 * pair + 1)) & 1
            s = 3.0**pair
            x += s * (2 * b0 - 1)
            y += s * (2 * b1 - 1)
        if d % 2:
            b = (v >> (d - 1)) & 1
            s = 3.0 ** (d // 2)
            x += 0.5 * s * (2 * b - 1)
            y += 0.25 * s * (2 * b - 1)
        pts.append((x, y))
    return pts


def _hue_color(theta: float) -> str:  # theta in [0, 2pi)
    r, g, b = colorsys.hsv_to_rgb(theta / TWO_PI, 1.0, 1.0)
    return f"#{round(255 * r):02x}{round(255 * g):02x}{round(255 * b):02x}"


def _vertex_colors(theta: np.ndarray, tol: float) -> tuple[list[str], bool]:
    """Per vertex the nearest quarter's color within tol, else the hue; and if any is a hue."""
    m = np.rint(theta / HALF_PI).astype(int) % 4
    on = circular_distance(theta, m * HALF_PI) <= tol
    colors = [PALETTE[k] if ok else _hue_color(t)
              for k, ok, t in zip(m.tolist(), on.tolist(), theta.tolist())]
    return colors, not on.all()


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_svg(g: Graph, theta, layout="circular", tol: float = 1.0e-9) -> str:
    """SVG text for the graph with vertices colored by phase.

    theta is either a QuarterLabeling (colored by label) or a phase vector
    (colored by nearest quarter within tol, else by hue). layout is
    "circular", "hypercube", or an explicit (x, y) sequence per vertex.
    """
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    n = g.vertex_count
    if isinstance(theta, QuarterLabeling):
        if len(theta) != n:
            raise ValueError(f"labeling has {len(theta)} entries for {n} vertices")
        colors = [PALETTE[l] for l in theta.labels]
        legend = False
    else:
        phases = phase_vector(theta, n)
        colors, legend = _vertex_colors(phases, tol)

    if layout == "circular":
        raw = circular_layout(n)
    elif layout == "hypercube":
        raw = hypercube_layout(n)
    else:
        raw = [(float(x), float(y)) for x, y in layout]
        if len(raw) != n:
            raise ValueError(f"layout provides {len(raw)} positions for {n} vertices")
        if not np.isfinite(raw).all():
            raise ValueError("layout positions must be finite")

    size = 420.0
    margin = 40.0
    xs = [p[0] for p in raw]
    ys = [p[1] for p in raw]
    # halves before sums, so a huge finite layout cannot overflow to inf
    half = max(0.5 * max(xs) - 0.5 * min(xs), 0.5 * max(ys) - 0.5 * min(ys), 0.5e-9)
    scale = (0.5 * size - margin) / half
    cx = 0.5 * max(xs) + 0.5 * min(xs)
    cy = 0.5 * max(ys) + 0.5 * min(ys)
    pos = [
        (size / 2.0 + scale * (x - cx), size / 2.0 - scale * (y - cy)) for x, y in raw
    ]

    width = size + (90.0 if legend else 0.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(size)}" viewBox="0 0 {_fmt(width)} {_fmt(size)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(size)}" fill="#ffffff"/>',
        '<g stroke="#000000" stroke-width="1.5">',
    ]
    for u, v in g.edges:
        (x1, y1), (x2, y2) = pos[u], pos[v]
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
        )
    parts.append("</g>")
    for k in range(n):
        x, y = pos[k]
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="9.00" '
            f'fill="{colors[k]}" stroke="#000000" stroke-width="1.2"/>'
        )
    if legend:
        bands = 24
        x0 = size + 20.0
        bar_top = margin
        bar_h = size - 2.0 * margin
        for i in range(bands):
            hue = _hue_color(TWO_PI * (i + 0.5) / bands)
            y = bar_top + bar_h * i / bands
            parts.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y)}" width="18.00" '
                f'height="{_fmt(bar_h / bands + 0.5)}" fill="{hue}"/>'
            )
        for i, name in enumerate(QUARTER_NAMES):
            y = bar_top + bar_h * i / 4.0 + 4.0
            parts.append(
                f'<text x="{_fmt(x0 + 24.0)}" y="{_fmt(y)}" '
                f'font-family="monospace" font-size="12">{name}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
