"""Deterministic SVG emission for meridian-plane figures.

Styling is fixed on purpose: identical inputs produce byte-identical
files, so figures can be regression-tested by text diff.  The viewport
maps the meridian square [-1.1, 1.1]^2 to pixels with z rightward and R
upward.
"""

from __future__ import annotations

import numpy as np

SIZE = 560
_SPAN = 1.1


def _x(z: float) -> float:
    return (z + _SPAN) / (2 * _SPAN) * SIZE


def _y(r: float) -> float:
    return (r + _SPAN) / (2 * _SPAN) * SIZE * -1 + SIZE


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _path(points, stroke: str, width: float) -> str:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    xy = np.stack([_x(pts[:, 0]), _y(pts[:, 1])], axis=1)
    d = " L ".join(["%.3f %.3f"] * len(xy)) % tuple(xy.ravel().tolist())
    return (
        f'<path d="{"M " + d if d else ""}" fill="none" stroke="{stroke}" '
        f'stroke-width="{width}" />'
    )


def figure(spiral_arcs, title: str, boundaries=()) -> str:
    """Unit circle plus boundary polylines plus spiral arcs, titled unless title is empty."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white" />',
        f'<circle cx="{_fmt(_x(0.0))}" cy="{_fmt(_y(0.0))}" '
        f'r="{_fmt(SIZE / (2 * _SPAN))}" fill="none" stroke="#999999" '
        'stroke-width="1.0" />',
    ]
    for arc in spiral_arcs:
        parts.append(_path(arc, stroke="#2e8b57", width=1.0))
    for loop in boundaries:
        parts.append(_path(loop, stroke="#000000", width=1.5))
    if title:
        parts.append(
            f'<text x="8" y="18" font-family="monospace" font-size="14">{title}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def reachset_figure(set2d, spiral, label: str | None = None) -> str:
    arcs = spiral.arcs(256) if spiral is not None else ()
    title = label if label is not None else f"wT = {set2d.T_scaled:g}"
    return figure(arcs, title, boundaries=set2d.boundary)

