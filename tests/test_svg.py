import numpy as np

from qubit_reach import SystemParams, spiral_region, svg

P = SystemParams.from_ratio(0.1)


def test_path_formats_every_point():
    # the viewport corners, a coordinate that rounds to -0.000, and a generic one
    pts = [(0.0, 0.0), (-1.1 - 1e-6, 1.1), (1.1, -1.1), (0.123456, -0.98765)]
    assert svg._path(pts, stroke="#000000", width=1.5) == (
        '<path d="M 280.000 280.000 L -0.000 0.000 L 560.000 560.000 L 311.425 531.402" '
        'fill="none" stroke="#000000" stroke-width="1.5" />'
    )


def test_path_single_point():
    # `qubit-reach spiral --samples 1` draws each arc as one point
    (arc, *_) = spiral_region(P).arcs(1)
    assert arc.shape == (1, 2)
    assert svg._path(arc, stroke="#2e8b57", width=1.0) == (
        '<path d="M 280.000 25.455" fill="none" stroke="#2e8b57" stroke-width="1.0" />'
    )


def test_path_empty():
    empty = '<path d="" fill="none" stroke="#000000" stroke-width="1.5" />'
    assert svg._path(np.zeros((0, 2)), stroke="#000000", width=1.5) == empty
    assert svg._path([], stroke="#000000", width=1.5) == empty
