"""Affine vector-field algebra on R^3 and full-rank certificates.

An affine field is f(r) = A r + b.  The Lie bracket of two affine fields
is again affine, with

    [f, g](r) = (A B - B A) r + (A b_g - B b_f),

the sign convention under which the bracket hierarchy built from the
drift f0 and the control field f1 reproduces the closed-form displays
f3 .. f6 checked in the test suite.  All coefficient arithmetic is exact
in doubles; identity checks sample enough points to pin the low-degree
polynomials uniquely.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bloch import field_f
from .params import SystemParams


@dataclass
class AffineField:
    """Vector field r -> A r + b on R^3."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float).reshape(3, 3)
        self.b = np.asarray(self.b, dtype=float).reshape(3)

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return r @ self.A.T + self.b


def bracket(f: AffineField, g: AffineField) -> AffineField:
    """Lie bracket [f, g] of two affine fields (exact coefficients)."""
    return AffineField(f.A @ g.A - g.A @ f.A, f.A @ g.b - g.A @ f.b)


def _affine_from_field(index: int, params: SystemParams) -> AffineField:
    # Recover (A, b) by evaluating the field at 0 and the basis points.
    b = field_f(index, np.zeros(3), params)
    cols = [field_f(index, e, params) - b for e in np.eye(3)]
    return AffineField(np.column_stack(cols), b)


def canonical_fields(params: SystemParams) -> dict[str, AffineField]:
    """The bracket family f0, f1, f2, f3=[f0,f1], f4=[f0,f3], f5=[f1,f3],
    f6=[f1,f5], f7=(ad f1)^4 f0."""
    f0, f1, f2 = (_affine_from_field(k, params) for k in range(3))
    f3 = bracket(f0, f1)
    f5 = bracket(f1, f3)
    return {"f0": f0, "f1": f1, "f2": f2, "f3": f3, "f4": bracket(f0, f3),
            "f5": f5, "f6": bracket(f1, f5), "f7": bracket(f1, bracket(f1, bracket(f1, bracket(f1, f0))))}


def det_triple(fields, names, r) -> float:
    """Determinant of the 3x3 matrix with columns fields[name](r)."""
    cols = [fields[name](r) for name in names]
    return float(np.linalg.det(np.column_stack(cols)))


# Candidate witness triples, tried in order.  The fourth one covers the
# poles ry = 0, rz = 1; none of the four works on the rx-axis (there
# f1 vanishes and f6 = -f3), which is what the span fallback is for.
WITNESS_TRIPLES = (
    ("f1", "f3", "f5"),
    ("f1", "f3", "f6"),
    ("f3", "f4", "f6"),
    ("f1", "f3", "f7"),
)

_BRACKET_FAMILY = ("f0", "f1", "f3", "f4", "f5", "f6", "f7")
DET_TOL = 1e-12  # |det| of a witness triple above which it certifies rank 3


@dataclass
class RankCertificate:
    rank: int
    witness: tuple[str, str, str]
    determinant: float
    point: np.ndarray


def rank_certificate(r, params: SystemParams, fields: dict) -> RankCertificate:
    """Certify the rank of the bracket distribution of (f0, f1) at ``r``,
    given the canonical_fields of params.

    Tries the standard witness triples first; when all of them degenerate
    (e.g. on the rx-axis) falls back to the numeric span of the whole
    bracket family and reports the best-conditioned triple found there.
    Requires gamma > 0: every determinant below carries a gamma/omega
    factor and the certificate is vacuous for a closed system.
    """
    if params.gamma <= 0:
        raise ValueError("rank certificates require gamma > 0")
    r = np.asarray(r, dtype=float)
    for names in WITNESS_TRIPLES:
        det = det_triple(fields, names, r)
        if abs(det) > DET_TOL:
            return RankCertificate(3, names, det, point=r)
    # Span fallback over the full bracket family.
    values = np.stack([fields[name](r) for name in _BRACKET_FAMILY])
    svals = np.linalg.svd(values, compute_uv=False)
    rank = int(np.sum(svals > 1e-10 * max(1.0, svals[0])))
    best_names, best_det = ("f0", "f1", "f3"), 0.0
    for names in combinations(_BRACKET_FAMILY, 3):
        det = det_triple(fields, names, r)
        if abs(det) > abs(best_det):
            best_names, best_det = names, det
    return RankCertificate(rank, tuple(best_names), best_det, point=r)


def rank_grid(params: SystemParams, n: int):
    """Rank certificates on an n^3 grid over the Bloch ball.

    Yields RankCertificate objects for every grid point with |r| <= 1.
    """
    fields = canonical_fields(params)
    axis = np.linspace(-1.0, 1.0, n)
    for rx in axis:
        for ry in axis:
            for rz in axis:
                if rx * rx + ry * ry + rz * rz > 1.0 + 1e-12:
                    continue
                yield rank_certificate(np.array([rx, ry, rz]), params, fields=fields)
