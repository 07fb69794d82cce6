import numpy as np
import numpy.testing as npt
import pytest

from qubit_reach import SystemParams
from qubit_reach.liealg import (
    AffineField,
    bracket,
    canonical_fields,
    det_triple,
    rank_certificate,
    rank_grid,
)

P = SystemParams.from_ratio(0.1)
G = P.ratio

# 5 points per axis pin any trivariate polynomial of degree <= 4, which
# covers every identity below with room to spare
GRID = [np.array([x, y, z])
        for x in np.linspace(-1, 1, 5)
        for y in np.linspace(-1, 1, 5)
        for z in np.linspace(-1, 1, 5)]


def random_affine(rng):
    return AffineField(rng.normal(size=(3, 3)), rng.normal(size=3))


def test_bracket_antisymmetry_and_self():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f, g = random_affine(rng), random_affine(rng)
        fg, gf = bracket(f, g), bracket(g, f)
        npt.assert_allclose(fg.A, -gf.A, atol=1e-14)
        npt.assert_allclose(fg.b, -gf.b, atol=1e-14)
        ff = bracket(f, f)
        assert np.all(ff.A == 0) and np.all(ff.b == 0)


def test_bracket_bilinearity():
    rng = np.random.default_rng(1)
    f, g, h = (random_affine(rng) for _ in range(3))
    a, b = 1.7, -0.4
    combo = AffineField(a * f.A + b * g.A, a * f.b + b * g.b)
    lhs = bracket(combo, h)
    rhs_A = a * bracket(f, h).A + b * bracket(g, h).A
    rhs_b = a * bracket(f, h).b + b * bracket(g, h).b
    npt.assert_allclose(lhs.A, rhs_A, atol=1e-13)
    npt.assert_allclose(lhs.b, rhs_b, atol=1e-13)


def test_jacobi_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        f, g, h = (random_affine(rng) for _ in range(3))
        total_A = (
            bracket(f, bracket(g, h)).A
            + bracket(g, bracket(h, f)).A
            + bracket(h, bracket(f, g)).A
        )
        total_b = (
            bracket(f, bracket(g, h)).b
            + bracket(g, bracket(h, f)).b
            + bracket(h, bracket(f, g)).b
        )
        npt.assert_allclose(total_A, 0, atol=1e-13)
        npt.assert_allclose(total_b, 0, atol=1e-13)


# closed forms of the bracket hierarchy (g = gamma/omega)
CLOSED_FORMS = {
    "f3": lambda r: np.array([r[2], G * (1 - 0.5 * r[2]), -r[0] - 0.5 * G * r[1]]),
    "f4": lambda r: np.array(
        [G * (r[2] - 2), (1 - G * G / 4) * r[2], G * r[0] - (1 - G * G / 4) * r[1]]
    ),
    "f5": lambda r: np.array([-r[1], r[0] + G * r[1], G * (1 - r[2])]),
    "f6": lambda r: np.array([-r[2], G * (2 * r[2] - 1), r[0] + 2 * G * r[1]]),
    # (ad f1)^4 f0: the rotation block returns with its original sign, so
    # the x and y leading terms are (-ry, +rx); see the rank tests for the
    # witness determinant this feeds
    "f7": lambda r: np.array([-r[1], r[0] + 4 * G * r[1], G * (1 - 4 * r[2])]),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_bracket_closed_forms(name):
    fields = canonical_fields(P)
    for r in GRID:
        npt.assert_allclose(fields[name](r), CLOSED_FORMS[name](r), atol=1e-14)


def test_determinant_identities_as_polynomials():
    for ratio in (0.1, 0.37):
        p = SystemParams.from_ratio(ratio)
        g = p.ratio
        fields = canonical_fields(p)
        for r in GRID:
            d135 = det_triple(fields, ("f1", "f3", "f5"), r)
            npt.assert_allclose(d135, (r[1] ** 2 - r[2] ** 3 + r[2] ** 2) * g, atol=1e-10)
            d136 = det_triple(fields, ("f1", "f3", "f6"), r)
            npt.assert_allclose(d136, 3 * r[1] * r[2] ** 2 * g, atol=1e-10)


def test_pole_witness_determinant():
    # det(f1, f3, f7) = -3 g on the whole line ry = 0, rz = 1
    fields = canonical_fields(P)
    for rx in np.linspace(-1, 1, 7):
        npt.assert_allclose(
            det_triple(fields, ("f1", "f3", "f7"), np.array([rx, 0, 1])), -3 * G,
            atol=1e-12,
        )


def test_axis_determinants():
    # On the rx-axis f6 = -f3, so det(f3, f4, f6) vanishes identically
    # and the rank witness there is (f3, f4, f5) instead.
    fields = canonical_fields(P)
    for rx in np.linspace(-1, 1, 9):
        r = np.array([rx, 0, 0])
        assert abs(det_triple(fields, ("f3", "f4", "f6"), r)) < 1e-15
        npt.assert_allclose(fields["f6"](r), -fields["f3"](r), atol=1e-15)
        npt.assert_allclose(
            det_triple(fields, ("f3", "f4", "f5"), r), 2 * G * (G * G + rx * rx),
            atol=1e-12,
        )


def test_rank_certificate_generic_and_axis():
    cert = rank_certificate(np.array([0.2, 0.3, -0.4]), P, canonical_fields(P))
    assert cert.rank == 3 and cert.witness == ("f1", "f3", "f5")
    axis = rank_certificate(np.array([0.5, 0.0, 0.0]), P, canonical_fields(P))
    assert axis.rank == 3
    assert abs(axis.determinant) > 1e-12


def test_rank_certificate_rejects_closed_system():
    with pytest.raises(ValueError):
        closed = SystemParams.from_ratio(0.0)
        rank_certificate(np.zeros(3), closed, canonical_fields(closed))


def test_rank_grid_small():
    certs = list(rank_grid(SystemParams.from_ratio(0.05), n=9))
    assert certs and all(c.rank == 3 for c in certs)
