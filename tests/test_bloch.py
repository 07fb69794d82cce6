import numpy as np
import numpy.testing as npt
import pytest

from qubit_reach import (
    SingularityError,
    SystemParams,
    aux_rhs,
    ball_norm_derivative,
    bloch_rhs,
    bloch_to_density,
    cylindrical_rhs,
    density_to_bloch,
    field_f,
    from_cylindrical,
    lindblad_rhs,
    polar_rhs,
    to_cylindrical,
)
from qubit_reach.bloch import cylindrical_fields
from reference import integrate, velocity_to_matrix


P01 = SystemParams.from_ratio(0.1)


def random_ball_points(rng, n, radius=1.0):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * (radius * rng.uniform(0, 1, n) ** (1 / 3))[:, None]


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(omega=0.0)
    with pytest.raises(ValueError):
        SystemParams(kappa=-1.0)
    with pytest.raises(ValueError):
        SystemParams(gamma=-0.1)
    for name in ("omega", "kappa", "gamma"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                SystemParams(**{name: bad})
    p = SystemParams(omega=2.0, kappa=1.0, gamma=0.5)
    assert p.ratio == 0.5 / 2.0


def test_field_f_drift_fixed_point():
    npt.assert_array_equal(field_f(0, (0, 0, 1), P01), np.zeros(3))


def test_field_f1_north():
    npt.assert_array_equal(field_f(1, (0, 0, 1), P01), [0.0, -1.0, 0.0])


def test_field_f0_hand_value():
    # hand evaluation at r = (1,0,0), gamma/omega = 0.1
    npt.assert_allclose(field_f(0, (1, 0, 0), P01), [-0.05, 1.0, 0.1], atol=1e-15)


def test_field_f_bad_index():
    with pytest.raises(ValueError):
        field_f(3, (0, 0, 0), P01)


def test_bloch_rhs_fixed_point():
    npt.assert_array_equal(bloch_rhs((0, 0, 1), 0.0, 0.0, P01), np.zeros(3))


def test_bloch_rhs_incoherent_pull():
    # with gamma = 1 and n = 1 the north pole decays straight down
    p = SystemParams(omega=1.0, kappa=0.5, gamma=1.0)
    npt.assert_allclose(bloch_rhs((0, 0, 1), 0.0, 1.0, p), [0.0, 0.0, -1.0], atol=1e-15)


def test_bloch_rhs_rotation_and_control():
    p = SystemParams(omega=1.0, kappa=0.5, gamma=0.0)
    npt.assert_allclose(bloch_rhs((0, 1, 0), 1.0, 0.0, p), [-1.0, 0.0, 1.0], atol=1e-15)


def test_bloch_rhs_rejects_negative_n():
    with pytest.raises(ValueError):
        bloch_rhs((0, 0, 0), 0.0, -0.5, P01)


def test_lindblad_zero_at_north_pole():
    rho = np.diag([1.0, 0.0]).astype(complex)
    npt.assert_allclose(lindblad_rhs(rho, 0.0, 0.0, P01), np.zeros((2, 2)), atol=1e-16)


def test_lindblad_traceless_hermitian():
    rng = np.random.default_rng(7)
    for r in random_ball_points(rng, 25):
        out = lindblad_rhs(bloch_to_density(r), rng.normal(), rng.uniform(0, 2), P01)
        assert abs(np.trace(out)) < 1e-14
        npt.assert_allclose(out, out.conj().T, atol=1e-14)


def test_lindblad_matches_bloch_rhs():
    # cross-oracle between the matrix equation and the Bloch-vector form
    rng = np.random.default_rng(11)
    for r in random_ball_points(rng, 100):
        u = rng.uniform(-5, 5)
        n = rng.uniform(0, 3)
        lhs = lindblad_rhs(bloch_to_density(r), u, n, P01)
        rhs = velocity_to_matrix(bloch_rhs(r, u, n, P01))
        npt.assert_allclose(lhs, rhs, atol=1e-12)


def test_lindblad_rejects_non_hermitian():
    bad = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        lindblad_rhs(bad, 0.0, 0.0, P01)


@pytest.mark.parametrize(
    "call, msg",
    [
        (lambda: lindblad_rhs(np.diag([1.0, 0.0]), 0.0, -0.1, P01), "non-negative"),
        (lambda: lindblad_rhs(np.eye(3) / 3, 0.0, 0.0, P01), r"must be 2x2, got shape \(3, 3\)"),
        (lambda: cylindrical_rhs([0.5, 0.5, 0.0], 0.0, -0.1, P01), "non-negative"),
        (lambda: ball_norm_derivative([0.3, 0.4, 0.5], -0.1, P01), "non-negative"),
    ],
    ids=["lindblad-negative-n", "lindblad-3x3", "cylindrical-negative-n", "ball-norm-negative-n"],
)
def test_rhs_refusals(call, msg):
    with pytest.raises(ValueError, match=msg):
        call()


def test_density_round_trip():
    rng = np.random.default_rng(3)
    for r in random_ball_points(rng, 100):
        npt.assert_allclose(density_to_bloch(bloch_to_density(r)), r, atol=1e-14)
    npt.assert_allclose(bloch_to_density((0, 0, 0)), 0.5 * np.eye(2), atol=0)
    npt.assert_allclose(bloch_to_density((0, 0, 1)), np.diag([1.0, 0.0]), atol=0)


def test_density_to_bloch_rejects_bad_trace():
    with pytest.raises(ValueError):
        density_to_bloch(np.diag([1.0, 0.5]))


def test_cylindrical_convention():
    npt.assert_allclose(to_cylindrical((0, 1, 0)), [0.0, 1.0, 0.0], atol=0)
    z, R, th = to_cylindrical((0, 0, 1))
    assert (z, R) == (0.0, 1.0) and abs(th - np.pi / 2) < 1e-15
    # theta pinned to zero on the axis
    assert to_cylindrical((0.3, 0, 0))[2] == 0.0


def test_cylindrical_round_trip():
    rng = np.random.default_rng(5)
    for r in random_ball_points(rng, 50):
        if np.hypot(r[1], r[2]) < 1e-6:
            continue
        npt.assert_allclose(from_cylindrical(to_cylindrical(r)), r, atol=1e-14)


def test_cylindrical_rhs_pushforward_oracle():
    # chain rule applied to the Bloch velocity is the independent route
    rng = np.random.default_rng(13)
    count = 0
    while count < 100:
        r = random_ball_points(rng, 1)[0]
        R = np.hypot(r[1], r[2])
        if R < 0.1:
            continue
        count += 1
        u = rng.uniform(-3, 3)
        n = rng.uniform(0, 2)
        v = bloch_rhs(r, u, n, P01)
        c = to_cylindrical(r)
        expected = np.array(
            [
                v[0],
                (r[1] * v[1] + r[2] * v[2]) / R,
                (r[1] * v[2] - r[2] * v[1]) / R ** 2,
            ]
        )
        npt.assert_allclose(cylindrical_rhs(c, u, n, P01), expected, atol=1e-10)


def test_averaging_identity():
    # (g0(theta) + g0(theta + pi)) / 2 == (gamma/omega) g2(theta)
    rng = np.random.default_rng(17)
    for _ in range(100):
        c = np.array([rng.uniform(-1, 1), rng.uniform(0.05, 1), rng.uniform(0, 2 * np.pi)])
        g0a, _, g2 = cylindrical_fields(c, P01)
        g0b, _, _ = cylindrical_fields(c + [0, 0, np.pi], P01)
        npt.assert_allclose(0.5 * (g0a + g0b), P01.ratio * g2, atol=1e-12)


def test_g1_constant():
    _, g1, _ = cylindrical_fields((0.2, 0.5, 1.3), P01)
    npt.assert_array_equal(g1, [0.0, 0.0, 1.0])


def test_cylindrical_singularity_guard():
    with pytest.raises(SingularityError):
        cylindrical_rhs((0.5, 1e-9, 0.0), 0.0, 0.0, P01)


def test_aux_rhs_attracting_point():
    zd, rd = aux_rhs(0.0, -1.0, -np.pi / 2, P01)
    assert abs(zd) < 1e-15 and abs(rd) < 1e-15


def test_aux_rhs_spiral_tangent():
    zd, rd = aux_rhs(0.0, 1.0, 0.0, P01)
    npt.assert_allclose([zd, rd], [-1.0, -0.05], atol=1e-15)


def test_aux_rhs_mirror_symmetry():
    rng = np.random.default_rng(19)
    for _ in range(50):
        z, R, th = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 2 * np.pi)
        zd, rd = aux_rhs(z, R, th, P01)
        zd2, rd2 = aux_rhs(z, -R, th + np.pi, P01)
        npt.assert_allclose([zd2, rd2], [zd, -rd], atol=1e-14)


def test_polar_pushforward_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        rho = rng.uniform(0.05, 1.0)
        phi = rng.uniform(-np.pi, np.pi)
        th = rng.uniform(0, 2 * np.pi)
        z, R = rho * np.cos(phi), rho * np.sin(phi)
        zd, rd = aux_rhs(z, R, th, P01)
        expected = [(z * zd + R * rd) / rho, (z * rd - R * zd) / rho ** 2]
        npt.assert_allclose(polar_rhs((rho, phi), th, P01), expected, atol=1e-10)


def test_polar_boundary_contraction():
    # radial speed never positive on the unit circle
    th = np.linspace(0, 2 * np.pi, 73)
    for phi in np.linspace(-np.pi, np.pi, 41):
        for t in th:
            assert polar_rhs((1.0, phi), t, P01)[0] <= 1e-15
    # and it vanishes at the stated tangency
    assert abs(polar_rhs((1.0, np.pi / 2), np.pi / 2, P01)[0]) < 1e-15


def test_polar_singularity_guard():
    with pytest.raises(SingularityError):
        polar_rhs((1e-9, 0.0), 0.0, P01)


def test_ball_norm_derivative_values():
    assert ball_norm_derivative((0, 0, 1), 0.0, P01) == 0.0
    # non-positive on the sphere for a grid of directions and pump levels
    rng = np.random.default_rng(29)
    for n in (0.0, 0.5, 2.0):
        for v in rng.normal(size=(60, 3)):
            r = v / np.linalg.norm(v)
            assert ball_norm_derivative(r, n, P01) <= 1e-15


def test_ball_norm_derivative_finite_difference():
    # compare against d|r|^2/dt along an integrated trajectory
    p = P01
    u, n = 0.7, 0.8
    traj = integrate(
        lambda t, r: bloch_rhs(r, u, n, p),
        np.array([0.4, 0.2, 0.5]),
        3.0,
        tol=1e-12,
    )
    ts = np.linspace(0.1, 2.9, 40)
    h = 1e-5
    for t in ts:
        ra, rb = traj.sample(t - h), traj.sample(t + h)
        fd = (np.sum(rb ** 2) - np.sum(ra ** 2)) / (2 * h)
        val = ball_norm_derivative(traj.sample(t)[0], n, p)
        assert abs(fd - val) < 1e-6


def test_forward_invariance_under_random_controls():
    rng = np.random.default_rng(31)
    p = P01
    for _ in range(5):
        us = rng.uniform(-4, 4, 12)
        ns = rng.uniform(0, 2, 12)
        r = np.array([0.0, 0.0, 1.0])
        for u, n in zip(us, ns):
            traj = integrate(
                lambda t, rr: bloch_rhs(rr, u, n, p), r, 0.5, tol=1e-10,
            )
            r = traj.ys[-1]
            assert np.max(np.sum(traj.ys ** 2, axis=1)) <= 1.0 + 1e-9
