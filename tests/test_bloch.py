import numpy as np
import numpy.testing as npt
import pytest

from qubit_reach import SystemParams, field_f
from qubit_reach.bloch import _meridian_rhs, _theta_balance, _trig, polar_rhs_scaled
from reference import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_rhs,
    bloch_to_density,
    integrate,
    lindblad_rhs,
    velocity_to_matrix,
)


P01 = SystemParams.from_ratio(0.1)


def meridian(z, R, theta, p):
    """(dz/dt, dR/dt) with theta as the control: omega times the engine's
    meridian field."""
    zp, rp = _meridian_rhs(z, R, *_trig(theta), p.ratio)
    return p.omega * zp, p.omega * rp


def engine_cylindrical(c, u, p):
    """(z', R', theta') of the engine at n = 0: the meridian field and the
    free theta drift -_theta_balance(0, ...) plus 2 kappa u."""
    z, R, theta = c
    theta_dot = -p.omega * _theta_balance(0.0, z, R, theta, p.ratio) + 2.0 * p.kappa * u
    return np.array([*meridian(z, R, theta, p), theta_dot])


def pushforward(r, v):
    """(z', R', theta') of the Bloch velocity v at r by the chain rule, with
    rx = z, ry = R cos(theta), rz = R sin(theta)."""
    R2 = r[1] ** 2 + r[2] ** 2
    return np.array([v[0], (r[1] * v[1] + r[2] * v[2]) / np.sqrt(R2), (r[1] * v[2] - r[2] * v[1]) / R2])


def cylindrical(r):
    return np.array([r[0], np.hypot(r[1], r[2]), np.arctan2(r[2], r[1])])


def ball_norm_closed_form(r, n, p):
    """d|r|^2/dt = -gamma (1+n) (rx^2 + ry^2 + 2 rz^2) + 2 gamma rz, for every u."""
    rx, ry, rz = r
    return -p.gamma * (1.0 + n) * (rx * rx + ry * ry + 2.0 * rz * rz) + 2.0 * p.gamma * rz


def random_ball_points(rng, n, radius=1.0):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * (radius * rng.uniform(0, 1, n) ** (1 / 3))[:, None]


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(omega=0.0, kappa=0.5, gamma=0.0)
    with pytest.raises(ValueError):
        SystemParams(omega=1.0, kappa=-1.0, gamma=0.0)
    with pytest.raises(ValueError):
        SystemParams(omega=1.0, kappa=0.5, gamma=-0.1)
    for name in ("omega", "kappa", "gamma"):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                SystemParams(**{"omega": 1.0, "kappa": 0.5, "gamma": 0.0, name: bad})
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
    ],
    ids=["lindblad-negative-n", "lindblad-3x3"],
)
def test_rhs_refusals(call, msg):
    with pytest.raises(ValueError, match=msg):
        call()


def test_density_round_trip():
    # r_i = tr(rho sigma_i) recovers the Bloch vector of a unit-trace rho
    rng = np.random.default_rng(3)
    for r in random_ball_points(rng, 100):
        rho = bloch_to_density(r)
        assert abs(np.trace(rho) - 1.0) < 1e-15
        back = [np.trace(rho @ s).real for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
        npt.assert_allclose(back, r, atol=1e-14)
    npt.assert_allclose(bloch_to_density((0, 0, 0)), 0.5 * np.eye(2), atol=0)
    npt.assert_allclose(bloch_to_density((0, 0, 1)), np.diag([1.0, 0.0]), atol=0)


def test_cylindrical_rhs_pushforward_oracle():
    # the chain rule applied to the Bloch velocity is the independent route
    # to the engine's meridian field and theta drift (n = 0)
    rng = np.random.default_rng(13)
    count = 0
    while count < 100:
        r = random_ball_points(rng, 1)[0]
        if np.hypot(r[1], r[2]) < 0.1:
            continue
        count += 1
        u = rng.uniform(-3, 3)
        expected = pushforward(r, bloch_rhs(r, u, 0.0, P01))
        npt.assert_allclose(engine_cylindrical(cylindrical(r), u, P01), expected, atol=1e-12)


def test_averaging_identity():
    # the free drift averaged over theta and theta + pi is gamma/omega times
    # the incoherent field f2, pushed forward to (z, R, theta)
    rng = np.random.default_rng(17)
    for _ in range(100):
        z, R, th = rng.uniform(-1, 1), rng.uniform(0.05, 1), rng.uniform(0, 2 * np.pi)
        g0a = engine_cylindrical((z, R, th), 0.0, P01)
        g0b = engine_cylindrical((z, R, th + np.pi), 0.0, P01)
        r = np.array([z, R * np.cos(th), R * np.sin(th)])
        g2 = pushforward(r, field_f(2, r, P01))
        npt.assert_allclose(0.5 * (g0a + g0b), P01.ratio * g2, atol=1e-12)


def test_g1_constant():
    # the coherent field turns theta at unit rate and leaves (z, R) alone
    r = np.array([0.2, 0.5 * np.cos(1.3), 0.5 * np.sin(1.3)])
    npt.assert_allclose(pushforward(r, field_f(1, r, P01)), [0.0, 0.0, 1.0], atol=1e-15)


def test_aux_rhs_attracting_point():
    zd, rd = meridian(0.0, -1.0, -np.pi / 2, P01)
    assert abs(zd) < 1e-15 and abs(rd) < 1e-15


def test_aux_rhs_spiral_tangent():
    zd, rd = meridian(0.0, 1.0, 0.0, P01)
    npt.assert_allclose([zd, rd], [-1.0, -0.05], atol=1e-15)


def test_aux_rhs_mirror_symmetry():
    rng = np.random.default_rng(19)
    for _ in range(50):
        z, R, th = rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 2 * np.pi)
        zd, rd = meridian(z, R, th, P01)
        zd2, rd2 = meridian(z, -R, th + np.pi, P01)
        npt.assert_allclose([zd2, rd2], [zd, -rd], atol=1e-14)


def test_polar_pushforward_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        rho = rng.uniform(0.05, 1.0)
        phi = rng.uniform(-np.pi, np.pi)
        th = rng.uniform(0, 2 * np.pi)
        z, R = rho * np.cos(phi), rho * np.sin(phi)
        zd, rd = meridian(z, R, th, P01)
        expected = [(z * zd + R * rd) / rho, (z * rd - R * zd) / rho ** 2]
        got = P01.omega * np.array(polar_rhs_scaled(rho, phi, th, P01.ratio))
        npt.assert_allclose(got, expected, atol=1e-12)


def test_polar_boundary_contraction():
    # radial speed never positive on the unit circle
    th = np.linspace(0, 2 * np.pi, 73)
    for phi in np.linspace(-np.pi, np.pi, 41):
        assert np.all(polar_rhs_scaled(1.0, phi, th, P01.ratio)[0] <= 1e-15)
    # and it vanishes at the stated tangency
    assert abs(polar_rhs_scaled(1.0, np.pi / 2, np.pi / 2, P01.ratio)[0]) < 1e-15


def test_ball_norm_derivative_values():
    # 2 r . v <= 0 on the unit sphere for every u and n >= 0: the Bloch
    # ball is forward invariant
    assert 2.0 * np.dot([0, 0, 1], bloch_rhs((0, 0, 1), 0.0, 0.0, P01)) == 0.0
    rng = np.random.default_rng(29)
    for n in (0.0, 0.5, 2.0):
        for v in rng.normal(size=(60, 3)):
            r = v / np.linalg.norm(v)
            rate = 2.0 * np.dot(r, bloch_rhs(r, rng.uniform(-4, 4), n, P01))
            assert rate <= 1e-15
            assert abs(rate - ball_norm_closed_form(r, n, P01)) < 1e-14


def test_ball_norm_derivative_finite_difference():
    # compare the closed form against d|r|^2/dt along an integrated trajectory
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
        val = ball_norm_closed_form(traj.sample(t)[0], n, p)
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
