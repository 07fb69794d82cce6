import numpy as np
import numpy.testing as npt
import pytest

from qubit_reach import ControlSchedule, SystemParams, simulate
from qubit_reach.ode import expm
from qubit_reach.schedule import propagate
from reference import bloch_rhs, integrate

P = SystemParams.from_ratio(0.1)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ControlSchedule([0.0, 0.0], [0, 0], [0, 0], T=1.0)
    with pytest.raises(ValueError):
        ControlSchedule([0.5, 1.0], [0, 0], [0, 0], T=1.0)
    with pytest.raises(ValueError):
        ControlSchedule([0.0, 1.0], [0, 0], [0, -1], T=1.0)
    with pytest.raises(ValueError, match="positive"):
        ControlSchedule([0.0, 1.0], [0, 0], [0, 0], T=0.0)
    with pytest.raises(TypeError, match="T"):  # the final time has no default
        ControlSchedule([0.0, 1.0], [2.0, -3.0], [0.0, 0.5])


def test_simulate_holds_each_control_until_the_next_breakpoint():
    s = ControlSchedule([0.0, 1.0], [2.0, -3.0], [0.0, 0.5], T=2.0)
    r0 = np.array([0.6, 0.0, 0.8])
    want = propagate(r0, [0.0, 0.5, 1.0, 1.5], [2.0, 2.0, -3.0], [0.0, 0.0, 0.5], P)
    npt.assert_array_equal(simulate(r0, s, P).sample([0.5, 1.5]), want[[1, 3]])


def test_schedule_csv_round_trip(tmp_path):
    path = tmp_path / "sched.csv"
    s = ControlSchedule([0.0, 0.25, 1.5], [1.0, -2.0, 0.5], [0.0, 0.1, 0.0], T=2.0)
    rows = zip(s.times.tolist(), s.u.tolist(), s.n.tolist())
    path.write_text("t,u,n\n" + "".join(f"{t!r},{u!r},{n!r}\n" for t, u, n in rows))
    back = ControlSchedule.from_csv(path, params=P, scaled=False, duration=2.0, u_max=None)
    npt.assert_array_equal(back.times, s.times)
    npt.assert_array_equal(back.u, s.u)
    npt.assert_array_equal(back.n, s.n)


def test_schedule_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0,0\n")
    with pytest.raises(ValueError, match="header"):
        ControlSchedule.from_csv(path, params=P, scaled=False, duration=1.0, u_max=None)


def test_schedule_scaled_times(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,u,n\n0,1,0\n2,0,0\n")
    p = SystemParams(omega=4.0, kappa=0.5, gamma=0.0)
    s = ControlSchedule.from_csv(path, params=p, scaled=True, duration=1.0, u_max=None)
    npt.assert_allclose(s.times, [0.0, 0.5])


def test_schedule_u_cap(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,u,n\n0,1e9,0\n")
    s = ControlSchedule.from_csv(path, params=P, scaled=False, duration=1.0, u_max=None)
    assert np.max(np.abs(s.u)) == P.u_max_default
    for cap in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="u_max"):
            ControlSchedule.from_csv(path, params=P, scaled=False, duration=1.0, u_max=cap)


@pytest.mark.parametrize(
    "call, msg",
    [
        (lambda path: ControlSchedule([], [], [], T=1.0), "at least one breakpoint"),
        (lambda path: ControlSchedule([0.0, 1.0], [0.0], [0.0, 0.0], T=1.0), "equal length"),
        (lambda path: propagate([0, 0, 1], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0], P),
         "one more entry"),
    ],
    ids=["no-breakpoint", "unequal-lengths", "propagate-edge-count"],
)
def test_schedule_refusals(tmp_path, call, msg):
    path = tmp_path / "s.csv"
    path.write_text("t,u,n\n0,0,0\n1,0,0\n")
    with pytest.raises(ValueError, match=msg):
        call(path)


def test_simulate_fixed_point():
    sched = ControlSchedule([0.0], [0.0], [0.0], T=10.0)
    states = simulate(np.array([0.0, 0.0, 1.0]), sched, P).sample(np.linspace(0.0, 10.0, 101))
    npt.assert_allclose(states, np.tile([0, 0, 1.0], (101, 1)), rtol=0, atol=1e-12)


def test_simulate_pure_rotation_segment():
    # constant u with gamma = 0: rotation about rx at rate 2 kappa u + drift
    p = SystemParams(omega=1.0, kappa=0.5, gamma=0.0)
    sched = ControlSchedule([0.0], [np.pi], [0.0], T=1.0)
    states = simulate(np.array([0.0, 0.0, 1.0]), sched, p).sample(np.linspace(0.0, 1.0, 11))
    npt.assert_allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0, atol=1e-12)


def test_simulate_refuses_times_outside_the_schedule():
    sim = simulate(np.array([0.0, 0.0, 1.0]), ControlSchedule([0.0], [1.0], [0.0], T=2.0), P)
    assert sim.sample([0.0, 2.0]).shape == (2, 3)
    for t in (-1e-9, 2.0 + 1e-9, np.nan):
        with pytest.raises(ValueError, match="sample times"):
            sim.sample([0.0, t])


def test_schedule_rejects_non_finite():
    for times, u, n, T in (
        ([0.0, np.nan], [0, 0], [0, 0], 0.0),
        ([0.0, 1.0], [0, np.nan], [0, 0], 0.0),
        ([0.0, 1.0], [0, 0], [np.inf, 0], 0.0),
        ([0.0, 1.0], [0, 0], [0, 0], np.nan),
        ([0.0, 1.0], [0, 0], [0, 0], np.inf),
    ):
        with pytest.raises(ValueError, match="finite"):
            ControlSchedule(times, u, n, T=T)


def test_simulate_samples_next_to_a_switch():
    # samples just before, at and just after a switch follow their own segment
    sched = ControlSchedule([0.0, 1.0], [0.0, 2.0], [0.0, 0.0], T=2.0)
    r0 = np.array([0.6, 0.0, 0.8])
    got = simulate(r0, sched, P).sample([1.0 - 1e-3, 1.0, 1.0 + 1e-3])
    want = [
        propagate(r0, [0.0, 1.0 - 1e-3], [0.0], [0.0], P)[-1],
        propagate(r0, [0.0, 1.0], [0.0], [0.0], P)[-1],
        propagate(r0, [0.0, 1.0, 1.0 + 1e-3], [0.0, 2.0], [0.0, 0.0], P)[-1],
    ]
    npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def _rodrigues(r, omega_vec, t):
    theta = np.linalg.norm(omega_vec) * t
    k = omega_vec / np.linalg.norm(omega_vec)
    return r * np.cos(theta) + np.cross(k, r) * np.sin(theta) + k * (k @ r) * (1 - np.cos(theta))


def test_propagate_closed_system_is_a_rotation():
    # gamma = 0: r' = (2 kappa u, 0, omega) x r, a rotation for any n
    p = SystemParams(omega=1.3, kappa=0.7, gamma=0.0)
    rng = np.random.default_rng(4)
    for _ in range(20):
        r0 = rng.normal(size=3)
        u, h = rng.uniform(-5, 5), rng.uniform(0.01, 3.0)
        got = propagate(r0, [0.0, h], [u], [rng.uniform(0, 2)], p)[-1]
        want = _rodrigues(r0, np.array([2 * p.kappa * u, 0.0, p.omega]), h)
        npt.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_propagate_semigroup():
    p = SystemParams.from_ratio(0.3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        r0 = rng.uniform(-0.5, 0.5, 3)
        u, n = rng.uniform(-4, 4), rng.uniform(0, 3)
        h1, h2 = rng.uniform(0.001, 2.0, 2)
        one = propagate(r0, [0.0, h1 + h2], [u], [n], p)[-1]
        two = propagate(r0, [0.0, h1, h1 + h2], [u, u], [n, n], p)[-1]
        npt.assert_allclose(one, two, rtol=0, atol=1e-13)


@pytest.mark.parametrize("seed", [8, 9, 10])
def test_propagate_matches_a_chain_of_single_segment_maps(seed):
    # random schedules with n > 0 over several expm blocks, one segment a
    # spike as strong as replay_extremal's, against exp(h [[M, b], [0, 0]])
    # of each segment's r' = M r + b applied in turn

    rng = np.random.default_rng(seed)
    p = SystemParams.from_ratio(rng.uniform(0.05, 2.0))
    m = rng.integers(257, 800)
    h, u, n = rng.uniform(1e-3, 0.2, m), rng.uniform(-5.0, 5.0, m), rng.uniform(0.01, 3.0, m)
    k = rng.integers(m)
    u[k], h[k] = 1e6 * p.omega / (2.0 * p.kappa), np.pi / (1e6 * p.omega)
    edges = np.concatenate([[0.0], np.cumsum(h)])
    got = propagate([0.3, -0.2, 0.5], edges, u, n, p)
    h = np.diff(edges)  # the lengths propagate steps: the spike's is rounded at its edges
    r = np.array([0.3, -0.2, 0.5, 1.0])
    for j in range(m):
        b = bloch_rhs(np.zeros(3), u[j], n[j], p)
        gen = np.zeros((1, 4, 4))
        gen[0, :3, :3] = np.stack([bloch_rhs(e, u[j], n[j], p) - b for e in np.eye(3)], axis=1)
        gen[0, :3, 3] = b
        r = expm(h[j] * gen)[0] @ r
        npt.assert_allclose(got[j + 1], r[:3], rtol=0, atol=1e-12)


def test_propagate_matches_tight_integration_with_incoherent_control():

    p = SystemParams(omega=1.0, kappa=0.5, gamma=0.2)
    rng = np.random.default_rng(6)
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.8, 12))])
    u, n = rng.uniform(-3, 3, 12), rng.uniform(0, 2, 12)
    got = propagate([0.1, -0.4, 0.7], edges, u, n, p)
    y = np.array([0.1, -0.4, 0.7])
    for k in range(12):
        rhs = lambda t, r, k=k: bloch_rhs(r, u[k], n[k], p)
        y = integrate(rhs, y, edges[k + 1] - edges[k], tol=1e-13).ys[-1]
        npt.assert_allclose(got[k + 1], y, rtol=0, atol=1e-9)


def test_propagate_alignment_spike():
    # the 1e6-scaled spike replay_extremal uses to leave the north pole
    from test_ode import rk4

    u_max = 1e6 * P.omega / (2 * P.kappa)
    eps = np.pi / (2 * P.kappa * u_max)
    u_align = -2.0 / (2 * P.kappa * eps)
    got = propagate([0.0, 0.0, 1.0], [0.0, eps], [u_align], [0.0], P)[-1]
    rhs = lambda t, r: bloch_rhs(r, u_align, 0.0, P)
    want = rk4(rhs, np.array([0.0, 0.0, 1.0]), eps, eps / 4000)
    npt.assert_allclose(got, want, rtol=0, atol=1e-12)
    npt.assert_allclose(np.arctan2(got[2], got[1]), np.pi / 2 - 2.0, atol=1e-5)


def test_propagate_pole_is_bit_exact_fixed_point():
    states = propagate([0.0, 0.0, 1.0], np.linspace(0.0, 50.0, 1001), np.zeros(1000), np.zeros(1000), P)
    assert np.all(states == [0.0, 0.0, 1.0])


def test_propagate_long_hold_reaches_the_steady_state():
    # the zero last row of the augmented generator must stay the exact unit
    # row through every squaring, or a long hold drifts back to its start

    b = bloch_rhs(np.zeros(3), 1.0, 0.0, P)
    M = np.stack([bloch_rhs(e, 1.0, 0.0, P) - b for e in np.eye(3)], axis=1)
    want = np.linalg.solve(M, -b)
    for T in (1e12, 1e20):
        got = propagate([0.0, 0.0, 1.0], [0.0, T], [1.0], [0.0], P)[-1]
        npt.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_expm_inverts_on_negated_argument():
    # affine generators [[M, c], [0, 0]]: rotation generators of norm up to
    # ~100 (several squarings) plus a small non-normal part, so E(A) stays
    # well conditioned, and a shift of the same size
    rng = np.random.default_rng(7)
    k = rng.normal(size=(300, 4, 4)) * np.geomspace(1e-4, 30.0, 300)[:, None, None]
    a = k - k.transpose(0, 2, 1) + 0.1 * rng.normal(size=(300, 4, 4))
    a[:, 3] = 0.0
    npt.assert_allclose(expm(a) @ expm(-a), np.broadcast_to(np.eye(4), a.shape), rtol=0, atol=1e-12)


def bloch_generators(rng, k):
    """k Bloch generators [[M, b], [0, 0]] of random ratio, u and n, each of 1-norm 1."""

    out = np.zeros((k, 4, 4))
    for j in range(k):
        p = SystemParams.from_ratio(rng.uniform(0.05, 2.0))
        u, n = rng.uniform(-5.0, 5.0), rng.uniform(0.0, 3.0)
        b = bloch_rhs(np.zeros(3), u, n, p)
        out[j, :3, :3] = np.stack([bloch_rhs(e, u, n, p) - b for e in np.eye(3)], axis=1)
        out[j, :3, 3] = b
    return out / np.abs(out).sum(axis=1).max(axis=1)[:, None, None]


def test_expm_matches_the_general_pade13_reference():
    # blocks of 16 generators with 1-norms over two decades, topped from
    # 1e-8 to 1e3: every Pade degree and up to 8 squarings.  The largest
    # entry difference from the general Pade-13 LAPACK exponential measured
    # 6.7e-16 to 2.6e-15 over five seeds of this draw (9.2e-16 with this one)
    import reference
    from qubit_reach import ode

    rng = np.random.default_rng(21)
    degrees = set()
    for top in np.geomspace(1e-8, 1e3, 45):
        a = bloch_generators(rng, 16) * np.geomspace(top / 100, top, 16)[:, None, None]
        degrees.add(next((m for m in (3, 5, 7, 9) if top <= ode._THETA[m]), 13))
        npt.assert_allclose(expm(a), reference.expm(a), rtol=0, atol=1e-14)
    assert degrees == {3, 5, 7, 9, 13}
    # one block mixing replay_extremal's alignment spike (1-norm 2.66,
    # Pade-13 without squaring) with 255 small generators, whose own degree
    # alone would be 3
    a = bloch_generators(rng, 256) * rng.uniform(1e-4, 1e-2, 256)[:, None, None]
    a[100] = 2.66 * bloch_generators(rng, 1)[0]
    npt.assert_allclose(expm(a), reference.expm(a), rtol=0, atol=1e-14)


def test_expm_rejects_what_is_not_a_finite_affine_generator():
    a = np.zeros((2, 4, 4))
    a[1, 0, 1] = 1.0
    assert (expm(a)[:, 3] == [0.0, 0.0, 0.0, 1.0]).all()
    a[1, 3, 2] = 1e-300
    with pytest.raises(ValueError, match="zero last row"):
        expm(a)
    with pytest.raises(ValueError, match="zero last row"):
        expm(np.zeros((2, 3, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        expm(np.full((1, 4, 4), np.nan))
    a = np.zeros((1, 4, 4))
    a[0, 0, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        expm(a)
