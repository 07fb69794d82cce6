import numpy as np
import numpy.testing as npt
import pytest

from qubit_reach import SystemParams
from qubit_reach.bloch import _meridian_rhs, _trig
from qubit_reach import ode
from qubit_reach.ode import IntegrationError, Trajectory, dp45, dp45_step
from reference import bloch_rhs, integrate


def rk4(rhs, y0, T, step):
    """Final state of classical fixed-step 4th order Runge-Kutta on [0, T],
    in steps of the largest T / k not above ``step``: the fixed-step
    reference of these tests."""
    n_steps = max(1, int(np.ceil(T / step - 1e-12)))
    h = T / n_steps
    y = np.asarray(y0, dtype=float)
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def test_exponential_decay():
    traj = integrate(lambda t, y: -y, np.array([1.0]), 1.0)
    assert abs(traj.ys[-1][0] - np.exp(-1.0)) < 1e-8


def test_free_bloch_spiral_exponent():
    # |rx + i ry| decays like exp(-gamma t / 2) under the free drift
    p = SystemParams.from_ratio(0.1)
    traj = integrate(lambda t, r: bloch_rhs(r, 0.0, 0.0, p), np.array([1.0, 0.0, 0.0]), 20.0)
    ts = np.linspace(0.5, 19.5, 60)
    amp = np.hypot(traj.sample(ts)[:, 0], traj.sample(ts)[:, 1])
    slope = np.polyfit(ts, np.log(amp), 1)[0]
    assert abs(slope - (-p.gamma / 2)) < 0.01 * (p.gamma / 2)


def aux_spiral_rhs(p):
    def rhs(t, y):
        return p.omega * np.array(_meridian_rhs(y[0], y[1], *_trig(0.0), p.ratio))

    return rhs


def test_aux_spiral_closed_form():
    # theta == 0 trajectories are logarithmic spirals i exp((-gamma/2 + i omega) t)
    p = SystemParams.from_ratio(0.1)
    T = 3 * np.pi / p.omega
    traj = integrate(aux_spiral_rhs(p), np.array([0.0, 1.0]), T)
    ts = np.linspace(0.0, T, 200)
    exact = 1j * np.exp((-p.gamma / 2 + 1j * p.omega) * ts)
    got = traj.sample(ts)
    err = np.abs(got[:, 0] + 1j * got[:, 1] - exact)
    assert np.max(err) < 1e-6


def test_rk4_fourth_order_convergence():
    p = SystemParams.from_ratio(0.1)
    T = np.pi
    exact = 1j * np.exp((-p.gamma / 2 + 1j * p.omega) * T)

    def err(step):
        y = rk4(aux_spiral_rhs(p), np.array([0.0, 1.0]), T, step)
        return abs(y[0] + 1j * y[1] - exact)

    assert err(0.02) / err(0.01) >= 14.0


def test_adaptive_vs_fixed_agreement():
    p = SystemParams.from_ratio(0.1)
    tol = 1e-10
    for rhs, y0, T in [
        (aux_spiral_rhs(p), np.array([0.0, 1.0]), 2.0),
        (lambda t, y: -y, np.array([1.0]), 1.0),
    ]:
        ya = integrate(rhs, y0, T, tol=tol).ys[-1]
        yf = rk4(rhs, y0, T, 1e-3)
        assert np.max(np.abs(ya - yf)) < 10 * max(tol, 1e-10 * 100)


def test_max_steps_exceeded(monkeypatch):
    monkeypatch.setattr(ode, "MAX_STEPS", 10)
    with pytest.raises(IntegrationError, match="step budget"):
        integrate(lambda t, y: -y, np.array([1.0]), 1.0)


def test_rhs_failure_carries_time():
    def rhs(t, y):
        if t > 0.5:
            raise ValueError("boom")
        return -y

    with pytest.raises(IntegrationError, match="t="):
        integrate(rhs, np.array([1.0]), 1.0)


def test_trajectory_contract():
    traj = integrate(lambda t, y: -y, np.array([1.0]), 1.0)
    assert traj.ts[0] == 0.0
    assert np.all(np.diff(traj.ts) > 0)
    assert traj.ts[-1] == 1.0
    # a last step to T below the minimum step (10 ulp of t) is still taken
    T = 1e-3 + 1.5e-18
    assert integrate(lambda t, y: 0.0 * y, np.array([1.0]), T).ts[-1] == T
    with pytest.raises(ValueError):
        traj.sample(1.5)
    # dense output hits the stored nodes exactly
    mid = traj.ts[len(traj.ts) // 2]
    npt.assert_allclose(traj.sample(mid)[0], traj.ys[len(traj.ts) // 2], rtol=0, atol=1e-15)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.5, 1.0]), np.zeros((2, 1)))


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_tol_validation(tol):
    with pytest.raises(ValueError, match="tolerance"):
        integrate(lambda t, y: -y, np.array([1.0]), 1.0, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        dp45(lambda t, y: -y, np.ones((1, 1)), 1.0, tol, [0, 1], np.ones(1, dtype=bool), None, None)


@pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
def test_duration_validation(T):
    # nan used to end in a bare unpacking error, inf to step towards MAX_STEPS
    with pytest.raises(ValueError, match="T must be finite and positive"):
        integrate(lambda t, y: -y, np.array([1.0]), T)
    with pytest.raises(ValueError, match="T must be finite and positive"):
        dp45(lambda t, y: -y, np.ones((1, 1)), T, 1e-10, [0, 1], np.ones(1, dtype=bool), None, None)


def test_batched_state_integration():
    # trailing batch axes integrate in lockstep
    y0 = np.array([[1.0, 2.0, 3.0]])
    traj = integrate(lambda t, y: -y, y0, 1.0)
    npt.assert_allclose(traj.ys[-1], y0 * np.exp(-1.0), atol=1e-8)


def kind_rhs(t, y):
    """Columns (v, kind): kind 0 decays, v' = -v; kind 1 blows up at t = 1
    from v = 1, v' = v^2; kind 2 has v' = 1/t (0 at t = 0), whose error
    estimate does not shrink with the step.  t is a float or one time per
    column."""
    v, kind = y
    inv = 1.0 / np.where(np.broadcast_to(t, v.shape) > 0.0, t, np.inf)
    return np.array([np.choose(kind.astype(int), [-v, v * v, inv]), np.zeros_like(v)])


def run_columns(kinds, edges=None, tol=1e-10):
    """dp45 on kind_rhs columns from v = 1 to T = 2 at tolerance tol, in one
    group unless edges split them.  Returns, per group, the accepted steps
    (t0, h, t1, v at t1) and the drops (columns in the group, t, reason),
    and the counts."""
    edges = [0, len(kinds)] if edges is None else edges
    y = np.array([np.ones(len(kinds)), kinds], dtype=float)
    live = np.ones(len(kinds), dtype=bool)
    group = np.repeat(np.arange(len(edges) - 1), np.diff(edges))
    steps = [[] for _ in edges[1:]]
    dropped = [[] for _ in edges[1:]]

    def accept(groups, cols, stepped, fa, yb, fb):
        assert list(cols) == [c for k in groups for c in range(edges[k], edges[k + 1])]
        for k, step in zip(groups, stepped):
            steps[k].append((*step, yb[0, group[cols] == k].copy()))
        return fb

    def drop(cols, t, reason):
        live[cols] = False
        (k,) = set(group[cols])
        dropped[k].append(((cols - edges[k]).tolist(), t, reason))

    with np.errstate(over="ignore", invalid="ignore"):
        counts = dp45(kind_rhs, y, 2.0, tol, edges, live, accept, drop)
    return steps, dropped, counts


def test_dp45_drops_a_blowing_up_column_and_keeps_the_others():
    # y' = y^2 from 1 blows up at t = 1; the two decaying columns go on to T
    (steps,), (dropped,), _ = run_columns([0, 0, 1])
    assert len(dropped) == 1
    cols, t_drop, reason = dropped[0]
    assert cols == [2] and reason == "step collapse" and abs(t_drop - 1.0) < 1e-9
    assert steps[-1][2] == 2.0
    # every accepted step moves t: near the pole, a step below 10 ulp of t
    # is a step collapse, never an accepted step
    assert all(t1 > t0 for t0, _, t1, _ in steps)
    y_end = steps[-1][3][:2]
    # the blow-up leaks nothing into the live columns: replaying them alone
    # along the same accepted steps gives the same bits
    y, f = np.ones((1, 2)), -np.ones((1, 2))
    for t0, h, _, _ in steps:
        y, f, _ = dp45_step(lambda t, yy: -yy, t0, y, h, f)
    npt.assert_array_equal(y[0], y_end)
    # a run without the bad column takes its own steps (the bad column set
    # the shared step while it was live), so it agrees to the tolerance
    (ref_steps,), (ref_dropped,), _ = run_columns([0, 0])
    assert ref_dropped == [] and ref_steps[-1][2] == 2.0
    npt.assert_allclose(y_end, ref_steps[-1][3], rtol=1e-9)
    npt.assert_allclose(y_end, np.exp(-2.0), rtol=1e-9)


def test_dp45_groups_keep_their_own_bits():
    # three groups in lockstep: the first drops its blow-up column as a
    # step collapse near t = 1, the second its 1/t column as a step collapse
    # at t = 0 (the minimum step there is 10 ulp of T, not the subnormal 10
    # ulp of 0); each group takes the steps, reaches the states and makes
    # the drops it does alone
    kinds, edges = [0, 1, 0, 0, 2, 0, 0, 0], [0, 2, 5, 8]
    steps, dropped, counts = run_columns(kinds, edges, tol=1e-6)
    alone = [run_columns(kinds[a:b], tol=1e-6) for a, b in zip(edges, edges[1:])]
    for k, ((ref_steps,), (ref_dropped,), _) in enumerate(alone):
        assert [s[:3] for s in steps[k]] == [s[:3] for s in ref_steps]
        assert b"".join(s[3].tobytes() for s in steps[k]) == b"".join(s[3].tobytes() for s in ref_steps)
        assert dropped[k] == ref_dropped
    assert [d[0][2] for d in dropped[:2]] == ["step collapse", "step collapse"]
    assert dropped[1][0][1] == 0.0 and dropped[2] == [] and all(s[-1][2] == 2.0 for s in steps)
    # the 1/t column goes at t = 0, where h restarts at 1e-3, so the second
    # group then steps as the third; the first ends after more steps
    assert [s[:3] for s in steps[1]] == [s[:3] for s in steps[2]] and len(steps[0]) > len(steps[1])
    # an iteration is one attempt of every running group
    parts = [c for _, _, c in alone]
    assert counts == {k: (max if k == "iterations" else sum)(c[k] for c in parts) for k in counts}


def test_integrate_blow_up_raises_with_time():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match="step collapse at t=0.99"):
            integrate(lambda t, y: y * y, np.array([1.0]), 2.0)
    # y' = 1/(t - 1) from 0: y stays moderate (log|t - 1|) while h shrinks
    # towards the pole; the minimum step ends it there within 20,000 calls
    # (about 8,000), where steps that do not move t would creep on for millions
    calls = []

    def log_rhs(t, y):
        calls.append(t)
        if len(calls) > 20_000:
            raise RuntimeError("no step collapse within 20,000 calls")
        return 1.0 / (t - 1.0)

    with pytest.raises(IntegrationError, match=r"step collapse at t=0\.99999999"):
        integrate(log_rhs, np.array([0.0]), 2.0)


def one_column_run(rhs, y0, T, tol=1e-10, copies=1, dead=0):
    """dp45 from the state y0 (d values) under rhs(t, y), an array field of
    (d, n) states: on one column (copies = 1, dead = 0), the Python-float
    loop, where rhs gets and returns lists, or in one group of that many
    live copies of y0 and columns not live from the start, the array loop.
    Returns the accepted steps (t0, h, t1 and the bytes of the first
    column's y1 and f1), the drops (columns, t, reason) and the counts."""
    n = copies + dead
    y = np.repeat(np.asarray(y0, dtype=float)[:, None], n, axis=1)
    live = np.arange(n) < copies
    steps, drops = [], []

    def accept(groups, cols, stepped, fa, yb, fb):
        ends = (np.array(yb), np.array(fb)) if n == 1 else (yb[:, 0], fb[:, 0])
        steps.append((*stepped[0], *(e.tobytes() for e in ends)))
        return fb

    def drop(cols, t, reason):
        live[cols] = False
        drops.append((cols.tolist(), t, reason))

    def floats(t, y):
        assert type(t) is float and [type(v) for v in y] == [float] * len(y)
        return rhs(t, np.array(y)[:, None])[:, 0].tolist()

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        counts = dp45(floats if n == 1 else rhs, y, T, tol, [0, n], live, accept, drop)
    return steps, drops, counts


@pytest.mark.parametrize(
    "rhs, y0, T, tol, dropped, rejects",
    [
        (lambda t, y: -y, [1.0], 2.0, 1e-10, None, False),
        (lambda t, y: np.array([y[1], -100.0 * y[0]]), [1.0, 0.0], 3.0, 1e-6, None, True),
        (lambda t, y: -y, [1.0], 4e-4, 1e-10, None, False),
        (lambda t, y: -0.5 / np.sqrt(y), [1.0], 2.0, 1e-8, "non-finite step", True),
    ],
    ids=["decay", "oscillator-with-rejections", "T-below-first-step", "blow-up"],
)
def test_one_column_run_is_bit_equal_to_two_copies(rhs, y0, T, tol, dropped, rejects):
    # two copies of a column in one group have the column's own error norm,
    # so the array loop must take the float loop's steps to the bit; the
    # square root's slope blows up where y reaches 0 and the step past it is NaN
    steps, drops, counts = one_column_run(rhs, y0, T, tol)
    steps2, drops2, counts2 = one_column_run(rhs, y0, T, tol, copies=2)
    assert steps2 == steps and len(steps) > 0
    assert counts2 == {**counts, "rhs_columns": 2 * counts["rhs_columns"]}
    if dropped is None:
        assert drops == drops2 == [] and steps[-1][2] == T
    else:
        ((cols, t, reason),) = drops
        assert cols == [0] and reason == dropped and drops2 == [([0, 1], t, reason)]
    assert (counts["rejected"] > 0) == rejects
    if T < 1e-3:
        assert [s[:3] for s in steps] == [(0.0, T, T)]


def test_one_column_step_collapse_is_bit_equal_to_a_dead_partner():
    # a collapse drops only the group's worst column, so a live copy would
    # go on; a partner column that is not live leaves the group the norm and
    # the worst column of the live one: y' = y^2 blows up at t = 1
    run = one_column_run(lambda t, y: y * y, [1.0], 2.0)
    steps, drops, counts = run
    assert one_column_run(lambda t, y: y * y, [1.0], 2.0, dead=1)[:2] == run[:2]
    ((cols, t, reason),) = drops
    assert cols == [0] and reason == "step collapse" and abs(t - 1.0) < 1e-9
    # the retry after the drop is an rhs call of the column
    assert counts["rhs_columns"] == 1 + 6 * counts["iterations"] + 1


def test_one_column_step_budget(monkeypatch):
    # the float loop raises at the attempt after MAX_STEPS accepted steps,
    # at the time the array loop reports
    monkeypatch.setattr(ode, "MAX_STEPS", 10)
    messages = []
    for dead in (0, 1):
        with pytest.raises(IntegrationError, match="step budget exceeded") as err:
            one_column_run(lambda t, y: -y, [1.0], 1.0, dead=dead)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_one_column_error_norm_is_the_array_norm():
    # the float norm of a one-column run against the array loop's, row
    # values from 0 to overflow, with NaN and inf in each of y, y1 and err
    rng = np.random.default_rng(3)
    cols = list(rng.uniform(-1.0, 1.0, (200, 3, 5)) * 10.0 ** rng.integers(-300, 300, (200, 3, 5)))
    for k in range(3):
        for bad in (np.nan, np.inf, -np.inf, 0.0, -0.0):
            col = rng.uniform(-1.0, 1.0, (3, 5))
            col[k, rng.integers(5)] = bad
            cols.append(col)
    with np.errstate(over="ignore", invalid="ignore"):
        for tol in (1e-10, 1e-6):
            wide = ode._error_norms(*np.stack(cols, axis=-1), tol)
            one = [ode._error_norm_floats(*c.tolist(), tol) for c in cols]
            assert [type(v) for v in one] == [float] * len(cols)
            assert np.array(one).tobytes() == wide.tobytes()
            assert np.isnan(wide).sum() == 3  # a NaN in y, y1 or err


def rotation_generator(w, damping=0.0):
    """An affine generator [[M, 0], [0, 0]]: a rotation by w about the z axis
    (1-norm |w|, from rows 0 and 1 of M) with -damping on the diagonal of M."""
    a = np.zeros((1, 4, 4))
    a[0, :3, :3] = np.array([[0.0, -w, 0.0], [w, 0.0, 0.0], [0.0, 0.0, 0.0]]) - damping * np.eye(3)
    return a


def test_expm_refuses_a_generator_lost_to_its_own_rounding():
    # at the bound the rotation is still taken: a unit row stays a unit
    # row; twice the bound is refused before any squaring (the squarings of
    # a 1e17 rotation used to give NaN, with overflow warnings)
    r = ode.expm(rotation_generator(ode.MAX_NORM))[0]
    npt.assert_allclose(np.hypot(r[0, 0], r[0, 1]), 1.0, rtol=0, atol=1e-6)
    assert (r[3] == [0.0, 0.0, 0.0, 1.0]).all()
    for w in (2.0 * ode.MAX_NORM, 2.5e17, 1e300):
        with pytest.raises(ValueError, match="lost to the rounding of its generator"):
            ode.expm(np.concatenate([rotation_generator(1.0), rotation_generator(w)]))
    # damping makes the flow forget the rounding: a 1e12 rotation damped by
    # 1e11 decays to 0, one damped by 10 (1e11 over the bound) is refused
    assert not ode.expm(rotation_generator(1e12, damping=1e11))[0, :3, :3].any()
    with pytest.raises(ValueError, match="damping 10 passes"):
        ode.expm(rotation_generator(1e12, damping=10.0))


def test_expm_takes_the_replay_spike_strength():
    # a Bloch generator at |u| = 1e6 over a step of 1/400 (1-norm 2500,
    # far below the bound) is propagated to the general Pade-13 reference
    from reference import expm as reference_expm

    p = SystemParams.from_ratio(0.1)
    b = bloch_rhs(np.zeros(3), 1e6, 0.0, p)
    a = np.zeros((1, 4, 4))
    a[0, :3, :3] = np.stack([bloch_rhs(e, 1e6, 0.0, p) - b for e in np.eye(3)], axis=1) / 400.0
    a[0, :3, 3] = bloch_rhs(np.array([0.0, 0.0, 1.0]), 1e6, 0.0, p) / 400.0
    npt.assert_allclose(ode.expm(a), reference_expm(a), rtol=0, atol=1e-12)
