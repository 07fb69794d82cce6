import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from qubit_reach import extremals
from qubit_reach import (
    SystemParams,
    field_f,
    hamiltonian,
    integrate_extremal,
    recover_control,
    replay_extremal,
    seed,
    seed_grid,
    sweep_extremals,
    theta_rhs,
)
from qubit_reach.bloch import SingularityError, _meridian_rhs, _trig
from qubit_reach.extremals import (
    ExtremalSeed,
    _d2H,
    _stationarity,
    extremal_flow,
    normalize_states,
    sample_times,
    sweep_extremals_parallel,
)
import reference
from reference import convexity_margin, dense_extremal, hamiltonian_dtheta

P = SystemParams.from_ratio(0.1)
G = P.ratio


def state(z, R, p, q, th):
    return np.array([z, R, p, q, th])


def test_hamiltonian_plugin_value():
    # q-only costate at the start circle with theta = pi/2 gives H = 0
    assert abs(hamiltonian(state(0, 1, 0, 1, np.pi / 2), P)) < 1e-15


def test_hamiltonian_periodic():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = state(*rng.normal(size=5))
        s2 = s.copy()
        s2[4] += 2 * np.pi
        assert abs(hamiltonian(s, P) - hamiltonian(s2, P)) < 1e-13


def test_stationarity_gradient_closed_form():
    # dH/dtheta at (z, R) = (0, 1) reduces to the seeding expression
    rng = np.random.default_rng(1)
    for _ in range(30):
        psi, th = rng.uniform(0, 2 * np.pi, 2)
        got = hamiltonian_dtheta(state(0, 1, np.cos(psi), np.sin(psi), th), P)[0]
        expect = np.cos(psi) * np.sin(th) - G * np.sin(psi) * np.cos(th) * (np.sin(th) - 1)
        assert abs(got - expect) < 1e-14


def test_costate_rhs_finite_difference():
    # (p', q') = -(dH/dz, dH/dR) by central differences
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(100):
        s = state(*rng.normal(size=5))
        got = extremal_flow(*s, G)[2:4]
        for k, comp in ((0, 0), (1, 1)):
            sp, sm = s.copy(), s.copy()
            sp[comp] += h
            sm[comp] -= h
            fd = -(hamiltonian(sp, P) - hamiltonian(sm, P)) / (2 * h)
            assert abs(got[k] - fd) < 1e-7


def test_costate_rhs_at_right_angle():
    s = state(0.3, 0.4, 0.8, -0.2, np.pi / 2)
    got = extremal_flow(*s, G)[2:4]
    npt.assert_allclose(got, [0.5 * G * 0.8, G * (-0.2)], atol=1e-15)


def test_costates_never_vanish():
    traj = integrate_extremal(seed(2.3, P), 7.0, P, sample_dt=7 / 512)
    norms = np.hypot(traj.ys[:, 2], traj.ys[:, 3])
    assert norms.min() > 0.1 * norms[0] * np.exp(-2 * 7)


def test_theta_rhs_denominator_guard():
    with pytest.raises(SingularityError):
        theta_rhs(state(0, 1, 0, 1, np.pi / 2), P)


def test_convexity_margin_values():
    assert abs(convexity_margin(1.0, np.pi / 2, P)) < 1e-15
    assert convexity_margin(0.0, 1.0, P) == 0.0
    for th in np.linspace(0, 2 * np.pi, 50):
        assert convexity_margin(0.5, th, P) <= G * 0.5 * (0.5 - 1.0) + 1e-15


def test_convexity_margin_is_velocity_curvature():
    # cross product of the theta-tangent and its derivative, by finite
    # differences on the velocity curve itself
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(40):
        z, R = rng.uniform(-0.7, 0.7), rng.uniform(0, 1)
        th = rng.uniform(0, 2 * np.pi)

        def vel(t):
            return np.array(_meridian_rhs(z, R, *_trig(t), G))

        xi = (vel(th + h) - vel(th - h)) / (2 * h)
        xi_p = (vel(th + h) - 2 * vel(th) + vel(th - h)) / h ** 2
        got = xi[0] * xi_p[1] - xi[1] * xi_p[0]
        npt.assert_allclose(got, convexity_margin(R, th, P), atol=1e-5)


def test_seed_examples():
    s = seed(0.0, P)
    assert abs(s.theta0 - np.pi) < 1e-12
    s = seed(np.pi / 2, P)
    assert abs(s.theta0 - np.pi / 2) < 2e-4  # root is quartically flat here
    with pytest.raises(ValueError):
        seed(0.0, P, branch="best")


def test_seed_beats_dense_grid():
    rng = np.random.default_rng(4)
    grid = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    for psi in rng.uniform(0, 2 * np.pi, 16):
        s = seed(psi, P)
        sts = np.tile(s.state0, (720, 1))
        sts[:, 4] = grid
        assert hamiltonian(s.state0, P) >= np.max(hamiltonian(sts, P)) - 1e-9
        assert abs(hamiltonian_dtheta(s.state0, P)[0]) < 1e-12


def test_seed_min_branch():
    s_max = seed(1.0, P, branch="max")
    s_min = seed(1.0, P, branch="min")
    assert hamiltonian(s_max.state0, P) > hamiltonian(s_min.state0, P)


# the 4096 grid angles and the quarter turns, where cos or sin of psi0 is 0 or 1
SEED_ANGLES = np.concatenate([2.0 * np.pi * (np.arange(4096) + 0.5) / 4096, np.pi / 2 * np.arange(4)])


@pytest.mark.parametrize("branch", ["max", "min"])
@pytest.mark.parametrize("ratio", [0.0, 0.5, 3.0])
def test_seed_batch_is_the_same_in_any_batch(ratio, branch):
    # each seed has the same bits in the whole batch, in a split of it (a lone
    # angle, pieces around SEED_BLOCK and the rest) and alone: every 41st
    # angle and the quarter turns, one seed() each
    params = SystemParams.from_ratio(ratio)

    def thetas(psis):
        return np.array([s.theta0 for s in extremals.seed_batch(psis, params, branch)])

    whole = thetas(SEED_ANGLES)
    block = extremals.SEED_BLOCK
    cuts = np.cumsum([1, block - 1, block, block + 1, 2 * block + 7, 1000])
    split = np.concatenate([thetas(part) for part in np.split(SEED_ANGLES, cuts)])
    assert split.tobytes() == whole.tobytes()
    alone = [*range(0, 4096, 41), *range(4096, 4100)]
    one = np.array([seed(SEED_ANGLES[k], params, branch).theta0 for k in alone])
    assert one.tobytes() == whole[alone].tobytes()
    assert extremals.seed_batch([], params, branch) == []


def ulps_around(x, k):
    """x and its k float neighbours on either side."""
    out = [x]
    for toward in (np.inf, -np.inf):
        y = x
        for _ in range(k):
            y = np.nextafter(y, toward)
            out.append(y)
    return out


# the 4096 and 256 grids, the quarter turns and 3 ulp either side of pi/2,
# pi and 3 pi/2, and random angles
SCAN_ANGLES = np.concatenate([
    2.0 * np.pi * (np.arange(4096) + 0.5) / 4096, 2.0 * np.pi * (np.arange(256) + 0.5) / 256,
    [0.0], *(ulps_around(k * np.pi / 2, 3) for k in (1, 2, 3)),
    np.random.default_rng(31).uniform(0.0, 2.0 * np.pi, 2000),
])


@pytest.mark.parametrize("ratio", [0.0, 0.1, 0.5, 3.0])
def test_two_level_seed_scan_matches_the_dense_scan(monkeypatch, ratio):
    # the coarse-to-fine scan finds the brackets, exact zeros and argmax and
    # argmin indices of the scan of every grid point, so the seeds' bits on
    # both branches
    params = SystemParams.from_ratio(ratio)
    grid = np.linspace(0.0, 2.0 * np.pi, extremals.SEED_SCAN + 1)
    c, s = np.cos(SCAN_ANGLES)[:, None], np.sin(SCAN_ANGLES)[:, None]
    scans = [list(scan(grid, c, ratio * s, 0.5 * ratio * s))
             for scan in (extremals._seed_scan, reference.dense_seed_scan)]
    for got, want in zip(*scans):
        assert got.tobytes() == want.tobytes()
    # the chord bounds it skips by hold: f and H stay that close to the chord
    # of their coarse end values on every coarse interval
    m, st, ct = extremals.SEED_STRIDE, np.sin(grid), np.cos(grid)
    frac = np.arange(m) / m
    for k in range(0, len(c), 128):
        cc, gs = c[k : k + 128], ratio * s[k : k + 128]
        fh = np.stack([cc * st - gs * ct * (st - 1.0), -cc * ct - 0.5 * gs * (st - 1.0) ** 2])
        lo, hi = fh[..., :-1:m, None], fh[..., m::m, None]
        off = np.abs(fh[..., :-1].reshape(*lo.shape[:-1], m) - (lo + (hi - lo) * frac)).max(axis=-1)
        assert np.all(off <= extremals._chord_bounds(cc, gs, grid[m]).T[:, :, None])

    def thetas(branch):
        return np.array([sd.theta0 for sd in extremals.seed_batch(SCAN_ANGLES, params, branch)])

    two_level = [thetas(branch) for branch in ("max", "min")]
    monkeypatch.setattr(extremals, "_seed_scan", reference.dense_seed_scan)
    for branch, got in zip(("max", "min"), two_level):
        assert got.tobytes() == thetas(branch).tobytes()


def test_extremal_invariants_along_trajectory():
    traj = integrate_extremal(seed(0.9, P), 7.0, P, sample_dt=7 / 1024)
    H = hamiltonian(traj.ys, P)
    assert np.max(np.abs(H - H[0])) < 1e-8
    assert np.max(np.abs(hamiltonian_dtheta(traj.ys, P)[0])) < 1e-8
    assert np.max(traj.ys[:, 0] ** 2 + traj.ys[:, 1] ** 2) <= 1 + 1e-9
    assert traj.ys[:, 1].min() >= 0.0  # folded to R >= 0


def test_theta_rhs_matches_argmax_slope():
    # independent oracle: Newton-polished brute-force argmax along the
    # trajectory, differentiated by central differences
    traj = dense_extremal(integrate_extremal(seed(2.0, P), 6.0, P, sample_dt=6 / 2048), P)

    def argmax_theta(s):
        th_grid = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        sts = np.tile(s, (4096, 1))
        sts[:, 4] = th_grid
        th = th_grid[int(np.argmax(hamiltonian(sts, P)))]
        for _ in range(60):
            probe = s.copy()
            probe[4] = th
            f, fp = hamiltonian_dtheta(probe, P)
            if abs(fp) < 1e-13:
                break
            th -= f / fp
        return th

    h = 1e-3
    for k in range(128, 1900, 256):
        tau = traj.ts[k]
        th_m = argmax_theta(traj.sample(tau - h)[0])
        th_p = argmax_theta(traj.sample(tau + h)[0])
        fd = ((th_p - th_m + np.pi) % (2 * np.pi) - np.pi) / (2 * h)
        assert abs(fd - theta_rhs(traj.ys[k], P)) < 1e-5


def test_sweep_reports_degenerate_seed():
    # psi0 = pi/2 starts on the stationary extremal: theta dynamics is 0/0
    sw = sweep_extremals([seed(np.pi / 2, P)], 1.0, P, comps=(0, 1), sample_dt=0.125)
    assert sw.fail_tau[0] == 0.0
    z = sw.samples([0], [0], np.s_[:])[0, 0]
    npt.assert_allclose(z[0], 0.0)
    assert np.isnan(z[-1])


def test_sweep_disc_invariance():
    sw = sweep_extremals(seed_grid(64, P), 7.0, P, comps=(0, 1), sample_dt=7 / 512)
    assert np.isinf(sw.fail_tau).all()
    z, R = sw.samples([0, 1], np.arange(64), np.s_[:])
    rad = z ** 2 + R ** 2
    assert np.nanmax(rad) <= 1 + 1e-9


def node_bytes(blk):
    return {k: v.tobytes() for k, v in blk.items()}


@pytest.mark.parametrize("jump", [None, 1e-11])
def test_sweep_parallel_merge_identical(monkeypatch, jump):
    # every block is its own dp45 group: it gets the nodes it gets swept
    # alone, and the thread count only splits the blocks into chunks
    monkeypatch.setattr(extremals, "SWEEP_BLOCK", 8)
    if jump:  # a tiny branch-jump bound ends most seeds early, at many times
        monkeypatch.setattr(extremals, "MAX_BRANCH_JUMP", jump)
    seeds = seed_grid(32, P)
    seeds[8:16] = [seed(np.pi / 2, P)] * 8  # a block frozen at tau = 0
    seeds.insert(19, seed(np.pi / 2, P))  # one frozen seed in the third block
    rows = np.arange(len(seeds))
    runs = [sweep_extremals_parallel(seeds, 2.0, P, n_threads=k, comps=range(5), sample_dt=2 / 256)
            for k in (1, 2, 3, 8)]  # 8 threads: more than the 5 blocks
    a = runs[0]
    full = a.samples(range(5), rows, np.s_[:])
    assert len(a.blocks) == 5 and a.blocks[1]["nodes"].shape == (16, 8, 1)
    for b in runs[1:]:
        assert b.samples(range(5), rows, np.s_[:]).tobytes() == full.tobytes()
        assert [node_bytes(x) for x in b.blocks] == [node_bytes(x) for x in a.blocks]
        assert b.fail_tau.tobytes() == a.fail_tau.tobytes() and b.fail_reason == a.fail_reason
        # only the lockstep iterations depend on the chunks
        assert {**b.counts, "iterations": 0} == {**a.counts, "iterations": 0}
    for k, blk in enumerate(a.blocks):
        part = np.s_[8 * k : 8 * k + 8]
        alone = sweep_extremals(seeds[part], 2.0, P, comps=range(5), sample_dt=2 / 256)
        assert node_bytes(alone.blocks[0]) == node_bytes(blk)
        assert alone.samples(range(5), rows[part] - 8 * k, np.s_[:]).tobytes() == full[:, part].tobytes()
        assert alone.fail_tau.tobytes() == a.fail_tau[part].tobytes()
        assert alone.fail_reason == a.fail_reason[part]
    frozen = np.r_[8:16, 19]
    assert (a.fail_tau[frozen] == 0.0).all()
    assert (full[:2, frozen, 0] == [[0.0], [1.0]]).all() and np.isnan(full[:, frozen, 1:]).all()
    if jump:
        assert np.isfinite(a.fail_tau).sum() > 20 and "argmax branch jump" in a.fail_reason
    else:
        assert np.isfinite(a.fail_tau).sum() == 9


def test_kept_components_read_the_bits_of_a_full_sweep(monkeypatch):
    # a (z, R) sweep keeps 6 of the 16 node rows, and every read it allows
    # gives the bits of the full sweep's: over seeds that fail at many times,
    # a block frozen at tau = 0 and one frozen seed in the third block
    monkeypatch.setattr(extremals, "SWEEP_BLOCK", 8)
    monkeypatch.setattr(extremals, "MAX_BRANCH_JUMP", 1e-11)
    seeds = seed_grid(32, P)
    seeds[8:16] = [seed(np.pi / 2, P)] * 8
    seeds.insert(19, seed(np.pi / 2, P))
    full, zr = (sweep_extremals(seeds, 2.0, P, comps=c, sample_dt=2 / 256) for c in (range(5), (1, 0)))
    assert full.comps == (0, 1, 2, 3, 4) and zr.comps == (0, 1)
    assert np.isfinite(full.fail_tau).sum() > 20 and zr.fail_tau.tobytes() == full.fail_tau.tobytes()
    for rows in (np.arange(33), [0, 9, 19, 20, 32], [31]):
        for cols in (np.s_[:], np.s_[5:200:3], np.s_[0:1], np.s_[256:]):
            for comps in ([0, 1], [1], [1, 0]):
                want = full.samples(comps, rows, cols)
                assert zr.samples(comps, rows, cols).tobytes() == want.tobytes()
    assert zr.start([0, 1]).tobytes() == full.start([0, 1]).tobytes()
    for b, blk in enumerate(full.blocks):
        assert [zr.blocks[b][k].tobytes() for k in ("t0", "h", "t1")] == [
            blk[k].tobytes() for k in ("t0", "h", "t1")]
        if len(blk["t1"]):  # a block frozen at tau = 0 took no step
            u = np.union1d(blk["t1"], full.tau[::37])
            rows = np.arange(blk["nodes"].shape[1])
            assert zr.bezier(b, rows, u).tobytes() == full.bezier(b, rows, u).tobytes()
    assert {blk["nodes"].shape[0] for blk in zr.blocks} == {6}
    kept, every = (sum(blk["nodes"].nbytes for blk in s.blocks) for s in (zr, full))
    assert 16 * kept == 6 * every
    rows = np.arange(33)
    for read in (lambda: zr.samples([2], rows, np.s_[:]), lambda: zr.samples(range(5), rows, np.s_[:]),
                 lambda: zr.start([4])):
        with pytest.raises(ValueError, match=r"kept components \(0, 1\)"):
            read()
    with pytest.raises(ValueError, match="cannot merge"):
        extremals.merge_sweeps([zr, full])


def test_sweep_counts_repeat_and_blocks_share_iterations():
    seeds = seed_grid(4 * extremals.SWEEP_BLOCK, P)
    a, b = (sweep_extremals(seeds, 4.0, P, comps=(0, 1), tol=1e-8, sample_dt=4 / 1024) for _ in range(2))
    assert a.counts == b.counts
    steps = [len(blk["t1"]) for blk in a.blocks]
    assert a.counts["accepted"] == sum(steps)
    # one iteration steps all four blocks: fewer than their summed steps
    assert max(steps) <= a.counts["iterations"] < a.counts["accepted"]
    # the start, then six stages per attempt of a block (no seed was dropped)
    attempts = a.counts["accepted"] + a.counts["rejected"]
    assert a.counts["rhs_columns"] == len(seeds) + 6 * extremals.SWEEP_BLOCK * attempts


@pytest.mark.parametrize("fail_some", [False, True])
def test_reader_is_bit_equal_on_any_rows_and_columns(monkeypatch, fail_some):
    # one column alone, a column range and a sparse row set read the bits
    # of one wide read: the Hermite weights stay float64 arrays, because a
    # scalar s rounds s ** 3 differently
    seeds = seed_grid(64, P)
    if fail_some:
        seeds[20] = seed(np.pi / 2, P)  # frozen at tau = 0
        # a tiny branch-jump bound ends most seeds early, at many times
        monkeypatch.setattr(extremals, "MAX_BRANCH_JUMP", 1e-11)
    monkeypatch.setattr(extremals, "SWEEP_BLOCK", 16)
    sw = sweep_extremals_parallel(seeds, 7.0, P, comps=range(5), sample_dt=7 / 512)
    all_rows = np.arange(64)
    full = sw.samples(range(5), all_rows, np.s_[:])
    for j in (0, 1, 2, 255, 511, 512):
        one = sw.samples(range(5), all_rows, np.s_[j : j + 1])
        assert one.tobytes() == full[:, :, j : j + 1].tobytes()
    rows = np.array([3, 20, 40, 63])
    part = sw.samples([4, 1], rows, np.s_[7:300])
    assert part.tobytes() == full[[4, 1]][:, rows, 7:300].tobytes()
    assert sw.samples([0], rows, np.s_[9:9]).shape == (1, 4, 0)
    with pytest.raises(ValueError, match="increasing"):
        sw.samples([0], [3, 3], np.s_[:])
    # NaN exactly from each seed's failure sample on
    npt.assert_array_equal(np.isnan(full).any(axis=0), sw.tau > sw.fail_tau[:, None])
    if fail_some:
        assert sw.fail_tau[20] == 0.0 and np.isnan(full[:, 20, 1:]).all()
        mid = (sw.fail_tau > 0.0) & (sw.fail_tau < 7.0)
        assert 10 < mid.sum() < 63 and np.isnan(full[:, mid, -1]).all()
    else:
        assert np.isinf(sw.fail_tau).all() and not np.isnan(full).any()


def test_trig_helpers_are_bit_equal():
    rng = np.random.default_rng(11)
    z, R, p, q = rng.uniform(-1.0, 1.0, (4, 1000))
    th = rng.uniform(-10.0, 10.0, 1000)
    st = np.sin(th)
    trig = (st, np.cos(th), 1.0 - 2.0 * st * st)
    for g in (0.0, 0.1, 0.7):
        want = (*_meridian_rhs(z, R, *_trig(th), g), _stationarity(z, R, p, q, th, g)[1])
        got = (*_meridian_rhs(z, R, *trig, g), _d2H(z, R, p, q, *trig, g))
        flow = extremal_flow(z, R, p, q, th, g)
        for w, a, b in zip(want, got, flow[:2] + flow[5:]):
            assert w.tobytes() == a.tobytes() == b.tobytes()


@pytest.mark.parametrize("g", [0.0, 0.1, 0.7, 3.0])
def test_field_from_one_sine_and_cosine_matches_four_transcendentals(g):
    # the flow and the stationarity helper against the forms with sin th,
    # cos th, cos 2th and sin 3th (sin 2th for dH/dtheta)
    rng = np.random.default_rng(12)
    z, R, p, q = rng.uniform(-1.0, 1.0, (4, 20000))
    th = rng.uniform(-10.0, 10.0, 20000)
    got = (*extremal_flow(z, R, p, q, th, g), *_stationarity(z, R, p, q, th, g))
    want = (*reference.extremal_flow(z, R, p, q, th, g), *reference.stationarity(z, R, p, q, th, g))
    for a, b in zip(got, want):
        npt.assert_allclose(a, b, rtol=0.0, atol=1e-14)


def _one_column_cases():
    """(5, k) states: seeded random columns, theta at multiples of pi/2,
    den exactly 0, |den| exactly DEN_TOL and its float neighbours (theta =
    0 and q = 0 make den = p R, with R = 1), and non-finite components."""
    rng = np.random.default_rng(14)
    cols = list(rng.uniform(-1.0, 1.0, (64, 5)) * [1, 1, 1, 1, 10])
    cols += [[*rng.uniform(-1.0, 1.0, 4), k * np.pi / 2] for k in range(-4, 5)]
    cols += [[0.3, 0.0, 1.0, 0.0, th] for th in (0.0, 0.7, -2.0)]  # den = 0, num != 0
    tol = extremals.DEN_TOL
    for d in (np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0)):
        cols += [[0.3, 1.0, d, 0.0, 0.0], [0.3, 1.0, -d, 0.0, 0.0]]
    for i in range(5):
        for bad in (np.inf, -np.inf, np.nan):
            col = list(rng.uniform(-1.0, 1.0, 5))
            col[i] = bad
            cols.append(col)
    return np.array(cols).T


def test_one_column_trig_gives_floats_with_the_array_bits():
    # a one-seed sweep's theta is a Python float: _trig gives Python floats
    # with the bits of an array's sin, cos and cos 2
    sub = np.nextafter(0.0, 1.0)
    thetas = [0.0, -0.0, sub, -sub, 1e-310, -1e-310, np.pi, -np.pi, 1e300, -1e300,
              np.inf, -np.inf, np.nan]
    with np.errstate(invalid="ignore"):
        wide = np.array(_trig(np.array(thetas)))
        for j, th in enumerate(thetas):
            one = _trig(float(th))
            assert [type(v) for v in one] == [float] * 3, th
            assert np.array(one).tobytes() == wide[:, j].tobytes(), th


@pytest.mark.parametrize("g", [0.0, 0.1, 0.7, 3.0])
def test_one_column_rhs_is_bit_equal_to_the_array_path(g):
    y = _one_column_cases()
    with np.errstate(all="ignore"):
        tol, den = extremals.DEN_TOL, extremal_flow(*y, g)[5]
        assert np.isin([np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0)], np.abs(den)).all()
        assert np.sum(den == 0.0) == 3
        wide = extremals._extremal_rhs(y, g)
        assert wide.tobytes() == reference.extremal_rhs(y, g).tobytes()
        for j in range(y.shape[1]):
            one = extremals._extremal_rhs(y[:, j].tolist(), g)  # the state of a one-seed sweep
            assert [type(v) for v in one] == [float] * 5
            assert np.array(one).tobytes() == wide[:, j].tobytes()


def test_one_seed_sweep_is_bit_equal_to_the_array_path(monkeypatch):
    # a one-seed sweep runs dp45, the field and the theta re-projection on
    # Python floats; the same seed twice runs their array forms in one group
    # whose error norm is the seed's own, so each copy must have the nodes,
    # steps, failures and work (per column) of the one-seed sweep: for a seed
    # that reaches T, one frozen at tau = 0, one that a tiny branch-jump bound
    # ends early, and one whose residual equals PROJECT_TOL at the first step
    # the re-projection would move
    def run(psi0, copies):
        sw = sweep_extremals([seed(psi0, P)] * copies, 7.0, P, comps=range(5), sample_dt=1e-3)
        (blk,) = sw.blocks
        return blk, sw.counts, sw.fail_tau, sw.fail_reason

    for psi0, jump, at_tol, reason in [
        (1.0, None, False, None),
        (np.pi / 2, None, False, "degenerate start (stationary extremal)"),
        (2.0, 1e-11, False, "argmax branch jump"),
        (1.0, None, True, None),
    ]:
        with monkeypatch.context() as mp:
            if jump:
                mp.setattr(extremals, "MAX_BRANCH_JUMP", jump)
            if at_tol:  # dH/dtheta before the re-projection (rows 0-3 and 10) at each step's end
                node = run(psi0, 1)[0]["nodes"][:, 0, 1:]
                th = np.mod(node[10] + np.pi, 2.0 * np.pi) - np.pi
                res = np.abs(_stationarity(*node[:4], th, P.ratio)[0])
                mp.setattr(extremals, "PROJECT_TOL", res[np.argmax(res > extremals.PROJECT_TOL)])
            one, counts, fail_tau, fail_reason = run(psi0, 1)
            assert fail_reason == [reason]
            two, counts2, fail_tau2, fail_reason2 = run(psi0, 2)
            case = (psi0, jump, at_tol)
            for k in ("t0", "h", "t1"):
                assert one[k].tobytes() == two[k].tobytes(), case
            for c in (0, 1):
                assert one["nodes"][:, 0].tobytes() == two["nodes"][:, c].tobytes(), case
            assert counts2 == {**counts, "rhs_columns": 2 * counts["rhs_columns"]}, case
            assert fail_tau2.tobytes() == np.repeat(fail_tau, 2).tobytes() and fail_reason2 == [reason] * 2


def test_sweep_keeps_step_nodes_not_samples():
    # numpy reports its buffers to tracemalloc: a 4-block sweep holds its
    # step nodes (47 to 51 steps a block here), under a quarter of the bytes
    # of the five dense sample arrays, and allocates little beyond them
    seeds = seed_grid(4 * extremals.SWEEP_BLOCK, P)
    dense = 5 * len(seeds) * len(sample_times(4.0, 4 / 1024)) * 8
    tracemalloc.start()
    try:
        sweep = sweep_extremals_parallel(seeds, 4.0, P, comps=range(5), tol=1e-8, sample_dt=4 / 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes = sum(a.nbytes for b in sweep.blocks for a in b.values())
    assert nodes <= 0.25 * dense and peak <= 0.3 * dense


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_sweep_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tolerance"):
        sweep_extremals_parallel(seed_grid(4, P), 1.0, P, comps=(0, 1), tol=tol)


@pytest.mark.parametrize(
    "call, msg",
    [
        (lambda: hamiltonian(np.zeros((3, 4)), P), r"trailing axis of length 5, got \(3, 4\)"),
        (lambda: sweep_extremals([], 1.0, P, comps=(0, 1)), "at least one seed"),
        (lambda: sweep_extremals(seed_grid(4, P), 1.0, P, comps=(0, 5)), "components 0 to 4"),
        (lambda: sweep_extremals(seed_grid(4, P), 1.0, P, comps=()), "components 0 to 4"),
    ],
    ids=["hamiltonian-trailing-axis", "sweep-without-seeds", "sweep-comps-past-theta",
         "sweep-without-comps"],
)
def test_extremal_refusals(call, msg):
    with pytest.raises(ValueError, match=msg):
        call()


def test_normalize_states_is_involution_fixed():
    rng = np.random.default_rng(5)
    sts = rng.normal(size=(40, 5))
    out = normalize_states(sts)
    assert np.all(out[:, 1] >= 0)
    # Hamiltonian and stationarity residual are fold invariant
    npt.assert_allclose(hamiltonian(out, P), hamiltonian(sts, P), atol=1e-13)
    npt.assert_allclose(
        hamiltonian_dtheta(out, P)[0], hamiltonian_dtheta(sts, P)[0], atol=1e-13
    )


def test_recover_control_spiral_segment_identity():
    # a constant-theta synthetic segment must balance the free theta drift,
    # the chain rule on the Bloch field f0: 2 kappa u = -omega * g0_theta
    taus = np.linspace(0, 0.5, 33)
    z = 0.9 * np.exp(-0.5 * G * taus) * np.sin(taus)
    R = 0.9 * np.exp(-0.5 * G * taus) * np.cos(taus)
    states = np.column_stack([z, R, np.full_like(taus, 0.3), np.full_like(taus, -0.7),
                              np.zeros_like(taus)])
    from qubit_reach.ode import Trajectory

    traj = Trajectory(taus, states)
    # bypass theta_rhs by evaluating the recovery formula directly at
    # theta identically zero, where theta'_tau of the synthetic path is 0
    u = []
    for zz, rr in zip(z, R):
        r = np.array([zz, rr, 0.0])  # theta = 0
        f0 = field_f(0, r, P)
        u.append(-P.omega * (r[1] * f0[2] - r[2] * f0[1]) / rr ** 2 / (2 * P.kappa))
    u_expected = np.array(u)
    u_formula = P.omega * (0.0 + (z / R) * 0.0 + 0.25 * G * 0.0 - G * 1.0 / R) / (2 * P.kappa)
    npt.assert_allclose(u_formula, u_expected, atol=1e-13)


def test_recover_control_guards_axis():
    taus = np.linspace(0, 1, 5)
    states = np.column_stack(
        [taus * 0, np.array([1, 0.5, 1e-9, 0.5, 1.0]), taus * 0 + 1, taus * 0, taus * 0]
    )
    from qubit_reach.ode import Trajectory

    traj = Trajectory(taus, states)
    with pytest.raises(SingularityError):
        recover_control(traj, P)


def test_replay_reproduces_extremal():
    for psi in (0.7, 4.2):
        traj = integrate_extremal(seed(psi, P), 5.0, P, sample_dt=5 / 5000)
        rstates, sched = replay_extremal(traj, P)
        assert np.all(sched.n == 0.0)
        z_err = np.max(np.abs(rstates[:, 0] - traj.ys[:, 0]))
        R_err = np.max(np.abs(np.hypot(rstates[:, 1], rstates[:, 2]) - traj.ys[:, 1]))
        assert max(z_err, R_err) < 1e-4


def test_integrate_extremal_raises_on_degenerate_seed():
    from qubit_reach.ode import IntegrationError

    with pytest.raises(IntegrationError):
        integrate_extremal(ExtremalSeed(np.pi / 2, np.pi / 2), 1.0, P)


def test_replay_with_physical_units():
    # scaled-time machinery plus unscaled control recovery, omega != 1
    p = SystemParams(omega=2.5, kappa=0.8, gamma=0.25)
    assert p.ratio == 0.1
    traj = integrate_extremal(seed(1.3, p), 4.0, p, sample_dt=4 / 4000)
    rstates, sched = replay_extremal(traj, p)
    assert abs(sched.T - 4.0 / p.omega) < 1e-12  # physical duration
    z_err = np.max(np.abs(rstates[:, 0] - traj.ys[:, 0]))
    R_err = np.max(np.abs(np.hypot(rstates[:, 1], rstates[:, 2]) - traj.ys[:, 1]))
    assert max(z_err, R_err) < 1e-4
