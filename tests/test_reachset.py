import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from qubit_reach import SystemParams, extremals, integrate_extremal, reachset, seed
from qubit_reach.bloch import SingularityError, polar_rhs_scaled
from qubit_reach.extremals import sample_times
from qubit_reach.reachset import (
    BIN_BLOCK,
    MAX_REFINE_ROUNDS,
    NO_PASSAGE,
    READ_COLS,
    REFINE_CELLS,
    _MS_TABLE,
    BarrierTriangle,
    ReachableSet2D,
    ReachSweep,
    barrier_certificate,
    barrier_values,
    first_passage,
    guaranteed_ball_radius,
    lacuna_alpha_bound,
    marching_squares,
    revolve_to_3d,
    spiral_region,
)
from reference import spiral_contains, triangle_contains

P = SystemParams.from_ratio(0.1)
G = P.ratio


# --- spiral region ----------------------------------------------------------


def test_spiral_region_membership_basics():
    reg = spiral_region(P)
    assert spiral_contains(reg, 0.0, 0.0)
    assert spiral_contains(reg, 0.0, 1.0 - 1e-9)
    assert spiral_contains(reg, 0.0, -1.0 + 1e-9)
    # just outside the z-axis waist
    waist = np.exp(-G * np.pi / 4)
    assert spiral_contains(reg, waist - 1e-6, 0.0)
    assert not spiral_contains(reg, waist + 1e-3, 0.0)


def test_spiral_arcs_endpoints():
    reg = spiral_region(P)
    arcs = reg.arcs(64)
    assert len(arcs) == 4
    starts = {tuple(np.round(a[0], 12)) for a in arcs}
    ends = {tuple(np.round(a[-1], 12)) for a in arcs}
    waist = np.exp(-G * np.pi / 4)
    assert starts == {(0.0, 1.0), (0.0, -1.0)}
    assert ends == {(round(waist, 12), 0.0), (round(-waist, 12), 0.0)}


def test_spiral_region_contains_guaranteed_ball():
    # full-resolution scan of the certified disc: no violations
    reg = spiral_region(P)
    radius = guaranteed_ball_radius(P)
    n = 512
    ax = np.linspace(-1, 1, n)
    Z, R = np.meshgrid(ax, ax, indexing="ij")
    disc = np.hypot(Z, R) <= radius
    assert np.all(spiral_contains(reg, Z[disc], R[disc]))


def test_guaranteed_ball_radius_values():
    assert guaranteed_ball_radius(SystemParams.from_ratio(0.0)) == 1.0
    npt.assert_allclose(guaranteed_ball_radius(P), 1 - 0.025 * np.pi)
    calcium = SystemParams(omega=4.5e15, kappa=2.4e-29, gamma=2.2e8)
    delta = 1.0 - guaranteed_ball_radius(calcium)
    # recovering the tiny gap from the radius cancels ~8 digits
    npt.assert_allclose(delta, np.pi * 2.2e8 / (4 * 4.5e15), rtol=1e-6)
    with pytest.raises(ValueError):
        guaranteed_ball_radius(SystemParams.from_ratio(1.5))


def test_lacuna_alpha_bound_values():
    npt.assert_allclose(lacuna_alpha_bound(SystemParams.from_ratio(1.0)), 1 / (2 * np.sqrt(2)))
    npt.assert_allclose(lacuna_alpha_bound(P), 0.5 / np.sqrt(1.01))
    assert abs(lacuna_alpha_bound(SystemParams.from_ratio(1e-9)) - 0.5) < 1e-9
    with pytest.raises(ValueError):
        lacuna_alpha_bound(SystemParams.from_ratio(0.0))


# --- barrier triangles --------------------------------------------------------


def test_barrier_triangle_geometry():
    tri = BarrierTriangle(0.2, 0.4, 1e-2, G)
    npt.assert_allclose(tri.edge_rho("plus", 0.2 + 1e-2), 1.0)
    npt.assert_allclose(tri.edge_rho("minus", 0.2 - 1e-2), 1.0)
    npt.assert_allclose(tri.edge_rho("plus", 0.2), 1 - 0.4 * 1e-2 * G)
    assert triangle_contains(tri, 1.0 - 1e-9, 0.2)
    assert not triangle_contains(tri, 1.0 - 1e-3, 0.2)
    with pytest.raises(ValueError):
        BarrierTriangle(0.0, -0.1, 1e-2, G)


def formal_barrier_value(tri, s, phi, theta):
    """barrier_values' G for the edge of sign s, with the polar velocity taken
    at rho = 1 (the middle of the vertical edge), not on the edge line."""
    rho_dot, phi_dot = polar_rhs_scaled(1.0, phi, theta, G)
    return -rho_dot + s * tri.alpha * G * phi_dot


def test_barrier_values_formal_closed_form():
    # formal evaluation at (rho = 1, phi = phi0); the pair of edge values
    # matches the quadratic-plus-slope closed form (labels swap under the
    # opposite angle orientation, the set of values does not)
    phi0, alpha = 0.3, 0.2
    tri = BarrierTriangle(phi0, alpha, 1e-3, G)
    s0, c0 = np.sin(phi0), np.cos(phi0)
    for th in np.linspace(0, 2 * np.pi, 29):
        base = (1 - s0 * np.sin(th)) ** 2
        slope = alpha * (2 * np.cos(th) + G * c0 * np.sin(th) * (2 - s0 * np.sin(th)))
        expected = sorted([0.5 * G * (base - slope), 0.5 * G * (base + slope)])
        got = sorted(float(formal_barrier_value(tri, s, phi0, th)) for s in (1.0, -1.0))
        npt.assert_allclose(got, expected, atol=1e-14)


def test_barrier_values_alpha_zero_limit():
    tri = BarrierTriangle(0.0, 1e-12, 1e-3, G)
    for th in np.linspace(0, 2 * np.pi, 13):
        val = float(formal_barrier_value(tri, 1.0, 0.0, th))
        npt.assert_allclose(val, 0.5 * G, atol=1e-11)


def test_barrier_values_lower_bound():
    # G >= (g/2)(1 - |sin phi0|)^2 at alpha -> 0, any phi0 != +-pi/2
    for phi0 in (-1.2, -0.5, 0.0, 0.7, 1.3):
        tri = BarrierTriangle(phi0, 1e-12, 1e-3, G)
        bound = 0.5 * G * (1 - abs(np.sin(phi0))) ** 2
        for th in np.linspace(0, 2 * np.pi, 37):
            assert float(formal_barrier_value(tri, 1.0, phi0, th)) >= bound - 1e-12


def test_barrier_values_edge_range_check():
    tri = BarrierTriangle(0.0, 0.1, 1e-3, G)
    with pytest.raises(ValueError):
        barrier_values(tri, "plus", -0.5e-3, 0.0, P)
    # alpha beta g = 1: the apex phi = phi0 of the plus edge sits at rho = 0
    with pytest.raises(SingularityError, match="singular at rho=0.0"):
        barrier_values(BarrierTriangle(0.0, 10.0, 1.0, G), "plus", 0.0, 0.0, P)


def test_barrier_certificate_brackets_alpha_bound():
    assert barrier_certificate(0.0, 0.4, 1e-3, P) is True
    assert barrier_certificate(0.0, 0.6, 1e-6, P) is False
    with pytest.raises(ValueError):
        barrier_certificate(np.pi / 2, 0.1, 1e-3, P)


def test_barrier_certificate_monotone_in_alpha():
    for alpha in (0.1, 0.25, 0.4):
        assert barrier_certificate(0.0, alpha, 1e-3, P) is True
    # and false stays false when alpha grows
    assert barrier_certificate(0.0, 0.55, 1e-6, P) is False
    assert barrier_certificate(0.0, 0.8, 1e-6, P) is False


def _set_with(boundary):
    return ReachableSet2D(np.zeros((8, 8), dtype=bool), 1.0, boundary=boundary)


@pytest.mark.parametrize(
    "call, msg",
    [
        (lambda: revolve_to_3d(_set_with([]), n_angles=2), "at least 3 revolution angles"),
        (lambda: revolve_to_3d(_set_with([]), 64), "empty raster has no boundary"),
        # one closed loop, wholly at R < 0
        (lambda: revolve_to_3d(_set_with([np.array([[0.0, -0.5], [0.1, -0.6], [0.0, -0.6],
                                                    [0.0, -0.5]])]), 64),
         "no R >= 0 portion"),
        (lambda: barrier_certificate(0.0, 0.4, 1e-3, SystemParams.from_ratio(0.0)), "gamma > 0"),
        (lambda: barrier_values(BarrierTriangle(0.0, 0.1, 1e-3, G), "top", 0.0, 0.0, P),
         "edge must be 'plus' or 'minus', got 'top'"),
    ],
    ids=["revolve-two-angles", "revolve-empty-set", "revolve-no-upper-loop",
         "certificate-gamma-zero", "barrier-bad-edge"],
)
def test_geometry_refusals(call, msg):
    with pytest.raises(ValueError, match=msg):
        call()


@pytest.mark.parametrize(
    "phi0, alpha, beta",
    [(0.0, np.nan, 1e-3), (0.0, 0.4, np.nan), (np.nan, 0.4, 1e-3), (0.0, np.inf, 1e-3),
     (0.0, 0.4, np.inf), (np.inf, 0.4, 1e-3), (0.0, -0.4, 1e-3)],
)
def test_barrier_certificate_rejects_bad_triangles(phi0, alpha, beta):
    # NaN compares False, so a NaN triangle once passed the grid check
    with pytest.raises(ValueError, match="finite"):
        barrier_certificate(phi0, alpha, beta, P)


def test_barrier_certificate_bounds_its_temporaries():
    # the grid check evaluates a few edge samples at a time: one full
    # (phi, theta) grid of G is 11.8 MB, and it made several at once
    tracemalloc.start()
    try:
        assert barrier_certificate(0.0, 0.4, 1e-3, P) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# --- sweeps and rasters -------------------------------------------------------


@pytest.fixture(scope="module")
def small_sweep():
    return ReachSweep(P, 2.0, n_seeds=128, raster=128)


def test_sweep_monotone_and_mirror(small_sweep):
    prev = None
    for T in (0.25, 0.5, 1.0, 1.5, 2.0):
        occ = small_sweep.occupancy(T)
        assert np.array_equal(occ, occ[:, ::-1])  # mirror symmetry in R
        if prev is not None:
            assert not np.any(prev & ~occ)  # monotone growth
        prev = occ


def test_sweep_stays_in_ball(small_sweep):
    occ = small_sweep.occupancy(2.0)
    n = small_sweep.n
    ax = -1 + (np.arange(n) + 0.5) * (2 / n)
    Z, R = np.meshgrid(ax, ax, indexing="ij")
    assert not np.any(occ & (np.hypot(Z, R) > 1 + (2 / n) * np.sqrt(2)))


def test_sweep_start_cell(small_sweep):
    # the start point (0, 1) is painted at tau = 0
    n = small_sweep.n
    i = int((0.0 + 1) / (2 / n))
    j = n - 1
    assert small_sweep.tau_min[i, j] == 0.0


def test_reachable_set_object(small_sweep):
    rset = small_sweep.reachable_set(2.0)
    assert isinstance(rset, ReachableSet2D)
    assert rset.boundary and all(np.allclose(l[0], l[-1]) for l in rset.boundary)
    centers = rset.occupied_centers()
    assert len(centers) == rset.raster.sum()


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        ReachSweep(P, 1.0, n_seeds=32, raster=512)
    with pytest.raises(ValueError):
        ReachSweep(P, -1.0, n_seeds=1024, raster=512)
    swept = ReachSweep(P, 1.0, n_seeds=64, raster=512)
    for T in (2.0, np.nan):  # beyond T_max, and a horizon NaN that compares False
        with pytest.raises(ValueError, match="asked for T="):
            swept.occupancy(T)
        with pytest.raises(ValueError, match="asked for T="):
            swept.reachable_set(T)
    for T in (np.nan, np.inf):
        with pytest.raises(ValueError, match="T must be finite and positive"):
            ReachSweep(P, T, n_seeds=1024, raster=512)
    with pytest.raises(ValueError, match="raster needs at least 1 cell"):
        ReachSweep(P, 1.0, n_seeds=64, raster=0)
    for dt in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="sample_dt must be finite and positive"):
            sample_times(1.0, dt)
        with pytest.raises(ValueError, match="sample_dt must be finite and positive"):
            integrate_extremal(seed(1.0, P), 1.0, P, sample_dt=dt)


# --- marching squares and revolution -----------------------------------------


def disc_raster(n, radius):
    ax = -1 + (np.arange(n) + 0.5) * (2 / n)
    Z, R = np.meshgrid(ax, ax, indexing="ij")
    return np.hypot(Z, R) <= radius


def test_marching_squares_disc():
    occ = disc_raster(128, 0.8)
    loops = marching_squares(occ)
    assert len(loops) == 1
    loop = loops[0]
    assert np.allclose(loop[0], loop[-1])
    rad = np.hypot(loop[:, 0], loop[:, 1])
    assert np.max(np.abs(rad - 0.8)) < 2.5 * (2 / 128)


def test_marching_squares_with_hole():
    occ = disc_raster(96, 0.9) & ~disc_raster(96, 0.3)
    loops = marching_squares(occ)
    assert len(loops) == 2


def random_raster(seed, n=64, density=0.5):
    return np.random.default_rng(seed).random((n, n)) < density


def enclosed_empty_cells(pad):
    """Empty cells that no 8-connected empty path joins to the outer ring."""
    empty = pad == 0
    outside = np.zeros(pad.shape, dtype=bool)
    outside[[0, -1]] = outside[:, [0, -1]] = True
    while True:
        ring = np.pad(outside, 1)
        near = np.zeros_like(outside)
        for di in range(3):
            for dj in range(3):
                near |= ring[di : di + pad.shape[0], dj : dj + pad.shape[1]]
        grown = empty & near
        if np.array_equal(grown, outside):
            return empty & ~outside
        outside = grown


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_marching_squares_random_raster(seed):
    occ = random_raster(seed)
    cell = 2.0 / len(occ)
    pad = np.pad(occ, 1).astype(np.int8)
    case = pad[:-1, :-1] | pad[1:, :-1] << 1 | pad[1:, 1:] << 2 | pad[:-1, 1:] << 3
    # the raster exercises both saddles and has holes
    assert np.any(case == 5) and np.any(case == 10)
    assert enclosed_empty_cells(pad).any()
    n_segments = np.count_nonzero((case > 0) & (case < 15)) + np.count_nonzero(
        (case == 5) | (case == 10)
    )
    loops = marching_squares(occ)
    assert all(np.array_equal(loop[0], loop[-1]) for loop in loops)
    # vertices back on the doubled padded lattice; consecutive ones share a cell
    keys = [np.rint(2.0 * (loop + 1.0) / cell + 1.0).astype(int) for loop in loops]
    for k in keys:
        steps = {tuple(d) for d in np.abs(np.diff(k, axis=0)).tolist()}
        assert steps <= {(1, 1), (2, 0), (0, 2)}
    verts = [tuple(v) for k in keys for v in k[:-1].tolist()]
    assert len(verts) == n_segments
    assert len(set(verts)) == len(verts)
    i, j = np.nonzero(pad[:-1] != pad[1:])
    k, l = np.nonzero(pad[:, :-1] != pad[:, 1:])
    midpoints = {(2 * a + 1, 2 * b) for a, b in zip(i.tolist(), j.tolist())}
    midpoints |= {(2 * a, 2 * b + 1) for a, b in zip(k.tolist(), l.tolist())}
    assert set(verts) == midpoints


def loop_marching_squares(raster):
    """Reference: segment by segment from the table, loops by a dict walk."""
    n = raster.shape[0]
    cell = 2.0 / n
    pad = np.pad(raster, 1).astype(np.int8)
    case = pad[:-1, :-1] | pad[1:, :-1] << 1 | pad[1:, 1:] << 2 | pad[:-1, 1:] << 3
    segs = []
    for i, j in zip(*np.nonzero((case > 0) & (case < 15))):
        for (ax, ay), (bx, by) in _MS_TABLE[int(case[i, j])]:
            segs.append(((2 * i + ax, 2 * j + ay), (2 * i + bx, 2 * j + by)))
    adj = {}
    for sid, (ka, kb) in enumerate(segs):
        adj.setdefault(ka, []).append((sid, kb))
        adj.setdefault(kb, []).append((sid, ka))
    used = [False] * len(segs)
    loops = []
    for sid0, (ka, kb) in enumerate(segs):
        if used[sid0]:
            continue
        used[sid0] = True
        keys = [ka, kb]
        while keys[-1] != ka:
            sid, other = next((sid, o) for sid, o in adj[keys[-1]] if not used[sid])
            used[sid] = True
            keys.append(other)
        loops.append(np.array([[-1.0 + (0.5 * k - 0.5) * cell for k in key] for key in keys]))
    return loops


@pytest.mark.parametrize("n", [1, 2, 7, 33])
@pytest.mark.parametrize("density", [0.0, 0.2, 0.5, 0.8, 1.0])
def test_marching_squares_matches_loop_reference(n, density):
    occ = random_raster(n, n, density)
    got, want = marching_squares(occ), loop_marching_squares(occ)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_marching_squares_matches_loop_reference_on_drawn_rasters():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    diag, anti = [[True, False], [False, True]], [[False, True], [True, False]]

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @hypothesis.given(st.integers(1, 12).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n).map(
            lambda cells: np.reshape(cells, (n, n)))))
    @hypothesis.example(np.zeros((1, 1), bool))  # empty
    @hypothesis.example(np.ones((4, 4), bool))  # full
    @hypothesis.example(np.array(diag))  # the saddle case 5
    @hypothesis.example(np.array(anti))  # the saddle case 10
    @hypothesis.example(np.indices((5, 5)).sum(axis=0) % 2 == 0)  # saddles everywhere
    def check(occ):
        got, want = marching_squares(occ), loop_marching_squares(occ)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    check()


def test_revolve_sphere():
    n = 128
    occ = disc_raster(n, 1 - 4 / n)
    rset = ReachableSet2D(occ, 1.0, boundary=marching_squares(occ))
    verts, faces = revolve_to_3d(rset, n_angles=48)
    profile_count = len(verts) // 48
    assert len(verts) == profile_count * 48
    rad = np.linalg.norm(verts, axis=1)
    assert np.max(np.abs(rad - (1 - 4 / n))) < 2 / n
    assert faces.min() >= 0 and faces.max() < len(verts)
    # every vertex stays inside the closed ball (plus raster slack)
    assert np.max(rad) <= 1 + 2 / n


def test_revolve_rejects_open_polyline():
    occ = disc_raster(64, 0.5)
    rset = ReachableSet2D(occ, 1.0, boundary=[np.array([[0.0, 0.0], [0.5, 0.5]])])
    with pytest.raises(ValueError, match="closed"):
        revolve_to_3d(rset, 64)


# --- refinement bookkeeping and the first-passage kernel -------------------------


def capture_rasterize(monkeypatch):
    """The (paths, order, gaps) each later ReachSweep hands its raster."""
    seen = {}
    rasterize = ReachSweep._rasterize

    def capture(self, paths, order, gaps):
        seen.update(paths=paths, order=order, gaps=gaps.copy())
        return rasterize(self, paths, order, gaps)

    monkeypatch.setattr(ReachSweep, "_rasterize", capture)
    return seen


def test_incremental_gaps_match_full_recompute(monkeypatch):
    # the gap array the raster receives was built round by round; it must
    # equal a fresh computation over the final family
    seen = capture_rasterize(monkeypatch)
    sweep = ReachSweep(P, 2.0, n_seeds=128, raster=128)
    order = seen["order"]
    # the merged rounds keep only the z and R node rows
    assert seen["paths"].comps == (0, 1)
    assert {blk["nodes"].shape[0] for blk in seen["paths"].blocks} == {6}
    assert sweep.refine_rounds > 1
    assert np.all(np.diff([s.psi0 for s in sweep.seeds]) > 0.0)
    full = ReachSweep._pair_gaps(seen["paths"], order, np.roll(order, -1))
    npt.assert_array_equal(seen["gaps"], full)
    # and a reference over the whole sample arrays
    z, r = seen["paths"].samples([0, 1], np.arange(len(seen["paths"].seeds)), np.s_[:])
    a, b = order, np.roll(order, -1)
    ref = np.nan_to_num(np.hypot(z[a] - z[b], r[a] - r[b]), nan=0.0).max(axis=1)
    assert full.tobytes() == ref.tobytes()
    # refinement stopped because no wide pair was left, not for lack of budget
    assert not np.any(full > REFINE_CELLS * sweep.cell)
    assert sweep.budget_exhausted is False
    assert 0 < sweep.seeds_added < 4 * 128
    assert sweep.refine_rounds < MAX_REFINE_ROUNDS


def test_refinement_bisects_the_pair_across_psi_zero(monkeypatch):
    # a seed grid with a hole around psi0 = 0 leaves the pair (last, first)
    # 0.82 apart at wT = 2, so its bisection must wrap past 2 pi into the hole
    lo, hi = 1.5, 2.0 * np.pi - 1.2  # asymmetric: the first midpoint is not psi0 = 0

    def holed_grid(n_seeds, params):
        psis = 2.0 * np.pi * (np.arange(n_seeds) + 0.5) / n_seeds
        return extremals.seed_batch(psis[(psis >= lo) & (psis <= hi)], params)

    monkeypatch.setattr(extremals, "seed_grid", holed_grid)
    seen = capture_rasterize(monkeypatch)
    sweep = ReachSweep(P, 2.0, n_seeds=128, raster=128)
    psis = np.array([s.psi0 for s in sweep.seeds])
    assert np.any((psis < lo) | (psis > hi))
    assert 0.0 <= psis[0] and psis[-1] < 2.0 * np.pi
    assert np.all(np.diff(psis) > 0.0)
    order = seen["order"]
    full = ReachSweep._pair_gaps(seen["paths"], order, np.roll(order, -1))
    npt.assert_array_equal(seen["gaps"], full)


@pytest.fixture(scope="module")
def gap_family():
    """Three sweeps to wT = 7 as one, for the pair-gap bound: the acceptance
    suite's failing sweep (a tiny branch-jump bound ends most of its 64 seeds
    early; row 20 is frozen at tau = 0), 40 seeds on an adaptive grid of
    their own, and a one-seed block frozen at tau = 0 that took no step."""
    seeds = extremals.seed_grid(64, P)
    seeds[20] = seed(np.pi / 2, P)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extremals, "MAX_BRANCH_JUMP", 1e-11)
        failing = extremals.sweep_extremals(seeds, 7.0, P, comps=range(5), sample_dt=7 / 512)
    others = 2.0 * np.pi * (np.arange(40) + 0.25) / 40
    parts = [failing] + [extremals.sweep_extremals(s, 7.0, P, comps=range(5), sample_dt=7 / 512)
                         for s in (extremals.seed_batch(others, P), [seed(np.pi / 2, P)])]
    return extremals.merge_sweeps(parts)


def full_gaps(z, r, a, b):
    """Reference: the pair gaps over the whole sample arrays, NaN as 0."""
    return np.nan_to_num(np.hypot(z[a] - z[b], r[a] - r[b]), nan=0.0).max(axis=1)


@pytest.mark.parametrize("sample_dt, last", [(7 / 512, 1), (7 / 600, 89)],
                         ids=["last-window-one-sample", "last-window-89"])
def test_gap_bounds_hold_and_pruned_gaps_keep_their_bits(gap_family, sample_dt, last):
    # the step nodes do not depend on the sample grid, so one family serves both
    paths = dataclasses.replace(gap_family, tau=sample_times(7.0, sample_dt))
    n = len(paths.seeds)
    assert len(paths.tau) % READ_COLS == last
    ended = paths.fail_tau[np.isfinite(paths.fail_tau)]
    assert np.sum(ended > 0.0) > 10 and np.sum(np.isinf(paths.fail_tau)) > 40
    assert paths.fail_tau[20] == 0.0 and paths.fail_tau[-1] == 0.0
    assert len(paths.blocks[-1]["t1"]) == 0
    rng = np.random.default_rng(21)
    a = np.concatenate([np.arange(n), rng.integers(0, n, 400)])
    b = np.concatenate([np.roll(np.arange(n), -1), rng.integers(0, n, 400)])
    z, r = paths.samples([0, 1], np.arange(n), np.s_[:])
    dist = np.hypot(z[a] - z[b], r[a] - r[b])
    bound = reachset.gap_bounds(paths, a, b)
    assert bound.shape == (len(a), -(-len(paths.tau) // READ_COLS))
    for w in range(bound.shape[1]):
        # the NaN-aware maximum of the window: NaN where no sample of the pair is live
        top = np.fmax.reduce(dist[:, w * READ_COLS : (w + 1) * READ_COLS], axis=1)
        live = ~np.isnan(top)
        assert np.all(bound[live, w] >= top[live]), w
    gaps = ReachSweep._pair_gaps(paths, a, b)
    assert gaps.tobytes() == full_gaps(z, r, a, b).tobytes()
    # the bound prunes: most (pair, window) reads are skipped
    assert np.mean(bound < gaps[:, None]) > 0.5
    assert ReachSweep._pair_gaps(paths, a[:0], b[:0]).shape == (0,)


def test_pruned_pair_gaps_equal_a_full_read_on_drawn_pairs(gap_family):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    n = len(gap_family.seeds)
    z, r = gap_family.samples([0, 1], np.arange(n), np.s_[:])
    rows = st.integers(0, n - 1)

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @hypothesis.given(st.lists(st.tuples(rows, rows), min_size=1, max_size=12))
    def check(pairs):
        a, b = np.array(pairs).T
        assert ReachSweep._pair_gaps(gap_family, a, b).tobytes() == full_gaps(z, r, a, b).tobytes()

    check()


def test_node_boxes_hold_every_live_sample(gap_family):
    # drawn sample grids over the three-block family of gap_family: failed
    # seeds, row 20 and the last block frozen at tau = 0
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rows = np.arange(len(gap_family.seeds))

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @hypothesis.given(st.floats(0.05, 7.0), st.integers(2, 1100), st.integers(0, 4))
    @hypothesis.example(7.0, 513, 2)  # the last read is one window of one sample
    def check(T, m, read):
        paths = dataclasses.replace(gap_family, tau=np.linspace(0.0, T, m))
        w0 = min(read, (m - 1) // READ_COLS) * READ_COLS
        box = reachset.node_boxes(paths, w0)
        z, r = paths.samples([0, 1], rows, np.s_[w0 : w0 + READ_COLS])
        assert box.shape == (4, -(-z.shape[1] // BIN_BLOCK), len(rows))
        for i, j in enumerate(range(0, z.shape[1], BIN_BLOCK)):
            zw, rw = z[:, j : j + BIN_BLOCK], r[:, j : j + BIN_BLOCK]
            lo_z, lo_r, hi_z, hi_r = (-box[0, i, :, None], -box[1, i, :, None],
                                      box[2, i, :, None], box[3, i, :, None])
            inside = (lo_z <= zw) & (zw <= hi_z) & (lo_r <= rw) & (rw <= hi_r)
            assert np.all(inside | np.isnan(zw)), (w0 + j, np.argwhere(~inside & ~np.isnan(zw)))
        # a row that failed before the read has an empty box in every window
        if w0:
            assert np.all(box[..., gap_family.fail_tau <= paths.tau[w0 - 1]] == -np.inf)

    check()


def test_sample_reads_equal_slices_of_a_full_read(gap_family):
    # ExtremalSweep.samples on any components, increasing rows and column
    # slice gives the bits of the same slice of a full read, over the three
    # blocks of gap_family: failed seeds, row 20 and the last block frozen at 0
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    n, m = len(gap_family.seeds), len(gap_family.tau)
    full = gap_family.samples(range(5), np.arange(n), np.s_[:])
    cols = st.integers(0, m + 1)

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @hypothesis.given(st.lists(st.integers(0, 4), min_size=1, max_size=5),
                      st.sets(st.integers(0, n - 1), min_size=1), cols, cols, st.integers(1, 5))
    @hypothesis.example([4], {0, 20, n - 1}, 0, 1, 1)  # sample 0 of both frozen rows
    def check(comps, rows, start, stop, step):
        rows = np.array(sorted(rows))
        got = gap_family.samples(comps, rows, np.s_[start:stop:step])
        assert got.tobytes() == full[comps][:, rows, start:stop:step].tobytes()

    check()


# sample entries (rows x columns) that _pair_gaps hands ExtremalSweep.samples
# on ReachSweep(P, 2.0, 128, 128), and those of reading each measured row in full
PAIR_GAP_ENTRIES = 91_449
PAIR_GAP_ENTRIES_UNPRUNED = 277_819


def test_pair_gap_reads_are_pinned(monkeypatch):
    entries, unpruned, inside = [], [], []
    samples, pair_gaps = extremals.ExtremalSweep.samples, ReachSweep._pair_gaps

    def counting(self, comps, rows, cols):
        out = samples(self, comps, rows, cols)
        if inside:
            entries.append(out.shape[1] * out.shape[2])
        return out

    def gaps(paths, a, b):
        unpruned.append(len(np.unique(np.concatenate([a, b]))) * len(paths.tau))
        inside.append(True)
        try:
            return pair_gaps(paths, a, b)
        finally:
            inside.pop()

    monkeypatch.setattr(extremals.ExtremalSweep, "samples", counting)
    monkeypatch.setattr(ReachSweep, "_pair_gaps", staticmethod(gaps))
    ReachSweep(P, 2.0, n_seeds=128, raster=128)
    assert (sum(entries), sum(unpruned)) == (PAIR_GAP_ENTRIES, PAIR_GAP_ENTRIES_UNPRUNED)


def test_round_of_frozen_seeds_measures_no_pair(monkeypatch):
    # at wT = 0.5 the first bisection seed is stationary: its round adds no pair
    sizes = []
    pair_gaps = ReachSweep._pair_gaps

    def sized(paths, a, b):
        sizes.append(len(a))
        return pair_gaps(paths, a, b)

    monkeypatch.setattr(ReachSweep, "_pair_gaps", staticmethod(sized))
    sweep = ReachSweep(P, 0.5, n_seeds=64, raster=16)
    assert sizes[1] == 0 and sweep.n_failed == 1 and sweep.refine_rounds > 1


def test_refinement_budget_exhaustion_is_reported():
    sweep = ReachSweep(P, 7.0, n_seeds=64, raster=64)
    assert sweep.budget_exhausted is True
    assert sweep.seeds_added == 4 * 64


def test_refinement_stopped_by_the_round_cap_is_reported(monkeypatch):
    # seeds to spare, but the round cap ends refinement with wide pairs left
    monkeypatch.setattr(reachset, "MAX_REFINE_ROUNDS", 1)
    sweep = ReachSweep(P, 7.0, n_seeds=64, raster=64)
    assert sweep.refine_rounds == 1 and sweep.seeds_added < 4 * 64
    assert len(sweep.unfilled_pairs) > 0
    assert sweep.budget_exhausted is True


def rep_rasterize(sweep, paths, order, gaps):
    """Reference: every strip point of every pair built by [rep]-expanding
    the pairs, then masked, and binned in one block with the path points,
    each point in the column c of |R| (the cell above an edge) and its -R
    copy in the mirror column n - 1 - c (no folded half, no mirror step)."""
    z, r = paths.samples([0, 1], np.arange(len(paths.seeds)), np.s_[:])
    m, n, inv = len(sweep.tau), sweep.n, 1.0 / sweep.cell
    fill_limit = 2.0 * REFINE_CELLS * sweep.cell
    n_sub = np.ceil(np.minimum(gaps, fill_limit) * inv / 0.45).astype(int)
    pair_ids = np.nonzero(n_sub > 1)[0]
    pa, pb = order[pair_ids], order[(pair_ids + 1) % len(order)]
    rep = np.repeat(np.arange(len(pair_ids)), n_sub[pair_ids] - 1)
    lam = np.concatenate([np.zeros(0)] + [np.arange(1, n_sub[k]) / n_sub[k] for k in pair_ids])
    lam = lam[:, None]

    def cells():
        for j0 in range(0, m, BIN_BLOCK):
            blk = slice(j0, j0 + BIN_BLOCK)
            sample = np.arange(j0, min(m, j0 + BIN_BLOCK))
            zj, rj = z[:, blk], r[:, blk]
            ok = np.isfinite(zj)
            za, zb = z[pa, blk], z[pb, blk]
            ra, rb = r[pa, blk], r[pb, blk]
            good = (np.hypot(za - zb, ra - rb) <= fill_limit)[rep]
            lg = np.broadcast_to(lam, good.shape)[good]
            za, zb, ra, rb = (v[rep][good] for v in (za, zb, ra, rb))
            pz = np.concatenate([zj[ok], lg * za + (1 - lg) * zb])
            pr = np.concatenate([rj[ok], lg * ra + (1 - lg) * rb])
            key = np.concatenate([np.broadcast_to(sample, ok.shape)[ok],
                                  np.broadcast_to(sample, good.shape)[good]])
            iz = np.clip(((pz + 1.0) * inv).astype(int), 0, n - 1)
            iz *= n
            ir = np.clip(((np.abs(pr) + 1.0) * inv).astype(int), n // 2, n - 1)
            for col in (ir, n - 1 - ir):
                yield iz + col, key

    first = first_passage(n * n, lambda first: cells())
    reached = first != NO_PASSAGE
    tau_min = np.full(n * n, np.inf)
    tau_min[reached] = sweep.tau[first[reached]]
    return tau_min.reshape(n, n), n_sub


@pytest.mark.parametrize(
    "ratio, T, raster",
    [(0.1, 2.0, 64), (0.1, 7.0, 64), (0.3, 7.0, 64), (0.1, 7.0, 63), (0.1, 3.0, 100),
     (0.1, 7.0, 128)],
    ids=["0.1-2.0", "0.1-7.0", "0.3-7.0", "0.1-7.0-raster63", "0.1-3.0-raster100",
         "0.1-7.0-raster128"],
)
def test_strip_kernel_matches_rep_reference(monkeypatch, ratio, T, raster):
    # odd and non-power-of-two rasters too: an odd raster's middle column
    # is its own mirror image
    seen = {}
    rasterize = ReachSweep._rasterize

    def capture(self, paths, order, gaps):
        seen.update(args=(paths, order, gaps))
        return rasterize(self, paths, order, gaps)

    monkeypatch.setattr(ReachSweep, "_rasterize", capture)
    sweep = ReachSweep(SystemParams.from_ratio(ratio), T, n_seeds=64, raster=raster)
    want, n_sub = rep_rasterize(sweep, *seen["args"])
    assert sweep.tau_min.tobytes() == want.tobytes()
    # refined pairs with several chord counts; past T = 2 also unfilled ones
    assert sweep.seeds_added > 0 and len(np.unique(n_sub[n_sub > 1])) > 2
    assert (len(sweep.unfilled_pairs) > 0) == (T > 2.0)


# entries (rows x columns) _rasterize hands ExtremalSweep.samples on
# ReachSweep(P, 7.0, 64, 64), and entries it hands first_passage
RASTER_SAMPLE_ENTRIES = 181_257
RASTER_BIN_ENTRIES = 623_818


def test_rasterize_skips_settled_windows(monkeypatch):
    # count the entries _rasterize reads and hands to first_passage, against
    # every finite path point and every chord point it would bin unskipped
    seen, read, handed = {}, [], []
    rasterize, samples = ReachSweep._rasterize, extremals.ExtremalSweep.samples

    def capture(self, paths, order, gaps):
        seen.update(args=(paths, order, gaps))
        return rasterize(self, paths, order, gaps)

    def counting(n_cells, blocks):
        def counted(first):
            for cells, keys in blocks(first):
                handed.append(len(cells))
                yield cells, keys

        return first_passage(n_cells, counted)

    def reading(self, comps, rows, cols):
        out = samples(self, comps, rows, cols)
        if "args" in seen:  # the raster's reads, after every pair-gap read
            read.append(out.shape[1] * out.shape[2])
        return out

    monkeypatch.setattr(ReachSweep, "_rasterize", capture)
    monkeypatch.setattr(reachset, "first_passage", counting)
    monkeypatch.setattr(extremals.ExtremalSweep, "samples", reading)
    sweep = ReachSweep(P, 7.0, n_seeds=64, raster=64)
    assert (sum(read), sum(handed)) == (RASTER_SAMPLE_ENTRIES, RASTER_BIN_ENTRIES)
    paths, order, gaps = seen["args"]
    want, n_sub = rep_rasterize(sweep, paths, order, gaps)
    assert sweep.tau_min.tobytes() == want.tobytes()
    z, r = paths.samples([0, 1], np.arange(len(paths.seeds)), np.s_[:])
    a, b = order, np.roll(order, -1)
    near = np.hypot(z[a] - z[b], r[a] - r[b]) <= 2.0 * REFINE_CELLS * sweep.cell
    unskipped = np.isfinite(z).sum() + np.sum((np.maximum(n_sub, 1) - 1) * near.sum(axis=1))
    # the share handed over is 0.79 at this size (3 reads, the table refreshed per read)
    assert sum(handed) < 0.9 * unskipped, sum(handed) / unskipped


def linear_sweep(tau, zr, fail_tau):
    """One block of linear Hermite steps, one per sample interval, through
    the points zr (z and R, shape (2, rows, len(tau))): the reader gives the
    points back bit for bit, and NaN past each row's fail_tau (a step end).
    A (z, R) sweep: node rows z, R, their start slopes and their end slopes."""
    rows = zr.shape[1]
    nodes = np.zeros((6, rows, len(tau)))
    nodes[:2] = np.nan_to_num(zr)  # a failed row's tail is never read
    h = np.diff(tau)
    nodes[2:4, :, 1:] = nodes[4:6, :, 1:] = np.diff(nodes[:2], axis=-1) / h
    block = dict(t0=tau[:-1], h=h, t1=tau[1:], nodes=nodes)
    return extremals.ExtremalSweep(tau, [None] * rows, [block], np.asarray(fail_tau, dtype=float),
                                   [None] * rows, {}, (0, 1))


def test_skipped_windows_keep_the_edge_cases():
    # a made-up family of six paths over 384 samples on a 16-cell raster,
    # given by step nodes the reader returns exactly.  The summed-area table
    # is refreshed with settled cells first at sample 256, so each case sits
    # in the window from 256 on, in cells F or H settled by sample 39 around
    # a cell that only that case enters.  The node box of that window also
    # holds sample 255, the start of the step that ends at sample 256
    n, m, cell = 16, 384, 0.125
    c = -1.0 + (np.arange(n) + 0.5) * cell  # cell centres
    zr = np.empty((2, 6, m))
    # F settles the cells around C's crossing, around the origin and the
    # cells E1 and E2 pass from sample 255 to 256
    blocks = [(range(3, 6), range(9, 12)), (range(7, 10), range(8, 10)), ([2], [13, 14])]
    F = [(c[i], c[j]) for iz, ir in blocks for i in iz for j in ir]
    zr[:, 0, : len(F)] = np.transpose(F)
    zr[:, 0, len(F) : 256] = [[c[15]], [c[8]]]  # parked away from the rest
    zr[:, 0, 256:] = [[c[2]], [c[14]]]
    # C crosses R = 0: of its cells only those below |R| = 0.125 are new
    zr[0, 1] = c[4]
    zr[1, 1] = np.concatenate([np.full(256, c[10]), np.linspace(c[10], -c[10], 64),
                               np.full(64, -c[10])])
    # N enters a new cell, then its NaN tail starts mid-window, and the
    # window at 320 is all NaN
    zr[:, 2] = c[13]
    zr[1, 2, 256:] = c[14]
    zr[:, 2, 276:] = np.nan
    # E1 and E2 run together at z = -0.75, a cell edge; their chord points
    # at lam = 1/5 round below it into the next cell
    zr[0, 3:5] = -0.75
    zr[1, 3:5, :256], zr[1, 3:5, 256:] = c[12], c[14]
    # H waits away from F's walk, settles the cells around its own; from
    # 256 on only its chords to F cross new cells
    zr[:, 5] = [[c[6]], [c[14]]]
    zr[:, 5, :30] = c[15]
    zr[:, 5, 30:39] = np.transpose([(c[i], c[j]) for i in range(5, 8) for j in range(13, 16)])
    tau = np.arange(m) * 0.01
    fail_tau = np.full(6, np.inf)
    fail_tau[2] = tau[275]
    paths = linear_sweep(tau, zr, fail_tau)
    z, r = paths.samples([0, 1], np.arange(6), np.s_[:])
    assert z.tobytes() == zr[0].tobytes() and r.tobytes() == zr[1].tobytes()
    sweep = ReachSweep.__new__(ReachSweep)
    sweep.n, sweep.cell, sweep.tau = n, cell, tau
    order = np.arange(6)
    gaps = np.array([0.0, 0.0, 0.25, 0.25, 0.0, 0.5])
    want, n_sub = rep_rasterize(sweep, paths, order, gaps)
    assert list(n_sub) == [0, 0, 5, 5, 0, 9]
    got = sweep._rasterize(paths, order, gaps)
    assert got.tobytes() == want.tobytes()
    for iz, ir in [(4, 8), (13, 14), (1, 14), (3, 14)]:
        assert 2.56 <= got[iz, ir] < 3.2, (iz, ir)


def test_path_parked_at_the_origin_enters_both_middle_columns():
    # 1 / (2 / 186) rounds below 93, so (0 + 1) * inv truncates to row 92 and
    # to column 92, left of the folded half; that column is clipped to 93
    # and mirrored back to 92 instead of being overwritten by the mirror
    n, tau = 186, np.arange(3) * 0.01
    assert int(1.0 / (2.0 / n)) == n // 2 - 1
    paths = linear_sweep(tau, np.zeros((2, 1, 3)), [np.inf])
    sweep = ReachSweep.__new__(ReachSweep)
    sweep.n, sweep.cell, sweep.tau = n, 2.0 / n, tau
    order, gaps = np.arange(1), np.zeros(1)
    got = sweep._rasterize(paths, order, gaps)
    assert [tuple(c) for c in np.argwhere(got == 0.0)] == [(92, 92), (92, 93)]
    assert np.isfinite(got).sum() == 2
    assert got.tobytes() == rep_rasterize(sweep, paths, order, gaps)[0].tobytes()


def test_rasterize_matches_reference_on_drawn_families():
    # drawn families of random walks of an n-cell raster, given to
    # _rasterize through linear_sweep: each path moves only over a drawn
    # interval and waits in its cell before and after, so rows and pairs are
    # skipped and chords still enter new cells late; NaN tails from drawn
    # failures (at tau = 0 too), R changing sign inside a window, pairs too
    # wide to fill, and odd and even n.  z walks on the cell edges and
    # centres, and so does R on about half the paths; on the others R keeps
    # a drawn offset off them
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @hypothesis.given(st.integers(1, 16), st.integers(2, 900),
                      st.lists(st.one_of(st.none(), st.integers(1, 900)), min_size=2, max_size=6),
                      st.integers(0, 2**32 - 1), st.floats(0.5, 0.97))
    @hypothesis.example(7, 600, [40, 200, 230, 255], 1, 0.8)  # the windows from 256 on are all NaN
    @hypothesis.example(8, 300, [None, None, 290], 2, 0.9)  # a tail starts inside the last window
    @hypothesis.example(1, 260, [None, 1, None], 3, 0.6)  # one cell; a row frozen at tau = 0
    def check(n, m, fails, walk, hold):
        rng = np.random.default_rng(walk)
        rows = len(fails)
        steps = rng.choice([-1, 0, 1], (2, rows, m), p=[(1 - hold) / 2, hold, (1 - hold) / 2])
        on = np.sort(rng.integers(0, m, (rows, 2)), axis=1)  # each path moves only from on[0] to on[1]
        steps[..., (np.arange(m) < on[:, :1]) | (np.arange(m) >= on[:, 1:])] = 0
        steps[..., 0] = rng.integers(0, 2 * n + 1, (2, rows))
        zr = -1.0 + np.clip(np.cumsum(steps, axis=-1), 0, 2 * n) / n
        off = np.where(rng.random((rows, 1)) < 0.5, 0.0, 0.5 + rng.uniform(-0.2, 0.2, (rows, 1)))
        zr[1] = np.minimum(zr[1] + off / n, 1.0)
        end = np.array([m if f is None else min(f, m) for f in fails])
        for k, e in enumerate(end):
            zr[:, k, e:] = np.nan
        tau = np.arange(m) * 0.01
        fail_tau = np.where(end < m, tau[end - 1], np.inf)
        paths = linear_sweep(tau, zr, fail_tau)
        z, r = paths.samples([0, 1], np.arange(rows), np.s_[:])
        assert z.tobytes() == zr[0].tobytes() and r.tobytes() == zr[1].tobytes()
        sweep = ReachSweep.__new__(ReachSweep)
        sweep.n, sweep.cell, sweep.tau = n, 2.0 / n, tau
        order = rng.permutation(rows)
        gaps = full_gaps(z, r, order, np.roll(order, -1))
        want, _ = rep_rasterize(sweep, paths, order, gaps)
        assert sweep._rasterize(paths, order, gaps).tobytes() == want.tobytes()

    check()


def naive_first_passage(n_cells, cells, keys):
    """Reference: visit entries in key order and keep the first per cell."""
    first = np.full(n_cells, NO_PASSAGE, dtype=np.int64)
    for k in np.argsort(keys, kind="stable"):
        if first[cells[k]] == NO_PASSAGE:
            first[cells[k]] = keys[k]
    return first


def test_first_passage_matches_naive_loop_on_drawn_blocks():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.tuples(st.integers(0, 19), st.integers(0, 2**62))
    small = st.tuples(st.integers(0, 19), st.integers(0, 5))  # many tied keys

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=50)
    @hypothesis.given(st.lists(st.lists(st.one_of(entry, small), max_size=30), max_size=6))
    def check(blocks):
        arrays = [np.array(b, dtype=np.int64).reshape(-1, 2).T for b in blocks]
        flat = np.concatenate([np.zeros((2, 0), np.int64), *arrays], axis=1)
        got = first_passage(20, lambda first: arrays)
        npt.assert_array_equal(got, naive_first_passage(20, *flat))

    check()


def test_first_passage_matches_naive_loop():
    rng = np.random.default_rng(4)
    cells = rng.integers(0, 20, 500)  # 25 cells, five never entered
    keys = rng.integers(0, 40, 500)  # many repeated cells and tied keys
    blocks = [(cells[k : k + 64], keys[k : k + 64]) for k in range(0, 500, 64)]
    got = first_passage(25, lambda first: blocks)
    npt.assert_array_equal(got, naive_first_passage(25, cells, keys))
    assert np.all(got[20:] == NO_PASSAGE)
