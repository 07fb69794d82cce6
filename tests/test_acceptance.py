"""Acceptance suite: one test (or test group) per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion with the measured numbers.  Three sub-criteria assert
reference values that are mathematically inconsistent with the pinned
closed forms; they are marked strict-xfail with the analysis in the
reason string (and in notes/decisions.md of the build records), so the
suite stays green while the defects remain visible and enforced.
"""

import time

import numpy as np
import numpy.testing as npt
import pytest

from qubit_reach import (
    ExtremalSeed,
    SystemParams,
    hamiltonian,
    integrate_extremal,
    seed,
    seed_grid,
)
from qubit_reach.bloch import _meridian_rhs, _trig
from qubit_reach.extremals import (
    replay_extremal,
    sweep_extremals_parallel,
    theta_rhs,
)
from qubit_reach.liealg import canonical_fields, rank_certificate
from qubit_reach.reachset import (
    BarrierTriangle,
    ReachSweep,
    barrier_certificate,
    guaranteed_ball_radius,
    marching_squares,
    revolve_to_3d,
    spiral_region,
    write_obj,
)
from qubit_reach import extremals
from qubit_reach import svg as svg_mod
from qubit_reach import table as table_mod
from reference import (
    bloch_rhs,
    bloch_to_density,
    dense_extremal,
    hamiltonian_dtheta,
    integrate,
    lindblad_rhs,
    velocity_to_matrix,
)

P = SystemParams.from_ratio(0.1)
G = P.ratio
FIG_TIMES = (0.1, 0.5, 1.0, 1.5, 2.0, 4.0, 6.0, 7.0)


@pytest.fixture(scope="module")
def big_sweep():
    """1024-seed, 512^2 first-passage raster to wT = 7 (criteria 4, 5, 9)."""
    t0 = time.perf_counter()
    sweep = ReachSweep(P, 7.0, n_seeds=1024, raster=512)
    sweep.build_seconds = time.perf_counter() - t0
    return sweep


@pytest.fixture(scope="module")
def health_sweep():
    """256 extremals to wT = 7 at tight tolerance (criterion 7)."""
    return sweep_extremals_parallel(seed_grid(256, P), 7.0, P, comps=range(5), tol=1e-12,
                                    sample_dt=7.0 / 700)


@pytest.fixture(scope="module")
def lookup_table():
    return table_mod.build_table(P, n_seeds=1024, T_max_scaled=7.0, grid_resolution=128)


def cell_grid(n):
    ax = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    return np.meshgrid(ax, ax, indexing="ij")


# --- criterion 1 -------------------------------------------------------------


def test_criterion_1_rhs_cross_oracle():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        v = rng.normal(size=3)
        r = v / np.linalg.norm(v) * rng.uniform(0, 1) ** (1 / 3)
        u = rng.uniform(-5, 5)
        n = rng.uniform(0, 3)
        lhs = lindblad_rhs(bloch_to_density(r), u, n, P)
        rhs = velocity_to_matrix(bloch_rhs(r, u, n, P))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS  (max |matrix - bloch| = {worst:.2e}, {elapsed:.2f} s)")


# --- criterion 2 -------------------------------------------------------------


def _poly_grid():
    ax = np.linspace(-1, 1, 5)
    return np.array([(x, y, z) for x in ax for y in ax for z in ax])


def _values(fields, name, pts):
    return fields[name](pts)


def _dets(fields, names, pts):
    cols = np.stack([_values(fields, nm, pts) for nm in names], axis=-1)
    return np.linalg.det(cols)


def test_criterion_2_bracket_certificates():
    t0 = time.perf_counter()
    pts = _poly_grid()
    fields = canonical_fields(P)
    closed = {
        "f3": np.column_stack(
            [pts[:, 2], G * (1 - 0.5 * pts[:, 2]), -pts[:, 0] - 0.5 * G * pts[:, 1]]
        ),
        "f4": np.column_stack(
            [
                G * (pts[:, 2] - 2),
                (1 - G * G / 4) * pts[:, 2],
                G * pts[:, 0] - (1 - G * G / 4) * pts[:, 1],
            ]
        ),
        "f5": np.column_stack(
            [-pts[:, 1], pts[:, 0] + G * pts[:, 1], G * (1 - pts[:, 2])]
        ),
        "f6": np.column_stack(
            [-pts[:, 2], G * (2 * pts[:, 2] - 1), pts[:, 0] + 2 * G * pts[:, 1]]
        ),
    }
    for name, want in closed.items():
        npt.assert_allclose(_values(fields, name, pts), want, atol=1e-10)

    # determinant identities that hold as polynomials
    npt.assert_allclose(
        _dets(fields, ("f1", "f3", "f5"), pts),
        (pts[:, 1] ** 2 - pts[:, 2] ** 3 + pts[:, 2] ** 2) * G,
        atol=1e-10,
    )
    npt.assert_allclose(
        _dets(fields, ("f1", "f3", "f6"), pts), 3 * pts[:, 1] * pts[:, 2] ** 2 * G,
        atol=1e-10,
    )
    pole = np.column_stack([np.linspace(-1, 1, 9), np.zeros(9), np.ones(9)])
    npt.assert_allclose(_dets(fields, ("f1", "f3", "f7"), pole), -3 * G, atol=1e-10)

    # rank 3 on the 21^3 Bloch-ball grid for three decoherence ratios
    checked = 0
    for ratio in (0.01, 0.1, 0.5):
        p = SystemParams.from_ratio(ratio)
        flds = canonical_fields(p)
        ax = np.linspace(-1, 1, 21)
        ball = np.array(
            [(x, y, z) for x in ax for y in ax for z in ax if x * x + y * y + z * z <= 1 + 1e-12]
        )
        dets = np.stack(
            [
                _dets(flds, ("f1", "f3", "f5"), ball),
                _dets(flds, ("f1", "f3", "f6"), ball),
                _dets(flds, ("f3", "f4", "f6"), ball),
                _dets(flds, ("f1", "f3", "f7"), ball),
            ]
        )
        witnessed = np.any(np.abs(dets) > 1e-12, axis=0)
        for r in ball[~witnessed]:
            assert rank_certificate(r, p, fields=flds).rank == 3
        checked += len(ball)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 2: PASS  (printed f3..f6 + three determinant identities, "
        f"rank 3 at {checked} grid points, {elapsed:.1f} s); "
        "see the two strict-xfail subtests for the inconsistent reference displays"
    )


@pytest.mark.xfail(
    strict=True,
    reason="(ad f1)^4 f0 = (-ry, rx + 4g ry, g(1 - 4rz)) under any bracket sign "
    "convention (even power), but the quoted display flips the sign of the "
    "rotation block; the two agree only in the dissipative terms",
)
def test_criterion_2_f7_printed_display():
    pts = _poly_grid()
    fields = canonical_fields(P)
    printed = np.column_stack(
        [pts[:, 1], -pts[:, 0] + 4 * G * pts[:, 1], G * (1 - 4 * pts[:, 2])]
    )
    npt.assert_allclose(_values(fields, "f7", pts), printed, atol=1e-10)


@pytest.mark.xfail(
    strict=True,
    reason="on the rx-axis f6 = -f3 identically, so det(f3, f4, f6) vanishes there "
    "for every gamma/omega; the quoted value 4 (gamma/omega)^3 cannot hold.  "
    "The axis rank-3 witness is (f3, f4, f5) with det 2 g (g^2 + rx^2)",
)
def test_criterion_2_axis_determinant_display():
    fields = canonical_fields(P)
    axis = np.column_stack([np.linspace(-1, 1, 9), np.zeros(9), np.zeros(9)])
    npt.assert_allclose(_dets(fields, ("f3", "f4", "f6"), axis), 4 * G ** 3, atol=1e-10)


# --- criterion 3 -------------------------------------------------------------


def meridian(theta):
    """The engine's meridian field at a fixed theta, in physical time."""
    st, ct, c2 = _trig(theta)
    return lambda t, y: P.omega * np.array(_meridian_rhs(y[0], y[1], st, ct, c2, G))


def test_criterion_3_spiral_oracle():
    T = 3 * np.pi / P.omega
    traj = integrate(meridian(0.0), np.array([0.0, 1.0]), T)
    ts = np.linspace(0, T, 400)
    exact = 1j * np.exp((-P.gamma / 2 + 1j * P.omega) * ts)
    got = traj.sample(ts)
    spiral_err = float(np.max(np.abs(got[:, 0] + 1j * got[:, 1] - exact)))
    assert spiral_err < 1e-6

    # theta == -pi/2 relaxation onto (0, -1), checked at gamma t = 40
    T2 = 40.0 / P.gamma
    traj2 = integrate(meridian(-np.pi / 2), np.array([0.0, 1.0]), T2)
    dist = float(np.hypot(traj2.ys[-1][0], traj2.ys[-1][1] + 1.0))
    assert dist < 1e-6
    print(
        f"\nACCEPTANCE 3: PASS  (spiral sup error {spiral_err:.2e}, "
        f"attractor distance {dist:.2e})"
    )


# --- criterion 4 -------------------------------------------------------------


def test_criterion_4_guaranteed_ball_coverage(big_sweep):
    assert big_sweep.build_seconds < 60.0
    occ = big_sweep.occupancy(7.0)
    Z, R = cell_grid(big_sweep.n)
    radius = guaranteed_ball_radius(P)
    npt.assert_allclose(radius, 1 - 0.025 * np.pi)
    disc = Z ** 2 + R ** 2 <= radius ** 2
    coverage = float(occ[disc].mean())
    assert coverage >= 0.999
    print(
        f"\nACCEPTANCE 4: PASS  (disc radius {radius:.5f} covered at "
        f"{100 * coverage:.4f}%, sweep {big_sweep.build_seconds:.1f} s, "
        f"{len(big_sweep.seeds)} extremals)"
    )


def test_spiral_region_swept(big_sweep):
    # module invariant tied to criterion 4: the spiral-bounded region is
    # certified exactly reachable, so its cells (with one-cell slack off
    # the bounding arcs) must be occupied by wT = 7
    occ = big_sweep.occupancy(7.0)
    Z, R = cell_grid(big_sweep.n)
    rho = np.hypot(Z, R)
    a = np.arccos(np.clip(np.abs(R) / np.where(rho > 0, rho, 1.0), -1, 1))
    inside = rho <= np.exp(-0.5 * G * a) - np.sqrt(2) * big_sweep.cell
    frac = float(occ[inside].mean())
    assert frac >= 0.999
    print(f"\nACCEPTANCE 4b: PASS  (spiral region swept at {100 * frac:.4f}%)")


# --- criterion 5 -------------------------------------------------------------


def test_criterion_5_lacuna_certificates(big_sweep):
    bound = 0.5 / np.sqrt(1 + G * G)
    npt.assert_allclose(bound, 0.4975, atol=5e-4)
    assert barrier_certificate(0.0, 0.4, 1e-3, P) is True
    assert barrier_certificate(0.0, 0.6, 1e-6, P) is False

    # no occupied cell may touch the certified triangle; first-passage
    # rasters are monotone, so checking the T = 7 set covers all T <= 7
    tri = BarrierTriangle(0.0, 0.4, 1e-3, G)
    occ = big_sweep.occupancy(7.0)
    Z, R = cell_grid(big_sweep.n)
    half = big_sweep.cell / 2.0
    # conservative rectangle test against the triangle's bounding box
    z_lo = np.cos(tri.beta) * (1 - tri.alpha * tri.beta * G)
    box = (np.abs(R) + half >= -np.sin(tri.beta)) & (
        np.abs(R) - half <= np.sin(tri.beta)
    ) & (Z + half >= z_lo)
    overlap = occ & box
    assert not overlap.any()
    print(
        "\nACCEPTANCE 5: PASS  (alpha 0.4 certified, 0.6 refuted, bound "
        f"{bound:.4f}; no occupied cell near the triangle, closest front cell "
        f"z = {Z[occ & (np.abs(R) <= half * 2)].max():.4f})"
    )


# --- criterion 6 -------------------------------------------------------------

CALCIUM = SystemParams(omega=4.5e15, kappa=2.4e-29, gamma=2.2e8)


def test_criterion_6_delta_formula(capsys):
    from qubit_reach.cli import main

    assert main(["lacuna", "--omega", "4.5e15", "--kappa", "2.4e-29",
                 "--gamma", "2.2e8"]) == 0
    out = capsys.readouterr().out
    printed = float(out.split("delta = ")[1].splitlines()[0])
    expected = np.pi * CALCIUM.gamma / (4 * CALCIUM.omega)
    assert abs(printed - expected) <= 1e-12 * expected
    with capsys.disabled():
        print(f"\nACCEPTANCE 6: PASS  (tool prints delta = {printed:.4e} "
              "= pi gamma / (4 omega); see the strict-xfail subtest for the "
              "quoted 6e-9 reference)")


@pytest.mark.xfail(
    strict=True,
    reason="pi gamma / (4 omega) = 3.84e-8 at omega = 4.5e15 rad/s, gamma = 2.2e8/s; "
    "the quoted 6e-9 equals gamma/(8 omega), i.e. it divides by an extra 2 pi "
    "(rad/s vs cycles/s mix-up) and cannot match the stated formula",
)
def test_criterion_6_delta_reference_value():
    delta = np.pi * CALCIUM.gamma / (4 * CALCIUM.omega)
    assert abs(delta - 6e-9) <= 0.05 * 6e-9


# --- criterion 7 -------------------------------------------------------------


def test_criterion_7_pmp_health(health_sweep):
    assert np.isinf(health_sweep.fail_tau).all()
    states = np.moveaxis(health_sweep.samples(range(5), np.arange(256), np.s_[:]), 0, -1)
    H = hamiltonian(states, P)
    h_drift = float(np.nanmax(np.abs(H - H[:, :1])))
    stat = float(np.nanmax(np.abs(hamiltonian_dtheta(states, P)[0])))
    assert h_drift < 1e-8
    assert stat < 1e-8

    # brute-force argmax slope oracle on a subset of extremals
    def argmax_theta(s):
        grid = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        sts = np.tile(s, (4096, 1))
        sts[:, 4] = grid
        th = grid[int(np.argmax(hamiltonian(sts, P)))]
        for _ in range(60):
            probe = s.copy()
            probe[4] = th
            f, fp = hamiltonian_dtheta(probe, P)
            if abs(fp) < 1e-13:
                break
            th -= f / fp
        return th

    rng = np.random.default_rng(77)
    worst = 0.0
    h = 1e-3
    for psi in rng.uniform(0, 2 * np.pi, 8):
        traj = dense_extremal(integrate_extremal(seed(psi, P), 7.0, P, sample_dt=7 / 2048), P)
        for k in rng.integers(64, 1980, 6):
            tau = traj.ts[k]
            th_m = argmax_theta(traj.sample(tau - h)[0])
            th_p = argmax_theta(traj.sample(tau + h)[0])
            fd = ((th_p - th_m + np.pi) % (2 * np.pi) - np.pi) / (2 * h)
            worst = max(worst, abs(fd - theta_rhs(traj.ys[k], P)))
    assert worst < 1e-5
    print(
        f"\nACCEPTANCE 7: PASS  (H drift {h_drift:.2e}, stationarity {stat:.2e}, "
        f"argmax-slope mismatch {worst:.2e} over 48 probes)"
    )


# --- criterion 8 -------------------------------------------------------------


def test_criterion_8_closed_loop_replay():
    rng = np.random.default_rng(8)
    worst = 0.0
    for psi in rng.uniform(0, 2 * np.pi, 32):
        sd = seed(psi, P)
        if abs(hamiltonian_dtheta(sd.state0, P)[1]) < 1e-6:
            continue  # stationary extremal has no control to recover
        traj = integrate_extremal(sd, 7.0, P, sample_dt=7 / 7000)
        rstates, sched = replay_extremal(traj, P)
        assert np.all(sched.n == 0)
        z_err = np.max(np.abs(rstates[:, 0] - traj.ys[:, 0]))
        r_err = np.max(np.abs(np.hypot(rstates[:, 1], rstates[:, 2]) - traj.ys[:, 1]))
        worst = max(worst, float(z_err), float(r_err))
    assert worst < 1e-4
    print(f"\nACCEPTANCE 8: PASS  (32 seeds, worst (z, R) sup error {worst:.2e})")


# --- criterion 9 -------------------------------------------------------------


def test_criterion_9_figure_regression(big_sweep, tmp_path):
    reg = spiral_region(P)
    prev = None
    for k, T in enumerate(FIG_TIMES):
        rset = big_sweep.reachable_set(T)
        path = tmp_path / f"reachset_wT{T:g}.svg"
        path.write_text(svg_mod.reachset_figure(rset, reg))
        assert path.stat().st_size > 0
        if prev is not None:
            assert not np.any(prev & ~rset.raster), f"containment broken at T={T}"
        prev = rset.raster
    print(
        f"\nACCEPTANCE 9: PASS  (8 SVG frames at wT = {FIG_TIMES}, raster "
        "containment monotone)"
    )


# --- criterion 10 ------------------------------------------------------------


def test_criterion_10_table_replay(lookup_table):
    tbl = lookup_table
    recs = np.array(list(tbl.records()))
    assert len(recs) > 1000
    seeds = [ExtremalSeed(float(r[2]), float(r[3])) for r in recs]
    tmins = recs[:, 4]
    # one batched replay to the horizon, sampled on the build grid
    sample_dt = min(0.35 * tbl.cell, 7.0 / 64.0)
    sweep = sweep_extremals_parallel(seeds, 7.0, P, comps=(0, 1), sample_dt=sample_dt)
    j_idx = np.clip(np.round(tmins / (sweep.tau[1] - sweep.tau[0])).astype(int),
                    0, len(sweep.tau) - 1)
    # each replay is read at its own sample, 64 columns at a time
    z_end = np.full(len(seeds), np.nan)
    r_end = np.full(len(seeds), np.nan)
    for j0 in range(0, len(sweep.tau), 64):
        rows = np.nonzero(j_idx // 64 == j0 // 64)[0]
        z, r = sweep.samples([0, 1], rows, np.s_[j0 : j0 + 64])
        at = (np.arange(len(rows)), j_idx[rows] - j0)
        z_end[rows], r_end[rows] = z[at], np.abs(r[at])
    centers = np.array([tbl.cell_center(int(i), int(j)) for i, j in recs[:, :2]])
    dist = np.hypot(z_end - centers[:, 0], r_end - centers[:, 1])
    ok = np.isfinite(dist) & (dist <= 2.0 * tbl.cell)
    frac = float(np.mean(ok))
    assert frac >= 0.99
    print(
        f"\nACCEPTANCE 10: PASS  ({len(recs)} cells, {100 * frac:.2f}% replay "
        f"within 2 cell widths, worst {np.nanmax(dist) / tbl.cell:.2f} cells)"
    )


# --- bit identity with the scalar seeder and the full-recompute sweep ---------

# sha256 of output bytes recorded before the sweep pipeline was batched
# (scalar seed(), full pair-gap recompute each refinement round, lexsort
# table binning); the batched pipeline must reproduce every bit.  The
# replay and failing-sweep hashes were re-recorded when the extremal field
# came to be evaluated from one sine and one cosine of theta: their states
# moved by at most 4.3e-15 and 8.8e-15, with the same failures.  The replay
# states were re-recorded again when ode.expm came to take affine generators
# (Pade degree by norm, 3 x 3 adjugate solve): they moved by at most 2.3e-13.
PINNED = {
    "seed_grid_4096_theta0":
        "20ad19e766da0ce3cc5ed4551f5a59565c0774036a465dc8af6a2f9aa48fefcd",
    "seed_min_256_theta0":
        "af09ddc2723ba38b4bf0c73b5f85a49e07c4918142e4fc15b6c52c962dd24d01",
    "big_sweep_tau_min":
        "c007b8f0fadfafbff9d6c02131227ab1188b6988d39015fa02752d1356fcda58",
    "lookup_table_csv":
        "001a54d3bee76490c680d712bb5d841ae93eb7c9c3c6c6be1f11b40f8ee486c6",
    # one north-pole replay: the aligning spike and the recovered control
    "replay_psi1_states":
        "aa282652f8556cd126f68d20e2657603936ea4031d7a6cca942a170c92857756",
    "replay_psi1_u":
        "61039fb2f7a11a246ab515b02ae4e1cf981023b8453517091a43675da96dee1c",
    # the readout of big_sweep: boundary loops and SVG frames at every
    # FIG_TIMES value, and the revolved wT = 7 mesh
    "big_sweep_fig_loops":
        "58f3cdebb7aad7936028e71686f8edc442991f1628e205d1bdeac00a1caa1566",
    "big_sweep_fig_svg":
        "534fac737930fa6ed1b0fbb9f5c070d32d5e9652c3a7c533e4c257038ff5fa8c",
    "big_sweep_obj_7":
        "4f35d9ecb095e70c782a6209aca3b815ded17c30e31897a010eae7acb0900aee",
    # a 64^2 raster with density 0.5: saddles, holes and many small loops
    "random_raster_loops":
        "2cbfc659e1efb5b501c3f99cb42e5735325ce72c8d5706efa8e0e431c36c3e91",
    # z, R, p, q and theta samples of a 64-seed sweep to wT = 7 in which
    # most seeds fail at many times and one is frozen at tau = 0
    "failing_sweep_samples":
        "55ec6cdfe5d95c7515414a585502eaa07dc51d9bd37ca54bdd4baebe1619be8c",
}


def _sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def loop_bytes(loops) -> bytes:
    """Loop lengths, then each loop's coordinates, in order."""
    lengths = np.array([len(loop) for loop in loops], dtype=np.int64)
    return lengths.tobytes() + b"".join(loop.tobytes() for loop in loops)


def pinned_min_psis():
    """256 fixed costate angles: a seeded uniform draw plus the axes."""
    psis = np.random.default_rng(20211).uniform(0.0, 2.0 * np.pi, 252)
    return np.concatenate([psis, 0.5 * np.pi * np.arange(4)])


def test_seed_grid_bits_pinned():
    theta0 = np.array([s.theta0 for s in seed_grid(4096, P)])
    assert _sha256(theta0.tobytes()) == PINNED["seed_grid_4096_theta0"]


def test_seed_min_branch_bits_pinned():
    theta0 = np.array([seed(float(psi), P, branch="min").theta0 for psi in pinned_min_psis()])
    assert _sha256(theta0.tobytes()) == PINNED["seed_min_256_theta0"]


def test_big_sweep_bits_pinned(big_sweep):
    assert _sha256(big_sweep.tau_min.tobytes()) == PINNED["big_sweep_tau_min"]
    # bit for bit mirror symmetric in R: the R < 0 half is a mirror copy
    assert big_sweep.tau_min.tobytes() == big_sweep.tau_min[:, ::-1].tobytes()


def test_big_sweep_refinement_outcome(big_sweep):
    # the 4 n_seeds budget runs out with wide pairs left (a 12,288-seed
    # budget converges at 6,341 seeds to the same raster)
    assert big_sweep.refine_rounds == 13
    assert big_sweep.seeds_added == 4096
    assert big_sweep.budget_exhausted is True
    assert len(big_sweep.seeds) == 5119
    assert len(big_sweep.unfilled_pairs) == 90


def test_replay_bits_pinned():
    # the aligning spike from the north pole and the recovered control
    traj = integrate_extremal(seed(1.0, P), 7.0, P, sample_dt=1e-3)
    states, sched = replay_extremal(traj, P)
    assert _sha256(states.tobytes()) == PINNED["replay_psi1_states"]
    assert _sha256(sched.u.tobytes()) == PINNED["replay_psi1_u"]


def test_replay_sweep_work_pinned():
    # the work of the sweep under test_replay_bits_pinned: a change to it
    # updates these counts in the open
    sweep = extremals.sweep_extremals([seed(1.0, P)], 7.0, P, comps=range(5), sample_dt=1e-3)
    assert sweep.counts == {"iterations": 161, "accepted": 161, "rejected": 0, "rhs_columns": 967}


def test_lookup_table_bits_pinned(lookup_table, tmp_path):
    path = tmp_path / "table.csv"
    table_mod.save(lookup_table, path)
    assert _sha256(path.read_bytes()) == PINNED["lookup_table_csv"]


def test_readout_bits_pinned(big_sweep):
    reg = spiral_region(P)
    rsets = [big_sweep.reachable_set(T) for T in FIG_TIMES]
    loops = b"".join(loop_bytes(marching_squares(rset.raster)) for rset in rsets)
    frames = "".join(svg_mod.reachset_figure(rset, reg) for rset in rsets)
    assert _sha256(loops) == PINNED["big_sweep_fig_loops"]
    assert _sha256(frames.encode()) == PINNED["big_sweep_fig_svg"]


def failing_sweep(monkeypatch):
    """64 seeds with psi0 = pi/2 (stationary) at row 20; a tiny branch-jump
    bound ends most of the others early."""
    seeds = seed_grid(64, P)
    seeds[20] = seed(np.pi / 2, P)
    monkeypatch.setattr(extremals, "MAX_BRANCH_JUMP", 1e-11)
    return seeds


def test_failing_sweep_bits_pinned(monkeypatch):
    seeds = failing_sweep(monkeypatch)
    sweep = extremals.sweep_extremals(seeds, 7.0, P, comps=range(5), sample_dt=7 / 512)
    samples = sweep.samples(range(5), np.arange(64), np.s_[:])
    assert sweep.fail_tau[20] == 0.0 and np.isnan(samples[0, 20, 1:]).all()
    assert 10 < np.sum((sweep.fail_tau > 0.0) & (sweep.fail_tau < 7.0)) < 63
    assert _sha256(samples.tobytes()) == PINNED["failing_sweep_samples"]


def test_random_raster_loops_pinned():
    occ = np.random.default_rng(0).random((64, 64)) < 0.5
    assert _sha256(loop_bytes(marching_squares(occ))) == PINNED["random_raster_loops"]


def test_obj_bits_pinned(big_sweep, tmp_path):
    path = tmp_path / "reach.obj"
    write_obj(path, *revolve_to_3d(big_sweep.reachable_set(7.0), 64))
    assert _sha256(path.read_bytes()) == PINNED["big_sweep_obj_7"]
