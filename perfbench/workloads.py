"""The three benchmark workloads, their inputs and their output checks.

Each workload drives the library at the CLI's default sizes:

- ``reach_movie``: the acceptance ``big_sweep`` (``ReachSweep`` at
  gamma/omega = 0.1, wT = 7, 1024 seeds, 512^2 raster, one thread), then the
  140 frames of ``qubit-reach movie`` with the spiral overlay and one OBJ.
  The only workload with gap refinement and the Python-loop rasterizer,
  and the only one that reads one sweep many times.
- ``table_roundtrip``: ``build_table`` at 4096 seeds, wT = 10, grid 256 on
  one thread, then save and load, with 100,000 seeded targets
  each queried before and after the round trip.  No refinement and no
  raster, so seeding and the lexsort binning dominate; its read path sits
  beside its write path.
- ``replay``: 32 seeded psi0, each seeded, integrated to wT = 7 and
  replayed from the north pole (acceptance criterion 8); every 8th
  recovered schedule (4 in all) is also simulated through
  ``schedule.simulate``.
  Per-step Python overhead dominates; seeding at scale, gaps and the
  raster are bypassed.

The workload seed draws only the replay angles and the query targets; the
sweeps use the package's own deterministic seed grid, so their outputs
can be compared with the reference files made at the seed commit.
"""

from __future__ import annotations

import lzma
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qubit_reach import extremals, reachset, schedule, svg, table as table_mod
from qubit_reach.params import SystemParams

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
GAMMA_RATIO = 0.1
REFERENCE_TIMES = (1.0, 2.0, 4.0, 7.0)
REPLAY_TOL = 1e-4


@dataclass(frozen=True)
class Sizes:
    reach_seeds: int = 1024
    reach_raster: int = 512
    reach_T: float = 7.0
    frames: int = 140
    obj_angles: int = 64
    table_seeds: int = 4096
    table_T: float = 10.0
    table_grid: int = 256
    queries: int = 100_000
    replays: int = 32
    replay_T: float = 7.0
    replay_dt: float = 1e-3
    simulates: int = 4


SIZES = {
    "full": Sizes(),
    # every workload path in seconds; no reference outputs exist at this size
    "smoke": Sizes(
        reach_seeds=64, reach_raster=64, reach_T=2.0, table_seeds=256,
        table_grid=32, queries=2000, replays=2, replay_T=2.0, simulates=2,
    ),
}


# Every sweep runs on one thread.  On a 2-vCPU host two threads made the
# table build slower (median 18.6 s in 10 runs, against 16.4 s in 6 runs
# on one thread) and noisier (quartile spread 10.5 % of the median, against
# about 4 %): seeding is serial and the sweep's 128-seed blocks contend for
# the interpreter lock.
THREADS = 1


@dataclass
class Result:
    """What one workload run measured and checked."""

    wall_s: float = 0.0
    readout_s: float = 0.0
    query_us: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatch: int | None = None  # None: the workload or size has no reference
    checks: dict = field(default_factory=dict)  # name -> passed
    facts: dict = field(default_factory=dict)  # per-layer values read off objects
    notes: dict = field(default_factory=dict)  # reported, not gated

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def prepare(workload: str, seed: int, size: str) -> dict:
    """Build the inputs of one run: parameters, seeded targets and angles."""
    sizes = SIZES[size]
    params = SystemParams.from_ratio(GAMMA_RATIO)
    rng = np.random.default_rng(seed)
    inputs = {"params": params, "sizes": sizes, "size": size}
    if workload == "reach_movie":
        inputs["spiral"] = reachset.spiral_region(params)
    elif workload == "table_roundtrip":
        # uniform over the closed upper half-disc
        rad = np.sqrt(rng.uniform(0.0, 1.0, sizes.queries))
        ang = rng.uniform(0.0, np.pi, sizes.queries)
        inputs["targets"] = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    elif workload == "replay":
        # one angle drawn in each of `replays` equal arcs: the cost of a replay
        # depends on psi0, so stratifying keeps the total work nearly seed-free
        k = np.arange(sizes.replays) + rng.uniform(0.0, 1.0, sizes.replays)
        inputs["psis"] = 2.0 * np.pi * k / sizes.replays
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


# --- reach_movie -------------------------------------------------------------


def build_reach(params, sizes) -> reachset.ReachSweep:
    return reachset.ReachSweep(
        params, sizes.reach_T, n_seeds=sizes.reach_seeds, raster=sizes.reach_raster,
        n_threads=THREADS,
    )


def reach_criteria(sweep, params) -> dict:
    """Acceptance criteria 4, 4b and 5 on the wT = 7 raster."""
    occ = sweep.occupancy(7.0)
    ax = -1.0 + (np.arange(sweep.n) + 0.5) * sweep.cell
    Z, R = np.meshgrid(ax, ax, indexing="ij")
    g = params.ratio
    radius = reachset.guaranteed_ball_radius(params)
    c4 = float(occ[Z ** 2 + R ** 2 <= radius ** 2].mean()) >= 0.999
    rho = np.hypot(Z, R)
    a = np.arccos(np.clip(np.abs(R) / np.where(rho > 0, rho, 1.0), -1, 1))
    inside = rho <= np.exp(-0.5 * g * a) - np.sqrt(2) * sweep.cell
    c4b = float(occ[inside].mean()) >= 0.999
    tri = reachset.BarrierTriangle(0.0, 0.4, 1e-3, g)
    half = sweep.cell / 2.0
    z_lo = np.cos(tri.beta) * (1 - tri.alpha * tri.beta * g)
    box = (np.abs(R) - half <= np.sin(tri.beta)) & (Z + half >= z_lo)
    c5 = reachset.barrier_certificate(0.0, 0.4, 1e-3, params) and not np.any(occ & box)
    return {"criterion_4": c4, "criterion_4b": c4b, "criterion_5": c5}


def reach_occupancy(sweep) -> dict:
    return {f"wT{T:g}": sweep.occupancy(T) for T in REFERENCE_TIMES}


def run_reach_movie(inputs, tracer, workdir: Path) -> Result:
    params, sizes = inputs["params"], inputs["sizes"]
    res = Result()
    t0 = time.perf_counter()
    try:
        with tracer.span("reachset.ReachSweep"):
            sweep = build_reach(params, sizes)
    except Exception as exc:  # the benchmark reports a failed operation and goes on
        res.wall_s = time.perf_counter() - t0
        res.op(False)
        res.attempted += sizes.frames + 1
        res.failed += sizes.frames + 1
        res.notes["error"] = repr(exc)
        return res
    res.wall_s = time.perf_counter() - t0
    ok = True
    if sizes.reach_T >= 7.0:
        res.checks = reach_criteria(sweep, params)
        ok = all(res.checks.values())
    res.op(ok)
    res.facts = {
        "reachset.seeds_live": len(sweep.seeds),
        "reachset.unfilled_pairs": len(sweep.unfilled_pairs),
        "reachset.n_failed": int(sweep.n_failed),
    }

    t_read = time.perf_counter()
    rset = None
    for k in range(1, sizes.frames + 1):
        T = sizes.reach_T * k / sizes.frames
        tq = time.perf_counter_ns()
        try:
            with tracer.span("frame"):
                rset = sweep.reachable_set(T)
                frame = svg.reachset_figure(rset, inputs["spiral"], label=f"wT = {T:.4f}")
            res.op(frame.endswith("</svg>\n"))
        except Exception as exc:
            res.op(False)
            res.notes.setdefault("error", repr(exc))
        res.query_us.append((time.perf_counter_ns() - tq) / 1e3)
    try:
        with tracer.span("obj"):
            verts, faces = reachset.revolve_to_3d(rset, n_angles=sizes.obj_angles)
            reachset.write_obj(workdir / "reach.obj", verts, faces)
        res.op(len(faces) > 0)
    except Exception as exc:
        res.op(False)
        res.notes.setdefault("error", repr(exc))
    res.readout_s = time.perf_counter() - t_read

    if inputs["size"] == "full":
        with np.load(REFERENCE / "reach_occupancy.npz") as packed:
            res.mismatch = 0
            for key, occ in reach_occupancy(sweep).items():
                want = np.unpackbits(packed[key], count=occ.size).reshape(occ.shape)
                res.mismatch += int(np.count_nonzero(want.astype(bool) ^ occ))
    return res


# --- table_roundtrip ---------------------------------------------------------


def build_lookup(params, sizes):
    return table_mod.build_table(
        params, n_seeds=sizes.table_seeds, T_max_scaled=sizes.table_T,
        grid_resolution=sizes.table_grid, n_threads=THREADS,
    )


def _record_lines(text: str) -> dict:
    """(i, j) -> row text of a saved table, header lines skipped."""
    rows = {}
    for line in text.splitlines()[2:]:
        i, j, rest = line.split(",", 2)
        rows[i, j] = rest
    return rows


def _timed_ask(tbl, z, r, latencies_us):
    """Query answer (None if unreachable, the exception if it raised), timed."""
    t0 = time.perf_counter_ns()
    try:
        got = tuple(float(v) for v in table_mod.query(tbl, z, r))
    except table_mod.UnreachableError:
        got = None
    except Exception as exc:
        got = exc
    latencies_us.append((time.perf_counter_ns() - t0) / 1e3)
    return got


def run_table_roundtrip(inputs, tracer, workdir: Path) -> Result:
    params, sizes = inputs["params"], inputs["sizes"]
    targets = inputs["targets"]
    res = Result()
    path = workdir / "table.csv"
    t0 = time.perf_counter()
    try:
        built = build_lookup(params, sizes)
        table_mod.save(built, path)
    except Exception as exc:
        res.wall_s = time.perf_counter() - t0
        res.attempted, res.failed = 1 + len(targets), 1 + len(targets)
        res.notes["error"] = repr(exc)
        return res
    res.wall_s = time.perf_counter() - t0
    res.op(True)
    res.facts["table.cells"] = int(np.count_nonzero(built.mask))

    # every target is asked of the built table and again of the loaded one;
    # both passes are timed, so the latency samples span the whole read path
    radius = reachset.guaranteed_ball_radius(params)
    t_read = time.perf_counter()
    before = [_timed_ask(built, z, r, res.query_us) for z, r in targets]
    try:
        loaded = table_mod.load(path)
    except Exception as exc:
        loaded = None
        res.notes["error"] = repr(exc)
    for (z, r), want in zip(targets, before):
        got = _timed_ask(loaded, z, r, res.query_us)
        in_ball = z * z + r * r <= radius * radius
        ok = not isinstance(got, Exception) and got == want and not (got is None and in_ball)
        res.op(ok)
    res.readout_s = time.perf_counter() - t_read

    if inputs["size"] == "full":
        want = _record_lines(lzma.decompress((REFERENCE / "table.csv.xz").read_bytes()).decode())
        have = _record_lines(path.read_text())
        res.mismatch = sum(want.get(k) != have.get(k) for k in want.keys() | have.keys())
    return res


# --- replay ------------------------------------------------------------------


def _sup_error(zr, traj) -> float:
    """Worst (z, R) distance between Bloch states and the extremal's samples."""
    z_err = np.max(np.abs(zr[:, 0] - traj.ys[:, 0]))
    r_err = np.max(np.abs(np.hypot(zr[:, 1], zr[:, 2]) - traj.ys[:, 1]))
    return max(float(z_err), float(r_err))


def _simulate(traj, sched, params) -> float:
    """Sup error of the schedule simulated from the extremal's start point."""
    th0 = float(traj.ys[0, 4])
    sim = schedule.simulate(np.array([0.0, np.cos(th0), np.sin(th0)]), sched, params)
    return _sup_error(sim.sample(traj.ts / params.omega), traj)


def run_replay(inputs, tracer, workdir: Path) -> Result:
    params, sizes = inputs["params"], inputs["sizes"]
    res = Result()
    worst = sim_worst = 0.0
    # every stride-th recovered schedule is read back through the public
    # simulate path right after its replay, so the simulate samples are
    # spread over the whole run rather than taken in one burst
    stride = max(1, sizes.replays // sizes.simulates)
    for k, psi in enumerate(inputs["psis"]):
        traj = sched = None
        tq = time.perf_counter_ns()
        try:
            sd = extremals.seed(float(psi), params)
            traj = extremals.integrate_extremal(sd, sizes.replay_T, params, sample_dt=sizes.replay_dt)
            rstates, sched = extremals.replay_extremal(traj, params)
            err = _sup_error(rstates, traj)
            worst = max(worst, err)
            res.op(err < REPLAY_TOL and bool(np.all(sched.n == 0)))
        except Exception as exc:
            res.op(False)
            res.notes.setdefault("error", repr(exc))
        res.query_us.append((time.perf_counter_ns() - tq) / 1e3)
        res.wall_s += res.query_us[-1] / 1e6
        if k % stride or k // stride >= sizes.simulates:
            continue
        t_sim = time.perf_counter()
        try:
            err = _simulate(traj, sched, params)
            sim_worst = max(sim_worst, err)
            res.op(math.isfinite(err))
        except Exception as exc:
            res.op(False)
            res.notes.setdefault("error", repr(exc))
        res.readout_s += time.perf_counter() - t_sim
    res.notes["replay_err_max"] = worst
    res.notes["simulate_err_max"] = sim_worst
    return res


RUNNERS = {
    "reach_movie": run_reach_movie,
    "table_roundtrip": run_table_roundtrip,
    "replay": run_replay,
}
