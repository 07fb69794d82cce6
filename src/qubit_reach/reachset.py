"""Reachable-set geometry: spiral certificates, barrier triangles, rasters.

Everything lives in the meridian plane (z, signed R); the 3D body in the
Bloch ball is the revolution of the half-plane set about the rx axis.
"Reachable by scaled time T" means time <= T: with a drift present there
is no waiting in place, and the union of wavefronts is the monotone
family the movie frames show.
"""

from __future__ import annotations

import contextlib
import ctypes
from dataclasses import dataclass

import numpy as np

from . import extremals
from .bloch import RHO_MIN, SingularityError, polar_rhs_scaled
from .extremals import sweep_extremals_parallel
from .params import SystemParams

SWEEP_TOL = 1e-8  # dp45 tolerance of the extremal sweeps of rasters and tables
REFINE_CELLS = 2.0  # adjacent paths further apart than this many cells get a bisection seed
MAX_REFINE_ROUNDS = 24
MIN_SEEDS = 64  # fewest seeds of a ReachSweep
BIN_BLOCK = 64  # sample columns per block of the first-passage binning
READ_COLS = 256  # sample columns per read of the paths: amortises the reader's per-block cost
# widening of the node bounds of a pair gap or a path: covers the rounding of the
# reader's and the bound's Hermite sums, and of chord points
GAP_SLACK = 1e-12
NO_PASSAGE = np.iinfo(np.int64).max  # key of a cell no path enters
SPIRAL_TOL = 1e-12  # slack of the spiral-region membership test
BARRIER_PHI_GRID = 2048  # edge samples of the barrier-certificate grid check
BARRIER_THETA_GRID = 720  # control angles of the barrier-certificate grid check
BARRIER_CHUNK = 64  # edge samples per evaluation: bounds the (chunk, theta) temporaries
OBJ_ROWS = 4096  # mesh rows per formatted chunk: bounds the Python floats held at once


def _window_max(tau, u, hull, live, w0, width, n_win):
    """Max of hull, shape (interval, k, row), on the intervals between times u
    per window of width sample columns from w0, shape (k, n_win, row).  An
    interval counts for the window of the first sample at or after its end
    unless it ends past its row's time live (a step end)."""
    np.copyto(hull, -np.inf, where=(u[1:, None] > live)[:, None])
    win = (np.searchsorted(tau, u[1:]) - w0) // width
    return np.maximum.reduceat(hull, np.searchsorted(win, np.arange(n_win))).transpose(1, 0, 2)


def gap_bounds(paths, a, b):
    """Upper bounds, shape (len(a), windows), of |a[k](tau) - b[k](tau)| on
    the live samples of each READ_COLS window, from the step nodes alone: the
    Bezier hull of the difference on the intervals of ReachSweep._pair_gaps,
    per window as in _window_max (a one-sample window takes the interval
    ending at it), widened by GAP_SLACK; -inf where no interval counts."""
    tau, blocks, starts = paths.tau, paths.blocks, paths.starts
    firsts = np.arange(0, len(tau), READ_COLS)
    ends = tau[np.union1d(firsts, np.minimum(firsts + READ_COLS, len(tau)) - 1)]
    ba, bb = np.searchsorted(starts, a, "right") - 1, np.searchsorted(starts, b, "right") - 1
    live = np.minimum(paths.fail_tau[a], paths.fail_tau[b])
    bound = np.full((len(a), len(firsts)), -np.inf)  # squared until the end
    key = ba * len(blocks) + bb
    order = np.argsort(key, kind="stable")
    for grp in np.split(order, np.flatnonzero(np.diff(key[order])) + 1) if len(a) else []:
        sides = [(x[grp[0]], rows[grp] - starts[x[grp[0]]]) for x, rows in ((ba, a), (bb, b))]
        if not all(len(blocks[x]["t1"]) for x, _ in sides):
            continue  # a block frozen at tau = 0 took no step: no live interval
        u = np.unique(np.concatenate([blocks[x]["t1"] for x, _ in sides] + [ends]))
        D = np.square(np.subtract(*(paths.bezier(x, rows, u) for x, rows in sides)))
        hull = D.sum(axis=2).max(axis=1, keepdims=True)  # (interval, 1, pair)
        bound[grp] = _window_max(tau, u, hull, live[grp], 0, READ_COLS, len(firsts))[0].T
    bound[:, 0] = np.maximum(bound[:, 0], 0.0)  # sample 0: every path starts at (z, R) = (0, 1)
    np.sqrt(bound, out=bound, where=bound >= 0.0)
    return bound + GAP_SLACK


def node_boxes(paths, w0):
    """Boxes (-min z, -min R, max z, max R), shape (4, windows, rows), that
    hold every live sample of each row in each BIN_BLOCK window of the read
    from sample column w0, from the step nodes alone: the hull of gap_bounds
    per path, widened by GAP_SLACK, on the intervals between the step ends
    and each window's last sample time, from the sample before w0 on, per
    window as in _window_max and -inf where no interval counts; window 0
    also holds the start node, sample 0."""
    tau, starts = paths.tau, paths.starts
    firsts = np.arange(w0, min(w0 + READ_COLS, len(tau)), BIN_BLOCK)
    ends = tau[np.append(max(w0 - 1, 0), np.minimum(firsts + BIN_BLOCK, len(tau)) - 1)]
    box = np.full((4, len(firsts), len(paths.seeds)), -np.inf)
    for b, (lo, hi) in enumerate(zip(starts, starts[1:])):
        t1 = paths.blocks[b]["t1"]
        if not len(t1):
            continue  # a block frozen at tau = 0 took no step
        u = np.union1d(t1[(t1 > ends[0]) & (t1 < ends[-1])], ends)
        P = paths.bezier(b, np.arange(hi - lo), u)
        hull = np.concatenate((-P.min(axis=1), P.max(axis=1)), axis=1)  # (interval, 4, row)
        box[:, :, lo:hi] = _window_max(tau, u, hull, paths.fail_tau[lo:hi], w0, BIN_BLOCK, len(firsts))
    if w0 == 0:
        start = paths.start([0, 1])
        box[:, 0] = np.fmax(box[:, 0], np.concatenate((-start, start)))
    return box + GAP_SLACK


def sample_spacing(cell: float, T_max: float) -> float:
    """Sample spacing of a first-passage sweep to T_max on cells of side
    cell: successive samples at most ~0.45 cell apart (speed <= ~1.3)."""
    return min(0.35 * cell, T_max / 64.0)


def folded_cell(z, R, n):
    """Flat cells i * (n - n // 2) + j of points (z, R) in the R >= 0 half of an
    n-cell raster of [-1, 1]^2, whose column j is raster column n // 2 + j: row
    int((z + 1) * inv) and column int((|R| + 1) * inv), inv = 1 / (2 / n), clipped
    to [0, n - 1] and [n // 2, n - 1].  z and R are fresh arrays, overwritten."""
    inv, low = 1.0 / (2.0 / n), n // 2
    z += 1.0
    z *= inv
    np.clip(z, 0, n - 1, out=z)
    cell = z.astype(int)
    del z  # a caller's temporary is freed before the R column is built
    cell *= n - low
    np.abs(R, out=R)
    R += 1.0
    R *= inv
    np.clip(R, low, n - 1, out=R)
    cell += R.astype(int)
    cell -= low
    return cell


def first_passage(n_cells: int, blocks) -> np.ndarray:
    """Per-cell minimum of packed integer keys.

    blocks(first) yields (flat cell index, key) array pairs, one block of
    sample columns at a time, and may read first, the minimum so far.  With
    the sample index in the leading digits of the key the minimum is the
    earliest passage; a seed index in the trailing digits breaks ties
    toward the lowest seed.  Cells nothing enters keep NO_PASSAGE.
    """
    first = np.full(n_cells, NO_PASSAGE, dtype=np.int64)
    for cells, keys in blocks(first):
        np.minimum.at(first, cells, keys)
        del cells, keys  # not held while blocks builds the next pair
    return first


def unsettled(first, n):
    """The settled test of a first-passage binning into the folded half of an
    n-cell raster, given first, its minimum keys so far: a function telling
    whether each box of node_boxes holds a cell no key in first entered (an
    empty box holds none).  Keys binned later must exceed every key in first,
    so only such a box can lower a cell's minimum."""
    half = n - n // 2
    # summed-area table of the entered cells, with a zero first row and column
    entered = first.reshape(n, half) != NO_PASSAGE
    done = np.pad(entered.cumsum(0, dtype=np.int32).cumsum(1, dtype=np.int32), (1, 0))

    def todo(box):
        live = (box[2] >= -box[0]) & (box[3] >= -box[1])
        nzlo, nrlo, zhi, rhi = np.where(live, box, 0.0)
        # its corners' (z, |R|) cells bound its cells; GAP_SLACK covers chord rounding
        i0, c0 = divmod(folded_cell(-nzlo, np.maximum(-np.minimum(nrlo, rhi), 0.0), n), half)
        i1, c1 = (k + 1 for k in divmod(folded_cell(zhi, np.maximum(nrlo, rhi), n), half))
        settled = done[i1, c1] - done[i0, c1] - done[i1, c0] + done[i0, c0]
        return live & (settled < (i1 - i0) * (c1 - c0))

    return todo


def release_heap() -> None:
    """glibc's malloc_trim(0), its size_t argument typed and its int result
    ctypes' default: the C heap's free memory back to the system, if it has one."""
    with contextlib.suppress(AttributeError, OSError, TypeError):
        ctypes.CDLL(None).malloc_trim(ctypes.c_size_t(0))


# --- spiral-bounded exact-reachability region ------------------------------


@dataclass(frozen=True)
class SpiralRegion:
    """Region bounded by four logarithmic-spiral arcs.

    The arcs are (z, R) = (s1 e^{-g s/2} sin s, s2 e^{-g s/2} cos s) for
    s in [0, pi/2] and the four sign choices (s1, s2); they join the
    poles (0, +-1) to the points (+-e^{-g pi/4}, 0) on the z axis.  In
    polar form each arc is rho(a) = e^{-g a/2} with a the angular
    distance to the nearest pole, which gives an exact ray test for
    membership.  The region contains the origin-centred disc of radius
    1 - (pi/4) g.
    """

    gamma_ratio: float

    def arcs(self, n: int) -> list[np.ndarray]:
        s = np.linspace(0.0, 0.5 * np.pi, n)
        rad = np.exp(-0.5 * self.gamma_ratio * s)
        out = []
        for sz in (1.0, -1.0):
            for sr in (1.0, -1.0):
                out.append(np.column_stack([sz * rad * np.sin(s), sr * rad * np.cos(s)]))
        return out

    def contains(self, z, R):
        """Vectorized membership test of meridian points (z, R)."""
        z = np.asarray(z, dtype=float)
        R = np.asarray(R, dtype=float)
        rho = np.hypot(z, R)
        safe_rho = np.where(rho > 0.0, rho, 1.0)
        a = np.arccos(np.clip(np.abs(R) / safe_rho, -1.0, 1.0))
        bound = np.exp(-0.5 * self.gamma_ratio * a)
        return (rho <= SPIRAL_TOL) | (rho <= bound + SPIRAL_TOL)


def spiral_region(params: SystemParams) -> SpiralRegion:
    return SpiralRegion(params.ratio)


def guaranteed_ball_radius(params: SystemParams) -> float:
    """Radius 1 - (pi/4) gamma/omega of the ball certified exactly reachable."""
    g = params.ratio
    if g >= 4.0 / np.pi:
        raise ValueError(
            f"guaranteed-ball certificate is vacuous for gamma/omega = {g} >= 4/pi"
        )
    return 1.0 - 0.25 * np.pi * g


def lacuna_alpha_bound(params: SystemParams) -> float:
    """Largest barrier slope: alpha < (1/2) (1 + (gamma/omega)^2)^(-1/2)."""
    if params.gamma <= 0:
        raise ValueError("lacuna certificates require gamma > 0")
    g = params.ratio
    return 0.5 / np.sqrt(1.0 + g * g)


# --- barrier triangles ------------------------------------------------------


@dataclass(frozen=True)
class BarrierTriangle:
    """Triangle near rho = 1 whose non-vertical edges repel trajectories.

    Vertices (rho = 1 - alpha beta g, phi = phi0) and (rho = 1,
    phi = phi0 +- beta), with g = gamma/omega.  The non-vertical edges
    are rho = 1 + s alpha g (phi - phi0 - s beta) for s = +-1; their
    outward normals in (rho, phi) are (-1, s alpha g).
    """

    phi0: float
    alpha: float
    beta: float
    gamma_ratio: float

    def __post_init__(self):
        if not (np.isfinite(self.phi0) and 0.0 < self.alpha < np.inf and 0.0 < self.beta < np.inf):
            raise ValueError("phi0 must be finite, and alpha and beta finite and positive")

    def edge_rho(self, edge: str, phi):
        s = _edge_sign(edge)
        return 1.0 + s * self.alpha * self.gamma_ratio * (
            np.asarray(phi, dtype=float) - self.phi0 - s * self.beta
        )

    def edge_phi_range(self, edge: str) -> tuple[float, float]:
        s = _edge_sign(edge)
        if s > 0:
            return self.phi0, self.phi0 + self.beta
        return self.phi0 - self.beta, self.phi0

    def contains(self, rho, phi):
        rho = np.asarray(rho, dtype=float)
        phi = np.asarray(phi, dtype=float)
        lower = np.where(
            phi >= self.phi0, self.edge_rho("plus", phi), self.edge_rho("minus", phi)
        )
        return (np.abs(phi - self.phi0) <= self.beta) & (rho <= 1.0) & (rho >= lower)


def _edge_sign(edge: str) -> float:
    if edge not in ("plus", "minus"):
        raise ValueError(f"edge must be 'plus' or 'minus', got {edge!r}")
    return 1.0 if edge == "plus" else -1.0


def barrier_values(
    tri: BarrierTriangle, edge: str, phi, theta, params: SystemParams, rho=None
):
    """Outward-normal velocity component G on a non-vertical triangle edge.

    G_edge = <(rho', phi'), (-1, s alpha g)> in rescaled time, with the
    polar velocity evaluated on the edge line (or at an explicit ``rho``,
    e.g. the formal value at the middle of the vertical edge rho = 1).
    Positive values mean the admissible velocity points out of the
    triangle.  The two edge labels trade places under a clockwise angle
    convention; the certified quantity min(G_plus, G_minus) does not
    depend on the labelling.
    """
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    lo, hi = tri.edge_phi_range(edge)
    if np.any(phi < lo - 1e-12) or np.any(phi > hi + 1e-12):
        raise ValueError(f"phi outside the {edge} edge range [{lo}, {hi}]")
    s = _edge_sign(edge)
    rho = tri.edge_rho(edge, phi) if rho is None else np.asarray(rho, dtype=float)
    if np.any(rho <= RHO_MIN):
        raise SingularityError(f"polar system is singular at rho={np.min(rho)} <= {RHO_MIN}")
    g = params.ratio
    rho_dot, phi_dot = polar_rhs_scaled(rho, phi, theta, g)
    out = -rho_dot + s * tri.alpha * g * phi_dot
    return out if np.ndim(out) else float(out)


def barrier_certificate(
    phi0: float,
    alpha: float,
    beta: float,
    params: SystemParams,
) -> bool:
    """Grid check that the triangle (phi0, alpha, beta) repels all velocities.

    True certifies (numerically, not by interval arithmetic) that no
    trajectory can cross the non-vertical edges inward for any control
    angle, so the triangle is unreachable from outside.  The poles
    phi0 = +-pi/2 are excluded: the leading positive term of G vanishes
    there.
    """
    if params.gamma <= 0:
        raise ValueError("barrier certificates require gamma > 0")
    tri = BarrierTriangle(phi0, alpha, beta, params.ratio)
    if abs(np.sin(phi0)) >= 1.0 - 1e-12:
        raise ValueError("certificate requires |sin(phi0)| < 1 (phi0 != +-pi/2)")
    thetas = np.linspace(0.0, 2.0 * np.pi, BARRIER_THETA_GRID, endpoint=False)[None, :]
    for edge in ("plus", "minus"):
        lo, hi = tri.edge_phi_range(edge)
        phis = np.linspace(lo, hi, BARRIER_PHI_GRID)[:, None]
        for k in range(0, BARRIER_PHI_GRID, BARRIER_CHUNK):
            G = barrier_values(tri, edge, phis[k : k + BARRIER_CHUNK], thetas, params)
            if float(G.min()) <= 0.0:
                return False
    return True


# --- reachable-set rasters ---------------------------------------------------


@dataclass
class ReachableSet2D:
    """Occupancy raster of the meridian set plus its extracted boundary.

    raster[i, j] covers the cell centred at (z_i, R_j) on [-1, 1]^2; the
    set is mirror symmetric in R by construction.  boundary is a list of
    closed polylines (first vertex repeated last).
    """

    raster: np.ndarray
    T_scaled: float
    boundary: list

    @property
    def n(self) -> int:
        return int(self.raster.shape[0])

    @property
    def cell(self) -> float:
        return 2.0 / self.n

    def axis_centers(self) -> np.ndarray:
        return -1.0 + (np.arange(self.n) + 0.5) * self.cell

    def occupied_centers(self) -> np.ndarray:
        ax = self.axis_centers()
        ii, jj = np.nonzero(self.raster)
        return np.column_stack([ax[ii], ax[jj]])


class ReachSweep:
    """First-passage raster of the extremal sweep from (z, R) = (0, 1).

    One batched integration to T_max, read back from its step nodes, gives
    every raster cell the earliest scaled time at which an extremal (or the
    filled strip between angularly adjacent extremals) enters it.  Its
    thresholds are the reachable sets for any T <= T_max, monotone in T by
    construction, which is also what makes movie frames cheap.

    Strips are filled in parameter space.  Adjacent-seed pairs whose
    paths separate by more than REFINE_CELLS cells are bisected with up
    to 4 n_seeds freshly integrated seeds (a straight chord across a wide
    gap could cut through a genuinely unreachable bay near the poles);
    remaining narrow gaps are bridged by linear interpolation between
    neighbouring paths, which stays within a small fraction of a cell of
    the true swept surface.

    The refinement outcome is kept: ``refine_rounds`` and ``seeds_added``
    count the bisection sweeps and their seeds, and ``budget_exhausted``
    is True when wide pairs were left as refinement stopped: the budget
    is the 4 n_seeds seeds and MAX_REFINE_ROUNDS rounds, and a round that
    finds every midpoint already probed also ends it.
    """

    def __init__(
        self,
        params: SystemParams,
        T_max: float,
        n_seeds: int = 1024,
        raster: int = 512,
        n_threads: int = 1,
    ):
        if n_seeds < MIN_SEEDS:
            raise ValueError(f"need at least {MIN_SEEDS} seeds, got {n_seeds}")
        self.T_max = float(T_max)
        self.n = int(raster)
        if self.n < 1:
            raise ValueError(f"raster needs at least 1 cell a side, got {raster}")
        self.cell = 2.0 / self.n
        sample_dt = sample_spacing(self.cell, T_max)
        self.tau = extremals.sample_times(T_max, sample_dt)  # rejects a bad T_max
        sweeps = []  # every sweep so far; merged into paths, one storage row per seed
        paths = psis = None  # psis: the psi0 of each storage row

        def run(batch):
            """Sweep into the next storage rows; returns the live ones by psi0."""
            nonlocal paths, psis
            sweeps.append(sweep_extremals_parallel(
                batch, T_max, params, n_threads=n_threads, comps=(0, 1), tol=SWEEP_TOL,
                sample_dt=sample_dt,
            ))
            paths = extremals.merge_sweeps(sweeps)
            psis = np.array([s.psi0 for s in paths.seeds])
            # a path frozen at tau = 0 (stationary extremal) keeps its row,
            # whose one sample (0, 1) every path has, but not a gap pair
            live = np.arange(len(psis) - len(batch), len(psis))[sweeps[-1].fail_tau > 0.0]
            return live[np.argsort(psis[live])]

        # order: storage rows by psi0; gaps[k]: pair (order[k], order[k + 1])
        budget = 4 * n_seeds
        order = run(extremals.seed_grid(n_seeds, params))
        tried = {round(psi, 12) for psi in psis}
        gaps = self._pair_gaps(paths, order, np.roll(order, -1))
        self.refine_rounds = 0
        for _ in range(MAX_REFINE_ROUNDS):
            wide = np.nonzero(gaps > REFINE_CELLS * self.cell)[0]
            if len(wide) == 0 or budget <= 0:
                break
            take = wide[:budget]
            psi_sorted = psis[order]
            new_psis = []
            for k in take:
                a = psi_sorted[k]
                b = psi_sorted[(k + 1) % len(order)]
                if k + 1 == len(order):
                    b += 2.0 * np.pi
                mid = (0.5 * (a + b)) % (2.0 * np.pi)
                if round(mid, 12) in tried:
                    # already probed (e.g. a degenerate angle): offset instead
                    mid = (a + 0.625 * (b - a)) % (2.0 * np.pi)
                    if round(mid, 12) in tried:
                        continue
                tried.add(round(mid, 12))
                new_psis.append(mid)
            if not new_psis:
                break
            budget -= len(new_psis)
            self.refine_rounds += 1
            rows = run(new_psis)  # the sweep seeds the bare angles
            # at most one new seed per pair: only the pairs on either side
            # of a new seed change, and only their gaps are computed
            at = np.searchsorted(psi_sorted, psis[rows])
            order = np.insert(order, at, rows)
            gaps = np.insert(gaps, at, 0.0)
            at += np.arange(len(at))
            touched = np.unique(np.concatenate([at - 1, at]) % len(order))
            gaps[touched] = self._pair_gaps(paths, order[touched], order[(touched + 1) % len(order)])
        self.seeds_added = 4 * n_seeds - budget
        self.budget_exhausted = bool(np.any(gaps > REFINE_CELLS * self.cell))

        self.psis = psis[order]
        self.seeds = [paths.seeds[i] for i in order]
        self.n_failed = int(np.sum(np.isfinite(paths.fail_tau)))
        self.tau_min = self._rasterize(paths, order, gaps)
        release_heap()  # the raster's freed reads; the nodes, freed on return, serve later work

    @staticmethod
    def _pair_gaps(paths, a, b):
        """Max over time of the distance between paths a[k] and b[k].

        Pairs of one (block of a, block of b) share the union of both blocks'
        step ends and each window's first and last sample time.  On each of
        its intervals both paths are one cubic Hermite piece of the reader, so
        their difference lies in the convex hull of its four Bezier points:
        the end values, and each plus or minus a third of the interval times
        the slope.  Widened by GAP_SLACK (the paths stay in the unit disc with
        slopes of order 1, so the reader's and the bound's Hermite sums round
        near 1e-15), the hull bounds the pair on each window (gap_bounds).
        One grouped read per window then takes each pair's window of largest
        bound, then every window whose bound is not below the pair's running
        maximum.  The windows skipped lie below it, so the fmax over the
        windows read is the same float as over all of them, bit for bit.
        """
        bound, out = gap_bounds(paths, a, b), np.zeros(len(a))
        first = np.zeros(bound.shape, dtype=bool)
        first[np.arange(len(a)), np.argmax(bound, axis=1)] = True
        for second in (False, True):
            need = ~first & ~(bound < out[:, None]) if second else first
            for w in np.flatnonzero(need.any(axis=0)):
                k = np.flatnonzero(need[:, w])
                rows, pair = np.unique(np.concatenate([a[k], b[k]]), return_inverse=True)
                z, r = paths.samples([0, 1], rows, np.s_[w * READ_COLS : (w + 1) * READ_COLS])
                ia, ib = pair[: len(k)], pair[len(k) :]
                # a NaN distance (a path past its failure) counts as 0
                out[k] = np.fmax(out[k], np.fmax.reduce(np.hypot(z[ia] - z[ib], r[ia] - r[ib]), axis=1))
        return out

    def _rasterize(self, paths, order, gaps):
        """First-passage times of all paths and of the strips between
        neighbours in order; gaps[k] is the gap of pair (order[k], order[k + 1]).
        Each point is binned once, by folded_cell, into the R >= 0 half (a point
        on an edge goes to the cell above it); column c is also column n - 1 - c."""
        n, half = self.n, self.n - self.n // 2
        # strips are bridged by chords only where the two paths run close
        # together; a chord across a wide gap could cut through a genuinely
        # unreachable bay, so wide moments stay unbridged (and recorded)
        fill_limit = 2.0 * REFINE_CELLS * self.cell
        self.unfilled_pairs = list(np.nonzero(gaps > fill_limit)[0])
        n_sub = np.ceil(np.minimum(gaps, fill_limit) * (1.0 / self.cell) / 0.45).astype(int)
        # pairs grouped by chord count k; each chord has the k - 1 inner
        # points lam * a + (1 - lam) * b, lam = 1/k, ..., (k - 1)/k
        groups = []
        for k in np.unique(n_sub[n_sub > 1]):
            ids = np.nonzero(n_sub == k)[0]
            lam = (np.arange(1, k) / k)[:, None]
            groups.append((order[ids], order[(ids + 1) % len(order)], lam, 1 - lam))

        def cells(first):
            for w0 in range(0, len(self.tau), READ_COLS):
                # (window, row) and (window, pair) to bin, a pair's box being its ends'
                # union; a row is read if it or a pair of it has a window to bin
                todo, box = unsettled(first, n), node_boxes(paths, w0)
                go = todo(box)
                pair_go = [todo(np.maximum(box[..., pa], box[..., pb])) for pa, pb, _, _ in groups]
                del box
                need = go.any(axis=0)
                for (pa, pb, _, _), g in zip(groups, pair_go):
                    g = g.any(axis=0)
                    need[pa[g]] = need[pb[g]] = True
                rows = np.flatnonzero(need)
                if not len(rows):
                    continue
                at = np.cumsum(need) - 1  # read row of each storage row
                z, r = paths.samples([0, 1], rows, np.s_[w0 : w0 + READ_COLS])
                for i, j0 in enumerate(range(0, z.shape[1], BIN_BLOCK)):
                    zw, rw = z[:, j0 : j0 + BIN_BLOCK], r[:, j0 : j0 + BIN_BLOCK]
                    sample = np.arange(w0 + j0, w0 + j0 + zw.shape[1])
                    ok = np.isfinite(zw) & go[i, rows, None]
                    yield folded_cell(zw[ok], rw[ok], n), np.broadcast_to(sample, ok.shape)[ok]
                    for (pa, pb, lam, mu), g in zip(groups, pair_go):
                        ia, ib = at[pa[g[i]]], at[pb[g[i]]]
                        za, zb = zw[ia], zw[ib]
                        ra, rb = rw[ia], rw[ib]
                        # NaN tails compare False, so the chord needs both ends live
                        good = np.hypot(za - zb, ra - rb) <= fill_limit
                        za, zb, ra, rb = za[good], zb[good], ra[good], rb[good]
                        key = np.tile(np.broadcast_to(sample, good.shape)[good], len(lam))
                        pz, pr = lam * za, lam * ra
                        pz += mu * zb
                        pr += mu * rb
                        yield folded_cell(pz.ravel(), pr.ravel(), n), key
                del z, r, zw, rw, ok  # free this window before the next read allocates one

        first = first_passage(n * half, cells).reshape(n, half)
        tau_min = np.where(first == NO_PASSAGE, np.inf, self.tau[np.minimum(first, len(self.tau) - 1)])
        return np.hstack((tau_min[:, ::-1][:, : n // 2], tau_min))

    def occupancy(self, T: float) -> np.ndarray:
        if not T <= self.T_max + 1e-12:  # NaN too
            raise ValueError(f"raster was swept to T_max={self.T_max}, asked for T={T}")
        return self.tau_min <= T

    def reachable_set(self, T: float) -> ReachableSet2D:
        occ = self.occupancy(T)
        return ReachableSet2D(occ, T, boundary=marching_squares(occ))


# --- marching squares and revolution ----------------------------------------

# segment table, indexed by case v00 | v10 << 1 | v11 << 2 | v01 << 3 where
# vXY is the occupancy of corner (x + X, y + Y): each segment joins two edge
# midpoints, given in doubled cell units.  The saddles 5 and 10 take the
# disconnected resolution (each inside corner is cut off separately).
_B, _T, _L, _R = (1, 0), (1, 2), (0, 1), (2, 1)  # bottom, top, left, right
_MS_TABLE = [
    [],
    [(_L, _B)],
    [(_B, _R)],
    [(_L, _R)],
    [(_T, _R)],
    [(_L, _B), (_T, _R)],
    [(_B, _T)],
    [(_L, _T)],
    [(_L, _T)],
    [(_B, _T)],
    [(_B, _R), (_L, _T)],
    [(_T, _R)],
    [(_L, _R)],
    [(_B, _R)],
    [(_L, _B)],
    [],
]
# as arrays: segments per case, and (case, slot, end, axis) offsets with
# unused slots filled
_MS_COUNT = np.array([len(segs) for segs in _MS_TABLE])
_MS_OFFSET = np.array([segs + [(_L, _L)] * (2 - len(segs)) for segs in _MS_TABLE])


def marching_squares(raster: np.ndarray) -> list[np.ndarray]:
    """Closed boundary polylines of a boolean raster over [-1, 1]^2.

    The raster is padded with an empty ring so every contour closes;
    vertices sit midway between adjacent cell centres.  Segments are
    numbered in np.nonzero order of the boundary cells, and within a cell
    in table slot order; each runs from its first table edge ka to its
    second kb.  On a binary grid every contour vertex has exactly two
    incident segments, so each vertex has one partner segment.  A loop
    starts at the lowest-numbered segment no earlier loop used, runs
    ka -> kb, then from each vertex takes the partner segment of the one
    it arrived by, and stops on returning to its start vertex.  Returns
    the loops in order of their start segments as (k, 2) arrays whose
    last vertex repeats the first.
    """
    n = raster.shape[0]
    cell = 2.0 / n
    pad = np.zeros((n + 2, n + 2), dtype=np.int8)
    pad[1:-1, 1:-1] = raster.astype(np.int8)
    case = (
        pad[:-1, :-1]
        | (pad[1:, :-1] << 1)
        | (pad[1:, 1:] << 2)
        | (pad[:-1, 1:] << 3)
    )
    xs, ys = np.nonzero((case > 0) & (case < 15))
    cases = case[xs, ys]
    cid, slot = np.nonzero(np.arange(2) < _MS_COUNT[cases][:, None])
    n_seg = len(cid)
    if n_seg == 0:
        return []
    # ends of segment s: row s is ka, row n_seg + s is kb, each a doubled
    # padded lattice index (kx, ky), sorted by the id kx * (2n + 3) + ky
    corner = 2 * np.stack([xs[cid], ys[cid]], axis=1)
    off = _MS_OFFSET[cases[cid], slot]
    ends = np.concatenate([corner + off[:, 0], corner + off[:, 1]])
    # the two ends at each vertex sit at sorted positions 2i and 2i + 1;
    # arriving by end e, the walk leaves by the far end of its partner's segment
    order = np.argsort(ends[:, 0] * (2 * n + 3) + ends[:, 1], kind="stable")
    partner = order[np.argsort(order) ^ 1]
    step = ((partner + n_seg) % (2 * n_seg)).tolist()
    stop = partner[:n_seg].tolist()  # the end by which a walk returns to its ka
    # marked through an array view, searched as bytes for the next start
    used = bytearray(n_seg)
    mark = np.frombuffer(used, dtype=np.uint8)
    walk, lengths = [], []
    s0 = 0
    while s0 >= 0:
        e = n_seg + s0
        path = [s0, e]
        while e != stop[s0]:
            e = step[e]
            path.append(e)
        mark[np.array(path[1:]) % n_seg] = 1
        walk += path
        lengths.append(len(path))
        s0 = used.find(0, s0)
    pts = -1.0 + (0.5 * ends[walk] - 0.5) * cell
    return np.split(pts, np.cumsum(lengths[:-1]))


def revolve_to_3d(set2d: ReachableSet2D, n_angles: int):
    """Revolve the R >= 0 half of the boundary about the rx axis.

    Returns (vertices, faces): vertices of shape (k * n_angles, 3) where
    k is the number of profile points, faces as (m, 3) integer triangles.
    Rejects open boundary polylines.
    """
    if n_angles < 3:
        raise ValueError("need at least 3 revolution angles")
    if not set2d.boundary:
        raise ValueError("empty raster has no boundary to revolve")
    # the upper-half profile comes from the loop with the most R >= 0 arc
    loop = max(set2d.boundary, key=lambda l: int(np.sum(l[:, 1] >= 0.0)))
    if not np.allclose(loop[0], loop[-1], atol=1e-12):
        raise ValueError("boundary polyline is not closed")
    # walk the cyclic loop, keeping the R >= 0 chain with interpolated
    # axis crossings: each point if R >= 0, then the crossing after it
    a = loop[:-1]
    b = np.roll(a, -1, axis=0)
    cross = (a[:, 1] < 0.0) != (b[:, 1] < 0.0)
    t = (a[cross, 1] / (a[cross, 1] - b[cross, 1]))[:, None]
    chain = np.empty((len(a), 2, 2))
    chain[:, 0] = a
    chain[cross, 1] = (1 - t) * a[cross] + t * b[cross]
    profile = chain[np.stack([a[:, 1] >= 0.0, cross], axis=1)]
    if not len(profile):
        raise ValueError("boundary has no R >= 0 portion")
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    ca, sa = np.cos(angles), np.sin(angles)
    z, R = profile[:, :1], profile[:, 1:]
    verts = np.stack(np.broadcast_arrays(z, R * ca, R * sa), axis=-1)
    # two triangles per quad between profile points i and i + 1
    row = np.arange(len(profile) - 1)[:, None] * n_angles
    kk = np.arange(n_angles)
    v0, v1 = row + kk, row + (kk + 1) % n_angles
    v2, v3 = v1 + n_angles, v0 + n_angles
    faces = np.stack([v0, v1, v2, v0, v2, v3], axis=-1).reshape(-1, 3)
    return verts.reshape(-1, 3), faces


def write_obj(out, vertices, faces) -> None:
    """Minimal OBJ export of a triangle mesh to a path or an open text file,
    OBJ_ROWS rows per formatted chunk."""
    rows = [(np.asarray(vertices, dtype=float).reshape(-1, 3), "v %.9f %.9f %.9f\n"),
            (np.asarray(faces, dtype=int).reshape(-1, 3) + 1, "f %d %d %d\n")]
    with contextlib.nullcontext(out) if hasattr(out, "write") else open(out, "w") as fh:
        for a, line in rows:
            for k in range(0, len(a), OBJ_ROWS):
                chunk = a[k : k + OBJ_ROWS]
                fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))
