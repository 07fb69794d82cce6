"""Time-optimal extremals of the meridian-plane system.

Working picture
---------------
Time is rescaled as tau = omega * t and g = gamma / omega.  The phase
point is ``(z, R, p, q, theta)``: meridian coordinates ``(z, R)``, their
conjugate variables ``(p, q)``, and the control angle ``theta`` held at
the pointwise maximizer of the control Hamiltonian

    H = -p (g z / 2 + R cos th)
        + q (z cos th - g R (3 - cos 2th) / 4 + g sin th).

Because the admissible-velocity curve is strictly convex for 0 < R < 1
(see :func:`convexity_margin`), the maximizer is a smooth implicit
function of the state and its drift follows from d/dtau (dH/dtheta) = 0:

    theta' = (g/8) [ (pR + qz)(5 sin th + sin 3th) - 8 p
                     - 4 g q cos^3 th ]
             / [ (pR - qz) cos th - g q (sin th + R cos 2th) ].

The closed form was re-derived by expanding the stationarity condition
along the state and costate equations; it matches term by term, with
``g sin th`` (not ``gamma sin th``) in the R equation, which is the only
reading consistent with the time rescaling.

Extremals are integrated in the covering space where R may change sign;
``(R, q, theta) -> (-R, -q, theta + pi)`` is an exact symmetry of the
flow, and :func:`integrate_extremal` folds stored samples back to
R >= 0.  All stationarity and control-recovery formulas used here are
invariant under that fold.

The flow is written once, in :func:`extremal_flow`, which takes the five
components as separate arrays.  The sweep passes the rows of its (5, n)
block of seeds; the public functions that take a state array (trailing
axis of length 5, like the rows of ``Trajectory.ys``) pass its columns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bloch import R_MIN, SingularityError, _meridian_rhs, _theta_balance
from .ode import HERMITE_WEIGHTS, IntegrationError, Trajectory, dp45, hermite
from .params import SystemParams
from .schedule import ControlSchedule, propagate

DEN_TOL = 1e-10  # |d2H/dtheta2| below which the theta drift is degenerate
PROJECT_TOL = 1e-11  # stationarity residual the re-projection leaves alone
MAX_BRANCH_JUMP = 0.3  # total re-projection move taken as an argmax branch jump
SEED_SCAN = 4096  # sign-change scan intervals of seed() on [0, 2 pi)
SWEEP_BLOCK = 128  # seeds per block, one dp45 group; fixes the adaptive grids
NODE_CHUNK = 32  # steps by which the node buffer of a sweep block grows
# node rows of a step's (y0, f0, y1, f1) per component, theta's y1 before the
# re-projection, in the layout of a sweep that keeps all five components
_NODE_ROWS = np.array([[0, 5, 0, 11], [1, 6, 1, 12], [2, 7, 2, 13], [3, 8, 3, 14], [4, 9, 10, 15]])
_NODE_STEP = np.array([0, 1, 1, 1])  # their node offsets from the step's start
# |u| of the aligning spike of replay_extremal, in units of omega / (2 kappa):
# the spike lasts pi / (SPIKE_STRENGTH omega), so omega times its duration
# must be far below the comparison tolerance
SPIKE_STRENGTH = 1e6


def extremal_flow(z, R, p, q, th, g):
    """The extremal vector field in rescaled time, component by component.

    Returns (z', R', p', q', num, den): the meridian velocity, the costate
    drift (p', q') = (-dH/dz, -dH/dR) and the theta drift theta' =
    num / den, whose denominator is d^2H/dtheta^2.  Broadcasts; den is
    not guarded.
    """
    st, ct, c2 = np.sin(th), np.cos(th), np.cos(2.0 * th)
    zp, rp = _meridian_rhs(z, R, st, ct, c2, g)
    pp = 0.5 * g * p - q * ct
    qp = p * ct + 0.25 * g * q * (3.0 - c2)
    num = 0.125 * g * ((p * R + q * z) * (5.0 * st + np.sin(3.0 * th)) - 8.0 * p - 4.0 * g * q * ct ** 3)
    return zp, rp, pp, qp, num, _d2H(z, R, p, q, st, ct, c2, g)


def _dH_dtheta(z, R, p, q, th, g):
    return (p * R - q * z) * np.sin(th) + g * q * (np.cos(th) - 0.5 * R * np.sin(2.0 * th))


def _d2H_dtheta2(z, R, p, q, th, g):
    return _d2H(z, R, p, q, np.sin(th), np.cos(th), np.cos(2.0 * th), g)


def _d2H(z, R, p, q, st, ct, c2, g):
    """:func:`_d2H_dtheta2` from st = sin(th), ct = cos(th) and c2 = cos(2 th)."""
    return (p * R - q * z) * ct - g * q * (st + R * c2)


def _extremal_rhs(y, g):
    """Stacked (z', R', p', q', theta') of a (5, ...) state; theta' is 0
    where the denominator degenerates."""
    zp, rp, pp, qp, num, den = extremal_flow(*y, g)
    safe = np.abs(den) >= DEN_TOL
    return np.array([zp, rp, pp, qp, np.where(safe, num / np.where(safe, den, 1.0), 0.0)])


def _unpack(state):
    state = np.asarray(state, dtype=float)
    if state.shape[-1] != 5:
        raise ValueError(f"extremal state needs a trailing axis of length 5, got {state.shape}")
    return np.moveaxis(state, -1, 0)


def hamiltonian(state, params: SystemParams):
    """Control Hamiltonian H = p z' + q R' at the state's control angle."""
    y = _unpack(state)
    zp, rp = extremal_flow(*y, params.ratio)[:2]
    return y[2] * zp + y[3] * rp


def hamiltonian_dtheta(state, params: SystemParams):
    """dH/dtheta; zero along extremals (stationarity residual)."""
    return _dH_dtheta(*_unpack(state), params.ratio)


def hamiltonian_dtheta2(state, params: SystemParams):
    """d^2H/dtheta^2; also the denominator of the theta drift."""
    return _d2H_dtheta2(*_unpack(state), params.ratio)


def theta_rhs(state, params: SystemParams):
    """Drift of the maximizing control angle in rescaled time.

    Raises :class:`SingularityError` when the strict-convexity
    denominator degenerates (argmax branch jump).
    """
    num, den = extremal_flow(*_unpack(state), params.ratio)[4:]
    if np.any(np.abs(den) < DEN_TOL):
        raise SingularityError("theta dynamics degenerate: |d2H/dtheta2| below tolerance")
    return num / den


def convexity_margin(R, theta, params: SystemParams):
    """Curvature signature g R (R sin^3(theta) - 1) of the velocity curve.

    Strictly negative for 0 < R < 1, which makes the Hamiltonian
    maximizer unique and smooth there; it vanishes at R = 0 and at the
    boundary point R = 1, sin(theta) = 1.  Independent of z.
    """
    R = np.asarray(R, dtype=float)
    return params.ratio * R * (R * np.sin(theta) ** 3 - 1.0)


# --- seeding --------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalSeed:
    """Initial data of one extremal from the attracting circle (z, R) = (0, 1).

    psi0 parametrizes the costate, (p, q)(0) = (cos psi0, sin psi0);
    theta0 is the stationary angle selected on the requested branch.
    """

    psi0: float
    theta0: float

    @property
    def state0(self) -> np.ndarray:
        return np.array([0.0, 1.0, np.cos(self.psi0), np.sin(self.psi0), self.theta0])


def _seed_residual(st, ct, cpsi, gspsi):
    # dH/dtheta at (z, R) = (0, 1) from sin/cos of theta and the costate terms
    return cpsi * st - gspsi * ct * (st - 1.0)


def _seed_residual_prime(st, ct, cpsi, gspsi):
    return cpsi * ct + gspsi * (st * (st - 1.0) - ct * ct)


def _hamiltonian_at_start(st, ct, cpsi, spsi, g):
    # H at (z, R) = (0, 1): -cos(psi0) cos(th) - (g/2) sin(psi0) (sin(th)-1)^2
    return -cpsi * ct - 0.5 * g * spsi * (st - 1.0) ** 2


SEED_BLOCK = 32  # psi0 per step of the sign-change scan: bounds its (block, SEED_SCAN) buffers


def seed_batch(psi0s, params: SystemParams, branch: str = "max") -> list[ExtremalSeed]:
    """Solve the stationarity equation at the start point for every psi0.

    All roots of dH/dtheta = 0 on [0, 2 pi) are located by a sign-change
    scan plus 60 bisection steps, Newton-polished to ~1e-15; the returned
    root maximizes (or minimizes) H over the root set.  A dense argmax
    and argmin of H are always added as candidates so tangential roots
    cannot be missed.  Every step is elementwise over all brackets of all
    psi0 at once, so each seed is the same whatever batch it comes in.
    """
    if branch not in ("max", "min"):
        raise ValueError(f"branch must be 'max' or 'min', got {branch!r}")
    psi0s = np.asarray(psi0s, dtype=float).reshape(-1)
    theta0 = _seed_angles(psi0s, params.ratio, branch) if len(psi0s) else []
    return [ExtremalSeed(float(p), float(t)) for p, t in zip(psi0s, theta0)]


def _seed_angles(psi0, g, branch):
    grid = np.linspace(0.0, 2.0 * np.pi, SEED_SCAN + 1)
    cpsi, spsi = np.cos(psi0)[:, None], np.sin(psi0)[:, None]
    gspsi, hspsi = g * spsi, 0.5 * g * spsi
    st, ct = np.sin(grid), np.cos(grid)
    st1, sq = st - 1.0, (st[:-1] - 1.0) ** 2
    # the scan, SEED_BLOCK psi0 at a time in two buffers, with the float
    # operations of _seed_residual and _hamiltonian_at_start: one pass of
    # flo * fhi <= 0 finds the brackets (< 0) and the exact zeros (flo == 0)
    buf, parts = np.empty((2, min(SEED_BLOCK, len(psi0)), SEED_SCAN + 1)), []
    for k in range(0, len(psi0), SEED_BLOCK):
        blk = np.s_[k : k + SEED_BLOCK]
        v, t = buf[:, : len(psi0[blk])]
        np.multiply(cpsi[blk], st, out=v)
        np.multiply(gspsi[blk], ct, out=t)
        t *= st1
        v -= t
        flo, prod = v[:, :-1], np.multiply(v[:, :-1], v[:, 1:], out=t[:, :-1])
        own, at = np.nonzero(prod <= 0.0)
        fl, cross = flo[own, at], prod[own, at] < 0.0
        zero = fl == 0.0
        h = np.multiply(-cpsi[blk], ct[:-1], out=flo)  # H on the scan grid
        h -= np.multiply(hspsi[blk], sq, out=prod)
        parts.append((own[cross] + k, at[cross], fl[cross], own[zero] + k, at[zero],
                      np.argmax(h, axis=1), np.argmin(h, axis=1)))
    own, at, fl, zero_own, zero_at, hmax, hmin = map(np.concatenate, zip(*parts))
    # bisection of every sign-change bracket of every psi0
    lo, hi = grid[at], grid[at + 1]
    c, gs = cpsi[own, 0], gspsi[own, 0]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = _seed_residual(np.sin(mid), np.cos(mid), c, gs)
        to_hi = fl * fm <= 0.0
        hi = np.where(to_hi, mid, hi)
        lo = np.where(to_hi, lo, mid)
        fl = np.where(to_hi, fl, fm)
    # exact zeros on the scan and the dense argmax/argmin of H are
    # candidates too (the latter catch non-crossing roots)
    rows = np.arange(len(psi0))
    own = np.concatenate([own, zero_own, rows, rows])
    th = np.concatenate([0.5 * (lo + hi), grid[zero_at], grid[hmax], grid[hmin]])
    # masked Newton polish: a candidate stops where the scalar iteration breaks
    c, gs = cpsi[own, 0], gspsi[own, 0]
    going = np.ones(len(th), dtype=bool)
    for _ in range(8):
        sth, cth = np.sin(th), np.cos(th)
        fp = _seed_residual_prime(sth, cth, c, gs)
        going &= ~(np.abs(fp) < 1e-14)
        step = _seed_residual(sth, cth, c, gs) / np.where(going, fp, 1.0)
        going &= ~(np.abs(step) > 0.2)
        th = np.where(going, th - step, th)
    ok = np.abs(_seed_residual(np.sin(th), np.cos(th), c, gs)) <= 1e-12
    found = np.bincount(own[ok], minlength=len(psi0)) > 0
    if not found.all():
        raise RuntimeError(f"no stationary control angle found for psi0={psi0[np.argmin(found)]}")
    # per psi0: sorted roots, 1e-9 duplicates dropped against the last kept one
    own, th = own[ok], th[ok] % (2.0 * np.pi)
    order = np.lexsort((th, own))
    own, th = own[order], th[order]
    col = np.arange(len(own)) - np.searchsorted(own, own)
    roots = np.full((len(psi0), int(col.max()) + 1), np.nan)
    roots[own, col] = th
    keep = np.zeros(roots.shape, dtype=bool)
    keep[:, 0] = True
    last = roots[:, 0].copy()
    for k in range(1, roots.shape[1]):
        cand = roots[:, k]
        new = np.minimum(np.abs(cand - last), np.abs(cand - last - 2.0 * np.pi)) > 1e-9
        keep[:, k] = new
        last = np.where(new, cand, last)
    h = _hamiltonian_at_start(np.sin(roots), np.cos(roots), cpsi, spsi, g)
    if branch == "max":
        pick = np.argmax(np.where(keep, h, -np.inf), axis=1)
    else:
        pick = np.argmin(np.where(keep, h, np.inf), axis=1)
    return roots[rows, pick]


def seed(psi0: float, params: SystemParams, branch: str = "max") -> ExtremalSeed:
    """The seed of one costate angle; see :func:`seed_batch`."""
    return seed_batch([psi0], params, branch)[0]


def seed_grid(n_seeds: int, params: SystemParams) -> list[ExtremalSeed]:
    """Uniform half-offset grid of n_seeds costate angles on [0, 2 pi).

    The half offset avoids landing exactly on the two measure-zero
    values where the start point is a stationary extremal and the theta
    drift is 0/0.
    """
    psis = 2.0 * np.pi * (np.arange(n_seeds) + 0.5) / n_seeds
    return seed_batch(psis, params)


# --- batched integration --------------------------------------------------


@dataclass
class ExtremalSweep:
    """Step nodes of a family of extremals (covering space) and their reader.

    blocks holds, for each block of consecutive seeds swept as one dp45
    group, per accepted step its start t0, the h that dp45 took and its
    end t1 (the last step ends at T), shape (K,), and the nodes, shape
    (rows, n, K + 1).  With all five components kept there are 16 rows:
    rows 0-4 of node j are the state after the theta re-projection, from
    the start to the end state; for j > 0, rows 5-9 are the derivative at
    the start of the step that ends at node j, row 10 theta before the
    re-projection (which only moves theta) and rows 11-15 the derivative
    there.  A sweep keeps only the rows of its components comps (indices
    into (z, R, p, q, theta)), in that order: 6 for (z, R).  R keeps its
    sign.  Only this class reads the nodes; other code may read a block's
    step ends t1.  A seed that ended early did so at fail_tau (see
    fail_reason); fail_tau is inf for a seed that reached T.  counts is
    the work of the dp45 runs.
    """

    tau: np.ndarray
    seeds: list[ExtremalSeed]
    blocks: list[dict]
    fail_tau: np.ndarray
    fail_reason: list
    counts: dict
    comps: tuple

    @functools.cached_property
    def _kept(self) -> np.ndarray:
        # the row in this sweep's nodes of each row of the 16-row layout, -1 if not kept
        kept = np.full(16, -1)
        rows = _kept_rows(self.comps)
        kept[rows] = np.arange(len(rows))
        return kept

    def _node_rows(self, comps) -> np.ndarray:
        """The node rows of (y0, f0, y1, f1) of each of comps, shape (len(comps), 4)."""
        rows = self._kept[_NODE_ROWS[np.asarray(comps, dtype=int)]]
        if np.any(rows < 0):
            raise ValueError(f"the sweep kept components {self.comps}, not all of {list(comps)}")
        return rows

    @property
    def data(self) -> dict[str, np.ndarray]:
        """Each node array of every block, flattened and concatenated (a copy)."""
        return {k: np.concatenate([b[k].ravel() for b in self.blocks]) for k in self.blocks[0]}

    @property
    def starts(self) -> np.ndarray:
        """The first seed of each block, then the number of seeds."""
        return np.cumsum([0] + [b["nodes"].shape[1] for b in self.blocks])

    def start(self, comps) -> np.ndarray:
        """Sample 0, the start state, of every seed, shape (len(comps), n)."""
        y0 = self._node_rows(comps)[:, 0]
        return np.concatenate([b["nodes"][y0, :, 0] for b in self.blocks], axis=1)

    def samples(self, comps, rows, cols: slice) -> np.ndarray:
        """Samples of the increasing seed indices rows at the sample columns
        cols, shape (len(comps), len(rows), n); comps index (z, R, p, q, theta)
        and must be among the components the sweep kept (ValueError).

        Sample 0 is the start state.  Sample j > 0 is the cubic Hermite
        dense output of the first step of the seed's block whose end is
        >= tau[j], computed on float64 arrays in ode.hermite's operation
        order, so every row set and column range reads the same bits.  From
        a seed's failure on (tau[j] > fail_tau), its samples are NaN.
        """
        at_rows, rows = self._node_rows(comps), np.asarray(rows, dtype=int)
        if np.any(np.diff(rows) <= 0):
            raise ValueError("sample rows must be increasing")
        j = np.arange(len(self.tau))[cols]
        out = np.empty((len(at_rows), len(rows), len(j)))
        starts = self.starts
        bounds = np.searchsorted(rows, starts)  # block b holds rows[bounds[b]:bounds[b + 1]]
        for blk, start, lo, hi in zip(self.blocks, starts, bounds, bounds[1:]):
            local = rows[lo:hi] - start
            if lo < hi and len(j) and len(blk["t1"]):  # a block frozen at tau = 0 took no step
                k = np.minimum(np.searchsorted(blk["t1"], self.tau[j]), len(blk["t1"]) - 1)
                h = blk["h"][k]
                node = blk["nodes"][:, :, k[0] : k[-1] + 2]  # the steps the columns fall in
                at = zip(at_rows.T, _NODE_STEP)  # y0, f0, y1 and f1
                ends = (node[r][:, local][..., k - k[0] + d] for r, d in at)
                out[:, lo:hi] = hermite((self.tau[j] - blk["t0"][k]) / h, h, *ends)
        if len(j) and j[0] == 0:
            out[:, :, 0] = self.start(comps)[:, rows]
        np.copyto(out, np.nan, where=self.tau[j] > self.fail_tau[rows, None])
        return out

    def bezier(self, b, rows, u) -> np.ndarray:
        """Bezier points, shape (interval, 4, 2, len(rows)), of z and R of rows
        of block b (from its first seed) between successive times u, no step
        end inside: samples' Hermite piece there lies in the hull of its ends,
        and of each plus or minus a third of the interval times the slope."""
        blk = self.blocks[b]
        k = np.minimum(np.searchsorted(blk["t1"], u[1:]), len(blk["t1"]) - 1)
        t0, h = blk["t0"][k], blk["h"][k]
        s0, s1 = (u[:-1] - t0) / h, (u[1:] - t0) / h
        # powers of s at the Bezier points, plus a third of the interval times their slope
        s, sd = np.stack((s0, s0, s1, s1), axis=-1), (s1 - s0)[:, None] * [0, 1, -1, 0] / 3.0
        V = np.stack((np.ones_like(s), s + sd, s * (s + 2 * sd), s * s * (s + 3 * sd)), axis=-1)
        W = (V.reshape(-1, 4) @ HERMITE_WEIGHTS).reshape(V.shape)
        W[..., 1::2] *= h[:, None, None]
        at = self._node_rows([0, 1]).T.ravel()  # y0, f0, y1 and f1, each of z and R
        node = blk["nodes"][at[:, None], rows, k[0] : k[-1] + 2]  # (8, row, step)
        c = node[np.arange(8), :, (k - k[0])[:, None] + np.repeat(_NODE_STEP, 2)]  # (interval, 8, row)
        return (W @ c.reshape(len(k), 4, -1)).reshape(len(k), 4, 2, -1)


def merge_sweeps(parts) -> ExtremalSweep:
    """Sweeps on one sample grid that kept the same components as one, their
    seeds in order and their counts summed."""
    if any(p.comps != parts[0].comps for p in parts):
        raise ValueError(f"cannot merge sweeps that kept components {[p.comps for p in parts]}")
    return ExtremalSweep(
        parts[0].tau, [s for p in parts for s in p.seeds], [b for p in parts for b in p.blocks],
        np.concatenate([p.fail_tau for p in parts]), [r for p in parts for r in p.fail_reason],
        {k: sum(p.counts[k] for p in parts) for k in parts[0].counts}, parts[0].comps,
    )


def _kept_rows(comps) -> np.ndarray:
    """The rows of the 16-row node layout that a sweep keeping comps stores, in order."""
    return np.unique(_NODE_ROWS[list(comps)])


def sample_times(T: float, sample_dt) -> np.ndarray:
    """The sample grid of a sweep to T, spaced about sample_dt (T / 2048 if None)."""
    dt = T / 2048.0 if sample_dt is None else sample_dt
    for name, v in (("T", T), ("sample_dt", dt)):
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {name}={v}")
    return np.linspace(0.0, T, max(2, int(np.ceil(T / dt)) + 1))


def _as_seeds(seeds, params):
    """A list of ExtremalSeed objects kept, or one of bare psi0 angles
    seeded in one batch."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    return seeds if isinstance(seeds[0], ExtremalSeed) else seed_batch(seeds, params)


def sweep_extremals(
    seeds,
    T: float,
    params: SystemParams,
    *,
    comps,
    tol: float = 1e-10,
    sample_dt: float | None = None,
) -> ExtremalSweep:
    """Integrate a family of extremals, each block of seeds on its own adaptive grid.

    seeds are ExtremalSeed objects or all bare psi0 angles.  Each run of
    SWEEP_BLOCK consecutive seeds is a block, one group of a single
    :func:`ode.dp45` run at tolerance tol that steps them in lockstep.
    The result keeps their step nodes, only the rows of the components
    comps (indices into (z, R, p, q, theta)) whose dense output the caller
    reads: the state and both end slopes of each, and for theta its end
    before the re-projection.  ExtremalSweep.samples reads them on the
    grid :func:`sample_times` (T, sample_dt).  After every accepted
    step the control angle of each seed is re-projected onto the
    stationarity manifold dH/dtheta = 0 (Newton), which pins the
    stationarity residual near roundoff instead of letting it drift with
    the integration error.
    """
    tau = sample_times(T, sample_dt)
    comps = tuple(np.unique(np.asarray(comps, dtype=int)).tolist())
    if not comps or not set(comps) <= set(range(5)):
        raise ValueError(f"comps must name components 0 to 4, got {comps}")
    keep = _kept_rows(comps)
    seeds = _as_seeds(seeds, params)
    n = len(seeds)

    g = params.ratio
    y = np.stack([s.state0 for s in seeds], axis=1)  # (5, n)
    edges = np.append(np.arange(0, n, SWEEP_BLOCK), n)
    size = np.diff(edges)
    active = np.ones(n, dtype=bool)
    fail_tau = np.full(n, np.inf)
    # per block (seed c is in block c // SWEEP_BLOCK): the end of its last accepted step
    t_end = np.zeros(len(size))
    fail_reason: list = [None] * n
    times = [[] for _ in size]  # per block: (t0, h, t1) of each accepted step
    bufs = [np.zeros((NODE_CHUNK, len(keep), nb)) for nb in size]  # per block: its nodes, node-major

    def fail(cols, t, reason):
        # the active seeds cols fail at times t
        if len(cols):
            active[cols] = False
            fail_tau[cols] = t
            for c in cols:
                fail_reason[c] = reason

    def accept(groups, cols, steps, y0, f0, y1, f1):
        t_end[groups] = [s[2] for s in steps]
        th1 = y1[4].copy()
        # keep theta bounded and re-project it onto dH/dtheta = 0
        y1[4] = np.mod(y1[4] + np.pi, 2.0 * np.pi) - np.pi
        den = _d2H_dtheta2(*y1, g)
        out = cols[active[cols] & (np.abs(den) < DEN_TOL)]
        fail(out, t_end[out // SWEEP_BLOCK], "denominator degeneracy")
        moved = np.zeros(len(cols))
        for _ in range(2):
            res = _dH_dtheta(*y1, g)
            need = active[cols] & (np.abs(res) > PROJECT_TOL) & (np.abs(den) > DEN_TOL)
            if not np.any(need):
                break
            step = np.zeros(len(cols))
            step[need] = np.clip(res[need] / den[need], -0.5, 0.5)
            y1[4] -= step
            moved += np.abs(step)
            den = _d2H_dtheta2(*y1, g)
        out = cols[active[cols] & (moved > MAX_BRANCH_JUMP)]
        fail(out, t_end[out // SWEEP_BLOCK], "argmax branch jump")
        rows = np.concatenate([y1, f0, th1[None], f1])[keep]
        for i, (b, step) in enumerate(zip(groups, steps)):  # only the last block may be short
            times[b].append(step)
            if len(times[b]) == len(bufs[b]):
                bufs[b] = np.concatenate([bufs[b], np.empty((NODE_CHUNK, len(keep), size[b]))])
            bufs[b][len(times[b])] = rows[:, i * SWEEP_BLOCK : (i + 1) * SWEEP_BLOCK]
        return _extremal_rhs(y1, g)

    # seeds starting exactly on a degenerate angle are stationary; keep
    # their single valid sample and freeze them
    stationary = np.flatnonzero(np.abs(_d2H_dtheta2(*y, g)) < DEN_TOL)
    fail(stationary, 0.0, "degenerate start (stationary extremal)")
    counts = dp45(lambda t, yy: _extremal_rhs(yy, g), y, T, tol, edges, active, accept, fail)
    blocks = []
    for b, lo in enumerate(edges[:-1]):
        bufs[b][0, : len(comps)] = y[list(comps), lo : lo + size[b]]  # the kept rows start with the states
        t0, h, t1 = np.reshape(times[b], (-1, 3)).T
        nodes = np.moveaxis(bufs[b][: len(t0) + 1], 0, -1).copy()  # trimmed, and the buffer goes
        blocks.append(dict(t0=t0, h=h, t1=t1, nodes=nodes))
        bufs[b] = None
    return ExtremalSweep(tau, seeds, blocks, fail_tau, fail_reason, counts, comps)


def sweep_extremals_parallel(
    seeds,
    T: float,
    params: SystemParams,
    *,
    n_threads: int = 1,
    **options,
) -> ExtremalSweep:
    """:func:`sweep_extremals` on at most n_threads threads, each on a
    contiguous chunk of whole SWEEP_BLOCK blocks, merged in order.  A
    block's steps do not depend on its chunk, so the result is the same
    for any n_threads.  options (comps, tol, sample_dt) go to sweep_extremals."""
    seeds = _as_seeds(seeds, params)
    n_blocks = -(-len(seeds) // SWEEP_BLOCK)
    k = min(max(1, n_threads), n_blocks)
    sweep = functools.partial(sweep_extremals, T=T, params=params, **options)
    if k == 1:  # on this thread, whose memory the caller then reuses
        return sweep(seeds)
    from concurrent.futures import ThreadPoolExecutor
    cuts = [SWEEP_BLOCK * (n_blocks * i // k) for i in range(k + 1)]
    with ThreadPoolExecutor(max_workers=k) as pool:
        return merge_sweeps(list(pool.map(sweep, [seeds[a:b] for a, b in zip(cuts, cuts[1:])])))


def normalize_states(states: np.ndarray) -> np.ndarray:
    """Fold covering-space samples to R >= 0 via (R,q,theta) -> (-R,-q,theta+pi)."""
    states = np.array(states, dtype=float)
    flip = states[..., 1] < 0.0
    states[..., 1] = np.where(flip, -states[..., 1], states[..., 1])
    states[..., 3] = np.where(flip, -states[..., 3], states[..., 3])
    states[..., 4] = np.where(flip, states[..., 4] + np.pi, states[..., 4])
    states[..., 4] = np.mod(states[..., 4] + np.pi, 2.0 * np.pi) - np.pi
    return states


def integrate_extremal(
    seedv: ExtremalSeed,
    T_scaled: float,
    params: SystemParams,
    sample_dt: float | None = None,
) -> Trajectory:
    """Integrate one extremal and return a Trajectory of (z,R,p,q,theta).

    Stored samples are folded to R >= 0.  Failures of the theta dynamics
    (degenerate denominator, branch jump) raise IntegrationError with the
    failure time.
    """
    sweep = sweep_extremals([seedv], T_scaled, params, comps=range(5), sample_dt=sample_dt)
    if sweep.fail_tau[0] < T_scaled:
        raise IntegrationError(
            f"extremal failed at tau={sweep.fail_tau[0]}: {sweep.fail_reason[0]}"
        )
    states = normalize_states(sweep.samples(range(5), [0], slice(None))[:, 0].T.copy())
    return Trajectory(sweep.tau, states)


# --- control recovery and replay ------------------------------------------


def recover_control(traj: Trajectory, params: SystemParams) -> ControlSchedule:
    """Reconstruct the physical coherent control u(t) along an extremal.

    Balancing the theta equation of the cylindrical system against the
    extremal's theta drift gives, back in physical time,

        2 kappa u = omega [ theta'_tau - g0_theta ],

    with g0_theta = -(z/R) sin th - (g/4) sin 2th + g cos th / R the theta
    component of the cylindrical drift; the whole expression is invariant
    under the R >= 0 fold.  Returns a piecewise-constant schedule with n = 0
    and midpoint-averaged values, times unscaled.
    """
    states = np.asarray(traj.ys, dtype=float)
    z, R, th = states[:, 0], states[:, 1], states[:, 4]
    if np.min(R) <= R_MIN:
        raise SingularityError(f"control recovery needs R > {R_MIN} along the path")
    lead = theta_rhs(states, params)
    u_tau = params.omega * _theta_balance(lead, z, R, th, params.ratio) / (2.0 * params.kappa)
    times = traj.ts / params.omega
    u_pc = 0.5 * (u_tau[:-1] + u_tau[1:])
    return ControlSchedule(times[:-1], u_pc, np.zeros(len(u_pc)), T=float(times[-1]))


def replay_extremal(traj: Trajectory, params: SystemParams):
    """Drive the Bloch equation with the recovered control of an extremal.

    The piecewise-constant control is replayed with the exact affine
    propagators of :func:`schedule.propagate`, so the remaining error is
    that of the piecewise-constant control itself, not of an integrator.
    The replay starts at the north pole (0,0,1): a short aligning spike of
    strength SPIKE_STRENGTH first rotates the meridian angle from pi/2 to
    the extremal's theta0.

    Returns (r_states, schedule): Bloch states at the extremal's sample
    times, shape (m, 3).
    """
    u_max = SPIKE_STRENGTH * params.omega / (2.0 * params.kappa)
    sched = recover_control(traj, params)
    dth = (float(traj.ys[0, 4]) - 0.5 * np.pi + np.pi) % (2.0 * np.pi) - np.pi
    eps = np.pi / (2.0 * params.kappa * u_max)
    u_align = dth / (2.0 * params.kappa * eps)
    edges = np.concatenate([[0.0], eps + np.concatenate([sched.times, [sched.T]])])
    u_segments = np.concatenate([[u_align], sched.u])
    states = propagate([0.0, 0.0, 1.0], edges, u_segments, np.zeros(len(u_segments)), params)
    return states[1:], sched
