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
(its curvature signature g R (R sin^3 th - 1) is negative there), the
maximizer is a smooth implicit function of the state and its drift
follows from d/dtau (dH/dtheta) = 0:

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

The field is evaluated from one sine and one cosine of theta (bloch._trig):
cos 2th = 1 - 2 st^2, 5 sin th + sin 3th = st (8 - 4 st^2) and cos^3 th =
ct ct ct, in extremal_flow and in the stationarity helper (sin 2th = 2 st
ct) alike, so the two agree bit for bit.

The flow is written once, in :func:`extremal_flow`, which takes the five
components as separate arrays or floats.  The sweep passes the rows of its
(5, n) block of seeds, or the five floats of a one-seed sweep; the public
functions that take a state array (trailing axis of length 5, like the
rows of ``Trajectory.ys``) pass its columns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bloch import R_MIN, SingularityError, _meridian_rhs, _theta_balance, _trig
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
    st, ct, c2 = _trig(th)
    zp, rp = _meridian_rhs(z, R, st, ct, c2, g)
    pp = 0.5 * g * p - q * ct
    qp = p * ct + 0.25 * g * q * (3.0 - c2)
    num = 0.125 * g * ((p * R + q * z) * (st * (8.0 - 4.0 * st * st)) - 8.0 * p
                       - 4.0 * g * q * (ct * ct * ct))
    return zp, rp, pp, qp, num, _d2H(z, R, p, q, st, ct, c2, g)


def _stationarity(z, R, p, q, th, g):
    """dH/dtheta and d^2H/dtheta^2, with sin 2th = 2 st ct."""
    st, ct, c2 = _trig(th)
    return (p * R - q * z) * st + g * q * (ct - R * st * ct), _d2H(z, R, p, q, st, ct, c2, g)


def _d2H(z, R, p, q, st, ct, c2, g):
    """d^2H/dtheta^2 from :func:`bloch._trig` (st, ct, c2)."""
    return (p * R - q * z) * ct - g * q * (st + R * c2)


def _extremal_rhs(y, g):
    """Stacked (z', R', p', q', theta') of a (5, ...) state; theta' is 0
    where the denominator degenerates.

    A list of five floats, the state of a one-seed sweep (see ode.dp45),
    gives the list of their floats, with the bits of the array form: + - *
    / of floats are the IEEE operations of numpy's element loops,
    bloch._trig gives the floats of np.sin and np.cos, and the guard
    chooses as np.where does (a NaN den gives 0)."""
    zp, rp, pp, qp, num, den = extremal_flow(*y, g)
    if isinstance(y, list):
        return [zp, rp, pp, qp, num / den if abs(den) >= DEN_TOL else 0.0]
    safe = np.abs(den) >= DEN_TOL
    return np.array([zp, rp, pp, qp, np.where(safe, num / np.where(safe, den, 1.0), 0.0)])


def _reproject(y, live, g):
    """Wrap theta of a (5, n) state in place to [-pi, pi) and take up to two
    Newton steps onto dH/dtheta = 0, each clipped to 0.5, in the live columns
    whose |dH/dtheta| > PROJECT_TOL and |d2H/dtheta2| > DEN_TOL.  Returns the
    (column mask, reason) of failures: a degenerate denominator, or a total
    move over MAX_BRANCH_JUMP.  A list of five floats, the live state of a
    one-seed sweep, goes through on floats (see _extremal_rhs) with the same
    bits: np.mod wraps the float, min(max(.)) clips as np.clip does (NaN
    stays NaN), no step is a step of 0."""
    if isinstance(y, list):
        z, R, p, q, th = y
        th, moved = float(np.mod(th + np.pi, 2.0 * np.pi) - np.pi), 0.0
        res, den = _stationarity(z, R, p, q, th, g)
        degenerate = abs(den) < DEN_TOL
        for _ in range(2):
            if not (abs(res) > PROJECT_TOL and abs(den) > DEN_TOL):
                break
            step = min(max(res / den, -0.5), 0.5)
            th, moved = th - step, moved + abs(step)
            res, den = _stationarity(z, R, p, q, th, g)
        y[4] = th
        marks = (degenerate, "denominator degeneracy"), (moved > MAX_BRANCH_JUMP, "argmax branch jump")
        return [(live, reason) for bad, reason in marks if bad]
    y[4] = np.mod(y[4] + np.pi, 2.0 * np.pi) - np.pi
    res, den = _stationarity(*y, g)
    degenerate, moved = live & (np.abs(den) < DEN_TOL), np.zeros(y.shape[1])
    for _ in range(2):
        need = live & (np.abs(res) > PROJECT_TOL) & (np.abs(den) > DEN_TOL)
        if not np.any(need):
            break
        step = np.zeros(y.shape[1])
        step[need] = np.clip(res[need] / den[need], -0.5, 0.5)
        y[4] -= step
        moved += np.abs(step)
        res, den = _stationarity(*y, g)
    jumped = live & (moved > MAX_BRANCH_JUMP)
    return [(degenerate, "denominator degeneracy"), (jumped, "argmax branch jump")]


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


def theta_rhs(state, params: SystemParams):
    """Drift of the maximizing control angle in rescaled time.

    Raises :class:`SingularityError` when the strict-convexity
    denominator degenerates (argmax branch jump).
    """
    num, den = extremal_flow(*_unpack(state), params.ratio)[4:]
    if np.any(np.abs(den) < DEN_TOL):
        raise SingularityError("theta dynamics degenerate: |d2H/dtheta2| below tolerance")
    return num / den


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


SEED_BLOCK = 32  # psi0 per step of the scan: bounds its (block, SEED_SCAN / SEED_STRIDE) buffers
SEED_STRIDE = 32  # scan intervals per coarse interval of the two-level scan


def seed_batch(psi0s, params: SystemParams, branch: str = "max") -> list[ExtremalSeed]:
    """Solve the stationarity equation at the start point for every psi0.

    All roots of dH/dtheta = 0 on [0, 2 pi) are located by a sign-change
    scan plus 60 bisection steps, Newton-polished to ~1e-15; the returned
    root maximizes (or minimizes) H over the root set.  The argmax and argmin
    of H on the scan grid are always added as candidates so tangential roots
    cannot be missed.  The scan has two levels: f = dH/dtheta and H at every
    SEED_STRIDE-th of its SEED_SCAN + 1 points, then every point of the coarse
    intervals that a chord-plus-curvature bound cannot rule out, with |f''| <=
    |cos psi0| + 3 |g sin psi0| and |H''| <= |cos psi0| + 2 |g sin psi0| (H' =
    f): it finds what a scan of every point finds.  Every step is elementwise
    over all brackets of all psi0 at once, so a seed has the same bits in any batch.
    A psi0 with no candidate whose |dH/dtheta| is at most 1e-12 raises
    ValueError: from gamma/omega of a few million on, the residual's rounding
    alone exceeds that absolute bound for some psi0.
    """
    if branch not in ("max", "min"):
        raise ValueError(f"branch must be 'max' or 'min', got {branch!r}")
    psi0s = np.asarray(psi0s, dtype=float).reshape(-1)
    theta0 = _seed_angles(psi0s, params.ratio, branch) if len(psi0s) else []
    return [ExtremalSeed(float(p), float(t)) for p, t in zip(psi0s, theta0)]


def _chord_bounds(cpsi, gspsi, w):
    """(|f''|, |H''| bounds) (w^2 / 8 + 1e-12): how far f, H stray from a chord of width w."""
    return (np.abs(cpsi) + np.abs(gspsi) * [[3.0, 2.0]]) * (w * w / 8.0 + 1e-12)


def _seed_scan(grid, cpsi, gspsi, hspsi):
    """seed_batch's scan of grid, SEED_BLOCK psi0 at a time, for the rows of the
    columns cos psi0, g sin psi0 and g sin psi0 / 2, with the float operations of
    _seed_residual and _hamiltonian_at_start: the brackets (row, interval, f at
    its start) and exact zeros (row, index) of f, and per row the first argmax and
    argmin of H on grid[:-1].  A coarse interval is read unless its _chord_bounds
    rule out a sign change of f and an H at or past the best coarse one."""
    st, ct = np.sin(grid), np.cos(grid)
    st1, m = st - 1.0, SEED_STRIDE
    sq, starts = st1 ** 2, np.arange(0, len(grid) - 1, m)
    curve, parts = _chord_bounds(cpsi, gspsi, np.max(np.diff(grid[::m]))), []
    for k in range(0, len(cpsi), SEED_BLOCK):
        blk = np.s_[k : k + SEED_BLOCK]
        c, gs, hs, (fb, hb) = cpsi[blk], gspsi[blk], hspsi[blk], curve[blk].T[:, :, None]
        f, h = c * st[::m] - gs * ct[::m] * st1[::m], -c * ct[::m] - hs * sq[::m]
        lo, hi, hl, hr = f[:, :-1], f[:, 1:], h[:, :-1], h[:, 1:]
        read = (np.minimum(np.abs(lo), np.abs(hi)) <= fb) | ((lo > 0.0) != (hi > 0.0))
        read |= np.maximum(hl, hr) + hb >= hl.max(axis=1, keepdims=True)
        read |= np.minimum(hl, hr) - hb <= hl.min(axis=1, keepdims=True)
        own, cell = np.nonzero(read)
        at = starts[cell, None] + np.arange(m + 1)  # the grid points of each read interval
        v = c[own] * st[at] - gs[own] * ct[at] * st1[at]
        prod = v[:, :-1] * v[:, 1:]
        i, j = np.nonzero(prod <= 0.0)  # brackets (< 0) and exact zeros (f == 0 at the start)
        fl, cross, at_ij = v[i, j], prod[i, j] < 0.0, at[i, j]
        zero, rows = fl == 0.0, np.arange(len(own))
        hf, ends = -c[own] * ct[at[:, :-1]] - hs[own] * sq[at[:, :-1]], []
        for pick in (np.argmax, np.argmin):  # per coarse interval; its start where not read
            val, idx, best = hl.copy(), np.broadcast_to(starts, hl.shape).copy(), pick(hf, axis=1)
            val[own, cell], idx[own, cell] = hf[rows, best], at[rows, best]
            ends.append(idx[np.arange(len(idx)), pick(val, axis=1)])
        parts.append((own[i[cross]] + k, at_ij[cross], fl[cross], own[i[zero]] + k, at_ij[zero], *ends))
    return map(np.concatenate, zip(*parts))


def _seed_angles(psi0, g, branch):
    grid = np.linspace(0.0, 2.0 * np.pi, SEED_SCAN + 1)
    cpsi, spsi = np.cos(psi0)[:, None], np.sin(psi0)[:, None]
    gspsi, hspsi = g * spsi, 0.5 * g * spsi
    own, at, fl, zero_own, zero_at, hmax, hmin = _seed_scan(grid, cpsi, gspsi, hspsi)
    # bisection of every sign-change bracket of every psi0
    lo, hi = grid[at], grid[at + 1]
    c, gs = cpsi[own, 0], gspsi[own, 0]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = _seed_residual(np.sin(mid), np.cos(mid), c, gs)
        to_hi = fl * fm <= 0.0
        hi, lo, fl = np.where(to_hi, mid, hi), np.where(to_hi, lo, mid), np.where(to_hi, fl, fm)
    # exact zeros and the scan's argmax/argmin of H (non-crossing roots) are candidates too
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
        raise ValueError(f"no stationary control angle found for psi0={float(psi0[np.argmin(found)])!r} at "
                         f"gamma/omega={g!r}: the seed residual, of order |cos psi0| + "
                         f"gamma/omega |sin psi0|, stays above its bound 1e-12")
    # per psi0: sorted roots, 1e-9 duplicates dropped against the last kept one
    own, th = own[ok], th[ok] % (2.0 * np.pi)
    order = np.lexsort((th, own))
    own, th = own[order], th[order]
    col = np.arange(len(own)) - np.searchsorted(own, own)
    roots = np.full((len(psi0), int(col.max()) + 1), np.nan)
    roots[own, col] = th
    keep, last = np.ones(roots.shape, dtype=bool), roots[:, 0]
    for k in range(1, roots.shape[1]):
        d = roots[:, k] - last
        keep[:, k] = np.minimum(np.abs(d), np.abs(d - 2.0 * np.pi)) > 1e-9
        last = np.where(keep[:, k], roots[:, k], last)
    h = _hamiltonian_at_start(np.sin(roots), np.cos(roots), cpsi, spsi, g)
    h = h if branch == "max" else -h  # the first argmin of H is the first argmax of -H
    return roots[rows, np.argmax(np.where(keep, h, -np.inf), axis=1)]


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


def sample_times(T: float, sample_dt: float) -> np.ndarray:
    """The sample grid linspace(0, T, max(2, ceil(T / sample_dt) + 1)) of a
    sweep to T; a T or sample_dt that is not finite and positive raises ValueError."""
    for name, v in (("T", T), ("sample_dt", sample_dt)):
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {name}={v}")
    return np.linspace(0.0, T, max(2, int(np.ceil(T / sample_dt)) + 1))


def sweep_extremals(
    seeds,
    T: float,
    params: SystemParams,
    *,
    comps,
    tol: float = 1e-10,
    sample_dt: float,
) -> ExtremalSweep:
    """Integrate a family of extremals, each block of seeds on its own adaptive grid.

    seeds is a non-empty list of ExtremalSeed objects.  Each run of
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
    # the kept rows of each of y1, f0, theta's y1 before the re-projection and f1
    pick = [keep[(keep >= a) & (keep < b)] - a for a, b in ((0, 5), (5, 10), (10, 11), (11, 16))]
    if not seeds:
        raise ValueError("need at least one seed")
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

    def accept(groups, cols, steps, f0, y1, f1):
        # (5, len(cols)) arrays, or lists of five floats in a one-seed sweep
        t_end[groups] = [s[2] for s in steps]
        th1 = np.array(y1[4:]) if len(pick[2]) else None
        for bad, reason in _reproject(y1, active[cols], g):
            out = cols[bad]
            fail(out, t_end[out // SWEEP_BLOCK], reason)
        rows = np.concatenate([np.asarray(a)[i] for a, i in zip((y1, f0, th1, f1), pick) if len(i)])
        rows = rows.reshape(len(keep), -1)
        for i, (b, step) in enumerate(zip(groups, steps)):  # only the last block may be short
            times[b].append(step)
            if len(times[b]) == len(bufs[b]):
                bufs[b] = np.concatenate([bufs[b], np.empty((NODE_CHUNK, len(keep), size[b]))])
            bufs[b][len(times[b])] = rows[:, i * SWEEP_BLOCK : (i + 1) * SWEEP_BLOCK]
        return _extremal_rhs(y1, g)

    # seeds starting exactly on a degenerate angle are stationary; keep
    # their single valid sample and freeze them
    stationary = np.flatnonzero(np.abs(_stationarity(*y, g)[1]) < DEN_TOL)
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
    n_blocks = -(-len(seeds) // SWEEP_BLOCK)
    k = min(max(1, n_threads), n_blocks)
    sweep = functools.partial(sweep_extremals, T=T, params=params, **options)
    if k <= 1:  # on this thread, whose memory the caller then reuses (k = 0: no seeds, refused there)
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
    sample_dt: float,
) -> Trajectory:
    """Integrate one extremal and return a Trajectory of (z,R,p,q,theta)
    on the grid :func:`sample_times` (T_scaled, sample_dt).

    Stored samples are folded to R >= 0.  Failures of the theta dynamics
    (degenerate denominator, branch jump) raise IntegrationError with the
    failure time.
    """
    sweep = sweep_extremals([seedv], T_scaled, params, comps=range(5), sample_dt=sample_dt)
    if sweep.fail_tau[0] < T_scaled:
        raise IntegrationError(f"extremal failed at tau={sweep.fail_tau[0]}: {sweep.fail_reason[0]}")
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
