"""Piecewise-constant control schedules and closed-loop simulation.

Controls are ingested as sample-and-hold schedules: the pair (u_i, n_i)
applies on [t_i, t_{i+1}) and the last pair holds until the final time T.
CSV format: header ``t,u,n``, one row per breakpoint, times ascending from
zero.  With ``scaled=True`` the file's times are in units of 1/omega.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .liealg import canonical_fields
from .ode import Trajectory, expm
from .params import SystemParams

MAX_ANGLE = 0.05  # largest turn of the state between two dense-output nodes
MAX_NODES = 1_000_000  # dense-output nodes of one simulate call
_BLOCK = 256  # segments per expm batch
_E_Z = np.array([0.0, 0.0, 1.0])


@dataclass
class ControlSchedule:
    """Piecewise-constant (u, n) on a strictly increasing time grid."""

    times: np.ndarray
    u: np.ndarray
    n: np.ndarray
    T: float = field(default=0.0)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.n = np.asarray(self.n, dtype=float)
        if self.times.ndim != 1 or len(self.times) == 0:
            raise ValueError("schedule needs at least one breakpoint")
        if len(self.u) != len(self.times) or len(self.n) != len(self.times):
            raise ValueError("times, u and n must have equal length")
        if not all(np.all(np.isfinite(a)) for a in (self.times, self.u, self.n, self.T)):
            raise ValueError("schedule times, u, n and T must be finite")
        if self.times[0] != 0.0:
            raise ValueError("schedule must start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("schedule times must be strictly increasing")
        if np.any(self.n < 0):
            raise ValueError("incoherent control must be non-negative")
        if self.T == 0.0:
            self.T = float(self.times[-1])
        if self.T <= 0:
            raise ValueError("final time must be positive")

    def value(self, t: float) -> tuple[float, float]:
        """Sample-and-hold lookup of (u, n) at time t."""
        i = int(np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, len(self.times) - 1))
        return float(self.u[i]), float(self.n[i])

    def clipped(self, u_max: float) -> "ControlSchedule":
        return ControlSchedule(self.times, np.clip(self.u, -u_max, u_max), self.n, self.T)

    @classmethod
    def from_csv(
        cls,
        path,
        params: SystemParams | None = None,
        scaled: bool = False,
        duration: float | None = None,
        u_max: float | None = None,
    ) -> "ControlSchedule":
        """Read a t,u,n schedule; header row is required.

        The ingestion cap on |u| defaults to params.u_max_default when
        params are given; pass u_max=np.inf to disable it.
        """
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:3]] != ["t", "u", "n"]:
                raise ValueError(f"{path}: expected header 't,u,n'")
            for row in reader:
                if not row or not "".join(row).strip():
                    continue
                rows.append([float(v) for v in row[:3]])
        if not rows:
            raise ValueError(f"{path}: schedule has no rows")
        data = np.array(rows, dtype=float)
        times = data[:, 0]
        if scaled:
            if params is None:
                raise ValueError("scaled times require system parameters")
            times = times / params.omega
        sched = cls(times, data[:, 1], data[:, 2], T=duration or 0.0)
        cap = u_max if u_max is not None else (params.u_max_default if params else None)
        if cap is not None and not cap > 0:
            raise ValueError(f"u_max must be positive, got {cap}")
        return sched.clipped(cap) if cap is not None and np.isfinite(cap) else sched

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "u", "n"])
            for t, u, n in zip(self.times, self.u, self.n):
                writer.writerow([repr(float(t)), repr(float(u)), repr(float(n))])


def _affine_parts(u, n, params: SystemParams):
    """Weights w (m, 3), matrices A (3, 3, 3) and shifts c (3, 3) such that
    the Bloch field omega f0 + 2 kappa u f1 + gamma n f2 is
    sum_k w_k (A_k d + c_k) in the deviation d = r - e_z from the north
    pole.  c_k = f_k(e_z); c_0 is exactly zero, as the pole is fixed.
    """
    trio = [canonical_fields(params)[name] for name in ("f0", "f1", "f2")]
    w = np.stack([np.full(len(u), params.omega), 2.0 * params.kappa * u, params.gamma * n], axis=-1)
    return w, np.stack([f.A for f in trio]), np.stack([f(_E_Z) for f in trio])


def propagate(r0, edges, u, n, params: SystemParams) -> np.ndarray:
    """Exact Bloch states at ``edges`` under piecewise-constant controls.

    (u[k], n[k]) holds on [edges[k], edges[k+1]).  On each segment the
    deviation d = r - e_z obeys the affine flow d' = M d + c, which one
    matrix exponential of the augmented generator h [[M, c], [0, 0]]
    propagates exactly (Van Loan 1978).  Segments go through :func:`expm`
    in fixed blocks, so temporaries stay small for any schedule length;
    inside a block the segment maps are chained by a prefix scan.
    Returns an array of shape (len(edges), 3) starting with r0.
    """
    r0 = np.asarray(r0, dtype=float)
    edges, u, n = (np.asarray(a, dtype=float) for a in (edges, u, n))
    if len(edges) != len(u) + 1 or len(n) != len(u):
        raise ValueError("edges must have one more entry than u and n")
    w, A, c = _affine_parts(u, n, params)
    d = np.empty((len(edges), 3))
    d[0] = r0 - _E_Z
    for lo in range(0, len(u), _BLOCK):
        wh = w[lo : lo + _BLOCK] * np.diff(edges[lo : lo + _BLOCK + 1])[:, None]
        gen = np.zeros((len(wh), 4, 4))
        gen[:, :3, :3] = np.tensordot(wh, A, axes=1)
        gen[:, :3, 3] = wh @ c
        prop = expm(gen)
        prop[:, 3] = (0.0, 0.0, 0.0, 1.0)
        # prefix products by doubling: prop[k] becomes the map from edges[lo] to edges[lo + k + 1]
        step = 1
        while step < len(prop):
            prop[step:] = prop[step:] @ prop[:-step]
            step *= 2
        d[lo + 1 : lo + 1 + len(prop)] = prop[:, :3, :3] @ d[lo] + prop[:, :3, 3]
    states = d + _E_Z
    states[0] = r0
    return states


def simulate(r0, schedule: ControlSchedule, params: SystemParams) -> Trajectory:
    """Bloch trajectory under a piecewise-constant schedule, with dense output.

    Nodes sit at every breakpoint, and each segment is split into equal
    steps over which no rate max(omega, 2 kappa |u|, gamma (1 + n)) turns
    the state by more than MAX_ANGLE.  Node states come from
    :func:`propagate` and are exact to roundoff; between nodes the
    trajectory is cubic Hermite, with one-sided derivatives at every node
    so that sampling next to a control switch stays accurate.
    """
    edges = np.append(schedule.times[schedule.times < schedule.T], schedule.T)
    h = np.diff(edges)
    u, n = schedule.u[: len(h)], schedule.n[: len(h)]
    rates = (np.full_like(h, params.omega), 2.0 * params.kappa * np.abs(u), params.gamma * (1.0 + n))
    steps = np.ceil(np.maximum.reduce(rates) * h / MAX_ANGLE)
    if steps.sum() > MAX_NODES:
        raise ValueError(f"schedule needs {steps.sum():.3g} dense-output nodes, more than {MAX_NODES}")
    seg = np.repeat(np.arange(len(h)), steps.astype(int))
    offset = np.arange(len(seg)) - np.searchsorted(seg, seg)
    ts = np.append(edges[seg] + offset * (h / steps)[seg], schedule.T)
    ys = propagate(r0, ts, u[seg], n[seg], params)
    w, A, c = _affine_parts(u[seg], n[seg], params)
    f_start, f_end = (np.einsum("sk,kij,sj->si", w, A, d) + w @ c for d in (ys[:-1] - _E_Z, ys[1:] - _E_Z))
    return Trajectory(ts, ys, np.vstack([f_start, f_end[-1:]]), fs_left=np.vstack([f_start[:1], f_end]))
