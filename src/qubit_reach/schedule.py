"""Piecewise-constant control schedules and closed-loop simulation.

Controls are ingested as sample-and-hold schedules: the pair (u_i, n_i)
applies on [t_i, t_{i+1}) and the last pair holds until the final time T.
CSV format: header ``t,u,n``, one row per breakpoint, times ascending from
zero.  With ``scaled=True`` the file's times are in units of 1/omega.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .liealg import canonical_fields
from .ode import expm
from .params import SystemParams

_BLOCK = 256  # segments per expm batch
_E_Z = np.array([0.0, 0.0, 1.0])


@dataclass
class ControlSchedule:
    """Piecewise-constant (u, n) on a strictly increasing time grid; T
    defaults to the last breakpoint."""

    times: np.ndarray
    u: np.ndarray
    n: np.ndarray
    T: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.n = np.asarray(self.n, dtype=float)
        if self.times.ndim != 1 or len(self.times) == 0:
            raise ValueError("schedule needs at least one breakpoint")
        if len(self.u) != len(self.times) or len(self.n) != len(self.times):
            raise ValueError("times, u and n must have equal length")
        if self.T is None:
            self.T = float(self.times[-1])
        if not all(np.all(np.isfinite(a)) for a in (self.times, self.u, self.n, self.T)):
            raise ValueError("schedule times, u, n and T must be finite")
        if self.times[0] != 0.0:
            raise ValueError("schedule must start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("schedule times must be strictly increasing")
        if np.any(self.n < 0):
            raise ValueError("incoherent control must be non-negative")
        if self.T <= 0:
            raise ValueError("final time must be positive")

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
        """Read a t,u,n schedule; header row is required, and every other
        non-blank row holds exactly three numbers.

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
                where = f"{path}:{reader.line_num}"
                if len(row) != 3:
                    raise ValueError(f"{where}: expected 3 fields t,u,n, got {len(row)}")
                try:
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
        if not rows:
            raise ValueError(f"{path}: schedule has no rows")
        data = np.array(rows, dtype=float)
        times = data[:, 0]
        if scaled:
            if params is None:
                raise ValueError("scaled times require system parameters")
            times = times / params.omega
        sched = cls(times, data[:, 1], data[:, 2], T=duration)
        cap = u_max if u_max is not None else (params.u_max_default if params else None)
        if cap is not None and not cap > 0:
            raise ValueError(f"u_max must be positive, got {cap}")
        return sched.clipped(cap) if cap is not None and np.isfinite(cap) else sched


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
        # prefix products by doubling: prop[k] becomes the map from edges[lo] to edges[lo + k + 1]
        step = 1
        while step < len(prop):
            prop[step:] = prop[step:] @ prop[:-step]
            step *= 2
        d[lo + 1 : lo + 1 + len(prop)] = prop[:, :3, :3] @ d[lo] + prop[:, :3, 3]
    states = d + _E_Z
    states[0] = r0
    return states


@dataclass(frozen=True)
class Simulation:
    """The run of a schedule from r0; :meth:`sample` reads it out exactly."""

    r0: np.ndarray
    schedule: ControlSchedule
    params: SystemParams

    def sample(self, t) -> np.ndarray:
        """Bloch states at times t in [0, T], shape t.shape + (3,): one
        :func:`propagate` across t merged with the breakpoints."""
        t, sched = np.asarray(t, dtype=float), self.schedule
        if not np.all((t >= 0.0) & (t <= sched.T)):
            raise ValueError(f"sample times must lie in [0, {sched.T}]")
        edges = np.union1d(t, sched.times[sched.times < sched.T])
        seg = np.searchsorted(sched.times, edges[:-1], side="right") - 1
        states = propagate(self.r0, edges, sched.u[seg], sched.n[seg], self.params)
        return states[np.searchsorted(edges, t)]


def simulate(r0, schedule: ControlSchedule, params: SystemParams) -> Simulation:
    """The run of ``schedule`` from r0, read out by its ``sample(t)``."""
    return Simulation(r0, schedule, params)
