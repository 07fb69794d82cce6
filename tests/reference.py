"""Test-only references that the library does not run.

``integrate`` keeps every node of a single-column ``ode.dp45`` run,
``Dense`` samples such nodes through ``ode.hermite``, and
``velocity_to_matrix`` maps a Bloch velocity to its density-matrix
rate.  Test modules of this directory load it with ``import reference``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qubit_reach.bloch import SIGMA_X, SIGMA_Y, SIGMA_Z
from qubit_reach.extremals import _extremal_rhs
from qubit_reach.ode import IntegrationError, Trajectory, dp45, hermite


@dataclass
class Dense(Trajectory):
    """Trajectory with the state derivatives fs at its nodes (same shape
    as ys) and their cubic Hermite dense output."""

    fs: np.ndarray

    def sample(self, t) -> np.ndarray:
        """Cubic Hermite interpolation at times t (scalar or array)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < self.ts[0] - 1e-12) or np.any(t > self.ts[-1] + 1e-12):
            raise ValueError("sample time outside the integrated interval")
        idx = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 2)
        t0 = self.ts[idx]
        h = self.ts[idx + 1] - t0
        extra = (1,) * (self.ys.ndim - 1)
        s = ((t - t0) / h).reshape(t.shape + extra)
        h = h.reshape(h.shape + extra)
        return hermite(s, h, self.ys[idx], self.fs[idx], self.ys[idx + 1], self.fs[idx + 1])


def integrate(rhs, y0, T: float, tol: float = 1e-10) -> Dense:
    """Integrate dy/dt = rhs(t, y) from t = 0 to t = T, keeping every node.

    y0 may have any shape; it is the one column of ode.dp45, run at
    tolerance tol.  Raises IntegrationError with the failure time in the
    message when the step budget is exhausted, a step is not finite, the
    step size collapses or the right-hand side raises.
    """
    y0 = np.asarray(y0, dtype=float)
    nodes = []

    def column_rhs(t, y):
        try:
            return np.asarray(rhs(t, y.reshape(y0.shape)), dtype=float).reshape(-1, 1)
        except Exception as exc:
            raise IntegrationError(f"right-hand side failed at t={t}: {exc}") from exc

    def accept(groups, cols, steps, ya, fa, yb, fb):
        (t0, _, t1), = steps
        if not nodes:
            nodes.append((t0, ya.copy(), fa.copy()))
        nodes.append((t1, yb.copy(), fb.copy()))
        return fb

    def drop(cols, t, reason):
        raise IntegrationError(f"{reason} at t={t}")

    dp45(column_rhs, y0.reshape(-1, 1), T, tol, [0, 1], np.ones(1, dtype=bool), accept, drop)
    ts, ys, fs = zip(*nodes)
    shape = (len(ts),) + y0.shape
    return Dense(np.array(ts), np.reshape(ys, shape), np.reshape(fs, shape))


def dense_extremal(traj, params) -> Dense:
    """An integrate_extremal trajectory with the extremal field at its
    samples as fs, the dense output the argmax-slope probes read."""
    return Dense(traj.ts, traj.ys, _extremal_rhs(traj.ys.T, params.ratio).T)


def velocity_to_matrix(v) -> np.ndarray:
    """Map a Bloch velocity to the matrix derivative (v . sigma) / 2."""
    vx, vy, vz = np.asarray(v, dtype=float)
    return 0.5 * (vx * SIGMA_X + vy * SIGMA_Y + vz * SIGMA_Z)
