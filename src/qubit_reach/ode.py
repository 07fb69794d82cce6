"""Initial-value-problem integration.

One adaptive loop, :func:`dp45`, steps the embedded Dormand-Prince 5(4)
pair on the columns of a (d, n) state: every column has its own error
norm, the step follows the worst live column, and two hooks decide what
an accepted step stores and what becomes of a column that fails.
:func:`integrate` runs it on a single column and keeps every node; the
extremal sweep runs it on a block of seeds.  Dense output between
accepted nodes is cubic Hermite, which is what the reachable-set
rasterisation samples.  :func:`rk4` is the classical fixed-step scheme,
kept as a reference.  Affine flows with constant coefficients need no
stepping: :func:`expm` propagates them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class IntegrationError(RuntimeError):
    """Integration failed; the message carries the time of failure."""


# Dormand-Prince 5(4) tableau.
DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
DP_ERR = DP_B5 - DP_B4
MAX_STEPS = 10_000_000  # accepted steps of one dp45 run


@dataclass
class Trajectory:
    """Sampled solution with cubic Hermite dense output.

    ts  strictly increasing times starting at 0, shape (m,)
    ys  states, shape (m,) + state_shape
    fs  state derivatives at the nodes, same shape as ys
    """

    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray

    def __post_init__(self):
        if self.ts[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if np.any(np.diff(self.ts) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def final_state(self) -> np.ndarray:
        return self.ys[-1]

    def sample(self, t) -> np.ndarray:
        """Cubic Hermite interpolation at times t (scalar or array)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t < self.ts[0] - 1e-12) or np.any(t > self.ts[-1] + 1e-12):
            raise ValueError("sample time outside the integrated interval")
        idx = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 2)
        t0 = self.ts[idx]
        h = self.ts[idx + 1] - t0
        s = (t - t0) / h
        extra = (1,) * (self.ys.ndim - 1)
        s = s.reshape(s.shape + extra)
        h = h.reshape(h.shape + extra)
        return hermite(s, h, self.ys[idx], self.fs[idx], self.ys[idx + 1], self.fs[idx + 1])


def hermite(s, h, y0, f0, y1, f1):
    """Cubic Hermite interpolant at fraction s of a step of length h."""
    s2, s3 = s * s, s ** 3
    return (
        (2 * s3 - 3 * s2 + 1) * y0
        + (s3 - 2 * s2 + s) * h * f0
        + (-2 * s3 + 3 * s2) * y1
        + (s3 - s2) * h * f1
    )


# Pade-13 coefficients and the 1-norm up to which that approximant needs no
# scaling (Higham 2005, "The scaling and squaring method for the matrix
# exponential revisited").
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponentials of a stack of square matrices, shape (m, k, k).

    Pade-13 scaling and squaring: each matrix is halved s times, with its
    own s, until its 1-norm is at most theta_13, and the approximant is
    squared back s times.  Powers of two scale exactly, so a zero column
    of the input comes out as the exact unit column, which keeps the
    fixed points of affine flows exact.  A zero row of the input is set
    to the exact unit row before squaring, so the LU roundoff in it is
    not doubled by each squaring: affine flows stay exact over long holds.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of a non-finite matrix")
    zero_rows = np.all(a == 0.0, axis=-1)
    s = np.maximum(np.frexp(np.max(np.sum(np.abs(a), axis=-2), axis=-1) / _THETA13)[1], 0)
    a, b, eye = np.ldexp(a, -s[:, None, None]), _PADE13, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    r = np.where(zero_rows[..., None], eye, r)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
    return r


def dp45_step(rhs: Callable, t: float, y: np.ndarray, h: float, f0: np.ndarray):
    """One Dormand-Prince step; returns (y_new, f_new, error_estimate)."""
    ks = [f0]
    for i in range(1, 7):
        acc = DP_A[i][0] * ks[0]
        for j in range(1, i):
            acc = acc + DP_A[i][j] * ks[j]
        ks.append(rhs(t + DP_C[i] * h, y + h * acc))
    y_new = y + h * sum(DP_B5[i] * ks[i] for i in range(6))
    err = h * sum(DP_ERR[i] * ks[i] for i in range(7))
    return y_new, ks[6], err


def dp45(
    rhs: Callable, y: np.ndarray, T: float, tol: float, live: np.ndarray,
    accept: Callable, drop: Callable,
) -> None:
    """Adaptive Dormand-Prince 5(4) on the columns of a (d, n) state, t = 0 to T.

    A step is accepted when, in every column of the boolean mask ``live``,
    the RMS of the error estimate over tol + tol * max(|y0|, |y1|) is at
    most 1; the step follows the worst live column.  A run that needs more
    than MAX_STEPS accepted steps raises :class:`IntegrationError`, and a
    tol that is not finite and positive raises ValueError.  A live column
    whose step is not finite, or the worst one after 60 rejections in a
    row, goes to ``drop(cols, t, reason)`` as a column mask; drop takes it
    out of ``live`` (or raises), and the step is retried from rhs(t, y).
    Every accepted step calls ``accept(t0, h, y0, f0, t1, y1, f1)``, which
    may edit y1 in place and returns the derivative to continue from.  The
    loop ends at T or when no column is live; the first trial step is
    min(1e-3, T).
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    t = 0.0
    f = rhs(t, y)
    h = min(1e-3, T)
    accepted = rejects = 0
    while t < T and live.any():
        h = min(h, T - t)
        if accepted >= MAX_STEPS:
            raise IntegrationError(f"step budget exceeded at t={t}")
        y_new, f_new, err = dp45_step(rhs, t, y, h, f)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err_col = np.sqrt(np.mean((err / scale) ** 2, axis=0))
        bad = live & ~np.isfinite(err_col)
        if bad.any():
            drop(bad, t, "non-finite step")
            f, rejects = rhs(t, y), 0
            continue
        norm = float(np.max(err_col[live]))
        if norm <= 1.0:
            t_new = T if (T - t - h) < 1e-15 * T else t + h
            f = accept(t, h, y, f, t_new, y_new, f_new)
            t, y = t_new, y_new
            accepted += 1
            rejects = 0
            h *= max(0.2, 5.0 if norm == 0 else min(5.0, 0.9 * norm ** -0.2))
        elif rejects == 60:
            worst = np.argmax(np.where(live, err_col, -np.inf))
            drop(np.arange(len(live)) == worst, t, "step collapse")
            f, rejects = rhs(t, y), 0
        else:
            rejects += 1
            h *= max(0.2, 0.9 * norm ** -0.2)


def integrate(rhs: Callable, y0, T: float, tol: float = 1e-10) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) from t = 0 to t = T, keeping every node.

    y0 may have any shape; it is the one column of :func:`dp45`, run at
    tolerance tol.  Raises
    :class:`IntegrationError` with the failure time in the message when
    the step budget is exhausted, a step is not finite, the step size
    collapses or the right-hand side raises.
    """
    if T <= 0:
        raise ValueError(f"duration must be positive, got T={T}")
    y0 = np.asarray(y0, dtype=float)
    nodes = []

    def column_rhs(t, y):
        try:
            return np.asarray(rhs(t, y.reshape(y0.shape)), dtype=float).reshape(-1, 1)
        except Exception as exc:
            raise IntegrationError(f"right-hand side failed at t={t}: {exc}") from exc

    def accept(t0, h, ya, fa, t1, yb, fb):
        if not nodes:
            nodes.append((t0, ya, fa))
        nodes.append((t1, yb, fb))
        return fb

    def drop(cols, t, reason):
        raise IntegrationError(f"{reason} at t={t}")

    dp45(column_rhs, y0.reshape(-1, 1), T, tol, np.ones(1, dtype=bool), accept, drop)
    ts, ys, fs = zip(*nodes)
    shape = (len(ts),) + y0.shape
    return Trajectory(np.array(ts), np.reshape(ys, shape), np.reshape(fs, shape))


def rk4(rhs: Callable, y0, T: float, step: float) -> np.ndarray:
    """Final state of classical fixed-step 4th order Runge-Kutta on [0, T],
    in steps of the largest T / k not above ``step``."""
    n_steps = max(1, int(np.ceil(T / step - 1e-12)))
    h = T / n_steps
    y = np.asarray(y0, dtype=float)
    t = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y
