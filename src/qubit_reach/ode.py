"""Initial-value-problem integration.

Two methods: the classical fixed-step 4th order Runge-Kutta scheme and an
embedded adaptive Dormand-Prince 5(4) pair.  Dense output between accepted
nodes is cubic Hermite, which is what the reachable-set rasterisation
samples.  State vectors may carry trailing batch axes; the right-hand side
must map arrays of shape ``y0.shape`` to the same shape.  Affine flows with
constant coefficients need no stepping: :func:`expm` propagates them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class IntegratorConfig:
    """Integration method and accuracy knobs.

    method     "rk45" (adaptive embedded pair) or "rk4" (fixed step)
    step       fixed step size, required for "rk4"
    abs_tol    absolute tolerance of the adaptive pair
    rel_tol    relative tolerance of the adaptive pair
    max_steps  hard cap on accepted steps
    """

    method: str = "rk45"
    step: float | None = None
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_steps: int = 10_000_000
    max_step: float = np.inf

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.method == "rk4" and (self.step is None or self.step <= 0):
            raise ValueError("rk4 requires a positive fixed step")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class Trajectory:
    """Sampled solution with cubic Hermite dense output.

    ts       strictly increasing times starting at 0, shape (m,)
    ys       states, shape (m,) + state_shape
    fs       state derivatives at the nodes, same shape as ys
    fs_left  optional left limits of fs, for fields that jump at nodes;
             the piece on [ts[i], ts[i+1]] then uses fs[i] and fs_left[i+1]
    """

    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray
    dense: bool = True
    meta: dict = field(default_factory=dict)
    fs_left: np.ndarray | None = None

    def __post_init__(self):
        if self.ts[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if np.any(np.diff(self.ts) <= 0):
            raise ValueError("trajectory times must be strictly increasing")

    @property
    def final_time(self) -> float:
        return float(self.ts[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.ys[-1]

    def sample(self, t) -> np.ndarray:
        """Cubic Hermite interpolation at times t (scalar or array)."""
        if not self.dense:
            raise ValueError("trajectory was stored without dense output")
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
        f1 = (self.fs if self.fs_left is None else self.fs_left)[idx + 1]
        return hermite(s, h, self.ys[idx], self.fs[idx], self.ys[idx + 1], f1)


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
    fixed points of affine flows exact.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of a non-finite matrix")
    s = np.maximum(np.frexp(np.max(np.sum(np.abs(a), axis=-2), axis=-1) / _THETA13)[1], 0)
    a, b, eye = np.ldexp(a, -s[:, None, None]), _PADE13, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
    return r


def _error_norm(err, y0, y1, abs_tol, rel_tol) -> float:
    scale = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


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


def integrate(rhs: Callable, y0, T: float, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate dy/dt = rhs(t, y) from t = 0 to t = T.

    Raises :class:`IntegrationError` if the step budget is exhausted or
    the right-hand side signals a singularity; the failure time is part
    of the message.
    """
    if T <= 0:
        raise ValueError(f"duration must be positive, got T={T}")
    cfg = cfg or IntegratorConfig()
    y = np.asarray(y0, dtype=float).copy()

    def wrapped(t, yy):
        return _call_rhs(rhs, t, yy)

    if cfg.method == "rk4":
        return _integrate_rk4(wrapped, y, T, cfg)
    return _integrate_rk45(wrapped, y, T, cfg)


def _call_rhs(rhs, t, y):
    try:
        return np.asarray(rhs(t, y), dtype=float)
    except Exception as exc:
        raise IntegrationError(f"right-hand side failed at t={t}: {exc}") from exc


def _integrate_rk4(rhs, y, T, cfg):
    n_steps = max(1, int(np.ceil(T / cfg.step - 1e-12)))
    h = T / n_steps
    if n_steps > cfg.max_steps:
        raise IntegrationError(f"step budget exceeded at t=0 (needs {n_steps} steps)")
    ts = [0.0]
    ys = [y.copy()]
    fs = [rhs(0.0, y)]
    t = 0.0
    for _ in range(n_steps):
        k1 = fs[-1]
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        ts.append(t)
        ys.append(y.copy())
        fs.append(rhs(t, y))
    ts[-1] = T  # kill accumulated roundoff in the final node
    return Trajectory(np.array(ts), np.array(ys), np.array(fs))


def _initial_step(f0, y, T, cfg):
    scale = cfg.abs_tol + cfg.rel_tol * np.max(np.abs(y))
    fmax = np.max(np.abs(f0))
    h = 0.01 * scale ** 0.2 if fmax == 0 else 0.1 * (scale / fmax) ** 0.2
    return min(h, T, cfg.max_step)


def _integrate_rk45(rhs, y, T, cfg):
    t = 0.0
    f = rhs(t, y)
    h = _initial_step(f, y, T, cfg)
    ts, ys, fs = [0.0], [y.copy()], [f.copy()]
    accepted = 0
    rejects = 0
    while t < T:
        h = min(h, T - t, cfg.max_step)
        if accepted >= cfg.max_steps:
            raise IntegrationError(f"step budget exceeded at t={t}")
        y_new, f_new, err = dp45_step(rhs, t, y, h, f)
        if not np.all(np.isfinite(y_new)):
            norm = np.inf
        else:
            norm = _error_norm(err, y, y_new, cfg.abs_tol, cfg.rel_tol)
        if norm <= 1.0:
            t = T if (T - t - h) < 1e-15 * T else t + h
            y, f = y_new, f_new
            ts.append(t)
            ys.append(y.copy())
            fs.append(f.copy())
            accepted += 1
            rejects = 0
            grow = 5.0 if norm == 0 else min(5.0, 0.9 * norm ** -0.2)
            h *= max(0.2, grow)
        else:
            rejects += 1
            if rejects > 60:
                raise IntegrationError(f"step size collapsed at t={t}")
            h *= max(0.2, 0.9 * norm ** -0.2) if np.isfinite(norm) else 0.1
    return Trajectory(np.array(ts), np.array(ys), np.array(fs))
