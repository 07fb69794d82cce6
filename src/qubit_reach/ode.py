"""Initial-value-problem integration.

One adaptive loop, :func:`dp45`, steps the embedded Dormand-Prince 5(4)
pair on contiguous column groups of a (d, n) state in lockstep, each
group with its own time, step size and controller; two hooks decide
what an accepted step stores and what becomes of a column that fails.
The extremal sweep runs each block of seeds as one group.  Dense output
between accepted nodes is cubic Hermite (:func:`hermite`), which is what
the reachable-set rasterisation samples.  Affine flows with constant
coefficients need no stepping: :func:`expm` propagates them exactly.
"""

from __future__ import annotations

import math
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
MAX_STEPS = 10_000_000  # accepted steps of one dp45 group


@dataclass
class Trajectory:
    """Sampled solution: strictly increasing times ts from 0, shape (m,),
    and states ys, shape (m,) + state_shape."""

    ts: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        if self.ts[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if np.any(np.diff(self.ts) <= 0):
            raise ValueError("trajectory times must be strictly increasing")


def hermite(s, h, y0, f0, y1, f1):
    """Cubic Hermite interpolant at fraction s of a step of length h."""
    s2, s3 = s * s, s ** 3
    return (
        (2 * s3 - 3 * s2 + 1) * y0
        + (s3 - 2 * s2 + s) * h * f0
        + (-2 * s3 + 3 * s2) * y1
        + (s3 - s2) * h * f1
    )


# powers (1, s, s^2, s^3) -> weights of (y0, h f0, y1, h f1) in hermite
HERMITE_WEIGHTS = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [-3, -2, 3, -1], [2, 1, -2, 1]], dtype=float)


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


def dp45_step(rhs: Callable, t, y: np.ndarray, h, f0: np.ndarray):
    """One Dormand-Prince step; returns (y_new, f_new, error_estimate).

    t and h are floats, or arrays with one value per column of y."""
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
    rhs: Callable, y: np.ndarray, T: float, tol: float, edges, live: np.ndarray,
    accept: Callable, drop: Callable,
) -> dict:
    """Adaptive Dormand-Prince 5(4) on column groups of a (d, n) state, t = 0 to T.

    Group k is columns edges[k]:edges[k + 1].  Each iteration makes one
    step attempt for every running group, with one rhs(t, y) call per
    stage over their columns (t is a float while one group runs, else one
    per column); each group keeps its own t, step size and controller, so
    its bits do not depend on the other groups.  Columns not in the mask
    ``live`` get zero derivative.  A step is accepted when, in each live
    column of the group, the RMS of the error estimate over tol + tol *
    max(|y0|, |y1|) is at most 1 and h is 10 ulp of t (of T at t = 0) or
    more, or reaches T (scipy's RK45 minimum step).  A live column whose
    step is not finite, or the group's worst when h is below that minimum
    (a step collapse), goes to ``drop(cols, t, reason)`` (column indices),
    which takes it out of ``live`` or raises; the group retries from
    rhs(t, y), after a collapse at h = min(1e-3, T - t).  Each rejection
    shrinks h by 10 % or more, so a group whose t stalls ends.  The groups
    that accepted make one call ``accept(groups, cols, steps, y0, f0, y1, f1)`` with
    their (t0, h, t1) and both ends on their columns cols; it may edit y1,
    copies what it keeps and returns the derivative to go on from.  A
    group ends at T or with no live column; its first trial step is
    min(1e-3, T), and one that needs more than MAX_STEPS accepted steps
    raises :class:`IntegrationError`.  A tol or T that is not finite and
    positive raises ValueError.  Returns the iterations, and the accepted
    and rejected attempts and rhs columns summed over the groups.
    """
    for name, v in (("tolerance", tol), ("T", T)):
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v}")
    n_groups, size = len(edges) - 1, np.diff(edges)
    t, h = [0.0] * n_groups, [min(1e-3, T)] * n_groups
    steps = [0] * n_groups
    y = np.asarray(y, dtype=float)
    f = rhs(0.0, y) * live
    iterations, attempts, evals = 0, 0, y.shape[1]
    # y and f hold the columns cols of the running groups run, in order
    run, cols, ended = list(range(n_groups)), np.arange(y.shape[1]), True
    while True:
        if ended:
            keep = [t[k] < T and live[edges[k] : edges[k + 1]].any() for k in run]
            own = np.repeat(keep, size[run])
            y, f, cols, run = y[:, own], f[:, own], cols[own], [k for k, c in zip(run, keep) if c]
            if not run:
                break
            offs = np.cumsum(size[run]) - size[run]  # group run[i] starts at column offs[i]
        iterations += 1
        attempts += len(run)
        for k in run:
            h[k] = min(h[k], T - t[k])
            if steps[k] >= MAX_STEPS:
                raise IntegrationError(f"step budget exceeded at t={t[k]}")
        if len(run) == 1:
            tc, hc = t[run[0]], h[run[0]]
        else:
            tc, hc = (np.repeat([v[k] for k in run], size[run]) for v in (t, h))
        lv = live[cols]
        y1, f1, err = dp45_step(lambda tt, yy: rhs(tt, yy) * lv, tc, y, hc, f)
        evals += 6 * len(cols)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y1))
        err_col = np.sqrt(np.mean((err / scale) ** 2, axis=0))
        bad = lv & ~np.isfinite(err_col)
        live_err = np.where(lv, err_col, -np.inf)
        worst = np.maximum.reduceat(live_err, offs)  # not finite where a live column is not
        took, stepped = [], []  # whether each running group accepted, and its (t0, h, t1)
        for i, k in enumerate(run):
            norm, g = float(worst[i]), slice(offs[i], offs[i] + size[k])
            collapse = h[k] < 10 * math.ulp(t[k] or T) and h[k] < T - t[k]
            took.append(norm <= 1.0 and not collapse)
            if took[-1]:
                stepped.append((t[k], h[k], T if (T - t[k] - h[k]) < 1e-15 * T else t[k] + h[k]))
                t[k] = stepped[-1][2]
                steps[k] += 1
            if not np.isfinite(norm):
                drop(cols[g][bad[g]], t[k], "non-finite step")
            elif collapse:
                drop(cols[g][[np.argmax(live_err[g])]], t[k], "step collapse")
                h[k] = min(1e-3, T - t[k])
            else:
                h[k] *= max(0.2, 5.0 if norm == 0 else min(5.0, 0.9 * norm ** -0.2))
                continue
            # a column dropped: retry from the derivative without it
            f[:, g] = rhs(t[k], y[:, g]) * live[cols[g]]
            evals += size[k]
        if any(took):
            sel = slice(None) if all(took) else np.repeat(took, size[run])
            ya = y1[:, sel]
            groups = [k for k, a in zip(run, took) if a]
            fa = accept(groups, cols[sel], stepped, y[:, sel], f[:, sel], ya, f1[:, sel])
            y[:, sel], f[:, sel] = ya, fa * live[cols[sel]]
        ended = any(s[2] >= T for s in stepped) or not np.logical_or.reduceat(live[cols], offs).all()
    return dict(iterations=iterations, accepted=sum(steps), rejected=attempts - sum(steps),
                rhs_columns=int(evals))

