"""Initial-value-problem integration.

One adaptive loop, :func:`dp45`, steps the embedded Dormand-Prince 5(4)
pair on contiguous column groups of a (d, n) state in lockstep, each
group with its own time, step size and controller; two hooks decide
what an accepted step stores and what becomes of a column that fails.
The extremal sweep runs each block of seeds as one group.  A state of
one column runs on Python floats instead: numpy's cost per call, not the
arithmetic, was most of the time of a step on a (d, 1) array, so the rhs
and the accept hook then get and return lists of d floats.  Both forms
make the same IEEE operations in the same order and share one step-size
controller, so a column takes the same steps, to the bit, either way.
Dense output between accepted nodes is cubic Hermite (:func:`hermite`),
which is what the reachable-set rasterisation samples.  Affine flows with constant
coefficients need no stepping: :func:`expm` propagates them exactly (Van
Loan's augmented generators, a Pade degree by norm, 3 x 3 adjugate solves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class IntegrationError(RuntimeError):
    """Integration failed; the message carries the time of failure."""


# Dormand-Prince 5(4) tableau; tuples of floats index faster than arrays per stage.
DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
DP_ERR = tuple(b5 - b4 for b5, b4 in zip(DP_B5, DP_B4))
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
    s2 = s * s
    s3 = s2 * s  # not s ** 3: numpy's power loop rounds by the CPU's SIMD level
    return (
        (2 * s3 - 3 * s2 + 1) * y0
        + (s3 - 2 * s2 + s) * h * f0
        + (-2 * s3 + 3 * s2) * y1
        + (s3 - s2) * h * f1
    )


# powers (1, s, s^2, s^3) -> weights of (y0, h f0, y1, h f1) in hermite
HERMITE_WEIGHTS = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [-3, -2, 3, -1], [2, 1, -2, 1]], dtype=float)


# Pade coefficients b_0 .. b_m of degree m and the 1-norm theta_m up to
# which that approximant needs no scaling (Higham 2005, "The scaling and
# squaring method for the matrix exponential revisited").
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068, 13: 5.371920351148152}
MAX_NORM = 1e-6 * 2.0 ** 52  # damped 1-norm above which expm refuses a generator (see there)


def expm(a) -> np.ndarray:
    """Exponentials of a stack of affine generators [[M, c], [0, 0]], shape (m, 4, 4).

    Other input, or input that is not finite, raises ValueError.  The Pade
    degree m is the least of 3, 5, 7, 9 and 13 whose theta_m bounds the
    largest 1-norm of the stack; at 13 each matrix is halved s times, its
    own s, to a 1-norm of at most theta_13 and the approximant squared back.
    U and V of every degree come from one loop over the even powers of a up
    to a^(m - 1).  With V - U = [[W, w], [0, b_0]] and V + U = [[X, x], [0, b_0]] the
    quotient is [[W^-1 X, W^-1 (x - w)], [0, 1]], W^-1 from 3 x 3 adjugates
    over determinants of the whole stack, not a LAPACK call per matrix.  The
    last row stays exact through every squaring, and where c = 0, x - w is
    exactly 0, so the fixed points of affine flows stay exact.

    A generator whose exponential would be lost to the rounding of its own
    entries raises ValueError, before any arithmetic.  Those entries carry a
    relative error of 2^-52, and a change dA of A moves exp(A) by at most
    |dA| / max(1, -mu), with mu >= the logarithmic 2-norm of M (Gershgorin
    on (M + M^T) / 2): a damped flow forgets it.  So the refusal is at
    |A|_1 / max(1, -mu) > MAX_NORM = 1e-6 2^52, about 4.5e9, where that error
    passes 1e-6; an undamped rotation there is lost to its own rounding.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of a non-finite matrix")
    if a.ndim != 3 or a.shape[1:] != (4, 4) or np.any(a[:, 3]):
        raise ValueError("expm takes affine generators, shape (m, 4, 4) with a zero last row")
    col = np.abs(a[:, 0]) + np.abs(a[:, 1]) + np.abs(a[:, 2])  # column 1-norms
    if col.max(initial=0.0) > MAX_NORM:
        m3 = a[:, :3, :3]
        sym = np.abs(m3 / 2.0 + m3.transpose(0, 2, 1) / 2.0)
        mu = (np.diagonal(m3, 0, 1, 2) - np.diagonal(sym, 0, 1, 2) + sym.sum(axis=-1)).max(axis=-1)
        damp = np.maximum(1.0, -mu)
        k = np.argmax(col.max(axis=-1) / damp)
        if col[k].max() / damp[k] > MAX_NORM:
            raise ValueError(f"matrix exponential lost to the rounding of its generator: 1-norm "
                             f"{col[k].max():.3g} over damping {damp[k]:.3g} passes {MAX_NORM:.3g}")
    m = next((m for m in (3, 5, 7, 9) if col.max(initial=0.0) <= _THETA[m]), 13)
    s = np.maximum(np.frexp(col.max(axis=-1) / _THETA[13])[1], 0) if m == 13 else np.zeros(1, int)
    a, b, eye = np.ldexp(a, -s[:, None, None]) if m == 13 else a, _PADE[m], np.eye(4)
    a2 = a @ a
    u, v, p = b[1] * eye + b[3] * a2, b[0] * eye + b[2] * a2, a2
    for k in range(2, m // 2 + 1):  # the even powers a^2k
        p = p @ a2
        u, v = u + b[2 * k + 1] * p, v + b[2 * k] * p
    u = a @ u
    den, num = (v - u)[:, :3], (v + u)[:, :3]
    num[:, :, 3] -= den[:, :, 3]
    # adj[i, j] = W[j+1, i+1] W[j+2, i+2] - W[j+1, i+2] W[j+2, i+1], indices mod 3
    i1, i2 = np.array([[1, 2, 0], [2, 0, 1]])
    adj = den[:, i1, i1[:, None]] * den[:, i2, i2[:, None]] - den[:, i1, i2[:, None]] * den[:, i2, i1[:, None]]
    det = den[:, 0, 0] * adj[:, 0, 0] + den[:, 0, 1] * adj[:, 1, 0] + den[:, 0, 2] * adj[:, 2, 0]
    r = np.tile(eye, (len(a), 1, 1))
    r[:, :3] = (adj @ num) / det[:, None, None]
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


def _dp45_step_floats(rhs: Callable, t: float, y: list, h: float, k0: list):
    """:func:`dp45_step` on one column, a list of floats: the same IEEE
    operations in the same order.  Each stage's sum is the left-to-right
    chain of dp45_step's accumulator, and the 5th-order and error sums
    start from 0 as sum() does there; builtin sum of floats itself is
    compensated from Python 3.12 on, so it would change bits."""
    (a1,), (a2, b2), (a3, b3, c3), (a4, b4, c4, d4), (a5, b5, c5, d5, e5), (a6, b6, c6, d6, e6, f6) = DP_A[1:]
    k1 = rhs(t + DP_C[1] * h, [v + h * (a1 * p) for v, p in zip(y, k0)])
    k2 = rhs(t + DP_C[2] * h, [v + h * (a2 * p + b2 * q) for v, p, q in zip(y, k0, k1)])
    k3 = rhs(t + DP_C[3] * h, [v + h * (a3 * p + b3 * q + c3 * r) for v, p, q, r in zip(y, k0, k1, k2)])
    k4 = rhs(t + DP_C[4] * h, [v + h * (a4 * p + b4 * q + c4 * r + d4 * s)
                               for v, p, q, r, s in zip(y, k0, k1, k2, k3)])
    k5 = rhs(t + DP_C[5] * h, [v + h * (a5 * p + b5 * q + c5 * r + d5 * s + e5 * u)
                               for v, p, q, r, s, u in zip(y, k0, k1, k2, k3, k4)])
    ks = list(zip(k0, k1, k2, k3, k4, k5))
    k6 = rhs(t + DP_C[6] * h, [v + h * (a6 * p + b6 * q + c6 * r + d6 * s + e6 * u + f6 * w)
                               for v, (p, q, r, s, u, w) in zip(y, ks)])
    w0, w1, w2, w3, w4, w5, _ = DP_B5
    y_new = [v + h * (0 + w0 * p + w1 * q + w2 * r + w3 * s + w4 * u + w5 * w)
             for v, (p, q, r, s, u, w) in zip(y, ks)]
    e0, e1, e2, e3, e4, e5, e6 = DP_ERR
    err = [h * (0 + e0 * p + e1 * q + e2 * r + e3 * s + e4 * u + e5 * w + e6 * x)
           for (p, q, r, s, u, w), x in zip(ks, k6)]
    return y_new, k6, err


def _error_norms(y: np.ndarray, y1: np.ndarray, err: np.ndarray, tol: float) -> np.ndarray:
    """The error norm of each column of a step from y to y1 with error
    estimate err: the RMS of err / (tol + tol max(|y|, |y1|)) over rows, in
    np.mean's own arithmetic."""
    scale = tol + tol * np.maximum(np.abs(y), np.abs(y1))
    q = (err / scale) ** 2
    return np.sqrt(np.add.reduce(q, axis=0) / q.shape[0])


def _error_norm_floats(y: list, y1: list, err: list, tol: float) -> float:
    """:func:`_error_norms` of one column given as lists of floats, to the
    bit: max(|y|, |y1|) keeps a NaN as np.maximum does, and the squares add
    up from the first row on as np.add.reduce does along axis 0."""
    total = 0.0  # 0.0 + x is x for the squares x >= 0
    for a, b, e in zip(y, y1, err):
        a, b = abs(a), abs(b)
        x = e / (tol + tol * (b if b > a or b != b else a))
        total = total + x * x
    return math.sqrt(total / len(y))


def _control(norm: float, t: float, h: float, T: float):
    """The step-size controller of one group on floats, after an attempt
    of h from t with error norm norm: (t1, the next h, a drop reason).
    t1 is the end of an accepted step and None for a rejected one; the
    reason is "non-finite step", "step collapse" or None.

    A step is accepted when norm <= 1 and h is 10 ulp of t (of T at t = 0)
    or more, or reaches T; a step within 1e-15 T of T ends at T.  A
    non-finite norm keeps h; a collapse restarts at min(1e-3, T - t); else
    h changes by 0.9 norm^-0.2, between 0.2 and 5, and at most reaches T."""
    collapse = h < 10 * math.ulp(t or T) and h < T - t
    if not math.isfinite(norm):
        return None, h, "non-finite step"
    if collapse:
        return None, min(1e-3, T - t), "step collapse"
    t1 = None if norm > 1.0 else T if (T - t - h) < 1e-15 * T else t + h
    h *= max(0.2, 5.0 if norm == 0 else min(5.0, 0.9 * norm ** -0.2))
    return t1, min(h, T - (t if t1 is None else t1)), None


def _dp45_column(rhs: Callable, y: np.ndarray, T: float, tol: float, live: np.ndarray,
                 accept: Callable, drop: Callable) -> dict:
    """:func:`dp45` on a state of one column, on Python floats (see there)."""
    y, T, tol, col = y[:, 0].tolist(), float(T), float(tol), np.zeros(1, dtype=int)
    f = rhs(0.0, y)
    t, h, steps, iterations, evals = 0.0, min(1e-3, T), 0, 0, 1
    while t < T and live[0]:
        if steps >= MAX_STEPS:
            raise IntegrationError(f"step budget exceeded at t={t}")
        iterations += 1
        y1, f1, err = _dp45_step_floats(rhs, t, y, h, f)
        evals += 6
        t1, h_next, reason = _control(_error_norm_floats(y, y1, err, tol), t, h, T)
        if reason:  # the array loop's retry from rhs(t, y), with its count
            drop(col, t, reason)
            f = rhs(t, y)
            evals += 1
        elif t1 is not None:
            f = accept([0], col, [(t, h, t1)], f, y1, f1)
            y, t, steps = y1, t1, steps + 1
        h = h_next
    return dict(iterations=iterations, accepted=steps, rejected=iterations - steps, rhs_columns=evals)


def dp45(
    rhs: Callable, y: np.ndarray, T: float, tol: float, edges, live: np.ndarray,
    accept: Callable, drop: Callable,
) -> dict:
    """Adaptive Dormand-Prince 5(4) on column groups of a (d, n) state, t = 0 to T.

    Group k is columns edges[k]:edges[k + 1].  Each iteration makes one step
    attempt for every running group, with one rhs(t, y) call per stage over
    their columns, t one time per column; each group keeps its own t, step size
    and controller, so its bits do not depend on the other groups.  Columns not
    in the mask ``live`` get zero derivative.  A step is accepted when, in each
    live column of the group, the RMS of the error estimate over tol + tol *
    max(|y0|, |y1|) is at most 1 and h is 10 ulp of t (of T at t = 0) or more,
    or reaches T (scipy's RK45 minimum step).  A live column whose step is not
    finite, or the group's worst when h is below that minimum (a step
    collapse), goes to ``drop(cols, t, reason)`` (column indices), which takes
    it out of ``live`` or raises; the group retries from rhs(t, y), after a
    collapse at h = min(1e-3, T - t).  Each rejection shrinks h by 10 % or
    more, so a group whose t stalls ends.  The groups that accepted make one
    call ``accept(groups, cols, steps, f0, y1, f1)`` with their (t0, h, t1),
    and on their columns cols the start slope f0 and the end state y1 and slope
    f1; it may edit y1, copies what it keeps and returns the derivative to go
    on from.  A group ends at T or with no live column; its first trial step is
    min(1e-3, T), and one that needs more than MAX_STEPS accepted steps raises
    :class:`IntegrationError`.  A tol or T that is not finite and positive
    raises ValueError.  Returns the iterations, and the accepted and rejected
    attempts and rhs columns summed over the groups.

    A state of one column (one group) runs on Python floats, as numpy's
    cost per call on arrays of d elements would be most of its time: rhs
    then gets the state as a list of d floats and returns a list of d
    floats, and accept gets f0, y1 and f1 as such lists, may edit the
    list y1 and returns a list.  It takes the same steps to the bit as the
    same column in a group of the array loop.
    """
    for name, v in (("tolerance", tol), ("T", T)):
        if not (np.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and positive, got {v}")
    y = np.asarray(y, dtype=float)
    if y.shape[1] == 1:
        return _dp45_column(rhs, y, T, tol, live, accept, drop)
    n_groups, size = len(edges) - 1, np.diff(edges)
    t, h = [0.0] * n_groups, [min(1e-3, T)] * n_groups
    steps = [0] * n_groups
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
            if steps[k] >= MAX_STEPS:
                raise IntegrationError(f"step budget exceeded at t={t[k]}")
        tc, hc = (np.repeat([v[k] for k in run], size[run]) for v in (t, h))
        lv = live[cols]
        masked = rhs if lv.all() else lambda tt, yy: rhs(tt, yy) * lv  # x * 1.0 is x
        y1, f1, err = dp45_step(masked, tc, y, hc, f)
        evals += 6 * len(cols)
        err_col = _error_norms(y, y1, err, tol)
        bad = lv & ~np.isfinite(err_col)
        live_err = np.where(lv, err_col, -np.inf)
        worst = np.maximum.reduceat(live_err, offs)  # not finite where a live column is not
        took, stepped = [], []  # whether each running group accepted, and its (t0, h, t1)
        for i, k in enumerate(run):
            g = slice(offs[i], offs[i] + size[k])
            t1, h_next, reason = _control(float(worst[i]), t[k], h[k], T)
            took.append(t1 is not None)
            if t1 is not None:
                stepped.append((t[k], h[k], t1))
                t[k] = t1
                steps[k] += 1
            h[k] = h_next
            if reason == "non-finite step":
                drop(cols[g][bad[g]], t[k], reason)
            elif reason:
                drop(cols[g][[np.argmax(live_err[g])]], t[k], reason)
            else:
                continue
            # a column dropped: retry from the derivative without it
            f[:, g] = rhs(t[k], y[:, g]) * live[cols[g]]
            evals += size[k]
        if any(took):
            sel = slice(None) if all(took) else np.repeat(took, size[run])
            ya = y1[:, sel]
            groups = [k for k, a in zip(run, took) if a]
            fa = accept(groups, cols[sel], stepped, f[:, sel], ya, f1[:, sel])
            y[:, sel], f[:, sel] = ya, fa * live[cols[sel]]
        ended = any(s[2] >= T for s in stepped) or not np.logical_or.reduceat(live[cols], offs).all()
    return dict(iterations=iterations, accepted=sum(steps), rejected=attempts - sum(steps),
                rhs_columns=int(evals))
