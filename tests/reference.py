"""Test-only references that the library does not run.

``bloch_rhs`` is the controlled Bloch equation from bloch.field_f,
``lindblad_rhs`` the master equation on density matrices that it mirrors,
``bloch_to_density`` the map between the two, and ``velocity_to_matrix``
maps a Bloch velocity to its density-matrix rate.  ``convexity_margin``
is the curvature signature of the admissible-velocity curve, and
``hamiltonian_dtheta`` gives dH/dtheta and d^2H/dtheta^2 of
extremals._stationarity at states with a trailing axis of length 5.
``integrate`` keeps every node of a single-column ``ode.dp45`` run,
and ``Dense`` samples such nodes through ``ode.hermite``.
``extremal_rhs`` is extremals._extremal_rhs on arrays at every
width.  ``extremal_flow`` and
``stationarity`` are the extremal field and dH/dtheta, d^2H/dtheta^2
from four transcendentals (sin th, cos th, cos 2th and sin 3th), and
``dense_seed_scan`` is the seeding scan that evaluates every grid point.
``expm`` is the general Pade-13 exponential with LAPACK solves that
ode.expm replaced for affine generators.  ``spiral_contains`` and
``triangle_contains`` are the point-membership tests of a
reachset.SpiralRegion and a reachset.BarrierTriangle.
Test modules of this directory load it with ``import reference``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qubit_reach import extremals
from qubit_reach.bloch import field_f
from qubit_reach.ode import IntegrationError, Trajectory, dp45, hermite
from qubit_reach.params import SystemParams

# Pauli matrices and the two jump operators (sigma_minus maps the excited
# pole (0,0,-1) state onto the (0,0,1) ground pole).
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T

HERM_TOL = 1e-9  # largest |rho - rho^H| entry a density matrix may carry
SPIRAL_TOL = 1e-12  # slack of the spiral-region membership test


def bloch_rhs(r, u: float, n: float, params: SystemParams) -> np.ndarray:
    """Full controlled Bloch equation omega*f0 + 2*kappa*u*f1 + gamma*n*f2."""
    if n < 0:
        raise ValueError(f"incoherent control must be non-negative, got n={n}")
    return (
        params.omega * field_f(0, r, params)
        + 2.0 * params.kappa * u * field_f(1, r, params)
        + params.gamma * n * field_f(2, r, params)
    )


def lindblad_rhs(rho, u: float, n: float, params: SystemParams) -> np.ndarray:
    """Master-equation right-hand side on 2x2 density matrices.

    The Hamiltonian is ``(omega/2) sigma_z + kappa u sigma_x`` and the
    dissipator splits into a decay channel ``sigma_minus`` of weight
    ``gamma (1 + n/2)`` and a pump channel ``sigma_plus`` of weight
    ``gamma n/2``.  These weights make the matrix equation the exact
    mirror of :func:`bloch_rhs` under ``rho = (I + r.sigma)/2``.

    Returns a Hermitian, traceless 2x2 complex array.
    """
    if n < 0:
        raise ValueError(f"incoherent control must be non-negative, got n={n}")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
        raise ValueError("density matrix is not Hermitian within tolerance")

    h = 0.5 * params.omega * SIGMA_Z + params.kappa * u * SIGMA_X
    out = -1j * (h @ rho - rho @ h)
    for op, weight in (
        (SIGMA_MINUS, params.gamma * (1.0 + 0.5 * n)),
        (SIGMA_PLUS, params.gamma * 0.5 * n),
    ):
        opd = op.conj().T
        opdop = opd @ op
        out = out + weight * (op @ rho @ opd - 0.5 * (opdop @ rho + rho @ opdop))
    return out


def bloch_to_density(r) -> np.ndarray:
    """rho = (I + r . sigma) / 2."""
    rx, ry, rz = np.asarray(r, dtype=float)
    return 0.5 * (IDENTITY2 + rx * SIGMA_X + ry * SIGMA_Y + rz * SIGMA_Z)


def convexity_margin(R, theta, params: SystemParams):
    """Curvature signature g R (R sin^3(theta) - 1) of the velocity curve.

    Strictly negative for 0 < R < 1, which makes the Hamiltonian
    maximizer unique and smooth there; it vanishes at R = 0 and at the
    boundary point R = 1, sin(theta) = 1.  Independent of z.
    """
    R = np.asarray(R, dtype=float)
    return params.ratio * R * (R * np.sin(theta) ** 3 - 1.0)


def hamiltonian_dtheta(state, params: SystemParams):
    """(dH/dtheta, d^2H/dtheta^2) at states with a trailing axis of length 5."""
    y = np.moveaxis(np.asarray(state, dtype=float), -1, 0)
    return extremals._stationarity(*y, params.ratio)


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
    tolerance tol, which passes it to the hooks as a list of floats; rhs
    gets and returns arrays of y0's shape.  Raises IntegrationError with
    the failure time in the message when the step budget is exhausted, a
    step is not finite, the step size collapses or the right-hand side
    raises.
    """
    y0 = np.asarray(y0, dtype=float)
    nodes = []

    def column_rhs(t, y):
        try:
            return np.asarray(rhs(t, np.reshape(y, y0.shape)), dtype=float).ravel().tolist()
        except Exception as exc:
            raise IntegrationError(f"right-hand side failed at t={t}: {exc}") from exc

    def accept(groups, cols, steps, fa, yb, fb):
        (t0, _, t1), = steps
        if not nodes:
            nodes.append((t0, y0.ravel().tolist(), fa))
        nodes.append((t1, yb, fb))  # lists that dp45 does not edit
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
    return Dense(traj.ts, traj.ys, extremals._extremal_rhs(traj.ys.T, params.ratio).T)


def extremal_rhs(y, g):
    """extremals._extremal_rhs with its array evaluation for every width."""
    zp, rp, pp, qp, num, den = extremals.extremal_flow(*y, g)
    safe = np.abs(den) >= extremals.DEN_TOL
    return np.array([zp, rp, pp, qp, np.where(safe, num / np.where(safe, den, 1.0), 0.0)])


def velocity_to_matrix(v) -> np.ndarray:
    """Map a Bloch velocity to the matrix derivative (v . sigma) / 2."""
    vx, vy, vz = np.asarray(v, dtype=float)
    return 0.5 * (vx * SIGMA_X + vy * SIGMA_Y + vz * SIGMA_Z)


def extremal_flow(z, R, p, q, th, g):
    """extremals.extremal_flow with sin th, cos th, cos 2th and sin 3th."""
    st, ct, c2 = np.sin(th), np.cos(th), np.cos(2.0 * th)
    zp = -0.5 * g * z - R * ct
    rp = z * ct - 0.25 * g * R * (3.0 - c2) + g * st
    pp = 0.5 * g * p - q * ct
    qp = p * ct + 0.25 * g * q * (3.0 - c2)
    num = 0.125 * g * ((p * R + q * z) * (5.0 * st + np.sin(3.0 * th)) - 8.0 * p - 4.0 * g * q * ct ** 3)
    return zp, rp, pp, qp, num, stationarity(z, R, p, q, th, g)[1]


def stationarity(z, R, p, q, th, g):
    """dH/dtheta and d^2H/dtheta^2 with sin th, cos th, sin 2th and cos 2th."""
    st, ct = np.sin(th), np.cos(th)
    dH = (p * R - q * z) * st + g * q * (ct - 0.5 * R * np.sin(2.0 * th))
    return dH, (p * R - q * z) * ct - g * q * (st + R * np.cos(2.0 * th))


def dense_seed_scan(grid, cpsi, gspsi, hspsi):
    """extremals._seed_scan from the residual f and H at every grid point,
    64 psi0 at a time, with the float operations of the library's scan."""
    st, ct = np.sin(grid), np.cos(grid)
    parts = []
    for k in range(0, len(cpsi), 64):
        c, gs, hs = cpsi[k : k + 64], gspsi[k : k + 64], hspsi[k : k + 64]
        v = c * st - gs * ct * (st - 1.0)
        prod = v[:, :-1] * v[:, 1:]
        own, at = np.nonzero(prod <= 0.0)
        fl, cross = v[own, at], prod[own, at] < 0.0
        zero = fl == 0.0
        h = -c * ct[:-1] - hs * (st[:-1] - 1.0) ** 2
        parts.append((own[cross] + k, at[cross], fl[cross], own[zero] + k, at[zero],
                      np.argmax(h, axis=1), np.argmin(h, axis=1)))
    return map(np.concatenate, zip(*parts))


# Pade-13 coefficients and the 1-norm up to which that approximant needs no
# scaling (Higham 2005)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponentials of a stack of square matrices, shape (m, k, k):
    Pade-13 scaling and squaring, each matrix halved until its 1-norm is at
    most theta_13, one LAPACK solve per matrix, and zero input rows set to
    the exact unit row before squaring."""
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


def spiral_contains(region, z, R):
    """Membership of meridian points (z, R) in a reachset.SpiralRegion: the
    ray test rho <= e^{-g a/2}, a the angular distance to the nearest pole."""
    z = np.asarray(z, dtype=float)
    R = np.asarray(R, dtype=float)
    rho = np.hypot(z, R)
    safe_rho = np.where(rho > 0.0, rho, 1.0)
    a = np.arccos(np.clip(np.abs(R) / safe_rho, -1.0, 1.0))
    bound = np.exp(-0.5 * region.gamma_ratio * a)
    return (rho <= SPIRAL_TOL) | (rho <= bound + SPIRAL_TOL)


def triangle_contains(tri, rho, phi):
    """Membership of polar points (rho, phi) in a reachset.BarrierTriangle."""
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    lower = np.where(phi >= tri.phi0, tri.edge_rho("plus", phi), tri.edge_rho("minus", phi))
    return (np.abs(phi - tri.phi0) <= tri.beta) & (rho <= 1.0) & (rho >= lower)
