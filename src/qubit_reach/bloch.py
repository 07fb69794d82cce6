"""State representations and equations of motion of the dissipative qubit.

Conventions
-----------
* Bloch vector ``r = (rx, ry, rz)`` with ``|r| <= 1``; the density matrix is
  ``rho = (I + r . sigma) / 2``.  Free decay drives every state toward the
  north pole ``(0, 0, 1)``.
* ``u`` is the real (unbounded) coherent control, ``n >= 0`` the incoherent
  one.  In Bloch form the dynamics is

      dr/dt = omega f0(r) + 2 kappa u f1(r) + gamma n f2(r).

* Cylindrical coordinates about the ``rx`` axis:
  ``rx = z``, ``ry = R cos(theta)``, ``rz = R sin(theta)``.
* Polar coordinates on the meridian disc: ``z = rho cos(phi)``,
  ``R = rho sin(phi)``.

All right-hand sides are in physical time.  Functions accept scalars or
numpy arrays and broadcast where it makes sense.
"""

from __future__ import annotations

import numpy as np

from .params import SystemParams


class SingularityError(ValueError):
    """A right-hand side was evaluated too close to a coordinate singularity."""


# Pauli matrices and the two jump operators (sigma_minus maps the excited
# pole (0,0,-1) state onto the (0,0,1) ground pole).
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T

HERM_TOL = 1e-9  # largest |rho - rho^H| entry a density matrix may carry
TRACE_TOL = 1e-9  # largest |tr rho - 1| a density matrix may carry
R_MIN = 1e-8  # distance to the rx axis at or below which 1/R terms are rejected
RHO_MIN = 1e-8  # meridian radius at or below which the polar system is rejected


def field_f(index: int, r, params: SystemParams) -> np.ndarray:
    """Evaluate the Bloch vector field f0, f1 or f2 at ``r``.

    f0 is the free drift (rotation about rz plus decay toward (0,0,1),
    scaled so omega*f0 is the physical drift), f1 the coherent-control
    field (rotation about rx) and f2 the incoherent-control field.
    """
    rx, ry, rz = np.asarray(r, dtype=float)
    g = params.ratio
    if index == 0:
        return np.array([-ry - 0.5 * g * rx, rx - 0.5 * g * ry, g * (1.0 - rz)])
    if index == 1:
        return np.array([0.0, -rz, ry])
    if index == 2:
        return np.array([-0.5 * rx, -0.5 * ry, -rz])
    raise ValueError(f"field index must be 0, 1 or 2, got {index}")


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
    mirror of :func:`bloch_rhs` under ``rho = (I + r.sigma)/2``; the
    agreement is checked to 1e-12 in the test suite.

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


def density_to_bloch(rho) -> np.ndarray:
    """Inverse of :func:`bloch_to_density`; rejects non-unit trace."""
    rho = np.asarray(rho, dtype=complex)
    if abs(np.trace(rho) - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix must have unit trace, got {np.trace(rho)}")
    rx = float(np.real(rho[0, 1] + rho[1, 0]))
    ry = float(np.imag(rho[1, 0] - rho[0, 1]))
    rz = float(np.real(rho[0, 0] - rho[1, 1]))
    return np.array([rx, ry, rz])


# --- cylindrical and polar pictures -------------------------------------


def to_cylindrical(r) -> np.ndarray:
    """(z, R, theta) with rx = z, ry = R cos(theta), rz = R sin(theta).

    At R = 0 the angle is set to 0 by convention.
    """
    rx, ry, rz = np.asarray(r, dtype=float)
    R = float(np.hypot(ry, rz))
    theta = float(np.arctan2(rz, ry)) if R > 0.0 else 0.0
    return np.array([rx, R, theta])


def from_cylindrical(c) -> np.ndarray:
    z, R, theta = np.asarray(c, dtype=float)
    return np.array([z, R * np.cos(theta), R * np.sin(theta)])


def cylindrical_fields(c, params: SystemParams):
    """Drift, control and incoherent fields (g0, g1, g2) in (z, R, theta).

    The 1/R terms of g0 blow up on the axis, so R <= R_MIN is rejected.
    """
    z, R, theta = np.asarray(c, dtype=float)
    if R <= R_MIN:
        raise SingularityError(f"cylindrical fields are singular at R={R} <= {R_MIN}")
    g = params.ratio
    ct, st = np.cos(theta), np.sin(theta)
    c2, s2 = np.cos(2.0 * theta), np.sin(2.0 * theta)
    zp, rp = _meridian_rhs(z, R, st, ct, c2, g)
    g0 = np.array([zp, rp, -_theta_balance(0.0, z, R, theta, g)])
    g1 = np.array([0.0, 0.0, 1.0])
    g2 = -np.array([0.5 * z, 0.25 * R * (3.0 - c2), 0.25 * s2])
    return g0, g1, g2


def cylindrical_rhs(c, u: float, n: float, params: SystemParams) -> np.ndarray:
    """Controlled system in cylindrical coordinates (physical time)."""
    if n < 0:
        raise ValueError(f"incoherent control must be non-negative, got n={n}")
    g0, g1, g2 = cylindrical_fields(c, params)
    return params.omega * g0 + 2.0 * params.kappa * u * g1 + params.gamma * n * g2


def aux_rhs(z, R, theta, params: SystemParams):
    """Meridian-plane system with theta promoted to a control (n = 0), in
    physical time: omega times :func:`meridian_rhs_scaled`."""
    zp, rp = meridian_rhs_scaled(z, R, theta, params.ratio)
    return params.omega * zp, params.omega * rp


def meridian_rhs_scaled(z, R, theta, g):
    """Meridian velocity in rescaled time tau = omega t (vectorized, unguarded).

        dz/dtau = -g z / 2 - R cos(theta)
        dR/dtau = z cos(theta) - g R (3 - cos 2theta) / 4 + g sin(theta)

    with g = gamma / omega.
    """
    return _meridian_rhs(z, R, np.sin(theta), np.cos(theta), np.cos(2.0 * theta), g)


def _meridian_rhs(z, R, st, ct, c2, g):
    """:func:`meridian_rhs_scaled` from st = sin(theta), ct = cos(theta) and
    c2 = cos(2 theta), for callers that already hold them."""
    zp = -0.5 * g * z - R * ct
    rp = z * ct - 0.25 * g * R * (3.0 - c2) + g * st
    return zp, rp


def _theta_balance(lead, z, R, theta, g):
    """lead minus g0's theta component, each term added to lead in turn; unguarded."""
    return lead + (z / R) * np.sin(theta) + 0.25 * g * np.sin(2.0 * theta) - g * np.cos(theta) / R


def polar_rhs(state, theta, params: SystemParams):
    """Meridian system in polar coordinates (rho, phi), physical time.

    Obtained by pushing :func:`aux_rhs` through z = rho cos(phi),
    R = rho sin(phi):

        drho/dt = -(gamma/2) (rho + rho sin^2(phi) sin^2(theta)
                              - 2 sin(phi) sin(theta))
        dphi/dt = omega cos(theta)
                  + (gamma / (2 rho)) cos(phi) sin(theta)
                    (2 - rho sin(phi) sin(theta))

    The chain rule fixes the sign of dphi/dt; the test suite checks the
    pair against :func:`aux_rhs` pointwise.
    """
    rho, phi = np.asarray(state, dtype=float)
    if rho <= RHO_MIN:
        raise SingularityError(f"polar system is singular at rho={rho} <= {RHO_MIN}")
    return params.omega * np.array(polar_rhs_scaled(rho, phi, theta, params.ratio))


def polar_rhs_scaled(rho, phi, theta, g):
    """Polar velocity in rescaled time tau = omega t (vectorized, unguarded)."""
    sp, cp = np.sin(phi), np.cos(phi)
    st = np.sin(theta)
    rho_dot = -0.5 * g * (rho + rho * sp * sp * st * st - 2.0 * sp * st)
    phi_dot = np.cos(theta) + (g / (2.0 * rho)) * cp * st * (2.0 - rho * sp * st)
    return rho_dot, phi_dot


def ball_norm_derivative(r, n: float, params: SystemParams) -> float:
    """d|r|^2/dt along the controlled flow (independent of u).

    Equals -gamma (1+n) (rx^2 + ry^2 + 2 rz^2) + 2 gamma rz, which is
    non-positive on the unit sphere for every n >= 0, so the Bloch ball
    is forward invariant.
    """
    if n < 0:
        raise ValueError(f"incoherent control must be non-negative, got n={n}")
    rx, ry, rz = np.asarray(r, dtype=float)
    ga = params.gamma
    return float(-ga * (1.0 + n) * (rx * rx + ry * ry + 2.0 * rz * rz) + 2.0 * ga * rz)
