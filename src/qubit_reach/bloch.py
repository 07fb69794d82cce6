"""The vector fields of the dissipative qubit that the engine evaluates.

Conventions
-----------
* Bloch vector ``r = (rx, ry, rz)`` with ``|r| <= 1``; the density matrix is
  ``rho = (I + r . sigma) / 2``.  Free decay drives every state toward the
  north pole ``(0, 0, 1)``.
* ``u`` is the real (unbounded) coherent control, ``n >= 0`` the incoherent
  one.  In Bloch form the dynamics is

      dr/dt = omega f0(r) + 2 kappa u f1(r) + gamma n f2(r),

  with the affine fields of :func:`field_f`.
* Cylindrical coordinates about the ``rx`` axis:
  ``rx = z``, ``ry = R cos(theta)``, ``rz = R sin(theta)``.  With n = 0,
  theta acts as the control of the meridian point (z, R)
  (:func:`_meridian_rhs`) and u sets its drift (:func:`_theta_balance`).
* Polar coordinates on the meridian disc: ``z = rho cos(phi)``,
  ``R = rho sin(phi)`` (:func:`polar_rhs_scaled`).

The meridian, theta and polar fields are in rescaled time tau = omega t
with g = gamma / omega and accept scalars or numpy arrays.  They are not
guarded: the callers of the 1/R and 1/rho terms reject R <= R_MIN and
rho <= RHO_MIN.  The test suite checks each against the Lindblad equation
to 1e-12.
"""

from __future__ import annotations

import numpy as np

from .params import SystemParams


class SingularityError(ValueError):
    """A right-hand side was evaluated too close to a coordinate singularity."""


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


def _trig(theta):
    """sin, cos and cos 2 = 1 - 2 sin^2 of theta: the trig rule all meridian fields share.

    A Python float theta gives Python floats, the values of np.sin and
    np.cos, so the fields of a one-seed sweep run on floats, not on numpy
    scalars with their per-operation cost."""
    st, ct = np.sin(theta), np.cos(theta)
    if type(theta) is float:
        st, ct = float(st), float(ct)
    return st, ct, 1.0 - 2.0 * st * st


def _meridian_rhs(z, R, st, ct, c2, g):
    """Meridian velocity with theta as the control (n = 0), from
    :func:`_trig`'s (st, ct, c2) of theta:

        dz/dtau = -g z / 2 - R cos(theta)
        dR/dtau = z cos(theta) - g R (3 - cos 2theta) / 4 + g sin(theta)
    """
    zp = -0.5 * g * z - R * ct
    rp = z * ct - 0.25 * g * R * (3.0 - c2) + g * st
    return zp, rp


def _theta_balance(lead, z, R, theta, g):
    """lead minus the free drift of theta, each term added to lead in turn.

    The drift is g0_theta = -(z/R) sin(theta) - (g/4) sin 2theta
    + g cos(theta) / R, so dtheta/dtau = g0_theta + 2 kappa u / omega.
    """
    return lead + (z / R) * np.sin(theta) + 0.25 * g * np.sin(2.0 * theta) - g * np.cos(theta) / R


def polar_rhs_scaled(rho, phi, theta, g):
    """The meridian velocity pushed through z = rho cos(phi), R = rho sin(phi):

        drho/dtau = -(g/2) (rho + rho sin^2(phi) sin^2(theta)
                            - 2 sin(phi) sin(theta))
        dphi/dtau = cos(theta)
                    + (g / (2 rho)) cos(phi) sin(theta) (2 - rho sin(phi) sin(theta))
    """
    sp, cp = np.sin(phi), np.cos(phi)
    st = np.sin(theta)
    rho_dot = -0.5 * g * (rho + rho * sp * sp * st * st - 2.0 * sp * st)
    phi_dot = np.cos(theta) + (g / (2.0 * rho)) * cp * st * (2.0 - rho * sp * st)
    return rho_dot, phi_dot
