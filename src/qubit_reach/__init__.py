"""Dynamics, time-optimal controls and reachable sets of a dissipative qubit.

The package models a two-level system with one coherent control (and an
optional non-negative incoherent control) in the Bloch-ball picture,
integrates its time-optimal extremals, and certifies which parts of the
ball are reachable: an explicit spiral-bounded region including the ball
of radius 1 - (pi/4) gamma/omega, and barrier triangles near the poles
that no trajectory can enter.
"""

__version__ = "0.1.0"

from .params import SystemParams
from .bloch import (
    SingularityError,
    aux_rhs,
    ball_norm_derivative,
    bloch_rhs,
    bloch_to_density,
    cylindrical_rhs,
    density_to_bloch,
    field_f,
    from_cylindrical,
    lindblad_rhs,
    polar_rhs,
    to_cylindrical,
)
from .liealg import AffineField, bracket, canonical_fields, rank_certificate
from .ode import IntegrationError, Trajectory
from .schedule import ControlSchedule, simulate
from .extremals import (
    ExtremalSeed,
    convexity_margin,
    hamiltonian,
    hamiltonian_dtheta,
    integrate_extremal,
    recover_control,
    replay_extremal,
    seed,
    seed_batch,
    seed_grid,
    sweep_extremals,
    theta_rhs,
)
from .reachset import (
    BarrierTriangle,
    ReachableSet2D,
    ReachSweep,
    SpiralRegion,
    barrier_certificate,
    barrier_values,
    guaranteed_ball_radius,
    lacuna_alpha_bound,
    marching_squares,
    revolve_to_3d,
    spiral_region,
)
from .table import LookupTable, UnreachableError, build_table, load, query, save

__all__ = [name for name in dir() if not name.startswith("_")]
