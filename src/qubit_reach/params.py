"""Physical constants of the controlled two-level system."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SystemParams:
    """Constants of the driven dissipative qubit.

    Attributes
    ----------
    omega : float
        Transition frequency (rad/s), finite and strictly positive.
    kappa : float
        Coupling of the coherent control to the transverse axis
        (dipole moment), finite and strictly positive.
    gamma : float
        Decoherence rate (1/s), finite and non-negative.
    ratio : float
        Cached dimensionless gamma/omega.
    """

    omega: float
    kappa: float
    gamma: float
    ratio: float = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("omega", "kappa", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be > 0, got {self.kappa}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        object.__setattr__(self, "ratio", self.gamma / self.omega)

    @classmethod
    def from_ratio(cls, gamma_ratio: float) -> "SystemParams":
        """Scaled units: omega = 1, 2*kappa = 1, gamma = gamma_ratio."""
        return cls(omega=1.0, kappa=0.5, gamma=float(gamma_ratio))

    @property
    def u_max_default(self) -> float:
        """Default ingestion cap on |u|: 1e3 * omega / (2 kappa)."""
        return 1e3 * self.omega / (2.0 * self.kappa)
