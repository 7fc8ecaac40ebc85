"""Deformation parameter and shared numerical context.

Everything in this package is computed for a fixed deformation parameter
t > 0, entering through lam = exp(t) (the classical theory is the t -> 0
limit).  ``Params`` is the one home of the exponentials of t: ``lam_pow``
gives closed-form powers of lam, ``q_diag`` powers of q on a weight basis,
and ``qnum`` the q-numbers [x] = sinh(x t) / sinh(t).  Half-integer labels
(spins ``n`` and weights ``j``) are passed around as *doubled integers* so
that all bookkeeping stays exact: a spin n = 3/2 is the integer
``two_n = 3``, the weight j = -1 is ``two_j = -2``.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .util import weights


@dataclass(frozen=True)
class Params:
    """Deformation parameter and tolerances used by every numerical routine.

    Attributes
    ----------
    t : float
        Deformation parameter, a positive finite real, not a bool.  lam = exp(t).
    tol_abs : float
        Absolute tolerance for residual checks, finite and nonnegative.
    tol_rel : float
        Relative tolerance, finite and nonnegative, used where a natural
        scale is available (the rank of the dual span check, the
        classifier's annihilation test).
    """

    t: float = 0.3
    tol_abs: float = 1e-9
    tol_rel: float = 1e-9

    def __post_init__(self):
        for name in ("t", "tol_abs", "tol_rel"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise ValueError(f"deformation parameter t must be positive and finite, got {self.t!r}")
        for name in ("tol_abs", "tol_rel"):
            tol = getattr(self, name)
            if not (tol >= 0.0 and math.isfinite(tol)):
                raise ValueError(f"{name} must be finite and nonnegative, got {tol!r}")

    def _exp(self, x: float, name: str) -> float:
        """math.exp(x), x a multiple of t; an `OverflowError` names t and the power ``name``."""
        try:
            return math.exp(x)
        except OverflowError:
            raise OverflowError(f"at t = {self.t!r}, {name} overflows") from None

    @property
    def lam(self) -> float:
        """The deformation base lam = exp(t) > 1."""
        return self._exp(self.t, "lam = exp(t)")

    @property
    def c(self) -> float:
        """Structure constant (lam - lam^-1)^-1 of the commutation relation.

        With this normalization the defining relation reads
        ef - fe = c (q^2 - q^-2), and the classical limit of c (q^2 - q^-2)
        as t -> 0 recovers the usual 2h of sl(2).  Below t = 1.11e-16, lam
        rounds to 1 and c has no value: a `ZeroDivisionError` names t.
        """
        lam = self.lam
        if lam == 1.0:
            raise ZeroDivisionError(f"at t = {self.t!r}, lam = exp(t) rounds to 1, so c = 1/(lam - 1/lam) has no value")
        return 1.0 / (lam - 1.0 / lam)

    def lam_pow(self, two_exp) -> float:
        """lam raised to a half-integer power given as a doubled exponent.

        ``lam_pow(two_exp) == lam ** (two_exp / 2)``; exact for the doubled
        integers used throughout, but any real ``two_exp`` is accepted.
        """
        return self._exp(0.5 * self.t * two_exp, f"lam^({two_exp}/2)")

    def q_diag(self, two_n: int, power: complex = 1.0) -> np.ndarray:
        """Diagonal of q^power on the spin-(two_n/2) weights j, highest first: exp(power t j)."""
        return np.exp(0.5 * power * self.t * weights(two_n))

    def qnum(self, x) -> np.ndarray:
        """The q-numbers [x] = sinh(x t) / sinh(t), elementwise."""
        return np.sinh(self.t * np.asarray(x)) / np.sinh(self.t)
