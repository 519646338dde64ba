"""Lower-order coefficients d(s) and the nonlinearity g(s) = d(s) s.

Every coefficient is one formula,

    d(s) = |s|^(r-2) - c,        r in (2, inf),  c finite,

or the zero coefficient d = 0, written r = None.  Config files name the three
cases kind = zero, power (c = 0) and shifted-power.  Every such d is bounded
below by -c7 = -max(c, 0) and grows at most like max(1, |c|) (1 + |s|^(r-2)),
which is what the time-stepping theory needs.  Admissibility of r for the two
schemes (spatial dimension fixed at 2) follows the convergence theory:
implicit needs r in (2, 2p], semi-implicit r in (2, p+1] for p < 2 and
r in (2, 3) at p = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IMPLICIT = "implicit"
SEMI_IMPLICIT = "semi-implicit"
SCHEMES = (IMPLICIT, SEMI_IMPLICIT)


@dataclass(frozen=True)
class LowerOrderCoeff:
    """d(s) = |s|^(r-2) - c; r = None is the zero coefficient."""

    r: float | None = None
    c: float = 0.0

    def __post_init__(self):
        if self.r is None:
            if self.c != 0.0:
                raise ValueError("the zero coefficient takes no shift")
        elif not np.isfinite(self.r) or self.r <= 2.0:
            raise ValueError(f"growth exponent r must lie in (2, inf), got {self.r}")
        if not np.isfinite(self.c):
            raise ValueError("shift c must be finite")

    @property
    def c7(self):
        """Lower bound: d(s) >= -c7 for all s."""
        return max(self.c, 0.0)

    @property
    def is_zero(self):
        return self.r is None


def d_eval(coeff, s):
    """Pointwise value of a coefficient that is not the zero one; vectorized over s."""
    s = np.asarray(s, dtype=float)
    return np.abs(s) ** (coeff.r - 2.0) - coeff.c


def g_prime_eval(coeff, s):
    """Derivative of g, needed for Newton's method.

    g(s) = (|s|^(r-2) - c) s, so g'(s) = (r-1) |s|^(r-2) - c, which is finite
    at s = 0 because r > 2.  coeff is not the zero coefficient.
    """
    s = np.asarray(s, dtype=float)
    return (coeff.r - 1.0) * np.abs(s) ** (coeff.r - 2.0) - coeff.c


def admissibility(coeff, p, scheme):
    """Whether r falls in the admissible interval of the scheme's theory (d=2)."""
    if coeff.is_zero:
        return True
    r = coeff.r
    if scheme == IMPLICIT:
        return 2.0 < r <= 2.0 * p
    if p == 2.0:
        return 2.0 < r < 3.0
    return 2.0 < r <= p + 1.0
