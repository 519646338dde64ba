"""Registry of lower-order coefficients d(s) and the nonlinearity g(s) = d(s) s.

The registry is closed so the growth data (r, c7, c) is known structurally:

    zero           d(s) = 0
    power          d(s) = |s|^(r-2),       r in (2, inf)
    shifted-power  d(s) = |s|^(r-2) - c

Every kind is bounded below by -c7 and grows at most like
max(1, |c|) (1 + |s|^(r-2)), with c = 0 for the unshifted kinds, which is
what the time-stepping theory needs.  Admissibility of r for the two
schemes (spatial dimension fixed at 2) follows the convergence theory:
implicit needs r in (2, 2p], semi-implicit r in (2, p+1] for p < 2 and
r in (2, 3) at p = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO = "zero"
POWER = "power"
SHIFTED_POWER = "shifted-power"
COEFF_KINDS = (ZERO, POWER, SHIFTED_POWER)

IMPLICIT = "implicit"
SEMI_IMPLICIT = "semi-implicit"
SCHEMES = (IMPLICIT, SEMI_IMPLICIT)


@dataclass(frozen=True)
class LowerOrderCoeff:
    kind: str
    r: float | None = None
    c: float = 0.0

    def __post_init__(self):
        if self.kind not in COEFF_KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == ZERO:
            if self.r is not None:
                raise ValueError("zero coefficient takes no growth exponent")
        else:
            if self.r is None or not np.isfinite(self.r) or self.r <= 2.0:
                raise ValueError(f"growth exponent r must lie in (2, inf), got {self.r}")
        if self.kind == SHIFTED_POWER and not np.isfinite(self.c):
            raise ValueError("shift c must be finite")
        if self.kind != SHIFTED_POWER and self.c != 0.0:
            raise ValueError(f"{self.kind} coefficient takes no shift")

    @classmethod
    def zero(cls):
        return cls(ZERO)

    @classmethod
    def power(cls, r):
        return cls(POWER, r=float(r))

    @classmethod
    def shifted_power(cls, r, c):
        return cls(SHIFTED_POWER, r=float(r), c=float(c))

    @property
    def c7(self):
        """Lower bound: d(s) >= -c7 for all s."""
        if self.kind == SHIFTED_POWER:
            return max(self.c, 0.0)
        return 0.0

    @property
    def is_zero(self):
        return self.kind == ZERO


def d_eval(coeff, s):
    """Pointwise coefficient value; vectorized over s."""
    s = np.asarray(s, dtype=float)
    if coeff.kind == ZERO:
        return np.zeros_like(s)
    val = np.abs(s) ** (coeff.r - 2.0)
    if coeff.kind == SHIFTED_POWER:
        val = val - coeff.c
    return val


def g_prime_eval(coeff, s):
    """Derivative of g, needed for Newton's method.

    For the power kinds g(s) = (|s|^(r-2) - c) s, so
    g'(s) = (r-1) |s|^(r-2) - c, which is finite at s = 0 because r > 2.
    """
    s = np.asarray(s, dtype=float)
    if coeff.kind == ZERO:
        return np.zeros_like(s)
    val = (coeff.r - 1.0) * np.abs(s) ** (coeff.r - 2.0)
    if coeff.kind == SHIFTED_POWER:
        val = val - coeff.c
    return val


def admissibility(coeff, p, scheme):
    """Whether r falls in the admissible interval of the scheme's theory (d=2)."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not 1.0 < p <= 2.0:
        raise ValueError(f"exponent p must lie in (1, 2], got {p}")
    if coeff.is_zero:
        return True
    r = coeff.r
    if scheme == IMPLICIT:
        return 2.0 < r <= 2.0 * p
    if p == 2.0:
        return 2.0 < r < 3.0
    return 2.0 < r <= p + 1.0
