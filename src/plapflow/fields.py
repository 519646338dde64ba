"""Registry of named analytic fields for initial data and sources.

Keeping the fields in a closed registry (instead of parsing expressions)
keeps configs short and runs reproducible.  All fields are vectorized over
numpy coordinate arrays.
"""

from __future__ import annotations

import numpy as np

FIELD_NAMES = ("zero", "sin-product", "bump", "bilinear")


def _finite(name, value):
    """Reject a nan or inf parameter value, which would reach the solver as nan data."""
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def make_field(name, amplitude=1.0):
    """Spatial field by registry name and amplitude A, as a callable (x, y) -> values.

    zero         0
    sin-product  A sin(pi x) sin(pi y)                        (vanishes on the boundary)
    bump         A exp(-((x-1/2)^2 + (y-1/2)^2)/0.15^2)       (centred in the square)
    bilinear     A x (1-x) y (1-y)                            (vanishes on the boundary)
    """
    _finite("amplitude", amplitude)
    if name == "zero":
        return lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    if name == "sin-product":
        return lambda x, y: amplitude * np.sin(np.pi * x) * np.sin(np.pi * y)
    if name == "bump":
        w2 = 0.15 * 0.15
        return lambda x, y: amplitude * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / w2)
    if name == "bilinear":
        return lambda x, y: amplitude * x * (1.0 - x) * y * (1.0 - y)
    raise ValueError(f"unknown field {name!r}; expected one of {FIELD_NAMES}")


def make_source(name, decay=0.0, amplitude=1.0):
    """Time-dependent source f(x, y, t) = make_field(name, amplitude)(x, y) * exp(-decay t).

    The zero field gives None: the run has no source.
    """
    _finite("amplitude", amplitude)
    _finite("decay", decay)
    if name == "zero":
        return None
    spatial = make_field(name, amplitude)
    return lambda x, y, t: spatial(x, y) * np.exp(-decay * t)
