"""Energy densities with (p, delta)-structure and the vector operators they induce.

The canonical density used everywhere is the one with derivative

    phi'(t) = (delta + t)^(p-2) * t,        1 < p <= 2,  delta >= 0.

Shifting this density by alpha >= 0 stays inside the family: the shifted
derivative is (delta + alpha + t)^(p-2) * t, i.e. the same density with
delta replaced by delta + alpha.  Every shifted quantity below therefore
has a closed form, which keeps the inequality certifications exact up to
floating point.

Two regularizations of the degenerate weight at zero gradient are supported:
the additive shift (shifted density, weight (delta+eps+t)^(p-2)) and the
quadratic norm (weight (t^2 + eps^2)^((p-2)/2)); ``diffusion_weight`` is the
one the solver assembles.  Each certified inequality is one private array
kernel, shared by the scalar ``check_*`` functions and ``certify_lemmas``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

ADDITIVE_SHIFT = "additive-shift"
QUADRATIC_NORM = "quadratic-norm"
REGULARIZATION_KINDS = (ADDITIVE_SHIFT, QUADRATIC_NORM)

# Absolute tolerance for inequality checks on unit-scale inputs; scaled by
# max(1, |lhs|, |rhs|).  The inequalities are exact, this covers rounding only.
INEQ_TOL = 1e-10

# ---------------------------------------------------------------------------
# Empirical regression constants, measured with certify_lemmas(samples=10**6,
# seed=42) over p in {1.2, 1.5, 1.8, 2.0}, delta in {0, 0.1}, eps in [1e-6, 1],
# alpha in [0, 5], |a|, |b| in [0, 10]; rounded outward.  The equivalence
# constants are not available in closed form, so they are pinned by sampling
# and re-checked as regressions.
# ---------------------------------------------------------------------------

# sup of |(w(|a|) - w(|b|)) a| / (w(|b|) |a - b|) for the lagged weight
# w(t) = phi_eps'(t)/t; dense sweeps give 0.99947, approaching 1 from below
# as |a|/|b| grows along collinear pairs.
LAGGED_WEIGHT_RATIO_MAX = 1.0 + 1e-6

# sup of |S_eps(a) - S_eps(b)| / (|a-b| (eps^2+|a|^2+|b|^2)^((p-2)/2));
# swept sup 1.48902 at p = 1.2 (small nearly-antipodal b, eps -> 0).
S_EPS_LIPSCHITZ_MAX = 1.5

# Pairwise ratio intervals for the three monotonicity quantities (inner
# product form, shifted-density form, quotient form); swept extremes over
# the grid were [0.405, 4.532], [0.348, 1.742], [0.338, 0.863].
MONOTONE_RATIO_BOUNDS = {
    "inner-over-shifted": (0.38, 4.8),
    "inner-over-quotient": (0.33, 1.8),
    "shifted-over-quotient": (0.32, 0.9),
}

# (phi_eps(t) + eps^p + delta^p) / (t^p + eps^p + delta^p), per p; the ratio
# never exceeds 1 since phi_eps'(t) <= t^(p-1); swept infima 0.6069, 0.5712,
# 0.5351, 0.5000.
EQUI_SANDWICH_BOUNDS = {
    1.2: (0.58, 1.0 + 1e-9),
    1.5: (0.54, 1.0 + 1e-9),
    1.8: (0.51, 1.0 + 1e-9),
    2.0: (0.4999, 1.0 + 1e-9),
}


class DegenerateWeightError(ValueError):
    """The diffusion weight is unbounded on some cell (eps = delta = 0 there)."""


def _additive_weight(p, shift, r):
    """phi_shift'(r)/r = (shift + r)^(p-2), elementwise; inf where shift + r = 0."""
    with np.errstate(divide="ignore"):
        return (shift + r) ** (p - 2.0)


def _quadratic_weight(p, eps, r2):
    """(r2 + eps^2)^((p-2)/2) at the squared magnitude r2; inf where that base is 0."""
    with np.errstate(divide="ignore"):
        return (r2 + eps * eps) ** ((p - 2.0) / 2.0)


@dataclass(frozen=True)
class NFunctionPD:
    """Canonical N-function with (p, delta)-structure."""

    p: float
    delta: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.p) or not 1.0 < self.p <= 2.0:
            raise ValueError(f"exponent p must lie in (1, 2], got {self.p}")
        if not np.isfinite(self.delta) or self.delta < 0.0:
            raise ValueError(f"shift delta must be >= 0, got {self.delta}")

    @property
    def kappa0(self):
        return self.p - 1.0

    @property
    def kappa1(self):
        return 1.0

    def phi(self, t):
        """Antiderivative of phi'; phi(0) = 0, equals t^p/p for delta = 0."""
        return _phi_closed(self.p, self.delta, np.asarray(t, dtype=float))

    def phi_prime(self, t):
        t = np.asarray(t, dtype=float)
        return _additive_weight(self.p, self.delta, t) * t

    def phi_prime2(self, t):
        """Second derivative, defined for t > 0 (and t = 0 when delta > 0)."""
        t = np.asarray(t, dtype=float)
        return (self.delta + t) ** (self.p - 3.0) * ((self.p - 1.0) * t + self.delta)

    def shifted(self, alpha):
        """Shift by alpha; the family is closed, only delta moves."""
        if alpha < 0.0:
            raise ValueError(f"shift alpha must be >= 0, got {alpha}")
        return NFunctionPD(self.p, self.delta + alpha)


def _phi_closed(p, delta, t):
    # int_0^t (delta+s)^(p-2) s ds, elementwise for array p/delta/t: t^p/p
    # where delta = 0, and where delta > 0 the expm1/log1p form, which stays
    # accurate for t << delta:
    # delta^p [expm1(p u)/p - expm1((p-1) u)/(p-1)] with u = log1p(t/delta).
    # Each ufunc runs only on the samples of its branch (where=) and writes
    # into one of three buffers, so a call holds three arrays of the
    # broadcast shape; out doubles as scratch for p - 1 until the last step.
    # Where delta^p falls below the normal range or expm1 overflows, that form
    # loses its digits (0, inf or nan at t >> delta), and the (delta+t)-power
    # form s^(p-1) (s/p - delta/(p-1)) + delta^p/(p(p-1)), s = delta + t,
    # takes over: it cancels only at t <~ delta, where phi is itself below
    # the normal range, and it tends to t^p/p as delta/t -> 0.
    d, t, p = np.broadcast_arrays(np.asarray(delta, dtype=float),
                                  np.asarray(t, dtype=float),
                                  np.asarray(p, dtype=float))
    shift = d > 0.0
    plain = ~shift
    out, u, w = np.empty(t.shape), np.empty(t.shape), np.empty(t.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.power(t, p, out=out, where=plain)
        np.divide(out, p, out=out, where=plain)
        np.divide(t, d, out=u, where=shift)
        np.log1p(u, out=u, where=shift)
        np.multiply(p, u, out=w, where=shift)
        np.expm1(w, out=w, where=shift)
        np.divide(w, p, out=w, where=shift)
        np.subtract(p, 1.0, out=out, where=shift)
        np.multiply(out, u, out=u, where=shift)
        np.expm1(u, out=u, where=shift)
        np.divide(u, out, out=u, where=shift)
        np.subtract(w, u, out=w, where=shift)
        np.power(d, p, out=u, where=shift)
        np.multiply(u, w, out=out, where=shift)
        lost = shift & ((u < np.finfo(float).tiny) | ~np.isfinite(w))
        if lost.any():
            dl, pl, ul = d[lost], p[lost], u[lost]
            s = dl + t[lost]
            out[lost] = s ** (pl - 1.0) * (s / pl - dl / (pl - 1.0)) + ul / (pl * (pl - 1.0))
    if out.ndim == 0:
        return float(out)
    return out


def _check_scalar(name, value, minimum=None, strict=False):
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if minimum is not None:
        if strict and not value > minimum:
            raise ValueError(f"{name} must be > {minimum}, got {value}")
        if not strict and not value >= minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _ineq_scale(lhs, rhs):
    return INEQ_TOL * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def phi_eval(nf, t):
    """Evaluate phi(t) in closed form."""
    _check_scalar("t", t, minimum=0.0)
    return float(nf.phi(t))


def phi_shifted_prime(nf, alpha, t):
    """Derivative of the alpha-shifted density: (delta+alpha+t)^(p-2) t."""
    _check_scalar("alpha", alpha, minimum=0.0)
    _check_scalar("t", t, minimum=0.0)
    if t == 0.0:
        return 0.0
    return float(_additive_weight(nf.p, nf.delta + alpha, t) * t)


def phi_shifted(nf, alpha, t):
    """The alpha-shifted density itself, in closed form."""
    _check_scalar("alpha", alpha, minimum=0.0)
    _check_scalar("t", t, minimum=0.0)
    return float(nf.shifted(alpha).phi(t))


def vdot(a, b):
    """Inner product of plane vectors along the last axis; written out, it adds
    in the order np.sum(a * b, axis=-1) does, at a fraction of its cost."""
    if a.shape[-1:] != (2,) or b.shape[-1:] != (2,):
        raise ValueError("vectors must have 2 components along the last axis")
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def vnorm(a):
    """Euclidean norm of plane vectors along the last axis, e.g. |grad u| per cell."""
    return np.sqrt(vdot(a, a))


def _op_A(p, shift, a, r):
    """A_shift(a) = (shift + |a|)^(p-2) a with A(0) = 0, given r = |a|."""
    w = _additive_weight(p, shift, r)  # unbounded only at r = shift = 0
    return np.where(np.isinf(w), 0.0, w)[..., None] * a


def _op_S(p, eps, a, r2):
    """S_eps(a) = (|a|^2 + eps^2)^((p-2)/2) a with S(0) = 0, given r2 = |a|^2."""
    w = _quadratic_weight(p, eps, r2)  # unbounded only at r2 = eps = 0
    return np.where(np.isinf(w), 0.0, w)[..., None] * a


def op_A(nf, alpha, a):
    """Vector operator of the alpha-shifted density, A_alpha(0) = 0."""
    a = np.asarray(a, dtype=float)
    return _op_A(nf.p, nf.delta + alpha, a, vnorm(a))


def op_S_eps(p, eps, a):
    """Quadratic-norm operator a * (|a|^2 + eps^2)^((p-2)/2); S(0) = 0 at eps = 0."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"exponent p must lie in (1, 2], got {p}")
    _check_scalar("eps", eps, minimum=0.0)
    a = np.asarray(a, dtype=float)
    return _op_S(p, eps, a, vdot(a, a))


def diffusion_weight(nf, eps, kind, t):
    """Diffusion weight at gradient magnitude t for the chosen regularization.

    additive-shift: (delta + eps + t)^(p-2), so w(|g|) g = op_A(nf, eps, g);
    quadratic-norm: (t^2 + eps^2)^((p-2)/2), so w(|g|) g = op_S_eps(p, eps, g).
    Raises DegenerateWeightError where the weight is unbounded.
    """
    if kind not in REGULARIZATION_KINDS:
        raise ValueError(f"unknown regularization kind {kind!r}")
    t = np.asarray(t, dtype=float)
    if kind == QUADRATIC_NORM:
        if nf.delta != 0.0:
            raise ValueError("quadratic-norm regularization requires delta = 0")
        w = _quadratic_weight(nf.p, eps, t * t)
    else:
        w = _additive_weight(nf.p, nf.delta + eps, t)
    if np.any(np.isinf(w)):
        raise DegenerateWeightError(
            "unbounded diffusion weight: zero gradient with eps = delta = 0")
    return w


# The certified inequalities, one kernel each; a batch computes |a|, |b|, |a-b| once.

def _uniform_eps_bound(p, delta, eps, a, ra):
    """|A_eps(a) - A_0(a)| <= (1 - kappa0) phi'(eps); returns (lhs, rhs, holds)."""
    lhs = vnorm(_op_A(p, delta + eps, a, ra) - _op_A(p, delta, a, ra))
    rhs = (2.0 - p) * _additive_weight(p, delta, eps) * eps
    return lhs, rhs, lhs <= rhs + _ineq_scale(lhs, rhs)


def _orlicz_stability(p, shift, a, ra, b, rb, s):
    """w b.(b-a) >= phi(|b|) - phi(|a|) + (w/2) |b-a|^2 with phi the shifted
    density phi_shift and w = phi'(|a|)/|a|; returns (lhs, rhs, holds)."""
    w = _additive_weight(p, shift, ra)
    lhs = w * vdot(b, b - a)
    rhs = _phi_closed(p, shift, rb) - _phi_closed(p, shift, ra) + 0.5 * w * s * s
    return lhs, rhs, lhs >= rhs - _ineq_scale(lhs, rhs)


def _lagged_weight(p, shift, a, ra, rb, s):
    """|(w(|a|) - w(|b|)) a| against w(|b|) |a-b| for w(t) = phi_shift'(t)/t:
    (lhs, bound_unit, ratio), the ratio 0 where |b| = 0 or the bound is 0."""
    wb = _additive_weight(p, shift, rb)
    # (w_a - w_b) a as A(a) - w_b a, finite even where the weight at |a| = 0 is not
    lhs = vnorm(_op_A(p, shift, a, ra) - wb[..., None] * a)
    bound_unit = wb * s
    good = (rb > 0.0) & (bound_unit > 0.0)
    ratio = np.where(good, lhs / np.where(good, bound_unit, 1.0), 0.0)
    return lhs, bound_unit, ratio


def _monotone_forms(p, shift, a, ra, b, rb, s):
    """The three equivalent monotonicity quantities of A_shift at a != b:
    (A(a) - A(b)).(a-b), phi_{shift+|a|}(|a-b|), phi'(|a|+|b|)/(|a|+|b|) |a-b|^2."""
    inner = vdot(_op_A(p, shift, a, ra) - _op_A(p, shift, b, rb), a - b)
    shifted = _phi_closed(p, shift + ra, s)
    quotient = _additive_weight(p, shift, ra + rb) * s * s
    return inner, shifted, quotient


def _s_eps_quotient(p, eps, a, ra, b, rb, s):
    """|S_eps(a) - S_eps(b)| / (|a-b| (eps^2+|a|^2+|b|^2)^((p-2)/2)); 0 where a = b."""
    num = vnorm(_op_S(p, eps, a, ra * ra) - _op_S(p, eps, b, rb * rb))
    den = s * _quadratic_weight(p, eps, ra * ra + rb * rb)
    return np.where(s > 0.0, num / den, 0.0)


def check_uniform_eps_bound(nf, a, eps):
    """|A_eps(a) - A_0(a)| against (1 - kappa0) phi'(eps)."""
    _check_scalar("eps", eps, minimum=0.0, strict=True)
    a = np.asarray(a, dtype=float)
    lhs, rhs, holds = _uniform_eps_bound(nf.p, nf.delta, eps, a, vnorm(a))
    return float(lhs), float(rhs), bool(holds)


def check_orlicz_stability(nf, a, b, eps):
    """Weighted convexity-type inequality used for energy decay.

    lhs = (phi_eps'(|a|)/|a|) b.(b-a)
    rhs = phi_eps(|b|) - phi_eps(|a|) + (1/2)(phi_eps'(|a|)/|a|) |b-a|^2
    """
    _check_scalar("eps", eps, minimum=0.0)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ra, rb = vnorm(a), vnorm(b)
    if nf.delta + eps + ra == 0.0:
        # Degenerate weight at a = 0 with no shift: both sides diverge unless
        # b = 0; the inequality holds in the limit.
        if rb == 0.0:
            return 0.0, 0.0, True
        return np.inf, np.inf, True
    lhs, rhs, holds = _orlicz_stability(nf.p, nf.delta + eps, a, ra, b, rb, vnorm(a - b))
    return float(lhs), float(rhs), bool(holds)


def check_lagged_weight_estimate(nf, a, b, eps):
    """Lagged-weight swap estimate; the bound constant is measured, not given.

    Returns (lhs, bound_unit, ratio) with
    lhs = |(phi_eps'(|a|)/|a| - phi_eps'(|b|)/|b|) a| and
    bound_unit = (phi_eps'(|b|)/|b|) |a-b|.
    """
    _check_scalar("eps", eps, minimum=0.0)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rb = vnorm(b)
    if rb == 0.0:
        raise ValueError("b must be nonzero")
    out = _lagged_weight(nf.p, nf.delta + eps, a, vnorm(a), rb, vnorm(a - b))
    return tuple(float(x) for x in out)


def check_monotonicity_equivalence(nf, a, b, alpha):
    """The three mutually equivalent monotonicity quantities for a != b.

    Returns (inner, shifted_phi_val, quotient_form); all are positive and
    their pairwise ratios stay inside MONOTONE_RATIO_BOUNDS.
    """
    _check_scalar("alpha", alpha, minimum=0.0)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    s = vnorm(a - b)
    if s == 0.0:
        raise ValueError("degenerate pair: a must differ from b")
    forms = _monotone_forms(nf.p, nf.delta + alpha, a, vnorm(a), b, vnorm(b), s)
    return tuple(float(x) for x in forms)


# ---------------------------------------------------------------------------
# Randomized certification
# ---------------------------------------------------------------------------

# The grid certify_lemmas samples, the one the frozen constants above were
# measured on; every p in it is a key of EQUI_SANDWICH_BOUNDS.
P_GRID = (1.2, 1.5, 1.8, 2.0)
DELTA_GRID = (0.0, 0.1)

# Samples certify_lemmas checks at once.  Its working set is a few dozen
# block-sized arrays of 128 KiB per block in flight, whatever the sample
# count.  Of 2^14 ... 2^17, measured at 10^6 samples, 2^14 gave the lowest
# peak RSS, as fast as 2^15 and faster than 2^16 and 2^17 (CHANGES.md).
LEMMA_BLOCK = 2**14

# Most threads certify_lemmas runs its blocks on, so that at most this many
# blocks' working sets are in memory at once, whatever the CPU count.
LEMMA_THREADS = 4

# The uniform draws of certify_lemmas, in stream order: eps, alpha, then the
# radius and the angle of a, then of b.  Each takes one generator output per
# sample.
_UNIFORM_DRAWS = ((1e-6, 1.0), (0.0, 5.0), (0.0, 10.0), (0.0, 2.0 * np.pi),
                  (0.0, 10.0), (0.0, 2.0 * np.pi))


@dataclass
class CheckResult:
    name: str
    samples: int
    violations: int
    stats: dict

    @property
    def passed(self):
        return self.violations == 0


def _vectors(r, theta):
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


_CHECKS = ("monotonicity", "uniform-eps-bound", "orlicz-stability", "kappa-bracket",
           "weight-nonincreasing", "lagged-weight-ratio", "monotonicity-equivalence",
           "shifted-density-sandwich", "s-eps-difference-quotient")


class _Fold:
    """Violation counts per check, and per (check, stat) a minimum, a maximum
    or a span (both), folded over sample blocks by the rules certify_lemmas
    states."""

    def __init__(self):
        self.violations = dict.fromkeys(_CHECKS, 0)
        self.extremes = {}  # (check, stat) -> (its merges, its folded extremes)

    def count(self, check, bad):
        self.violations[check] += int(np.count_nonzero(bad))

    def min(self, check, stat, x):
        self._fold(check, stat, x, np.minimum)

    def max(self, check, stat, x):
        self._fold(check, stat, x, np.maximum)

    def span(self, check, stat, x):
        self._fold(check, stat, x, np.minimum, np.maximum)

    def merge(self, later):
        """Fold in the fold of the blocks that follow this one's: counts add,
        and extremes merge as a further block's would, keys new to this fold
        appended in their order in later."""
        for check, count in later.violations.items():
            self.violations[check] += count
        for key, (merges, values) in later.extremes.items():
            self._merge(key, merges, values)

    def _fold(self, check, stat, x, *merges):
        if x.size:
            self._merge((check, stat), merges, [merge.reduce(x) for merge in merges])

    def _merge(self, key, merges, new):
        old = self.extremes.get(key, (merges, new))[1]
        self.extremes[key] = merges, [merge(a, b) for merge, a, b in zip(merges, old, new)]

    def stats(self):
        """Per check, its stats in the order they were first recorded: a
        minimum or a maximum as a float, a span as the pair (min, max)."""
        out = {check: {} for check in _CHECKS}
        for (check, stat), (_, values) in self.extremes.items():
            values = tuple(float(v) for v in values)
            out[check][stat] = values if len(values) == 2 else values[0]
        return out


def _certify_block(fold, p, delta, eps, alpha, a, b):
    """Run every check on one block of samples and fold the outcome."""
    ra, rb, s = vnorm(a), vnorm(b), vnorm(a - b)
    ok = s > 0.0  # excludes the measure-zero coincidence a == b
    shift = delta + eps

    # --- monotonicity of A_alpha and the equivalence of its three forms -----
    inner, shifted_val, quotient = _monotone_forms(p, delta + alpha, a, ra, b, rb, s)
    fold.count("monotonicity", ok & (inner <= 0.0))
    fold.min("monotonicity", "min_inner", inner[ok])
    for key, num, den in (("inner-over-shifted", inner, shifted_val),
                          ("inner-over-quotient", inner, quotient),
                          ("shifted-over-quotient", shifted_val, quotient)):
        q = np.where(ok, num / np.where(ok, den, 1.0), 1.0)
        lo, hi = MONOTONE_RATIO_BOUNDS[key]
        fold.count("monotonicity-equivalence", (q < lo) | (q > hi))
        fold.span("monotonicity-equivalence", key, q[ok])

    # --- uniform eps-bound |A_eps - A_0| <= (1-kappa0) phi'(eps) ------------
    lhs, rhs, holds = _uniform_eps_bound(p, delta, eps, a, ra)
    fold.count("uniform-eps-bound", ~holds)
    fold.max("uniform-eps-bound", "max_excess", lhs - rhs)

    # --- Orlicz stability ----------------------------------------------------
    lhs, rhs, holds = _orlicz_stability(p, shift, a, ra, b, rb, s)
    fold.count("orlicz-stability", ~holds)
    fold.min("orlicz-stability", "min_margin", lhs - rhs)

    # --- kappa bracket (exact in closed form, 1e-12 relative) ---------------
    r = np.where(ra > 0.0, ra, 1.0)  # avoid r = 0 (phi'' undefined there)
    pp = _additive_weight(p, delta, r) * r
    rpp2 = r * (delta + r) ** (p - 3.0) * ((p - 1.0) * r + delta)
    tol = 1e-12 * np.maximum(1.0, pp)
    fold.count("kappa-bracket", (rpp2 < (p - 1.0) * pp - tol) | (rpp2 > pp + tol))
    fold.max("kappa-bracket", "max_ratio", rpp2 / pp)
    fold.min("kappa-bracket", "min_ratio", rpp2 / pp)

    # --- (C2): phi'(r)/r nonincreasing --------------------------------------
    # w1 may be inf at |a| or |b| = delta = 0, still ordered
    w1 = _additive_weight(p, delta, np.minimum(ra, rb))
    w2 = _additive_weight(p, delta, np.maximum(ra, rb))
    fold.count("weight-nonincreasing", (ra != rb) & (w1 < w2 - 1e-12 * np.maximum(1.0, w2)))

    # --- lagged weight ratio (regression against the frozen sup) ------------
    ratio = _lagged_weight(p, shift, a, ra, rb, s)[2]
    fold.count("lagged-weight-ratio", ratio > LAGGED_WEIGHT_RATIO_MAX)
    fold.max("lagged-weight-ratio", "max_ratio", ratio)

    # --- sandwich for the shifted density -----------------------------------
    q = ((_phi_closed(p, shift, ra) + eps**p + delta**p)
         / (ra**p + eps**p + delta**p))
    for pv in np.unique(p).tolist():
        qs = q[p == pv]
        lo, hi = EQUI_SANDWICH_BOUNDS[pv]
        fold.count("shifted-density-sandwich", (qs < lo) | (qs > hi))
        fold.span("shifted-density-sandwich", pv, qs)

    # --- quadratic-norm operator difference quotient (regression) -----------
    q = _s_eps_quotient(p, eps, a, ra, b, rb, s)
    fold.count("s-eps-difference-quotient", q > S_EPS_LIPSCHITZ_MAX)
    fold.max("s-eps-difference-quotient", "max_ratio", q)


def _lemma_threads():
    """Threads for certify_lemmas: one per CPU this process may run on, at
    most LEMMA_THREADS."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, LEMMA_THREADS)


def _uniform_block(state, n, start, stop):
    """Samples start..stop-1 of each of the n-sample _UNIFORM_DRAWS arrays
    that a PCG64 generator in state draws one after the other."""
    bits = np.random.PCG64()
    gen = np.random.Generator(bits)
    out = []
    for j, (low, high) in enumerate(_UNIFORM_DRAWS):
        bits.state = state
        bits.advance(j * n + start)
        out.append(gen.uniform(low, high, size=stop - start))
    return out


def certify_lemmas(samples=1_000_000, seed=42):
    """Sample every certified inequality and report violation counts.

    A violation is an inequality broken beyond the floating-point tolerance,
    or a measured ratio escaping its frozen regression interval.

    The inputs are those of one generator drawing, in this order, n indices
    into P_GRID and n into DELTA_GRID, then n each of eps, alpha, |a|, the
    angle of a, |b| and the angle of b (_UNIFORM_DRAWS).  The indices are
    drawn up front and kept as int8, 2 B per sample; `choice` takes a varying
    number of generator outputs per sample, so they cannot be drawn later.
    The six float arrays are not drawn up front: each takes exactly one
    64-bit output of the PCG64 stream per sample, so sample s of float array
    j is drawn by the output j n + s past the state the generator has after
    the indices.  A block of samples draws its own inputs from a copy of that
    state advanced there (PCG64.advance jumps exactly), and gets, bit for
    bit, the values a draw of all samples up front would give it.

    The checks run on LEMMA_BLOCK samples at a time, on a pool of threads
    (one per CPU the process may run on, at most LEMMA_THREADS); numpy's
    array kernels release the interpreter lock, so the blocks run in
    parallel.  Each block folds its outcome into its own _Fold, and the
    folds merge in block order:
      - violation counts add;
      - minima and maxima fold with np.minimum / np.maximum, so a NaN in any
        block propagates as through a whole-array np.min / np.max;
      - a block whose subset is empty (no pair a != b, no sample at some p)
        adds nothing to that subset's statistic;
      - the sandwich reports every p drawn in any block, in increasing order.
    The result therefore equals, bit for bit, that of one block of all
    samples, for any number of threads.  A block that raises makes this
    function raise that error, after the blocks still running have ended and
    the rest were cancelled.

    Memory grows by the indices alone, 2 B per sample; besides them it holds
    one block's working set per thread (a few MB each).
    """
    n = int(samples)
    if n < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    p_grid, delta_grid = np.asarray(P_GRID), np.asarray(DELTA_GRID)
    p_index = rng.choice(len(p_grid), size=n).astype(np.int8)
    delta_index = rng.choice(len(delta_grid), size=n).astype(np.int8)
    state = rng.bit_generator.state

    def certify(start):
        stop = min(start + LEMMA_BLOCK, n)
        fold = _Fold()
        # errstate is a context variable: each thread enters its own
        with np.errstate(divide="ignore", invalid="ignore"):
            eps, alpha, ar, atheta, br, btheta = _uniform_block(state, n, start, stop)
            _certify_block(fold, p_grid[p_index[start:stop]], delta_grid[delta_index[start:stop]],
                           eps, alpha, _vectors(ar, atheta), _vectors(br, btheta))
        return fold

    fold = _Fold()
    with ThreadPoolExecutor(_lemma_threads()) as pool:
        for block in pool.map(certify, range(0, n, LEMMA_BLOCK)):
            fold.merge(block)

    stats = fold.stats()
    stats["lagged-weight-ratio"]["frozen_bound"] = LAGGED_WEIGHT_RATIO_MAX
    stats["s-eps-difference-quotient"]["frozen_bound"] = S_EPS_LIPSCHITZ_MAX
    sandwich = "shifted-density-sandwich"
    stats[sandwich] = {f"p={pv}": span for pv, span in sorted(stats[sandwich].items())}
    return [CheckResult(name, n, fold.violations[name], stats[name]) for name in _CHECKS]
