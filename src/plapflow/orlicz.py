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
quadratic norm (weight (t^2 + eps^2)^((p-2)/2)).  Only this module writes
out a kind: ``diffusion_weight`` is the weight the solver assembles,
``weight_slope`` its w'(t)/t and ``energy_density`` its energy density.
``certify_lemmas`` is the one entry point that checks the certified
inequalities on sampled pairs of vectors.  Per block of samples it computes
each quantity that several inequalities share once, on arrays of vector
components, and runs every check on those values.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import numpy.random  # here, or numpy imports it lazily inside the first certify_lemmas

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

    def phi(self, t):
        """Antiderivative of phi'; phi(0) = 0, equals t^p/p for delta = 0."""
        return _phi_closed(self.p, self.delta, np.asarray(t, dtype=float))

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
    # int_0^t (delta+s)^(p-2) s ds, elementwise for array p/delta/t >= 0:
    # delta^p [expm1(p u)/p - expm1((p-1) u)/(p-1)] with u = log1p(t/delta),
    # accurate for t << delta.  Where delta^p is below the normal range or the
    # value is not finite (t >> delta, or delta = 0), that form has lost its
    # digits, and s^(p-1) (s/p - delta/(p-1)) + delta^p/(p(p-1)), s = delta + t,
    # takes over: it cancels only at t <~ delta, where phi is itself below the
    # normal range, and tends to t^p/p as delta/t -> 0.  At delta = 0, phi is
    # t^p/p, raised on the broadcast inputs: numpy squares at a broadcast
    # p = 2, and its vector power can miss a square in the last bit.
    d, t, p = np.broadcast_arrays(np.asarray(delta, dtype=float),
                                  np.asarray(t, dtype=float),
                                  np.asarray(p, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.log1p(t / d)
        dp = d ** p
        out = np.asarray(dp * (np.expm1(p * u) / p - np.expm1((p - 1.0) * u) / (p - 1.0)))
        lost = (dp < np.finfo(float).tiny) | ~np.isfinite(out)
        if lost.any():
            dl, pl = d[lost], p[lost]
            s = dl + t[lost]
            out[lost] = s ** (pl - 1.0) * (s / pl - dl / (pl - 1.0)) + dp[lost] / (pl * (pl - 1.0))
            plain = ~(d > 0.0)
            if plain.any():
                out[plain] = (t ** p / p)[plain]
    return float(out) if out.ndim == 0 else out


def _ineq_scale(lhs, rhs):
    return INEQ_TOL * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def vdot(a, b):
    """Inner product of plane vectors along the last axis; written out, it adds
    in the order np.sum(a * b, axis=-1) does, at a fraction of its cost."""
    if a.shape[-1:] != (2,) or b.shape[-1:] != (2,):
        raise ValueError("vectors must have 2 components along the last axis")
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def vnorm(a):
    """Euclidean norm of plane vectors along the last axis, e.g. |grad u| per cell."""
    return np.sqrt(vdot(a, a))


def _op_S(p, eps, a, r2):
    """S_eps(a) = (|a|^2 + eps^2)^((p-2)/2) a with S(0) = 0, given r2 = |a|^2."""
    w = _quadratic_weight(p, eps, r2)  # unbounded only at r2 = eps = 0
    return _masked(w)[..., None] * a


def op_S_eps(p, eps, a):
    """Quadratic-norm operator a * (|a|^2 + eps^2)^((p-2)/2); S(0) = 0 at eps = 0."""
    a = np.asarray(a, dtype=float)
    return _op_S(p, eps, a, vdot(a, a))


def diffusion_weight(nf, eps, kind, t):
    """Diffusion weight at gradient magnitude t for the chosen regularization.

    additive-shift: (delta + eps + t)^(p-2), so w(|g|) g = A_{delta+eps}(g);
    quadratic-norm: (t^2 + eps^2)^((p-2)/2), so w(|g|) g = op_S_eps(p, eps, g).
    These are the operators whose inequalities certify_lemmas checks.
    For p <= 2 the weight is largest at t = 0, where SchemeConfig requires it
    to be finite, so the weight of a run is finite at every gradient.
    """
    t = np.asarray(t, dtype=float)
    if kind == QUADRATIC_NORM:
        return _quadratic_weight(nf.p, eps, t * t)
    return _additive_weight(nf.p, nf.delta + eps, t)


def weight_slope(nf, eps, kind, t, w):
    """w'(t)/t of the weight w = diffusion_weight(nf, eps, kind, t); the
    additive kind's is 0 at t = 0, where it multiplies g g^T = 0."""
    if nf.p == 2.0:
        return np.zeros_like(t)
    if kind == QUADRATIC_NORM:
        return (nf.p - 2.0) * w / (t * t + eps * eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t > 0.0, (nf.p - 2.0) * w / ((nf.delta + eps + t) * t), 0.0)


def energy_density(nf, eps, kind, t):
    """The density whose derivative is diffusion_weight(nf, eps, kind, t) * t."""
    if kind == QUADRATIC_NORM:
        return (t * t + eps * eps) ** (nf.p / 2.0) / nf.p
    return nf.shifted(eps).phi(t)


# ---------------------------------------------------------------------------
# Randomized certification
# ---------------------------------------------------------------------------

# The grid certify_lemmas samples, the one the frozen constants above were
# measured on; every p in it is a key of EQUI_SANDWICH_BOUNDS.
P_GRID = (1.2, 1.5, 1.8, 2.0)
DELTA_GRID = (0.0, 0.1)

# Samples certify_lemmas checks at once.  A block's working set peaks at
# 14.2 block-sized arrays of 128 KiB besides its 8 inputs (tracemalloc),
# whatever the sample count.  Of 2^13 ... 2^16, measured at 10^6 samples on
# 2 threads (medians of three 7-run processes each), 2^14 took 0.23-0.25 s
# at a peak RSS of 50.5 MB; 2^13 was slower (0.30-0.34 s) for 48-49 MB, and
# 2^15 and 2^16 were faster (0.20-0.26 s) for 56 and 67 MB (CHANGES.md).
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

    def results(self, samples):
        """A CheckResult per check of the samples folded in: its stats, the
        frozen bounds of the regressions, and the sandwich's spans keyed by p
        in increasing order."""
        stats = self.stats()
        stats["lagged-weight-ratio"]["frozen_bound"] = LAGGED_WEIGHT_RATIO_MAX
        stats["s-eps-difference-quotient"]["frozen_bound"] = S_EPS_LIPSCHITZ_MAX
        sandwich = "shifted-density-sandwich"
        stats[sandwich] = {f"p={pv}": span for pv, span in sorted(stats[sandwich].items())}
        return [CheckResult(name, samples, self.violations[name], stats[name])
                for name in _CHECKS]


def _masked(w):
    """The weight w of an operator w(|v|) v with its infinite entries, at
    shift = |v| = 0, set to 0: the operator is 0 at v = 0."""
    return np.where(np.isinf(w), 0.0, w)


def _length(x, y):
    """|(x, y)|, summed as vnorm sums the components of an (n, 2) array."""
    return np.sqrt(x * x + y * y)


def _components(r, theta):
    """The components of the plane vectors of length r at angle theta."""
    return r * np.cos(theta), r * np.sin(theta)


def _certify_block(fold, p, delta, eps, alpha, ax, ay, bx, by):
    """Run every check on one block of samples a = (ax, ay), b = (bx, by) and
    fold the outcome.

    The block computes each quantity that checks share once: |a|, |b|,
    |a - b|, the weights (shift + |v|)^(p-2) at v = a and b for the shifts
    delta, delta + eps and delta + alpha, phi_{delta+eps}(|a|), eps^p and
    delta^p.  (C2) compares the weights at |a| and |b| in the order of |a|
    and |b|, and the kappa bracket takes phi'(|a|)/|a| as the weight at |a|
    wherever |a| > 0.  Every value is the floating-point expression,
    in the same order, of a kernel that checks one inequality on its own
    (tests/oracles.py keeps those), so the outcome is theirs bit for bit.
    The checks run in the order that lets each array go after its last use.
    """
    ra, rb = _length(ax, ay), _length(bx, by)
    dx, dy = ax - bx, ay - by
    s = _length(dx, dy)
    ok = s > 0.0  # excludes the measure-zero coincidence a == b

    # --- monotonicity of A_alpha and the equivalence of its three forms -----
    # (A(a) - A(b)).(a-b), phi_{shift+|a|}(|a-b|), phi'(|a|+|b|)/(|a|+|b|) |a-b|^2
    shift = delta + alpha
    wa, wb = _masked(_additive_weight(p, shift, ra)), _masked(_additive_weight(p, shift, rb))
    inner = (wa * ax - wb * bx) * dx + (wa * ay - wb * by) * dy
    del wa, wb, dx, dy
    shifted_val = _phi_closed(p, shift + ra, s)
    quotient = _additive_weight(p, shift, ra + rb) * s * s
    del shift
    if not ok.all():  # the forms compare pairs a != b; a == b is rare, 2^-53 a sample
        inner, shifted_val, quotient = inner[ok], shifted_val[ok], quotient[ok]
    fold.count("monotonicity", inner <= 0.0)
    fold.min("monotonicity", "min_inner", inner)
    for key, num, den in (("inner-over-shifted", inner, shifted_val),
                          ("inner-over-quotient", inner, quotient),
                          ("shifted-over-quotient", shifted_val, quotient)):
        q = num / den
        lo, hi = MONOTONE_RATIO_BOUNDS[key]
        fold.count("monotonicity-equivalence", (q < lo) | (q > hi))
        fold.span("monotonicity-equivalence", key, q)
    del inner, shifted_val, quotient, q

    # --- quadratic-norm operator difference quotient (regression) -----------
    # |S_eps(a) - S_eps(b)| / (|a-b| (eps^2+|a|^2+|b|^2)^((p-2)/2)); 0 where a = b
    ra2, rb2 = ra * ra, rb * rb
    wa, wb = _masked(_quadratic_weight(p, eps, ra2)), _masked(_quadratic_weight(p, eps, rb2))
    num = _length(wa * ax - wb * bx, wa * ay - wb * by)
    del wa, wb
    q = np.where(ok, num / (s * _quadratic_weight(p, eps, ra2 + rb2)), 0.0)
    del ra2, rb2, num, ok
    fold.count("s-eps-difference-quotient", q > S_EPS_LIPSCHITZ_MAX)
    fold.max("s-eps-difference-quotient", "max_ratio", q)
    del q

    # --- Orlicz stability ----------------------------------------------------
    # w b.(b-a) >= phi(|b|) - phi(|a|) + (w/2) |b-a|^2, phi = phi_{delta+eps},
    # w = phi'(|a|)/|a|
    shift = delta + eps
    w = _additive_weight(p, shift, ra)
    phi_a = _phi_closed(p, shift, ra)
    lhs = w * (bx * (bx - ax) + by * (by - ay))
    rhs = _phi_closed(p, shift, rb) - phi_a + 0.5 * w * s * s
    fold.count("orlicz-stability", ~(lhs >= rhs - _ineq_scale(lhs, rhs)))
    fold.min("orlicz-stability", "min_margin", lhs - rhs)
    del lhs, rhs

    # --- sandwich for the shifted density -----------------------------------
    # numpy's vector power is 5 times slower on an array with zero bases, and
    # delta is 0 at about half the samples: raise 1 there, then multiply by 0
    eps_p, delta_p = eps ** p, (delta + (delta == 0.0)) ** p * (delta > 0.0)
    q = (phi_a + eps_p + delta_p) / (ra ** p + eps_p + delta_p)
    del phi_a, eps_p, delta_p
    for pv in P_GRID:  # p holds P_GRID values; one no sample drew records nothing
        qs = q[p == pv]
        lo, hi = EQUI_SANDWICH_BOUNDS[pv]
        fold.count("shifted-density-sandwich", (qs < lo) | (qs > hi))
        fold.span("shifted-density-sandwich", pv, qs)
    del q, qs

    # --- lagged weight ratio (regression against the frozen sup) ------------
    # |(w(|a|) - w(|b|)) a| / (w(|b|) |a-b|), w(t) = phi_{delta+eps}'(t)/t; 0
    # where |b| = 0 or the denominator is 0.  (w_a - w_b) a is A(a) - w_b a,
    # finite even where the weight at |a| = 0 is not.
    w = _masked(w)
    aex, aey = w * ax, w * ay  # A_{delta+eps}(a)
    wb = _additive_weight(p, shift, rb)
    lhs = _length(aex - wb * ax, aey - wb * ay)
    den = wb * s
    del wb, s, shift
    good = (rb > 0.0) & (den > 0.0)
    ratio = np.where(good, lhs / np.where(good, den, 1.0), 0.0)
    del den, good
    fold.count("lagged-weight-ratio", ratio > LAGGED_WEIGHT_RATIO_MAX)
    fold.max("lagged-weight-ratio", "max_ratio", ratio)
    del ratio

    # --- uniform eps-bound |A_eps - A_0| <= (2-p) phi'(eps) -----------------
    w0a = _additive_weight(p, delta, ra)
    w = _masked(w0a)
    lhs = _length(aex - w * ax, aey - w * ay)
    del w, aex, aey
    rhs = (2.0 - p) * _additive_weight(p, delta, eps) * eps
    fold.count("uniform-eps-bound", ~(lhs <= rhs + _ineq_scale(lhs, rhs)))
    fold.max("uniform-eps-bound", "max_excess", lhs - rhs)
    del lhs, rhs

    # --- kappa bracket (exact in closed form, 1e-12 relative) ---------------
    pos = ra > 0.0
    r = np.where(pos, ra, 1.0)  # avoid r = 0 (phi'' undefined there)
    pp = (w0a if pos.all() else np.where(pos, w0a, _additive_weight(p, delta, r))) * r
    del pos
    rpp2 = r * (delta + r) ** (p - 3.0) * ((p - 1.0) * r + delta)
    tol = 1e-12 * np.maximum(1.0, pp)
    fold.count("kappa-bracket", (rpp2 < (p - 1.0) * pp - tol) | (rpp2 > pp + tol))
    del r, tol
    ratio = rpp2 / pp
    fold.max("kappa-bracket", "max_ratio", ratio)
    fold.min("kappa-bracket", "min_ratio", ratio)
    del rpp2, pp, ratio

    # --- (C2): phi'(r)/r nonincreasing --------------------------------------
    # the weight at the smaller of |a|, |b| below the one at the larger; it
    # may be inf at |a| or |b| = delta = 0, still ordered
    w0b = _additive_weight(p, delta, rb)
    fold.count("weight-nonincreasing",
               ((ra < rb) & (w0a < w0b - 1e-12 * np.maximum(1.0, w0b)))
               | ((rb < ra) & (w0b < w0a - 1e-12 * np.maximum(1.0, w0a))))


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


def certify_lemmas(samples, seed):
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

    Memory grows by the indices alone, 2 B per sample, after each is drawn
    as int64 and cast (8 B per sample more while it is cast); besides them
    it holds one block's working set per thread: its 8 input arrays and
    about 14 more.  A one-block call on one thread peaks at 2.9 MB
    (tracemalloc, LEMMA_BLOCK = 2^14), and a call on 10^6 samples at
    10.0 MB, at the cast.
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
            ax, ay = _components(ar, atheta)
            bx, by = _components(br, btheta)
            del ar, atheta, br, btheta
            _certify_block(fold, p_grid[p_index[start:stop]], delta_grid[delta_index[start:stop]],
                           eps, alpha, ax, ay, bx, by)
        return fold

    fold = _Fold()
    with ThreadPoolExecutor(_lemma_threads()) as pool:
        for block in pool.map(certify, range(0, n, LEMMA_BLOCK)):
            fold.merge(block)

    return fold.results(n)
