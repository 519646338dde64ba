import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

import oracles

from plapflow import orlicz
from plapflow.orlicz import NFunctionPD, certify_lemmas, op_S_eps


def kernel_errstate():
    """The floating-point error state certify_lemmas runs the kernels under."""
    return np.errstate(divide="ignore", invalid="ignore")


def op_A(nf, alpha, a):
    """A_alpha(a) = (delta + alpha + |a|)^(p-2) a of nf, by the oracle's kernel."""
    a = np.asarray(a, dtype=float)
    return oracles.op_A(nf.p, nf.delta + alpha, a, orlicz.vnorm(a))


def pairs(a, b):
    """The rows of a and b with their norms and |a - b|, as the oracle's kernels take them."""
    a, b = np.atleast_2d(np.asarray(a, dtype=float)), np.atleast_2d(np.asarray(b, dtype=float))
    return a, orlicz.vnorm(a), b, orlicz.vnorm(b), orlicz.vnorm(a - b)


def test_construction_validates_parameters():
    NFunctionPD(1.5, 0.0)
    NFunctionPD(2.0, 3.0)
    with pytest.raises(ValueError):
        NFunctionPD(1.0, 0.0)
    with pytest.raises(ValueError):
        NFunctionPD(2.5, 0.0)
    with pytest.raises(ValueError):
        NFunctionPD(1.5, -0.1)
    with pytest.raises(ValueError):
        NFunctionPD(float("nan"), 0.0)


class TestPhiEval:
    def test_zero(self):
        assert NFunctionPD(1.5).phi(0.0) == 0.0

    def test_pure_power(self):
        # t^p/p for delta = 0, cross-checked by quadrature of phi'
        val = NFunctionPD(1.5).phi(4.0)
        assert val == pytest.approx(16.0 / 3.0, rel=1e-14)
        ref, _ = quad(lambda s: s**0.5, 0.0, 4.0, epsrel=1e-13)
        assert val == pytest.approx(ref, rel=1e-11)

    def test_quadratic(self):
        assert NFunctionPD(2.0).phi(3.0) == pytest.approx(4.5, rel=1e-14)

    @pytest.mark.parametrize("p,delta,t", [(1.2, 0.1, 3.0), (1.5, 1.0, 1e-5),
                                           (1.8, 2.0, 7.0), (2.0, 0.4, 0.3)])
    def test_matches_quadrature(self, p, delta, t):
        ref, _ = quad(lambda s: (delta + s) ** (p - 2.0) * s, 0.0, t,
                      epsabs=1e-300, epsrel=1e-13)
        assert NFunctionPD(p, delta).phi(t) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("p", [1.01, 1.2, 1.5, 1.8, 2.0])
    def test_tiny_shift_is_the_pure_power(self, p):
        # at delta/t <= 1e-100 phi(t) is t^p/p to double precision; the log1p
        # form alone gave nan, inf or 0 there once delta fell below ~1e-100
        t = np.repeat(np.logspace(-100, 100, 21), 4)
        delta = t * np.tile([1e-100, 1e-150, 1e-200, 1e-300], 21)
        keep = delta > 0.0  # 0 below the subnormal range
        val = orlicz._phi_closed(p, delta[keep], t[keep])
        assert np.all(np.isfinite(val))
        np.testing.assert_allclose(val, t[keep] ** p / p, rtol=1e-12, atol=0.0)


# The exponents, shifts and times of the bit-equality property below: every
# branch of _phi_closed, the lost digits of tiny shifts and overflow included.
PHI_EXPONENTS = st.sampled_from(orlicz.P_GRID + (1.01,))
PHI_SHIFTS = st.one_of(st.sampled_from([0.0, 1e-300, 1e-160, 1e-100]), st.floats(0.0, 10.0))
PHI_TIMES = st.one_of(st.sampled_from([0.0, 1e100]), st.floats(0.0, 10.0))
# a Python float, or an array shape; any three broadcast together
PHI_SHAPES = st.sampled_from([None, (), (24,), (3, 1), (1, 24), (3, 24)])


def phi_argument(data, values):
    shape = data.draw(PHI_SHAPES)
    return data.draw(values if shape is None else arrays(np.float64, shape, elements=values))


def assert_phi_closed_is_the_masked_oracle(p, delta, t):
    got, want = orlicz._phi_closed(p, delta, t), oracles.phi_closed_masked(p, delta, t)
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_phi_closed_is_the_masked_oracle_to_the_bit(data):
    assert_phi_closed_is_the_masked_oracle(
        *(phi_argument(data, values) for values in (PHI_EXPONENTS, PHI_SHIFTS, PHI_TIMES)))


@pytest.mark.parametrize("p", orlicz.P_GRID + (1.01,))
def test_phi_closed_is_the_masked_oracle_on_mixed_samples(p):
    # uniform times, which the property above draws rarely: numpy squares
    # where a broadcast p is 2, and its vector power misses the square in
    # the last bit at about 4% of them
    rng = np.random.default_rng(3)
    delta = rng.choice([0.0, 1e-300, 1e-160, 1e-100, 0.5], 4096)
    delta[delta == 0.5] = rng.uniform(0.0, 10.0, np.count_nonzero(delta == 0.5))
    t = rng.choice([0.0, 1e100, 0.5], 4096)
    t[t == 0.5] = rng.uniform(0.0, 10.0, np.count_nonzero(t == 0.5))
    for args in ((p, delta, t), (p, 0.0, t), (np.full(4096, p), delta, t),
                 (p, delta[:64, None], t[None, :64]), (rng.choice(orlicz.P_GRID, 4096), delta, t)):
        assert_phi_closed_is_the_masked_oracle(*args)


class TestShiftedDensity:
    # the derivative of the alpha-shifted density at t is op_A's first
    # component at (t, 0)
    def test_quadratic_is_shift_free(self):
        assert op_A(NFunctionPD(2.0), 5.0, [7.0, 0.0])[0] == pytest.approx(7.0)

    def test_closed_form_vs_composition(self):
        # definition: phi'(alpha+t) t / (alpha+t)
        nf = NFunctionPD(1.5)
        val = op_A(nf, 1.0, [1.0, 0.0])[0]
        assert val == pytest.approx(2.0**-0.5, rel=1e-14)
        comp = op_A(nf, 0.0, [1.0 + 1.0, 0.0])[0] * 1.0 / (1.0 + 1.0)
        assert val == pytest.approx(comp, rel=1e-14)

    def test_vanishes_at_zero(self):
        np.testing.assert_array_equal(op_A(NFunctionPD(1.2, 0.3), 0.7, [0.0, 0.0]), 0.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            NFunctionPD(1.5).shifted(-1.0)

    def test_shifted_phi_by_quadrature(self, rng):
        nf = NFunctionPD(1.4, 0.05)
        for _ in range(5):
            alpha = float(rng.uniform(0.0, 2.0))
            t = float(rng.uniform(0.0, 5.0))
            ref, _ = quad(lambda s: (nf.delta + alpha + s) ** (nf.p - 2.0) * s,
                          0.0, t, epsabs=1e-300, epsrel=1e-13)
            assert nf.shifted(alpha).phi(t) == pytest.approx(ref, rel=1e-9, abs=1e-14)


class TestVectorOperators:
    def test_op_A_identity_at_p2(self):
        out = op_A(NFunctionPD(2.0), 0.0, [3.0, 4.0])
        np.testing.assert_array_equal(out, [3.0, 4.0])

    def test_op_A_scalar_oracle(self):
        out = op_A(NFunctionPD(1.5), 0.0, [4.0, 0.0])
        np.testing.assert_allclose(out, [2.0, 0.0], rtol=1e-14)

    def test_op_A_zero(self):
        out = op_A(NFunctionPD(1.5), 0.3, [0.0, 0.0])
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_op_S_identity_at_p2(self):
        np.testing.assert_array_equal(op_S_eps(2.0, 0.3, [1.0, 2.0]), [1.0, 2.0])

    def test_op_S_coincides_with_op_A_unshifted(self):
        a = [4.0, 0.0]
        np.testing.assert_allclose(op_S_eps(1.5, 0.0, a),
                                   op_A(NFunctionPD(1.5), 0.0, a), rtol=1e-14)

    def test_op_S_scalar_oracle(self):
        out = op_S_eps(1.5, 3.0, [4.0, 0.0])
        np.testing.assert_allclose(out, [4.0 * 25.0**-0.25, 0.0], rtol=1e-14)

    def test_p2_collapse_bitwise(self, rng):
        # both operators must return a exactly for p = 2, delta = 0
        nf = NFunctionPD(2.0)
        for _ in range(50):
            a = rng.uniform(-10, 10, 2)
            alpha = float(rng.uniform(0, 5))
            eps = float(rng.uniform(0, 1))
            np.testing.assert_array_equal(op_A(nf, alpha, a), a)
            np.testing.assert_array_equal(op_S_eps(2.0, eps, a), a)

    def test_potential_consistency(self, rng):
        # A_alpha equals the gradient of a -> phi_alpha(|a|), by central differences
        h = 1e-6
        for p, delta, alpha in [(1.5, 0.0, 0.0), (1.2, 0.1, 0.4), (1.8, 0.0, 1.0)]:
            nf = NFunctionPD(p, delta)
            shifted = nf.shifted(alpha)
            for _ in range(20):
                a = rng.uniform(-3, 3, 2)
                if np.linalg.norm(a) < 0.1:
                    continue
                exact = op_A(nf, alpha, a)
                for d in range(2):
                    ap, am = a.copy(), a.copy()
                    ap[d] += h
                    am[d] -= h
                    fd = (shifted.phi(np.linalg.norm(ap))
                          - shifted.phi(np.linalg.norm(am))) / (2 * h)
                    assert fd == pytest.approx(exact[d], rel=1e-5, abs=1e-8)


class TestUniformEpsBound:
    @staticmethod
    def check(p, delta, eps, a):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        with kernel_errstate():  # rhs depends on p, delta and eps alone
            return np.broadcast_arrays(*oracles.uniform_eps_bound(p, delta, eps, a,
                                                                  orlicz.vnorm(a)))

    def test_p2_trivial(self):
        lhs, rhs, holds = self.check(2.0, 0.0, 0.5, [1.0, 1.0])
        assert lhs[0] == 0.0 and rhs[0] == 0.0 and holds[0]

    def test_scalar_example(self):
        lhs, rhs, holds = self.check(1.5, 0.0, 0.01, [1.0, 0.0])
        assert lhs[0] == pytest.approx(abs(1.01**-0.5 - 1.0), rel=1e-12)
        assert rhs[0] == pytest.approx(0.05, rel=1e-12)
        assert holds[0]

    def test_zero_vector(self):
        lhs, _, holds = self.check(1.3, 0.1, 0.2, [0.0, 0.0])
        assert lhs[0] == 0.0 and holds[0]


class TestOrliczStability:
    @staticmethod
    def check(p, delta, eps, a, b):
        a, ra, b, rb, s = pairs(a, b)
        with kernel_errstate():
            return oracles.orlicz_stability(p, delta + eps, a, ra, b, rb, s)

    def test_equal_arguments(self):
        a = [0.7, -0.3]
        lhs, rhs, holds = self.check(1.4, 0.05, 0.2, a, a)
        assert lhs[0] == pytest.approx(0.0, abs=1e-14)
        assert rhs[0] == pytest.approx(0.0, abs=1e-14)
        assert holds[0]

    def test_quadratic_identity(self):
        # p = 2 makes the inequality an algebraic identity:
        # b.(b-a) = |b|^2/2 - |a|^2/2 + |b-a|^2/2
        lhs, rhs, holds = self.check(2.0, 0.0, 0.0, [1.0, 0.0], [2.0, 0.0])
        assert lhs[0] == pytest.approx(2.0, rel=1e-14)
        assert rhs[0] == pytest.approx(2.0, rel=1e-14)
        assert holds[0]

    def test_example_holds(self):
        assert self.check(1.5, 0.0, 0.1, [1.0, 0.0], [0.5, 0.0])[2][0]

    def test_randomized(self, rng):
        n = 2000
        p = rng.choice(orlicz.P_GRID, size=n)
        delta = rng.choice(orlicz.DELTA_GRID, size=n)
        eps = rng.uniform(1e-6, 1.0, size=n)
        holds = self.check(p, delta, eps, rng.uniform(-10, 10, (n, 2)),
                           rng.uniform(-10, 10, (n, 2)))[2]
        assert holds.all()


class TestLaggedWeight:
    @staticmethod
    def ratio(p, delta, eps, a, b):
        a, ra, _, rb, s = pairs(a, b)
        with kernel_errstate():
            return oracles.lagged_weight(p, delta + eps, a, ra, rb, s)

    def test_equal_arguments(self):
        a = [1.0, 2.0]
        assert self.ratio(1.5, 0.0, 0.05, a, a)[0] == 0.0

    def test_constant_weight_at_p2(self, rng):
        n = 20
        ratio = self.ratio(2.0, 0.0, rng.uniform(0, 1, n), rng.uniform(-5, 5, (n, 2)),
                           rng.uniform(-5, 5, (n, 2)))
        np.testing.assert_allclose(ratio, 0.0, rtol=0.0, atol=1e-12)

    def test_ratio_below_frozen_constant(self, rng):
        n = 5000
        p = rng.choice(orlicz.P_GRID, size=n)
        delta = rng.choice(orlicz.DELTA_GRID, size=n)
        ratio = self.ratio(p, delta, rng.uniform(0, 1, n), rng.uniform(-10, 10, (n, 2)),
                           rng.uniform(-10, 10, (n, 2)))
        assert ratio.max() <= orlicz.LAGGED_WEIGHT_RATIO_MAX


class TestMonotonicityEquivalence:
    @staticmethod
    def forms(p, shift, a, b):
        with kernel_errstate():
            return oracles.monotone_forms(p, shift, *pairs(a, b))

    def test_quadratic_example(self):
        inner, shifted, quotient = self.forms(2.0, 0.0, [1.0, 0.0], [0.0, 1.0])
        assert inner[0] == pytest.approx(2.0, rel=1e-12)
        assert quotient[0] == pytest.approx(2.0, rel=1e-12)
        assert shifted[0] == pytest.approx(1.0, rel=1e-9)

    def test_antipodal(self):
        inner = self.forms(2.0, 0.0, [1.0, 0.0], [-1.0, 0.0])[0]
        assert inner[0] == pytest.approx(4.0, rel=1e-12)

    def test_sampled_ratios_in_frozen_intervals(self, rng):
        nf = NFunctionPD(1.5, 0.1)
        n = 3000
        a = rng.uniform(-10, 10, (n, 2))
        b = rng.uniform(-10, 10, (n, 2))
        alpha = rng.uniform(0.0, 5.0, n)
        assert np.all(orlicz.vnorm(a - b) > 0.0)
        inner, shifted, quotient = self.forms(nf.p, nf.delta + alpha, a, b)
        assert np.all(inner > 0.0) and np.all(shifted > 0.0) and np.all(quotient > 0.0)
        for key, ratio in (("inner-over-shifted", inner / shifted),
                           ("inner-over-quotient", inner / quotient),
                           ("shifted-over-quotient", shifted / quotient)):
            lo, hi = orlicz.MONOTONE_RATIO_BOUNDS[key]
            assert np.all((lo <= ratio) & (ratio <= hi)), key


def test_kappa_bracket_closed_form(rng):
    # (p-1) phi'(r) <= r phi''(r) <= phi'(r), exact via the closed forms
    for _ in range(200):
        p = float(rng.uniform(1.01, 2.0))
        delta = float(rng.uniform(0.0, 2.0))
        r = float(rng.uniform(1e-6, 50.0))
        nf = NFunctionPD(p, delta)
        pp = op_A(nf, 0.0, [r, 0.0])[0]
        bracket = r * float(nf.phi_prime2(r))
        assert bracket >= (p - 1.0) * pp - 1e-12 * max(1.0, pp)
        assert bracket <= pp + 1e-12 * max(1.0, pp)


def test_weight_monotone(rng):
    for _ in range(200):
        p = float(rng.uniform(1.01, 2.0))
        delta = float(rng.choice([0.0, 0.1]))
        nf = NFunctionPD(p, delta)
        r1, r2 = sorted(rng.uniform(1e-9, 10.0, 2))
        w1 = op_A(nf, 0.0, [r1, 0.0])[0] / r1
        w2 = op_A(nf, 0.0, [r2, 0.0])[0] / r2
        assert w1 >= w2 - 1e-12 * max(1.0, w2)


def test_certification_small_run_no_violations():
    results = certify_lemmas(samples=50_000, seed=3)
    names = {r.name for r in results}
    assert {"monotonicity", "uniform-eps-bound", "orlicz-stability",
            "kappa-bracket", "weight-nonincreasing", "lagged-weight-ratio",
            "monotonicity-equivalence", "shifted-density-sandwich",
            "s-eps-difference-quotient"} <= names
    for r in results:
        assert r.violations == 0, f"{r.name}: {r.violations} violations ({r.stats})"


@pytest.mark.parametrize("delta", orlicz.DELTA_GRID)
@pytest.mark.parametrize("p", orlicz.P_GRID)
def test_coincident_and_zero_pairs_certify_without_violations(p, delta):
    # a == b (also at 0), |b| = 0 and a = 0: each check masks such a pair or
    # holds at it, no floating-point warning escapes the kernels, and every
    # stat is the oracle's on the same pairs
    a = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [3.0, -1.0], [0.0, 0.0], [-0.5, 0.25]])
    b = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 1.0], [-0.5, 0.25]])
    alpha = np.array([0.0, 0.0, 1.0, 2.0, 0.0, 0.3])
    n = len(a)
    p, delta, eps = np.full(n, p), np.full(n, delta), np.full(n, 0.5)
    fold = orlicz._Fold()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with kernel_errstate():
            orlicz._certify_block(fold, p, delta, eps, alpha,
                                  *np.ascontiguousarray(a.T), *np.ascontiguousarray(b.T))
    assert fold.violations == dict.fromkeys(orlicz._CHECKS, 0)
    assert _table(fold.results(n)) == _table(oracles.certify_pairs(p, delta, eps, alpha, a, b))


def test_certification_is_deterministic():
    a = certify_lemmas(samples=20_000, seed=11)
    b = certify_lemmas(samples=20_000, seed=11)
    for ra, rb in zip(a, b):
        assert ra.name == rb.name and ra.violations == rb.violations
        assert ra.stats == rb.stats


BLOCK = orlicz.LEMMA_BLOCK


def _table(results):
    return [(r.name, r.samples, r.violations, r.stats) for r in results]


@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize("samples", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_blocked_certification_equals_the_whole_array_oracle(samples, seed):
    assert _table(certify_lemmas(samples, seed)) == _table(oracles.certify_lemmas(samples, seed))


@pytest.mark.parametrize("samples", [BLOCK + 1, 3 * BLOCK + 7])
def test_blocked_certification_counts_every_sample(samples, monkeypatch):
    # under impossible bounds every sample violates, so a skipped one shows
    monkeypatch.setattr(orlicz, "LAGGED_WEIGHT_RATIO_MAX", -1.0)
    monkeypatch.setattr(orlicz, "S_EPS_LIPSCHITZ_MAX", -1.0)
    for key in orlicz.MONOTONE_RATIO_BOUNDS:
        monkeypatch.setitem(orlicz.MONOTONE_RATIO_BOUNDS, key, (2.0, 1.0))
    for pv in orlicz.EQUI_SANDWICH_BOUNDS:
        monkeypatch.setitem(orlicz.EQUI_SANDWICH_BOUNDS, pv, (2.0, 1.0))
    results = certify_lemmas(samples, 5)
    assert _table(results) == _table(oracles.certify_lemmas(samples, 5))
    violations = {r.name: r.violations for r in results}
    assert violations["lagged-weight-ratio"] == samples
    assert violations["s-eps-difference-quotient"] == samples
    assert violations["shifted-density-sandwich"] == samples
    assert violations["monotonicity-equivalence"] == 3 * samples


def test_certification_rejects_fewer_than_one_sample():
    for samples in (0, -5):
        with pytest.raises(ValueError, match="^samples must be >= 1$"):
            certify_lemmas(samples, 0)


def test_fold_propagates_nan_as_whole_array_extremes_do():
    fold = orlicz._Fold()
    for block in ([1.0, 2.0], [], [np.nan, 0.5], [3.0]):
        fold.span("monotonicity", "x", np.asarray(block))
    low, high = fold.stats()["monotonicity"]["x"]
    assert np.isnan(low) and np.isnan(high)
    fold = orlicz._Fold()
    for block in ([1.0, 2.0], [], [3.0]):
        fold.span("monotonicity", "x", np.asarray(block))
        fold.max("monotonicity", "top", np.asarray(block))
        fold.min("monotonicity", "bottom", np.asarray(block))
    assert fold.stats()["monotonicity"] == {"x": (1.0, 3.0), "top": 3.0, "bottom": 1.0}


def test_certification_memory_grows_by_its_inputs_alone():
    # Only the int8 p and delta indices (2 B a sample) are drawn up front and
    # every other array is block-sized, but on the default thread count the
    # working sets of concurrent blocks overlap by chance: from 4 to 8 blocks
    # the traced peak grew by 2.1 B a sample on 1 thread and by -11 to +26 B
    # a sample on 2 to 4 threads (two sets of 5 runs each).  72 B bounds that
    # without flaking; test_certification_memory_grows_by_the_grid_indices_alone
    # pins the one-thread growth.
    def traced_peak(samples):
        tracemalloc.start()
        try:
            certify_lemmas(samples, seed=7)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    certify_lemmas(10, seed=7)  # lazy set-up outside the traced calls
    growth = traced_peak(8 * BLOCK) - traced_peak(4 * BLOCK)
    assert growth <= 72 * 4 * BLOCK


@pytest.mark.parametrize("samples", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_certification_is_the_same_on_any_number_of_threads(samples, monkeypatch):
    expect = _table(oracles.certify_lemmas(samples, 42))
    for threads in (1, 2, 3):
        monkeypatch.setattr(orlicz, "_lemma_threads", lambda: threads)
        assert _table(certify_lemmas(samples, 42)) == expect


def test_a_failing_block_fails_the_certification_and_ends_its_threads(monkeypatch):
    class BlockError(Exception):
        pass

    certify = orlicz._certify_block

    def fail_short_block(fold, p, *args):
        if p.size < BLOCK:  # the last of 3 BLOCK + 7 samples
            raise BlockError("short block")
        certify(fold, p, *args)

    monkeypatch.setattr(orlicz, "_certify_block", fail_short_block)
    monkeypatch.setattr(orlicz, "_lemma_threads", lambda: 3)
    before = threading.active_count()
    with pytest.raises(BlockError, match="^short block$"):
        certify_lemmas(3 * BLOCK + 7, 5)
    assert threading.active_count() == before


def test_certification_memory_grows_by_the_grid_indices_alone(monkeypatch):
    # Only the int8 p and delta indices (2 B a sample) are drawn up front;
    # each block draws its own floats.  One thread, so the peak does not
    # depend on how the working sets of concurrent blocks overlap in time.
    def traced_peak(samples):
        tracemalloc.start()
        try:
            certify_lemmas(samples, seed=7)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(orlicz, "_lemma_threads", lambda: 1)
    certify_lemmas(10, seed=7)  # lazy set-up outside the traced calls
    growth = traced_peak(8 * BLOCK) - traced_peak(4 * BLOCK)
    assert growth <= 4 * 4 * BLOCK


def test_one_block_holds_at_most_16_block_arrays_besides_its_inputs():
    # each shared quantity goes after its last use: one block's traced peak
    # read 14.1 block-sized float arrays besides its 8 inputs, against 25.1
    # when every check computed its own on (n, 2) vector arrays
    rng = np.random.default_rng(7)
    p = rng.choice(np.asarray(orlicz.P_GRID), BLOCK)
    delta = rng.choice(np.asarray(orlicz.DELTA_GRID), BLOCK)
    inputs = [p, delta, rng.uniform(1e-6, 1.0, BLOCK), rng.uniform(0.0, 5.0, BLOCK),
              *orlicz._components(rng.uniform(0.0, 10.0, BLOCK), rng.uniform(0.0, 6.0, BLOCK)),
              *orlicz._components(rng.uniform(0.0, 10.0, BLOCK), rng.uniform(0.0, 6.0, BLOCK))]
    with kernel_errstate():
        orlicz._certify_block(orlicz._Fold(), *inputs)  # lazy set-up outside the traced call
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            orlicz._certify_block(orlicz._Fold(), *inputs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peak <= 16 * 8 * BLOCK


_coord = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(g=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8),
       p=st.floats(1.0, 2.0, exclude_min=True), eps=st.floats(1e-6, 1.0),
       delta=st.floats(0.0, 1.0), kind=st.sampled_from(orlicz.REGULARIZATION_KINDS))
def test_diffusion_weight_times_gradient_is_the_certified_operator(g, p, eps, delta, kind):
    # the weight the solver assembles, times g, is the operator whose
    # inequalities certify_lemmas checks
    g = np.array(g)
    t = np.sqrt(np.sum(g * g, axis=1))
    if kind == orlicz.QUADRATIC_NORM:
        nf = NFunctionPD(p)
        expect = op_S_eps(p, eps, g)
    else:
        nf = NFunctionPD(p, delta)
        expect = op_A(nf, eps, g)
    w = orlicz.diffusion_weight(nf, eps, kind, t)
    np.testing.assert_allclose(w[:, None] * g, expect, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kind", orlicz.REGULARIZATION_KINDS)
@pytest.mark.parametrize("p", orlicz.P_GRID + (1.01, 1.05))
@pytest.mark.parametrize("eps", [1e-3, 0.1, 0.9])
def test_energy_density_weight_and_slope_agree(kind, p, eps):
    # d/dt energy_density = w t and d/dt w = slope t, by central differences
    # of relative step 1e-4, whose error stays below 2e-8 from t = 1e-2 on;
    # the tangent's eigenvalue along the gradient, w + slope t^2, is at
    # least (p - 1) w
    nf = NFunctionPD(p)
    t = np.geomspace(1e-2, 10.0, 61)
    h = 1e-4 * t

    def derivative(f):
        return (f(nf, eps, kind, t + h) - f(nf, eps, kind, t - h)) / (2.0 * h)

    w = orlicz.diffusion_weight(nf, eps, kind, t)
    slope = orlicz.weight_slope(nf, eps, kind, t, w)
    np.testing.assert_allclose(derivative(orlicz.energy_density), w * t, rtol=1e-6, atol=0.0)
    np.testing.assert_allclose(derivative(orlicz.diffusion_weight), slope * t, rtol=1e-6,
                               atol=0.0)
    assert np.all(w + slope * t * t >= (p - 1.0) * w)


def test_diffusion_weight_validation():
    # p = 2 has the constant weight 1, even at a zero gradient without shift
    np.testing.assert_array_equal(
        orlicz.diffusion_weight(NFunctionPD(2.0), 0.0, orlicz.QUADRATIC_NORM, [0.0, 3.0]), 1.0)


def test_operators_and_checks_reject_non_planar_vectors():
    nf = NFunctionPD(1.5)
    with pytest.raises(ValueError, match="2 components"):
        op_A(nf, 0.1, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="2 components"):
        op_S_eps(1.5, 0.1, [[1.0], [2.0]])
    with pytest.raises(ValueError, match="2 components"):
        orlicz.vdot(np.ones((4, 2)), np.ones((4, 3)))
