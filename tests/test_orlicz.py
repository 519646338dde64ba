import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import oracles

from plapflow import orlicz
from plapflow.orlicz import (NFunctionPD, certify_lemmas, check_lagged_weight_estimate,
                             check_monotonicity_equivalence, check_orlicz_stability,
                             check_uniform_eps_bound, op_A, op_S_eps, phi_eval,
                             phi_shifted, phi_shifted_prime)


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


def test_kappa_constants():
    nf = NFunctionPD(1.3, 0.2)
    assert nf.kappa0 == pytest.approx(0.3)
    assert nf.kappa1 == 1.0


class TestPhiEval:
    def test_zero(self):
        assert phi_eval(NFunctionPD(1.5), 0.0) == 0.0

    def test_pure_power(self):
        # t^p/p for delta = 0, cross-checked by quadrature of phi'
        val = phi_eval(NFunctionPD(1.5), 4.0)
        assert val == pytest.approx(16.0 / 3.0, rel=1e-14)
        ref, _ = quad(lambda s: s**0.5, 0.0, 4.0, epsrel=1e-13)
        assert val == pytest.approx(ref, rel=1e-11)

    def test_quadratic(self):
        assert phi_eval(NFunctionPD(2.0), 3.0) == pytest.approx(4.5, rel=1e-14)

    @pytest.mark.parametrize("p,delta,t", [(1.2, 0.1, 3.0), (1.5, 1.0, 1e-5),
                                           (1.8, 2.0, 7.0), (2.0, 0.4, 0.3)])
    def test_matches_quadrature(self, p, delta, t):
        ref, _ = quad(lambda s: (delta + s) ** (p - 2.0) * s, 0.0, t,
                      epsabs=1e-300, epsrel=1e-13)
        assert phi_eval(NFunctionPD(p, delta), t) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("p", [1.01, 1.2, 1.5, 1.8, 2.0])
    def test_tiny_shift_is_the_pure_power(self, p):
        # at delta/t <= 1e-100 phi(t) is t^p/p to double precision; the log1p
        # form alone gave nan, inf or 0 there once delta fell below ~1e-100
        for t in np.logspace(-100, 100, 21):
            for ratio in (1e-100, 1e-150, 1e-200, 1e-300):
                delta = ratio * t
                if delta == 0.0:  # below the subnormal range
                    continue
                val = phi_eval(NFunctionPD(p, delta), t)
                assert np.isfinite(val)
                assert val == pytest.approx(t**p / p, rel=1e-12, abs=0.0), (t, delta)

    def test_domain_errors(self):
        nf = NFunctionPD(1.5)
        with pytest.raises(ValueError):
            phi_eval(nf, -1.0)
        with pytest.raises(ValueError):
            phi_eval(nf, float("inf"))


class TestShiftedDensity:
    def test_quadratic_is_shift_free(self):
        assert phi_shifted_prime(NFunctionPD(2.0), 5.0, 7.0) == pytest.approx(7.0)

    def test_closed_form_vs_composition(self):
        # definition: phi'(alpha+t) t / (alpha+t)
        nf = NFunctionPD(1.5)
        val = phi_shifted_prime(nf, 1.0, 1.0)
        assert val == pytest.approx(2.0**-0.5, rel=1e-14)
        comp = float(nf.phi_prime(1.0 + 1.0)) * 1.0 / (1.0 + 1.0)
        assert val == pytest.approx(comp, rel=1e-14)

    def test_vanishes_at_zero(self):
        assert phi_shifted_prime(NFunctionPD(1.2, 0.3), 0.7, 0.0) == 0.0

    def test_negative_inputs_rejected(self):
        nf = NFunctionPD(1.5)
        with pytest.raises(ValueError):
            phi_shifted_prime(nf, -1.0, 1.0)
        with pytest.raises(ValueError):
            phi_shifted_prime(nf, 1.0, -1.0)

    def test_shifted_phi_by_quadrature(self, rng):
        nf = NFunctionPD(1.4, 0.05)
        for _ in range(5):
            alpha = float(rng.uniform(0.0, 2.0))
            t = float(rng.uniform(0.0, 5.0))
            ref, _ = quad(lambda s: (nf.delta + alpha + s) ** (nf.p - 2.0) * s,
                          0.0, t, epsabs=1e-300, epsrel=1e-13)
            assert phi_shifted(nf, alpha, t) == pytest.approx(ref, rel=1e-9, abs=1e-14)


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
    def test_p2_trivial(self):
        lhs, rhs, holds = check_uniform_eps_bound(NFunctionPD(2.0), [1.0, 1.0], 0.5)
        assert lhs == 0.0 and rhs == 0.0 and holds

    def test_scalar_example(self):
        lhs, rhs, holds = check_uniform_eps_bound(NFunctionPD(1.5), [1.0, 0.0], 0.01)
        assert lhs == pytest.approx(abs(1.01**-0.5 - 1.0), rel=1e-12)
        assert rhs == pytest.approx(0.05, rel=1e-12)
        assert holds

    def test_zero_vector(self):
        lhs, _, holds = check_uniform_eps_bound(NFunctionPD(1.3, 0.1), [0.0, 0.0], 0.2)
        assert lhs == 0.0 and holds

    def test_requires_positive_eps(self):
        with pytest.raises(ValueError):
            check_uniform_eps_bound(NFunctionPD(1.5), [1.0, 0.0], 0.0)


class TestOrliczStability:
    def test_equal_arguments(self):
        a = [0.7, -0.3]
        lhs, rhs, holds = check_orlicz_stability(NFunctionPD(1.4, 0.05), a, a, 0.2)
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-14)
        assert holds

    def test_quadratic_identity(self):
        # p = 2 makes the inequality an algebraic identity:
        # b.(b-a) = |b|^2/2 - |a|^2/2 + |b-a|^2/2
        lhs, rhs, holds = check_orlicz_stability(NFunctionPD(2.0), [1.0, 0.0],
                                                 [2.0, 0.0], 0.0)
        assert lhs == pytest.approx(2.0, rel=1e-14)
        assert rhs == pytest.approx(2.0, rel=1e-14)
        assert holds

    def test_example_holds(self):
        _, _, holds = check_orlicz_stability(NFunctionPD(1.5), [1.0, 0.0],
                                             [0.5, 0.0], 0.1)
        assert holds

    def test_randomized(self, rng):
        for _ in range(2000):
            p = float(rng.choice([1.2, 1.5, 1.8, 2.0]))
            delta = float(rng.choice([0.0, 0.1]))
            eps = float(rng.uniform(1e-6, 1.0))
            a = rng.uniform(-10, 10, 2)
            b = rng.uniform(-10, 10, 2)
            _, _, holds = check_orlicz_stability(NFunctionPD(p, delta), a, b, eps)
            assert holds


class TestLaggedWeight:
    def test_equal_arguments(self):
        a = [1.0, 2.0]
        lhs, _, ratio = check_lagged_weight_estimate(NFunctionPD(1.5), a, a, 0.05)
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert ratio == 0.0

    def test_constant_weight_at_p2(self, rng):
        nf = NFunctionPD(2.0)
        for _ in range(20):
            a = rng.uniform(-5, 5, 2)
            b = rng.uniform(-5, 5, 2)
            if np.linalg.norm(b) == 0.0:
                continue
            lhs, _, ratio = check_lagged_weight_estimate(nf, a, b, float(rng.uniform(0, 1)))
            assert lhs == pytest.approx(0.0, abs=1e-14)
            assert ratio == pytest.approx(0.0, abs=1e-12)

    def test_ratio_below_frozen_constant(self, rng):
        worst = 0.0
        for _ in range(5000):
            p = float(rng.choice([1.2, 1.5, 1.8, 2.0]))
            delta = float(rng.choice([0.0, 0.1]))
            nf = NFunctionPD(p, delta)
            a = rng.uniform(-10, 10, 2)
            b = rng.uniform(-10, 10, 2)
            if np.linalg.norm(b) < 1e-12:
                continue
            _, _, ratio = check_lagged_weight_estimate(nf, a, b, float(rng.uniform(0, 1)))
            worst = max(worst, ratio)
        assert worst <= orlicz.LAGGED_WEIGHT_RATIO_MAX

    def test_rejects_zero_b(self):
        with pytest.raises(ValueError):
            check_lagged_weight_estimate(NFunctionPD(1.5), [1.0, 0.0], [0.0, 0.0], 0.1)


class TestMonotonicityEquivalence:
    def test_quadratic_example(self):
        inner, shifted, quotient = check_monotonicity_equivalence(
            NFunctionPD(2.0), [1.0, 0.0], [0.0, 1.0], 0.0)
        assert inner == pytest.approx(2.0, rel=1e-12)
        assert quotient == pytest.approx(2.0, rel=1e-12)
        assert shifted == pytest.approx(1.0, rel=1e-9)

    def test_antipodal(self):
        inner, _, _ = check_monotonicity_equivalence(
            NFunctionPD(2.0), [1.0, 0.0], [-1.0, 0.0], 0.0)
        assert inner == pytest.approx(4.0, rel=1e-12)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            check_monotonicity_equivalence(NFunctionPD(1.5), [1.0, 2.0], [1.0, 2.0], 0.0)

    def test_sampled_ratios_in_frozen_intervals(self, rng):
        nf = NFunctionPD(1.5, 0.1)
        for _ in range(3000):
            a = rng.uniform(-10, 10, 2)
            b = rng.uniform(-10, 10, 2)
            alpha = float(rng.uniform(0.0, 5.0))
            if np.linalg.norm(a - b) < 1e-9:
                continue
            inner, shifted, quotient = check_monotonicity_equivalence(nf, a, b, alpha)
            assert inner > 0.0 and shifted > 0.0 and quotient > 0.0
            lo, hi = orlicz.MONOTONE_RATIO_BOUNDS["inner-over-shifted"]
            assert lo <= inner / shifted <= hi
            lo, hi = orlicz.MONOTONE_RATIO_BOUNDS["inner-over-quotient"]
            assert lo <= inner / quotient <= hi
            lo, hi = orlicz.MONOTONE_RATIO_BOUNDS["shifted-over-quotient"]
            assert lo <= shifted / quotient <= hi


def test_kappa_bracket_closed_form(rng):
    # (p-1) phi'(r) <= r phi''(r) <= phi'(r), exact via the closed forms
    for _ in range(200):
        p = float(rng.uniform(1.01, 2.0))
        delta = float(rng.uniform(0.0, 2.0))
        r = float(rng.uniform(1e-6, 50.0))
        nf = NFunctionPD(p, delta)
        pp = float(nf.phi_prime(r))
        bracket = r * float(nf.phi_prime2(r))
        assert bracket >= (p - 1.0) * pp - 1e-12 * max(1.0, pp)
        assert bracket <= pp + 1e-12 * max(1.0, pp)


def test_weight_monotone(rng):
    for _ in range(200):
        p = float(rng.uniform(1.01, 2.0))
        delta = float(rng.choice([0.0, 0.1]))
        nf = NFunctionPD(p, delta)
        r1, r2 = sorted(rng.uniform(1e-9, 10.0, 2))
        w1 = float(nf.phi_prime(r1)) / r1
        w2 = float(nf.phi_prime(r2)) / r2
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
            certify_lemmas(samples)


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
    # All eight float64 inputs are drawn up front (64 B a sample); every
    # other array is block-sized, so doubling the samples adds only the inputs.
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


def test_diffusion_weight_validation():
    nf = NFunctionPD(1.5)
    with pytest.raises(ValueError, match="unknown regularization kind"):
        orlicz.diffusion_weight(nf, 0.1, "cubic", [1.0])
    with pytest.raises(ValueError, match="requires delta = 0"):
        orlicz.diffusion_weight(NFunctionPD(1.5, 0.1), 0.1, orlicz.QUADRATIC_NORM, [1.0])
    with pytest.raises(orlicz.DegenerateWeightError):
        orlicz.diffusion_weight(nf, 0.0, orlicz.ADDITIVE_SHIFT, [1.0, 0.0])
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
        check_uniform_eps_bound(nf, [1.0, 2.0, 3.0], 0.1)
