import numpy as np
import pytest

from plapflow.lower_order import (IMPLICIT, SEMI_IMPLICIT, LowerOrderCoeff,
                                  admissibility, d_eval, g_prime_eval)


def test_registry_validation():
    LowerOrderCoeff()
    LowerOrderCoeff(2.5)
    LowerOrderCoeff(3.0, 0.7)
    with pytest.raises(ValueError):
        LowerOrderCoeff(2.0)  # r must exceed 2
    with pytest.raises(ValueError):
        LowerOrderCoeff(1.5)
    with pytest.raises(ValueError, match="no shift"):
        LowerOrderCoeff(None, 0.5)
    with pytest.raises(ValueError, match="finite"):
        LowerOrderCoeff(2.5, np.inf)


class TestEvaluation:
    def test_zero_kind(self):
        # d = 0 is r = None; its callers leave the term out instead of evaluating it
        z = LowerOrderCoeff()
        assert z.is_zero and z.r is None and z.c == 0.0 and z.c7 == 0.0
        assert not LowerOrderCoeff(2.5).is_zero
        assert admissibility(z, 1.5, IMPLICIT) and admissibility(z, 1.5, SEMI_IMPLICIT)

    def test_power_scalar(self):
        c = LowerOrderCoeff(2.5)
        assert d_eval(c, 4.0) == pytest.approx(2.0)
        assert d_eval(c, 4.0) * 4.0 == pytest.approx(8.0)

    def test_power_even_symmetry(self):
        c = LowerOrderCoeff(4.0)
        assert d_eval(c, -3.0) == pytest.approx(9.0)
        assert d_eval(c, -3.0) * -3.0 == pytest.approx(-27.0)

    def test_g_vanishes_at_zero(self):
        for c in (LowerOrderCoeff(2.5), LowerOrderCoeff(3.0, 1.0), LowerOrderCoeff(3.0, -1.0)):
            assert d_eval(c, 0.0) * 0.0 == 0.0

    def test_shifted_power(self):
        c = LowerOrderCoeff(3.0, 0.5)
        assert d_eval(c, 2.0) == pytest.approx(1.5)
        assert d_eval(c, 2.0) * 2.0 == pytest.approx(3.0)

    def test_vectorized(self):
        c = LowerOrderCoeff(2.5)
        s = np.array([0.0, 1.0, 4.0, -4.0])
        np.testing.assert_allclose(d_eval(c, s), [0.0, 1.0, 2.0, 2.0])

    def test_g_prime_is_derivative(self, rng):
        h = 1e-6
        for c in (LowerOrderCoeff(2.5), LowerOrderCoeff(4.0),
                  LowerOrderCoeff(3.5, 0.3)):
            for s in rng.uniform(-4.0, 4.0, 20):
                if abs(s) < 0.05:
                    continue
                fd = (d_eval(c, s + h) * (s + h) - d_eval(c, s - h) * (s - h)) / (2 * h)
                assert g_prime_eval(c, s) == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestGrowthBounds:
    @pytest.mark.parametrize("coeff", [LowerOrderCoeff(2.2, -0.5),
                                       LowerOrderCoeff(2.5),
                                       LowerOrderCoeff(3.7),
                                       LowerOrderCoeff(2.8, 1.3)])
    def test_h1_h2_sampled(self, coeff, rng):
        s = rng.uniform(-50.0, 50.0, 100_000)
        d = d_eval(coeff, s)
        assert np.all(d >= -coeff.c7 - 1e-12)
        c8 = max(1.0, abs(coeff.c))  # |d(s)| <= c8 (1 + |s|^(r-2))
        bound = c8 * (1.0 + np.abs(s) ** (coeff.r - 2.0))
        assert np.all(np.abs(d) <= bound + 1e-12 * np.maximum(1.0, bound))

    def test_g_growth(self, rng):
        coeff = LowerOrderCoeff(2.9, 0.4)
        c8 = max(1.0, abs(coeff.c))  # |d(s)| <= c8 (1 + |s|^(r-2))
        c9 = c8 * 2.0  # |g| = |d| |s| <= c8 (|s| + |s|^(r-1)) <= 2 c8 (1+|s|^(r-1))
        s = rng.uniform(-30.0, 30.0, 10_000)
        g = d_eval(coeff, s) * s
        assert np.all(np.abs(g) <= c9 * (1.0 + np.abs(s) ** (coeff.r - 1.0)) + 1e-12)

    def test_g_continuous(self, rng):
        coeff = LowerOrderCoeff(2.5)
        s = rng.uniform(-2.0, 2.0, 100)
        for h in (1e-3, 1e-6, 1e-9):
            gap = np.max(np.abs(d_eval(coeff, s + h) * (s + h) - d_eval(coeff, s) * s))
            assert gap <= 10.0 * np.sqrt(h)


class TestAdmissibility:
    def test_theorem_intervals_d2(self):
        assert admissibility(LowerOrderCoeff(2.5), 1.5, SEMI_IMPLICIT) is True
        assert admissibility(LowerOrderCoeff(2.6), 1.5, SEMI_IMPLICIT) is False
        assert admissibility(LowerOrderCoeff(3.0), 1.5, IMPLICIT) is True

    def test_boundaries(self):
        # implicit: (2, 2p]; semi-implicit: (2, p+1] for p < 2, (2, 3) at p = 2
        assert admissibility(LowerOrderCoeff(3.01), 1.5, IMPLICIT) is False
        assert admissibility(LowerOrderCoeff(2.9), 2.0, SEMI_IMPLICIT) is True
        assert admissibility(LowerOrderCoeff(3.0), 2.0, SEMI_IMPLICIT) is False
        assert admissibility(LowerOrderCoeff(4.0), 2.0, IMPLICIT) is True
        assert admissibility(LowerOrderCoeff(4.01), 2.0, IMPLICIT) is False

    def test_zero_always_admissible(self):
        z = LowerOrderCoeff()
        assert admissibility(z, 1.2, IMPLICIT) and admissibility(z, 1.2, SEMI_IMPLICIT)
