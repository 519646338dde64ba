import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plapflow import assembly, lower_order, schemes
from plapflow.assembly import (DegenerateWeightError, energy, gradients,
                               jacobian_stiffness, l2_error, load_vector,
                               mass_matrix, norm_L2, quadrature_norm_sq,
                               seminorm_W1p, stiffness_matrix, weighted_mass,
                               weighted_stiffness)
from plapflow.lower_order import LowerOrderCoeff
from plapflow.mesh import FemFunction, TriMesh, interpolate_nodal, prolong, refine_red, unit_square_mesh
from plapflow.orlicz import ADDITIVE_SHIFT, QUADRATIC_NORM, NFunctionPD

import oracles


def reference_triangle():
    return TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([[0, 1, 2]]))


class TestMassMatrix:
    def test_reference_element(self):
        m = reference_triangle()
        M = mass_matrix(m, full=True).toarray()
        expect = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
        np.testing.assert_allclose(M, expect, rtol=1e-14)

    def test_row_sums_are_domain_measure(self):
        M = mass_matrix(unit_square_mesh(4), full=True)
        assert M.sum() == pytest.approx(1.0, rel=1e-13)

    def test_spd(self, mesh4):
        M = mass_matrix(mesh4).toarray()
        np.testing.assert_allclose(M, M.T, rtol=0, atol=0)
        assert np.min(np.linalg.eigvalsh(M)) > 0.0
        np.linalg.cholesky(M)

    def test_against_dense_oracle(self, mesh4):
        M = mass_matrix(mesh4, full=True).toarray()
        ref = oracles.dense_mass(mesh4.nodes, mesh4.cells)
        np.testing.assert_allclose(M, ref, atol=1e-15)


class TestWeightedStiffness:
    def test_reference_element_p2(self):
        m = reference_triangle()
        w = FemFunction.zeros(m)
        K = weighted_stiffness(m, w, NFunctionPD(2.0), 0.3, QUADRATIC_NORM,
                               full=True).toarray()
        expect = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
        np.testing.assert_allclose(K, expect, rtol=1e-14)

    def test_p2_independent_of_weight_argument(self, mesh4, rng):
        nf = NFunctionPD(2.0)
        base = stiffness_matrix(mesh4).toarray()
        for kind in (ADDITIVE_SHIFT, QUADRATIC_NORM):
            w = FemFunction(mesh4, rng.uniform(-2, 2, mesh4.n_interior))
            K = weighted_stiffness(mesh4, w, nf, 0.7, kind).toarray()
            np.testing.assert_allclose(K, base, rtol=1e-14)

    def test_constant_weight_scaling(self, mesh4):
        # zero gradient: additive-shift weight is eps^(p-2) everywhere
        w = FemFunction.zeros(mesh4)
        K = weighted_stiffness(mesh4, w, NFunctionPD(1.5), 0.1, ADDITIVE_SHIFT).toarray()
        np.testing.assert_allclose(K, 0.1**-0.5 * stiffness_matrix(mesh4).toarray(),
                                   rtol=1e-13)

    def test_spd_for_sampled_weights(self, mesh4, rng):
        nf = NFunctionPD(1.4)
        for _ in range(5):
            w = FemFunction(mesh4, rng.uniform(-1, 1, mesh4.n_interior))
            K = weighted_stiffness(mesh4, w, nf, 0.05, QUADRATIC_NORM).toarray()
            np.testing.assert_allclose(K, K.T, atol=0)
            assert np.min(np.linalg.eigvalsh(K)) > 0.0

    def test_degenerate_weight_rejected(self, mesh4):
        w = FemFunction.zeros(mesh4)  # zero gradient on every cell
        with pytest.raises(DegenerateWeightError):
            weighted_stiffness(mesh4, w, NFunctionPD(1.5), 0.0, ADDITIVE_SHIFT)
        with pytest.raises(DegenerateWeightError):
            weighted_stiffness(mesh4, w, NFunctionPD(1.5), 0.0, QUADRATIC_NORM)

    def test_quadratic_norm_rejects_delta(self, mesh4):
        w = FemFunction.zeros(mesh4)
        with pytest.raises(ValueError):
            weighted_stiffness(mesh4, w, NFunctionPD(1.5, 0.1), 0.1, QUADRATIC_NORM)

    def test_jacobian_is_derivative_of_weighted_term(self, mesh4, rng):
        # directional derivative of u -> K_w(u) u matches the assembled tangent
        for kind in (ADDITIVE_SHIFT, QUADRATIC_NORM):
            nf = NFunctionPD(1.6)
            u = FemFunction(mesh4, rng.uniform(-1, 1, mesh4.n_interior))
            v = rng.uniform(-1, 1, mesh4.n_interior)
            J = jacobian_stiffness(mesh4, u, nf, 0.2, kind)
            h = 1e-7

            def term(c):
                f = FemFunction(mesh4, c)
                return weighted_stiffness(mesh4, f, nf, 0.2, kind) @ c

            fd = (term(u.coeffs + h * v) - term(u.coeffs - h * v)) / (2 * h)
            np.testing.assert_allclose(J @ v, fd, rtol=1e-5, atol=1e-7)


class TestWeightedMass:
    def test_midpoint_mass_is_derivative_of_weighted_term(self, mesh4, rng):
        # directional derivative of u -> M_d(u) u matches the Newton tangent
        for coeff in (LowerOrderCoeff.power(2.5), LowerOrderCoeff.shifted_power(2.5, 0.5)):
            u = FemFunction(mesh4, rng.uniform(-1, 1, mesh4.n_interior))
            v = rng.uniform(-1, 1, mesh4.n_interior)
            gp = lower_order.g_prime_eval(coeff, assembly.values_at_midpoints(u))
            J = assembly.midpoint_mass(mesh4, gp)
            h = 1e-7

            def term(c):
                return weighted_mass(mesh4, FemFunction(mesh4, c), coeff) @ c

            fd = (term(u.coeffs + h * v) - term(u.coeffs - h * v)) / (2 * h)
            np.testing.assert_allclose(J @ v, fd, rtol=1e-5, atol=1e-7)

    def test_zero_coefficient(self, mesh4):
        w = FemFunction.zeros(mesh4)
        M = weighted_mass(mesh4, w, LowerOrderCoeff.zero())
        assert M.nnz == 0

    def test_power_vanishes_at_zero_state(self, mesh4):
        M = weighted_mass(mesh4, FemFunction.zeros(mesh4), LowerOrderCoeff.power(2.5))
        assert abs(M).max() == 0.0

    def test_h1_shift_makes_psd(self, mesh4, rng):
        coeff = LowerOrderCoeff.shifted_power(2.5, 0.8)
        for _ in range(3):
            w = FemFunction(mesh4, rng.uniform(-2, 2, mesh4.n_interior))
            Md = weighted_mass(mesh4, w, coeff).toarray()
            M = mass_matrix(mesh4).toarray()
            eigs = np.linalg.eigvalsh(Md + coeff.c7 * M)
            assert np.min(eigs) > -1e-12


class TestLoadVector:
    def test_zero_source(self, mesh4):
        f = load_vector(mesh4, lambda x, y, t: np.zeros_like(x))
        np.testing.assert_array_equal(f, np.zeros(mesh4.n_interior))

    def test_partition_of_unity(self, mesh4):
        f = load_vector(mesh4, lambda x, y, t: np.ones_like(x), full=True)
        assert np.sum(f) == pytest.approx(1.0, rel=1e-13)

    def test_interior_entry_is_support_third(self):
        # exact hat integral: int psi_i = (support area) / 3
        m = unit_square_mesh(2)
        f = load_vector(m, lambda x, y, t: np.ones_like(x))
        node = m.interior[0]
        support = sum(area for area, tri in zip(m.areas, m.cells) if node in tri)
        assert f[0] == pytest.approx(support / 3.0, rel=1e-14)
        # on this mesh the center hat is supported on 6 of the 8 cells
        assert f[0] == pytest.approx(0.25, rel=1e-14)

    def test_midpoint_rule_exact_for_quadratics(self, mesh4):
        # ||x||^2 over the unit square is 1/3, the rule reproduces it exactly
        val = quadrature_norm_sq(mesh4, lambda x, y, t: x)
        assert val == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_seven_point_cross_check(self, mesh4):
        # pairing of a polynomial source with one hat, vs the degree-5 rule
        def f(x, y, t=0.0):
            return x + 2.0 * y

        vec = load_vector(mesh4, f)
        i = 3
        node = mesh4.interior[i]
        hat = np.zeros(mesh4.n_nodes)
        hat[node] = 1.0
        bary = assembly._QUAD7_BARY
        wq = assembly._QUAD7_W
        v = mesh4.nodes[mesh4.cells]
        xq = np.einsum("qi,mid->mqd", bary, v)
        hq = np.einsum("qi,mi->mq", bary, hat[mesh4.cells])
        ref = np.sum(mesh4.areas[:, None] * wq * f(xq[..., 0], xq[..., 1]) * hq)
        assert vec[i] == pytest.approx(ref, rel=1e-13)


class TestEnergyAndNorms:
    def test_energy_of_zero_quadratic_norm(self, mesh4):
        val = energy(FemFunction.zeros(mesh4), NFunctionPD(1.5), 0.2, QUADRATIC_NORM)
        assert val == pytest.approx(0.2**1.5 / 1.5, rel=1e-14)

    def test_energy_of_zero_additive_shift(self, mesh4):
        assert energy(FemFunction.zeros(mesh4), NFunctionPD(1.5), 0.2,
                      ADDITIVE_SHIFT) == 0.0

    def test_energy_zero_eps(self, mesh4):
        u = FemFunction.zeros(mesh4)
        for kind in (ADDITIVE_SHIFT, QUADRATIC_NORM):
            assert energy(u, NFunctionPD(1.5), 0.0, kind) == 0.0

    def test_single_hat_energy_cellwise(self):
        # integrand is constant per cell: closed form = any quadrature
        m = unit_square_mesh(2)
        u = FemFunction(m, np.array([1.0]))
        nf = NFunctionPD(1.5)
        eps = 0.3
        g = gradients(u)
        gn = np.sqrt(np.sum(g * g, axis=1))
        expect = float(np.sum(m.areas * (gn**2 + eps**2) ** 0.75) / 1.5)
        assert energy(u, nf, eps, QUADRATIC_NORM) == pytest.approx(expect, rel=1e-14)

    def test_energy_monotone_in_eps(self, mesh4, rng):
        nf = NFunctionPD(1.3)
        u = FemFunction(mesh4, rng.uniform(-1, 1, mesh4.n_interior))
        vals = [energy(u, nf, e, QUADRATIC_NORM) for e in (0.0, 0.1, 0.5, 0.9)]
        assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_norms_of_zero(self, mesh4):
        u = FemFunction.zeros(mesh4)
        assert norm_L2(u) == 0.0
        assert seminorm_W1p(u, 1.5) == 0.0

    def test_single_hat_norms_match_matrix_diagonals(self):
        m = unit_square_mesh(2)
        u = FemFunction(m, np.array([1.0]))
        K = stiffness_matrix(m).toarray()
        M = mass_matrix(m).toarray()
        assert seminorm_W1p(u, 2.0) == pytest.approx(np.sqrt(K[0, 0]), rel=1e-13)
        assert seminorm_W1p(u, 2.0) == pytest.approx(2.0, rel=1e-13)
        assert norm_L2(u) == pytest.approx(np.sqrt(M[0, 0]), rel=1e-13)

    def test_seminorm_survives_prolongation(self, rng):
        parent = unit_square_mesh(4)
        child = refine_red(parent)
        u = FemFunction(parent, rng.uniform(-1, 1, parent.n_interior))
        v = prolong(u, child)
        assert seminorm_W1p(v, 1.5) == pytest.approx(seminorm_W1p(u, 1.5), rel=1e-12)

    def test_l2_error_of_interpolant(self):
        # degree-5 rule against a known integral: error of the zero function
        m = unit_square_mesh(3)
        u = FemFunction.zeros(m)
        # ||sin(pi x) sin(pi y)||_L2 = 1/2
        val = l2_error(u, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        assert val == pytest.approx(0.5, rel=1e-4)


def jittered_unit_square(n, seed, amount=0.1):
    """unit_square_mesh(n) with every interior node moved by up to amount * h per axis."""
    m = unit_square_mesh(n)
    nodes = m.nodes.copy()
    shift = np.random.default_rng(seed).uniform(-amount, amount, (m.n_interior, 2)) / n
    nodes[m.interior] += shift
    return TriMesh(nodes, m.cells)


class TestSharedPattern:
    @staticmethod
    def all_matrices(m, w, full):
        nf = NFunctionPD(1.5)
        coeff = LowerOrderCoeff.shifted_power(2.5, 0.5)
        qvals = np.random.default_rng(7).uniform(-1, 1, (m.n_cells, 3))
        return [mass_matrix(m, full), stiffness_matrix(m, full),
                weighted_stiffness(m, w, nf, 0.2, QUADRATIC_NORM, full),
                jacobian_stiffness(m, w, nf, 0.2, ADDITIVE_SHIFT, full),
                assembly.midpoint_mass(m, qvals, full),
                weighted_mass(m, w, coeff, full)]

    @pytest.mark.parametrize("full", [False, True])
    def test_one_sorted_pattern(self, full, rng):
        m = jittered_unit_square(5, 3)
        w = FemFunction(m, rng.uniform(-1, 1, m.n_interior))
        mats = self.all_matrices(m, w, full)
        first = mats[0]
        n = m.n_nodes if full else m.n_interior
        assert first.shape == (n, n)
        for mat in mats[1:]:
            np.testing.assert_array_equal(mat.indptr, first.indptr)
            np.testing.assert_array_equal(mat.indices, first.indices)
        # strictly increasing columns in every row: sorted and no duplicates
        rows = np.repeat(np.arange(n), np.diff(first.indptr))
        later = np.flatnonzero(rows[1:] == rows[:-1])
        assert np.all(first.indices[later + 1] > first.indices[later])

    def test_second_call_reuses_cached_pattern(self, rng):
        m = jittered_unit_square(4, 5)
        nf = NFunctionPD(1.5)
        w = FemFunction(m, rng.uniform(-1, 1, m.n_interior))
        a = weighted_stiffness(m, w, nf, 0.2, QUADRATIC_NORM)
        b = weighted_stiffness(m, w, nf, 0.3, QUADRATIC_NORM)
        assert np.shares_memory(a.indices, b.indices)
        assert np.shares_memory(a.indices, mass_matrix(m).indices)
        assert not np.shares_memory(a.data, b.data)

    @pytest.mark.parametrize("coeff", [LowerOrderCoeff.zero(),
                                       LowerOrderCoeff.shifted_power(2.5, 0.5)])
    def test_system_matrix_is_the_sparse_sum(self, coeff, rng):
        m = jittered_unit_square(6, 11)
        cfg = schemes.SchemeConfig(mesh=m, nf=NFunctionPD(1.5), eps=0.1, K=4, T=0.2,
                                   coeff=coeff)
        v = FemFunction(m, rng.uniform(-1, 1, m.n_interior))
        expect = (mass_matrix(m) / cfg.tau
                  + weighted_stiffness(m, v, cfg.nf, cfg.eps, cfg.kind)
                  + weighted_mass(m, v, coeff)).toarray()
        got = schemes._system_matrix(v, cfg).toarray()
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-14 * np.max(np.abs(expect)))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_against_dense_oracles_on_jittered_meshes(self, n, seed):
        m = jittered_unit_square(n, seed)
        free = np.ix_(m.interior, m.interior)
        for assemble, dense in ((mass_matrix, oracles.dense_mass),
                                (stiffness_matrix, oracles.dense_stiffness)):
            ref = dense(m.nodes, m.cells)
            scale = np.max(np.abs(ref))
            np.testing.assert_allclose(assemble(m, full=True).toarray(), ref,
                                       rtol=0, atol=1e-14 * scale)
            np.testing.assert_allclose(assemble(m).toarray(), ref[free],
                                       rtol=0, atol=1e-14 * scale)


def test_symmetry_is_exact(mesh8, rng):
    nf = NFunctionPD(1.5)
    w = FemFunction(mesh8, rng.uniform(-1, 1, mesh8.n_interior))
    for mat in (mass_matrix(mesh8), stiffness_matrix(mesh8),
                weighted_stiffness(mesh8, w, nf, 0.2, QUADRATIC_NORM),
                weighted_mass(mesh8, w, LowerOrderCoeff.power(2.5))):
        diff = (mat - mat.T)
        assert diff.nnz == 0 or abs(diff).max() == 0.0
