import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from plapflow import assembly, diagnostics, lower_order, schemes
from plapflow.assembly import (energy, gradients, jacobian_stiffness, load_vector,
                               mass_matrix, norm_L2, quadrature_norm_sq,
                               seminorm_W1p, weighted_mass, weighted_stiffness)
from plapflow.lower_order import LowerOrderCoeff
from plapflow.mesh import FemFunction, TriMesh, interpolate_nodal, prolong, refine_red, unit_square_mesh
from plapflow.fields import make_field, make_source
from plapflow.orlicz import ADDITIVE_SHIFT, QUADRATIC_NORM, NFunctionPD, diffusion_weight, vnorm

import oracles


def stiffness_matrix(mesh):
    """The unweighted Laplace stiffness matrix: the cached stiffness blocks, summed."""
    return assembly._assemble(mesh, assembly._stiffness_blocks(mesh))


def uniform_stencil(m, h, centre, edge, axis_only):
    """Matrix on the interior nodes of a unit_square_mesh of width h with value
    centre on the diagonal and edge between mesh neighbours, found from the
    coordinates: the axis neighbours, plus the lower-left/upper-right diagonal
    ones unless axis_only."""
    x = m.nodes[m.interior]
    d = np.round((x[None, :, :] - x[:, None, :]) / h).astype(int)
    axis = np.abs(d).sum(axis=2) == 1
    diagonal = (d[..., 0] == d[..., 1]) & (np.abs(d[..., 0]) == 1)
    neighbour = axis if axis_only else axis | diagonal
    return centre * np.eye(len(x)) + edge * neighbour


class TestMassMatrix:
    def test_reference_element(self):
        # every cell of unit_square_mesh(n) is the reference triangle scaled by
        # h, with block (h^2/24) [[2,1,1],[1,2,1],[1,1,2]]: a node lies in 6
        # cells and an edge in 2
        m = unit_square_mesh(4)
        h = 0.25
        expect = uniform_stencil(m, h, h * h / 2.0, h * h / 12.0, axis_only=False)
        np.testing.assert_allclose(mass_matrix(m).toarray(), expect, rtol=0, atol=1e-15)

    def test_row_sums_are_domain_measure(self):
        # M 1 pairs each hat with the sum of the interior hats, which is 1 on
        # the support of a hat with no boundary neighbour: there the row sum
        # is the hat integral, i.e. the load of f = 1
        m = jittered_unit_square(6, 2)
        M = mass_matrix(m)
        rim = np.unique(m.cells[m.boundary_node[m.cells].any(axis=1)])
        inner = ~np.isin(m.interior, rim)
        assert np.count_nonzero(inner) == 9
        hat_integrals = load_vector(m, lambda x, y, t: np.ones_like(x))
        np.testing.assert_allclose(np.asarray(M.sum(axis=1)).ravel()[inner],
                                   hat_integrals[inner], rtol=1e-13)
        # and 1^T M 1 is ||sum of interior hats||^2, by the degree-5 rule
        ones = FemFunction(m, np.ones(m.n_interior))
        assert M.sum() == pytest.approx(oracles.l2_error(ones, lambda x, y: 0.0 * x) ** 2, rel=1e-13)

    def test_spd(self, mesh4):
        M = mass_matrix(mesh4).toarray()
        np.testing.assert_allclose(M, M.T, rtol=0, atol=0)
        assert np.min(np.linalg.eigvalsh(M)) > 0.0
        np.linalg.cholesky(M)

    def test_against_dense_oracle(self, mesh4):
        M = mass_matrix(mesh4).toarray()
        ref = oracles.dense_mass(mesh4.nodes, mesh4.cells)
        np.testing.assert_allclose(M, ref[np.ix_(mesh4.interior, mesh4.interior)], atol=1e-15)


class TestWeightedStiffness:
    def test_reference_element_p2(self, rng):
        # reference block (1/2) [[2,-1,-1],[-1,1,0],[-1,0,1]], right angle at
        # node 0, on every cell of unit_square_mesh(n): the 5-point Laplacian
        m = unit_square_mesh(4)
        w = FemFunction(m, rng.uniform(-1, 1, m.n_interior))
        K = weighted_stiffness(m, w, NFunctionPD(2.0), 0.3, QUADRATIC_NORM).toarray()
        expect = uniform_stencil(m, 0.25, 4.0, -1.0, axis_only=True)
        np.testing.assert_allclose(K, expect, rtol=0, atol=1e-14)

    def test_p2_independent_of_weight_argument(self, mesh4, rng):
        nf = NFunctionPD(2.0)
        base = stiffness_matrix(mesh4).toarray()
        for kind in (ADDITIVE_SHIFT, QUADRATIC_NORM):
            w = FemFunction(mesh4, rng.uniform(-2, 2, mesh4.n_interior))
            K = weighted_stiffness(mesh4, w, nf, 0.7, kind).toarray()
            np.testing.assert_allclose(K, base, rtol=1e-14)

    def test_constant_weight_scaling(self, mesh4):
        # zero gradient: additive-shift weight is eps^(p-2) everywhere
        w = FemFunction(mesh4, np.zeros(mesh4.n_interior))
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
        for coeff in (LowerOrderCoeff(2.5), LowerOrderCoeff(2.5, 0.5)):
            u = FemFunction(mesh4, rng.uniform(-1, 1, mesh4.n_interior))
            v = rng.uniform(-1, 1, mesh4.n_interior)
            gp = lower_order.g_prime_eval(coeff, assembly.values_at_midpoints(u))
            J = assembly.midpoint_mass(mesh4, gp)
            h = 1e-7

            def term(c):
                return weighted_mass(mesh4, FemFunction(mesh4, c), coeff) @ c

            fd = (term(u.coeffs + h * v) - term(u.coeffs - h * v)) / (2 * h)
            np.testing.assert_allclose(J @ v, fd, rtol=1e-5, atol=1e-7)

    def test_zero_coefficient(self, mesh4, monkeypatch):
        # d, g' and the weighted mass take no zero coefficient: each caller
        # (the system matrix, Newton's tangent and the walk's lower-order
        # column) leaves its term out instead
        def never(*args):
            raise AssertionError("a lower-order term of the zero coefficient was evaluated")

        for name in ("d_eval", "g_prime_eval"):
            monkeypatch.setattr(lower_order, name, never)
        monkeypatch.setattr(assembly, "weighted_mass", never)
        u0 = interpolate_nodal(make_field("sin-product"), mesh4)
        for scheme, nonlinear in [("semi-implicit", "kacanov"), ("implicit", "kacanov"),
                                  ("implicit", "newton")]:
            cfg = schemes.SchemeConfig(mesh=mesh4, nf=NFunctionPD(1.5), eps=0.1, K=2, T=0.1,
                                       scheme=scheme, nonlinear=nonlinear)
            walk = diagnostics.Walk(cfg)
            schemes.run_evolution(u0, cfg, walk.push)
            assert not walk.cols.lower.any()

    def test_power_vanishes_at_zero_state(self, mesh4):
        zero = FemFunction(mesh4, np.zeros(mesh4.n_interior))
        M = weighted_mass(mesh4, zero, LowerOrderCoeff(2.5))
        assert abs(M).max() == 0.0

    def test_h1_shift_makes_psd(self, mesh4, rng):
        coeff = LowerOrderCoeff(2.5, 0.8)
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

    def test_partition_of_unity(self):
        # the loads of f = 1 sum to the integral of the sum of the interior
        # hats, a P1 function integrated exactly by its cell means
        m = jittered_unit_square(5, 4)
        f = load_vector(m, lambda x, y, t: np.ones_like(x))
        hats = FemFunction(m, np.ones(m.n_interior)).full_values()
        expect = np.sum(m.areas * hats[m.cells].mean(axis=1))
        assert np.sum(f) == pytest.approx(expect, rel=1e-13)

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
        bary = oracles.QUAD7_BARY
        wq = oracles.QUAD7_W
        v = mesh4.nodes[mesh4.cells]
        xq = np.einsum("qi,mid->mqd", bary, v)
        hq = np.einsum("qi,mi->mq", bary, hat[mesh4.cells])
        ref = np.sum(mesh4.areas[:, None] * wq * f(xq[..., 0], xq[..., 1]) * hq)
        assert vec[i] == pytest.approx(ref, rel=1e-13)


class TestEnergyAndNorms:
    def test_energy_of_zero_quadratic_norm(self, mesh4):
        zero = FemFunction(mesh4, np.zeros(mesh4.n_interior))
        val = energy(zero, NFunctionPD(1.5), 0.2, QUADRATIC_NORM)
        assert val == pytest.approx(0.2**1.5 / 1.5, rel=1e-14)

    def test_energy_of_zero_additive_shift(self, mesh4):
        assert energy(FemFunction(mesh4, np.zeros(mesh4.n_interior)), NFunctionPD(1.5), 0.2,
                      ADDITIVE_SHIFT) == 0.0

    def test_energy_zero_eps(self, mesh4):
        u = FemFunction(mesh4, np.zeros(mesh4.n_interior))
        for kind in (ADDITIVE_SHIFT, QUADRATIC_NORM):
            assert energy(u, NFunctionPD(1.5), 0.0, kind) == 0.0

    def test_energy_at_a_tiny_shift_is_the_unshifted_energy(self, mesh4):
        # eps = 1.6e-304 is an admissible config value; the energy was nan there
        u = interpolate_nodal(make_field("sin-product"), mesh4)
        nf = NFunctionPD(1.5)
        tiny = energy(u, nf, 1.6e-304, ADDITIVE_SHIFT)
        assert tiny == pytest.approx(energy(u, nf, 0.0, ADDITIVE_SHIFT), rel=1e-12)

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
        u = FemFunction(mesh4, np.zeros(mesh4.n_interior))
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

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           p=st.floats(1.0, 2.0, exclude_min=True),
           eps=st.one_of(st.just(0.0), st.floats(1e-3, 0.9)),
           kind=st.sampled_from([ADDITIVE_SHIFT, QUADRATIC_NORM]))
    def test_prolongation_preserves_norms_and_energy(self, n, seed, p, eps, kind):
        # the prolonged function is the same P1 function, and every child cell
        # keeps its parent's gradient, so these exact integrals cannot change;
        # eps ranges over the supported 0 and [1e-3, 1)
        parent = jittered_unit_square(n, seed)
        u = FemFunction(parent, np.random.default_rng(seed).uniform(-1, 1, parent.n_interior))
        v = prolong(u, refine_red(parent))
        nf = NFunctionPD(p)
        assert norm_L2(v) == pytest.approx(norm_L2(u), rel=1e-12)
        assert seminorm_W1p(v, p) == pytest.approx(seminorm_W1p(u, p), rel=1e-12)
        assert energy(v, nf, eps, kind) == pytest.approx(energy(u, nf, eps, kind), rel=1e-12)

    def test_l2_error_of_interpolant(self):
        # degree-5 rule against a known integral: error of the zero function
        m = unit_square_mesh(3)
        u = FemFunction(m, np.zeros(m.n_interior))
        # ||sin(pi x) sin(pi y)||_L2 = 1/2
        val = oracles.l2_error(u, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
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
    def all_matrices(m, w):
        nf = NFunctionPD(1.5)
        coeff = LowerOrderCoeff(2.5, 0.5)
        qvals = np.random.default_rng(7).uniform(-1, 1, (m.n_cells, 3))
        return [mass_matrix(m), stiffness_matrix(m),
                weighted_stiffness(m, w, nf, 0.2, QUADRATIC_NORM),
                jacobian_stiffness(m, w, nf, 0.2, ADDITIVE_SHIFT),
                assembly.midpoint_mass(m, qvals),
                weighted_mass(m, w, coeff)]

    def test_one_sorted_pattern(self, rng):
        m = jittered_unit_square(5, 3)
        w = FemFunction(m, rng.uniform(-1, 1, m.n_interior))
        mats = self.all_matrices(m, w)
        first = mats[0]
        n = m.n_interior
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

    @pytest.mark.parametrize("coeff", [LowerOrderCoeff(),
                                       LowerOrderCoeff(2.5, 0.5)])
    def test_system_matrix_is_the_sparse_sum(self, coeff, rng):
        m = jittered_unit_square(6, 11)
        cfg = schemes.SchemeConfig(mesh=m, nf=NFunctionPD(1.5), eps=0.1, K=4, T=0.2,
                                   coeff=coeff)
        v = FemFunction(m, rng.uniform(-1, 1, m.n_interior))
        expect = (mass_matrix(m) / cfg.tau
                  + weighted_stiffness(m, v, cfg.nf, cfg.eps, cfg.kind)).toarray()
        if not coeff.is_zero:  # the zero coefficient adds no mass term
            expect += weighted_mass(m, v, coeff).toarray()
        got = schemes._system_matrix(v, cfg).toarray()
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-14 * np.max(np.abs(expect)))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), refine=st.integers(0, 2), relabel=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_pattern_is_the_searchsorted_pattern(self, n, refine, relabel, seed):
        m = jittered_unit_square(n, seed)
        if relabel:
            # nodes renumbered, cells reordered, each cell's vertices rotated
            rng = np.random.default_rng(seed)
            label = rng.permutation(m.n_nodes)
            cells = label[m.cells[rng.permutation(m.n_cells)]]
            turn = rng.integers(0, 3, m.n_cells)
            cells = np.take_along_axis(cells, (np.arange(3) + turn[:, None]) % 3, axis=1)
            nodes = np.empty_like(m.nodes)
            nodes[label] = m.nodes
            m = TriMesh(nodes, cells)
        for _ in range(refine):
            m = refine_red(m)
        for got, expect in zip(assembly._pattern(m), oracles.searchsorted_pattern(m)):
            assert got.dtype == expect.dtype
            np.testing.assert_array_equal(got, expect)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_against_dense_oracles_on_jittered_meshes(self, n, seed):
        m = jittered_unit_square(n, seed)
        free = np.ix_(m.interior, m.interior)
        for assemble, dense in ((mass_matrix, oracles.dense_mass),
                                (stiffness_matrix, oracles.dense_stiffness)):
            ref = dense(m.nodes, m.cells)
            scale = np.max(np.abs(ref))
            np.testing.assert_allclose(assemble(m).toarray(), ref[free],
                                       rtol=0, atol=1e-14 * scale)


def assert_close(got, ref, rel=1e-13):
    """got == ref to rel times the largest entry of ref."""
    ref = np.asarray(ref)
    np.testing.assert_allclose(got, ref, rtol=0, atol=rel * np.max(np.abs(ref), initial=0.0))


def cache_bytes(mesh):
    """Bytes of the distinct buffers held in mesh._cache, a shared buffer counted once."""
    def arrays(obj):
        if sp.issparse(obj):
            yield from (obj.data, obj.indices, obj.indptr)
        elif isinstance(obj, tuple):
            for item in obj:
                yield from arrays(item)
        else:
            yield obj

    roots = {}
    for arr in arrays(tuple(mesh._cache.values())):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        roots[id(arr)] = arr.nbytes
    return sum(roots.values())


class TestOperators:
    """The per-sweep kernels are products with operators cached per mesh."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), refine=st.booleans(), seed=st.integers(0, 2**32 - 1),
           p=st.floats(1.1, 2.0), eps=st.floats(0.01, 0.9),
           kind=st.sampled_from([ADDITIVE_SHIFT, QUADRATIC_NORM]))
    def test_kernels_match_cellwise_oracles(self, n, refine, seed, p, eps, kind):
        m = jittered_unit_square(n, seed)
        if refine:
            m = refine_red(m)
        rng = np.random.default_rng(seed)
        u = FemFunction(m, rng.uniform(-1, 1, m.n_interior))
        full = u.full_values()
        free = np.ix_(m.interior, m.interior)
        nf = NFunctionPD(p)
        coeff = LowerOrderCoeff(2.5, 0.5)

        grads = oracles.cell_gradients(m.nodes, m.cells, full)
        assert_close(gradients(u), grads)
        mids = oracles.midpoint_values(m.cells, full)
        assert_close(assembly.values_at_midpoints(u), mids)

        omega = diffusion_weight(nf, eps, kind, np.hypot(grads[:, 0], grads[:, 1]))
        ref = oracles.dense_tensor_stiffness(m.nodes, m.cells, omega[:, None, None] * np.eye(2))
        assert_close(weighted_stiffness(m, u, nf, eps, kind).toarray(), ref[free])
        tensors = oracles.tangent_tensors(p, 0.0, eps, kind == QUADRATIC_NORM, grads)
        ref = oracles.dense_tensor_stiffness(m.nodes, m.cells, tensors)
        assert_close(jacobian_stiffness(m, u, nf, eps, kind).toarray(), ref[free])

        ref = oracles.dense_midpoint_mass(m.nodes, m.cells, lower_order.d_eval(coeff, mids))
        assert_close(weighted_mass(m, u, coeff).toarray(), ref[free])

        def f(x, y, t=0.0):
            return np.cos(3.0 * x) * (1.0 + y * y)

        assert_close(load_vector(m, f), oracles.load_vector(m.nodes, m.cells, f)[m.interior])

    @pytest.mark.parametrize("n, refine", [(6, 0), (3, 2)])
    def test_sums_are_the_bincount_sums_to_the_bit(self, n, refine, rng):
        # the operators add the same products in the same cell order
        m = jittered_unit_square(n, 17)
        for _ in range(refine):
            m = refine_red(m)
        u = FemFunction(m, rng.uniform(-1, 1, m.n_interior))
        g = gradients(u)
        np.testing.assert_array_equal(g, oracles.einsum_gradients(u))
        nf = NFunctionPD(1.5)
        omega = diffusion_weight(nf, 0.1, ADDITIVE_SHIFT, vnorm(g))
        blocks = omega[:, None, None] * assembly._stiffness_blocks(m)
        np.testing.assert_array_equal(weighted_stiffness(m, u, nf, 0.1, ADDITIVE_SHIFT).data,
                                      oracles.bincount_assemble(m, blocks))
        blocks = rng.uniform(-1, 1, (m.n_cells, 3, 3))
        np.testing.assert_array_equal(assembly._assemble(m, blocks).data,
                                      oracles.bincount_assemble(m, blocks))

    def test_operators_share_the_mesh_storage(self):
        m = unit_square_mesh(64)
        cfg = schemes.SchemeConfig(
            mesh=m, nf=NFunctionPD(1.5), eps=0.05, K=10, T=0.1, scheme="implicit",
            kind=ADDITIVE_SHIFT, coeff=LowerOrderCoeff(2.5, 0.5),
            source=make_source("bump", decay=1.0))
        u = interpolate_nodal(make_field("sin-product"), m)
        b, _ = schemes._step_rhs(u, cfg, 1)  # one Kacanov sweep from u
        g = schemes._SpdSolver(cfg)(schemes._system_matrix(u, cfg), b)
        schemes._defect(FemFunction(m, g), b, cfg)

        _, indices, slot = assembly._pattern(m)
        stiffness = assembly._stiffness_operator(m)
        assert np.shares_memory(stiffness.indices, slot)
        assert np.shares_memory(stiffness.data, assembly._stiffness_blocks(m))
        assert np.shares_memory(assembly._gradient_operator(m).data, m.hat_gradients())
        # The ceiling is the sum of what the sweep must cache, at the arrays'
        # dtypes.  Per cell (M = 8192): hat gradients 48 B, and G's column
        # indices and row pointers 24 + 8; stiffness blocks 72; slot 36; S's
        # column pointers 4; midpoint coordinates 48; P's data, indices and
        # pointers 48 + 24 + 12; Q's 96 + 48 + 12: 480 B.  Per pattern entry
        # (nnz = 27281): pattern column 4, mass data 8, the nested-dissection
        # pattern 4 and gather 4: 20 B.  Per dof (3969): pattern row pointers
        # 4, nested-dissection perm 8 and pointers 4: 16 B.  That is 4.54 MB.
        # The 4 kB of slack cover the single entries past those counts (the
        # trash slot, the last pointers) and are less than any cell-sized
        # array (S's pointers are the smallest, 32 kB), so a second copy of
        # slot, of the stiffness blocks or of the hat gradients fails the test.
        ceiling = 480 * m.n_cells + 20 * indices.size + 16 * m.n_interior + 4096
        assert cache_bytes(m) < ceiling


def test_symmetry_is_exact(mesh8, rng):
    nf = NFunctionPD(1.5)
    w = FemFunction(mesh8, rng.uniform(-1, 1, mesh8.n_interior))
    for mat in (mass_matrix(mesh8), stiffness_matrix(mesh8),
                weighted_stiffness(mesh8, w, nf, 0.2, QUADRATIC_NORM),
                weighted_mass(mesh8, w, LowerOrderCoeff(2.5))):
        diff = (mat - mat.T)
        assert diff.nnz == 0 or abs(diff).max() == 0.0
