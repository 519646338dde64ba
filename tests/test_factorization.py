"""The cached nested-dissection ordering and the linear solver built on it:
direct solves, and the reuse of a factor as a CG preconditioner."""

import types
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from plapflow import assembly, lower_order, schemes
from plapflow.lower_order import LowerOrderCoeff
from plapflow.mesh import (FemFunction, TriMesh, prolong, prolongation, refine_red,
                           unit_square_mesh)
from plapflow.orlicz import ADDITIVE_SHIFT, QUADRATIC_NORM, NFunctionPD
from plapflow.schemes import SchemeConfig, SolverError

import oracles

LOWER = LowerOrderCoeff.shifted_power(2.5, 0.5)


def jittered(n, refinements, seed):
    """unit_square_mesh(n) with interior nodes moved by up to h/10, then red-refined."""
    m = unit_square_mesh(n)
    nodes = m.nodes.copy()
    nodes[m.interior] += np.random.default_rng(seed).uniform(-0.1, 0.1, (m.n_interior, 2)) / n
    m = TriMesh(nodes, m.cells)
    for _ in range(refinements):
        m = refine_red(m)
    return m


def make_cfg(mesh, **kw):
    base = dict(mesh=mesh, nf=NFunctionPD(1.5), eps=0.1, K=10, T=0.1, kind=QUADRATIC_NORM)
    base.update(kw)
    return SchemeConfig(**base)


def newton_matrix(v, cfg):
    """The matrix of one Newton step at v, as implicit_step assembles it."""
    mesh = cfg.mesh
    J = assembly.jacobian_stiffness(mesh, v, cfg.nf, cfg.eps, cfg.kind)
    J.data += assembly.mass_matrix(mesh).data / cfg.tau
    gp = lower_order.g_prime_eval(cfg.coeff, assembly.values_at_midpoints(v))
    J.data += assembly.midpoint_mass(mesh, gp).data
    return J


def matrices(mesh, seed):
    """Mass, A(v) with a lower-order term, Newton's matrix and an unsymmetric
    matrix (random data) on the mesh's pattern."""
    rng = np.random.default_rng(seed)
    v = FemFunction(mesh, rng.uniform(-1, 1, mesh.n_interior))
    semi = make_cfg(mesh, coeff=LOWER)
    newton = make_cfg(mesh, scheme="implicit", nf=NFunctionPD(1.5, 0.1), kind=ADDITIVE_SHIFT,
                      nonlinear="newton", coeff=LOWER)
    unsymmetric = assembly.mass_matrix(mesh).copy()
    unsymmetric.data = rng.uniform(1, 2, unsymmetric.nnz)
    return [assembly.mass_matrix(mesh), schemes._system_matrix(v, semi),
            newton_matrix(v, newton), unsymmetric]


def check_permuted_pattern(mesh, seed):
    perm, indptr, indices, gather = assembly.nested_dissection(mesh)
    n = mesh.n_interior
    for A in matrices(mesh, seed):
        B = sp.csc_matrix((A.data[gather], indices, indptr), shape=A.shape)
        ref = oracles.symmetric_permutation(A, perm)
        np.testing.assert_array_equal(B.toarray(), ref.toarray())
        assert B.nnz == A.nnz
    # strictly increasing rows in every column: the canonical format splu is told of
    cols = np.repeat(np.arange(n), np.diff(indptr))
    later = np.flatnonzero(cols[1:] == cols[:-1])
    assert np.all(indices[later + 1] > indices[later])


class TestNestedDissection:
    @pytest.mark.parametrize("mesh", [unit_square_mesh(n) for n in (1, 2, 3, 8, 20)]
                             + [jittered(3, 2, 4)], ids=lambda m: f"{m.n_interior}dofs")
    def test_permutation_cached_per_mesh(self, mesh):
        first = assembly.nested_dissection(mesh)
        perm = first[0]
        np.testing.assert_array_equal(np.sort(perm), np.arange(mesh.n_interior))
        second = assembly.nested_dissection(mesh)
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize("mesh", [unit_square_mesh(n) for n in (1, 2, 3, 8, 20, 64)]
                             + [jittered(3, 2, 4)], ids=lambda m: f"{m.n_interior}dofs")
    def test_level_by_level_bisection_matches_recursive_oracle(self, mesh):
        indptr, indices, _ = assembly._pattern(mesh)
        row = np.repeat(np.arange(mesh.n_interior, dtype=np.int32), np.diff(indptr))
        off = row != indices
        perm = oracles.nested_dissection_order(mesh.nodes[mesh.interior], row[off], indices[off],
                                               leaf=assembly._ND_LEAF)
        ours = assembly.nested_dissection(mesh)[0]
        assert ours.dtype == perm.dtype
        np.testing.assert_array_equal(ours, perm)

    def test_separator_is_ordered_last(self):
        # on the 63 x 63 interior grid of n = 64 the first cut is the middle
        # column x = 1/2, which must occupy the last 63 positions
        m = unit_square_mesh(64)
        perm = assembly.nested_dissection(m)[0]
        x = m.nodes[m.interior][perm, 0]
        np.testing.assert_array_equal(x[-63:], 0.5)
        assert np.all(x[:-63] != 0.5)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_gathered_matrix_is_the_permuted_matrix(self, n, seed):
        check_permuted_pattern(unit_square_mesh(n), seed)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 4), refinements=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_gathered_matrix_is_the_permuted_matrix_on_jittered_meshes(self, n, refinements,
                                                                       seed):
        check_permuted_pattern(jittered(n, refinements, seed), seed)

    def test_less_fill_than_colamd(self):
        m = unit_square_mesh(64)
        cfg = make_cfg(m)
        A = schemes._system_matrix(FemFunction(m, np.ones(m.n_interior)), cfg)
        perm, indptr, indices, gather = assembly.nested_dissection(m)
        nd = spla.splu(sp.csc_matrix((A.data[gather], indices, indptr), shape=A.shape),
                       permc_spec="NATURAL")
        colamd = spla.splu(A.tocsc())
        assert nd.L.nnz + nd.U.nnz < colamd.L.nnz + colamd.U.nnz


class TestSolveSpd:
    @pytest.mark.parametrize("mesh", [unit_square_mesh(2), unit_square_mesh(9), jittered(4, 1, 8)],
                             ids=lambda m: f"{m.n_interior}dofs")
    def test_matches_spsolve(self, mesh):
        cfg = make_cfg(mesh)
        b = np.random.default_rng(3).standard_normal(mesh.n_interior)
        for A in matrices(mesh, 5):
            x = schemes._SpdSolver(cfg)(A, b)
            ref = spla.spsolve(A.tocsc(), b)
            assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    @staticmethod
    def singular(mesh):
        """A(v) with row and column 5 zeroed: exactly singular, same pattern."""
        A = schemes._system_matrix(FemFunction.zeros(mesh), make_cfg(mesh))
        rows = np.repeat(np.arange(mesh.n_interior), np.diff(A.indptr))
        A.data[(rows == 5) | (A.indices == 5)] = 0.0
        return A

    def test_singular_matrix_raises(self):
        m = unit_square_mesh(6)
        b = np.ones(m.n_interior)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="^direct factorization failed"):
                schemes._SpdSolver(make_cfg(m))(self.singular(m), b)

    def test_singular_matrix_warns_of_conditional_solvability(self):
        m = unit_square_mesh(6)
        b = np.ones(m.n_interior)
        cfg = make_cfg(m, coeff=LOWER)
        assert cfg.coeff.c7 > 0.0
        with pytest.warns(UserWarning, match="conditional solvability"):
            with pytest.raises(SolverError, match="^direct factorization failed"):
                schemes._SpdSolver(cfg)(self.singular(m), b)


class Counted:
    """schemes.spla with splu and cg wrapped to count their calls, as perfbench wraps them."""

    def __init__(self, monkeypatch):
        self.splu = self.cg = 0
        proxy = types.SimpleNamespace(**vars(spla))

        def splu(*args, **kwargs):
            self.splu += 1
            return spla.splu(*args, **kwargs)

        def cg(*args, **kwargs):
            self.cg += 1
            return spla.cg(*args, **kwargs)

        proxy.splu, proxy.cg = splu, cg
        monkeypatch.setattr(schemes, "spla", proxy)


def evolve(u0, cfg, monkeypatch, reuse_dofs):
    """run_evolution with REUSE_DOFS set, and the solver calls it made."""
    monkeypatch.setattr(schemes, "REUSE_DOFS", reuse_dofs)
    calls = Counted(monkeypatch)
    return schemes.run_evolution(u0, cfg), calls


class TestFactorReuse:
    """REUSE_DOFS = 0 sends the small systems here through the reuse path."""

    CASES = {
        "semi-implicit": dict(coeff=LOWER),
        "kacanov": dict(scheme="implicit", nf=NFunctionPD(1.5, 0.1), kind=ADDITIVE_SHIFT,
                        eps=0.05, coeff=LOWER),
        "newton": dict(scheme="implicit", nf=NFunctionPD(1.5, 0.1), kind=ADDITIVE_SHIFT,
                       eps=0.05, coeff=LOWER, nonlinear="newton"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_iterates_match_factoring_every_solve(self, mesh8, monkeypatch, case):
        cfg = make_cfg(mesh8, K=5, T=0.05, **self.CASES[case])
        u0 = FemFunction(mesh8, np.random.default_rng(2).uniform(-1, 1, mesh8.n_interior))
        fresh, fresh_calls = evolve(u0, cfg, monkeypatch, mesh8.n_interior + 1)
        reused, calls = evolve(u0, cfg, monkeypatch, 0)
        assert fresh_calls.cg == 0
        assert [st.iterations for st in reused.stats] == [st.iterations for st in fresh.stats]
        for a, b in zip(reused.iterates[1:], fresh.iterates[1:]):
            diff = assembly.norm_L2(FemFunction(mesh8, a.coeffs - b.coeffs))
            assert diff <= 1e-12 * assembly.norm_L2(b)
        solves = sum(st.iterations for st in reused.stats)
        assert fresh_calls.splu == solves
        assert 0 < calls.splu < solves and calls.cg > 0

    def test_a_long_solve_retires_the_factor(self, mesh8, monkeypatch):
        # with a cap of 0 every CG solve retires the factor, so factoring and
        # CG alternate
        monkeypatch.setattr(schemes, "REUSE_CG_ITERS", 0)
        cfg = make_cfg(mesh8, K=6, T=0.06)
        u0 = FemFunction(mesh8, np.random.default_rng(4).uniform(-1, 1, mesh8.n_interior))
        _, calls = evolve(u0, cfg, monkeypatch, 0)
        assert (calls.splu, calls.cg) == (3, 3)

    def test_failed_cg_refactors(self, mesh8, monkeypatch):
        monkeypatch.setattr(schemes, "REUSE_DOFS", 0)
        monkeypatch.setattr(schemes, "_CG_MAXITER", 1)
        calls = Counted(monkeypatch)
        cfg = make_cfg(mesh8, coeff=LOWER)
        solve = schemes._SpdSolver(cfg)
        rng = np.random.default_rng(6)
        b = rng.standard_normal(mesh8.n_interior)
        A0, A1 = (schemes._system_matrix(FemFunction(mesh8, rng.uniform(-1, 1, mesh8.n_interior)),
                                         cfg) for _ in range(2))
        solve(A0, b)
        x = solve(A1, b)
        # one CG iteration does not reach 1e-12 on a different matrix
        assert (calls.splu, calls.cg) == (2, 1)
        ref = spla.spsolve(A1.tocsc(), b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_singular_matrix_on_a_reused_factor_raises(self, monkeypatch):
        monkeypatch.setattr(schemes, "REUSE_DOFS", 0)
        calls = Counted(monkeypatch)
        m = unit_square_mesh(6)
        cfg = make_cfg(m, coeff=LOWER)
        assert cfg.coeff.c7 > 0.0
        solve = schemes._SpdSolver(cfg)
        b = np.ones(m.n_interior)
        solve(schemes._system_matrix(FemFunction.zeros(m), cfg), b)
        with pytest.warns(UserWarning, match="conditional solvability"):
            with pytest.raises(SolverError, match="^direct factorization failed"):
                solve(TestSolveSpd.singular(m), b)
        assert (calls.splu, calls.cg) == (2, 1)


@pytest.fixture(scope="module")
def refined():
    """unit_square_mesh(4) red-refined twice: 225 unknowns over a hierarchy of 9 and 49."""
    return refine_red(refine_red(unit_square_mesh(4)))


def evolve_multigrid(u0, cfg, monkeypatch, mg_dofs):
    """run_evolution with MG_DOFS set and factoring every other system, and the
    solver calls it made."""
    monkeypatch.setattr(schemes, "MG_DOFS", mg_dofs)
    return evolve(u0, cfg, monkeypatch, cfg.mesh.n_interior + 1)


class TestMultigrid:
    """MG_DOFS = 0 sends the systems of a refined mesh through the V-cycle."""

    @pytest.mark.parametrize("case", list(TestFactorReuse.CASES))
    def test_iterates_match_factoring_every_solve(self, refined, monkeypatch, case):
        cfg = make_cfg(refined, K=5, T=0.05, **TestFactorReuse.CASES[case])
        u0 = FemFunction(refined, np.random.default_rng(2).uniform(-1, 1, refined.n_interior))
        fresh, fresh_calls = evolve_multigrid(u0, cfg, monkeypatch, refined.n_interior + 1)
        multigrid, calls = evolve_multigrid(u0, cfg, monkeypatch, 0)
        assert fresh_calls.cg == 0
        assert [st.iterations for st in multigrid.stats] == [st.iterations for st in fresh.stats]
        for a, b in zip(multigrid.iterates[1:], fresh.iterates[1:]):
            diff = assembly.norm_L2(FemFunction(refined, a.coeffs - b.coeffs))
            assert diff <= 1e-12 * assembly.norm_L2(b)
        # one factorization of the coarsest operator and one CG call per solve
        solves = sum(st.iterations for st in multigrid.stats)
        assert fresh_calls.splu == calls.splu == calls.cg == solves

    def test_coarsest_factor_is_of_the_root_mesh(self, refined, monkeypatch):
        monkeypatch.setattr(schemes, "MG_DOFS", 0)
        sizes = []
        factor = schemes._SpdSolver._factor
        monkeypatch.setattr(schemes._SpdSolver, "_factor",
                            lambda self, B: sizes.append(B.shape) or factor(self, B))
        cfg = make_cfg(refined)
        b = np.random.default_rng(5).standard_normal(refined.n_interior)
        A = schemes._system_matrix(FemFunction.zeros(refined), cfg)
        x = schemes._SpdSolver(cfg)(A, b)
        assert sizes == [(9, 9)]
        ref = spla.spsolve(A.tocsc(), b)
        assert np.max(np.abs(x - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_failed_cg_factors_the_fine_system(self, refined, monkeypatch):
        monkeypatch.setattr(schemes, "_CG_MAXITER", 1)
        cfg = make_cfg(refined, K=3, T=0.03, coeff=LOWER)
        u0 = FemFunction(refined, np.random.default_rng(7).uniform(-1, 1, refined.n_interior))
        fresh, _ = evolve_multigrid(u0, cfg, monkeypatch, refined.n_interior + 1)
        capped, calls = evolve_multigrid(u0, cfg, monkeypatch, 0)
        # the first solve factors the root and, after one CG iteration, its own
        # system; the run then factors every system
        assert (calls.splu, calls.cg) == (2 + 2, 1)
        for a, b in zip(capped.iterates[1:], fresh.iterates[1:]):
            np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_mesh_without_parent_never_takes_the_multigrid_path(self, monkeypatch):
        m = unit_square_mesh(16)
        cfg = make_cfg(m, K=3, T=0.03)
        assert schemes._SpdSolver(cfg).hierarchy == []
        u0 = FemFunction(m, np.random.default_rng(8).uniform(-1, 1, m.n_interior))
        _, calls = evolve_multigrid(u0, cfg, monkeypatch, 0)
        assert (calls.splu, calls.cg) == (3, 0)

    def test_hierarchy_stops_at_the_last_mesh_with_unknowns(self):
        m = refine_red(refine_red(unit_square_mesh(1)))
        hierarchy = schemes._hierarchy(m)
        assert [parent.n_interior for _, _, parent in hierarchy] == [1]
        assert schemes._hierarchy(m.parent.parent) == []

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 5), depth=st.integers(1, 3), jitter=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_prolongation_is_the_midpoint_average_to_the_bit(self, n, depth, jitter, seed):
        rng = np.random.default_rng(seed)
        m = jittered(n, 0, seed) if jitter else unit_square_mesh(n)
        for _ in range(depth):
            child = refine_red(m)
            u = FemFunction(m, rng.uniform(-1, 1, m.n_interior) * 10.0 ** rng.integers(-8, 9))
            P = prolongation(child)
            assert P is prolongation(child)
            assert (P @ u.coeffs).tobytes() == oracles.midpoint_prolong(u, child).tobytes()
            assert prolong(u, child).coeffs.tobytes() == (P @ u.coeffs).tobytes()
            m = child
