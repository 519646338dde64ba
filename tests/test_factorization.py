"""The cached nested-dissection ordering and the linear solver built on it:
direct solves, the reuse of a factor as a CG preconditioner, the multigrid
V-cycle, and the lifetime of what a solve builds."""

import gc
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from plapflow import assembly, diagnostics, lower_order, orlicz, schemes
from plapflow.config import example_config, load_run_config
from plapflow.lower_order import LowerOrderCoeff
from plapflow.mesh import (FemFunction, TriMesh, prolong, prolongation, refine_red,
                           unit_square_mesh)
from plapflow.orlicz import ADDITIVE_SHIFT, QUADRATIC_NORM, NFunctionPD
from plapflow.schemes import SchemeConfig, SolverError

import oracles

LOWER = LowerOrderCoeff(2.5, 0.5)


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
    assert all(a.dtype == np.int32 for a in (indptr, indices, gather))
    for A in matrices(mesh, seed):
        B = sp.csc_matrix((A.data[gather], indices, indptr), shape=A.shape)
        ref = oracles.symmetric_permutation(A, perm)
        np.testing.assert_array_equal(B.toarray(), ref.toarray())
        assert B.nnz == A.nnz
    # strictly increasing rows in every column: the canonical format splu is told of
    cols = np.repeat(np.arange(n), np.diff(indptr))
    later = np.flatnonzero(cols[1:] == cols[:-1])
    assert np.all(indices[later + 1] > indices[later])


def check_oracle_order(mesh):
    indptr, indices, _ = assembly._pattern(mesh)
    row = np.repeat(np.arange(mesh.n_interior, dtype=np.int32), np.diff(indptr))
    off = row != indices
    perm = oracles.nested_dissection_order(mesh.nodes[mesh.interior], row[off], indices[off],
                                           leaf=assembly._ND_LEAF)
    ours = assembly.nested_dissection(mesh)[0]
    assert ours.dtype == perm.dtype
    np.testing.assert_array_equal(ours, perm)


class TestNestedDissection:
    @pytest.mark.parametrize("mesh", [unit_square_mesh(n) for n in (1, 2, 3, 8, 20)]
                             + [jittered(3, 2, 4)], ids=lambda m: f"{m.n_interior}dofs")
    def test_permutation_cached_per_mesh(self, mesh):
        first = assembly.nested_dissection(mesh)
        perm = first[0]
        np.testing.assert_array_equal(np.sort(perm), np.arange(mesh.n_interior))
        second = assembly.nested_dissection(mesh)
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize("mesh", [unit_square_mesh(n) for n in (1, 2, 3, 8, 20, 64, 128)]
                             + [jittered(3, 2, 4)], ids=lambda m: f"{m.n_interior}dofs")
    def test_bisection_matches_recursive_oracle(self, mesh):
        check_oracle_order(mesh)

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 6), refinements=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_bisection_matches_recursive_oracle_on_jittered_meshes(self, n, refinements, seed):
        check_oracle_order(jittered(n, refinements, seed))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 300), seed=st.integers(0, 2**32 - 1))
    def test_bisection_matches_recursive_oracle_with_ties(self, n, seed):
        # dofs on a 3 x 3 lattice with random edges: parts whose median is
        # their largest coordinate, and parts of coincident dofs, which
        # cannot be cut
        rng = np.random.default_rng(seed)
        xy = rng.integers(0, 3, (n, 2)).astype(float)
        a, b = rng.integers(0, max(n, 1), (2, 3 * n))
        a, b = a[a != b], b[a != b]
        row, col = np.concatenate([a, b]), np.concatenate([b, a])
        ours = assembly._dissect(xy, np.arange(n), row, col, np.empty(n, dtype=np.int8))
        perm = oracles.nested_dissection_order(xy, row, col, leaf=assembly._ND_LEAF)
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
        A = schemes._system_matrix(FemFunction(mesh, np.zeros(mesh.n_interior)), make_cfg(mesh))
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


# schemes' CG before any test wraps it
CG = schemes._cg


class Counted:
    """schemes.spla.splu and schemes._cg wrapped to count their calls.  Each
    instance wraps the originals, never an earlier instance's wrappers."""

    def __init__(self, monkeypatch):
        self.splu = self.cg = 0
        proxy = types.SimpleNamespace(**vars(spla))

        def splu(*args, **kwargs):
            self.splu += 1
            return spla.splu(*args, **kwargs)

        def cg(*args, **kwargs):
            self.cg += 1
            return CG(*args, **kwargs)

        proxy.splu = splu
        monkeypatch.setattr(schemes, "spla", proxy)
        monkeypatch.setattr(schemes, "_cg", cg)


def evolve(u0, cfg, monkeypatch, reuse_dofs):
    """run_evolution with REUSE_DOFS set, and the solver calls it made."""
    monkeypatch.setattr(schemes, "REUSE_DOFS", reuse_dofs)
    calls = Counted(monkeypatch)
    return oracles.kept_run(u0, cfg), calls


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
        # every CG solved to 1e-12, so the regimes agree to that; the default
        # forcing is tested in TestInexactSweeps
        monkeypatch.setattr(schemes, "KACANOV_FORCING", 0.0)
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
        solve(schemes._system_matrix(FemFunction(m, np.zeros(m.n_interior)), cfg), b)
        with pytest.warns(UserWarning, match="conditional solvability"):
            with pytest.raises(SolverError, match="^direct factorization failed"):
                solve(TestSolveSpd.singular(m), b)
        assert (calls.splu, calls.cg) == (2, 1)

    def test_a_permuted_copy_is_built_only_to_factor(self, mesh8, monkeypatch):
        # CG runs on A itself; the nested-dissection CSC copy feeds splu alone
        copies = []
        proxy = types.SimpleNamespace(**vars(sp))

        def csc_matrix(*args, **kwargs):
            copies.append(1)
            return sp.csc_matrix(*args, **kwargs)

        proxy.csc_matrix = csc_matrix
        monkeypatch.setattr(schemes, "sp", proxy)
        cfg = make_cfg(mesh8, K=5, T=0.05, **self.CASES["kacanov"])
        u0 = FemFunction(mesh8, np.random.default_rng(2).uniform(-1, 1, mesh8.n_interior))
        traj, calls = evolve(u0, cfg, monkeypatch, 0)
        assert len(copies) == calls.splu < sum(st.iterations for st in traj.stats)
        assert calls.cg > 0


class TestCg:
    """schemes._cg performs scipy's cg arithmetic step for step, so its x and
    iteration count are scipy's to the bit."""

    @staticmethod
    def system(mesh, precond, monkeypatch, seed=3):
        """A(v) at a random v, a right-hand side, and the preconditioner a run
        would use for A: the factor kept from A(v0) at another random v0, or a
        V-cycle."""
        rng = np.random.default_rng(seed)
        cfg = make_cfg(mesh, coeff=LOWER)
        A0, A = (schemes._system_matrix(FemFunction(mesh, rng.uniform(-1, 1, mesh.n_interior)),
                                        cfg) for _ in range(2))
        b = rng.standard_normal(mesh.n_interior)
        if precond == "v-cycle":
            monkeypatch.setattr(schemes, "MG_DOFS", 0)
            return A, b, schemes._SpdSolver(cfg)._multigrid(A)
        monkeypatch.setattr(schemes, "REUSE_DOFS", 0)
        solve = schemes._SpdSolver(cfg)
        solve(A0, b)
        return A, b, solve.lu

    # atol 1e-6 ||b|| stops CG early; its ids end in "-atol"
    @pytest.mark.parametrize("precond, with_guess, atol", [
        pytest.param(precond, with_guess, atol,
                     id=f"{precond}-{with_guess}" + ("-atol" if atol else ""))
        for atol in (0.0, 1e-6) for precond in ("kept-factor", "v-cycle")
        for with_guess in (False, True)])
    def test_equals_scipy_cg_to_the_bit(self, refined, monkeypatch, precond, with_guess, atol):
        A, b, M = self.system(refined, precond, monkeypatch)
        guess = np.random.default_rng(4).uniform(-1, 1, b.size) if with_guess else None
        atol *= np.linalg.norm(b)
        x, iterations = schemes._cg(A, b, M, guess, atol)
        ref, ref_iterations = oracles.scipy_cg(A, b, M, guess, atol)
        assert iterations == ref_iterations > 0
        assert x.tobytes() == ref.tobytes()
        if atol:  # it stopped early
            assert iterations < schemes._cg(A, b, M, guess)[1]

    def test_zero_right_hand_side(self, refined, monkeypatch):
        A, b, M = self.system(refined, "kept-factor", monkeypatch)
        x, iterations = schemes._cg(A, np.zeros_like(b), M, b)
        ref, ref_iterations = oracles.scipy_cg(A, np.zeros_like(b), M, b)
        assert iterations == ref_iterations == 0
        assert x.tobytes() == ref.tobytes() == np.zeros_like(b).tobytes()

    @pytest.mark.parametrize("precond", ["kept-factor", "v-cycle"])
    def test_capped_solve_returns_none(self, refined, monkeypatch, precond):
        A, b, M = self.system(refined, precond, monkeypatch)
        monkeypatch.setattr(schemes, "_CG_MAXITER", 2)
        assert schemes._cg(A, b, M) == oracles.scipy_cg(A, b, M) == (None, 2)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 20), seed=st.integers(0, 2**32 - 1), with_guess=st.booleans())
    def test_jacobi_cg_equals_scipy_cg_with_a_sparse_preconditioner(self, n, seed, with_guess):
        # scipy is given M as a sparse diagonal matrix, so no LinearOperator is
        # involved; both converge, or from about n = 17 on both miss _CG_MAXITER
        mesh = unit_square_mesh(n)
        rng = np.random.default_rng(seed)
        A = schemes._system_matrix(FemFunction(mesh, rng.uniform(-1, 1, mesh.n_interior)),
                                   make_cfg(mesh, coeff=LOWER))
        b = rng.standard_normal(mesh.n_interior)
        d = 1.0 / A.diagonal()
        guess = rng.uniform(-1, 1, b.size) if with_guess else None
        x0 = d * b if guess is None else guess + d * (b - A @ guess)
        steps = []
        ref, info = spla.cg(A, b, x0=x0, rtol=schemes._CG_RTOL, atol=0.0,
                            maxiter=schemes._CG_MAXITER, M=sp.diags(d),
                            callback=lambda _: steps.append(1))
        x, iterations = schemes._cg(A, b, lambda r: d * r, guess)
        assert iterations == len(steps)
        assert (x is None) == (info != 0)
        if x is not None:
            assert x.tobytes() == ref.tobytes()


class TestInexactSweeps:
    """From its second sweep on, a Kacanov sweep's CG stops at KACANOV_FORCING
    times the defect at the sweep's start.  Only the CG regimes see it; the
    runs here keep a factor, as REUSE_DOFS = 0 makes mesh8's do."""

    CFG = dict(K=5, T=0.05, scheme="implicit", nf=NFunctionPD(1.5, 0.1), kind=ADDITIVE_SHIFT,
               eps=0.05)

    @staticmethod
    def holding_a_factor(cfg):
        """A solver that keeps the factor of A(w) for a random w."""
        solve = schemes._SpdSolver(cfg)
        w = FemFunction(cfg.mesh, np.random.default_rng(11).uniform(-1, 1, cfg.mesh.n_interior))
        solve(schemes._system_matrix(w, cfg), np.ones(cfg.mesh.n_interior))
        assert solve.lu is not None
        return solve

    @pytest.mark.parametrize("regime", ["kept-factor", "v-cycle"])
    def test_first_sweep_is_the_semi_implicit_step(self, mesh8, refined, monkeypatch, regime):
        # the first sweep has no defect to force with, so it solves to 1e-12
        # as the semi-implicit step does, from a kept factor or a V-cycle
        if regime == "kept-factor":
            monkeypatch.setattr(schemes, "REUSE_DOFS", 0)
            mesh = mesh8
        else:
            monkeypatch.setattr(schemes, "MG_DOFS", 0)
            mesh = refined
        cfg = make_cfg(mesh, coeff=LOWER, source=lambda x, y, t: np.sin(3.0 * x) + y)
        make = self.holding_a_factor if regime == "kept-factor" else schemes._SpdSolver
        solvers = [make(cfg) for _ in range(2)]
        calls = Counted(monkeypatch)
        u_prev = FemFunction(mesh, np.random.default_rng(12).uniform(-1, 1, mesh.n_interior))
        assert oracles.first_kacanov_equals_semi_implicit(u_prev, cfg, solvers)
        assert calls.cg == 2

    def test_forcing_saves_preconditioner_applications(self, mesh8, monkeypatch):
        applications = []
        vcycle = schemes._vcycle
        monkeypatch.setattr(schemes, "_vcycle",
                            lambda *args: applications.append(1) or vcycle(*args))
        cfg = make_cfg(mesh8, coeff=LOWER, **self.CFG)
        u0 = FemFunction(mesh8, np.random.default_rng(2).uniform(-1, 1, mesh8.n_interior))
        counts = []
        for forcing in (schemes.KACANOV_FORCING, 0.0):
            monkeypatch.setattr(schemes, "KACANOV_FORCING", forcing)
            applications.clear()
            traj, calls = evolve(u0, cfg, monkeypatch, 0)
            assert calls.cg > 0
            assert all(st.residual <= cfg.tol_res for st in traj.stats)
            counts.append(len(applications))
        assert 0 < counts[0] < counts[1]

    def test_step_solutions_agree_to_a_bound_argued_from_tol_res(self, mesh8, monkeypatch):
        # Without a lower-order term, T(v) = A(v) v - b is M/tau plus the
        # gradient of a convex energy, so (T(u) - T(u'), u - u') >=
        # lambda_min(M)/tau ||u - u'||^2.  Two answers u, u' of one step with
        # ||T(u)||, ||T(u')|| <= tol therefore lie within 2 tol tau / lambda_min(M).
        cfg = make_cfg(mesh8, source=lambda x, y, t: np.cos(2.0 * x) * y, **self.CFG)
        u0 = FemFunction(mesh8, np.random.default_rng(2).uniform(-1, 1, mesh8.n_interior))
        reused, calls = evolve(u0, cfg, monkeypatch, 0)
        assert calls.cg > 0
        monkeypatch.setattr(schemes, "REUSE_DOFS", mesh8.n_interior + 1)
        lambda_min = np.linalg.eigvalsh(assembly.mass_matrix(mesh8).toarray())[0]
        for k, (st, u) in enumerate(zip(reused.stats, reused.iterates[1:]), start=1):
            u_prev = reused.iterates[k - 1]
            tol = cfg.tol_res * (1.0 + np.linalg.norm(schemes._step_rhs(u_prev, cfg, k)[1]))
            factored, fst = schemes.implicit_step(u_prev, cfg, k)
            assert st.residual <= tol and fst.residual <= tol
            assert np.linalg.norm(u.coeffs - factored.coeffs) <= 2.0 * tol * cfg.tau / lambda_min


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
        # as in TestFactorReuse, every CG solved to 1e-12
        monkeypatch.setattr(schemes, "KACANOV_FORCING", 0.0)
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
                            lambda self, mesh, A: sizes.append((mesh.n_interior, A.shape))
                            or factor(self, mesh, A))
        cfg = make_cfg(refined)
        b = np.random.default_rng(5).standard_normal(refined.n_interior)
        A = schemes._system_matrix(FemFunction(refined, np.zeros(refined.n_interior)), cfg)
        x = schemes._SpdSolver(cfg)(A, b)
        assert sizes == [(9, (9, 9))]
        ref = spla.spsolve(A.tocsc(), b)
        assert np.max(np.abs(x - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("jitter", [False, True])
    def test_galerkin_products_lie_on_the_coarser_pattern(self, jitter):
        # the coarsest V-cycle operator is factored through its mesh's
        # nested-dissection gather, which needs it on that mesh's _pattern
        m = jittered(4, 4, 6) if jitter else unit_square_mesh(4)
        for _ in range(0 if jitter else 4):
            m = refine_red(m)
        for A in matrices(m, 9):
            op = A
            for P, R, parent in schemes._hierarchy(m):
                op = R @ op @ P
                op.sort_indices()
                indptr, indices, _ = assembly._pattern(parent)
                np.testing.assert_array_equal(op.indptr, indptr)
                np.testing.assert_array_equal(op.indices, indices)
                perm, nd_indptr, nd_indices, gather = assembly.nested_dissection(parent)
                B = sp.csc_matrix((op.data[gather], nd_indices, nd_indptr), shape=op.shape)
                assert (B != oracles.symmetric_permutation(op, perm).tocsc()).nnz == 0

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


def unreachable_after(action):
    """The number of objects that action() leaves to the cyclic garbage
    collector: unreachable, but kept alive by reference cycles."""
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        gc.enable()


def audited_run(mesh, K=3):
    """The trajectory of a K-step semi-implicit run on mesh, its ledgers checked."""
    cfg = make_cfg(mesh, K=K, T=0.01 * K)
    u0 = FemFunction(mesh, np.random.default_rng(9).uniform(-1, 1, mesh.n_interior))
    traj = oracles.kept_run(u0, cfg)
    assert diagnostics.check_energy_ledgers(diagnostics.Walk(cfg, traj.iterates)).passed
    return traj


class TestSolveLifetime:
    """Reference counting alone frees what a solve builds (factors, Galerkin
    operators, Jacobi weights), as soon as the solve returns."""

    # the schemes constants each regime sets, and the (splu, cg) calls of its
    # three solves, which show that the regime was reached; the V-cycle
    # regimes keep the refined mesh's 225 unknowns below REUSE_DOFS
    REGIMES = {"factor-every": ({}, (3, 0)),
               "kept-factor": ({}, (2, 1)),
               "v-cycle": ({"MG_DOFS": 0, "REUSE_DOFS": 226}, (3, 3)),
               "v-cycle-fallback": ({"MG_DOFS": 0, "REUSE_DOFS": 226, "_CG_MAXITER": 1},
                                    (2 + 2, 1))}

    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_a_run_and_its_ledgers_leave_no_reference_cycle(self, regime, mesh8, refined,
                                                            monkeypatch):
        mesh = {"factor-every": mesh8, "kept-factor": unit_square_mesh(18)}.get(regime, refined)
        constants, expected = self.REGIMES[regime]
        for name, value in constants.items():
            monkeypatch.setattr(schemes, name, value)
        assert (mesh.n_interior >= schemes.REUSE_DOFS) == (regime == "kept-factor")
        calls = Counted(monkeypatch)
        assert unreachable_after(lambda: audited_run(mesh)) == 0
        assert (calls.splu, calls.cg) == expected

    def test_the_example_study_leaves_no_reference_cycle(self, tmp_path):
        path = tmp_path / "example.ini"
        path.write_text(example_config())
        study = load_run_config(str(path), want_study=True).study
        assert unreachable_after(lambda: diagnostics.run_study(study)) == 0

    def test_lemma_certification_leaves_no_reference_cycle(self):
        assert unreachable_after(lambda: orlicz.certify_lemmas(3 * orlicz.LEMMA_BLOCK, 7)) == 0

    def test_a_multigrid_run_holds_its_iterates_alone(self, monkeypatch):
        # 6 more V-cycle steps hold 6 more iterates and step records, and
        # nothing of their solves; the collector is off, so that a leak does
        # not depend on when it would have run
        monkeypatch.setattr(schemes, "MG_DOFS", 0)
        mesh = refine_red(refine_red(refine_red(unit_square_mesh(4))))
        audited_run(mesh, K=1)  # fill the mesh's caches

        def held(K):
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                traj = audited_run(mesh, K)
                return tracemalloc.get_traced_memory()[0] - before, traj
            finally:
                tracemalloc.stop()
                gc.enable()

        short, _ = held(2)
        long, traj = held(8)
        iterate = traj.iterates[-1].coeffs.nbytes
        # per step: the FemFunction, its StepStats and list slots, about 2 KB
        slack = 6 * 1024
        assert long - short <= 6 * (iterate + slack)
