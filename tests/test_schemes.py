import re
import warnings

import numpy as np
import pytest
from dataclasses import FrozenInstanceError, replace
from hypothesis import example, given, settings, strategies as st

from plapflow import assembly, fields, schemes
from plapflow.lower_order import SCHEMES, SEMI_IMPLICIT, LowerOrderCoeff
from plapflow.mesh import FemFunction, interpolate_nodal, unit_square_mesh
from plapflow.orlicz import (ADDITIVE_SHIFT, QUADRATIC_NORM, REGULARIZATION_KINDS, NFunctionPD,
                             diffusion_weight)
from plapflow.schemes import (AdmissibilityWarning, SchemeConfig, SolverError, implicit_step,
                              run_evolution, semi_implicit_step)

import oracles


def make_cfg(mesh, **kw):
    base = dict(mesh=mesh, nf=NFunctionPD(1.5), eps=0.1, K=10, T=0.1,
                kind=QUADRATIC_NORM)
    base.update(kw)
    return SchemeConfig(**base)


class TestConfigValidation:
    def test_semi_implicit_needs_positive_eps(self, mesh4):
        with pytest.raises(ValueError, match="eps"):
            make_cfg(mesh4, eps=0.0)
        with pytest.raises(ValueError, match="eps"):
            make_cfg(mesh4, eps=1.0)

    def test_implicit_eps_zero_needs_delta(self, mesh4):
        with pytest.raises(ValueError, match="delta"):
            make_cfg(mesh4, scheme="implicit", eps=0.0)
        cfg = make_cfg(mesh4, scheme="implicit", eps=0.0,
                       nf=NFunctionPD(1.5, 0.2), kind=ADDITIVE_SHIFT)
        assert cfg.tau == pytest.approx(0.01)

    def test_quadratic_norm_rejects_delta(self, mesh4):
        with pytest.raises(ValueError, match="delta"):
            make_cfg(mesh4, nf=NFunctionPD(1.5, 0.1))

    def test_time_grid(self, mesh4):
        with pytest.raises(ValueError):
            make_cfg(mesh4, K=0, T=1.0)
        cfg = make_cfg(mesh4, K=0, T=0.0)
        assert cfg.K == 0
        with pytest.raises(ValueError):
            make_cfg(mesh4, K=-1)

    @pytest.mark.parametrize("field,value", [("scheme", "explicit"),
                                             ("kind", "cubic"), ("nonlinear", "picard")])
    def test_unknown_choice_rejected(self, mesh4, field, value):
        with pytest.raises(ValueError, match=f"^unknown .* '{value}'$"):
            make_cfg(mesh4, **{field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("tol_res", 0.0, "tol_res must be > 0, got 0.0"),
        ("tol_res", -1.0, "tol_res must be > 0, got -1.0"),
        ("tol_res", np.nan, "tol_res must be > 0, got nan"),
        ("max_iter", 0, "max_iter must be >= 1, got 0"),
        ("max_iter", -3, "max_iter must be >= 1, got -3"),
    ])
    def test_solver_bounds_rejected(self, mesh4, field, value, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            make_cfg(mesh4, scheme="implicit", **{field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("K", 4.0, "K must be a nonnegative integer"),
        ("max_iter", 2.5, "max_iter must be >= 1, got 2.5"),
        ("max_iter", 3.0, "max_iter must be >= 1, got 3.0"),
    ])
    def test_non_integer_counts_rejected(self, mesh4, field, value, message):
        # a float count once built a config whose run failed with a TypeError
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            make_cfg(mesh4, scheme="implicit", **{field: value})

    def test_numpy_integer_counts_accepted(self, mesh4):
        cfg = make_cfg(mesh4, scheme="implicit", K=np.int64(4), max_iter=np.int32(5))
        assert (cfg.K, cfg.max_iter) == (4, 5)

    def test_weight_at_a_zero_gradient_must_be_finite(self, mesh4):
        # eps^2 underflows to 0, so the quadratic-norm weight at a zero gradient is inf
        with pytest.raises(ValueError, match="eps = 1e-170 and delta = 0$"):
            make_cfg(mesh4, eps=1e-170)
        # (delta + eps)^(p-2) overflows
        with pytest.raises(ValueError, match="unbounded"):
            make_cfg(mesh4, scheme="implicit", eps=0.0, nf=NFunctionPD(1.01, 5e-324),
                     kind=ADDITIVE_SHIFT)
        make_cfg(mesh4, eps=1e-160)  # eps^2 = 1e-320 is subnormal but not 0

    def test_a_built_config_is_frozen(self, mesh4):
        cfg = make_cfg(mesh4)
        with pytest.raises(FrozenInstanceError):
            cfg.eps = 0.2
        assert cfg.eps == 0.1

    def test_inadmissible_r_warns_not_raises(self, mesh4):
        with pytest.warns(AdmissibilityWarning):
            cfg = make_cfg(mesh4, coeff=LowerOrderCoeff(2.6))
        assert cfg.outside_theory

    def test_admissible_r_is_silent(self, mesh4, recwarn):
        cfg = make_cfg(mesh4, coeff=LowerOrderCoeff(2.5))
        assert not cfg.outside_theory
        assert not any(isinstance(w.message, AdmissibilityWarning) for w in recwarn.list)


class TestSemiImplicitStep:
    def test_zero_fixed_point(self, mesh4):
        cfg = make_cfg(mesh4)
        out, stats = semi_implicit_step(FemFunction(mesh4, np.zeros(mesh4.n_interior)), cfg, 1)
        np.testing.assert_allclose(out.coeffs, 0.0, atol=1e-15)
        assert stats.iterations == 1

    def test_p2_equals_backward_euler_heat(self, mesh8):
        cfg = make_cfg(mesh8, nf=NFunctionPD(2.0), eps=0.5, K=20, T=0.1)
        u0 = interpolate_nodal(fields.make_field("sin-product"), mesh8)
        traj = oracles.kept_run(u0, cfg)
        ref = oracles.heat_backward_euler(mesh8.nodes, mesh8.cells,
                                          mesh8.boundary_node, u0.full_values(),
                                          cfg.tau, cfg.K)
        for u, rf in zip(traj.iterates, ref):
            np.testing.assert_allclose(u.full_values(), rf, atol=1e-12)

    def test_dense_solver_oracle(self, mesh4):
        cfg = make_cfg(mesh4, eps=0.1, K=10, T=0.1)
        u_prev = interpolate_nodal(fields.make_field("sin-product"), mesh4)
        out, _ = semi_implicit_step(u_prev, cfg, 1)
        m = assembly.mass_matrix(mesh4).toarray()
        k = assembly.weighted_stiffness(mesh4, u_prev, cfg.nf, cfg.eps,
                                        cfg.kind).toarray()
        ref = np.linalg.solve(m / cfg.tau + k, m @ u_prev.coeffs / cfg.tau)
        np.testing.assert_allclose(out.coeffs, ref, atol=1e-10)


class TestImplicitStep:
    def test_zero_fixed_point_one_iteration(self, mesh4):
        cfg = make_cfg(mesh4, scheme="implicit")
        out, stats = implicit_step(FemFunction(mesh4, np.zeros(mesh4.n_interior)), cfg, 1)
        np.testing.assert_allclose(out.coeffs, 0.0, atol=1e-15)
        assert stats.iterations == 1

    def test_p2_single_kacanov_iteration(self, mesh8, rng):
        cfg = make_cfg(mesh8, nf=NFunctionPD(2.0), scheme="implicit")
        u_prev = FemFunction(mesh8, rng.uniform(-1, 1, mesh8.n_interior))
        _, stats = implicit_step(u_prev, cfg, 1)
        assert stats.iterations == 1

    def test_kacanov_and_newton_agree(self, mesh8, rng):
        u_prev = FemFunction(mesh8, rng.uniform(-1, 1, mesh8.n_interior))
        for coeff in (LowerOrderCoeff(), LowerOrderCoeff(2.5)):
            cfg = make_cfg(mesh8, scheme="implicit", coeff=coeff,
                           source=fields.make_source("bump"))
            uk, _ = implicit_step(u_prev, cfg, 1)
            un, _ = implicit_step(u_prev, replace(cfg, nonlinear="newton"), 1)
            assert np.max(np.abs(uk.coeffs - un.coeffs)) < 1e-8

    def test_residual_below_tolerance(self, mesh8, rng):
        cfg = make_cfg(mesh8, scheme="implicit")
        u_prev = FemFunction(mesh8, rng.uniform(-1, 1, mesh8.n_interior))
        _, stats = implicit_step(u_prev, cfg, 1)
        assert stats.residual <= cfg.tol_res * (1.0 + 0.0)

    def test_nonconvergence_reports_history(self, mesh4, rng):
        cfg = make_cfg(mesh4, scheme="implicit", eps=0.01, max_iter=1,
                       tol_res=1e-15)
        u_prev = FemFunction(mesh4, rng.uniform(-1, 1, mesh4.n_interior))
        with pytest.raises(SolverError, match="history"):
            implicit_step(u_prev, cfg, 1)

    def test_accelerated_kacanov_matches_newton(self, mesh8, rng):
        # additive shift with a lower-order term: both stop at the same residual
        # tolerance, and this step is well enough conditioned that they agree to it
        cfg = make_cfg(mesh8, scheme="implicit", nf=NFunctionPD(1.5, 0.1), kind=ADDITIVE_SHIFT,
                       eps=0.05, coeff=LowerOrderCoeff(2.5, 0.5),
                       source=fields.make_source("bump", decay=1.0))
        u_prev = FemFunction(mesh8, rng.uniform(-1, 1, mesh8.n_interior))
        uk, sk = implicit_step(u_prev, cfg, 1)
        un, sn = implicit_step(u_prev, replace(cfg, nonlinear="newton"), 1)
        b, load = schemes._step_rhs(u_prev, cfg, 1)
        tol = cfg.tol_res * (1.0 + np.linalg.norm(load))
        assert sk.iterations > 1
        assert max(sk.residual, sn.residual) <= tol
        assert np.linalg.norm(schemes._defect(uk, b, cfg)) <= tol
        assert np.max(np.abs(uk.coeffs - un.coeffs)) <= tol

    def test_newton_failure_reports_line_search(self, mesh8):
        # tol-res below rounding: the residual stalls near 1e-15 and the line
        # search has to halve its step until it gives up
        cfg = make_cfg(mesh8, scheme="implicit", nonlinear="newton", tol_res=1e-30)
        u_prev = interpolate_nodal(fields.make_field("sin-product"), mesh8)
        with pytest.raises(SolverError) as info:
            implicit_step(u_prev, cfg, 1)
        message = str(info.value)
        assert "residual history" in message
        assert "line search per iteration (step: trial residual) [1: " in message
        assert ", 0.5: " in message

    def test_newton_line_search_stops_at_the_rounding_floor(self, mesh8):
        # below rounding a halved step no longer moves v: the last search ends
        # after a few trials instead of running all 30
        cfg = make_cfg(mesh8, scheme="implicit", nonlinear="newton", tol_res=1e-30)
        u_prev = interpolate_nodal(fields.make_field("sin-product"), mesh8)
        with pytest.raises(SolverError, match="^Newton line search failed at residual ") as info:
            implicit_step(u_prev, cfg, 1)
        message = str(info.value)
        assert "residual history [" in message
        last_search = message.rsplit("[", 1)[1]
        assert 1 <= last_search.count(":") <= 5

    def test_newton_iteration_limit_reports_line_search(self, mesh8):
        cfg = make_cfg(mesh8, scheme="implicit", nonlinear="newton", max_iter=2, tol_res=1e-15)
        u_prev = interpolate_nodal(fields.make_field("sin-product"), mesh8)
        with pytest.raises(SolverError, match=r"^Newton did not reach .* line search per "
                                              r"iteration \(step: trial residual\) "
                                              r"\[1: [0-9.e+-]+\], \[1: [0-9.e+-]+\]$"):
            implicit_step(u_prev, cfg, 1)

    def test_kacanov_failure_names_the_acceleration(self, mesh4, rng):
        cfg = make_cfg(mesh4, scheme="implicit", eps=0.01, max_iter=2, tol_res=1e-15)
        u_prev = FemFunction(mesh4, rng.uniform(-1, 1, mesh4.n_interior))
        with pytest.raises(SolverError, match="^Anderson-accelerated \\(depth 3\\) Kacanov "):
            implicit_step(u_prev, cfg, 1)


class TestAndersonMixing:
    @staticmethod
    def mix_all(pairs):
        """Feed (v_j, g_j) pairs to one mixer, with every warning an error."""
        mix = schemes._AndersonMixer()
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            return [mix(v, g) for v, g in pairs]

    def test_first_call_is_the_plain_sweep(self, rng):
        v, g = rng.standard_normal((2, 7))
        assert self.mix_all([(v, g)])[0] is g

    def test_zero_history_gives_the_plain_sweep(self):
        # a step started at its own fixed point: every update and difference is 0
        zero = np.zeros(5)
        outs = self.mix_all([(zero, zero)] * 6)
        for out in outs:
            np.testing.assert_array_equal(out, 0.0)

    def test_repeated_updates_get_coefficient_zero(self, rng):
        # the same update g - v in every sweep: every dF column is 0, dG is not
        d = rng.standard_normal(6)
        vs = rng.standard_normal((5, 6))
        outs = self.mix_all([(v, v + d) for v in vs])
        for v, out in zip(vs, outs):
            np.testing.assert_array_equal(out, v + d)

    def test_dependent_columns_are_dropped(self, rng):
        # updates alternate between a and b, so every dF column is +-(b - a):
        # only the newest enters the fit, and the result is depth-1 Anderson
        a, b = rng.standard_normal((2, 6))
        vs = rng.standard_normal((6, 6))
        fs = [a, b] * 3
        outs = self.mix_all([(v, v + f) for v, f in zip(vs, fs)])
        for j in range(1, 6):
            g, g_prev = vs[j] + fs[j], vs[j - 1] + fs[j - 1]
            dF = fs[j] - fs[j - 1]
            gamma = (dF @ fs[j]) / (dF @ dF)
            np.testing.assert_allclose(outs[j], g - gamma * (g - g_prev), rtol=1e-12, atol=1e-12)
            assert np.all(np.isfinite(outs[j]))

    def test_matches_least_squares_on_independent_history(self, rng):
        n = 9
        vs, gs = rng.standard_normal((2, 6, n))
        outs = self.mix_all(list(zip(vs, gs)))
        fs = gs - vs
        for j in range(1, 6):
            cols = range(j, max(j - schemes.ANDERSON_DEPTH, 0), -1)
            dF = np.stack([fs[i] - fs[i - 1] for i in cols], axis=1)
            dG = np.stack([gs[i] - gs[i - 1] for i in cols], axis=1)
            gamma = np.linalg.lstsq(dF, fs[j], rcond=None)[0]
            np.testing.assert_allclose(outs[j], gs[j] - dG @ gamma, rtol=1e-10, atol=1e-12)

    def test_fixed_point_step_stays_finite(self, mesh4):
        # u_prev = 0 without a source is the step's own fixed point; a tolerance
        # that is never met, set past the validator, runs sweeps on an all-zero history
        cfg = make_cfg(mesh4, scheme="implicit", max_iter=4)
        object.__setattr__(cfg, "tol_res", -1.0)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=r"residual history \[0\.0, 0\.0, 0\.0, 0\.0\]"):
                implicit_step(FemFunction(mesh4, np.zeros(mesh4.n_interior)), cfg, 1)


MESH2 = unit_square_mesh(2)
# eps, or delta, as 10^x: from 1 down past 1.5e-162, where eps^2 underflows, to 0
_TINY = st.one_of(st.just(0.0), st.floats(-330.0, 0.0).map(lambda x: 10.0**x))


def _accepted_config(p, delta, eps, kind, scheme):
    """The config of these fields with eps moved into the values that
    SchemeConfig accepts with the others, an interval [lo, 1): every rule on
    eps fails below some value, as the weight at a zero gradient falls while
    eps grows, and eps = 1/2 passes all of them.  lo is found by bisection
    on the bit patterns of the nonnegative doubles, which order them."""
    nf = NFunctionPD(p, 0.0 if kind == QUADRATIC_NORM else delta)

    def build(bits):
        e = float(np.int64(bits).view(np.float64))
        return SchemeConfig(mesh=MESH2, nf=nf, eps=e, K=1, T=1.0, scheme=scheme, kind=kind)

    lo, hi = 0, int(np.float64(0.5).view(np.int64))
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            build(mid)
            hi = mid
        except ValueError:
            lo = mid + 1
    eps = min(max(eps, float(np.int64(lo).view(np.float64))), np.nextafter(1.0, 0.0))
    return build(int(np.float64(eps).view(np.int64)))


@settings(max_examples=300, deadline=None)
@given(p=st.floats(1.01, 2.0), delta=_TINY, eps=_TINY,
       kind=st.sampled_from(REGULARIZATION_KINDS), scheme=st.sampled_from(SCHEMES))
@example(p=1.5, delta=0.0, eps=1e-170, kind=QUADRATIC_NORM, scheme=SEMI_IMPLICIT)
@example(p=1.01, delta=5e-324, eps=0.0, kind=ADDITIVE_SHIFT, scheme="implicit")
def test_an_accepted_config_has_a_finite_weight(p, delta, eps, kind, scheme):
    # the invariant that lets the assemblers use the weight unchecked; eps
    # below the accepted values is raised to the smallest of them, so no draw
    # is discarded and draws below 1.5e-162 test the quadratic-norm edge
    cfg = _accepted_config(p, delta, eps, kind, scheme)
    t = np.concatenate([[0.0], np.logspace(-300.0, 300.0, 61)])
    with np.errstate(over="ignore"):  # t^2 overflows beyond 1e154 and the weight rounds to 0
        w = diffusion_weight(cfg.nf, cfg.eps, cfg.kind, t)
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)


GRID_P = (1.1, 1.2, 1.5, 1.8, 2.0)
GRID_EPS = (1e-1, 1e-2, 1e-3)


@pytest.mark.parametrize("kind", [QUADRATIC_NORM, ADDITIVE_SHIFT])
@pytest.mark.parametrize("p", GRID_P)
@pytest.mark.parametrize("eps", GRID_EPS)
def test_default_solver_converges_over_the_grid(mesh8, monkeypatch, kind, p, eps):
    # plain Kacanov failed 5 of these 30 cases (p = 1.1 at eps 1e-2 and 1e-3
    # for both regularizations, quadratic-norm p = 1.2 at eps 1e-3)
    cfg = make_cfg(mesh8, scheme="implicit", nf=NFunctionPD(p), eps=eps, kind=kind, K=5, T=0.05)
    assert cfg.nonlinear == "kacanov" and cfg.max_iter == 60
    u0 = interpolate_nodal(fields.make_field("sin-product"), mesh8)
    traj = run_evolution(u0, cfg)
    assert all(st.residual <= cfg.tol_res for st in traj.stats)
    # reusing factors, as systems of REUSE_DOFS unknowns or more do, converges
    # too, with its sweeps' CG stopped early by the forcing
    monkeypatch.setattr(schemes, "REUSE_DOFS", 0)
    assert all(st.residual <= cfg.tol_res for st in run_evolution(u0, cfg).stats)
    # and with every CG solved to 1e-12 it takes the same sweeps
    monkeypatch.setattr(schemes, "KACANOV_FORCING", 0.0)
    reused = run_evolution(u0, cfg)
    assert [st.iterations for st in reused.stats] == [st.iterations for st in traj.stats]
    assert all(st.residual <= cfg.tol_res for st in reused.stats)


class TestKacanovIdentity:
    def test_identity_holds(self, mesh8, rng):
        u_prev = FemFunction(mesh8, rng.uniform(-1, 1, mesh8.n_interior))
        cfg = make_cfg(mesh8)
        assert oracles.first_kacanov_equals_semi_implicit(u_prev, cfg)

    def test_randomized_configs(self, rng):
        for _ in range(8):
            n = int(rng.choice([2, 4, 8]))
            mesh = unit_square_mesh(n)
            p = float(rng.uniform(1.1, 2.0))
            delta = float(rng.choice([0.0, 0.1]))
            kind = ADDITIVE_SHIFT if delta > 0 else (
                QUADRATIC_NORM if rng.random() < 0.5 else ADDITIVE_SHIFT)
            cfg = make_cfg(mesh, nf=NFunctionPD(p, delta), kind=kind,
                           eps=float(rng.uniform(0.01, 0.9)),
                           K=int(rng.integers(1, 10)), T=float(rng.uniform(0.01, 1.0)),
                           source=fields.make_source("bump",
                                                     amplitude=float(rng.uniform(-2, 2))))
            u_prev = FemFunction(mesh, rng.uniform(-1, 1, mesh.n_interior))
            assert oracles.first_kacanov_equals_semi_implicit(u_prev, cfg)

    def test_p2_trajectories_fully_coincide(self, mesh8, rng):
        cfg = make_cfg(mesh8, nf=NFunctionPD(2.0), K=5, T=0.05)
        u0 = FemFunction(mesh8, rng.uniform(-1, 1, mesh8.n_interior))
        semi = oracles.kept_run(u0, cfg)
        impl = oracles.kept_run(u0, replace(cfg, scheme="implicit"))
        for a, b in zip(semi.iterates, impl.iterates):
            np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-12)


class TestRunEvolution:
    @pytest.mark.parametrize("scheme", ["semi-implicit", "implicit"])
    def test_iterates_are_the_public_step(self, mesh8, rng, scheme):
        cfg = make_cfg(mesh8, scheme=scheme, K=3, T=0.03,
                       coeff=LowerOrderCoeff(2.5),
                       source=fields.make_source("bump", decay=1.0))
        u0 = FemFunction(mesh8, rng.uniform(-1, 1, mesh8.n_interior))
        traj = oracles.kept_run(u0, cfg)
        for k in range(1, traj.K + 1):
            step = implicit_step if scheme == "implicit" else semi_implicit_step
            u, _ = step(traj.iterates[k - 1], cfg, k)
            assert np.array_equal(u.coeffs, traj.iterates[k].coeffs)

    def test_observers_see_each_iterate_as_it_comes(self, mesh4, rng):
        # every observer gets u^0..u^K in order, the first before the second,
        # and the run returns its stats alone; a failed step is observed by none
        u0 = FemFunction(mesh4, rng.uniform(-1, 1, mesh4.n_interior))
        seen = []
        traj = run_evolution(u0, make_cfg(mesh4, K=3, T=0.03),
                             lambda u: seen.append(("a", u)), lambda u: seen.append(("b", u)))
        assert [name for name, _ in seen] == ["a", "b"] * 4 and seen[0][1] is u0
        assert all(seen[i][1] is seen[i + 1][1] for i in range(0, 8, 2))
        assert set(vars(traj)) == {"config", "stats"} and len(traj.stats) == 3
        seen.clear()
        cfg = make_cfg(mesh4, scheme="implicit", eps=0.01, max_iter=1, tol_res=1e-15)
        with pytest.raises(SolverError, match="step 1"):
            run_evolution(u0, cfg, seen.append)
        assert seen == [u0]

    def test_k_zero(self, mesh4):
        cfg = make_cfg(mesh4, K=0, T=0.0)
        u0 = FemFunction(mesh4, np.zeros(mesh4.n_interior))
        traj = oracles.kept_run(u0, cfg)
        assert len(traj.iterates) == 1
        assert traj.iterates[0] is u0

    def test_wrong_mesh_rejected(self, mesh4):
        cfg = make_cfg(mesh4)
        other = unit_square_mesh(4)
        with pytest.raises(ValueError, match="mesh"):
            run_evolution(FemFunction(other, np.zeros(other.n_interior)), cfg)

    def test_energy_decay_random_data(self, mesh8, rng):
        # f = 0, zero coefficient: the regularized energy never increases
        cfg = make_cfg(mesh8, K=5, T=0.05)
        for _ in range(5):
            u0 = FemFunction(mesh8, rng.uniform(-1, 1, mesh8.n_interior))
            traj = oracles.kept_run(u0, cfg)
            es = [assembly.energy(u, cfg.nf, cfg.eps, cfg.kind)
                  for u in traj.iterates]
            assert all(b <= a * (1.0 + 1e-12) for a, b in zip(es, es[1:]))

    def test_p2_matrix_power_oracle(self):
        mesh = unit_square_mesh(2)
        cfg = make_cfg(mesh, nf=NFunctionPD(2.0), K=4, T=0.04)
        u0 = FemFunction(mesh, np.array([0.7]))
        traj = oracles.kept_run(u0, cfg)
        m = assembly.mass_matrix(mesh).toarray()
        # at p = 2 the weight is exactly 1: the unweighted stiffness matrix
        k = assembly.weighted_stiffness(mesh, u0, cfg.nf, cfg.eps, cfg.kind).toarray()
        step = np.linalg.solve(m + cfg.tau * k, m)
        expect = u0.coeffs.copy()
        for u in traj.iterates[1:]:
            expect = step @ expect
            np.testing.assert_allclose(u.coeffs, expect, atol=1e-13)

    def test_step_failure_reports_index(self, mesh4, rng):
        cfg = make_cfg(mesh4, scheme="implicit", eps=0.01, max_iter=1, tol_res=1e-15)
        u0 = FemFunction(mesh4, rng.uniform(-1, 1, mesh4.n_interior))
        with pytest.raises(SolverError, match="step 1"):
            run_evolution(u0, cfg)

    def test_stats_recorded(self, mesh4, rng):
        cfg = make_cfg(mesh4, K=3, T=0.03)
        u0 = FemFunction(mesh4, rng.uniform(-1, 1, mesh4.n_interior))
        traj = run_evolution(u0, cfg)
        assert len(traj.stats) == 3
        assert all(s.residual < 1e-10 for s in traj.stats)

