import numpy as np
import pytest
from dataclasses import replace

from plapflow import assembly, diagnostics, fields
from plapflow.config import example_config, load_run_config
from plapflow.diagnostics import (StudyConfig, cell_bound_satisfied,
                                  check_energy_ledgers, discrepancy_terms,
                                  discrepancy_total, heat_exact,
                                  heat_manufactured_error, heat_run_error,
                                  lagged_dissipation_sum, run_study)
from plapflow.lower_order import LowerOrderCoeff
from plapflow.mesh import FemFunction, interpolate_nodal, unit_square_mesh
from plapflow.orlicz import ADDITIVE_SHIFT, QUADRATIC_NORM, NFunctionPD, S_EPS_LIPSCHITZ_MAX
from plapflow.schemes import SchemeConfig, Trajectory, run_evolution

import oracles


def make_cfg(mesh, **kw):
    base = dict(mesh=mesh, nf=NFunctionPD(1.5), eps=0.1, K=5, T=0.05,
                kind=QUADRATIC_NORM)
    base.update(kw)
    return SchemeConfig(**base)


def random_u(mesh, rng, scale=1.0):
    return FemFunction(mesh, scale * rng.uniform(-1, 1, mesh.n_interior))


class TestLedgers:
    def test_pure_flow_all_ledgers_pass(self, mesh8, rng):
        cfg = make_cfg(mesh8)
        rep = check_energy_ledgers(run_evolution(random_u(mesh8, rng), cfg))
        names = [e.name for e in rep.entries]
        assert names == ["energy-stability", "apriori", "ener-bound"]
        assert rep.passed

    def test_adversarial_steps_still_stable(self, mesh8, rng):
        for tau in (10.0, 0.01):
            for eps in (0.5, 0.01):
                cfg = make_cfg(mesh8, eps=eps, K=5, T=5 * tau)
                rep = check_energy_ledgers(run_evolution(random_u(mesh8, rng), cfg))
                assert rep.passed, (tau, eps, [e.to_dict() for e in rep.entries])

    def test_with_source_and_coefficient(self, mesh8, rng):
        cfg = make_cfg(mesh8, nf=NFunctionPD(1.5, 0.05), kind=ADDITIVE_SHIFT,
                       coeff=LowerOrderCoeff.power(2.5),
                       source=fields.make_source("bump", amplitude=2.0))
        rep = check_energy_ledgers(run_evolution(random_u(mesh8, rng), cfg))
        assert [e.name for e in rep.entries] == ["apriori", "ener-bound"]
        assert rep.passed

    @pytest.mark.parametrize("scheme", ["semi-implicit", "implicit"])
    def test_walking_two_iterates_at_a_time_changes_no_bit(self, mesh8, rng, scheme):
        cfg = make_cfg(mesh8, scheme=scheme, nf=NFunctionPD(1.5, 0.05), kind=ADDITIVE_SHIFT,
                       coeff=LowerOrderCoeff.power(2.5),
                       source=fields.make_source("bump", amplitude=2.0))
        traj = run_evolution(random_u(mesh8, rng), cfg)
        assert check_energy_ledgers(traj).to_dict() == oracles.check_energy_ledgers(traj).to_dict()
        assert lagged_dissipation_sum(traj) == oracles.lagged_dissipation_sum(traj)

    def test_implicit_ledger(self, mesh8, rng):
        cfg = make_cfg(mesh8, scheme="implicit",
                       source=fields.make_source("bump"))
        rep = check_energy_ledgers(run_evolution(random_u(mesh8, rng), cfg))
        assert [e.name for e in rep.entries] == ["apriori-implicit"]
        assert rep.passed

    def test_corrupted_trajectory_fails(self, mesh8, rng):
        cfg = make_cfg(mesh8)
        traj = run_evolution(random_u(mesh8, rng), cfg)
        bad = Trajectory(cfg, [u.copy() for u in traj.iterates], traj.stats)
        bad.iterates[-1].coeffs *= 10.0  # energy jump breaks the decay
        rep = check_energy_ledgers(bad)
        assert not rep.passed

    def test_k_zero_trivial(self, mesh4):
        cfg = make_cfg(mesh4, K=0, T=0.0)
        rep = check_energy_ledgers(run_evolution(FemFunction.zeros(mesh4), cfg))
        assert rep.passed and rep.entries == []


class TestDiscrepancy:
    def test_p2_both_fields_vanish(self, mesh8, rng):
        cfg = make_cfg(mesh8, nf=NFunctionPD(2.0))
        traj = run_evolution(random_u(mesh8, rng), cfg)
        rec = discrepancy_terms(traj, 1)
        assert rec.E_norm_L1 == pytest.approx(0.0, abs=1e-14)
        assert rec.E_max_cell == pytest.approx(0.0, abs=1e-14)
        assert rec.F_dual_norm == pytest.approx(0.0, abs=1e-12)
        assert rec.E_bound_cell == 0.0
        assert rec.cell_bound_holds

    def test_steady_state_lag_field_vanishes(self, mesh8, rng):
        cfg = make_cfg(mesh8, K=2, T=0.02)
        u = random_u(mesh8, rng)
        steady = Trajectory(cfg, [u, u.copy(), u.copy()], [])
        rec = discrepancy_terms(steady, 1)
        assert rec.F_dual_norm == pytest.approx(0.0, abs=1e-13)
        assert rec.cell_bound_holds

    def test_dual_norm_of_lag_field_recomputed(self, mesh8, rng):
        # max over interior hats of |<F, grad phi_i>| / ||phi_i||_{1,2}, with
        # F = S_eps(grad u^k) - w(grad u^{k-1}) grad u^k recomputed cell by
        # cell and the hat norms from the dense oracle matrices
        cfg = make_cfg(mesh8, eps=0.2)
        traj = run_evolution(random_u(mesh8, rng), cfg)
        rec = discrepancy_terms(traj, 2)
        p, eps = cfg.nf.p, cfg.eps
        g_cur = assembly.gradients(traj.iterates[2])
        g_lag = assembly.gradients(traj.iterates[1])
        nodes, cells = mesh8.nodes, mesh8.cells
        pair = np.zeros(mesh8.n_nodes)
        for tri, g, lag in zip(cells, g_cur, g_lag):
            f = g * ((g @ g + eps * eps) ** ((p - 2.0) / 2.0)
                     - (lag @ lag + eps * eps) ** ((p - 2.0) / 2.0))
            (x0, y0), (x1, y1), (x2, y2) = nodes[tri]
            det = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
            hat_grads = np.array([[y1 - y2, x2 - x1], [y2 - y0, x0 - x2],
                                  [y0 - y1, x1 - x0]]) / det
            pair[tri] += 0.5 * abs(det) * hat_grads @ f
        hat_norm_sq = np.diag(oracles.dense_mass(nodes, cells)
                              + oracles.dense_stiffness(nodes, cells))
        free = mesh8.interior
        expect = np.max(np.abs(pair[free]) / np.sqrt(hat_norm_sq[free]))
        assert expect > 1e-3
        assert rec.F_dual_norm == pytest.approx(expect, rel=1e-12)

    def test_cell_bound_scalar_oracle(self, mesh8, rng):
        # per-cell |E| = |S_0(g) - S_eps(g)| <= (2-p) eps^(p-1), recomputed
        # cell by cell from scalar gradient data
        cfg = make_cfg(mesh8, eps=0.2)
        traj = run_evolution(random_u(mesh8, rng), cfg)
        rec = discrepancy_terms(traj, 1)
        g = assembly.gradients(traj.iterates[1])
        p, eps = cfg.nf.p, cfg.eps
        worst = 0.0
        for gx, gy in g:
            r2 = gx * gx + gy * gy
            s0 = np.array([gx, gy]) * r2 ** ((p - 2.0) / 2.0) if r2 > 0 else np.zeros(2)
            se = np.array([gx, gy]) * (r2 + eps * eps) ** ((p - 2.0) / 2.0)
            worst = max(worst, float(np.hypot(*(s0 - se))))
        assert rec.E_max_cell == pytest.approx(worst, rel=1e-12)
        assert worst <= (2.0 - p) * eps ** (p - 1.0) + 1e-12
        assert rec.E_bound_L1 == pytest.approx(rec.E_bound_cell * 1.0, rel=1e-13)

    def test_requires_semi_implicit_quadratic_norm(self, mesh4, rng):
        impl = make_cfg(mesh4, scheme="implicit")
        traj = run_evolution(random_u(mesh4, rng), impl)
        with pytest.raises(ValueError, match="semi-implicit"):
            discrepancy_terms(traj, 1)
        shift = make_cfg(mesh4, kind=ADDITIVE_SHIFT)
        traj = run_evolution(random_u(mesh4, rng), shift)
        with pytest.raises(ValueError, match="quadratic-norm"):
            discrepancy_total(traj)

    def test_step_index_validated(self, mesh4, rng):
        traj = run_evolution(random_u(mesh4, rng), make_cfg(mesh4))
        with pytest.raises(ValueError):
            discrepancy_terms(traj, 0)
        with pytest.raises(ValueError):
            discrepancy_terms(traj, traj.K + 1)


class TestDiscrepancyTotal:
    def test_formula_recomputation(self, mesh8, rng):
        cfg = make_cfg(mesh8, eps=0.3, K=4, T=0.04)
        traj = run_evolution(random_u(mesh8, rng), cfg)
        p, eps, tau = cfg.nf.p, cfg.eps, cfg.tau
        alpha = np.sqrt(tau * eps ** (p - 2.0))
        diss = lagged_dissipation_sum(traj)
        expect = ((2.0 - p) * eps ** (p - 1.0)
                  + S_EPS_LIPSCHITZ_MAX**2 * alpha * diss
                  + tau * eps ** (p - 2.0) / (2.0 * alpha))
        assert discrepancy_total(traj) == pytest.approx(expect, rel=1e-13)

    def test_p2_specialization(self, mesh8, rng):
        # the regularization residual vanishes and the balanced tail term is
        # sqrt(tau)/2: pure square-root-of-tau decay
        cfg = make_cfg(mesh8, nf=NFunctionPD(2.0), K=4, T=0.04)
        traj = run_evolution(random_u(mesh8, rng), cfg)
        total = discrepancy_total(traj)
        rec = discrepancy_terms(traj, 1)
        assert rec.E_bound_cell == 0.0
        alpha = np.sqrt(cfg.tau)
        tail = cfg.tau / (2.0 * alpha)
        assert tail == pytest.approx(np.sqrt(cfg.tau) / 2.0, rel=1e-14)
        assert total >= tail
        middle = S_EPS_LIPSCHITZ_MAX**2 * alpha * lagged_dissipation_sum(traj)
        assert total == pytest.approx(tail + middle, rel=1e-13)

    def test_dissipation_controlled_by_initial_energy(self, mesh8, rng):
        # tau^2 sum_k D_k <= 2 E[u^0] for the pure flow (energy stability)
        cfg = make_cfg(mesh8, K=8, T=0.08)
        u0 = random_u(mesh8, rng)
        traj = run_evolution(u0, cfg)
        e0 = assembly.energy(u0, cfg.nf, cfg.eps, cfg.kind)
        assert lagged_dissipation_sum(traj) <= 2.0 * e0 * (1.0 + 1e-9)

    def test_cell_bound_satisfied_ratio(self, mesh8, rng):
        traj = run_evolution(random_u(mesh8, rng), make_cfg(mesh8))
        assert 0.0 <= cell_bound_satisfied(traj) <= 1.0 + 1e-10


@pytest.fixture(scope="module")
def small_report():
    mesh = unit_square_mesh(2)
    base = SchemeConfig(mesh=mesh, nf=NFunctionPD(1.5), eps=0.5, K=4, T=0.2,
                        kind=QUADRATIC_NORM)
    sc = StudyConfig(base=base, initial=fields.make_field("sin-product"),
                     levels=3, control_levels=4)
    return run_study(sc)


class TestStudy:
    def test_report_structure(self, small_report):
        rep = small_report
        assert len(rep.levels) == 3
        assert len(rep.cauchy) == 2
        assert len(rep.control_totals) == 4
        assert len(rep.coupling_products) == 3
        assert set(rep.assertions) == {
            "all-levels-ran", "cauchy-linf-l2-decreasing", "gap-decreasing",
            "discrepancy-decreasing", "e-cell-bound", "ledgers",
            "coupling-product-decreasing", "negative-control"}
        assert not rep.anti_coupled

    def test_levels_carry_real_numbers(self, small_report):
        for lv in small_report.levels:
            assert lv.error is None
            assert np.isfinite(lv.gap) and np.isfinite(lv.discrepancy_total)
            assert lv.ledgers_semi.passed and lv.ledgers_implicit.passed

    def test_parameters_follow_the_rule(self, small_report):
        eps = [lv.eps for lv in small_report.levels]
        assert eps == pytest.approx([0.5, 0.25, 0.125])
        K = [lv.K for lv in small_report.levels]
        assert K == [4, 8, 16]  # tau halves at p = 1.5
        assert small_report.assertions["coupling-product-decreasing"]

    def test_serializable(self, small_report):
        import json
        payload = small_report.to_dict()
        json.dumps(payload)

    def test_anti_coupled_control_is_flagged(self):
        mesh = unit_square_mesh(2)
        base = SchemeConfig(mesh=mesh, nf=NFunctionPD(1.5), eps=0.5, K=4, T=0.2,
                            kind=QUADRATIC_NORM)
        sc = StudyConfig(base=base, initial=fields.make_field("sin-product"),
                         levels=3, coupling="fixed-tau", control_levels=4)
        rep = run_study(sc)
        assert rep.anti_coupled
        assert not rep.assertions["coupling-product-decreasing"]
        assert not rep.passed
        taus = [lv.tau for lv in rep.levels]
        assert taus == pytest.approx([0.05, 0.05, 0.05])

    def test_study_config_validation(self):
        mesh = unit_square_mesh(2)
        base = SchemeConfig(mesh=mesh, nf=NFunctionPD(1.5), eps=0.5, K=4, T=0.2,
                            kind=QUADRATIC_NORM)
        with pytest.raises(ValueError):
            StudyConfig(base=base, initial=fields.make_field("zero"), levels=1)
        with pytest.raises(ValueError):
            StudyConfig(base=base, initial=fields.make_field("zero"),
                        coupling="sideways")

    @pytest.mark.parametrize("control_levels", [0, 1])
    def test_negative_control_needs_two_levels(self, control_levels):
        # with fewer than two control totals the negative control trivially fails
        base = SchemeConfig(mesh=unit_square_mesh(2), nf=NFunctionPD(1.5), eps=0.5, K=4, T=0.2,
                            kind=QUADRATIC_NORM)
        with pytest.raises(ValueError, match="at least two control levels"):
            StudyConfig(base=base, initial=fields.make_field("sin-product"),
                        control_levels=control_levels)


def test_example_study_at_p_1_2_passes(tmp_path):
    # the example config with only p changed, under the default solver; plain
    # Kacanov failed all-levels-ran and the three decrease assertions here
    text = example_config()
    assert "\np = 1.5\n" in text
    path = tmp_path / "p12.ini"
    path.write_text(text.replace("\np = 1.5\n", "\np = 1.2\n"))
    setup = load_run_config(str(path), want_study=True)
    assert setup.study.base.nf.p == 1.2 and setup.study.base.nonlinear == "kacanov"
    rep = run_study(setup.study)
    assert len(rep.assertions) == 8
    assert all(lv.error is None for lv in rep.levels)
    assert all(rep.assertions.values()), rep.assertions


def test_failed_level_names_level_step_and_parameters():
    # one Kacanov sweep cannot reach tol-res, so every implicit run fails
    base = SchemeConfig(mesh=unit_square_mesh(2), nf=NFunctionPD(1.5), eps=0.5, K=4, T=0.2,
                        kind=QUADRATIC_NORM, max_iter=1)
    rep = run_study(StudyConfig(base=base, initial=fields.make_field("sin-product"),
                                levels=2, control_levels=2))
    assert not rep.assertions["all-levels-ran"]
    for lv in rep.levels:
        assert lv.error.startswith(f"level {lv.n}: implicit step 1 ")
        assert f"p = 1.5, eps = {lv.eps:g}, tau = {lv.tau:g}" in lv.error
        assert "Kacanov iteration did not reach" in lv.error


def test_level_0_semi_run_is_the_first_control_run(monkeypatch):
    # level 0 and control m = 0 share mesh, eps, K and u0: one run serves both,
    # also when level 0's implicit run fails
    calls = []

    def counting_run_evolution(u0, cfg):
        calls.append(cfg.scheme)
        return run_evolution(u0, cfg)

    monkeypatch.setattr(diagnostics, "run_evolution", counting_run_evolution)
    initial = fields.make_field("sin-product")
    for max_iter in (60, 1):
        base = SchemeConfig(mesh=unit_square_mesh(2), nf=NFunctionPD(1.5), eps=0.5, K=4,
                            T=0.2, kind=QUADRATIC_NORM, max_iter=max_iter)
        calls.clear()
        rep = run_study(StudyConfig(base=base, initial=initial, levels=3, control_levels=4))
        assert len(calls) == 2 * 3 + 4 - 1
        assert calls.count("implicit") == 3
        alone = discrepancy_total(run_evolution(interpolate_nodal(initial, base.mesh), base))
        assert rep.control_totals[0] == alone
        assert (rep.levels[0].error is None) == (max_iter == 60)


class TestHeatManufactured:
    def test_exact_solution_satisfies_initial_condition(self):
        x = np.array([0.3, 0.5])
        y = np.array([0.7, 0.5])
        np.testing.assert_allclose(heat_exact(x, y, 0.0),
                                   np.sin(np.pi * x) * np.sin(np.pi * y))

    def test_initial_interpolation_error(self):
        # t = 0 contribution is the P1 interpolation error of the eigenmode
        mesh = unit_square_mesh(4)
        u = interpolate_nodal(lambda x, y: heat_exact(x, y, 0.0), mesh)
        err = assembly.l2_error(u, heat_exact, t=0.0)
        assert err == pytest.approx(0.0601, abs=0.007)

    def test_error_decreases_with_tau(self):
        errs = heat_manufactured_error(n=16, K=4, T=0.05, levels=2)
        assert errs[1] < errs[0]

    def test_implicit_matches_semi_for_heat(self):
        a = heat_run_error(8, 10, 0.05, scheme="semi-implicit")
        b = heat_run_error(8, 10, 0.05, scheme="implicit")
        assert a == pytest.approx(b, rel=1e-9)
