import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, given, settings, strategies as st

from plapflow import assembly, diagnostics, fields
from plapflow.config import example_config, load_run_config
from plapflow.diagnostics import (LevelResult, StudyConfig, cell_bound_satisfied,
                                  check_energy_ledgers, discrepancy_total, heat_exact,
                                  heat_manufactured_error, heat_run_error,
                                  lagged_dissipation_sum, run_study)
from plapflow.lower_order import LowerOrderCoeff, admissibility
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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), scheme=st.sampled_from(["semi-implicit", "implicit"]),
           kind=st.sampled_from([QUADRATIC_NORM, ADDITIVE_SHIFT]),
           p=st.floats(1.0, 2.0, exclude_min=True), eps=st.floats(1e-3, 0.9),
           tau=st.floats(1e-3, 0.5), K=st.integers(1, 4), n=st.integers(1, 8),
           initial=st.sampled_from(["sin-product", "bilinear", "random"]),
           amplitude=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1),
           source=st.sampled_from(["zero", "sin-product", "bump", "bilinear"]),
           lower=st.sampled_from(["zero", "power", "shifted-power"]))
    def test_random_runs_pass_every_ledger(self, data, scheme, kind, p, eps, tau, K, n,
                                           initial, amplitude, seed, source, lower):
        if lower == "zero":
            coeff = LowerOrderCoeff.zero()
        else:
            # r anywhere in the scheme's admissible interval, c7 tau <= 0.95
            r_max = 2.0 * p if scheme == "implicit" else p + 1.0
            assume(r_max > 2.0)  # no double lies in (2, r_max] when p is within an ulp of 1
            r = data.draw(st.floats(2.0, r_max, exclude_min=True,
                                    exclude_max=scheme == "semi-implicit" and p == 2.0), "r")
            coeff = (LowerOrderCoeff.power(r) if lower == "power" else
                     LowerOrderCoeff.shifted_power(r, data.draw(st.floats(-1.0, 1.9), "c")))
        assert admissibility(coeff, p, scheme)
        delta = 0.0 if kind == QUADRATIC_NORM else data.draw(st.floats(0.0, 1.0), "delta")
        mesh = unit_square_mesh(n)
        cfg = make_cfg(mesh, scheme=scheme, kind=kind, nf=NFunctionPD(p, delta), eps=eps,
                       K=K, T=K * tau, coeff=coeff, source=fields.make_source(
                           source, decay=data.draw(st.floats(0.0, 2.0), "decay"),
                           amplitude=data.draw(st.floats(-3.0, 3.0), "source amplitude")))
        if initial == "random":
            u0 = random_u(mesh, np.random.default_rng(seed), scale=amplitude)
        else:
            u0 = interpolate_nodal(fields.make_field(initial, amplitude), mesh)
        rep = check_energy_ledgers(run_evolution(u0, cfg))
        assert rep.passed, [e.to_dict() for e in rep.entries]


class TestDiscrepancy:
    def test_p2_both_fields_vanish(self, mesh8, rng):
        cfg = make_cfg(mesh8, nf=NFunctionPD(2.0))
        traj = run_evolution(random_u(mesh8, rng), cfg)
        for u in traj.iterates[1:]:
            e_abs = diagnostics._regularization_residual(2.0, cfg.eps, assembly.gradients(u))
            assert np.max(e_abs) == pytest.approx(0.0, abs=1e-14)
        assert cell_bound_satisfied(traj) == 0.0

    def test_steady_state_lag_field_vanishes(self, mesh8, rng):
        cfg = make_cfg(mesh8, K=2, T=0.02)
        u = random_u(mesh8, rng)
        steady = Trajectory(cfg, [u, u.copy(), u.copy()], [])
        assert cell_bound_satisfied(steady) <= 1.0 + 1e-10

    def test_cell_bound_scalar_oracle(self, mesh8, rng):
        # per-cell |E| = |S_0(g) - S_eps(g)| <= (2-p) eps^(p-1), recomputed
        # cell by cell from scalar gradient data of every step
        cfg = make_cfg(mesh8, eps=0.2)
        traj = run_evolution(random_u(mesh8, rng), cfg)
        p, eps = cfg.nf.p, cfg.eps
        worst = 0.0
        for u in traj.iterates[1:]:
            for gx, gy in assembly.gradients(u):
                r2 = gx * gx + gy * gy
                s0 = np.array([gx, gy]) * r2 ** ((p - 2.0) / 2.0) if r2 > 0 else np.zeros(2)
                se = np.array([gx, gy]) * (r2 + eps * eps) ** ((p - 2.0) / 2.0)
                worst = max(worst, float(np.hypot(*(s0 - se))))
        bound = (2.0 - p) * eps ** (p - 1.0)
        assert cell_bound_satisfied(traj) == pytest.approx(worst / bound, rel=1e-12)
        assert worst <= bound + 1e-12

    def test_requires_semi_implicit_quadratic_norm(self, mesh4, rng):
        impl = make_cfg(mesh4, scheme="implicit")
        traj = run_evolution(random_u(mesh4, rng), impl)
        with pytest.raises(ValueError, match="semi-implicit"):
            cell_bound_satisfied(traj)
        shift = make_cfg(mesh4, kind=ADDITIVE_SHIFT)
        traj = run_evolution(random_u(mesh4, rng), shift)
        with pytest.raises(ValueError, match="quadratic-norm"):
            discrepancy_total(traj)


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
        assert cell_bound_satisfied(traj) == 0.0
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
            assert lv.table_row()["ledgers"] == "pass"

    def test_level_columns_are_the_fields(self, small_report):
        lv = small_report.levels[0]
        assert list(lv.table_row()) == [
            "n", "h", "eps", "tau", "K", "linf_l2", "lp_w1p", "gap", "discrepancy_total",
            "e_cell_ratio", "ledgers"]
        assert lv.to_dict() == {
            "n": lv.n, "h": lv.h, "eps": lv.eps, "tau": lv.tau, "K": lv.K,
            "linf_l2": lv.linf_l2, "lp_w1p": lv.lp_w1p, "gap": lv.gap,
            "discrepancy_total": lv.discrepancy_total, "e_cell_ratio": lv.e_cell_ratio,
            "ledgers_semi": lv.ledgers_semi.to_dict(),
            "ledgers_implicit": lv.ledgers_implicit.to_dict(), "error": None}

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

    def test_study_requires_the_quadratic_norm(self):
        base = SchemeConfig(mesh=unit_square_mesh(2), nf=NFunctionPD(1.5), eps=0.5, K=4, T=0.2,
                            kind=ADDITIVE_SHIFT)
        with pytest.raises(ValueError, match="requires the quadratic-norm regularization, "
                                             "got 'additive-shift'$"):
            StudyConfig(base=base, initial=fields.make_field("sin-product"))

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
        # the implicit ledger did not run, so the level claims neither pass nor fail
        assert lv.table_row()["ledgers"] == "none"


def test_failed_implicit_run_keeps_the_semi_implicit_measurements(small_report):
    # max-iter = 1 fails every implicit run but not the semi-implicit runs,
    # which are the same runs as in a study that passes
    base = SchemeConfig(mesh=unit_square_mesh(2), nf=NFunctionPD(1.5), eps=0.5, K=4, T=0.2,
                        kind=QUADRATIC_NORM, max_iter=1)
    rep = run_study(StudyConfig(base=base, initial=fields.make_field("sin-product"),
                                levels=3, control_levels=4))
    for lv, ok in zip(rep.levels, small_report.levels):
        assert lv.error.startswith(f"level {lv.n}: implicit step 1 ")
        for name in ("linf_l2", "lp_w1p", "discrepancy_total", "e_cell_ratio"):
            assert np.isfinite(getattr(lv, name))
            assert getattr(lv, name) == getattr(ok, name)
        assert lv.ledgers_semi.to_dict() == ok.ledgers_semi.to_dict()
        assert lv.ledgers_semi.entries and lv.ledgers_semi.passed
        assert np.isnan(lv.gap) and lv.ledgers_implicit.entries == []
    assert rep.cauchy == small_report.cauchy
    assert all(np.isfinite(c["linf_l2"]) and np.isfinite(c["lp_w1p"]) for c in rep.cauchy)


def test_failed_level_is_its_parameters_and_error():
    lv = LevelResult(n=1, h=0.5, eps=0.25, tau=0.1, K=2, error="level 1: failed")
    row = lv.table_row()
    assert [row[k] for k in ("n", "h", "eps", "tau", "K")] == [1, 0.5, 0.25, 0.1, 2]
    assert all(np.isnan(row[k]) for k in ("linf_l2", "lp_w1p", "gap", "discrepancy_total",
                                          "e_cell_ratio"))
    assert row["ledgers"] == "none"
    assert lv.to_dict()["ledgers_semi"] == lv.to_dict()["ledgers_implicit"] == {
        "passed": True, "entries": []}
    assert lv.ledgers_semi is not lv.ledgers_implicit


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
