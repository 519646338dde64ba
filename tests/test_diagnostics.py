import re
import types
import weakref

import numpy as np
import pytest
from dataclasses import FrozenInstanceError, replace
from hypothesis import assume, given, settings, strategies as st

from plapflow import assembly, diagnostics, fields
from plapflow.config import example_config, load_run_config
from plapflow.diagnostics import (LevelResult, StudyConfig, Walk, cell_bound_satisfied,
                                  check_energy_ledgers, discrepancy_total, run_study)
from plapflow.lower_order import LowerOrderCoeff, admissibility
from plapflow.mesh import FemFunction, interpolate_nodal, unit_square_mesh
from plapflow.orlicz import ADDITIVE_SHIFT, QUADRATIC_NORM, NFunctionPD, S_EPS_LIPSCHITZ_MAX
from plapflow.schemes import SchemeConfig, run_evolution

import oracles
from oracles import heat_exact, heat_manufactured_error, heat_run_error, kept_run


def make_cfg(mesh, **kw):
    base = dict(mesh=mesh, nf=NFunctionPD(1.5), eps=0.1, K=5, T=0.05,
                kind=QUADRATIC_NORM)
    base.update(kw)
    return SchemeConfig(**base)


def random_u(mesh, rng, scale=1.0):
    return FemFunction(mesh, scale * rng.uniform(-1, 1, mesh.n_interior))


def columns(traj):
    """The columns of a kept trajectory, its walk pushed from the list."""
    return Walk(traj.config, traj.iterates).cols


def ledgers(traj):
    """The ledger report of a kept trajectory, its walk pushed from the list."""
    return check_energy_ledgers(Walk(traj.config, traj.iterates))


def total_of(traj):
    """The discrepancy total of traj, from the dissipations of its walk."""
    return discrepancy_total(traj.config, columns(traj).diss_dtau)


def cell_ratio(traj):
    """The study's e_cell_ratio of traj: the largest cell-bound ratio over steps."""
    return max([0.0, *(cell_bound_satisfied(traj.config, u) for u in traj.iterates[1:])])


class TestLedgers:
    def test_pure_flow_all_ledgers_pass(self, mesh8, rng):
        cfg = make_cfg(mesh8)
        rep = ledgers(kept_run(random_u(mesh8, rng), cfg))
        names = [e.name for e in rep.entries]
        assert names == ["energy-stability", "apriori", "ener-bound"]
        assert rep.passed

    def test_adversarial_steps_still_stable(self, mesh8, rng):
        for tau in (10.0, 0.01):
            for eps in (0.5, 0.01):
                cfg = make_cfg(mesh8, eps=eps, K=5, T=5 * tau)
                rep = ledgers(kept_run(random_u(mesh8, rng), cfg))
                assert rep.passed, (tau, eps, [e.to_dict() for e in rep.entries])

    def test_with_source_and_coefficient(self, mesh8, rng):
        cfg = make_cfg(mesh8, nf=NFunctionPD(1.5, 0.05), kind=ADDITIVE_SHIFT,
                       coeff=LowerOrderCoeff(2.5),
                       source=fields.make_source("bump", amplitude=2.0))
        rep = ledgers(kept_run(random_u(mesh8, rng), cfg))
        assert [e.name for e in rep.entries] == ["apriori", "ener-bound"]
        assert rep.passed

    @pytest.mark.parametrize("scheme", ["semi-implicit", "implicit"])
    def test_walking_two_iterates_at_a_time_changes_no_bit(self, mesh8, rng, scheme):
        cfg = make_cfg(mesh8, scheme=scheme, nf=NFunctionPD(1.5, 0.05), kind=ADDITIVE_SHIFT,
                       coeff=LowerOrderCoeff(2.5),
                       source=fields.make_source("bump", amplitude=2.0))
        u0 = random_u(mesh8, rng)
        traj = kept_run(u0, cfg)
        kept = Walk(cfg, traj.iterates)
        report = check_energy_ledgers(kept)
        assert report.to_dict() == oracles.check_energy_ledgers(traj).to_dict()
        np.testing.assert_array_equal(kept.cols.diss_dtau, oracles.lagged_dissipation(traj)[2])
        # the same run again, walked as it goes instead of from the kept list
        walk = Walk(cfg)
        run_evolution(u0, cfg, walk.push)
        assert check_energy_ledgers(walk).to_dict() == report.to_dict()
        for name, column in vars(kept.cols).items():
            np.testing.assert_array_equal(getattr(walk.cols, name), column)

    @pytest.mark.parametrize("scheme", ["semi-implicit", "implicit"])
    def test_one_gradient_evaluation_per_iterate(self, mesh8, rng, monkeypatch, scheme):
        cfg = make_cfg(mesh8, scheme=scheme, nf=NFunctionPD(1.5, 0.05), kind=ADDITIVE_SHIFT,
                       coeff=LowerOrderCoeff(2.5),
                       source=fields.make_source("bump", amplitude=2.0))
        traj = kept_run(random_u(mesh8, rng), cfg)
        calls = []
        gradients = assembly.gradients
        monkeypatch.setattr(assembly, "gradients", lambda u: calls.append(u) or gradients(u))
        ledgers(traj)
        assert len(calls) == traj.K + 1

    @pytest.mark.parametrize("scheme", ["semi-implicit", "implicit"])
    def test_one_midpoint_evaluation_per_iterate(self, mesh8, rng, monkeypatch, scheme):
        cfg = make_cfg(mesh8, scheme=scheme, nf=NFunctionPD(1.5, 0.05), kind=ADDITIVE_SHIFT,
                       coeff=LowerOrderCoeff(2.5, 0.5))
        traj = kept_run(random_u(mesh8, rng), cfg)
        expect = oracles.lower_pairing(traj)
        calls = []
        values = assembly.values_at_midpoints
        monkeypatch.setattr(assembly, "values_at_midpoints",
                            lambda u: calls.append(u) or values(u))
        lower = columns(traj).lower
        assert len(calls) == traj.K + 1
        np.testing.assert_array_equal(lower, expect)

    def test_implicit_ledger(self, mesh8, rng):
        cfg = make_cfg(mesh8, scheme="implicit",
                       source=fields.make_source("bump"))
        rep = ledgers(kept_run(random_u(mesh8, rng), cfg))
        assert [e.name for e in rep.entries] == ["apriori-implicit"]
        assert rep.passed

    def test_corrupted_trajectory_fails(self, mesh8, rng):
        cfg = make_cfg(mesh8)
        traj = kept_run(random_u(mesh8, rng), cfg)
        bad = [FemFunction(mesh8, u.coeffs.copy()) for u in traj.iterates]
        bad[-1].coeffs *= 10.0  # energy jump breaks the decay
        rep = check_energy_ledgers(Walk(cfg, bad))
        assert not rep.passed

    def test_k_zero_trivial(self, mesh4):
        cfg = make_cfg(mesh4, K=0, T=0.0)
        u0 = FemFunction(mesh4, np.zeros(mesh4.n_interior))
        rep = ledgers(kept_run(u0, cfg))
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
            coeff = LowerOrderCoeff()
        else:
            # r anywhere in the scheme's admissible interval, c7 tau <= 0.95
            r_max = 2.0 * p if scheme == "implicit" else p + 1.0
            assume(r_max > 2.0)  # no double lies in (2, r_max] when p is within an ulp of 1
            r = data.draw(st.floats(2.0, r_max, exclude_min=True,
                                    exclude_max=scheme == "semi-implicit" and p == 2.0), "r")
            coeff = (LowerOrderCoeff(r) if lower == "power" else
                     LowerOrderCoeff(r, data.draw(st.floats(-1.0, 1.9), "c")))
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
        rep = ledgers(kept_run(u0, cfg))
        assert rep.passed, [e.to_dict() for e in rep.entries]


class TestDiscrepancy:
    def test_p2_both_fields_vanish(self, mesh8, rng):
        cfg = make_cfg(mesh8, nf=NFunctionPD(2.0))
        traj = kept_run(random_u(mesh8, rng), cfg)
        for u in traj.iterates[1:]:
            e_abs = diagnostics._regularization_residual(2.0, cfg.eps, assembly.gradients(u))
            assert np.max(e_abs) == pytest.approx(0.0, abs=1e-14)
        assert cell_ratio(traj) == 0.0

    def test_steady_state_lag_field_vanishes(self, mesh8, rng):
        cfg = make_cfg(mesh8, K=2, T=0.02)
        u = random_u(mesh8, rng)
        copies = [FemFunction(mesh8, u.coeffs.copy()) for _ in range(2)]
        steady = types.SimpleNamespace(config=cfg, iterates=[u, *copies])
        assert cell_ratio(steady) <= 1.0 + 1e-10

    def test_cell_bound_scalar_oracle(self, mesh8, rng):
        # per-cell |E| = |S_0(g) - S_eps(g)| <= (2-p) eps^(p-1), recomputed
        # cell by cell from scalar gradient data of every step
        cfg = make_cfg(mesh8, eps=0.2)
        traj = kept_run(random_u(mesh8, rng), cfg)
        p, eps = cfg.nf.p, cfg.eps
        worst = 0.0
        for u in traj.iterates[1:]:
            for gx, gy in assembly.gradients(u):
                r2 = gx * gx + gy * gy
                s0 = np.array([gx, gy]) * r2 ** ((p - 2.0) / 2.0) if r2 > 0 else np.zeros(2)
                se = np.array([gx, gy]) * (r2 + eps * eps) ** ((p - 2.0) / 2.0)
                worst = max(worst, float(np.hypot(*(s0 - se))))
        bound = (2.0 - p) * eps ** (p - 1.0)
        assert cell_ratio(traj) == pytest.approx(worst / bound, rel=1e-12)
        assert worst <= bound + 1e-12


class TestDiscrepancyTotal:
    def test_formula_recomputation(self, mesh8, rng):
        cfg = make_cfg(mesh8, eps=0.3, K=4, T=0.04)
        traj = kept_run(random_u(mesh8, rng), cfg)
        p, eps, tau = cfg.nf.p, cfg.eps, cfg.tau
        alpha = np.sqrt(tau * eps ** (p - 2.0))
        diss = tau * tau * np.sum(columns(traj).diss_dtau)
        expect = ((2.0 - p) * eps ** (p - 1.0)
                  + S_EPS_LIPSCHITZ_MAX**2 * alpha * diss
                  + tau * eps ** (p - 2.0) / (2.0 * alpha))
        assert total_of(traj) == pytest.approx(expect, rel=1e-13)

    def test_p2_specialization(self, mesh8, rng):
        # the regularization residual vanishes and the balanced tail term is
        # sqrt(tau)/2: pure square-root-of-tau decay
        cfg = make_cfg(mesh8, nf=NFunctionPD(2.0), K=4, T=0.04)
        traj = kept_run(random_u(mesh8, rng), cfg)
        total = total_of(traj)
        assert cell_ratio(traj) == 0.0
        alpha = np.sqrt(cfg.tau)
        tail = cfg.tau / (2.0 * alpha)
        assert tail == pytest.approx(np.sqrt(cfg.tau) / 2.0, rel=1e-14)
        assert total >= tail
        diss = cfg.tau**2 * np.sum(columns(traj).diss_dtau)
        middle = S_EPS_LIPSCHITZ_MAX**2 * alpha * diss
        assert total == pytest.approx(tail + middle, rel=1e-13)

    def test_dissipation_controlled_by_initial_energy(self, mesh8, rng):
        # tau^2 sum_k D_k <= 2 E[u^0] for the pure flow (energy stability)
        cfg = make_cfg(mesh8, K=8, T=0.08)
        u0 = random_u(mesh8, rng)
        traj = kept_run(u0, cfg)
        e0 = assembly.energy(u0, cfg.nf, cfg.eps, cfg.kind)
        diss = cfg.tau**2 * np.sum(columns(traj).diss_dtau)
        assert diss <= 2.0 * e0 * (1.0 + 1e-9)

    def test_cell_bound_satisfied_ratio(self, mesh8, rng):
        traj = kept_run(random_u(mesh8, rng), make_cfg(mesh8))
        assert 0.0 <= cell_ratio(traj) <= 1.0 + 1e-10


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

    def test_a_built_study_is_frozen(self):
        base = SchemeConfig(mesh=unit_square_mesh(2), nf=NFunctionPD(1.5), eps=0.5, K=4, T=0.2)
        sc = StudyConfig(base=base, initial=fields.make_field("sin-product"))
        with pytest.raises(FrozenInstanceError):
            sc.levels = 1

    @pytest.mark.parametrize("control_levels", [0, 1])
    def test_negative_control_needs_two_levels(self, control_levels):
        # with fewer than two control totals the negative control trivially fails
        base = SchemeConfig(mesh=unit_square_mesh(2), nf=NFunctionPD(1.5), eps=0.5, K=4, T=0.2,
                            kind=QUADRATIC_NORM)
        with pytest.raises(ValueError, match="at least two control levels"):
            StudyConfig(base=base, initial=fields.make_field("sin-product"),
                        control_levels=control_levels)

    @pytest.mark.parametrize("field,message", [
        ("levels", "a study needs at least two levels"),
        ("control_levels", "the negative control needs at least two control levels, got 2.5"),
    ])
    def test_non_integer_level_counts_rejected(self, field, message):
        # a float count once built a study whose run failed with a TypeError
        base = SchemeConfig(mesh=unit_square_mesh(2), **STUDY_BASE)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            StudyConfig(base=base, initial=fields.make_field("sin-product"), **{field: 2.5})

    def test_numpy_integer_level_counts_accepted(self):
        base = SchemeConfig(mesh=unit_square_mesh(2), **STUDY_BASE)
        study = StudyConfig(base=base, initial=fields.make_field("sin-product"),
                            levels=np.int64(2), control_levels=np.int64(3))
        assert len(study.parameter_sequence()) == 2


STUDY_BASE = dict(nf=NFunctionPD(1.5), eps=0.5, K=4, T=0.2, kind=QUADRATIC_NORM)


@pytest.mark.parametrize("p, coupling", [(1.5, "default"), (1.5, "fixed-tau"),
                                         (1.2, "default")])
def test_cauchy_differences_match_the_float_time_rule(p, coupling):
    # at p = 1.2 the default coupling makes K_n = 4, 10, 24: no fine step
    # count is a multiple of the coarse one
    base = SchemeConfig(mesh=unit_square_mesh(2), **{**STUDY_BASE, "nf": NFunctionPD(p)})
    sc = StudyConfig(base=base, initial=fields.make_field("sin-product"), levels=3,
                     coupling=coupling, control_levels=2)
    rep = run_study(sc)
    if p == 1.2:
        assert [lv.K for lv in rep.levels] == [4, 10, 24]
    assert rep.cauchy == oracles.study_cauchy(sc)


@settings(max_examples=300, deadline=None)
@given(T=st.floats(1e-3, 1e3), K_c=st.integers(1, 256), K_f=st.integers(1, 256),
       data=st.data())
def test_integer_time_index_is_the_float_rule(T, K_c, K_f, data):
    # both runs end at T, so the fine time j T/K_f lies in the coarse step
    # ceil(j K_c / K_f)
    j = data.draw(st.integers(0, K_f), "j")
    assert -(-j * K_c // K_f) == oracles.interpolant_index(T, K_c, j * (T / K_f))


def test_a_study_keeps_one_earlier_run_alive(monkeypatch):
    # each run's iterates u^1..u^K are tracked by weakrefs from an observer
    # that sees each iterate after the study's own observers: no implicit or
    # control iterate is alive past its push, and at most the previous and
    # the current level's semi-implicit iterates are alive at any time
    levels, control_levels = 4, 3
    runs = []  # per run: whether it is a level's semi-implicit run, and its weakrefs
    semi_alive = []  # per push: the semi-implicit runs with an iterate alive

    def alive(refs):
        return sum(ref() is not None for ref in refs)

    def tracking_run_evolution(u0, cfg, *observers):
        semi = len(runs) < 2 * levels and cfg.scheme == "semi-implicit"
        refs = []
        runs.append((semi, refs))

        def track(u):
            if u is not u0:
                refs.append(weakref.ref(u))
            for is_semi, earlier in runs:
                if not is_semi:
                    assert alive(earlier) <= (earlier is refs), len(runs)
            semi_alive.append(sum(alive(earlier) > 0 for is_semi, earlier in runs if is_semi))

        return run_evolution(u0, cfg, *observers, track)

    monkeypatch.setattr(diagnostics, "run_evolution", tracking_run_evolution)
    base = SchemeConfig(mesh=unit_square_mesh(2), **STUDY_BASE)
    run_study(StudyConfig(base=base, initial=fields.make_field("sin-product"), levels=levels,
                          control_levels=control_levels))
    assert len(runs) == 2 * levels + control_levels - 1
    assert [semi for semi, _ in runs] == [True, False] * levels + [False] * (control_levels - 1)
    assert all(refs for _, refs in runs)
    # a level's semi-implicit iterates outlive its run, for its implicit
    # run's gap and the next level's Cauchy difference, and no longer
    assert max(semi_alive) == 2, semi_alive
    assert all(alive(refs) == 0 for _, refs in runs)


def test_every_run_is_walked_once_per_iterate(monkeypatch):
    # energy and seminorm are evaluated once per iterate of every run, control
    # runs included, by the run's walk: u^0 once per run that starts from it,
    # and the Cauchy differences take seminorms of differences, which are no
    # iterate.  A level's cell-bound ratio is the largest over its
    # semi-implicit iterates u^1..u^K.
    runs, calls = [], {"energy": [], "seminorm_W1p": []}

    def collecting_run_evolution(u0, cfg, *observers):
        runs.append((cfg, []))
        return run_evolution(u0, cfg, *observers, runs[-1][1].append)

    def recording(seen, f):
        return lambda u, *args: seen.append(u) or f(u, *args)  # seen keeps u alive, and so its id unique

    monkeypatch.setattr(diagnostics, "run_evolution", collecting_run_evolution)
    for name, seen in calls.items():
        monkeypatch.setattr(assembly, name, recording(seen, getattr(assembly, name)))
    base = SchemeConfig(mesh=unit_square_mesh(2), **STUDY_BASE)
    rep = run_study(StudyConfig(base=base, initial=fields.make_field("sin-product"), levels=3,
                                control_levels=4))
    assert len(runs) == 2 * 3 + 3
    assert all(len(run) == cfg.K + 1 for cfg, run in runs)
    run_ids = sorted(id(u) for _, run in runs for u in run)
    iterates = set(run_ids)
    assert sorted(id(u) for u in calls["energy"]) == run_ids
    assert sorted(id(u) for u in calls["seminorm_W1p"] if id(u) in iterates) == run_ids
    semi = [(cfg, run) for cfg, run in runs[:6] if cfg.scheme == "semi-implicit"]
    for level, (cfg, run) in zip(rep.levels, semi, strict=True):
        assert level.e_cell_ratio == max(cell_bound_satisfied(cfg, u) for u in run[1:]) > 0.0


@pytest.mark.parametrize("p", np.linspace(1.01, 2.0, 13))
def test_one_coupling_rule_gives_the_two_branch_step_counts(p):
    mesh = unit_square_mesh(1)
    for T in (0.01, 0.05, 0.1, 0.2, 1.0, 3.0):
        for eps0 in (0.9, 0.5, 0.1, 1e-3):
            for K in range(1, 41):
                base = SchemeConfig(mesh=mesh, nf=NFunctionPD(p), eps=eps0, K=K, T=T,
                                    kind=QUADRATIC_NORM)
                for coupling in ("default", "fixed-tau"):
                    sc = StudyConfig(base=base, initial=None, levels=8, coupling=coupling)
                    K_n = [k for _, k in sc.parameter_sequence()]
                    assert K_n == oracles.coupled_step_counts(p, eps0, T, K, coupling, 8), (
                        p, T, eps0, K, coupling)


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


def test_example_study_at_p_2_passes(tmp_path):
    # at p = 2 the two schemes coincide and the level gaps are rounding noise
    # (0, 0, 8.9e-17, 9.0e-16), which gap-decreasing counts as zero
    path = tmp_path / "p2.ini"
    path.write_text(example_config().replace("\np = 1.5\n", "\np = 2.0\n"))
    rep = run_study(load_run_config(str(path), want_study=True).study)
    assert all(lv.gap <= 1e-15 for lv in rep.levels), [lv.gap for lv in rep.levels]
    assert all(rep.assertions.values()), rep.assertions


def test_gap_decreasing_reads_gaps_at_the_rounding_floor_as_zero():
    def levels(*gaps):
        return [LevelResult(n=0, h=1.0, eps=1.0, tau=1.0, K=1, linf_l2=0.5, gap=g)
                for g in gaps]

    floor = 1e-10 * 0.5
    assert diagnostics._gaps_decreasing(levels(0.0, floor, 0.0), 1e-10)
    assert diagnostics._gaps_decreasing(levels(0.3, 0.2, floor), 1e-10)
    assert not diagnostics._gaps_decreasing(levels(0.3, 0.3), 1e-10)
    assert not diagnostics._gaps_decreasing(levels(floor, 2 * floor), 1e-10)


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

    def counting_run_evolution(u0, cfg, *observers):
        calls.append(cfg.scheme)
        return run_evolution(u0, cfg, *observers)

    monkeypatch.setattr(diagnostics, "run_evolution", counting_run_evolution)
    initial = fields.make_field("sin-product")
    for max_iter in (60, 1):
        base = SchemeConfig(mesh=unit_square_mesh(2), nf=NFunctionPD(1.5), eps=0.5, K=4,
                            T=0.2, kind=QUADRATIC_NORM, max_iter=max_iter)
        calls.clear()
        rep = run_study(StudyConfig(base=base, initial=initial, levels=3, control_levels=4))
        assert len(calls) == 2 * 3 + 4 - 1
        assert calls.count("implicit") == 3
        alone = total_of(kept_run(interpolate_nodal(initial, base.mesh), base))
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
        err = oracles.l2_error(u, heat_exact, t=0.0)
        assert err == pytest.approx(0.0601, abs=0.007)

    def test_error_decreases_with_tau(self):
        errs = heat_manufactured_error(n=16, K=4, T=0.05, levels=2)
        assert errs[1] < errs[0]

    def test_implicit_matches_semi_for_heat(self):
        a = heat_run_error(8, 10, 0.05, scheme="semi-implicit")
        b = heat_run_error(8, 10, 0.05, scheme="implicit")
        assert a == pytest.approx(b, rel=1e-9)
