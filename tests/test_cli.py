import json
import re
import warnings

import numpy as np
import pytest

from plapflow import assembly, diagnostics, orlicz, schemes
from plapflow.cli import main
from plapflow.config import KEYS, ConfigError, example_config, load_run_config
from plapflow.mesh import FemFunction, interpolate_nodal
from plapflow.schemes import AdmissibilityWarning

MINIMAL = """\
[run]
scheme = semi-implicit
regularization = quadratic-norm
p = 2.0
delta = 0.0
eps = 0.5
n = 4
K = 10
T = 0.1
seed = 42

[initial]
field = sin-product

[output]
directory = {out}
prefix = run
"""

# the implicit run of the benchmark at n = 24: 529 unknowns, above REUSE_DOFS
IMPLICIT = """\
[run]
scheme = implicit
regularization = additive-shift
p = 1.5
eps = 0.05
n = 24
K = 3
T = 0.03

[initial]
field = sin-product

[source]
field = bump
decay = 1

[lower-order]
kind = shifted-power
r = 2.5
c = 0.5

[output]
directory = {out}
prefix = run
"""

STUDY = """\
[run]
scheme = semi-implicit
regularization = quadratic-norm
p = 1.5
eps = 0.5
n = 2
K = 4
T = 0.2
seed = 1

[initial]
field = sin-product

[output]
directory = {out}
prefix = study

[study]
levels = 3
coupling = {coupling}
control-levels = 4
"""


def write_config(tmp_path, text, name="cfg.ini", **fmt):
    path = tmp_path / name
    path.write_text(text.format(**fmt))
    return str(path)


class TestRunCommand:
    def test_minimal_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL, out=tmp_path / "out")
        assert main(["run", cfg]) == 0
        rows = (tmp_path / "out" / "run_trajectory.csv").read_text().splitlines()
        assert rows[0].startswith("k,t_k,")
        assert len(rows) == 1 + 11  # header + K+1 iterates
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["schema"] == "plapflow/run-report/v1"
        assert report["ledgers"]["passed"] is True

    def test_precondition_violation_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL.replace("eps = 0.5", "eps = 0.0"),
                           out=tmp_path / "out")
        assert main(["run", cfg]) == 1
        assert "eps" in capsys.readouterr().err

    def test_solver_failure_exits_1(self, tmp_path, capsys):
        # one Kacanov sweep cannot reach tol-res
        cfg = write_config(tmp_path, IMPLICIT + "\n[solver]\nmax-iter = 1\n",
                           out=tmp_path / "out")
        assert main(["run", cfg]) == 1
        assert capsys.readouterr().err.startswith("solver failure: implicit step 1 ")
        assert not (tmp_path / "out").exists()

    def test_parse_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.ini"
        path.write_text("[run\np = oops")
        assert main(["run", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_key_mentions_section(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text("[run]\np = 1.5\n")
        with pytest.raises(ConfigError, match=r"\[run\]"):
            load_run_config(str(path))

    def test_snapshots(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL, out=tmp_path / "out")
        assert main(["run", cfg, "--snapshots"]) == 0
        snaps = sorted((tmp_path / "out").glob("run_u*.csv"))
        assert len(snaps) == 11

    def test_deterministic_outputs(self, tmp_path):
        cfg_a = write_config(tmp_path, MINIMAL, name="a.ini", out=tmp_path / "a")
        cfg_b = write_config(tmp_path, MINIMAL, name="b.ini", out=tmp_path / "b")
        assert main(["run", cfg_a]) == 0
        assert main(["run", cfg_b]) == 0
        a = (tmp_path / "a" / "run_trajectory.csv").read_bytes()
        b = (tmp_path / "b" / "run_trajectory.csv").read_bytes()
        assert a == b

    def test_runs_that_reuse_factors_are_byte_identical(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, IMPLICIT, out=tmp_path / "out")
        assert load_run_config(cfg).scheme_config.mesh.n_interior >= schemes.REUSE_DOFS
        cg_calls = []
        cg = schemes.spla.cg

        def counted_cg(*args, **kwargs):
            cg_calls.append(1)
            return cg(*args, **kwargs)

        monkeypatch.setattr(schemes.spla, "cg", counted_cg)
        outputs = []
        for _ in range(2):
            assert main(["run", cfg]) == 0
            outputs.append([(tmp_path / "out" / f"run_{name}").read_bytes()
                            for name in ("trajectory.csv", "report.json")])
        assert cg_calls
        assert outputs[0] == outputs[1]


    def test_run_evaluates_the_energy_once_per_iterate(self, tmp_path, monkeypatch):
        calls = {"energy": 0, "norm_L2": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(assembly, name), **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(assembly, name, counted)
        cfg = write_config(tmp_path, MINIMAL, out=tmp_path / "out")
        assert main(["run", cfg]) == 0
        assert calls == {"energy": 10 + 1, "norm_L2": 0}

    def test_csv_columns_are_the_norms_of_the_iterates(self, tmp_path):
        cfg = write_config(tmp_path, IMPLICIT, out=tmp_path / "out")
        assert main(["run", cfg]) == 0
        setup = load_run_config(cfg)
        sc = setup.scheme_config
        traj = schemes.run_evolution(interpolate_nodal(setup.initial, sc.mesh), sc)
        rows = (tmp_path / "out" / "run_trajectory.csv").read_text().splitlines()
        assert rows[0] == "k,t_k,L2_norm,W1p_seminorm,energy_eps,dtau_L2,solver_iters,residual"
        assert len(rows) == 1 + traj.K + 1
        for k, row in enumerate(rows[1:]):
            cols = row.split(",")
            u = traj.iterates[k]
            dtau = (0.0 if k == 0 else assembly.norm_L2(
                FemFunction(sc.mesh, (u.coeffs - traj.iterates[k - 1].coeffs) / sc.tau)))
            expect = [k * sc.tau, assembly.norm_L2(u), assembly.seminorm_W1p(u, sc.nf.p),
                      assembly.energy(u, sc.nf, sc.eps, sc.kind), dtau]
            assert int(cols[0]) == k
            assert [float(c) for c in cols[1:6]] == expect
            if k:
                assert int(cols[6]) == traj.stats[k - 1].iterations
                assert float(cols[7]) == traj.stats[k - 1].residual


class TestStudyCommand:
    def test_coupled_study_exits_0(self, tmp_path, capsys):
        cfg = write_config(tmp_path, STUDY, out=tmp_path / "out", coupling="default")
        assert main(["study", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        payload = json.loads((tmp_path / "out" / "study_study.json").read_text())
        assert payload["schema"] == "plapflow/study-report/v1"
        assert payload["passed"] is True
        levels = (tmp_path / "out" / "study_levels.csv").read_text().splitlines()
        assert len(levels) == 1 + 3

    def test_outputs_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, STUDY, out=tmp_path / "out", coupling="default")
        outputs = []
        for _ in range(2):
            assert main(["study", cfg]) == 0
            outputs.append([(tmp_path / "out" / f"study_{name}").read_bytes()
                            for name in ("levels.csv", "cauchy.csv", "study.json")])
        assert outputs[0] == outputs[1]

    def test_failed_levels_write_no_ledger_verdict(self, tmp_path, capsys):
        # one Kacanov sweep cannot reach tol-res, so every level fails
        cfg = write_config(tmp_path, STUDY + "\n[solver]\nmax-iter = 1\n",
                           out=tmp_path / "out", coupling="default")
        assert main(["study", cfg]) == 2
        assert "FAIL  all-levels-ran" in capsys.readouterr().out
        rows = (tmp_path / "out" / "study_levels.csv").read_text().splitlines()
        assert rows[0] == "n,h,eps,tau,K,linf_l2,lp_w1p,gap,discrepancy_total,e_cell_ratio,ledgers"
        assert len(rows) == 1 + 3
        for row in rows[1:]:
            # the semi-implicit runs finished and keep their columns; the gap needs both
            cells = row.split(",")[5:]
            assert cells[2] == "nan" and cells[5] == "none"
            assert all(np.isfinite(float(c)) for c in cells[:2] + cells[3:5])

    def test_example_study_that_ran_no_level_fails_every_level_assertion(self, tmp_path, capsys):
        # one Kacanov sweep cannot reach tol-res, so no level ran and neither
        # the e-cell bound nor the ledgers hold over all levels
        text = example_config()
        assert "\nmax-iter = 60\n" in text and "\ndirectory = out\n" in text
        text = text.replace("\nmax-iter = 60\n", "\nmax-iter = 1\n")
        text = text.replace("\ndirectory = out\n", f"\ndirectory = {tmp_path / 'out'}\n")
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        assert main(["study", str(path)]) == 2
        out = capsys.readouterr().out
        assert "FAIL  all-levels-ran" in out
        assert "FAIL  e-cell-bound" in out
        assert "FAIL  ledgers" in out

    def test_unauditable_study_stops_before_any_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(diagnostics, "run_evolution", lambda *args: calls.append(args))
        text = STUDY.replace("regularization = quadratic-norm", "regularization = additive-shift")
        cfg = write_config(tmp_path, text, out=tmp_path / "out", coupling="default")
        assert main(["study", cfg]) == 1
        assert capsys.readouterr().err == (
            "config error: [study] a study bounds the discrepancy, which requires the "
            "quadratic-norm regularization, got 'additive-shift'\n")
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_anti_coupled_study_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, STUDY, out=tmp_path / "out", coupling="fixed-tau")
        assert main(["study", cfg]) == 2
        assert "FAIL" in capsys.readouterr().out


class TestCheckLemmas:
    def test_small_run_exits_0(self, tmp_path, capsys):
        out = tmp_path / "lemmas.json"
        code = main(["check-lemmas", "--samples", "20000", "--seed", "5",
                     "--json", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert "monotonicity" in table and "total violations: 0" in table
        payload = json.loads(out.read_text())
        assert payload["schema"] == "plapflow/lemma-report/v1"
        assert payload["total_violations"] == 0

    def test_json_outputs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["check-lemmas", "--samples", "10000", "--seed", "9", "--json", str(a)])
        main(["check-lemmas", "--samples", "10000", "--seed", "9", "--json", str(b)])
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_count_below_one_is_a_usage_error(self, count, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check-lemmas", "--samples", count])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"plapflow check-lemmas: error: argument --samples: samples must be >= 1, got {count}")

    def test_negative_seed_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check-lemmas", "--seed", "-1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "plapflow check-lemmas: error: argument --seed: seed must be >= 0, got -1")


class TestCheckLemmasCanFail:
    def test_impossible_bounds_fail_exactly_their_checks(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(orlicz, "LAGGED_WEIGHT_RATIO_MAX", -1.0)
        monkeypatch.setattr(orlicz, "S_EPS_LIPSCHITZ_MAX", -1.0)
        monkeypatch.setitem(orlicz.MONOTONE_RATIO_BOUNDS, "inner-over-quotient", (2.0, 3.0))
        monkeypatch.setitem(orlicz.EQUI_SANDWICH_BOUNDS, 1.5, (1.5, 2.0))
        out = tmp_path / "lemmas.json"
        assert main(["check-lemmas", "--samples", "20000", "--json", str(out)]) == 1
        payload = json.loads(out.read_text())
        failing = {c["name"] for c in payload["checks"] if c["violations"] > 0}
        assert failing == {"lagged-weight-ratio", "s-eps-difference-quotient",
                           "monotonicity-equivalence", "shifted-density-sandwich"}
        assert payload["total_violations"] == sum(c["violations"] for c in payload["checks"])
        assert f"total violations: {payload['total_violations']}" in capsys.readouterr().out


LOWER_ORDER = MINIMAL + """
[lower-order]
{lower}
"""


class TestConfigErrors:
    @pytest.mark.parametrize("lower,message", [
        ("kind = cubic", "[lower-order] kind = 'cubic' is not in the registry"),
        ("kind = power", "[lower-order] missing required key 'r'"),
        ("kind = power\nr = -1", "[lower-order] growth exponent r must lie in (2, inf)"),
    ])
    def test_lower_order_errors_name_the_section_once(self, tmp_path, lower, message):
        cfg = write_config(tmp_path, LOWER_ORDER, out=tmp_path / "out", lower=lower)
        with pytest.raises(ConfigError, match="^" + re.escape(message)) as info:
            load_run_config(cfg)
        assert str(info.value).count("[lower-order]") == 1

    @pytest.mark.parametrize("old,new,message", [
        ("n = 4", "n = 0", "[run] n must be >= 1"),
        ("n = 4", "n = 4\nrefine = -1", "[run] refine must be >= 0"),
    ])
    def test_mesh_size_errors(self, tmp_path, old, new, message):
        cfg = write_config(tmp_path, MINIMAL.replace(old, new), out=tmp_path / "out")
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            load_run_config(cfg)

    def test_unknown_regularization_names_run_once(self, tmp_path):
        text = MINIMAL.replace("regularization = quadratic-norm", "regularization = cubic")
        cfg = write_config(tmp_path, text, out=tmp_path / "out")
        with pytest.raises(ConfigError, match=r"^\[run\] unknown regularization kind 'cubic'$"):
            load_run_config(cfg)

    def test_bad_value_in_a_wrapped_section_is_named_once(self, tmp_path):
        text = MINIMAL + "\n[source]\nfield = bump\ndecay = fast\n"
        cfg = write_config(tmp_path, text, out=tmp_path / "out")
        with pytest.raises(ConfigError, match=r"^\[source\] decay = 'fast': ") as info:
            load_run_config(cfg)
        assert str(info.value).count("[source]") == 1

    @pytest.mark.parametrize("levels", [0, 1])
    def test_control_levels_below_two_name_study_once(self, tmp_path, levels):
        text = STUDY.replace("control-levels = 4", f"control-levels = {levels}")
        cfg = write_config(tmp_path, text, out=tmp_path / "out", coupling="default")
        message = f"[study] the negative control needs at least two control levels, got {levels}"
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$") as info:
            load_run_config(cfg, want_study=True)
        assert str(info.value).count("[study]") == 1

    @pytest.mark.parametrize("extra,message", [
        ("[solver]\nlinear = cg", "[solver] unknown key 'linear'"),
        ("[solver]\ntol_res = 1e-3", "[solver] unknown key 'tol_res'"),
        ("[solvr]\nnonlinear = newton", "unknown section [solvr]"),
        ("[DEFAULT]\nnonlinear = newton", "unknown section [DEFAULT]"),
        ("[solver]\nnonlinear = foo", "[solver] unknown nonlinear solver 'foo'"),
        ("[solver]\ntol-res = -1", "[solver] tol-res must be > 0, got -1.0"),
        ("[solver]\ntol-res = nan", "[solver] tol-res must be > 0, got nan"),
        ("[solver]\nmax-iter = 0", "[solver] max-iter must be >= 1, got 0"),
    ])
    def test_solver_errors_name_the_section_once(self, tmp_path, extra, message):
        cfg = write_config(tmp_path, MINIMAL + "\n" + extra + "\n", out=tmp_path / "out")
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$") as info:
            load_run_config(cfg)
        assert str(info.value).count(extra.splitlines()[0]) == 1

    @pytest.mark.parametrize("extra", ["tol-res = inf", "max-iter = 1"])
    def test_solver_bounds_admit_their_edges(self, tmp_path, extra):
        cfg = write_config(tmp_path, MINIMAL + "\n[solver]\n" + extra + "\n",
                           out=tmp_path / "out")
        load_run_config(cfg)

    def test_removed_linear_key_stops_the_run(self, tmp_path, capsys):
        text = MINIMAL + "\n[solver]\nlinear = cholesky\n"
        cfg = write_config(tmp_path, text, out=tmp_path / "out")
        assert main(["run", cfg]) == 1
        assert capsys.readouterr().err == "config error: [solver] unknown key 'linear'\n"
        assert not (tmp_path / "out").exists()

    def test_admissibility_warning_is_issued_once(self, tmp_path):
        cfg = write_config(tmp_path, LOWER_ORDER, out=tmp_path / "out",
                           lower="kind = power\nr = 3.5")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_run_config(cfg, want_study=True)
        assert [w.category for w in caught] == [AdmissibilityWarning]


class TestExportMesh:
    def test_writes_vtk(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL, out=tmp_path / "out")
        assert main(["export-mesh", cfg]) == 0
        text = (tmp_path / "out" / "run_mesh.vtk").read_text()
        assert text.startswith("# vtk DataFile")
        assert "POINT_DATA 25" in text


def test_example_config_lists_exactly_the_known_keys():
    keys, section = {}, None
    for line in example_config().splitlines():
        if header := re.fullmatch(r"\[(.+)\]", line):
            section = header[1]
            keys[section] = set()
        elif key := re.match(r";?\s*([\w-]+)\s*=", line):  # "; r = 2.5" counts
            keys[section].add(key[1])
    assert keys == {name: set(table) for name, table in KEYS.items()}


def test_example_config_parses(tmp_path, capsys):
    assert main(["example-config"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "example.ini"
    path.write_text(text)
    setup = load_run_config(str(path), want_study=True)
    assert setup.scheme_config.nf.p == 1.5
    assert setup.study.levels == 4
