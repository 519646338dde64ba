"""Command-line front end: run, study, check-lemmas, export-mesh.

Exit codes: 0 success; 1 a configuration or solver failure, or a violated
lemma in check-lemmas; 2 a violated energy ledger or study assertion, or a
command line that argparse rejects.  All file outputs are deterministic
for a fixed config and seed (CSV with LF endings and '.' decimals, JSON
with sorted keys, floats written with full round-trip precision).

check-lemmas imports numpy alone; the other commands import the FEM stack
(scipy, mesh, assembly, schemes, diagnostics) when they are called.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import orlicz

RUN_SCHEMA = "plapflow/run-report/v1"
STUDY_SCHEMA = "plapflow/study-report/v1"
LEMMA_SCHEMA = "plapflow/lemma-report/v1"


def _fmt(x):
    return repr(float(x))


def _cell(value):
    """A CSV cell: a token or an integer as it is, a float by _fmt."""
    return str(value) if isinstance(value, (str, int)) else _fmt(value)


def _write_lines(path, lines):
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload):
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _trajectory_csv(traj, columns, path):
    cfg = traj.config
    lines = ["k,t_k,L2_norm,W1p_seminorm,energy_eps,dtau_L2,solver_iters,residual"]
    for k in range(cfg.K + 1):
        if k == 0:
            dtau, iters, res = 0.0, 0, 0.0
        else:
            dtau = np.sqrt(columns.dtau_l2_sq[k - 1])
            iters, res = traj.stats[k - 1].iterations, traj.stats[k - 1].residual
        lines.append(",".join([
            str(k), _fmt(k * cfg.tau if cfg.K else 0.0),
            _fmt(np.sqrt(columns.l2_sq[k])), _fmt(columns.seminorm[k]),
            _fmt(columns.energy[k]), _fmt(dtau), str(iters), _fmt(res)]))
    _write_lines(path, lines)


def _run_setup(args, want_study=False):
    """The setup args.config describes, or None once its config error is printed."""
    from .config import ConfigError, load_run_config
    try:
        return load_run_config(args.config, want_study=want_study)
    except ConfigError as exc:  # only load_run_config raises it
        print(f"config error: {exc}", file=sys.stderr)
        return None


def cmd_run(args):
    from . import diagnostics, mesh, schemes
    if (setup := _run_setup(args)) is None:
        return 1
    cfg = setup.scheme_config
    u0 = mesh.interpolate_nodal(setup.initial, cfg.mesh)
    iterates = []
    try:
        traj = schemes.run_evolution(u0, cfg, iterates.append)
    except schemes.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1

    walk = diagnostics.Walk(cfg, iterates)
    ledgers, cols = diagnostics.check_energy_ledgers(walk), walk.cols
    os.makedirs(setup.out_dir, exist_ok=True)
    base = os.path.join(setup.out_dir, setup.prefix)
    _trajectory_csv(traj, cols, base + "_trajectory.csv")
    report = {
        "schema": RUN_SCHEMA,
        "config": setup.raw,
        "seed": setup.seed,
        "outside_theory": cfg.outside_theory,
        "ledgers": ledgers.to_dict(),
        "final_L2": float(np.sqrt(cols.l2_sq[-1])),
        "final_energy": float(cols.energy[-1]),
    }
    _write_json(base + "_report.json", report)
    if args.snapshots:
        for k, u in enumerate(iterates):
            mesh.export_csv(u, f"{base}_u{k:04d}.csv")
    print(f"run finished: {cfg.K} steps, ledgers "
          f"{'passed' if ledgers.passed else 'VIOLATED'}")
    return 0 if ledgers.passed else 2


def cmd_study(args):
    from . import diagnostics
    if (setup := _run_setup(args, want_study=True)) is None:
        return 1
    report = diagnostics.run_study(setup.study)

    os.makedirs(setup.out_dir, exist_ok=True)
    base = os.path.join(setup.out_dir, setup.prefix)
    payload = report.to_dict()
    payload["schema"] = STUDY_SCHEMA
    payload["config"] = setup.raw
    payload["seed"] = setup.seed
    _write_json(base + "_study.json", payload)

    rows = [lv.table_row() for lv in report.levels]
    lines = [",".join(rows[0])] + [",".join(map(_cell, row.values())) for row in rows]
    _write_lines(base + "_levels.csv", lines)
    lines = ["pair,cauchy_linf_l2,cauchy_lp_w1p"]
    for i, c in enumerate(report.cauchy):
        lines.append(f"{i}-{i + 1},{_fmt(c['linf_l2'])},{_fmt(c['lp_w1p'])}")
    _write_lines(base + "_cauchy.csv", lines)

    for name, ok in sorted(report.assertions.items()):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if report.passed else 2


def _int_at_least(name, low):
    """argparse type: an integer >= low, named in the error message."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {value}")
        return value
    return parse


def cmd_check_lemmas(args):
    results = orlicz.certify_lemmas(samples=args.samples, seed=args.seed)
    width = max(len(r.name) for r in results)
    print(f"{'check':<{width}}  {'samples':>9}  {'violations':>10}")
    for r in results:
        print(f"{r.name:<{width}}  {r.samples:>9}  {r.violations:>10}")
        for key, val in sorted(r.stats.items()):
            print(f"    {key}: {val}")
    total = sum(r.violations for r in results)
    if args.json:  # _write_json sorts the keys, the stats' too
        checks = [{"name": r.name, "samples": r.samples, "violations": r.violations,
                   "stats": r.stats} for r in results]
        _write_json(args.json, {"schema": LEMMA_SCHEMA, "samples": args.samples,
                                "seed": args.seed, "total_violations": total,
                                "checks": checks})
    print(f"total violations: {total}")
    return 0 if total == 0 else 1


def cmd_export_mesh(args):
    from .mesh import export_vtk, interpolate_nodal
    if (setup := _run_setup(args)) is None:
        return 1
    mesh = setup.scheme_config.mesh
    u0 = interpolate_nodal(setup.initial, mesh)
    os.makedirs(setup.out_dir, exist_ok=True)
    path = os.path.join(setup.out_dir, setup.prefix + "_mesh.vtk")
    export_vtk(mesh, path, point_data={"u0": u0.full_values()})
    print(f"wrote {path}")
    return 0


def cmd_example_config(args):
    from .config import example_config
    print(example_config(), end="")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="plapflow",
        description="FEM solver and diagnostics for nonlinear parabolic flows "
                    "with (p, delta)-structure")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one evolution from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--snapshots", action="store_true",
                       help="also write per-step nodal CSV snapshots")
    p_run.set_defaults(func=cmd_run)

    p_study = sub.add_parser("study", help="run a coupled refinement study")
    p_study.add_argument("config")
    p_study.set_defaults(func=cmd_study)

    p_chk = sub.add_parser("check-lemmas",
                           help="randomized certification of the operator inequalities")
    p_chk.add_argument("--samples", type=_int_at_least("samples", 1), default=1_000_000)
    p_chk.add_argument("--seed", type=_int_at_least("seed", 0), default=42)
    p_chk.add_argument("--json", help="also write the table as JSON")
    p_chk.set_defaults(func=cmd_check_lemmas)

    p_mesh = sub.add_parser("export-mesh", help="write the config's mesh as legacy VTK")
    p_mesh.add_argument("config")
    p_mesh.set_defaults(func=cmd_export_mesh)

    p_ex = sub.add_parser("example-config", help="print an annotated example config")
    p_ex.set_defaults(func=cmd_example_config)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
