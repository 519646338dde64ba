"""The benchmark's workloads: the input each gives the plapflow CLI, and the
checks its outputs must pass.

Every workload comes in two scales.  ``full`` is what the benchmark measures;
``small`` is a shrunken copy that runs in about a second and goes through the
same check path, for the harness's own tests.

The PDE workloads are deterministic: the seed only lands in ``[run] seed``,
which the program echoes into its reports.  ``check-lemmas`` draws its
samples from the seed.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Reference values are compared with this relative tolerance.  The implicit
# solves stop at a residual of 1e-10, which moves the reported norms and
# energies by far less; a wrong answer moves them by far more.
RTOL = 1e-6
ATOL = 1e-12

STUDY_ASSERTIONS = 8

SEMI_CONFIG = """\
[run]
scheme = semi-implicit
regularization = quadratic-norm
p = 1.5
eps = 0.1
n = {n}
refine = {refine}
K = {K}
T = 0.1
seed = {seed}

[initial]
field = sin-product

[source]
field = zero

[lower-order]
kind = zero

[output]
directory = {out}
prefix = run
"""

IMPLICIT_CONFIG = """\
[run]
scheme = implicit
regularization = additive-shift
p = 1.5
eps = 0.05
n = {n}
K = {K}
T = 0.1
seed = {seed}

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


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # plapflow subcommand: run | study | check-lemmas
    entry: str    # span whose one call is timed as solve_s
    why: str
    scales: dict  # scale -> parameters of the generated input
    template: str | None = None  # run config; study uses the example config


WORKLOADS = {w.name: w for w in [
    Workload(
        "semi-n256", "run", "schemes.run_evolution",
        "Linear solve and mesh: one large SPD factorization per step on 65k dofs, "
        "refine_red in set-up, largest memory and output",
        {"full": {"n": 16, "refine": 4, "K": 10}, "small": {"n": 4, "refine": 1, "K": 2}},
        SEMI_CONFIG),
    Workload(
        "implicit-n64", "run", "schemes.run_evolution",
        "Nonlinear loop: Kacanov re-assembles and refactors about 19 times per step, "
        "with source, load and lower-order paths",
        {"full": {"n": 64, "K": 10}, "small": {"n": 4, "K": 2}},
        IMPLICIT_CONFIG),
    Workload(
        "study-example", "study", "diagnostics.run_study",
        "Refinement study on the example config: 14 evolutions over 4 meshes of tiny "
        "systems, so per-call and per-mesh overhead dominate",
        {"full": {}, "small": {"levels": 2, "control-levels": 3}}),
    Workload(
        "lemmas-1e6", "check-lemmas", "orlicz.certify_lemmas",
        "The vectorized orlicz kernels on 10^6 seeded samples, which no other workload runs",
        {"full": {"samples": 1_000_000}, "small": {"samples": 1_000}}),
]}


def _study_config(example, params, seed, out):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(example)
    parser["run"]["seed"] = str(seed)
    parser["output"]["directory"] = str(out)
    for key, value in params.items():
        parser["study"][key] = str(value)
    lines = []
    for section in parser.sections():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in parser[section].items())
        lines.append("")
    return "\n".join(lines)


# Outputs go to OUT inside the process's working directory.  The path is
# relative because the reports echo it, and cli.output_bytes must not depend
# on where the checkout lies.
OUT = "out"


def output_dir(run_dir):
    return Path(run_dir) / OUT


def prepare(wl, scale, seed, run_dir, example_config):
    """Write the workload's input under run_dir, the working directory of the
    process that runs it; return the CLI arguments."""
    params = wl.scales[scale]
    if wl.command == "check-lemmas":
        output_dir(run_dir).mkdir(parents=True, exist_ok=True)
        return ["check-lemmas", "--samples", str(params["samples"]),
                "--seed", str(seed), "--json", f"{OUT}/lemmas.json"]
    if wl.template is None:
        text = _study_config(example_config, params, seed, OUT)
    else:
        text = wl.template.format(seed=seed, out=OUT, **params)
    (Path(run_dir) / "config.ini").write_text(text)
    return [wl.command, "config.ini"]


def _levels_table(path):
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append({k: (v if k == "ledgers" else int(v) if k in ("n", "K") else float(v))
                         for k, v in row.items()})
    return rows


def observe(wl, run_dir, stdout):
    """Return (values, problems) of one finished command.

    values are compared with the reference; problems are failures of the
    workload's own pass criteria.
    """
    out = output_dir(run_dir)
    problems = []
    try:
        if wl.command == "run":
            report = json.loads((out / "run_report.json").read_text())
            if report["ledgers"]["passed"] is not True:
                problems.append("energy ledgers violated")
            return {"final_L2": report["final_L2"],
                    "final_energy": report["final_energy"]}, problems
        if wl.command == "study":
            verdicts = [line.split() for line in stdout.splitlines()
                        if line.startswith(("PASS ", "FAIL "))]
            passed = [v[1] for v in verdicts if v[0] == "PASS"]
            if len(passed) != STUDY_ASSERTIONS or len(verdicts) != len(passed):
                problems.append(f"study assertions: {verdicts}")
            return {"levels": _levels_table(out / "run_levels.csv")}, problems
        report = json.loads((out / "lemmas.json").read_text())
        if report["total_violations"] != 0:
            problems.append(f"{report['total_violations']} lemma violations")
        return {}, problems
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, [f"unreadable output: {exc!r}"]


def compare(values, expected, where="reference"):
    """List the places where values differ from expected."""
    if isinstance(expected, dict):
        if not isinstance(values, dict) or values.keys() != expected.keys():
            return [f"{where}: keys {sorted(values or {})} != {sorted(expected)}"]
        return [p for k in expected for p in compare(values[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(values, list) or len(values) != len(expected):
            return [f"{where}: length differs"]
        return [p for i, (v, e) in enumerate(zip(values, expected))
                for p in compare(v, e, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(values, float):
        if math.isclose(values, expected, rel_tol=RTOL, abs_tol=ATOL):
            return []
    elif values == expected and type(values) is type(expected):
        return []
    return [f"{where}: {values!r} != {expected!r}"]


def output_bytes(run_dir):
    return sum(p.stat().st_size for p in output_dir(run_dir).rglob("*") if p.is_file())
