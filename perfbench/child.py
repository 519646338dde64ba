"""One benchmark process: runs a plapflow CLI command with spans around the
calls into its layers.

    child.py TRACE_OUT ENTRY {0|1} CLI_ARGS...
    child.py --probe OUT

With 0 only ENTRY, the workload's entry point, is wrapped, so the one span
it records costs nothing measurable.  With 1 the public functions of every
layer are wrapped too.  Each wrapper is installed where the caller looks the
name up: ``cli``, ``config`` and ``diagnostics`` import functions by name,
while ``schemes`` calls ``assembly.*``, ``implicit_step`` and ``spla.splu``
through module attributes.  The spans go to TRACE_OUT as JSON when the
command returns.

``--probe`` imports the CLI once, so the first measured process finds the
byte code compiled, and writes the library versions and the example config.
"""

from __future__ import annotations

import importlib
import json
import sys
import types

from tracing import Tracer

# span name -> modules whose namespace callers read the function from; the
# first module defines it.
LAYERS = {
    "config.load_run_config": ("config", "cli"),
    "mesh.unit_square_mesh": ("mesh", "config", "diagnostics"),
    "mesh.refine_red": ("mesh", "config", "diagnostics"),
    "mesh.prolong": ("mesh", "diagnostics"),
    "assembly.mass_matrix": ("assembly",),
    "assembly.weighted_stiffness": ("assembly",),
    "assembly.weighted_mass": ("assembly",),
    "assembly.jacobian_stiffness": ("assembly",),
    "assembly.load_vector": ("assembly",),
    "assembly.energy": ("assembly",),
    "assembly.norm_L2": ("assembly",),
    "assembly.seminorm_W1p": ("assembly",),
    "schemes.run_evolution": ("schemes", "cli", "diagnostics"),
    "schemes.implicit_step": ("schemes",),
    "diagnostics.check_energy_ledgers": ("diagnostics",),
    "diagnostics.discrepancy_total": ("diagnostics",),
    "diagnostics.cell_bound_satisfied": ("diagnostics",),
    "diagnostics.run_study": ("diagnostics",),
    "orlicz.certify_lemmas": ("orlicz",),
    "cli.cmd_run": ("cli",),
    "cli.cmd_study": ("cli",),
    "cli.cmd_check_lemmas": ("cli",),
}


def _module(name):
    return importlib.import_module(f"plapflow.{name}")


def _install(tracer, name):
    modules = [_module(m) for m in LAYERS[name]]
    attr = name.split(".", 1)[1]
    traced = tracer.wrap(name, getattr(modules[0], attr))
    for mod in modules:
        setattr(mod, attr, traced)
    return traced


class _Factor:
    """Stands in for the SuperLU object splu returns, to time its solves."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _trace_linsolve(tracer):
    schemes = _module("schemes")
    spla = schemes.spla
    factor = tracer.wrap("linsolve.factor", spla.splu)
    count_nnz = tracer.wrap("trace.nnz", lambda lu: lu.L.nnz + lu.U.nnz)

    def splu(*args, **kwargs):
        lu = factor(*args, **kwargs)
        tracer.counters["linsolve.factor_nnz"] += count_nnz(lu)
        return _Factor(lu, tracer.wrap("linsolve.solve", lu.solve))

    proxy = types.SimpleNamespace(**vars(spla))
    proxy.splu = splu
    proxy.cg = tracer.wrap("linsolve.cg", spla.cg)
    schemes.spla = proxy


def _count_iterations(tracer):
    """Sum the iterations in every trajectory run_evolution returns; _install
    then wraps this in the span and spreads it to the callers."""
    schemes = _module("schemes")
    evolve = schemes.run_evolution

    def run_evolution(*args, **kwargs):
        traj = evolve(*args, **kwargs)
        iters = [st.iterations for st in traj.stats]
        tracer.counters["schemes.nonlinear_iters"] += sum(iters)
        tracer.counters["schemes.iters_per_step.max"] = max(
            [tracer.counters["schemes.iters_per_step.max"], *iters])
        return traj

    schemes.run_evolution = run_evolution


def _probe(out):
    import numpy
    import scipy

    def blas(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return "unknown"

    info = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "example_config": _module("config").example_config(),
    }
    with open(out, "w") as fh:
        json.dump(info, fh)


def main(argv):
    if argv[0] == "--probe":
        _module("cli")
        _probe(argv[1])
        return 0
    out, entry, full, cli_args = argv[0], argv[1], argv[2] == "1", argv[3:]
    tracer = Tracer()
    cli = _module("cli")
    if full:
        _count_iterations(tracer)
        for name in LAYERS:
            _install(tracer, name)
        _trace_linsolve(tracer)
    else:
        _install(tracer, entry)
    rc = cli.main(cli_args)
    with open(out, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
