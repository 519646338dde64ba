"""INI-style configuration files for runs and studies.

A config file is the reproducibility artifact: everything a run needs sits
in one file, and identical files give identical outputs.  Values
are validated here with section/key identification before any computation,
and a section or key the reader does not know is an error.
"""

from __future__ import annotations

import configparser
from contextlib import contextmanager
from dataclasses import dataclass

from . import fields
from .lower_order import LowerOrderCoeff
from .mesh import refine_red, unit_square_mesh
from .orlicz import NFunctionPD, QUADRATIC_NORM
from .schemes import KACANOV, NONLINEAR_SOLVERS, SchemeConfig
from .diagnostics import StudyConfig


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


_EXAMPLE = """\
# plapflow run configuration (INI syntax)
[run]
scheme = semi-implicit        ; semi-implicit | implicit
regularization = quadratic-norm ; quadratic-norm | additive-shift
p = 1.5
delta = 0.0
eps = 0.5
n = 4                         ; cells per side of the unit square
refine = 0                    ; red refinements applied to the base mesh
K = 10
T = 0.5
seed = 42

[initial]
field = sin-product           ; zero | sin-product | bump | bilinear
amplitude = 1.0

[source]
field = zero
amplitude = 1.0
decay = 0.0

[lower-order]
kind = zero                   ; zero | power | shifted-power
; r = 2.5
; c = 0.1

[solver]
; linear solves: SuperLU LU on a nested-dissection ordering cached per mesh;
; from 289 unknowns on, CG preconditioned with the last LU, refactoring when
; CG needs more than 8 iterations or fails; on refined meshes of 10000
; unknowns or more, CG preconditioned with a multigrid V-cycle instead
; kacanov is Anderson-accelerated at depth 3; its first sweep is the
; semi-implicit step
nonlinear = kacanov           ; kacanov | newton
tol-res = 1e-10
max-iter = 60

[output]
directory = out
prefix = run

[study]
levels = 4
coupling = default            ; default | fixed-tau
control-levels = 6
"""


def example_config():
    return _EXAMPLE


# Every section and key the reader accepts, with the type of its value.
KEYS = {
    "run": {"scheme": str, "regularization": str, "p": float, "delta": float,
            "eps": float, "n": int, "refine": int, "K": int, "T": float, "seed": int},
    "initial": {"field": str, "amplitude": float},
    "source": {"field": str, "amplitude": float, "decay": float},
    "lower-order": {"kind": str, "r": float, "c": float},
    "solver": {"nonlinear": str, "tol-res": float, "max-iter": int},
    "output": {"directory": str, "prefix": str},
    "study": {"levels": int, "coupling": str, "control-levels": int},
}


def _check_known(parser):
    """Reject a section or key that KEYS does not list, so a typo fails loudly."""
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]")
    for name in parser.sections():
        if name not in KEYS:
            raise ConfigError(f"unknown section [{name}]")
        known = {parser.optionxform(key) for key in KEYS[name]}
        for key in parser[name]:
            if key not in known:
                raise ConfigError(f"[{name}] unknown key {key!r}")


class _Section:
    def __init__(self, parser, name):
        self._name = name
        self._sec = parser[name] if parser.has_section(name) else {}

    def get(self, key, default=None):
        """The value of key, cast to its type in KEYS; required if default is None."""
        if key not in self._sec:
            if default is None:
                raise ConfigError(f"[{self._name}] missing required key {key!r}")
            return default
        raw = self._sec[key]
        try:
            return KEYS[self._name][key](raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{self._name}] {key} = {raw!r}: {exc}") from exc


@contextmanager
def _invalid_in(section):
    """Name the section in a ValueError raised inside; a ConfigError already does."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


@dataclass
class RunSetup:
    """Everything a CLI run needs: scheme config, initial data, metadata."""

    scheme_config: SchemeConfig
    initial: object
    seed: int
    out_dir: str
    prefix: str
    study: StudyConfig | None
    raw: dict


def _parse_file(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc
    return parser


def load_run_config(path, want_study=False):
    """Read and validate a config file; raises ConfigError with field context."""
    parser = _parse_file(path)
    _check_known(parser)
    run = _Section(parser, "run")

    with _invalid_in("run"):
        nf = NFunctionPD(run.get("p"), run.get("delta", 0.0))

    n = run.get("n", 4)
    if n < 1:
        raise ConfigError("[run] n must be >= 1")
    refine = run.get("refine", 0)
    if refine < 0:
        raise ConfigError("[run] refine must be >= 0")
    mesh = unit_square_mesh(n)
    for _ in range(refine):
        mesh = refine_red(mesh)

    lo = _Section(parser, "lower-order")
    lo_kind = lo.get("kind", "zero")
    with _invalid_in("lower-order"):
        if lo_kind == "zero":
            coeff = LowerOrderCoeff.zero()
        elif lo_kind == "power":
            coeff = LowerOrderCoeff.power(lo.get("r"))
        elif lo_kind == "shifted-power":
            coeff = LowerOrderCoeff.shifted_power(lo.get("r"), lo.get("c"))
        else:
            raise ConfigError(f"[lower-order] kind = {lo_kind!r} is not in the registry")

    src = _Section(parser, "source")
    with _invalid_in("source"):
        source = fields.make_source(src.get("field", "zero"),
                                    decay=src.get("decay", 0.0),
                                    amplitude=src.get("amplitude", 1.0))

    ini = _Section(parser, "initial")
    with _invalid_in("initial"):
        initial = fields.make_field(ini.get("field", "sin-product"),
                                    amplitude=ini.get("amplitude", 1.0))

    sol = _Section(parser, "solver")
    nonlinear = sol.get("nonlinear", KACANOV)
    if nonlinear not in NONLINEAR_SOLVERS:
        raise ConfigError(f"[solver] unknown nonlinear solver {nonlinear!r}")
    tol_res = sol.get("tol-res", 1e-10)
    if not tol_res > 0.0:
        raise ConfigError(f"[solver] tol-res must be > 0, got {tol_res}")
    max_iter = sol.get("max-iter", 60)
    if max_iter < 1:
        raise ConfigError(f"[solver] max-iter must be >= 1, got {max_iter}")

    with _invalid_in("run"):
        scheme_config = SchemeConfig(
            mesh=mesh, nf=nf,
            eps=run.get("eps"),
            K=run.get("K"),
            T=run.get("T"),
            scheme=run.get("scheme", "semi-implicit"),
            kind=run.get("regularization", QUADRATIC_NORM),
            coeff=coeff,
            source=source,
            nonlinear=nonlinear,
            tol_res=tol_res,
            max_iter=max_iter,
        )

    study = None
    if want_study:
        st = _Section(parser, "study")
        with _invalid_in("study"):
            study = StudyConfig(
                base=scheme_config,
                initial=initial,
                levels=st.get("levels", 4),
                coupling=st.get("coupling", "default"),
                control_levels=st.get("control-levels", 6),
            )

    out = _Section(parser, "output")
    raw = {s: dict(parser[s]) for s in parser.sections()}
    return RunSetup(
        scheme_config=scheme_config,
        initial=initial,
        seed=run.get("seed", 0),
        out_dir=out.get("directory", "out"),
        prefix=out.get("prefix", "run"),
        study=study,
        raw=raw,
    )
