"""INI-style configuration files for runs and studies.

A config file is the reproducibility artifact: everything a run needs sits
in one file, and identical files give identical outputs.  This module reads
the file, casts each value to its type in KEYS and names the section of any
error; a section or key the reader does not know is an error.  Of the keys
that a config class (SchemeConfig, StudyConfig, NFunctionPD) or a field
builder takes, it passes on only those the file sets: the classes and
builders own their defaults and check every rule, before any computation.
The keys nothing else takes (the mesh size, the seed, the output and the
names of the fields and lower-order kind) get their defaults here.
"""

from __future__ import annotations

import configparser
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace

from . import fields
from .lower_order import LowerOrderCoeff
from .mesh import refine_red, unit_square_mesh
from .orlicz import NFunctionPD
from .schemes import AdmissibilityWarning, SchemeConfig
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
; linear solves: small systems are factored by SuperLU LU on a
; nested-dissection ordering cached per mesh; larger ones are solved by CG
; preconditioned with the last LU, refactoring when CG slows down or fails;
; large refined meshes use CG preconditioned with a multigrid V-cycle instead
; kacanov is Anderson-accelerated at depth 3; its first sweep is the
; semi-implicit step, and the CG of each later sweep stops at a tenth of the
; defect the sweep starts from (a factored system is solved exactly)
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

# The [lower-order] keys each kind takes, in LowerOrderCoeff's argument order.
LOWER_ORDER_KEYS = {"zero": (), "power": ("r",), "shifted-power": ("r", "c")}


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

    def given(self, names):
        """{field: value} for each key of names {ini_key: field} that the
        section sets, cast as get casts it; a key not set is left out, so its
        default is the one of the class or function that takes the field."""
        return {field: self.get(key) for key, field in names.items() if key in self._sec}


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
        nf = NFunctionPD(run.get("p"), **run.given({"delta": "delta"}))

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
    if lo_kind not in LOWER_ORDER_KEYS:
        raise ConfigError(f"[lower-order] kind = {lo_kind!r} is not in the registry")
    takes = LOWER_ORDER_KEYS[lo_kind]
    for key in lo.given({"r": "r", "c": "c"}):
        if key not in takes:
            raise ConfigError(f"[lower-order] kind = {lo_kind} takes no key {key!r}")
    with _invalid_in("lower-order"):
        coeff = LowerOrderCoeff(*(lo.get(key) for key in takes))

    src = _Section(parser, "source")
    with _invalid_in("source"):
        source = fields.make_source(src.get("field", "zero"),
                                    **src.given({"decay": "decay", "amplitude": "amplitude"}))

    ini = _Section(parser, "initial")
    with _invalid_in("initial"):
        initial = fields.make_field(ini.get("field", "sin-product"),
                                    **ini.given({"amplitude": "amplitude"}))

    with _invalid_in("run"):
        scheme_config = SchemeConfig(
            mesh=mesh, nf=nf, eps=run.get("eps"), K=run.get("K"), T=run.get("T"),
            coeff=coeff, source=source,
            **run.given({"scheme": "scheme", "regularization": "kind"}))
    solver = _Section(parser, "solver").given(
        {"nonlinear": "nonlinear", "tol-res": "tol_res", "max-iter": "max_iter"})
    with _invalid_in("solver"), warnings.catch_warnings():
        warnings.simplefilter("ignore", AdmissibilityWarning)  # the [run] config warned
        scheme_config = replace(scheme_config, **solver)

    study = None
    if want_study:
        st = _Section(parser, "study")
        with _invalid_in("study"):
            study = StudyConfig(base=scheme_config, initial=initial, **st.given(
                {"levels": "levels", "coupling": "coupling", "control-levels": "control_levels"}))

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
