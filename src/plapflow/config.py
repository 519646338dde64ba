"""INI-style configuration files for runs and studies.

A config file is the reproducibility artifact: everything a run needs sits
in one file, and identical files (plus seed) give identical outputs.  Values
are validated here with section/key identification before any computation.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from . import fields
from .lower_order import LowerOrderCoeff
from .mesh import refine_red, unit_square_mesh
from .orlicz import ADDITIVE_SHIFT, NFunctionPD, QUADRATIC_NORM
from .schemes import SchemeConfig
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
; "cholesky" is SuperLU's sparse LU with COLAMD ordering and partial pivoting
linear = cholesky             ; cholesky | cg
cg-tol = 1e-12
cg-max-iter = 5000
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


class _Section:
    def __init__(self, parser, name):
        self._name = name
        self._sec = parser[name] if parser.has_section(name) else {}

    def get(self, key, cast, default=None):
        if key not in self._sec:
            if default is None:
                raise ConfigError(f"[{self._name}] missing required key {key!r}")
            return default
        raw = self._sec[key]
        try:
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{self._name}] {key} = {raw!r}: {exc}") from exc


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
    run = _Section(parser, "run")

    p = run.get("p", float)
    delta = run.get("delta", float, 0.0)
    try:
        nf = NFunctionPD(p, delta)
    except ValueError as exc:
        raise ConfigError(f"[run] {exc}") from exc

    n = run.get("n", int, 4)
    if n < 1:
        raise ConfigError("[run] n must be >= 1")
    refine = run.get("refine", int, 0)
    if refine < 0:
        raise ConfigError("[run] refine must be >= 0")
    mesh = unit_square_mesh(n)
    for _ in range(refine):
        mesh = refine_red(mesh)

    kind = run.get("regularization", str, QUADRATIC_NORM).strip()
    if kind not in (QUADRATIC_NORM, ADDITIVE_SHIFT):
        raise ConfigError(f"[run] regularization = {kind!r} is not a known kind")

    lo = _Section(parser, "lower-order")
    lo_kind = lo.get("kind", str, "zero").strip()
    try:
        if lo_kind == "zero":
            coeff = LowerOrderCoeff.zero()
        elif lo_kind == "power":
            coeff = LowerOrderCoeff.power(lo.get("r", float))
        elif lo_kind == "shifted-power":
            coeff = LowerOrderCoeff.shifted_power(lo.get("r", float), lo.get("c", float))
        else:
            raise ConfigError(f"[lower-order] kind = {lo_kind!r} is not in the registry")
    except ValueError as exc:
        raise ConfigError(f"[lower-order] {exc}") from exc

    src = _Section(parser, "source")
    src_name = src.get("field", str, "zero").strip()
    try:
        source = fields.make_source(src_name,
                                    decay=src.get("decay", float, 0.0),
                                    amplitude=src.get("amplitude", float, 1.0))
    except ValueError as exc:
        raise ConfigError(f"[source] {exc}") from exc

    ini = _Section(parser, "initial")
    ini_name = ini.get("field", str, "sin-product").strip()
    try:
        initial = fields.make_field(ini_name, amplitude=ini.get("amplitude", float, 1.0))
    except ValueError as exc:
        raise ConfigError(f"[initial] {exc}") from exc

    sol = _Section(parser, "solver")
    try:
        scheme_config = SchemeConfig(
            mesh=mesh, nf=nf,
            eps=run.get("eps", float),
            K=run.get("K", int),
            T=run.get("T", float),
            scheme=run.get("scheme", str, "semi-implicit").strip(),
            kind=kind,
            coeff=coeff,
            source=source,
            linear_solver=sol.get("linear", str, "cholesky").strip(),
            cg_tol=sol.get("cg-tol", float, 1e-12),
            cg_max_iter=sol.get("cg-max-iter", int, 5000),
            nonlinear=sol.get("nonlinear", str, "kacanov").strip(),
            tol_res=sol.get("tol-res", float, 1e-10),
            max_iter=sol.get("max-iter", int, 60),
        )
    except ValueError as exc:
        raise ConfigError(f"[run] {exc}") from exc

    study = None
    if want_study:
        st = _Section(parser, "study")
        try:
            study = StudyConfig(
                base=scheme_config,
                initial=initial,
                levels=st.get("levels", int, 4),
                coupling=st.get("coupling", str, "default").strip(),
                control_levels=st.get("control-levels", int, 6),
            )
        except ValueError as exc:
            raise ConfigError(f"[study] {exc}") from exc

    out = _Section(parser, "output")
    raw = {s: dict(parser[s]) for s in parser.sections()}
    return RunSetup(
        scheme_config=scheme_config,
        initial=initial,
        seed=run.get("seed", int, 0),
        out_dir=out.get("directory", str, "out"),
        prefix=out.get("prefix", str, "run"),
        study=study,
        raw=raw,
    )
