"""Numerical certification of the scheme estimates and the coupling studies.

Every trajectory can be audited against three discrete energy inequalities
(all exact up to solver residuals, since P1 gradient integrals are exact and
mass-type terms use the same quadrature as the scheme):

  energy-stability   E[u^L] + tau sum ||d u^k||^2 + (tau^2/2) sum D_k <= E[u^0]
                     (semi-implicit pure gradient flow, any tau, eps)
  apriori            (1/2)||u^L||^2 + tau sum_k int w |grad u^k|^2
                     <= (1/2)||u^0||^2 + (c7+1) tau sum ||u^k||^2 + tau sum ||f_k||^2
  ener-bound         E[u^L] + (tau/2) sum ||d u^k||^2 + (tau^2/2) sum D_k
                     <= E[u^0] + tau sum ||f_k||^2 + tau sum (d(u^{k-1})^2, (u^k)^2)

with D_k = int w^{k-1} |grad d u^k|^2 the lagged dissipation.  Every sum
above is over per-iterate and per-step quantities that one fold over the
iterates computes (``Walk``).  The ledgers, the run CSV and the study's
norms and discrepancy totals read its columns instead of computing them
again; ``discrepancy_total`` takes the D_k column.

The semi-implicit iterates also solve the unregularized implicit equation up
to two residual fields per step: a regularization error bounded cellwise by
(2-p) eps^(p-1), and a lag error controlled by the dissipation.  Their
balanced total must decay along parameter sequences with tau = o(eps^(2-p)),
which the coupled refinement studies verify empirically; an anti-coupled
control run guards against vacuously passing assertions.  A run that keeps
its iterates is measured from that list after it returns, and only a run
that keeps none is measured by run_evolution's observers.  A study runs its
levels one at a time and keeps each level's semi-implicit iterates, so at
most two lists of iterates are alive at once: level n's and, while they are
made, level n-1's (``_run_levels``).
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import assembly, lower_order
from .lower_order import IMPLICIT, SEMI_IMPLICIT
from .mesh import FemFunction, interpolate_nodal, prolong, refine_red
from .orlicz import QUADRATIC_NORM, S_EPS_LIPSCHITZ_MAX, diffusion_weight, op_S_eps, vdot, vnorm
from .schemes import AdmissibilityWarning, SchemeConfig, SolverError, run_evolution

LEDGER_REL_SLACK = 1e-9


# ---------------------------------------------------------------------------
# Energy ledgers
# ---------------------------------------------------------------------------

@dataclass
class LedgerEntry:
    name: str
    passed: bool
    max_excess: float  # max over L of (lhs - rhs) / max(1, |rhs|)

    def to_dict(self):
        return {"name": self.name, "passed": self.passed,
                "max_excess": self.max_excess}


@dataclass
class TrajectoryColumns:
    """What one walk over a run's iterates computes: per iterate
    (k = 0..K) and per step (k = 1..K).  The ledgers, the run CSV and the
    study's norms and discrepancy total all read these."""

    energy: np.ndarray      # E[u^k], by assembly.energy
    l2_sq: np.ndarray       # ||u^k||^2 = u^k . M u^k
    seminorm: np.ndarray    # |u^k|_{1,p}
    dtau_l2_sq: np.ndarray  # ||d u^k||^2, d u^k = (u^k - u^{k-1}) / tau
    diss_dtau: np.ndarray   # D_k = int w^{k-1} |grad d u^k|^2
    diss_u: np.ndarray      # int w |grad u^k|^2, w = w^{k-1} (semi-implicit) or w^k (implicit)
    f_sq: np.ndarray        # ||f(., k tau)||^2 by the load vector's midpoint rule
    lower: np.ndarray       # (d(u^{k-1})^2, (u^k)^2)


@dataclass
class LedgerReport:
    entries: list

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def to_dict(self):
        return {"passed": self.passed,
                "entries": [e.to_dict() for e in self.entries]}


class Walk:
    """The columns of a run under cfg, folded over u^0..u^K as push receives
    them (those in iterates at once), with the cell gradients, weights and
    midpoint values of two iterates live at a time.  Each iterate's
    gradients are evaluated once and shared by its energy, seminorm and
    dissipation terms, and its midpoint values once."""

    def __init__(self, cfg, iterates=()):
        self.cfg, self.k, self.prev = cfg, 0, None
        self.mass = assembly.mass_matrix(cfg.mesh)
        self.cols = TrajectoryColumns(*(np.empty(cfg.K + 1) for _ in range(3)),
                                      *(np.zeros(cfg.K) for _ in range(5)))
        for u in iterates:
            self.push(u)

    def push(self, u):
        cfg, cols, k, mass = self.cfg, self.cols, self.k, self.mass
        mesh, areas = cfg.mesh, cfg.mesh.areas
        lower = not cfg.coeff.is_zero
        g = assembly.gradients(u)
        cols.energy[k] = assembly.energy(u, cfg.nf, cfg.eps, cfg.kind, g)
        cols.l2_sq[k] = u.coeffs @ (mass @ u.coeffs)
        cols.seminorm[k] = assembly.seminorm_W1p(u, cfg.nf.p, g)
        w = diffusion_weight(cfg.nf, cfg.eps, cfg.kind, vnorm(g))
        uv = assembly.values_at_midpoints(u) if lower else None
        if k:
            i, tau = k - 1, cfg.tau
            u_prev, g_prev, w_prev, uv_prev = self.prev
            gd = (g - g_prev) / tau
            cols.diss_dtau[i] = np.sum(areas * w_prev * vdot(gd, gd))
            d = (u.coeffs - u_prev.coeffs) / tau
            cols.dtau_l2_sq[i] = d @ (mass @ d)
            w_step = w_prev if cfg.scheme == SEMI_IMPLICIT else w
            cols.diss_u[i] = np.sum(areas * w_step * vdot(g, g))
            if cfg.source is not None:
                cols.f_sq[i] = assembly.quadrature_norm_sq(mesh, cfg.source, k * tau)
            if lower:
                dv = lower_order.d_eval(cfg.coeff, uv_prev)
                cols.lower[i] = np.sum((areas / 3.0)[:, None] * dv * dv * uv * uv)
        self.prev = u, g, w, uv
        self.k += 1


def _ledger_entry(name, lhs, rhs):
    # lhs, rhs: arrays over L = 1..K; inequality must hold for every prefix.
    excess = (lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    worst = float(np.max(excess)) if excess.size else 0.0
    return LedgerEntry(name, worst <= LEDGER_REL_SLACK, worst)


def check_energy_ledgers(walk):
    """Audit the run that walk has folded against every applicable energy
    inequality."""
    cfg, cols, K = walk.cfg, walk.cols, walk.cfg.K
    if K == 0:
        return LedgerReport([])
    tau = cfg.tau
    pure_flow = cfg.source is None and cfg.coeff.is_zero
    energies, l2_sq = cols.energy, cols.l2_sq

    entries = []
    cum_dtau = np.cumsum(cols.dtau_l2_sq)
    cum_diss = np.cumsum(cols.diss_dtau)
    cum_l2 = np.cumsum(l2_sq[1:])
    cum_f = np.cumsum(cols.f_sq)
    cum_du = np.cumsum(cols.lower)

    semi = cfg.scheme == SEMI_IMPLICIT
    if semi and pure_flow:
        lhs = energies[1:] + tau * cum_dtau + 0.5 * tau * tau * cum_diss
        rhs = np.full(K, energies[0])
        entries.append(_ledger_entry("energy-stability", lhs, rhs))
    lhs = 0.5 * l2_sq[1:] + tau * np.cumsum(cols.diss_u)
    rhs = (0.5 * l2_sq[0] + (cfg.coeff.c7 + 1.0) * tau * cum_l2 + tau * cum_f)
    entries.append(_ledger_entry("apriori" if semi else "apriori-implicit", lhs, rhs))
    if semi:
        lhs = energies[1:] + 0.5 * tau * cum_dtau + 0.5 * tau * tau * cum_diss
        rhs = energies[0] + tau * cum_f + tau * cum_du
        entries.append(_ledger_entry("ener-bound", lhs, rhs))
    return LedgerReport(entries)


# ---------------------------------------------------------------------------
# Discrepancy of the semi-implicit scheme
# ---------------------------------------------------------------------------

def _regularization_residual(p, eps, g):
    """|E| = |S_0(g) - S_eps(g)| per cell at the cell gradients g of an iterate, by
    which a semi-implicit step misses the unregularized implicit equation."""
    return vnorm(op_S_eps(p, 0.0, g) - op_S_eps(p, eps, g))


def discrepancy_total(cfg, diss_dtau):
    """Balanced upper bound for the integrated discrepancy pairing of the
    semi-implicit run under cfg whose lagged dissipations D_k are diss_dtau.

    With the balance alpha = (tau eps^(p-2))^(1/2) the total is

        (2-p) eps^(p-1) + c^2 alpha tau^2 sum_k D_k + tau eps^(p-2) / (2 alpha),

    with c the frozen empirical difference-quotient constant and unit test
    function normalization.  Along tau = o(eps^(2-p)) sequences it decays;
    with tau fixed it eventually grows.  cfg must be semi-implicit with the
    quadratic-norm regularization, as every config of a StudyConfig's run is.
    """
    p, eps, tau = cfg.nf.p, cfg.eps, cfg.tau
    alpha_eps = float(np.sqrt(tau * eps ** (p - 2.0)))
    diss = tau * tau * sum(diss_dtau.tolist())  # left to right, as the steps were taken
    c = S_EPS_LIPSCHITZ_MAX
    return ((2.0 - p) * eps ** (p - 1.0)
            + c * c * alpha_eps * diss
            + tau * eps ** (p - 2.0) / (2.0 * alpha_eps))


def cell_bound_satisfied(cfg, u):
    """(max-cell |E|) / ((2-p) eps^(p-1)) at the iterate u of a run under cfg;
    must stay <= 1.  cfg must be semi-implicit with the quadratic-norm
    regularization, as every config of a StudyConfig's run is."""
    p, eps = cfg.nf.p, cfg.eps
    bound = (2.0 - p) * eps ** (p - 1.0)
    if bound == 0.0:  # p = 2, where the residual vanishes
        return 0.0
    return float(np.max(_regularization_residual(p, eps, assembly.gradients(u)))) / bound


# ---------------------------------------------------------------------------
# Refinement studies
# ---------------------------------------------------------------------------

DEFAULT_COUPLING = "default"
FIXED_TAU = "fixed-tau"
COUPLINGS = (DEFAULT_COUPLING, FIXED_TAU)


@dataclass(frozen=True)
class StudyConfig:
    """A refinement study: levels of simultaneous (h, tau, eps) refinement.

    Each level halves h and eps, and the coupling sets the step by one rule,
    tau_n = tau_0 (eps_n/eps_0)^alpha.  The default coupling takes
    alpha = 5/2 - p, which realizes tau = o(eps^(2-p)).  The fixed-tau
    coupling takes alpha = 0, keeping tau = tau_0 and violating the
    condition on purpose; it is used as the negative control.  A coupling
    with alpha <= 2 - p is anti-coupled.
    """

    base: SchemeConfig
    initial: object  # callable u0(x, y)
    levels: int = 4
    coupling: str = DEFAULT_COUPLING
    control_levels: int = 6

    def __post_init__(self):
        if self.coupling not in COUPLINGS:
            raise ValueError(f"unknown coupling {self.coupling!r}")
        if not isinstance(self.levels, numbers.Integral) or self.levels < 2:
            raise ValueError("a study needs at least two levels")
        if not isinstance(self.control_levels, numbers.Integral) or self.control_levels < 2:
            raise ValueError("the negative control needs at least two control levels, "
                             f"got {self.control_levels}")
        if self.base.K < 1:
            raise ValueError("the base configuration must take at least one step")
        if self.base.kind != QUADRATIC_NORM:
            raise ValueError("a study bounds the discrepancy, which requires the "
                             f"quadratic-norm regularization, got {self.base.kind!r}")
        # every run's config passes if the one with the smallest eps does
        finest = self.base.eps * 2.0 ** (-(max(self.levels, self.control_levels) - 1))
        with warnings.catch_warnings():  # the base config has warned about r already
            warnings.simplefilter("ignore", AdmissibilityWarning)
            try:
                replace(self.base, eps=finest, scheme=SEMI_IMPLICIT)
            except ValueError as exc:
                raise ValueError(f"at its smallest eps: {exc}") from None

    @property
    def tau_exponent(self):
        """alpha in tau_n = tau_0 (eps_n/eps_0)^alpha."""
        return 0.0 if self.coupling == FIXED_TAU else 2.5 - self.base.nf.p

    def parameter_sequence(self):
        """(eps_n, K_n) for n = 0..levels-1, K_n the step count nearest to
        T / tau_n and at least 1."""
        eps0, tau0, T = self.base.eps, self.base.tau, self.base.T
        alpha = self.tau_exponent
        out = []
        for n in range(self.levels):
            eps_n = eps0 * 2.0 ** (-n)
            tau_n = tau0 * (eps_n / eps0) ** alpha
            out.append((eps_n, max(1, int(round(T / tau_n)))))
        return out


@dataclass
class LevelResult:
    """One level of a study, and the one definition of its columns.  A level
    whose semi-implicit run failed has its parameters and error, NaN
    measurements and empty ledger reports; one whose implicit run failed
    keeps the semi-implicit measurements, with a NaN gap and an empty
    implicit ledger report."""

    n: int
    h: float
    eps: float
    tau: float
    K: int
    linf_l2: float = np.nan
    lp_w1p: float = np.nan
    gap: float = np.nan
    discrepancy_total: float = np.nan
    e_cell_ratio: float = np.nan
    ledgers_semi: LedgerReport = field(default_factory=lambda: LedgerReport([]))
    ledgers_implicit: LedgerReport = field(default_factory=lambda: LedgerReport([]))
    error: str | None = None

    def to_dict(self):
        """Every field, the ledger reports as their dicts: the level's study JSON entry."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.to_dict() if isinstance(value, LedgerReport) else value
        return out

    def table_row(self):
        """The level's row of the level table, column -> value: the int and float
        fields, then 'pass' or 'fail' over both ledgers, or 'none' if the level failed."""
        row = {f.name: getattr(self, f.name) for f in fields(self) if f.type in ("int", "float")}
        ok = self.ledgers_semi.passed and self.ledgers_implicit.passed
        row["ledgers"] = "none" if self.error is not None else "pass" if ok else "fail"
        return row


@dataclass
class StudyReport:
    levels: list
    cauchy: list            # per consecutive pair: {"linf_l2": ..., "lp_w1p": ...}
    coupling_products: list  # tau_n phi''(eps_n)
    control_totals: list
    assertions: dict
    anti_coupled: bool

    @property
    def passed(self):
        return all(self.assertions.values())

    def to_dict(self):
        return {"levels": [lv.to_dict() for lv in self.levels],
                "cauchy": self.cauchy,
                "coupling_products": self.coupling_products,
                "control_totals": self.control_totals,
                "assertions": self.assertions,
                "anti_coupled": self.anti_coupled,
                "passed": self.passed}


def _strictly_decreasing(xs):
    return all(b < a for a, b in zip(xs, xs[1:]))


def _gaps_decreasing(levels, tol_res):
    """Each level's gap below the one before, or zero: a gap at or below
    tol_res times the level's linf_l2 (run_study) counts as zero."""
    gaps = [0.0 if lv.gap <= tol_res * lv.linf_l2 else lv.gap for lv in levels]
    return all(b < a or b == 0.0 for a, b in zip(gaps, gaps[1:]))


def _cauchy_difference(coarse, cfg, j, u):
    """The L2 norm and, for j >= 1, the W^{1,p} seminorm of u - u_c(t_j), u
    the iterate u^j of a level's run under cfg and u_c the previous level's
    iterates coarse, u_c^k on (t_{k-1}, t_k] and u_c^0 at t = 0.  Both runs
    end at T, so t_j lies in the coarse step k = ceil(j K_c/K_f), which
    integer division gives exactly."""
    uc = prolong(coarse[-(-j * (len(coarse) - 1) // cfg.K)], cfg.mesh)
    diff = FemFunction(cfg.mesh, u.coeffs - uc.coeffs)
    return assembly.norm_L2(diff), assembly.seminorm_W1p(diff, cfg.nf.p) if j else 0.0


def _measure_level(level, cfg, semi):
    """Fill level from the iterates semi of its semi-implicit run under cfg,
    then from an implicit run from semi[0] that keeps no iterate."""
    walk = Walk(cfg, semi)
    cols, p = walk.cols, cfg.nf.p
    level.ledgers_semi = check_energy_ledgers(walk)
    level.discrepancy_total = discrepancy_total(cfg, cols.diss_dtau)
    level.linf_l2 = float(np.max(np.sqrt(cols.l2_sq)))
    level.lp_w1p = sum(cfg.tau * s ** p for s in cols.seminorm[1:].tolist()) ** (1.0 / p)
    level.e_cell_ratio = max([0.0, *(cell_bound_satisfied(cfg, u) for u in semi[1:])])
    impl = Walk(replace(cfg, scheme=IMPLICIT))
    gaps = []

    def gap(u):
        gaps.append(assembly.norm_L2(FemFunction(cfg.mesh, semi[len(gaps)].coeffs - u.coeffs)))

    try:
        run_evolution(semi[0], impl.cfg, impl.push, gap)
    except SolverError as exc:
        level.error = f"level {level.n}: {exc}"
        return
    level.gap = max([0.0, *gaps])
    level.ledgers_implicit = check_energy_ledgers(impl)


def _run_levels(sc, u0):
    """The study's levels, and the Cauchy differences of consecutive ones.

    Level n runs on the red refinement of level n-1's mesh, from the
    prolonged initial data.  Its semi-implicit run keeps a list of its
    iterates, which is measured against level n-1's and then replaces it."""
    levels, cauchy = [], []
    coarse = None  # the previous level's semi-implicit iterates, if its run finished
    for n, (eps_n, K_n) in enumerate(sc.parameter_sequence()):
        if n:
            u0 = prolong(u0, refine_red(u0.mesh))
        cfg = replace(sc.base, mesh=u0.mesh, eps=eps_n, K=K_n, scheme=SEMI_IMPLICIT)
        level = LevelResult(n=n, h=u0.mesh.h, eps=eps_n, tau=cfg.tau, K=K_n)
        levels.append(level)
        semi = []
        try:
            run_evolution(u0, cfg, semi.append)
        except SolverError as exc:
            level.error = f"level {n}: {exc}"
            semi = None
        if n:
            linf = lp = np.nan
            if coarse is not None and semi is not None:
                terms = [_cauchy_difference(coarse, cfg, j, u) for j, u in enumerate(semi)]
                linf = max([0.0, *(norm for norm, _ in terms)])
                lp = sum(cfg.tau * s ** cfg.nf.p for _, s in terms[1:]) ** (1.0 / cfg.nf.p)
            cauchy.append({"linf_l2": linf, "lp_w1p": lp})
        coarse = semi
        if semi is not None:
            _measure_level(level, cfg, semi)
    return levels, cauchy


def run_study(sc):
    """Run both schemes on every level and certify the coupled decay claims.

    The levels run one at a time, each semi-implicit run before its implicit
    run, and the control runs last.  Per-level failures are recorded and the
    remaining levels still run; a level whose implicit run fails keeps its
    semi-implicit measurements.  The report always carries the anti-coupled control
    totals so that a passing study demonstrably depends on the coupling.

    gap-decreasing reads each level's gap, max_k ||u_semi^k - u_impl^k||_L2,
    against a rounding floor.  The implicit solvers stop once the residual of
    the step is at most tol_res (1 + ||F_k||), so they resolve an iterate to
    about tol_res relative to its size, and no iterate of a level is larger
    than its linf_l2.  A gap at or below tol_res * linf_l2 is below what that
    stopping rule resolves and counts as zero, and a zero gap passes after
    any gap.  At p = 2 the two schemes coincide: the example study's gaps
    read 0, 0, 8.9e-17 and 9.0e-16 against a floor of 4.5e-11.
    """
    base = sc.base
    u0 = interpolate_nodal(sc.initial, base.mesh)
    levels, cauchy = _run_levels(sc, u0)
    products = [lv.tau * float(base.nf.phi_prime2(lv.eps)) for lv in levels]

    # anti-coupled control: mesh and tau pinned, eps halving; level 0's
    # semi-implicit run is also the control run at m = 0
    control_totals = [levels[0].discrepancy_total]
    for m in range(1, sc.control_levels):
        cfg = replace(base, eps=base.eps * 2.0 ** (-m), scheme=SEMI_IMPLICIT)
        walk = Walk(cfg)
        try:
            run_evolution(u0, cfg, walk.push)
            control_totals.append(discrepancy_total(cfg, walk.cols.diss_dtau))
        except SolverError:
            control_totals.append(np.nan)

    ran = all(lv.error is None for lv in levels)
    assertions = {
        "all-levels-ran": ran,
        "cauchy-linf-l2-decreasing": ran and _strictly_decreasing([c["linf_l2"] for c in cauchy]),
        "gap-decreasing": ran and _gaps_decreasing(levels, base.tol_res),
        "discrepancy-decreasing": ran and _strictly_decreasing(
            [lv.discrepancy_total for lv in levels]),
        "e-cell-bound": ran and all(lv.e_cell_ratio <= 1.0 + 1e-10 for lv in levels),
        "ledgers": ran and all(lv.ledgers_semi.passed and lv.ledgers_implicit.passed
                               for lv in levels),
        "coupling-product-decreasing": _strictly_decreasing(products),
        "negative-control": not _strictly_decreasing(
            [t for t in control_totals if np.isfinite(t)]),
    }
    return StudyReport(levels, cauchy, products, control_totals, assertions,
                       anti_coupled=sc.tau_exponent <= 2.0 - base.nf.p)
