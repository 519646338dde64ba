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
above is over per-iterate and per-step quantities that one walk over the
iterates computes (``_walk``).  The ledgers hand its columns back, and the
run CSV and the study's norms and discrepancy totals read them instead of
computing them again.

The semi-implicit iterates also solve the unregularized implicit equation up
to two residual fields per step: a regularization error bounded cellwise by
(2-p) eps^(p-1), and a lag error controlled by the dissipation.  Their
balanced total must decay along parameter sequences with tau = o(eps^(2-p)),
which the coupled refinement studies verify empirically; an anti-coupled
control run guards against vacuously passing assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import assembly, lower_order
from .lower_order import IMPLICIT, SEMI_IMPLICIT
from .mesh import FemFunction, interpolate_nodal, prolong, refine_red, unit_square_mesh
from .orlicz import (NFunctionPD, QUADRATIC_NORM, S_EPS_LIPSCHITZ_MAX, diffusion_weight,
                     op_S_eps, vnorm)
from .schemes import SchemeConfig, SolverError, interpolant_eval, run_evolution

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
    """What one walk over a trajectory's iterates computes: per iterate
    (k = 0..K) and per step (k = 1..K).  The ledgers, the run CSV and the
    study's norms and discrepancy total all read these."""

    energy: np.ndarray      # E[u^k], by assembly.energy
    l2_sq: np.ndarray       # ||u^k||^2 = u^k . M u^k
    seminorm: np.ndarray    # |u^k|_{1,p}
    dtau_l2_sq: np.ndarray  # ||d u^k||^2, d u^k = (u^k - u^{k-1}) / tau
    diss_dtau: np.ndarray   # D_k = int w^{k-1} |grad d u^k|^2
    diss_u_lag: np.ndarray  # int w^{k-1} |grad u^k|^2
    diss_u_cur: np.ndarray  # int w^k |grad u^k|^2
    f_sq: np.ndarray        # ||f(., k tau)||^2 by the load vector's midpoint rule
    lower: np.ndarray       # (d(u^{k-1})^2, (u^k)^2)


@dataclass
class LedgerReport:
    entries: list
    columns: TrajectoryColumns | None = None  # the walk the entries came from; not serialized

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def to_dict(self):
        return {"passed": self.passed,
                "entries": [e.to_dict() for e in self.entries]}


def _walk(traj):
    """The columns of traj in one pass over its iterates, with the cell
    gradients and diffusion weights of two iterates live at a time."""
    cfg = traj.config
    K, mesh = traj.K, cfg.mesh
    areas = mesh.areas
    mass = assembly.mass_matrix(mesh)
    cols = TrajectoryColumns(*(np.empty(K + 1) for _ in range(3)),
                             *(np.zeros(K) for _ in range(6)))
    us = traj.iterates
    prev = None
    for k, u in enumerate(us):
        cols.energy[k] = assembly.energy(u, cfg.nf, cfg.eps, cfg.kind)
        cols.l2_sq[k] = u.coeffs @ (mass @ u.coeffs)
        cols.seminorm[k] = assembly.seminorm_W1p(u, cfg.nf.p)
        g = assembly.gradients(u)
        w = diffusion_weight(cfg.nf, cfg.eps, cfg.kind, vnorm(g))
        if k:
            i, tau = k - 1, cfg.tau
            d = (u.coeffs - us[i].coeffs) / tau
            cols.dtau_l2_sq[i] = d @ (mass @ d)
            g_prev, w_prev = prev
            gd = (g - g_prev) / tau
            cols.diss_dtau[i] = np.sum(areas * w_prev * np.sum(gd * gd, axis=1))
            g2 = np.sum(g * g, axis=1)
            cols.diss_u_lag[i] = np.sum(areas * w_prev * g2)
            cols.diss_u_cur[i] = np.sum(areas * w * g2)
            if cfg.source is not None:
                cols.f_sq[i] = assembly.quadrature_norm_sq(mesh, cfg.source, k * tau)
            if not cfg.coeff.is_zero:
                dv = lower_order.d_eval(cfg.coeff, assembly.values_at_midpoints(us[i]))
                uv = assembly.values_at_midpoints(u)
                cols.lower[i] = np.sum((areas / 3.0)[:, None] * dv * dv * uv * uv)
        prev = g, w
    return cols


def _ledger_entry(name, lhs, rhs):
    # lhs, rhs: arrays over L = 1..K; inequality must hold for every prefix.
    excess = (lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    worst = float(np.max(excess)) if excess.size else 0.0
    return LedgerEntry(name, worst <= LEDGER_REL_SLACK, worst)


def check_energy_ledgers(traj):
    """Audit a trajectory against every applicable energy inequality.

    The report also carries the columns of the walk that the entries were
    built from."""
    cfg = traj.config
    K = traj.K
    cols = _walk(traj)
    if K == 0:
        return LedgerReport([], cols)
    tau = cfg.tau
    pure_flow = cfg.source is None and cfg.coeff.is_zero
    energies, l2_sq = cols.energy, cols.l2_sq

    entries = []
    cum_dtau = np.cumsum(cols.dtau_l2_sq)
    cum_diss = np.cumsum(cols.diss_dtau)
    cum_l2 = np.cumsum(l2_sq[1:])
    cum_f = np.cumsum(cols.f_sq)
    cum_du = np.cumsum(cols.lower)

    if cfg.scheme == SEMI_IMPLICIT:
        if pure_flow:
            lhs = energies[1:] + tau * cum_dtau + 0.5 * tau * tau * cum_diss
            rhs = np.full(K, energies[0])
            entries.append(_ledger_entry("energy-stability", lhs, rhs))
        lhs = 0.5 * l2_sq[1:] + tau * np.cumsum(cols.diss_u_lag)
        rhs = (0.5 * l2_sq[0] + (cfg.coeff.c7 + 1.0) * tau * cum_l2 + tau * cum_f)
        entries.append(_ledger_entry("apriori", lhs, rhs))
        lhs = energies[1:] + 0.5 * tau * cum_dtau + 0.5 * tau * tau * cum_diss
        rhs = energies[0] + tau * cum_f + tau * cum_du
        entries.append(_ledger_entry("ener-bound", lhs, rhs))
    else:
        lhs = 0.5 * l2_sq[1:] + tau * np.cumsum(cols.diss_u_cur)
        rhs = (0.5 * l2_sq[0] + (cfg.coeff.c7 + 1.0) * tau * cum_l2 + tau * cum_f)
        entries.append(_ledger_entry("apriori-implicit", lhs, rhs))
    return LedgerReport(entries, cols)


# ---------------------------------------------------------------------------
# Discrepancy of the semi-implicit scheme
# ---------------------------------------------------------------------------

def _require_semi_quadratic(cfg):
    if cfg.scheme != SEMI_IMPLICIT:
        raise ValueError("the discrepancy bounds are defined for semi-implicit trajectories")
    if cfg.kind != QUADRATIC_NORM:
        raise ValueError("the discrepancy bounds require the quadratic-norm regularization")


def _regularization_residual(p, eps, g):
    """|E| = |S_0(g) - S_eps(g)| per cell at the cell gradients g of an iterate, by
    which a semi-implicit step misses the unregularized implicit equation."""
    return vnorm(op_S_eps(p, 0.0, g) - op_S_eps(p, eps, g))


def _dissipation_sum(tau, diss_dtau):
    # summed one step after the other, as the steps were taken
    return tau * tau * sum(diss_dtau.tolist())


def lagged_dissipation_sum(traj):
    """tau^2 sum_k int w^{k-1} |grad d u^k|^2, the quantity the energy bound controls."""
    return _dissipation_sum(traj.config.tau, _walk(traj).diss_dtau)


def _discrepancy_total(cfg, diss_dtau):
    """discrepancy_total of the semi-implicit run under cfg whose lagged
    dissipations D_k are diss_dtau."""
    _require_semi_quadratic(cfg)
    p, eps, tau = cfg.nf.p, cfg.eps, cfg.tau
    alpha_eps = float(np.sqrt(tau * eps ** (p - 2.0)))
    diss = _dissipation_sum(tau, diss_dtau)
    c = S_EPS_LIPSCHITZ_MAX
    return ((2.0 - p) * eps ** (p - 1.0)
            + c * c * alpha_eps * diss
            + tau * eps ** (p - 2.0) / (2.0 * alpha_eps))


def discrepancy_total(traj):
    """Balanced upper bound for the integrated discrepancy pairing.

    With the balance alpha = (tau eps^(p-2))^(1/2) the total is

        (2-p) eps^(p-1) + c^2 alpha tau^2 sum_k D_k + tau eps^(p-2) / (2 alpha),

    with c the frozen empirical difference-quotient constant and unit test
    function normalization.  Along tau = o(eps^(2-p)) sequences it decays;
    with tau fixed it eventually grows.
    """
    return _discrepancy_total(traj.config, _walk(traj).diss_dtau)


def cell_bound_satisfied(traj):
    """Max over steps of (max-cell |E^k|) / ((2-p) eps^(p-1)); must stay <= 1."""
    cfg = traj.config
    _require_semi_quadratic(cfg)
    p, eps = cfg.nf.p, cfg.eps
    bound = (2.0 - p) * eps ** (p - 1.0)
    worst = 0.0
    if bound > 0.0:
        for u in traj.iterates[1:]:
            e_max = float(np.max(_regularization_residual(p, eps, assembly.gradients(u))))
            worst = max(worst, e_max / bound)
    return worst


# ---------------------------------------------------------------------------
# Refinement studies
# ---------------------------------------------------------------------------

DEFAULT_COUPLING = "default"
FIXED_TAU = "fixed-tau"
COUPLINGS = (DEFAULT_COUPLING, FIXED_TAU)


@dataclass
class StudyConfig:
    """A refinement study: levels of simultaneous (h, tau, eps) refinement.

    The default coupling halves h and eps per level and sets
    tau_n = tau_0 (eps_n/eps_0)^(2-p) 2^(-n/2), which realizes
    tau = o(eps^(2-p)).  The fixed-tau coupling keeps tau = tau_0 (violating
    the condition on purpose); it is used as the negative control.
    """

    base: SchemeConfig
    initial: object  # callable u0(x, y)
    levels: int = 4
    coupling: str = DEFAULT_COUPLING
    control_levels: int = 6

    def __post_init__(self):
        if self.coupling not in COUPLINGS:
            raise ValueError(f"unknown coupling {self.coupling!r}")
        if self.levels < 2:
            raise ValueError("a study needs at least two levels")
        if self.control_levels < 2:
            raise ValueError("the negative control needs at least two control levels, "
                             f"got {self.control_levels}")
        if self.base.K < 1:
            raise ValueError("the base configuration must take at least one step")
        if self.base.kind != QUADRATIC_NORM:
            raise ValueError("a study bounds the discrepancy, which requires the "
                             f"quadratic-norm regularization, got {self.base.kind!r}")

    def parameter_sequence(self):
        """(eps_n, K_n) for n = 0..levels-1 under the coupling rule."""
        p = self.base.nf.p
        eps0, tau0, T = self.base.eps, self.base.tau, self.base.T
        out = []
        for n in range(self.levels):
            eps_n = eps0 * 2.0 ** (-n)
            if self.coupling == FIXED_TAU:
                K_n = self.base.K
            else:
                target = tau0 * (eps_n / eps0) ** (2.0 - p) * 2.0 ** (-n / 2.0)
                K_n = max(1, int(round(T / target)))
            out.append((eps_n, K_n))
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


def _cauchy_difference(coarse, fine, fine_mesh, p):
    """Distance of consecutive-level runs on the finer space-time grid."""
    tau_f = fine.config.tau
    linf = 0.0
    acc = 0.0
    for j in range(fine.K + 1):
        uc = prolong(interpolant_eval(coarse, j * tau_f), fine_mesh)
        diff = FemFunction(fine_mesh, fine.iterates[j].coeffs - uc.coeffs)
        linf = max(linf, assembly.norm_L2(diff))
        if j >= 1:
            acc += tau_f * assembly.seminorm_W1p(diff, p) ** p
    return linf, acc ** (1.0 / p)


def _scheme_gap(traj_a, traj_b):
    mesh = traj_a.config.mesh
    gap = 0.0
    for ua, ub in zip(traj_a.iterates, traj_b.iterates):
        gap = max(gap, assembly.norm_L2(FemFunction(mesh, ua.coeffs - ub.coeffs)))
    return gap


def run_study(sc):
    """Run both schemes on every level and certify the coupled decay claims.

    Per-level failures are recorded and the remaining levels still run; a
    level whose implicit run fails keeps its semi-implicit run.  The
    report always carries the anti-coupled control totals so that a passing
    study demonstrably depends on the coupling.
    """
    base = sc.base
    p = base.nf.p
    meshes = [base.mesh]
    for _ in range(sc.levels - 1):
        meshes.append(refine_red(meshes[-1]))
    u0s = [interpolate_nodal(sc.initial, meshes[0])]
    for n in range(1, sc.levels):
        u0s.append(prolong(u0s[-1], meshes[n]))

    levels = []
    semis = []
    semi0_total = np.nan  # level 0's semi-implicit run is also the control run at m = 0
    for n, (eps_n, K_n) in enumerate(sc.parameter_sequence()):
        cfg = replace(base, mesh=meshes[n], eps=eps_n, K=K_n, scheme=SEMI_IMPLICIT)
        level = LevelResult(n=n, h=meshes[n].h, eps=eps_n, tau=cfg.tau, K=K_n)
        levels.append(level)
        try:
            semi = run_evolution(u0s[n], cfg)
        except SolverError as exc:
            level.error = f"level {n}: {exc}"
            semis.append(None)
            continue
        semis.append(semi)
        level.ledgers_semi = check_energy_ledgers(semi)
        cols = level.ledgers_semi.columns
        level.discrepancy_total = _discrepancy_total(cfg, cols.diss_dtau)
        if n == 0:
            semi0_total = level.discrepancy_total
        level.linf_l2 = float(np.max(np.sqrt(cols.l2_sq)))
        level.lp_w1p = sum(cfg.tau * s ** p for s in cols.seminorm[1:].tolist()) ** (1.0 / p)
        level.e_cell_ratio = cell_bound_satisfied(semi)
        try:
            impl = run_evolution(u0s[n], replace(cfg, scheme=IMPLICIT))
        except SolverError as exc:
            level.error = f"level {n}: {exc}"
            continue
        level.gap = _scheme_gap(semi, impl)
        level.ledgers_implicit = check_energy_ledgers(impl)

    cauchy = []
    for n in range(len(semis) - 1):
        linf = lp = np.nan
        if semis[n] is not None and semis[n + 1] is not None:
            linf, lp = _cauchy_difference(semis[n], semis[n + 1], meshes[n + 1], p)
        cauchy.append({"linf_l2": linf, "lp_w1p": lp})

    products = [lv.tau * float(base.nf.phi_prime2(lv.eps)) for lv in levels]

    # anti-coupled control: mesh and tau pinned, eps halving
    control_totals = [semi0_total][:sc.control_levels]
    for m in range(1, sc.control_levels):
        cfg = replace(base, eps=base.eps * 2.0 ** (-m), scheme=SEMI_IMPLICIT)
        try:
            control_totals.append(discrepancy_total(run_evolution(u0s[0], cfg)))
        except SolverError:
            control_totals.append(np.nan)

    ran = all(lv.error is None for lv in levels)
    assertions = {
        "all-levels-ran": ran,
        "cauchy-linf-l2-decreasing": ran and _strictly_decreasing([c["linf_l2"] for c in cauchy]),
        "gap-decreasing": ran and _strictly_decreasing([lv.gap for lv in levels]),
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
                       anti_coupled=sc.coupling == FIXED_TAU)


# ---------------------------------------------------------------------------
# Manufactured solution for the quadratic boundary case
# ---------------------------------------------------------------------------

def heat_exact(x, y, t):
    """Decaying eigenmode of the Dirichlet heat flow on the unit square."""
    return np.exp(-2.0 * np.pi**2 * t) * np.sin(np.pi * x) * np.sin(np.pi * y)


def heat_run_error(n, K, T, scheme=SEMI_IMPLICIT):
    """Max-over-time-nodes L2 error of the p = 2 run against the exact mode."""
    mesh = unit_square_mesh(n)
    cfg = SchemeConfig(mesh=mesh, nf=NFunctionPD(2.0), eps=0.5, K=K, T=T,
                       scheme=scheme, kind=QUADRATIC_NORM)
    u0 = interpolate_nodal(lambda x, y: heat_exact(x, y, 0.0), mesh)
    traj = run_evolution(u0, cfg)
    return max(assembly.l2_error(traj.iterates[k], heat_exact, t=k * cfg.tau)
               for k in range(traj.K + 1))


def heat_manufactured_error(n=4, K=4, T=0.05, levels=3):
    """Errors across levels that halve tau at fixed h."""
    return [heat_run_error(n, K * 2**lvl, T) for lvl in range(levels)]
