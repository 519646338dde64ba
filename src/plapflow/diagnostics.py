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

with D_k = int w^{k-1} |grad d u^k|^2 the lagged dissipation.

The semi-implicit iterates also solve the unregularized implicit equation up
to two residual fields per step: a regularization error bounded cellwise by
(2-p) eps^(p-1), and a lag error controlled by the dissipation.  Their
balanced total must decay along parameter sequences with tau = o(eps^(2-p)),
which the coupled refinement studies verify empirically; an anti-coupled
control run guards against vacuously passing assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import assembly, lower_order
from .lower_order import IMPLICIT, SEMI_IMPLICIT
from .mesh import FemFunction, interpolate_nodal, prolong, refine_red, unit_square_mesh
from .orlicz import NFunctionPD, QUADRATIC_NORM, S_EPS_LIPSCHITZ_MAX, op_S_eps
from .schemes import SchemeConfig, SolverError, run_evolution

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
class LedgerReport:
    entries: list

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def to_dict(self):
        return {"passed": self.passed,
                "entries": [e.to_dict() for e in self.entries]}


def _lagged_dissipation(traj):
    """Cell gradients and diffusion weights of u^0..u^K, and the lagged
    dissipations D_k = int w^{k-1} |grad d u^k|^2 for k = 1..K."""
    cfg = traj.config
    grads = [assembly.gradients(u) for u in traj.iterates]
    weights = [assembly.gradient_weight(cfg.nf, cfg.eps, cfg.kind,
                                        np.sqrt(np.sum(g * g, axis=1))) for g in grads]
    diss = np.empty(traj.K)
    for k in range(1, traj.K + 1):
        gd = (grads[k] - grads[k - 1]) / cfg.tau
        diss[k - 1] = float(np.sum(cfg.mesh.areas * weights[k - 1] * np.sum(gd * gd, axis=1)))
    return grads, weights, diss


def _ledger_entry(name, lhs, rhs):
    # lhs, rhs: arrays over L = 1..K; inequality must hold for every prefix.
    excess = (lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    worst = float(np.max(excess)) if excess.size else 0.0
    return LedgerEntry(name, worst <= LEDGER_REL_SLACK, worst)


def check_energy_ledgers(traj):
    """Audit a trajectory against every applicable energy inequality."""
    cfg = traj.config
    K = traj.K
    if K == 0:
        return LedgerReport([])
    tau = cfg.tau
    mesh = cfg.mesh
    areas = mesh.areas
    pure_flow = cfg.source is None and cfg.coeff.is_zero

    us = traj.iterates
    grads, weights, diss_dtau = _lagged_dissipation(traj)
    energies = np.array([assembly.energy(u, cfg.nf, cfg.eps, cfg.kind) for u in us])
    mass = assembly.mass_matrix(mesh)
    l2_sq = np.array([float(u.coeffs @ (mass @ u.coeffs)) for u in us])

    dtau_l2_sq = np.empty(K)
    diss_u_lag = np.empty(K)
    diss_u_cur = np.empty(K)
    fq_sq = np.zeros(K)
    du_sq = np.zeros(K)
    for k in range(1, K + 1):
        d = (us[k].coeffs - us[k - 1].coeffs) / tau
        dtau_l2_sq[k - 1] = float(d @ (mass @ d))
        gk2 = np.sum(grads[k] * grads[k], axis=1)
        diss_u_lag[k - 1] = float(np.sum(areas * weights[k - 1] * gk2))
        diss_u_cur[k - 1] = float(np.sum(areas * weights[k] * gk2))
        if cfg.source is not None:
            fq_sq[k - 1] = assembly.quadrature_norm_sq(mesh, cfg.source, k * tau)
        if not cfg.coeff.is_zero:
            dv = lower_order.d_eval(cfg.coeff, assembly.values_at_midpoints(us[k - 1]))
            uv = assembly.values_at_midpoints(us[k])
            du_sq[k - 1] = float(np.sum((areas / 3.0)[:, None] * dv * dv * uv * uv))

    entries = []
    cum_dtau = np.cumsum(dtau_l2_sq)
    cum_diss = np.cumsum(diss_dtau)
    cum_l2 = np.cumsum(l2_sq[1:])
    cum_f = np.cumsum(fq_sq)
    cum_du = np.cumsum(du_sq)

    if cfg.scheme == SEMI_IMPLICIT:
        if pure_flow:
            lhs = energies[1:] + tau * cum_dtau + 0.5 * tau * tau * cum_diss
            rhs = np.full(K, energies[0])
            entries.append(_ledger_entry("energy-stability", lhs, rhs))
        lhs = 0.5 * l2_sq[1:] + tau * np.cumsum(diss_u_lag)
        rhs = (0.5 * l2_sq[0] + (cfg.coeff.c7 + 1.0) * tau * cum_l2 + tau * cum_f)
        entries.append(_ledger_entry("apriori", lhs, rhs))
        lhs = energies[1:] + 0.5 * tau * cum_dtau + 0.5 * tau * tau * cum_diss
        rhs = energies[0] + tau * cum_f + tau * cum_du
        entries.append(_ledger_entry("ener-bound", lhs, rhs))
    else:
        lhs = 0.5 * l2_sq[1:] + tau * np.cumsum(diss_u_cur)
        rhs = (0.5 * l2_sq[0] + (cfg.coeff.c7 + 1.0) * tau * cum_l2 + tau * cum_f)
        entries.append(_ledger_entry("apriori-implicit", lhs, rhs))
    return LedgerReport(entries)


# ---------------------------------------------------------------------------
# Discrepancy of the semi-implicit scheme
# ---------------------------------------------------------------------------

@dataclass
class DiscrepancyRecord:
    k: int
    E_norm_L1: float
    E_max_cell: float
    E_bound_cell: float  # (2-p) eps^(p-1)
    E_bound_L1: float    # same, scaled by |Omega|
    F_dual_norm: float
    alpha_eps: float

    @property
    def cell_bound_holds(self):
        return self.E_max_cell <= self.E_bound_cell + 1e-10 * max(1.0, self.E_bound_cell)

    def to_dict(self):
        return {"k": self.k, "E_norm_L1": self.E_norm_L1,
                "E_max_cell": self.E_max_cell, "E_bound_cell": self.E_bound_cell,
                "E_bound_L1": self.E_bound_L1, "F_dual_norm": self.F_dual_norm,
                "alpha_eps": self.alpha_eps}


def _require_semi_quadratic(traj):
    cfg = traj.config
    if cfg.scheme != SEMI_IMPLICIT:
        raise ValueError("discrepancy terms are defined for semi-implicit trajectories")
    if cfg.kind != QUADRATIC_NORM:
        raise ValueError("discrepancy terms require the quadratic-norm regularization")


def discrepancy_terms(traj, k):
    """Cellwise residual fields by which step k misses the unregularized
    implicit equation, with their certified bounds."""
    _require_semi_quadratic(traj)
    if not 1 <= k <= traj.K:
        raise ValueError(f"step index k = {k} outside 1..{traj.K}")
    cfg = traj.config
    p, eps = cfg.nf.p, cfg.eps
    mesh = cfg.mesh
    g_cur = assembly.gradients(traj.iterates[k])
    g_lag = assembly.gradients(traj.iterates[k - 1])

    s_eps = op_S_eps(p, eps, g_cur)
    e_field = op_S_eps(p, 0.0, g_cur) - s_eps
    w_lag = assembly.gradient_weight(cfg.nf, eps, cfg.kind,
                                     np.sqrt(np.sum(g_lag * g_lag, axis=1)))
    f_field = s_eps - w_lag[:, None] * g_cur

    e_abs = np.sqrt(np.sum(e_field * e_field, axis=1))
    area = mesh.areas
    omega = float(np.sum(area))
    bound_cell = (2.0 - p) * eps ** (p - 1.0)

    # dual estimate of F against the unit W^{1,2} ball of the P1 basis
    grads = mesh.hat_gradients()
    pair = np.einsum("md,mid,m->mi", f_field, grads, area)
    vec = np.bincount(mesh.cells.ravel(), weights=pair.ravel(), minlength=mesh.n_nodes)
    mdiag = assembly.mass_matrix(mesh, full=True).diagonal()
    kdiag = assembly.stiffness_matrix(mesh, full=True).diagonal()
    denom = np.sqrt(mdiag + kdiag)
    free = mesh.interior
    f_dual = float(np.max(np.abs(vec[free]) / denom[free])) if free.size else 0.0

    return DiscrepancyRecord(
        k=k,
        E_norm_L1=float(np.sum(area * e_abs)),
        E_max_cell=float(np.max(e_abs)),
        E_bound_cell=bound_cell,
        E_bound_L1=bound_cell * omega,
        F_dual_norm=f_dual,
        alpha_eps=float(np.sqrt(cfg.tau * eps ** (p - 2.0))),
    )


def lagged_dissipation_sum(traj):
    """tau^2 sum_k int w^{k-1} |grad d u^k|^2, the quantity the energy bound controls."""
    tau = traj.config.tau
    return tau * tau * float(sum(_lagged_dissipation(traj)[2]))


def discrepancy_total(traj, alpha_eps=None):
    """Balanced upper bound for the integrated discrepancy pairing.

    With alpha = (tau eps^(p-2))^(1/2) (the default balance) the total is

        (2-p) eps^(p-1) + c^2 alpha tau^2 sum_k D_k + tau eps^(p-2) / (2 alpha),

    with c the frozen empirical difference-quotient constant and unit test
    function normalization.  Along tau = o(eps^(2-p)) sequences it decays;
    with tau fixed it eventually grows.
    """
    _require_semi_quadratic(traj)
    cfg = traj.config
    p, eps, tau = cfg.nf.p, cfg.eps, cfg.tau
    if alpha_eps is None:
        alpha_eps = float(np.sqrt(tau * eps ** (p - 2.0)))
    diss = lagged_dissipation_sum(traj)
    c = S_EPS_LIPSCHITZ_MAX
    return ((2.0 - p) * eps ** (p - 1.0)
            + c * c * alpha_eps * diss
            + tau * eps ** (p - 2.0) / (2.0 * alpha_eps))


def cell_bound_satisfied(traj):
    """Max over steps of (max-cell |E^k|) / ((2-p) eps^(p-1)); must stay <= 1."""
    worst = 0.0
    for k in range(1, traj.K + 1):
        rec = discrepancy_terms(traj, k)
        if rec.E_bound_cell > 0.0:
            worst = max(worst, rec.E_max_cell / rec.E_bound_cell)
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
        if self.base.K < 1:
            raise ValueError("the base configuration must take at least one step")

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
    n: int
    h: float
    eps: float
    tau: float
    K: int
    linf_l2: float
    lp_w1p: float
    gap: float
    discrepancy_total: float
    e_cell_ratio: float
    ledgers_semi: LedgerReport
    ledgers_implicit: LedgerReport
    error: str | None = None

    def to_dict(self):
        return {"n": self.n, "h": self.h, "eps": self.eps, "tau": self.tau,
                "K": self.K, "linf_l2": self.linf_l2, "lp_w1p": self.lp_w1p,
                "gap": self.gap, "discrepancy_total": self.discrepancy_total,
                "e_cell_ratio": self.e_cell_ratio,
                "ledgers_semi": self.ledgers_semi.to_dict(),
                "ledgers_implicit": self.ledgers_implicit.to_dict(),
                "error": self.error}


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


def _trajectory_norms(traj):
    linf = max(assembly.norm_L2(u) for u in traj.iterates)
    p = traj.config.nf.p
    acc = sum(traj.config.tau * assembly.seminorm_W1p(u, p) ** p
              for u in traj.iterates[1:])
    return linf, acc ** (1.0 / p)


def _cauchy_difference(coarse, fine, fine_mesh, p):
    """Distance of consecutive-level runs on the finer space-time grid."""
    tau_f, tau_c = fine.config.tau, coarse.config.tau
    linf = 0.0
    acc = 0.0
    for j in range(fine.K + 1):
        t = j * tau_f
        i = 0 if t <= 0.0 else min(int(np.ceil(t / tau_c - 1e-9)), coarse.K)
        uc = prolong(coarse.iterates[i], fine_mesh)
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

    Per-level failures are recorded and the remaining levels still run.  The
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

    params = sc.parameter_sequence()
    levels = []
    semis = []
    for n, (eps_n, K_n) in enumerate(params):
        cfg = replace(base, mesh=meshes[n], eps=eps_n, K=K_n, scheme=SEMI_IMPLICIT)
        try:
            semi = run_evolution(u0s[n], cfg)
            impl = run_evolution(u0s[n], cfg.with_scheme(IMPLICIT))
            linf, lp = _trajectory_norms(semi)
            levels.append(LevelResult(
                n=n, h=meshes[n].h, eps=eps_n, tau=cfg.tau, K=K_n,
                linf_l2=linf, lp_w1p=lp,
                gap=_scheme_gap(semi, impl),
                discrepancy_total=discrepancy_total(semi),
                e_cell_ratio=cell_bound_satisfied(semi),
                ledgers_semi=check_energy_ledgers(semi),
                ledgers_implicit=check_energy_ledgers(impl)))
            semis.append(semi)
        except SolverError as exc:
            levels.append(LevelResult(
                n=n, h=meshes[n].h, eps=eps_n, tau=base.T / K_n, K=K_n,
                linf_l2=np.nan, lp_w1p=np.nan, gap=np.nan,
                discrepancy_total=np.nan, e_cell_ratio=np.nan,
                ledgers_semi=LedgerReport([]), ledgers_implicit=LedgerReport([]),
                error=str(exc)))
            semis.append(None)

    cauchy = []
    for n in range(len(semis) - 1):
        if semis[n] is None or semis[n + 1] is None:
            cauchy.append({"linf_l2": np.nan, "lp_w1p": np.nan})
            continue
        linf, lp = _cauchy_difference(semis[n], semis[n + 1], meshes[n + 1], p)
        cauchy.append({"linf_l2": linf, "lp_w1p": lp})

    products = [lv.tau * float(base.nf.phi_prime2(lv.eps)) for lv in levels]

    # anti-coupled control: mesh and tau pinned, eps halving
    control_totals = []
    for m in range(sc.control_levels):
        cfg = replace(base, eps=base.eps * 2.0 ** (-m), scheme=SEMI_IMPLICIT)
        try:
            control_totals.append(discrepancy_total(run_evolution(u0s[0], cfg)))
        except SolverError:
            control_totals.append(np.nan)

    ok = [lv.error is None for lv in levels]
    assertions = {
        "all-levels-ran": all(ok),
        "cauchy-linf-l2-decreasing": _strictly_decreasing(
            [c["linf_l2"] for c in cauchy]) if all(ok) else False,
        "gap-decreasing": _strictly_decreasing([lv.gap for lv in levels]) if all(ok) else False,
        "discrepancy-decreasing": _strictly_decreasing(
            [lv.discrepancy_total for lv in levels]) if all(ok) else False,
        "e-cell-bound": all(lv.e_cell_ratio <= 1.0 + 1e-10 for lv in levels if lv.error is None),
        "ledgers": all(lv.ledgers_semi.passed and lv.ledgers_implicit.passed
                       for lv in levels if lv.error is None),
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


def heat_manufactured_error(n=4, K=4, T=0.05, levels=3, vary="tau"):
    """Errors across levels that halve tau (at fixed h) or h (at fixed tau)."""
    if vary not in ("tau", "h"):
        raise ValueError("vary must be 'tau' or 'h'")
    errors = []
    for lvl in range(levels):
        if vary == "tau":
            errors.append(heat_run_error(n, K * 2**lvl, T))
        else:
            errors.append(heat_run_error(n * 2**lvl, K, T))
    return errors
