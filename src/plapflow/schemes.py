"""Time-stepping schemes for the nonlinear parabolic flow.

Both fully discrete schemes are built on one linear-step core: the matrix
with diffusion weight and lower-order coefficient frozen at a state v,

    A(v) = M/tau + K_w(v) + M_d(v),

the right-hand side of step k, b = M u^{k-1}/tau + F(t_k), and the residual
A(v) v - b of the implicit step equation.  The semi-implicit step solves
A(u^{k-1}) u^k = b once.  The implicit step drives A(v) v - b to zero with
either the lagged-weight fixed point (Kacanov), whose sweeps solve
A(v_j) v_{j+1} = b, or a damped Newton method.  The first Kacanov sweep from
v_0 = u^{k-1} is therefore the semi-implicit step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.linalg as spla

from . import assembly, lower_order
from .lower_order import IMPLICIT, SEMI_IMPLICIT, SCHEMES, LowerOrderCoeff
from .mesh import FemFunction, TriMesh
from .orlicz import NFunctionPD, QUADRATIC_NORM, REGULARIZATION_KINDS

CHOLESKY = "cholesky"
CG = "cg"
LINEAR_SOLVERS = (CHOLESKY, CG)

KACANOV = "kacanov"
NEWTON = "newton"
NONLINEAR_SOLVERS = (KACANOV, NEWTON)


class SolverError(RuntimeError):
    """A linear or nonlinear solve failed; the message carries the history."""


class AdmissibilityWarning(UserWarning):
    """The lower-order exponent lies outside the scheme's convergence theory."""


@dataclass
class SchemeConfig:
    """Full description of one evolution run (initial data passed separately)."""

    mesh: TriMesh
    nf: NFunctionPD
    eps: float
    K: int
    T: float
    scheme: str = SEMI_IMPLICIT
    kind: str = QUADRATIC_NORM
    coeff: LowerOrderCoeff = field(default_factory=LowerOrderCoeff.zero)
    source: object = None  # callable f(x, y, t) or None
    linear_solver: str = CHOLESKY
    cg_tol: float = 1e-12
    cg_max_iter: int = 5000
    nonlinear: str = KACANOV
    tol_res: float = 1e-10
    max_iter: int = 60

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.kind not in REGULARIZATION_KINDS:
            raise ValueError(f"unknown regularization kind {self.kind!r}")
        if self.linear_solver not in LINEAR_SOLVERS:
            raise ValueError(f"unknown linear solver {self.linear_solver!r}")
        if self.nonlinear not in NONLINEAR_SOLVERS:
            raise ValueError(f"unknown nonlinear solver {self.nonlinear!r}")
        if self.K < 0 or int(self.K) != self.K:
            raise ValueError("K must be a nonnegative integer")
        if self.K == 0 and self.T != 0.0:
            raise ValueError("K = 0 requires T = 0 (tau K = T must hold exactly)")
        if self.K > 0 and not self.T > 0.0:
            raise ValueError("final time T must be positive")
        if self.scheme == SEMI_IMPLICIT:
            if not 0.0 < self.eps < 1.0:
                raise ValueError(
                    f"semi-implicit scheme requires eps in (0, 1), got {self.eps}")
        else:
            if not 0.0 <= self.eps < 1.0:
                raise ValueError(
                    f"implicit scheme requires eps in [0, 1), got {self.eps}")
            if self.eps == 0.0 and self.nf.delta == 0.0:
                raise ValueError("implicit scheme with eps = 0 requires delta > 0")
        if self.kind == QUADRATIC_NORM and self.nf.delta != 0.0:
            raise ValueError("quadratic-norm regularization requires delta = 0")
        if not lower_order.admissibility(self.coeff, self.nf.p, self.scheme):
            warnings.warn(
                f"r = {self.coeff.r} is outside the convergence theory for the "
                f"{self.scheme} scheme at p = {self.nf.p}; the run proceeds anyway",
                AdmissibilityWarning, stacklevel=2)

    @property
    def tau(self):
        return self.T / self.K

    @property
    def outside_theory(self):
        return not lower_order.admissibility(self.coeff, self.nf.p, self.scheme)

    def with_scheme(self, scheme):
        return replace(self, scheme=scheme)


@dataclass
class StepStats:
    iterations: int
    residual: float


@dataclass
class Trajectory:
    """Iterates u^0..u^K of one run, with per-step solver statistics."""

    config: SchemeConfig
    iterates: list
    stats: list

    @property
    def K(self):
        return len(self.iterates) - 1

    def times(self):
        return np.arange(self.K + 1) * self.config.tau if self.K else np.zeros(1)


def _solve_spd(A, b, cfg):
    """Solve A x = b with the configured linear solver.

    "cholesky" is not a Cholesky factorization: it is SuperLU's sparse LU
    (``splu``) with COLAMD column ordering and partial pivoting.  "cg" is
    unpreconditioned conjugate gradients.
    """
    if cfg.linear_solver == CG:
        x, info = spla.cg(A, b, rtol=cfg.cg_tol, atol=0.0, maxiter=cfg.cg_max_iter)
        if info != 0:
            raise SolverError(f"CG failed to converge (info={info})")
        return x
    try:
        return spla.splu(A.tocsc()).solve(b)
    except RuntimeError as exc:
        if cfg.coeff.c7 > 0.0:
            warnings.warn(
                "factorization failed and the lower-order coefficient is "
                "negative somewhere; M/tau + M_d may be indefinite for this "
                "step size (conditional solvability)", stacklevel=2)
        raise SolverError(f"direct factorization failed: {exc}") from exc


def _system_matrix(v, cfg):
    """A(v) = M/tau + K_w(v) + M_d(v), weight and coefficient frozen at v.

    All P1 matrices on a mesh share one CSR pattern, so the sum is taken on
    the data vectors of the freshly assembled K_w(v).
    """
    mesh = cfg.mesh
    A = assembly.weighted_stiffness(mesh, v, cfg.nf, cfg.eps, cfg.kind)
    A.data += assembly.mass_matrix(mesh).data / cfg.tau
    if not cfg.coeff.is_zero:
        A.data += assembly.weighted_mass(mesh, v, cfg.coeff).data
    return A


def _step_rhs(u_prev, cfg, k):
    """Right-hand side b = M u^{k-1}/tau + F_k of step k, and the load F_k."""
    mesh = cfg.mesh
    if cfg.source is not None:
        load = assembly.load_vector(mesh, cfg.source, k * cfg.tau)
    else:
        load = np.zeros(mesh.n_interior)
    return assembly.mass_matrix(mesh) @ u_prev.coeffs / cfg.tau + load, load


def _defect(v, b, cfg):
    """Residual A(v) v - b of the implicit step equation at v, on the free nodes."""
    return _system_matrix(v, cfg) @ v.coeffs - b


def _semi_step(u_prev, cfg, k):
    """The semi-implicit step with its linear-solve residual."""
    if cfg.eps <= 0.0:
        raise ValueError("semi-implicit step requires eps > 0")
    A = _system_matrix(u_prev, cfg)
    b, _ = _step_rhs(u_prev, cfg, k)
    u = FemFunction(cfg.mesh, _solve_spd(A, b, cfg))
    return u, StepStats(1, float(np.linalg.norm(A @ u.coeffs - b)))


def semi_implicit_step(u_prev, cfg, k):
    """One linear step with weight and coefficient lagged at u_prev."""
    return _semi_step(u_prev, cfg, k)[0]


def implicit_step(u_prev, cfg, k):
    """One nonlinear step with weight and coefficient at the new iterate."""
    mesh = cfg.mesh
    b, load = _step_rhs(u_prev, cfg, k)
    tol = cfg.tol_res * (1.0 + float(np.linalg.norm(load)))

    v = u_prev
    history = []
    if cfg.nonlinear == KACANOV:
        for j in range(1, cfg.max_iter + 1):
            v = FemFunction(mesh, _solve_spd(_system_matrix(v, cfg), b, cfg))
            res = float(np.linalg.norm(_defect(v, b, cfg)))
            history.append(res)
            if res <= tol:
                return v, StepStats(j, res)
        raise SolverError(
            f"Kacanov iteration did not reach {tol:.3e} in {cfg.max_iter} "
            f"iterations; residual history {history}")

    res_vec = _defect(v, b, cfg)
    res = float(np.linalg.norm(res_vec))
    for j in range(1, cfg.max_iter + 1):
        if res <= tol:
            return v, StepStats(j - 1, res)
        J = assembly.jacobian_stiffness(mesh, v, cfg.nf, cfg.eps, cfg.kind)
        J.data += assembly.mass_matrix(mesh).data / cfg.tau
        if not cfg.coeff.is_zero:
            gp = lower_order.g_prime_eval(cfg.coeff, assembly.values_at_midpoints(v))
            J.data += assembly.midpoint_mass(mesh, gp).data
        delta = _solve_spd(J, -res_vec, cfg)
        step = 1.0
        for _ in range(30):
            trial = FemFunction(mesh, v.coeffs + step * delta)
            trial_vec = _defect(trial, b, cfg)
            trial_res = float(np.linalg.norm(trial_vec))
            if trial_res <= (1.0 - 1e-4 * step) * res:
                break
            step *= 0.5
        else:
            raise SolverError(
                f"Newton line search failed at residual {res:.3e}; history {history}")
        v, res_vec, res = trial, trial_vec, trial_res
        history.append(res)
    if res <= tol:
        return v, StepStats(cfg.max_iter, res)
    raise SolverError(
        f"Newton did not reach {tol:.3e} in {cfg.max_iter} iterations; "
        f"residual history {history}")


def first_kacanov_equals_semi_implicit(u_prev, cfg, tol=1e-12):
    """Check the structural identity between the two schemes.

    The first Kacanov sweep of the implicit step from v0 = u_prev solves
    exactly the semi-implicit linear system, so the iterates must coincide
    to solver accuracy.
    """
    if cfg.eps <= 0.0:
        raise ValueError("comparison requires eps > 0")
    semi = semi_implicit_step(u_prev, cfg, 1)
    one_sweep = replace(cfg, scheme=IMPLICIT, nonlinear=KACANOV, max_iter=1,
                        tol_res=np.inf)
    v1, _ = implicit_step(u_prev, one_sweep, 1)
    scale = 1.0 + float(np.max(np.abs(semi.coeffs))) if semi.coeffs.size else 1.0
    diff = float(np.max(np.abs(semi.coeffs - v1.coeffs))) if semi.coeffs.size else 0.0
    return diff <= tol * scale


def run_evolution(u0, cfg):
    """Apply the configured step for k = 1..K from the initial iterate u0."""
    if u0.mesh is not cfg.mesh:
        raise ValueError("initial data lives on a different mesh than the config")
    step = _semi_step if cfg.scheme == SEMI_IMPLICIT else implicit_step
    iterates = [u0]
    stats = []
    for k in range(1, cfg.K + 1):
        try:
            u, st = step(iterates[-1], cfg, k)
        except (SolverError, assembly.DegenerateWeightError) as exc:
            raise SolverError(f"step {k} (t = {k * cfg.tau:g}) failed: {exc}") from exc
        iterates.append(u)
        stats.append(st)
    return Trajectory(cfg, iterates, stats)


def interpolant_eval(traj, kind, t):
    """Evaluate a time interpolant of the iterates at t in [0, T].

    constant: u^k on (t_{k-1}, t_k];  affine: linear between the nodes;
    lagged: u^{k-1} on (t_{k-1}, t_k].  At t = 0 all three give u^0.
    """
    cfg = traj.config
    if not -1e-12 <= t <= cfg.T * (1.0 + 1e-12) + 1e-300:
        raise ValueError(f"t = {t} outside [0, {cfg.T}]")
    if kind not in ("constant", "affine", "lagged"):
        raise ValueError(f"unknown interpolant kind {kind!r}")
    if traj.K == 0 or t <= 0.0:
        return traj.iterates[0].copy()
    tau = cfg.tau
    k = int(np.ceil(t / tau - 1e-12))
    k = min(max(k, 1), traj.K)
    if kind == "constant":
        return traj.iterates[k].copy()
    if kind == "lagged":
        return traj.iterates[k - 1].copy()
    theta = t / tau - (k - 1)
    coeffs = theta * traj.iterates[k].coeffs + (1.0 - theta) * traj.iterates[k - 1].coeffs
    return FemFunction(cfg.mesh, coeffs)
