"""Time-stepping schemes for the nonlinear parabolic flow.

Both fully discrete schemes are built on one linear-step core: the matrix
with diffusion weight and lower-order coefficient frozen at a state v,

    A(v) = M/tau + K_w(v) + M_d(v),

the right-hand side of step k, b = M u^{k-1}/tau + F(t_k), and the residual
A(v) v - b of the implicit step equation.  The semi-implicit step solves
A(u^{k-1}) u^k = b once.  The implicit step drives A(v) v - b to zero with
either the lagged-weight fixed point (Kacanov) or a damped Newton method.
Kacanov is Anderson-accelerated at depth ANDERSON_DEPTH = 3: sweep j solves
A(v_j) g_j = b and mixes g_j with the differences of the last three sweeps.
The first sweep from v_0 = u^{k-1} has no history, so it is exactly the
semi-implicit step.

Every linear solve of one run -- each semi-implicit step, each Kacanov sweep
and each Newton tangent -- goes through one _SpdSolver, in one of three
regimes fixed by the mesh:

- below REUSE_DOFS unknowns it factors every system;
- from REUSE_DOFS on it keeps the last factor and solves the next system by
  conjugate gradients preconditioned with it; a solve that needs more than
  REUSE_CG_ITERS iterations retires the factor, and a solve that fails
  refactors at once;
- on a red-refined mesh of at least MG_DOFS unknowns it solves by CG
  preconditioned with a multigrid V-cycle on the refinement hierarchy,
  rebuilt for every system, and factors nothing larger than the coarsest
  mesh; a solve that fails factors its system, and the run continues in
  the kept-factor regime.

MG_DOFS sits at the measured crossover of the last two: on 10-step runs the
V-cycle was faster for the semi-implicit scheme from 3969 unknowns on, and
for warm-started Kacanov from about 12 000.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly, lower_order
from .lower_order import IMPLICIT, SEMI_IMPLICIT, SCHEMES, LowerOrderCoeff
from .mesh import FemFunction, TriMesh, prolongation
from .orlicz import NFunctionPD, QUADRATIC_NORM, REGULARIZATION_KINDS

KACANOV = "kacanov"
NEWTON = "newton"
NONLINEAR_SOLVERS = (KACANOV, NEWTON)

# Number of past sweep differences mixed into each Kacanov iterate.
ANDERSON_DEPTH = 3
# Relative size below which a difference counts as dependent on newer ones.
_DEPENDENT = 1e-10

# Systems with at least this many unknowns reuse the last factor as a CG
# preconditioner.  Below it factoring every system was as fast or faster:
# 10-step runs on unit_square_mesh(n) broke even at 256 unknowns (n = 17) for
# the semi-implicit scheme and gained from 289 (n = 18) for both schemes.
REUSE_DOFS = 289
# A preconditioned solve that took more iterations than this retires the factor.
REUSE_CG_ITERS = 8
# CG stops at ||b - A x|| <= _CG_RTOL ||b||.  A solve still short of that
# after _CG_MAXITER iterations, which cost more than a factorization, is
# abandoned and its system factored.
_CG_RTOL = 1e-12
_CG_MAXITER = 4 * REUSE_CG_ITERS
# Red-refined meshes with at least this many unknowns solve by CG preconditioned
# with a multigrid V-cycle.  10-step runs from sin-product (p = 1.5, eps = 0.1)
# on unit_square_mesh(4) refined 3-5 times, against the kept-factor regime:
# semi-implicit 0.075 against 0.098 s at 3969 unknowns and 0.17 against 0.53 s
# at 16129; Kacanov 0.73 against 0.59 s at 3969 and 1.85 against 2.30 s at
# 16129, breaking even between 6241 and 12321 unknowns.
MG_DOFS = 10_000
# Damping factor of the Jacobi smoother in the V-cycle.
_JACOBI_DAMPING = 0.8


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
    nonlinear: str = KACANOV
    tol_res: float = 1e-10
    max_iter: int = 60

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.kind not in REGULARIZATION_KINDS:
            raise ValueError(f"unknown regularization kind {self.kind!r}")
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


class _SpdSolver:
    """Solves the linear systems of one run, A x = b for A on the mesh's pattern.

    Three regimes, fixed by the mesh:

    - A mesh with a parent (a red refinement) and at least MG_DOFS unknowns,
      about where the V-cycle overtook the kept factor on Kacanov runs,
      solves by ``cg`` preconditioned with one multigrid V(1,1)-cycle on its
      refinement hierarchy (_multigrid).  A solve that does not converge in
      _CG_MAXITER iterations factors its own system, and the object goes
      over to the kept-factor regime for the rest of the run: on tangents of
      strongly anisotropic Newton steps (p = 1.2, eps = 0.01) every V-cycle
      solve hit the cap, and retrying each one doubled the solve time.
    - Any other mesh factors with ``splu`` (SuperLU LU with partial
      pivoting), its unknowns permuted to the nested-dissection ordering that
      ``assembly.nested_dissection`` caches per mesh, so SuperLU computes no
      ordering of its own.  Below REUSE_DOFS unknowns every system is
      factored.
    - From REUSE_DOFS on the last factor is kept, and the next system is
      solved by ``cg`` preconditioned with it.  A solve that took more than
      REUSE_CG_ITERS iterations keeps its answer but retires the factor, so
      the next call factors; a solve that did not converge in _CG_MAXITER
      iterations factors its own system.

    CG starts at x0 = guess + M^-1 (b - A guess), M^-1 the preconditioner and
    guess 0 if none is given, and stops at ||b - A x|| <= 1e-12 ||b||.  Every
    choice depends on sizes and iteration counts only, so the answers are
    deterministic.  A kept factor lives as long as the object: one run.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.hierarchy = _hierarchy(cfg.mesh) if cfg.mesh.n_interior >= MG_DOFS else []
        self.reuse = cfg.mesh.n_interior >= REUSE_DOFS
        self.lu = None  # the factor kept for reuse, in the permuted ordering

    def __call__(self, A, b, guess=None):
        """The solution of A x = b; guess, if given, is where CG starts from."""
        if self.hierarchy:
            x, _ = _cg(A, b, self._multigrid(A), guess)
            if x is not None:
                return x
            self.hierarchy = []  # the rest of the run factors
        perm, indptr, indices, gather = assembly.nested_dissection(self.cfg.mesh)
        B = sp.csc_matrix((A.data[gather], indices, indptr), shape=A.shape)
        B.has_canonical_format = True
        y = None
        if self.lu is not None:
            y, iterations = _cg(B, b[perm], self.lu.solve,
                                None if guess is None else guess[perm])
            if y is None or iterations > REUSE_CG_ITERS:
                self.lu = None
        if y is None:
            lu = self._factor(B)
            y = lu.solve(b[perm])
            if self.reuse:
                self.lu = lu
        x = np.empty_like(b)
        x[perm] = y
        return x

    def _factor(self, B):
        try:
            return spla.splu(B, permc_spec="NATURAL")
        except RuntimeError as exc:
            if self.cfg.coeff.c7 > 0.0:
                warnings.warn(
                    "factorization failed and the lower-order coefficient is "
                    "negative somewhere; M/tau + M_d may be indefinite for this "
                    "step size (conditional solvability)", stacklevel=3)
            raise SolverError(f"direct factorization failed: {exc}") from exc

    def _multigrid(self, A):
        """One V(1,1)-cycle for A, as the map r -> approximately A^-1 r.

        The coarse operators are the Galerkin products P^T A P down the
        hierarchy, and the coarsest is factored on the coarsest mesh's
        nested-dissection ordering.  Each level smooths once before and once
        after its coarse correction by damped Jacobi, so the cycle is a
        symmetric map, as CG requires of its preconditioner.
        """
        ops = [A]
        for P, R, _ in self.hierarchy:
            ops.append(R @ ops[-1] @ P)
        smooth = [_JACOBI_DAMPING / op.diagonal() for op in ops[:-1]]
        perm = assembly.nested_dissection(self.hierarchy[-1][2])[0]
        lu = self._factor(ops[-1][perm][:, perm].tocsc())

        def cycle(r, level=0):
            if level == len(smooth):
                x = np.empty_like(r)
                x[perm] = lu.solve(r[perm])
                return x
            op, w = ops[level], smooth[level]
            P, R, _ = self.hierarchy[level]
            x = w * r
            x += P @ cycle(R @ (r - op @ x), level + 1)
            x += w * (r - op @ x)
            return x

        return cycle


def _hierarchy(mesh):
    """(P, P^T, parent) for each red refinement from mesh up to the coarsest
    ancestor with an unknown, finest first; [] for a mesh without a parent."""
    out = []
    while mesh.parent is not None and mesh.parent.n_interior > 0:
        P = prolongation(mesh)
        out.append((P, P.T.tocsr(), mesh.parent))
        mesh = mesh.parent
    return out


def _cg(A, b, precond, guess=None):
    """CG on A x = b preconditioned with the map precond, started at
    x0 = guess + precond(b - A guess), or precond(b) without a guess.

    Returns x and the iteration count; x is None if ||b - A x|| <= 1e-12 ||b||
    was not reached in _CG_MAXITER iterations.
    """
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x0 = precond(b) if guess is None else guess + precond(b - A @ guess)
    M = spla.LinearOperator(A.shape, matvec=precond, dtype=A.dtype)
    x, info = spla.cg(A, b, x0=x0, rtol=_CG_RTOL, atol=0.0, maxiter=_CG_MAXITER, M=M,
                      callback=count)
    return (x if info == 0 else None), iterations


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


class _AndersonMixer:
    """Anderson mixing of depth ANDERSON_DEPTH for a fixed-point map v -> G(v).

    Called once per sweep with the sweep's iterate v_j and its image
    g_j = G(v_j), it returns the next iterate

        v_{j+1} = g_j - sum_i gamma_i dG_i,   gamma = argmin ||f_j - sum_i gamma_i dF_i||,

    where f = g - v is the update, and dF_i, dG_i are the differences of f and
    of g between consecutive sweeps, the last ANDERSON_DEPTH of them (Walker
    and Ni, SINUM 2011).  The first call has no history and returns g_0 itself.

    The differences sit in preallocated ring buffers, one per row.  The least
    squares problem is solved by modified Gram-Schmidt over the rows, newest
    first, with no LAPACK call: np.linalg.lstsq raised the peak memory of a
    whole implicit run measurably.  A row of dF whose part orthogonal to the
    newer kept rows is at most _DEPENDENT times the larger of its norm and its
    dG row's norm is numerically dependent and gets coefficient 0.  So does a
    zero row, and a row that is rounding noise left by a repeated update
    while the iterates still move: fitting it would give a huge coefficient.
    """

    def __init__(self):
        self.count = 0  # differences recorded so far
        self.prev = None  # (f, g) of the previous sweep
        self.dF = self.dG = self.Q = None

    def __call__(self, v, g):
        f = g - v
        prev, self.prev = self.prev, (f, g)
        if prev is None:
            return g
        if self.dF is None:
            self.dF, self.dG, self.Q = (np.empty((ANDERSON_DEPTH, f.size)) for _ in range(3))
        newest = self.count % ANDERSON_DEPTH
        np.subtract(f, prev[0], out=self.dF[newest])
        np.subtract(g, prev[1], out=self.dG[newest])
        self.count += 1
        rows = [(newest - i) % ANDERSON_DEPTH for i in range(min(self.count, ANDERSON_DEPTH))]

        # dF[rows[kept]] = Q[:m]^T R, Q with orthonormal rows, R upper triangular
        R = np.zeros((ANDERSON_DEPTH, ANDERSON_DEPTH))
        kept = []
        for row in rows:
            m = len(kept)
            q = self.Q[m]
            q[:] = self.dF[row]
            scale = max(np.linalg.norm(q), np.linalg.norm(self.dG[row]))
            for i in range(m):
                R[i, m] = self.Q[i] @ q
                q -= R[i, m] * self.Q[i]
            R[m, m] = float(np.linalg.norm(q))
            if R[m, m] > _DEPENDENT * scale:
                q /= R[m, m]
                kept.append(row)
        m = len(kept)
        gamma = self.Q[:m] @ f
        for i in reversed(range(m)):
            gamma[i] = (gamma[i] - R[i, i + 1:m] @ gamma[i + 1:]) / R[i, i]
        out = g.copy()
        for coef, row in zip(gamma, kept):
            out -= coef * self.dG[row]
        return out


def _semi_step(u_prev, cfg, k, solve=None):
    """The semi-implicit step with its linear-solve residual.

    solve is the run's _SpdSolver; None gives a fresh one, which factors.
    """
    if cfg.eps <= 0.0:
        raise ValueError("semi-implicit step requires eps > 0")
    if solve is None:
        solve = _SpdSolver(cfg)
    A = _system_matrix(u_prev, cfg)
    b, _ = _step_rhs(u_prev, cfg, k)
    u = FemFunction(cfg.mesh, solve(A, b))
    return u, StepStats(1, float(np.linalg.norm(A @ u.coeffs - b)))


def semi_implicit_step(u_prev, cfg, k):
    """One linear step with weight and coefficient lagged at u_prev."""
    return _semi_step(u_prev, cfg, k)[0]


def implicit_step(u_prev, cfg, k, solve=None):
    """One nonlinear step with weight and coefficient at the new iterate.

    Both solvers stop once ||A(v) v - b|| <= tol_res (1 + ||F_k||).  Kacanov
    is Anderson-accelerated at depth ANDERSON_DEPTH = 3 (_AndersonMixer):
    every sweep solves A(v_j) g_j = b and takes the mixed iterate as v_{j+1}.
    Its first sweep is the semi-implicit step.  Newton solves with the
    tangent of A(v) v and halves its step until the residual falls, and fails
    once 30 steps or a step of rounding size did not lower it; its errors
    carry the residuals and every line search.

    Every linear system goes through solve, the run's _SpdSolver (None gives
    a fresh one).  Below REUSE_DOFS unknowns it factors each system; from
    REUSE_DOFS on it factors only when the kept factor of an earlier sweep
    or step stops paying, and solves the other systems by CG preconditioned
    with that factor, or with a multigrid V-cycle on red-refined meshes of
    MG_DOFS unknowns or more.  Kacanov's CG starts from the sweep's iterate
    v_j, whose image g_j is close to it near convergence; Newton's from
    none, since its corrections shrink to 0.
    """
    mesh = cfg.mesh
    if solve is None:
        solve = _SpdSolver(cfg)
    b, load = _step_rhs(u_prev, cfg, k)
    tol = cfg.tol_res * (1.0 + float(np.linalg.norm(load)))

    v = u_prev
    history = []
    if cfg.nonlinear == KACANOV:
        mix = _AndersonMixer()
        for j in range(1, cfg.max_iter + 1):
            g = solve(_system_matrix(v, cfg), b, v.coeffs)
            v = FemFunction(mesh, mix(v.coeffs, g))
            res = float(np.linalg.norm(_defect(v, b, cfg)))
            history.append(res)
            if res <= tol:
                return v, StepStats(j, res)
        raise SolverError(
            f"Anderson-accelerated (depth {ANDERSON_DEPTH}) Kacanov iteration did not "
            f"reach {tol:.3e} in {cfg.max_iter} iterations; residual history {history}")

    res_vec = _defect(v, b, cfg)
    res = float(np.linalg.norm(res_vec))
    searches = []
    for j in range(1, cfg.max_iter + 1):
        if res <= tol:
            return v, StepStats(j - 1, res)
        J = assembly.jacobian_stiffness(mesh, v, cfg.nf, cfg.eps, cfg.kind)
        J.data += assembly.mass_matrix(mesh).data / cfg.tau
        if not cfg.coeff.is_zero:
            gp = lower_order.g_prime_eval(cfg.coeff, assembly.values_at_midpoints(v))
            J.data += assembly.midpoint_mass(mesh, gp).data
        delta = solve(J, -res_vec)
        # a step that moves v by no more than its rounding ends the search
        delta_norm = float(np.linalg.norm(delta))
        rounding = 2.0**-52 * float(np.linalg.norm(v.coeffs))
        step = 1.0
        trials = []
        searches.append(trials)
        for _ in range(30):
            trial = FemFunction(mesh, v.coeffs + step * delta)
            trial_vec = _defect(trial, b, cfg)
            trial_res = float(np.linalg.norm(trial_vec))
            trials.append((step, trial_res))
            accepted = trial_res <= (1.0 - 1e-4 * step) * res
            if accepted or step * delta_norm <= rounding:
                break
            step *= 0.5
        if not accepted:
            raise SolverError(
                f"Newton line search failed at residual {res:.3e}; residual history "
                f"{history}; {_line_searches(searches)}")
        v, res_vec, res = trial, trial_vec, trial_res
        history.append(res)
    if res <= tol:
        return v, StepStats(cfg.max_iter, res)
    raise SolverError(
        f"Newton did not reach {tol:.3e} in {cfg.max_iter} iterations; "
        f"residual history {history}; {_line_searches(searches)}")


def _line_searches(searches):
    """Newton's line-search history: per iteration, the step lengths and trial residuals."""
    per_iteration = (", ".join(f"{step:g}: {res:.3e}" for step, res in trials)
                     for trials in searches)
    return f"line search per iteration (step: trial residual) [{'], ['.join(per_iteration)}]"


def first_kacanov_equals_semi_implicit(u_prev, cfg):
    """Check the structural identity between the two schemes.

    The first Kacanov sweep of the implicit step from v0 = u_prev solves
    exactly the semi-implicit linear system, so the iterates must coincide
    to solver accuracy: 1e-12 relative to 1 + max |u|.
    """
    if cfg.eps <= 0.0:
        raise ValueError("comparison requires eps > 0")
    semi = semi_implicit_step(u_prev, cfg, 1)
    one_sweep = replace(cfg, scheme=IMPLICIT, nonlinear=KACANOV, max_iter=1,
                        tol_res=np.inf)
    v1, _ = implicit_step(u_prev, one_sweep, 1)
    scale = 1.0 + float(np.max(np.abs(semi.coeffs))) if semi.coeffs.size else 1.0
    diff = float(np.max(np.abs(semi.coeffs - v1.coeffs))) if semi.coeffs.size else 0.0
    return diff <= 1e-12 * scale


def run_evolution(u0, cfg):
    """Apply the configured step for k = 1..K from the initial iterate u0.

    All linear solves of the run share one _SpdSolver, so a factor kept for
    reuse carries over from step to step.
    """
    if u0.mesh is not cfg.mesh:
        raise ValueError("initial data lives on a different mesh than the config")
    step = _semi_step if cfg.scheme == SEMI_IMPLICIT else implicit_step
    solve = _SpdSolver(cfg)
    iterates = [u0]
    stats = []
    for k in range(1, cfg.K + 1):
        try:
            u, st = step(iterates[-1], cfg, k, solve)
        except (SolverError, assembly.DegenerateWeightError) as exc:
            raise SolverError(f"{cfg.scheme} step {k} (t = {k * cfg.tau:g}; p = {cfg.nf.p:g}, "
                              f"eps = {cfg.eps:g}, tau = {cfg.tau:g}) failed: {exc}") from exc
        iterates.append(u)
        stats.append(st)
    return Trajectory(cfg, iterates, stats)


def interpolant_eval(traj, t):
    """The piecewise-constant time interpolant of the iterates at t in [0, T]:
    u^k on (t_{k-1}, t_k], and u^0 at t = 0."""
    cfg = traj.config
    if not -1e-12 <= t <= cfg.T * (1.0 + 1e-12) + 1e-300:
        raise ValueError(f"t = {t} outside [0, {cfg.T}]")
    if traj.K == 0 or t <= 0.0:
        return traj.iterates[0].copy()
    k = int(np.ceil(t / cfg.tau - 1e-12))
    return traj.iterates[min(max(k, 1), traj.K)].copy()
