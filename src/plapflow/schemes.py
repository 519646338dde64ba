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
and each Newton tangent -- goes through one _SpdSolver, whose docstring
gives its three regimes.  The constants that fix them, and KACANOV_FORCING,
by which a Kacanov sweep after the first may stop its CG early, carry their
measurements in their comments.
"""

from __future__ import annotations

import numbers
import warnings
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly, lower_order
from .lower_order import SEMI_IMPLICIT, SCHEMES, LowerOrderCoeff
from .mesh import FemFunction, TriMesh, prolongation
from .orlicz import NFunctionPD, QUADRATIC_NORM, REGULARIZATION_KINDS, diffusion_weight

KACANOV = "kacanov"
NEWTON = "newton"
NONLINEAR_SOLVERS = (KACANOV, NEWTON)

# Number of past sweep differences mixed into each Kacanov iterate.
ANDERSON_DEPTH = 3
# Relative size below which a difference counts as dependent on newer ones.
_DEPENDENT = 1e-10
# From its second sweep on, a Kacanov sweep's CG may stop once its residual is
# below KACANOV_FORCING times the nonlinear defect at the sweep's start point,
# a constant forcing term (Eisenstat and Walker, SISC 1996), since the next
# sweep replaces its answer anyway.
# 10-step Kacanov runs: implicit-n64's config (3969 unknowns, kept factor) and
# sin-product (p = 1.5, eps = 0.1) on unit_square_mesh(4) refined 5 times
# (16129 unknowns, V-cycle); sweeps, factorizations, preconditioner
# applications, and the range of two in-process medians (9-21 runs each):
#   forcing              0          0.03       0.1        0.3
#   3969    sweeps       113        114        111        110
#           factors      6          5          5          5
#           LU solves    445        238        196        176
#           time, s      0.37-0.41  0.27-0.32  0.26-0.29  0.24-0.30
#   16129   sweeps       119        122        124        132
#           V-cycles     1106       477        374        376
#           time, s      1.47-1.55  1.01-1.07  0.96-1.12  1.01-1.06
# The times from 0.03 to 0.3 lie within each other's spread; 0.1 makes the
# fewest V-cycles without the extra sweeps of 0.3.
KACANOV_FORCING = 0.1

# Systems with at least this many unknowns reuse the last factor as a CG
# preconditioner: the semi-implicit break-even.  10-step runs from sin-product
# (p = 1.5, eps = 0.1) on unit_square_mesh(n), time reusing / time factoring
# (Kacanov with KACANOV_FORCING = 0.1, the mean of two 25-run medians):
#   unknowns         49    81   121   144   169   196   225   289
#   semi-implicit  1.24  1.18  1.07  1.02  1.00  0.89  0.89  0.84
#   Kacanov        0.76  0.68  0.62  0.57  0.51  0.46  0.43  0.37
REUSE_DOFS = 169
# A preconditioned solve that took more iterations than this retires the
# factor.  The same runs at caps 4, 6, 8, 12: semi-implicit 0.99 1.00 1.01
# 1.15 at 169 unknowns and 0.85 0.85 0.80 0.85 at 289; Kacanov (forcing 0.1)
# 0.45 0.44 0.46 0.52 at 169 and 0.40 0.40 0.42 0.42 at 289.
REUSE_CG_ITERS = 6
# CG stops at ||b - A x|| < _CG_RTOL ||b||.  A solve still short of that
# after _CG_MAXITER iterations, which cost more than a factorization, is
# abandoned and its system factored.
_CG_RTOL = 1e-12
_CG_MAXITER = 32
# Red-refined meshes with at least this many unknowns solve by CG preconditioned
# with a multigrid V-cycle.  10-step runs from sin-product (p = 1.5, eps = 0.1)
# on unit_square_mesh(4) refined 3-5 times, against the kept-factor regime:
# semi-implicit 0.075 against 0.098 s at 3969 unknowns and 0.17 against 0.53 s
# at 16129.  Kacanov with every CG solved to 1e-12 broke even between 6241 and
# 12321 unknowns.  With KACANOV_FORCING = 0.1, the medians of 7 runs read 0.36
# against 0.25 s at 3969, 0.89 against 0.78 s at 12321 (unit_square_mesh(7)
# refined 4 times), 1.16 against 1.10 s at 16129 and 1.29 against 1.29 s at
# 20449 (unit_square_mesh(9) refined 4 times).
MG_DOFS = 10_000
# Damping factor of the Jacobi smoother in the V-cycle.
_JACOBI_DAMPING = 0.8


class SolverError(RuntimeError):
    """A linear or nonlinear solve failed; the message carries the history."""


class AdmissibilityWarning(UserWarning):
    """The lower-order exponent lies outside the scheme's convergence theory."""


@dataclass(frozen=True)
class SchemeConfig:
    """Full description of one evolution run (initial data passed separately).
    Only construction checks the rules on its data; a built config is frozen."""

    mesh: TriMesh
    nf: NFunctionPD
    eps: float
    K: int
    T: float
    scheme: str = SEMI_IMPLICIT
    kind: str = QUADRATIC_NORM
    coeff: LowerOrderCoeff = LowerOrderCoeff()
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
        if not self.tol_res > 0.0:  # rejects nan too
            raise ValueError(f"tol_res must be > 0, got {self.tol_res}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not isinstance(self.K, numbers.Integral) or self.K < 0:
            raise ValueError("K must be a nonnegative integer")
        if self.K == 0 and self.T != 0.0:
            raise ValueError("K = 0 requires T = 0 (tau K = T must hold exactly)")
        if self.K > 0 and not 0.0 < self.T < np.inf:  # rejects nan too
            raise ValueError(f"final time T must be finite and > 0, got {self.T}")
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
        with np.errstate(over="ignore"):  # the weight is largest at a zero gradient
            if not np.isfinite(diffusion_weight(self.nf, self.eps, self.kind, 0.0)):
                raise ValueError(f"the {self.kind} weight at a zero gradient is unbounded for "
                                 f"eps = {self.eps:g} and delta = {self.nf.delta:g}")
        if self.outside_theory:
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
    """What a run returns: its config and per-step solver statistics.  The
    iterates went to the run's observers; K is config.K."""

    config: SchemeConfig
    stats: list


class _SpdSolver:
    """Solves the linear systems of one run, A x = b for A on the mesh's pattern.

    Three regimes, fixed by the mesh:

    - A mesh with a parent (a red refinement) and at least MG_DOFS unknowns,
      where the V-cycle overtook the kept factor on semi-implicit runs,
      solves by CG preconditioned with one multigrid V(1,1)-cycle on its
      refinement hierarchy (_multigrid).  A solve that does not converge in
      _CG_MAXITER iterations factors its own system, and the object goes
      over to the kept-factor regime for the rest of the run: on tangents of
      strongly anisotropic Newton steps (p = 1.2, eps = 0.01) every V-cycle
      solve hit the cap, and retrying each one doubled the solve time.
    - Any other mesh factors with ``splu`` (SuperLU LU with partial
      pivoting) a CSC copy of A permuted to the nested-dissection ordering
      that ``assembly.nested_dissection`` caches per mesh, so SuperLU
      computes no ordering of its own.  The copy is built only to factor.
      Below REUSE_DOFS unknowns every system is factored.
    - From REUSE_DOFS on the last factor is kept, and the next system is
      solved by CG on A itself preconditioned with r -> the factor's solve
      of r permuted, mapped back (a _vcycle without levels).  A solve that
      took more than REUSE_CG_ITERS iterations keeps its answer but retires
      the factor, so the next call factors; a solve that did not converge
      in _CG_MAXITER iterations factors its own system.

    CG (_cg) starts at x0 = guess + M^-1 (b - A guess), M^-1 the
    preconditioner and guess 0 if none is given, and stops at
    ||b - A x|| < max(1e-12 ||b||, atol), atol 0 unless the caller passes
    one; a Kacanov sweep after the first passes KACANOV_FORCING times its
    start's defect.  A factored system is solved exactly, whatever atol.
    Every choice depends on sizes and iteration counts only, so the answers
    are deterministic.  A kept factor lives as long as the object: one run.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.hierarchy = _hierarchy(cfg.mesh) if cfg.mesh.n_interior >= MG_DOFS else []
        self.reuse = cfg.mesh.n_interior >= REUSE_DOFS
        self.lu = None  # the kept factor, as the map r -> (its A)^-1 r

    def __call__(self, A, b, guess=None, atol=0.0):
        """The solution of A x = b; guess, if given, is where CG starts from,
        and atol an absolute residual at which CG may stop (see _cg)."""
        if self.hierarchy:
            x, _ = _cg(A, b, self._multigrid(A), guess, atol)
            if x is not None:
                return x
            self.hierarchy = []  # the rest of the run factors
        x = None
        if self.lu is not None:
            x, iterations = _cg(A, b, self.lu, guess, atol)
            if x is None or iterations > REUSE_CG_ITERS:
                self.lu = None
        if x is None:
            lu = partial(_vcycle, [], *self._factor(self.cfg.mesh, A))  # no levels: the LU solve
            x = lu(b)
            if self.reuse:
                self.lu = lu
        return x

    def _factor(self, mesh, A):
        """(lu, perm): perm the nested-dissection ordering of mesh, and lu the
        SuperLU factor of A, a matrix on mesh's _pattern, permuted to it."""
        perm, indptr, indices, gather = assembly.nested_dissection(mesh)
        B = sp.csc_matrix((A.data[gather], indices, indptr), shape=A.shape)
        B.has_canonical_format = True
        try:
            return spla.splu(B, permc_spec="NATURAL"), perm
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

        The map is _vcycle bound to this solve's levels, not a closure that
        calls itself: such a closure sits in a reference cycle, so every
        solve's operators, Jacobi weights and coarse factor would stay alive
        until the cyclic garbage collector ran, instead of being freed as
        soon as the solve drops the map.
        """
        levels, op = [], A
        for P, R, _ in self.hierarchy:
            levels.append((op, _JACOBI_DAMPING / op.diagonal(), P, R))
            op = R @ op @ P
        op.sort_indices()  # then op lies on the coarsest mesh's _pattern
        return partial(_vcycle, levels, *self._factor(self.hierarchy[-1][2], op))


def _vcycle(levels, lu, perm, r):
    """The V(1,1)-cycle applied to r.  levels holds (operator, Jacobi weights,
    P, P^T) per level, finest first; lu factors the coarsest operator on the
    ordering perm."""
    if not levels:
        x = np.empty_like(r)
        x[perm] = lu.solve(r[perm])
        return x
    (op, w, P, R), coarser = levels[0], levels[1:]
    x = w * r
    x += P @ _vcycle(coarser, lu, perm, R @ (r - op @ x))
    x += w * (r - op @ x)
    return x


def _hierarchy(mesh):
    """(P, P^T, parent) for each red refinement from mesh up to the coarsest
    ancestor with an unknown, finest first; [] for a mesh without a parent."""
    out = []
    while mesh.parent is not None and mesh.parent.n_interior > 0:
        P = prolongation(mesh)
        out.append((P, P.T.tocsr(), mesh.parent))
        mesh = mesh.parent
    return out


def _cg(A, b, precond, guess=None, atol=0.0):
    """CG on A x = b preconditioned with the map precond, started at
    x0 = guess + precond(b - A guess), or precond(b) without a guess.

    Returns x and the iteration count; x is None if
    ||b - A x|| < max(_CG_RTOL ||b||, atol) was not reached in _CG_MAXITER
    iterations.  The loop is scipy's ``cg`` step for step (the stop test at
    the top of each iteration, the same updates in the same order, and the
    same rule for rtol and atol), so x and the count are scipy's to the bit.
    """
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return b.copy(), 0
    stop = max(_CG_RTOL * norm_b, atol)
    x = precond(b) if guess is None else guess + precond(b - A @ guess)
    r = b - A @ x
    for iteration in range(_CG_MAXITER):
        if np.linalg.norm(r) < stop:
            return x, iteration
        z = precond(r)
        rho = np.dot(r, z)
        if iteration:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return None, _CG_MAXITER


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

    The least squares problem is solved by modified Gram-Schmidt over the
    differences, newest first, with no LAPACK call: np.linalg.lstsq raised the
    peak memory of a whole implicit run measurably.  A dF whose part orthogonal
    to the newer kept ones is at most _DEPENDENT times the larger of its norm
    and its dG's norm is numerically dependent and gets coefficient 0.  So does
    a zero dF, and one that is rounding noise left by a repeated update while
    the iterates still move: fitting it would give a huge coefficient.
    """

    def __init__(self):
        self.prev = None  # (f, g) of the previous sweep
        self.history = deque(maxlen=ANDERSON_DEPTH)  # (dF, dG), newest first

    def __call__(self, v, g):
        f = g - v
        prev, self.prev = self.prev, (f, g)
        if prev is None:
            return g
        self.history.appendleft((f - prev[0], g - prev[1]))

        # the kept dF are Q^T R, Q with orthonormal rows, R upper triangular
        R = np.zeros((ANDERSON_DEPTH, ANDERSON_DEPTH))
        Q, kept = [], []
        for dF, dG in self.history:
            m = len(Q)
            q = dF.copy()
            for i in range(m):
                R[i, m] = Q[i] @ q
                q -= R[i, m] * Q[i]
            R[m, m] = float(np.linalg.norm(q))
            if R[m, m] > _DEPENDENT * max(np.linalg.norm(dF), np.linalg.norm(dG)):
                Q.append(q / R[m, m])
                kept.append(dG)
        m = len(Q)
        gamma = np.array(Q).reshape(m, f.size) @ f
        for i in reversed(range(m)):
            gamma[i] = (gamma[i] - R[i, i + 1:m] @ gamma[i + 1:]) / R[i, i]
        out = g.copy()
        for coef, dG in zip(gamma, kept):
            out -= coef * dG
        return out


def semi_implicit_step(u_prev, cfg, k, solve=None):
    """One linear step with weight and coefficient lagged at u_prev.

    Returns the new iterate and its StepStats: one iteration, and the
    residual of the linear solve.  solve is the run's _SpdSolver; None gives
    a fresh one.
    """
    if solve is None:
        solve = _SpdSolver(cfg)
    A = _system_matrix(u_prev, cfg)
    b, _ = _step_rhs(u_prev, cfg, k)
    u = FemFunction(cfg.mesh, solve(A, b))
    return u, StepStats(1, float(np.linalg.norm(A @ u.coeffs - b)))


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
    a fresh one), so a factor kept by an earlier sweep or step may
    precondition CG here.  Kacanov's CG starts from the sweep's iterate v_j,
    whose image g_j is close to it near convergence; Newton's from none,
    since its corrections shrink to 0.  From the second sweep on, Kacanov's
    CG may stop at KACANOV_FORCING times the defect ||A(v_j) v_j - b|| that
    the sweep before computed, the residual of CG's guess; the first sweep
    and Newton's tangents solve to 1e-12.  The stop on ||A(v) v - b|| above
    is the same in every case.
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
        atol = 0.0  # the first sweep is the semi-implicit step
        for j in range(1, cfg.max_iter + 1):
            g = solve(_system_matrix(v, cfg), b, v.coeffs, atol)
            v = FemFunction(mesh, mix(v.coeffs, g))
            res = float(np.linalg.norm(_defect(v, b, cfg)))
            history.append(res)
            if res <= tol:
                return v, StepStats(j, res)
            # res is the residual of the next sweep's system at its guess v
            atol = KACANOV_FORCING * res
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


def run_evolution(u0, cfg, *observers):
    """Apply the configured step for k = 1..K from the initial iterate u0,
    and hand each iterate u^0..u^K, as soon as it exists, to every observer
    (a callable taking it) in the order given.  The run keeps no iterate, so
    an observer keeps what it needs.  All linear solves of the run share one
    _SpdSolver, so a factor kept for reuse carries over from step to step.
    """
    if u0.mesh is not cfg.mesh:
        raise ValueError("initial data lives on a different mesh than the config")
    step = semi_implicit_step if cfg.scheme == SEMI_IMPLICIT else implicit_step
    solve = _SpdSolver(cfg)
    u, stats = u0, []
    for observe in observers:
        observe(u)
    for k in range(1, cfg.K + 1):
        try:
            u, st = step(u, cfg, k, solve)
        except SolverError as exc:
            raise SolverError(f"{cfg.scheme} step {k} (t = {k * cfg.tau:g}; p = {cfg.nf.p:g}, "
                              f"eps = {cfg.eps:g}, tau = {cfg.tau:g}) failed: {exc}") from exc
        stats.append(st)
        for observe in observers:
            observe(u)
    return Trajectory(cfg, stats)
