"""Element-wise P1 assembly: mass, weighted stiffness/mass, loads, norms, energies.

P1 gradients are constant per cell, so every gradient-based integral below is
exact.  Mass-type integrals with nonlinear coefficients use the 3-point
edge-midpoint rule, which is exact for quadratic integrands; the error
quadrature uses the 7-point degree-5 rule.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import lower_order
from .mesh import FemFunction
from .orlicz import ADDITIVE_SHIFT, QUADRATIC_NORM, REGULARIZATION_KINDS


class DegenerateWeightError(ValueError):
    """The gradient weight is unbounded on some cell (eps = delta = 0 there)."""


# Values of the three local hats at the three edge midpoints (rows: midpoints
# of edges 01, 12, 20).
_PSI_MID = np.array([[0.5, 0.5, 0.0],
                     [0.0, 0.5, 0.5],
                     [0.5, 0.0, 0.5]])

# Degree-5 rule: barycentric coordinates and weights (normalized to 1).
_S15 = np.sqrt(15.0)
_A1 = (6.0 - _S15) / 21.0
_A2 = (6.0 + _S15) / 21.0
_QUAD7_BARY = np.array(
    [[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
     [_A1, _A1, 1.0 - 2.0 * _A1], [_A1, 1.0 - 2.0 * _A1, _A1], [1.0 - 2.0 * _A1, _A1, _A1],
     [_A2, _A2, 1.0 - 2.0 * _A2], [_A2, 1.0 - 2.0 * _A2, _A2], [1.0 - 2.0 * _A2, _A2, _A2]])
_QUAD7_W = np.array([9.0 / 40.0]
                    + [(155.0 - _S15) / 1200.0] * 3
                    + [(155.0 + _S15) / 1200.0] * 3)


def _assemble(mesh, element_blocks, full):
    """Scatter (M, 3, 3) element blocks into a CSR matrix."""
    key = "asm_index"
    if key not in mesh._cache:
        rows = np.repeat(mesh.cells, 3, axis=1).ravel()
        cols = np.tile(mesh.cells, (1, 3)).ravel()
        mesh._cache[key] = (rows, cols)
    rows, cols = mesh._cache[key]
    mat = sp.csr_matrix((element_blocks.ravel(), (rows, cols)),
                        shape=(mesh.n_nodes, mesh.n_nodes))
    if full:
        return mat
    free = mesh.interior
    return mat[free][:, free].tocsr()


def mass_matrix(mesh, full=False):
    """Consistent P1 mass matrix; element block (area/12) [[2,1,1],[1,2,1],[1,1,2]]."""
    key = ("mass", full)
    if key not in mesh._cache:
        base = (np.ones((3, 3)) + np.eye(3)) / 12.0
        blocks = mesh.areas[:, None, None] * base
        mesh._cache[key] = _assemble(mesh, blocks, full)
    return mesh._cache[key]


def stiffness_matrix(mesh, full=False):
    """Unweighted Laplace stiffness matrix."""
    key = ("stiffness", full)
    if key not in mesh._cache:
        grads = mesh.hat_gradients()
        blocks = mesh.areas[:, None, None] * np.einsum("mid,mjd->mij", grads, grads)
        mesh._cache[key] = _assemble(mesh, blocks, full)
    return mesh._cache[key]


def gradients(u):
    """Per-cell constant gradient of a nodal function, (M, 2)."""
    full = u.full_values()
    grads = u.mesh.hat_gradients()
    return np.einsum("mi,mid->md", full[u.mesh.cells], grads)


def gradient_weight(nf, eps, kind, t):
    """Diffusion weight at gradient magnitude t for the chosen regularization.

    additive-shift: (delta + eps + t)^(p-2);  quadratic-norm: (t^2+eps^2)^((p-2)/2).
    Raises DegenerateWeightError where the weight is unbounded.
    """
    if kind not in REGULARIZATION_KINDS:
        raise ValueError(f"unknown regularization kind {kind!r}")
    t = np.asarray(t, dtype=float)
    if kind == QUADRATIC_NORM:
        if nf.delta != 0.0:
            raise ValueError("quadratic-norm regularization requires delta = 0")
        base = t * t + eps * eps
        exponent = (nf.p - 2.0) / 2.0
    else:
        base = nf.delta + eps + t
        exponent = nf.p - 2.0
    if nf.p == 2.0:
        return np.ones_like(base)
    if np.any(base == 0.0):
        raise DegenerateWeightError(
            "unbounded diffusion weight: zero gradient with eps = delta = 0")
    return base**exponent


def weighted_stiffness(mesh, w, nf, eps, kind=ADDITIVE_SHIFT, full=False):
    """Stiffness matrix with the per-cell weight evaluated at |grad w|.

    Exact for P1: the weight is constant on every cell.
    """
    gn = np.sqrt(np.sum(gradients(w) ** 2, axis=1))
    omega = gradient_weight(nf, eps, kind, gn)
    grads = mesh.hat_gradients()
    blocks = (mesh.areas * omega)[:, None, None] * np.einsum("mid,mjd->mij", grads, grads)
    return _assemble(mesh, blocks, full)


def jacobian_stiffness(mesh, w, nf, eps, kind=ADDITIVE_SHIFT, full=False):
    """Tangent of the weighted diffusion term at w, for Newton's method.

    Per cell the tangent tensor is omega(t) I + (omega'(t)/t) g g^T with
    g = grad w and t = |g|; both terms are positive definite for p in (1, 2].
    """
    g = gradients(w)
    t = np.sqrt(np.sum(g * g, axis=1))
    omega = gradient_weight(nf, eps, kind, t)
    if nf.p == 2.0:
        coef = np.zeros_like(t)
    elif kind == QUADRATIC_NORM:
        coef = (nf.p - 2.0) * (t * t + eps * eps) ** ((nf.p - 4.0) / 2.0)
    else:
        base = nf.delta + eps + t
        # omega'(t)/t with the t -> 0 limit (the rank-one part vanishes there)
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = np.where(t > 0.0, (nf.p - 2.0) * base ** (nf.p - 3.0) / np.where(t > 0, t, 1.0), 0.0)
    grads = mesh.hat_gradients()
    gg = np.einsum("md,me->mde", g, g)
    tensor = omega[:, None, None] * np.eye(2) + coef[:, None, None] * gg
    blocks = mesh.areas[:, None, None] * np.einsum("mid,mde,mje->mij", grads, tensor, grads)
    return _assemble(mesh, blocks, full)


def midpoint_coords(mesh):
    """Physical coordinates of the edge midpoints per cell, (M, 3, 2)."""
    key = "midpoint_coords"
    if key not in mesh._cache:
        v = mesh.nodes[mesh.cells]
        mesh._cache[key] = np.einsum("qi,mid->mqd", _PSI_MID, v)
    return mesh._cache[key]


def values_at_midpoints(u):
    """Values of a nodal function at the edge midpoints, (M, 3)."""
    full = u.full_values()
    return np.einsum("qi,mi->mq", _PSI_MID, full[u.mesh.cells])


def midpoint_mass(mesh, qvals, full=False):
    """Mass-type matrix with coefficient values qvals (M, 3) at the edge midpoints."""
    outer = np.einsum("qi,qj->qij", _PSI_MID, _PSI_MID)
    blocks = (mesh.areas / 3.0)[:, None, None] * np.einsum("mq,qij->mij", qvals, outer)
    return _assemble(mesh, blocks, full)


def weighted_mass(mesh, w, coeff, full=False):
    """Mass matrix with coefficient d(w), 3-point edge-midpoint quadrature."""
    if coeff.is_zero:
        n = mesh.n_nodes if full else mesh.n_interior
        return sp.csr_matrix((n, n))
    return midpoint_mass(mesh, lower_order.d_eval(coeff, values_at_midpoints(w)), full)


def load_vector(mesh, f, t=0.0, full=False):
    """Load vector of an analytic source f(x, y, t), midpoint quadrature."""
    xq = midpoint_coords(mesh)
    fq = np.asarray(f(xq[..., 0], xq[..., 1], t), dtype=float)
    fq = np.broadcast_to(fq, xq.shape[:2])
    contrib = (mesh.areas / 3.0)[:, None] * np.einsum("mq,qi->mi", fq, _PSI_MID)
    vec = np.zeros(mesh.n_nodes)
    np.add.at(vec, mesh.cells.ravel(), contrib.ravel())
    if full:
        return vec
    return vec[mesh.interior]


def quadrature_norm_sq(mesh, f, t=0.0):
    """||f(., t)||_L2^2 by the same midpoint rule the load vector uses."""
    xq = midpoint_coords(mesh)
    fq = np.asarray(f(xq[..., 0], xq[..., 1], t), dtype=float)
    fq = np.broadcast_to(fq, xq.shape[:2])
    return float(np.sum((mesh.areas / 3.0)[:, None] * fq * fq))


def energy(u, nf, eps, kind):
    """Regularized gradient energy, exact cellwise.

    quadratic-norm: (1/p) sum area (|grad u|^2 + eps^2)^(p/2)
    additive-shift: sum area phi_eps(|grad u|)
    """
    if kind not in REGULARIZATION_KINDS:
        raise ValueError(f"unknown regularization kind {kind!r}")
    gn = np.sqrt(np.sum(gradients(u) ** 2, axis=1))
    if kind == QUADRATIC_NORM:
        if nf.delta != 0.0:
            raise ValueError("quadratic-norm regularization requires delta = 0")
        vals = (gn * gn + eps * eps) ** (nf.p / 2.0) / nf.p
    else:
        vals = nf.shifted(eps).phi(gn)
    return float(np.sum(u.mesh.areas * vals))


def norm_L2(u):
    """Exact L2 norm via the consistent mass matrix."""
    m = mass_matrix(u.mesh)
    return float(np.sqrt(u.coeffs @ (m @ u.coeffs)))


def seminorm_W1p(u, p):
    """Exact W^{1,p} seminorm: (sum area |grad u|^p)^(1/p)."""
    gn = np.sqrt(np.sum(gradients(u) ** 2, axis=1))
    return float(np.sum(u.mesh.areas * gn**p) ** (1.0 / p))


def l2_error(u, exact, t=None):
    """||u - exact||_L2 with the 7-point degree-5 rule; exact = exact(x, y[, t])."""
    mesh = u.mesh
    v = mesh.nodes[mesh.cells]
    xq = np.einsum("qi,mid->mqd", _QUAD7_BARY, v)
    uq = np.einsum("qi,mi->mq", _QUAD7_BARY, u.full_values()[mesh.cells])
    if t is None:
        eq = np.asarray(exact(xq[..., 0], xq[..., 1]), dtype=float)
    else:
        eq = np.asarray(exact(xq[..., 0], xq[..., 1], t), dtype=float)
    diff2 = (uq - eq) ** 2
    return float(np.sqrt(np.sum(mesh.areas[:, None] * _QUAD7_W * diff2)))
