"""Element-wise P1 assembly: mass, weighted stiffness/mass, loads, norms, energies.

P1 gradients are constant per cell, so every gradient-based integral below is
exact.  Mass-type integrals with nonlinear coefficients use the 3-point
edge-midpoint rule, which is exact for quadratic integrands; the error
quadrature uses the 7-point degree-5 rule.

The kernels that run once per nonlinear sweep are sparse matrix-vector
products with operators built once per mesh through ``mesh.per_mesh``, so a
call does arithmetic only.  Interior coefficients are extended by one trailing
zero, which the boundary vertices of a cell read:

- G, 2M x (N_int + 1): cell gradients, ``(G @ [u, 0]).reshape(M, 2)``; its
  data are ``mesh.hat_gradients()``'s storage;
- P, 3M x (N_int + 1): values at the edge midpoints, ``(P @ [u, 0])``;
- S, (nnz + 1) x M: the weighted stiffness data ``S @ omega``, one column of
  cached element stiffness blocks per cell;
- Q, (nnz + 1) x 3M: the midpoint-rule mass data ``Q @ qvals``.

S and Q are CSC matrices whose row indices are the slots of ``_pattern``, so
their products sum into the shared CSR pattern in cell order, exactly as
``_assemble`` does for any other stack of element blocks.  Transposed, P gives
the load vector.  P is only built on meshes whose run has a source or a
lower-order term, and Q on those with a lower-order term.

The energy and the norms at the end are the per-iterate quantities of a
trajectory; ``diagnostics`` evaluates them in one walk over its iterates, so
each is computed once per iterate.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import lower_order
from .mesh import FemFunction, _edge_keys, per_mesh
# DegenerateWeightError is re-exported: callers of the assemblers catch it here.
from .orlicz import (QUADRATIC_NORM, REGULARIZATION_KINDS, DegenerateWeightError,  # noqa: F401
                     diffusion_weight, vnorm)


# Local vertices at the ends of edges 01, 12, 20; the edge midpoints are
# numbered in this order.
_EDGE_ENDS = np.array([[0, 1], [1, 2], [2, 0]])

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


@per_mesh
def _pattern(mesh):
    """CSR pattern shared by every P1 matrix on mesh, and where each local entry goes.

    The matrices act on the interior nodes, numbered as in mesh.interior.  The
    pattern is the diagonal plus both directions of every interior edge, with
    sorted column indices and no duplicates.  Returns (indptr, indices, slot):
    entry (m, i, j) of an (M, 3, 3) stack of element blocks adds into data
    slot slot[9 m + 3 i + j]; entries in a boundary row or column all go to
    the one "trash" slot nnz past the end.  slot is, unchanged and uncopied,
    the row index array of every CSC operator that sums element blocks (S of
    weighted_stiffness, and _assemble's); Q of midpoint_mass gathers its row
    indices from it.

    One np.unique numbers the edges of every cell by their keys
    lo (n + 1) + hi in dof numbers, the boundary sentinel n included, so
    edges sort by (lo, hi) and are interior where hi < n.  Row r holds, in
    column order, the lower ends of the interior edges whose higher end is r,
    the diagonal, then the higher ends of those whose lower end is r.  The
    latter are consecutive and ascending in key order; a stable sort by the
    higher end lists the former the same way.  So the per-row counts below
    and above the diagonal place every entry, and the slots are looked up
    per edge, with no search.  The keys are formed from the int64 dof
    numbers: at n = 65025 they overflow int32.
    """
    n = mesh.n_interior
    dof = mesh.dof_numbers()[mesh.cells]
    keys, edge = np.unique(_edge_keys(dof, n + 1).ravel(), return_inverse=True)
    lo, hi = np.divmod(keys, n + 1)
    inner = hi < n
    lo, hi = lo[inner], hi[inner]
    below, above = np.bincount(hi, minlength=n), np.bincount(lo, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(below + 1 + above, out=indptr[1:])
    nnz = int(indptr[-1])
    # entry position per dof (diagonal) and per edge, the trash slot for the
    # boundary sentinel and for edges with a boundary end
    diag = np.append(indptr[:-1] + below, nnz)
    up, down = np.full(keys.size, nnz), np.full(keys.size, nnz)
    rank = np.arange(lo.size)
    up[inner] = diag[lo] + 1 + rank - (np.cumsum(above) - above)[lo]
    order = np.argsort(hi, kind="stable")
    ends = hi[order]
    down[np.flatnonzero(inner)[order]] = indptr[ends] + rank - (np.cumsum(below) - below)[ends]

    indices = np.empty(nnz, dtype=np.int32)
    indices[diag[:-1]] = np.arange(n)
    indices[up[inner]] = hi
    indices[down[inner]] = lo

    edge = edge.reshape(-1, 3)
    slot = np.empty((mesh.n_cells, 3, 3), dtype=np.int32)
    for i in range(3):
        slot[:, i, i] = diag[dof[:, i]]
    for e, (i, j) in enumerate(_EDGE_ENDS):
        forward = dof[:, i] < dof[:, j]  # entry (i, j) lies above the diagonal
        slot[:, i, j] = np.where(forward, up[edge[:, e]], down[edge[:, e]])
        slot[:, j, i] = np.where(forward, down[edge[:, e]], up[edge[:, e]])
    for shared in (indptr, indices, slot):
        shared.flags.writeable = False  # every matrix on the mesh holds these
    return indptr, indices, slot.reshape(-1)


def _block_sum_operator(mesh, element_blocks):
    """The (nnz + 1) x M CSC operator whose column m adds cell m's block into its slots.

    Its row indices are _pattern's slot array itself and its data the (M, 3,
    3) blocks, flattened without a copy where they are contiguous.  Its
    product with a vector of cell weights omega is the data, trash slot last,
    of the matrix with element blocks omega_m * block_m: the sums run over the
    cells in order, and in each cell over its 9 entries in order.
    """
    _, indices, slot = _pattern(mesh)
    m = mesh.n_cells
    indptr = np.arange(0, 9 * m + 1, 9, dtype=np.int32)
    return sp.csc_matrix((element_blocks.reshape(-1), slot, indptr),
                         shape=(indices.size + 1, m))


def _on_pattern(mesh, data):
    """CSR matrix on the mesh's shared pattern whose data are data[:nnz]."""
    indptr, indices, _ = _pattern(mesh)
    mat = sp.csr_matrix((data[:indices.size], indices, indptr), shape=(indptr.size - 1,) * 2)
    mat.has_canonical_format = True
    return mat


def _assemble(mesh, element_blocks):
    """Sum (M, 3, 3) element blocks into a CSR matrix on the mesh's shared pattern.

    The one summation of element blocks: the block-sum operator applied to
    unit cell weights, which scale no entry, so the sum is the one that
    weighted_stiffness's cached operator S forms with the weights omega.
    """
    return _on_pattern(mesh, _block_sum_operator(mesh, element_blocks) @ np.ones(mesh.n_cells))


# Parts of at most this many dofs are not bisected further.
_ND_LEAF = 32


def _dissect(xy, row, col):
    """Nested-dissection order of the dofs at coordinates xy: perm[k] is the dof in position k.

    row, col hold every off-diagonal pattern edge once.  A part is cut at the
    coordinate median along its longer extent; the separator is the set of
    lower-half nodes with a neighbour in the upper half.  The lower half
    without it and the upper half are ordered first, the separator last.
    Parts of at most _ND_LEAF dofs, and parts that cannot be cut, keep their
    dofs in increasing order, as does every separator.

    All parts of one level of the dissection are cut at once: the active dofs
    lie grouped by part, in increasing order within a part, and one lexsort
    by (part, coordinate) gives every part's median.  Each part knows its
    first position in perm, so a separator or leaf is written there as soon
    as it is found.
    """
    n = xy.shape[0]
    perm = np.empty(n, dtype=np.int64)
    nodes = np.arange(n, dtype=np.int32)  # the dofs not yet placed
    part = np.zeros(n, dtype=np.int32)  # part of each, nondecreasing
    start = np.zeros(1, dtype=np.int32)  # first position in perm of each part
    group = np.empty(n, dtype=np.int8)  # per dof: 0 lower, 1 upper, 2 separator, 3 leaf
    while nodes.size:
        size = np.bincount(part)
        first = np.cumsum(size) - size
        pts = xy[nodes]
        extent = np.maximum.reduceat(pts, first) - np.minimum.reduceat(pts, first)
        along = (extent[:, 1] > extent[:, 0])[part]
        c = np.where(along, pts[:, 1], pts[:, 0])
        med = c[np.lexsort((c, part))[first + (size - 1) // 2]]
        lower = c <= med[part]
        strict = (np.bincount(part, weights=lower) == size)[part]
        lower[strict] = c[strict] < med[part[strict]]
        leaf = ((size <= _ND_LEAF) | (np.bincount(part, weights=lower) == 0))[part]

        group[nodes] = np.where(leaf, 3, np.where(lower, 0, 1))
        g_row, g_col = group.take(row), group.take(col)
        group[np.where(g_row == 0, row, col)[g_row + g_col == 1]] = 2
        g = group[nodes].astype(np.int32)
        # position of every dof: its part's start, plus the sizes of the groups
        # ordered before its own, plus its rank within its group
        key = 4 * part + g
        order = np.argsort(key, kind="stable")
        nodes, part, g, key = nodes[order], part[order], g[order], key[order]
        count = np.bincount(key, minlength=4 * size.size).reshape(-1, 4)
        before = np.cumsum(count, axis=1) - count
        before[:, 3] = 0
        seg = np.cumsum(count.reshape(-1)) - count.reshape(-1)
        pos = start[part] + before[part, g] + np.arange(nodes.size) - seg[key]
        placed = g >= 2
        perm[pos[placed]] = nodes[placed]

        g_row = group.take(row)
        inside = (g_row == group.take(col)) & (g_row < 2)
        row, col = row[inside], col[inside]
        nodes, key, pos = nodes[~placed], key[~placed], pos[~placed]
        new = np.diff(key, prepend=-1) != 0  # first dof of each part
        part = np.cumsum(new, dtype=np.int32) - 1
        start = pos[new]
    return perm


@per_mesh
def nested_dissection(mesh):
    """Fill-reducing ordering of the interior dofs and the CSC pattern of P A P^T.

    Returns (perm, indptr, indices, gather), built once per mesh: perm[k]
    is the dof in position k, and for every matrix A on _pattern(mesh) the
    permuted matrix B[k, l] = A[perm[k], perm[l]] is
    csc_matrix((A.data[gather], indices, indptr)).  Every matrix on the mesh
    shares one pattern, so the ordering is computed once per mesh instead of
    once per factorization.  The permuted pattern is built from _pattern
    with integer arrays, without sparse fancy indexing, which would hold
    copies of whole matrices.
    """
    indptr_a, indices_a, _ = _pattern(mesh)
    n = indptr_a.size - 1
    row = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr_a))
    upper = row < indices_a
    perm = _dissect(mesh.nodes[mesh.interior], row[upper], indices_a[upper])
    inv = np.empty(n, dtype=np.int32)
    inv[perm] = np.arange(n, dtype=np.int32)
    new_col = inv[indices_a]
    gather = np.argsort(new_col.astype(np.int64) * n + inv[row]).astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(new_col, minlength=n), out=indptr[1:])
    indices = inv[row[gather]]
    for shared in (perm, indptr, indices, gather):
        shared.flags.writeable = False
    return perm, indptr, indices, gather


@per_mesh
def _stiffness_blocks(mesh):
    """Unweighted element stiffness blocks area * grad phi_i . grad phi_j, (M, 3, 3).

    They are the data of weighted_stiffness's operator S, which holds no copy.
    """
    grads = mesh.hat_gradients()
    blocks = np.einsum("mid,mjd->mij", grads, grads)
    blocks *= mesh.areas[:, None, None]
    blocks.flags.writeable = False
    return blocks


@per_mesh
def mass_matrix(mesh):
    """Consistent P1 mass matrix; element block (area/12) [[2,1,1],[1,2,1],[1,1,2]]."""
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    return _assemble(mesh, mesh.areas[:, None, None] * base)


def _cell_dofs(mesh):
    """Dof numbers of every cell's vertices as int32, (M, 3); boundary vertices get N_int."""
    return mesh.dof_numbers().astype(np.int32)[mesh.cells]


def _extended(u):
    """Interior coefficients of u and the trailing zero that boundary vertices read."""
    return np.append(u.coeffs, 0.0)


@per_mesh
def _gradient_operator(mesh):
    """G, the 2M x (N_int + 1) CSR operator of the cell gradients.

    Row 2 m + d holds component d of the gradients of cell m's three hats,
    in the columns of its vertices.  Its data are the hat_gradients storage.
    """
    m = mesh.n_cells
    storage = mesh.hat_gradients().transpose(0, 2, 1)  # (M, 2, 3), C-contiguous
    cols = np.repeat(_cell_dofs(mesh)[:, None, :], 2, axis=1)
    indptr = np.arange(0, 6 * m + 1, 3, dtype=np.int32)
    return sp.csr_matrix((storage.reshape(-1), cols.reshape(-1), indptr),
                         shape=(2 * m, mesh.n_interior + 1))


def gradients(u):
    """Per-cell constant gradient of a nodal function, (M, 2)."""
    return (_gradient_operator(u.mesh) @ _extended(u)).reshape(-1, 2)


@per_mesh
def _stiffness_operator(mesh):
    """S, the block-sum operator of the unweighted element stiffness blocks."""
    return _block_sum_operator(mesh, _stiffness_blocks(mesh))


def weighted_stiffness(mesh, w, nf, eps, kind):
    """Stiffness matrix with the per-cell weight evaluated at |grad w|.

    Exact for P1: the weight is constant on every cell.
    """
    omega = diffusion_weight(nf, eps, kind, vnorm(gradients(w)))
    return _on_pattern(mesh, _stiffness_operator(mesh) @ omega)


def jacobian_stiffness(mesh, w, nf, eps, kind):
    """Tangent of the weighted diffusion term at w, for Newton's method.

    Per cell the tangent tensor is omega(t) I + (omega'(t)/t) g g^T with
    g = grad w and t = |g|; both terms are positive definite for p in (1, 2].
    """
    g = gradients(w)
    t = vnorm(g)
    omega = diffusion_weight(nf, eps, kind, t)
    # omega'(t)/t from omega = base^e itself; the additive form's t -> 0 limit is 0
    if nf.p == 2.0:
        coef = np.zeros_like(t)
    elif kind == QUADRATIC_NORM:
        coef = (nf.p - 2.0) * omega / (t * t + eps * eps)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = np.where(t > 0.0, (nf.p - 2.0) * omega / ((nf.delta + eps + t) * t), 0.0)
    # area grad phi_i . tensor grad phi_j = omega (stiffness block) + area coef s_i s_j
    grads = mesh.hat_gradients()
    s = grads[:, :, 0] * g[:, 0, None] + grads[:, :, 1] * g[:, 1, None]  # grad phi_i . g
    blocks = omega[:, None, None] * _stiffness_blocks(mesh)
    blocks += (mesh.areas * coef)[:, None, None] * (s[:, :, None] * s[:, None, :])
    return _assemble(mesh, blocks)


@per_mesh
def midpoint_coords(mesh):
    """Physical coordinates of the edge midpoints per cell, (M, 3, 2)."""
    v = mesh.nodes[mesh.cells]
    return 0.5 * (v[:, _EDGE_ENDS[:, 0]] + v[:, _EDGE_ENDS[:, 1]])


@per_mesh
def _midpoint_operator(mesh):
    """P, the 3M x (N_int + 1) CSR operator of the values at the edge midpoints.

    Row 3 m + q holds 1/2 in the columns of the two ends of cell m's edge q.
    """
    m = mesh.n_cells
    cols = _cell_dofs(mesh)[:, _EDGE_ENDS]  # (M, 3, 2)
    indptr = np.arange(0, 6 * m + 1, 2, dtype=np.int32)
    return sp.csr_matrix((np.full(6 * m, 0.5), cols.reshape(-1), indptr),
                         shape=(3 * m, mesh.n_interior + 1))


def values_at_midpoints(u):
    """Values of a nodal function at the edge midpoints, (M, 3)."""
    return (_midpoint_operator(u.mesh) @ _extended(u)).reshape(-1, 3)


@per_mesh
def _midpoint_mass_operator(mesh):
    """Q, the (nnz + 1) x 3M CSC operator of the midpoint-rule mass data.

    At the midpoint of edge (a, b) the hats psi_a and psi_b are 1/2 and the
    third is 0, so column 3 m + q adds area_m / 12 times its coefficient into
    the slots of the block entries (a, a), (a, b), (b, a), (b, b) of cell m.
    """
    _, indices, slot = _pattern(mesh)
    m = mesh.n_cells
    blocks = slot.reshape(m, 3, 3)
    a, b = _EDGE_ENDS[:, 0], _EDGE_ENDS[:, 1]
    rows = np.stack([blocks[:, a, a], blocks[:, a, b], blocks[:, b, a], blocks[:, b, b]],
                    axis=-1)  # (M, 3, 4)
    indptr = np.arange(0, 12 * m + 1, 4, dtype=np.int32)
    return sp.csc_matrix((np.repeat(mesh.areas / 12.0, 12), rows.reshape(-1), indptr),
                         shape=(indices.size + 1, 3 * m))


def midpoint_mass(mesh, qvals):
    """Mass-type matrix with coefficient values qvals (M, 3) at the edge midpoints."""
    return _on_pattern(mesh, _midpoint_mass_operator(mesh) @ qvals.reshape(-1))


def weighted_mass(mesh, w, coeff):
    """Mass matrix with coefficient d(w), 3-point edge-midpoint quadrature."""
    if coeff.is_zero:
        return sp.csr_matrix((mesh.n_interior, mesh.n_interior))
    return midpoint_mass(mesh, lower_order.d_eval(coeff, values_at_midpoints(w)))


def _source_at_midpoints(mesh, f, t):
    """f(., t) at the edge midpoints per cell, (M, 3)."""
    xq = midpoint_coords(mesh)
    return np.broadcast_to(np.asarray(f(xq[..., 0], xq[..., 1], t), dtype=float), xq.shape[:2])


def load_vector(mesh, f, t=0.0):
    """Load vector of an analytic source f(x, y, t), midpoint quadrature."""
    fq = _source_at_midpoints(mesh, f, t)
    return (_midpoint_operator(mesh).T @ ((mesh.areas / 3.0)[:, None] * fq).reshape(-1))[:-1]


def quadrature_norm_sq(mesh, f, t=0.0):
    """||f(., t)||_L2^2 by the same midpoint rule the load vector uses."""
    fq = _source_at_midpoints(mesh, f, t)
    return float(np.sum((mesh.areas / 3.0)[:, None] * fq * fq))


def energy(u, nf, eps, kind, grads=None):
    """Regularized gradient energy, exact cellwise.

    quadratic-norm: (1/p) sum area (|grad u|^2 + eps^2)^(p/2)
    additive-shift: sum area phi_eps(|grad u|)

    grads, if given, are u's cell gradients, gradients(u), already computed.
    """
    if kind not in REGULARIZATION_KINDS:
        raise ValueError(f"unknown regularization kind {kind!r}")
    gn = vnorm(gradients(u) if grads is None else grads)
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


def seminorm_W1p(u, p, grads=None):
    """Exact W^{1,p} seminorm: (sum area |grad u|^p)^(1/p); grads as for energy."""
    gn = vnorm(gradients(u) if grads is None else grads)
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
