"""Element-wise P1 assembly: mass, weighted stiffness/mass, loads, norms, energies.

P1 gradients are constant per cell, so every gradient-based integral below is
exact.  Mass-type integrals with nonlinear coefficients use the 3-point
edge-midpoint rule, which is exact for quadratic integrands.

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

The energy and the norms at the end are the per-iterate quantities of a run;
``diagnostics.Walk`` folds them over its iterates, so each is computed once
per iterate.  The energy density is ``orlicz.energy_density``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import lower_order
from .mesh import EDGE_ENDS, FemFunction, per_mesh
from .orlicz import diffusion_weight, energy_density, vnorm, weight_slope


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

    scipy converts the entries to CSR with each entry's id as its value: dof
    i's diagonal is id i, and the k-th of the K interior edges, lo < hi in
    dof numbers, is id n + k as (lo, hi) and n + K + k as (hi, lo).  The
    converted data say where each id went; the cells' slots are looked up
    per edge through mesh.cell_edges.
    """
    n = mesh.n_interior
    number = mesh.dof_numbers()
    dof = number[mesh.cells]
    lo, hi = np.sort(number[mesh.edges], axis=1).astype(np.int32).T
    inner = hi < n  # a boundary edge ends at the sentinel n
    dofs, lo_in, hi_in = np.arange(n, dtype=np.int32), lo[inner], hi[inner]
    k = lo_in.size
    ids = np.arange(n + 2 * k, dtype=np.int32)
    csr = sp.csr_matrix((ids, (np.concatenate([dofs, lo_in, hi_in]),
                               np.concatenate([dofs, hi_in, lo_in]))), shape=(n, n))
    csr.sum_duplicates()  # sorts each row's columns; no two ids share an entry
    nnz = ids.size
    at = np.empty(nnz, dtype=np.int32)  # at[id] is the slot of entry id
    at[csr.data] = ids
    diag = np.append(at[:n], nnz)  # and the trash slot for the boundary sentinel
    up, down = np.full(len(mesh.edges), nnz), np.full(len(mesh.edges), nnz)
    up[inner], down[inner] = at[n:n + k], at[n + k:]

    edge = mesh.cell_edges
    slot = np.empty((mesh.n_cells, 3, 3), dtype=np.int32)
    for i in range(3):
        slot[:, i, i] = diag[dof[:, i]]
    for e, (i, j) in enumerate(EDGE_ENDS):
        forward = dof[:, i] < dof[:, j]  # entry (i, j) lies above the diagonal
        slot[:, i, j] = np.where(forward, up[edge[:, e]], down[edge[:, e]])
        slot[:, j, i] = np.where(forward, down[edge[:, e]], up[edge[:, e]])
    indptr, indices = csr.indptr, csr.indices
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


def _dissect(xy, nodes, row, col, group):
    """The dofs nodes in nested-dissection order.

    xy holds every dof's coordinates, row, col both directions of each edge
    between two of the nodes, and group int8 scratch, one per dof.  A part of
    more than _ND_LEAF dofs is cut at the lower median of its coordinates
    along its longer extent, x on a tie.  Its lower half less the separator
    (the lower-half dofs with an upper-half neighbour) comes first, then its
    upper half, each ordered by a call on its dofs and edges, then the separator.
    Separators and parts that are small or cannot be cut keep nodes' order.
    """
    if nodes.size <= _ND_LEAF:
        return nodes
    pts = xy[nodes]
    c = pts[:, np.argmax(np.ptp(pts, axis=0))]
    k = (c.size - 1) // 2
    med = np.partition(c, k)[k]
    lower = c <= med
    if lower.all():
        lower = c < med
    if not lower.any():
        return nodes
    group[nodes] = ~lower  # 0 lower, 1 upper, then 2 separator
    group[row[group.take(row) < group.take(col)]] = 2
    label, g_row, g_col = group.take(nodes), group.take(row), group.take(col)
    parts = []
    for g in (0, 1):
        inside = (g_row == g) & (g_col == g)
        parts.append(_dissect(xy, nodes[label == g], row[inside], col[inside], group))
    return np.concatenate(parts + [nodes[label == 2]])


@per_mesh
def nested_dissection(mesh):
    """Fill-reducing ordering of the interior dofs and the CSC pattern of P A P^T.

    Returns (perm, indptr, indices, gather), built once per mesh, since every
    matrix on the mesh shares one pattern: perm[k] is the dof in position k,
    and for every matrix A on _pattern(mesh) the permuted matrix
    B[k, l] = A[perm[k], perm[l]] is csc_matrix((A.data[gather], indices,
    indptr)).  scipy converts the pattern's entries, each with its position
    in A as its value, to CSC in the new numbering, without sparse fancy
    indexing, which would hold copies of whole matrices.
    """
    indptr_a, indices_a, _ = _pattern(mesh)
    n = indptr_a.size - 1
    row = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr_a))
    off = row != indices_a
    perm = _dissect(mesh.nodes[mesh.interior], np.arange(n), row[off], indices_a[off],
                    np.empty(n, dtype=np.int8))
    inv = np.empty(n, dtype=np.int32)
    inv[perm] = np.arange(n, dtype=np.int32)
    csc = sp.csc_matrix((np.arange(indices_a.size, dtype=np.int32), (inv[row], inv[indices_a])),
                        shape=(n, n))
    csc.sum_duplicates()
    indptr, indices, gather = csc.indptr, csc.indices, csc.data
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

    Per cell the tangent tensor is omega(t) I + coef g g^T, g = grad w, t = |g|,
    coef = omega'(t)/t; its eigenvalues omega and omega + coef t^2 >= (p-1) omega
    are positive for p in (1, 2].
    """
    g = gradients(w)
    t = vnorm(g)
    omega = diffusion_weight(nf, eps, kind, t)
    coef = weight_slope(nf, eps, kind, t, omega)
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
    return 0.5 * (v[:, EDGE_ENDS[:, 0]] + v[:, EDGE_ENDS[:, 1]])


@per_mesh
def _midpoint_operator(mesh):
    """P, the 3M x (N_int + 1) CSR operator of the values at the edge midpoints.

    Row 3 m + q holds 1/2 in the columns of the two ends of cell m's edge q.
    """
    m = mesh.n_cells
    cols = _cell_dofs(mesh)[:, EDGE_ENDS]  # (M, 3, 2)
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
    a, b = EDGE_ENDS[:, 0], EDGE_ENDS[:, 1]
    rows = np.stack([blocks[:, a, a], blocks[:, a, b], blocks[:, b, a], blocks[:, b, b]],
                    axis=-1)  # (M, 3, 4)
    indptr = np.arange(0, 12 * m + 1, 4, dtype=np.int32)
    return sp.csc_matrix((np.repeat(mesh.areas / 12.0, 12), rows.reshape(-1), indptr),
                         shape=(indices.size + 1, 3 * m))


def midpoint_mass(mesh, qvals):
    """Mass-type matrix with coefficient values qvals (M, 3) at the edge midpoints."""
    return _on_pattern(mesh, _midpoint_mass_operator(mesh) @ qvals.reshape(-1))


def weighted_mass(mesh, w, coeff):
    """Mass matrix with coefficient d(w), 3-point edge-midpoint quadrature;
    coeff is not the zero coefficient."""
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
    """Regularized gradient energy sum area energy_density(|grad u|), exact cellwise.

    grads, if given, are u's cell gradients, gradients(u), already computed.
    """
    gn = vnorm(gradients(u) if grads is None else grads)
    return float(np.sum(u.mesh.areas * energy_density(nf, eps, kind, gn)))


def norm_L2(u):
    """Exact L2 norm via the consistent mass matrix."""
    m = mass_matrix(u.mesh)
    return float(np.sqrt(u.coeffs @ (m @ u.coeffs)))


def seminorm_W1p(u, p, grads=None):
    """Exact W^{1,p} seminorm: (sum area |grad u|^p)^(1/p); grads as for energy."""
    gn = vnorm(gradients(u) if grads is None else grads)
    return float(np.sum(u.mesh.areas * gn**p) ** (1.0 / p))
