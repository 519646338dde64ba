"""Independent reference implementations used as test oracles.

The finite element oracles share no code with the package: assembly is dense
with explicit Python loops and analytic element formulas, systems are solved
with numpy.linalg.solve.  Deliberately slow and simple.

The einsum/bincount kernels and the midpoint prolongation at the end sum
exactly as the package's cached sparse operators do, and pin that those
change no bit.

The lemma certification and energy ledger oracles are the package's earlier
versions on its own kernels: every check on arrays of all samples at once,
and the gradients and weights of all iterates held at once.  They pin that
the memory-lean versions change no bit.
"""

from dataclasses import replace

import numpy as np

from plapflow import assembly, diagnostics, lower_order, orlicz
from plapflow.lower_order import IMPLICIT
from plapflow.orlicz import CheckResult
from plapflow.schemes import KACANOV, implicit_step, semi_implicit_step

def dense_mass(nodes, cells):
    n = len(nodes)
    M = np.zeros((n, n))
    base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    for tri in cells:
        area = _cell_area(nodes, tri)
        for i in range(3):
            for j in range(3):
                M[tri[i], tri[j]] += area * base[i, j]
    return M


def _cell_area(nodes, tri):
    p0, p1, p2 = nodes[tri[0]], nodes[tri[1]], nodes[tri[2]]
    return 0.5 * abs((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0]))


def dense_stiffness(nodes, cells):
    return dense_tensor_stiffness(nodes, cells, np.broadcast_to(np.eye(2), (len(cells), 2, 2)))


def dense_tensor_stiffness(nodes, cells, tensors):
    """Dense sum of area * grad phi_i . T_m grad phi_j with a 2 x 2 tensor T_m per cell."""
    n = len(nodes)
    K = np.zeros((n, n))
    for tri, tensor in zip(cells, tensors):
        p0, p1, p2 = nodes[tri[0]], nodes[tri[1]], nodes[tri[2]]
        area = _cell_area(nodes, tri)
        grads = np.array([
            [p1[1] - p2[1], p2[0] - p1[0]],
            [p2[1] - p0[1], p0[0] - p2[0]],
            [p0[1] - p1[1], p1[0] - p0[0]],
        ]) / (2.0 * area)
        for i in range(3):
            for j in range(3):
                K[tri[i], tri[j]] += area * grads[i] @ tensor @ grads[j]
    return K


def heat_backward_euler(nodes, cells, boundary_node, u0_full, tau, n_steps):
    """Backward Euler for the homogeneous heat equation with zero Dirichlet data.

    Returns the list of full nodal vectors u^0..u^K.
    """
    free = np.flatnonzero(~np.asarray(boundary_node))
    M = dense_mass(nodes, cells)[np.ix_(free, free)]
    K = dense_stiffness(nodes, cells)[np.ix_(free, free)]
    A = M / tau + K
    u = np.asarray(u0_full, dtype=float)[free].copy()
    out = [np.asarray(u0_full, dtype=float).copy()]
    for _ in range(n_steps):
        u = np.linalg.solve(A, M @ u / tau)
        full = np.zeros(len(nodes))
        full[free] = u
        out.append(full)
    return out


def unit_square_cells(n):
    """Cells of the n x n unit-square triangulation, one square at a time."""
    def idx(i, j):
        return j * (n + 1) + i

    cells = []
    for j in range(n):
        for i in range(n):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
    return np.asarray(cells, dtype=np.int64)


def shape_regularity(mesh):
    """Max ratio of circumradius to inradius over the cells of mesh."""
    v = mesh.nodes[mesh.cells]
    e = np.stack([np.linalg.norm(v[:, (i + 2) % 3] - v[:, (i + 1) % 3], axis=1)
                  for i in range(3)], axis=1)
    a, b, c = e[:, 0], e[:, 1], e[:, 2]
    s = 0.5 * (a + b + c)
    inradius = mesh.areas / s
    circumradius = a * b * c / (4.0 * mesh.areas)
    return float(np.max(circumradius / inradius))


def sorted_edges(cells):
    """Distinct edges (lo, hi) of a triangulation in lexicographic order."""
    edges = np.sort(np.asarray(cells)[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    return np.unique(edges, axis=0)


def refine_red(nodes, cells):
    """Red refinement cell by cell, midpoints numbered by first appearance.

    Returns (nodes, cells, midpoint_edges) of the refined triangulation.
    """
    n_old = len(nodes)
    midpoint_id = {}
    midpoint_edges = []

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint_id:
            midpoint_id[key] = n_old + len(midpoint_edges)
            midpoint_edges.append(key)
        return midpoint_id[key]

    new_cells = []
    for a, b, c in cells:
        mab = midpoint(a, b)
        mbc = midpoint(b, c)
        mca = midpoint(c, a)
        new_cells.extend([(a, mab, mca), (mab, b, mbc),
                          (mca, mbc, c), (mab, mbc, mca)])
    mids = np.asarray(midpoint_edges, dtype=np.int64)
    new_nodes = np.vstack([nodes, 0.5 * (nodes[mids[:, 0]] + nodes[mids[:, 1]])])
    return new_nodes, np.asarray(new_cells, dtype=np.int64), mids


def symmetric_permutation(A, perm):
    """P A P^T by scipy fancy indexing: entry (k, l) is A[perm[k], perm[l]]."""
    return A[perm][:, perm]


def nested_dissection_order(xy, row, col, leaf=32):
    """Nested-dissection order of the dofs at coordinates xy, one part per recursive call.

    row, col hold both directions of every off-diagonal pattern edge.  A part
    of more than leaf dofs is cut at the lower median of its coordinates along
    its longer extent (x on a tie); the separator is the set of lower-half
    dofs with a neighbour in the upper half.  Order: lower half without the
    separator, upper half, separator.  Returns perm, perm[k] the dof in
    position k.
    """
    group = np.empty(len(xy), dtype=np.int8)
    order = []

    def dissect(nodes, row, col):
        if nodes.size <= leaf:
            order.append(nodes)
            return
        pts = xy[nodes]
        c = pts[:, np.argmax(np.ptp(pts, axis=0))]
        med = np.sort(c)[(c.size - 1) // 2]
        lower = c <= med
        if lower.all():
            lower = c < med
        if not lower.any():
            order.append(nodes)
            return
        group[nodes] = np.where(lower, 0, 1)
        cut = (group[row] == 0) & (group[col] == 1)
        group[row[cut]] = 2
        label, g_row, g_col = group[nodes], group[row], group[col]
        for g in (0, 1):
            inside = (g_row == g) & (g_col == g)
            dissect(nodes[label == g], row[inside], col[inside])
        order.append(nodes[label == 2])

    dissect(np.arange(len(xy)), np.asarray(row), np.asarray(col))
    return np.concatenate(order)


def _sample_vectors(rng, n):
    r = rng.uniform(0.0, 10.0, size=n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def certify_lemmas(samples, seed):
    """orlicz.certify_lemmas with every check on arrays of all samples at once.

    Same draws, kernels and frozen bounds as the package; the statistics are
    whole-array reductions instead of folds over blocks.
    """
    rng = np.random.default_rng(seed)
    n = int(samples)
    p = rng.choice(np.asarray(orlicz.P_GRID), size=n)
    delta = rng.choice(np.asarray(orlicz.DELTA_GRID), size=n)
    eps = rng.uniform(1e-6, 1.0, size=n)
    alpha = rng.uniform(0.0, 5.0, size=n)
    a = _sample_vectors(rng, n)
    b = _sample_vectors(rng, n)
    ra, rb, s = orlicz.vnorm(a), orlicz.vnorm(b), orlicz.vnorm(a - b)
    ok = s > 0.0  # excludes the measure-zero coincidence a == b
    shift = delta + eps

    with np.errstate(divide="ignore", invalid="ignore"):
        # --- monotonicity of A_alpha and the equivalence of its three forms -
        inner, shifted_val, quotient = orlicz._monotone_forms(p, delta + alpha, a, ra, b, rb, s)
        monotonicity = CheckResult("monotonicity", n, int(np.count_nonzero(ok & (inner <= 0.0))),
                                   {"min_inner": float(np.min(inner[ok]))})
        viol, stats = 0, {}
        for key, num, den in (("inner-over-shifted", inner, shifted_val),
                              ("inner-over-quotient", inner, quotient),
                              ("shifted-over-quotient", shifted_val, quotient)):
            q = np.where(ok, num / np.where(ok, den, 1.0), 1.0)
            lo, hi = orlicz.MONOTONE_RATIO_BOUNDS[key]
            viol += int(np.count_nonzero((q < lo) | (q > hi)))
            stats[key] = (float(np.min(q[ok])), float(np.max(q[ok])))
        equivalence = CheckResult("monotonicity-equivalence", n, viol, stats)
        del inner, shifted_val, quotient

        # --- uniform eps-bound |A_eps - A_0| <= (1-kappa0) phi'(eps) --------
        lhs, rhs, holds = orlicz._uniform_eps_bound(p, delta, eps, a, ra)
        uniform = CheckResult("uniform-eps-bound", n, int(np.count_nonzero(~holds)),
                              {"max_excess": float(np.max(lhs - rhs))})

        # --- Orlicz stability ------------------------------------------------
        lhs, rhs, holds = orlicz._orlicz_stability(p, shift, a, ra, b, rb, s)
        stability = CheckResult("orlicz-stability", n, int(np.count_nonzero(~holds)),
                                {"min_margin": float(np.min(lhs - rhs))})
        del lhs, rhs, holds

        # --- kappa bracket (exact in closed form, 1e-12 relative) -----------
        r = np.where(ra > 0.0, ra, 1.0)  # avoid r = 0 (phi'' undefined there)
        pp = orlicz._additive_weight(p, delta, r) * r
        rpp2 = r * (delta + r) ** (p - 3.0) * ((p - 1.0) * r + delta)
        tol = 1e-12 * np.maximum(1.0, pp)
        viol = int(np.count_nonzero((rpp2 < (p - 1.0) * pp - tol) | (rpp2 > pp + tol)))
        bracket = CheckResult("kappa-bracket", n, viol,
                              {"max_ratio": float(np.max(rpp2 / pp)),
                               "min_ratio": float(np.min(rpp2 / pp))})
        del r, pp, rpp2, tol

        # --- (C2): phi'(r)/r nonincreasing ----------------------------------
        # w1 may be inf at |a| or |b| = delta = 0, still ordered
        w1 = orlicz._additive_weight(p, delta, np.minimum(ra, rb))
        w2 = orlicz._additive_weight(p, delta, np.maximum(ra, rb))
        viol = int(np.count_nonzero((ra != rb) & (w1 < w2 - 1e-12 * np.maximum(1.0, w2))))
        nonincreasing = CheckResult("weight-nonincreasing", n, viol, {})
        del w1, w2

        # --- lagged weight ratio (regression against the frozen sup) --------
        ratio = orlicz._lagged_weight(p, shift, a, ra, rb, s)[2]
        lagged = CheckResult("lagged-weight-ratio", n,
                             int(np.count_nonzero(ratio > orlicz.LAGGED_WEIGHT_RATIO_MAX)),
                             {"max_ratio": float(np.max(ratio)),
                              "frozen_bound": orlicz.LAGGED_WEIGHT_RATIO_MAX})

        # --- sandwich for the shifted density -------------------------------
        q = ((orlicz._phi_closed(p, shift, ra) + eps**p + delta**p)
             / (ra**p + eps**p + delta**p))
        viol, stats = 0, {}
        for pv in np.unique(p).tolist():
            qs = q[p == pv]
            stats[f"p={pv}"] = (float(np.min(qs)), float(np.max(qs)))
            lo, hi = orlicz.EQUI_SANDWICH_BOUNDS[pv]
            viol += int(np.count_nonzero((qs < lo) | (qs > hi)))
        sandwich = CheckResult("shifted-density-sandwich", n, viol, stats)

        # --- quadratic-norm operator difference quotient (regression) -------
        q = orlicz._s_eps_quotient(p, eps, a, ra, b, rb, s)
        s_eps = CheckResult("s-eps-difference-quotient", n,
                            int(np.count_nonzero(q > orlicz.S_EPS_LIPSCHITZ_MAX)),
                            {"max_ratio": float(np.max(q)),
                             "frozen_bound": orlicz.S_EPS_LIPSCHITZ_MAX})

    return [monotonicity, uniform, stability, bracket, nonincreasing, lagged,
            equivalence, sandwich, s_eps]


def _lagged_dissipation(traj):
    """Cell gradients and diffusion weights of u^0..u^K, and the lagged
    dissipations D_k = int w^{k-1} |grad d u^k|^2 for k = 1..K."""
    cfg = traj.config
    grads = [assembly.gradients(u) for u in traj.iterates]
    weights = [orlicz.diffusion_weight(cfg.nf, cfg.eps, cfg.kind, orlicz.vnorm(g))
               for g in grads]
    diss = np.empty(traj.K)
    for k in range(1, traj.K + 1):
        gd = (grads[k] - grads[k - 1]) / cfg.tau
        diss[k - 1] = float(np.sum(cfg.mesh.areas * weights[k - 1] * np.sum(gd * gd, axis=1)))
    return grads, weights, diss


def check_energy_ledgers(traj):
    """diagnostics.check_energy_ledgers with the gradients and weights of all
    K+1 iterates held at once; per k the arithmetic is the package's."""
    cfg = traj.config
    K = traj.K
    if K == 0:
        return diagnostics.LedgerReport([])
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

    if cfg.scheme == lower_order.SEMI_IMPLICIT:
        if pure_flow:
            lhs = energies[1:] + tau * cum_dtau + 0.5 * tau * tau * cum_diss
            rhs = np.full(K, energies[0])
            entries.append(diagnostics._ledger_entry("energy-stability", lhs, rhs))
        lhs = 0.5 * l2_sq[1:] + tau * np.cumsum(diss_u_lag)
        rhs = (0.5 * l2_sq[0] + (cfg.coeff.c7 + 1.0) * tau * cum_l2 + tau * cum_f)
        entries.append(diagnostics._ledger_entry("apriori", lhs, rhs))
        lhs = energies[1:] + 0.5 * tau * cum_dtau + 0.5 * tau * tau * cum_diss
        rhs = energies[0] + tau * cum_f + tau * cum_du
        entries.append(diagnostics._ledger_entry("ener-bound", lhs, rhs))
    else:
        lhs = 0.5 * l2_sq[1:] + tau * np.cumsum(diss_u_cur)
        rhs = (0.5 * l2_sq[0] + (cfg.coeff.c7 + 1.0) * tau * cum_l2 + tau * cum_f)
        entries.append(diagnostics._ledger_entry("apriori-implicit", lhs, rhs))
    return diagnostics.LedgerReport(entries)


def lagged_dissipation_sum(traj):
    """diagnostics.lagged_dissipation_sum over all iterates' gradients at once."""
    tau = traj.config.tau
    return tau * tau * float(sum(_lagged_dissipation(traj)[2]))


# --- finite element kernels, one cell at a time ------------------------------

def cell_gradients(nodes, cells, full):
    """Gradient of the P1 interpolant of the nodal values full on every cell, (M, 2):
    the g with g . (p_i - p_0) = u_i - u_0 for i = 1, 2, by a 2 x 2 solve."""
    out = np.empty((len(cells), 2))
    for m, tri in enumerate(cells):
        p0, p1, p2 = (np.asarray(nodes[v], dtype=float) for v in tri)
        u0, u1, u2 = (full[v] for v in tri)
        out[m] = np.linalg.solve(np.array([p1 - p0, p2 - p0]), np.array([u1 - u0, u2 - u0]))
    return out


# local vertices at the ends of each cell's edges 01, 12, 20
EDGES = ((0, 1), (1, 2), (2, 0))


def midpoint_values(cells, full):
    """Values of the P1 interpolant at the midpoints of every cell's edges 01, 12, 20, (M, 3)."""
    out = np.empty((len(cells), 3))
    for m, tri in enumerate(cells):
        for q, (a, b) in enumerate(EDGES):
            out[m, q] = 0.5 * (full[tri[a]] + full[tri[b]])
    return out


def tangent_tensors(p, delta, eps, quadratic, grads):
    """omega(t) I + (omega'(t) / t) g g^T per cell, t = |g|, from the closed-form
    derivative of the weight: (p-2) (t^2 + eps^2)^((p-4)/2) for the
    quadratic norm, (p-2) (delta + eps + t)^(p-3) / t (0 at t = 0) for the
    additive shift."""
    out = np.empty((len(grads), 2, 2))
    for m, g in enumerate(grads):
        t = float(np.hypot(g[0], g[1]))
        if quadratic:
            omega = (t * t + eps * eps) ** ((p - 2.0) / 2.0)
            coef = (p - 2.0) * (t * t + eps * eps) ** ((p - 4.0) / 2.0)
        else:
            omega = (delta + eps + t) ** (p - 2.0)
            coef = (p - 2.0) * (delta + eps + t) ** (p - 3.0) / t if t > 0.0 else 0.0
        out[m] = omega * np.eye(2) + coef * np.outer(g, g)
    return out


def dense_midpoint_mass(nodes, cells, qvals):
    """Dense sum over cells and edge midpoints q of (area/3) qvals[m, q] psi_i psi_j."""
    n = len(nodes)
    M = np.zeros((n, n))
    for tri, qs in zip(cells, qvals):
        area = _cell_area(nodes, tri)
        for (a, b), qv in zip(EDGES, qs):
            for i in (a, b):
                for j in (a, b):
                    M[tri[i], tri[j]] += area / 3.0 * qv * 0.25
    return M


def load_vector(nodes, cells, f):
    """Midpoint-rule load sum over cells and edges (a, b) of (area/3) f(midpoint) / 2
    into both ends, on all nodes."""
    vec = np.zeros(len(nodes))
    for tri in cells:
        area = _cell_area(nodes, tri)
        for a, b in EDGES:
            x, y = 0.5 * (nodes[tri[a]] + nodes[tri[b]])
            val = float(f(x, y))
            vec[tri[a]] += area / 3.0 * val * 0.5
            vec[tri[b]] += area / 3.0 * val * 0.5
    return vec


# --- vectorized reference kernels --------------------------------------------
# An einsum contraction and an np.bincount scatter over the pattern's slots.
# The package's cached operators add the same products in the same cell
# order, so the cell gradients, the weighted stiffness and every _assemble
# result equal these to the bit.

def searchsorted_pattern(mesh):
    """assembly._pattern as it was built before: the sorted keys i n + j of
    every pattern entry, and each local (i, j) position's slots found by
    np.searchsorted in them, one position at a time."""
    n = mesh.n_interior
    number = mesh.dof_numbers()
    ends = number[mesh.edges]
    ends = ends[np.all(ends < n, axis=1)]
    pairs = np.sort(np.concatenate([np.arange(n) * (n + 1),
                                    ends[:, 0] * n + ends[:, 1],
                                    ends[:, 1] * n + ends[:, 0]]))
    row, col = np.divmod(pairs, n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    indices = col.astype(np.int32)

    dof = number[mesh.cells]
    slot = np.full((mesh.n_cells, 3, 3), pairs.size, dtype=np.int32)
    for i in range(3):
        for j in range(3):
            inside = (dof[:, i] < n) & (dof[:, j] < n)
            slot[inside, i, j] = np.searchsorted(pairs, dof[inside, i] * n + dof[inside, j])
    return indptr, indices, slot.reshape(-1)


def bincount_assemble(mesh, element_blocks):
    """Data of the matrix with (M, 3, 3) element blocks, summed by np.bincount over the slots."""
    _, indices, slot = assembly._pattern(mesh)
    return np.bincount(slot, weights=element_blocks.reshape(-1),
                       minlength=indices.size + 1)[:indices.size]


def einsum_gradients(u):
    """Cell gradients as the contraction of the vertex values with the hat
    gradients, copied into a contiguous vertex-major (M, 3, 2) array."""
    full = u.full_values()
    grads = np.ascontiguousarray(u.mesh.hat_gradients())
    return np.einsum("mi,mid->md", full[u.mesh.cells], grads)


def midpoint_prolong(u, target):
    """Interior coefficients on the red refinement target of the P1 function u:
    parent nodes keep their values and each midpoint takes the average
    0.5 (u_a + u_b) of its edge's ends, boundary ends counting as 0."""
    full = u.full_values()
    child = np.empty(target.n_nodes)
    child[:u.mesh.n_nodes] = full
    mids = target.midpoint_edges
    child[u.mesh.n_nodes:] = 0.5 * (full[mids[:, 0]] + full[mids[:, 1]])
    return child[target.interior]


def first_kacanov_equals_semi_implicit(u_prev, cfg):
    """The structural identity between the two schemes: the first Kacanov
    sweep of the implicit step from v0 = u_prev solves exactly the
    semi-implicit linear system, so the iterates must coincide to solver
    accuracy, 1e-12 relative to 1 + max |u|."""
    if cfg.eps <= 0.0:
        raise ValueError("comparison requires eps > 0")
    semi, _ = semi_implicit_step(u_prev, cfg, 1)
    one_sweep = replace(cfg, scheme=IMPLICIT, nonlinear=KACANOV, max_iter=1,
                        tol_res=np.inf)
    v1, _ = implicit_step(u_prev, one_sweep, 1)
    scale = 1.0 + float(np.max(np.abs(semi.coeffs))) if semi.coeffs.size else 1.0
    diff = float(np.max(np.abs(semi.coeffs - v1.coeffs))) if semi.coeffs.size else 0.0
    return diff <= 1e-12 * scale
