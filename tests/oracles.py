"""Independent reference implementations used as test oracles.

Nothing here shares code with the package: assembly is dense with explicit
Python loops and analytic element formulas, systems are solved with
numpy.linalg.solve.  Deliberately slow and simple.
"""

import numpy as np

# 5-point Gauss-Legendre nodes/weights on [-1, 1]
GAUSS5_X = np.array([-0.906179845938664, -0.538469310105683, 0.0,
                     0.538469310105683, 0.906179845938664])
GAUSS5_W = np.array([0.236926885056189, 0.478628670499366, 0.568888888888889,
                     0.478628670499366, 0.236926885056189])


def dense_mass(nodes, cells):
    n = len(nodes)
    M = np.zeros((n, n))
    base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    for tri in cells:
        p0, p1, p2 = nodes[tri[0]], nodes[tri[1]], nodes[tri[2]]
        area = 0.5 * abs((p1[0] - p0[0]) * (p2[1] - p0[1])
                         - (p1[1] - p0[1]) * (p2[0] - p0[0]))
        for i in range(3):
            for j in range(3):
                M[tri[i], tri[j]] += area * base[i, j]
    return M


def dense_stiffness(nodes, cells):
    n = len(nodes)
    K = np.zeros((n, n))
    for tri in cells:
        p0, p1, p2 = nodes[tri[0]], nodes[tri[1]], nodes[tri[2]]
        area = 0.5 * abs((p1[0] - p0[0]) * (p2[1] - p0[1])
                         - (p1[1] - p0[1]) * (p2[0] - p0[0]))
        grads = np.array([
            [p1[1] - p2[1], p2[0] - p1[0]],
            [p2[1] - p0[1], p0[0] - p2[0]],
            [p0[1] - p1[1], p1[0] - p0[0]],
        ]) / (2.0 * area)
        for i in range(3):
            for j in range(3):
                K[tri[i], tri[j]] += area * grads[i] @ grads[j]
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


def gauss5_time_integral(f, a, b):
    """Integral of a scalar function over [a, b] with 5-point Gauss."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * sum(w * f(mid + half * x) for x, w in zip(GAUSS5_X, GAUSS5_W))


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
