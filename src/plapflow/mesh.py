"""Conforming triangulations with uniform red refinement and P1 bookkeeping.

Meshes are immutable after construction.  Red refinement splits every
triangle into four congruent children through the edge midpoints, so the
P1 space of a parent mesh is contained exactly in that of the child; the
parent nodes keep their indices, midpoints are appended.

Homogeneous Dirichlet conditions are built in: a nodal function carries
coefficients on interior nodes only and vanishes on the boundary.

Whatever is built once per mesh, here and in ``assembly``, goes through the
one memo ``per_mesh``.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

BOUNDARY_TOL = 1e-12


def per_mesh(build):
    """Memoize build(mesh) on the mesh: the first call builds, every later
    call with the same mesh returns the same object.  The value is kept on
    the mesh under the builder's qualified name, so it lives as long as the
    mesh does."""
    key = f"{build.__module__}.{build.__qualname__}"

    @functools.wraps(build)
    def cached(mesh):
        cache = mesh._cache
        if key not in cache:
            cache[key] = build(mesh)
        return cache[key]

    return cached


class TriMesh:
    """Triangulation given by node coordinates and counterclockwise cells.

    Attributes
    ----------
    nodes : (N, 2) float array
    cells : (M, 3) int array, counterclockwise vertex triples
    boundary_node : (N,) bool array
    parent : the mesh this one was refined from, or None; its nodes are the
        first parent.n_nodes nodes of this mesh
    """

    def __init__(self, nodes, cells, parent=None, midpoint_edges=None):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise ValueError("nodes must be an (N, 2) array")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise ValueError("cells must be an (M, 3) array")
        self.parent = parent
        self.midpoint_edges = midpoint_edges  # (N - N_parent, 2) parent edge ends
        self._cache = {}  # per_mesh's memo

        v0 = self.nodes[self.cells[:, 0]]
        v1 = self.nodes[self.cells[:, 1]]
        v2 = self.nodes[self.cells[:, 2]]
        cross = ((v1[:, 0] - v0[:, 0]) * (v2[:, 1] - v0[:, 1])
                 - (v1[:, 1] - v0[:, 1]) * (v2[:, 0] - v0[:, 0]))
        if np.any(cross <= 0.0):
            raise ValueError("cells must be counterclockwise with positive area")
        self.areas = 0.5 * cross

        keys, counts = np.unique(_edge_keys(self.cells, len(self.nodes)), return_counts=True)
        self.edges = np.column_stack(np.divmod(keys, len(self.nodes)))
        if np.any(counts > 2):
            raise ValueError("mesh is not conforming: an edge meets > 2 cells")
        self.boundary_node = np.zeros(len(self.nodes), dtype=bool)
        self.boundary_node[self.edges[counts == 1].ravel()] = True
        self.interior = np.flatnonzero(~self.boundary_node)

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_interior(self):
        return len(self.interior)

    @property
    def level(self):
        """Refinement generation: 0 for a mesh without a parent."""
        return 0 if self.parent is None else self.parent.level + 1

    @property
    def h(self):
        """Mesh size: the longest edge."""
        d = self.nodes[self.edges[:, 0]] - self.nodes[self.edges[:, 1]]
        return float(np.max(np.sqrt(np.sum(d * d, axis=1))))

    @per_mesh
    def hat_gradients(self):
        """Per-cell constant gradients of the three local hats, (M, 3, 2).

        They are stored component-major, as one C-contiguous (M, 2, 3) array
        whose entry (m, d, i) is component d of the gradient of hat i on cell
        m; what is returned is a transposed view of it.  In that layout the
        storage is, flattened, the data of the cell-gradient operator G of
        assembly.gradients (row 2 m + d holds the three entries (m, d, :)), so
        the operator adds no copy of it.
        """
        v = self.nodes[self.cells]  # (M, 3, 2)
        grads = np.empty((self.n_cells, 2, 3))
        for i in range(3):
            b = v[:, (i + 1) % 3]
            c = v[:, (i + 2) % 3]
            grads[:, 0, i] = (b[:, 1] - c[:, 1])
            grads[:, 1, i] = (c[:, 0] - b[:, 0])
        grads /= (2.0 * self.areas)[:, None, None]
        grads.flags.writeable = False  # the gradient operator holds it
        return grads.transpose(0, 2, 1)

    def dof_numbers(self):
        """The node-to-dof numbering, (N,) int64: interior node i gets its
        position in self.interior, every boundary node the sentinel N_int.

        It is int64 so that products of two numbers, such as the pattern keys
        i * N_int + j, cannot overflow.
        """
        number = np.full(self.n_nodes, self.n_interior, dtype=np.int64)
        number[self.interior] = np.arange(self.n_interior)
        return number

    def shape_regularity(self):
        """Max ratio of circumradius to inradius over all cells."""
        v = self.nodes[self.cells]
        e = np.stack([np.linalg.norm(v[:, (i + 2) % 3] - v[:, (i + 1) % 3], axis=1)
                      for i in range(3)], axis=1)
        a, b, c = e[:, 0], e[:, 1], e[:, 2]
        s = 0.5 * (a + b + c)
        inradius = self.areas / s
        circumradius = a * b * c / (4.0 * self.areas)
        return float(np.max(circumradius / inradius))


@dataclass
class FemFunction:
    """P1 function vanishing on the boundary, given by interior nodal values."""

    mesh: TriMesh
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.mesh.n_interior,):
            raise ValueError(
                f"expected {self.mesh.n_interior} interior coefficients, "
                f"got shape {self.coeffs.shape}")

    @classmethod
    def zeros(cls, mesh):
        return cls(mesh, np.zeros(mesh.n_interior))

    @classmethod
    def from_full(cls, mesh, values):
        values = np.asarray(values, dtype=float)
        return cls(mesh, values[mesh.interior])

    def full_values(self):
        """Nodal values on all nodes, zeros on the boundary."""
        full = np.zeros(self.mesh.n_nodes)
        full[self.mesh.interior] = self.coeffs
        return full

    def copy(self):
        return FemFunction(self.mesh, self.coeffs.copy())


def _edge_keys(cells, n_nodes):
    """Key lo * n_nodes + hi of the edges 01, 12, 20 of every cell, (M, 3)."""
    nxt = np.roll(cells, -1, axis=1)
    return np.minimum(cells, nxt) * n_nodes + np.maximum(cells, nxt)


def unit_square_mesh(n):
    """Structured triangulation of (0,1)^2: n x n squares, each split along
    its lower-left/upper-right diagonal; (n+1)^2 nodes, 2 n^2 cells.

    This pattern is reproduced exactly by red refinement, which is what makes
    the refinement hierarchy nested.
    """
    if n < 1:
        raise ValueError("need at least one cell per side")
    n = int(n)
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    # lower-left corner of square (i, j), squares ordered row by row
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    cells = np.stack([np.column_stack([v00, v10, v11]),
                      np.column_stack([v00, v11, v01])], axis=1)
    return TriMesh(nodes, cells.reshape(-1, 3))


def refine_red(m):
    """Uniform red refinement: every triangle split into 4 via edge midpoints.

    Midpoints are numbered after the parent nodes, in order of first
    appearance along the cells' edges 01, 12, 20.
    """
    n_old = m.n_nodes
    keys = _edge_keys(m.cells, n_old).ravel()
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    mab, mbc, mca = (n_old + rank[inverse]).reshape(-1, 3).T
    a, b, c = m.cells.T
    new_cells = np.stack([np.column_stack([a, mab, mca]),
                          np.column_stack([mab, b, mbc]),
                          np.column_stack([mca, mbc, c]),
                          np.column_stack([mab, mbc, mca])], axis=1)

    midpoint_edges = np.column_stack(np.divmod(uniq[order], n_old))
    new_nodes = 0.5 * (m.nodes[midpoint_edges[:, 0]] + m.nodes[midpoint_edges[:, 1]])
    return TriMesh(np.vstack([m.nodes, new_nodes]), new_cells.reshape(-1, 3),
                   parent=m, midpoint_edges=midpoint_edges)


@per_mesh
def prolongation(target):
    """The prolongation of the red-refined mesh target: the sparse matrix that
    maps the interior coefficients of a P1 function on target.parent to those
    of the same function on target.

    Row i holds 1 at the parent's interior node if child node i is one, and
    0.5 at each interior end of its parent edge if it is a midpoint; boundary
    ends carry the value 0 and get no entry.  Both weights are powers of two,
    so P @ u agrees bit for bit with the edge average 0.5 (u_a + u_b).
    """
    parent = target.parent
    column, row = parent.dof_numbers(), target.dof_numbers()
    mids = target.midpoint_edges
    rows = np.concatenate([row[:parent.n_nodes], np.repeat(row[parent.n_nodes:], 2)])
    cols = np.concatenate([column, column[mids].ravel()])
    vals = np.concatenate([np.ones(parent.n_nodes), np.full(mids.size, 0.5)])
    keep = (rows < target.n_interior) & (cols < parent.n_interior)
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(target.n_interior, parent.n_interior))


def prolong(u, target):
    """Exact injection of a P1 function into the red-refined mesh.

    The prolonged function agrees with u pointwise everywhere, since parent
    nodes keep their values and midpoints take the edge average.
    """
    if target.parent is not u.mesh:
        raise ValueError("target mesh is not the red refinement of the source mesh")
    return FemFunction(target, prolongation(target) @ u.coeffs)


def interpolate_nodal(expr, m):
    """Nodal interpolant of an analytic field; boundary values must vanish.

    Nonzero boundary values beyond 1e-12 are discarded with a warning, the
    interpolant keeps homogeneous boundary data either way.
    """
    vals = np.asarray(expr(m.nodes[:, 0], m.nodes[:, 1]), dtype=float)
    vals = np.broadcast_to(vals, (m.n_nodes,))
    worst = float(np.max(np.abs(vals[m.boundary_node]))) if np.any(m.boundary_node) else 0.0
    if worst > BOUNDARY_TOL:
        warnings.warn(f"discarding nonzero boundary values (max {worst:.3e})",
                      stacklevel=2)
    return FemFunction(m, vals[m.interior].copy())


def export_vtk(m, path, point_data=None):
    """Write the mesh (and optional nodal scalar fields) as legacy ASCII VTK."""
    lines = ["# vtk DataFile Version 3.0", "plapflow mesh", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {m.n_nodes} double"]
    for x, y in m.nodes:
        lines.append(f"{float(x)!r} {float(y)!r} 0.0")
    lines.append(f"CELLS {m.n_cells} {4 * m.n_cells}")
    for a, b, c in m.cells:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {m.n_cells}")
    lines.extend(["5"] * m.n_cells)
    if point_data:
        lines.append(f"POINT_DATA {m.n_nodes}")
        for name, values in point_data.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(f"{float(v)!r}" for v in values)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def export_csv(u, path):
    """Write a nodal function as CSV rows (node_x, node_y, value)."""
    full = u.full_values()
    lines = ["node_x,node_y,value"]
    for (x, y), v in zip(u.mesh.nodes, full):
        lines.append(f"{float(x)!r},{float(y)!r},{float(v)!r}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
