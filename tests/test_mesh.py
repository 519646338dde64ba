import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plapflow
from plapflow import assembly, mesh as mesh_module
from plapflow.mesh import (FemFunction, TriMesh, export_csv, export_vtk, interpolate_nodal,
                           per_mesh, prolong, prolongation, refine_red, unit_square_mesh)

import oracles


def _canonical_cells(m):
    """Cells as a set of frozensets of rounded coordinates (ordering-free)."""
    return {frozenset(tuple(np.round(m.nodes[v], 12)) for v in tri)
            for tri in m.cells}


def _barycentric(tri, x):
    """Barycentric coordinates of the points x (..., 2) in the triangles tri (..., 3, 2)."""
    a = tri[..., 0, :]
    edges = np.stack([tri[..., 1, :] - a, tri[..., 2, :] - a], axis=-1)
    l12 = np.linalg.solve(edges, (x - a)[..., None])[..., 0]
    return np.concatenate([1.0 - l12.sum(axis=-1, keepdims=True), l12], axis=-1)


class TestUnitSquare:
    @pytest.mark.parametrize("n,nodes,cells,interior",
                             [(1, 4, 2, 0), (2, 9, 8, 1), (4, 25, 32, 9)])
    def test_counts(self, n, nodes, cells, interior):
        m = unit_square_mesh(n)
        assert m.n_nodes == nodes
        assert m.n_cells == cells
        assert m.n_interior == interior

    def test_mesh_size(self):
        assert unit_square_mesh(4).h == pytest.approx(np.sqrt(2.0) / 4.0)

    def test_boundary_count(self):
        m = unit_square_mesh(5)
        assert int(np.sum(m.boundary_node)) == 4 * 5

    def test_euler_formula(self):
        # simply connected: nodes - edges + cells = 1
        for n in (1, 2, 3, 5):
            m = unit_square_mesh(n)
            assert m.n_nodes - len(m.edges) + m.n_cells == 1

    def test_areas_sum_to_domain(self):
        assert np.sum(unit_square_mesh(7).areas) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            unit_square_mesh(0)
        with pytest.raises(ValueError):
            TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 2, 1]]))  # clockwise

    def test_rejects_a_cell_index_outside_the_nodes(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        for cells in ([[0, 1, -1]], [[0, 1, 3]]):
            with pytest.raises(ValueError, match="index"):
                TriMesh(nodes, cells)

    def test_rejects_a_node_no_cell_uses(self):
        m = unit_square_mesh(4)
        with pytest.raises(ValueError, match="node"):
            TriMesh(np.vstack([m.nodes, [[0.3, 0.3]]]), m.cells)


class TestRedRefinement:
    def test_matches_next_unit_square(self):
        child = refine_red(unit_square_mesh(1))
        ref = unit_square_mesh(2)
        assert child.n_nodes == 9 and child.n_cells == 8
        assert _canonical_cells(child) == _canonical_cells(ref)

    @staticmethod
    def refine_checked(m):
        """refine_red(m), checked with m's edge table against the loop oracle."""
        nodes, cells, mids = oracles.refine_red(m.nodes, m.cells)
        # edges in order of first appearance along the cells' edges 01, 12, 20
        np.testing.assert_array_equal(m.edges, mids)
        # edge e of cell m is (cells[m, e], cells[m, e + 1 mod 3]), sorted
        assert m.cell_edges.dtype == np.int32
        ends = np.stack([m.cells, np.roll(m.cells, -1, axis=1)], axis=2)
        np.testing.assert_array_equal(m.edges[m.cell_edges], np.sort(ends, axis=2))
        child = refine_red(m)
        np.testing.assert_array_equal(child.nodes, nodes)
        np.testing.assert_array_equal(child.cells, cells)
        return child

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_loop_oracle(self, n):
        m = unit_square_mesh(n)
        np.testing.assert_array_equal(m.cells, oracles.unit_square_cells(n))
        for _ in range(5):
            m = self.refine_checked(m)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 5), refine=st.integers(0, 2), relabel=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_loop_oracle_on_general_meshes(self, n, refine, relabel, seed):
        m = unit_square_mesh(n)
        rng = np.random.default_rng(seed)
        nodes = m.nodes.copy()
        nodes[m.interior] += rng.uniform(-0.1, 0.1, (m.n_interior, 2)) / n
        cells = m.cells
        if relabel:
            # nodes renumbered, cells reordered, each cell's vertices rotated
            label = rng.permutation(m.n_nodes)
            cells = label[cells[rng.permutation(m.n_cells)]]
            turn = rng.integers(0, 3, m.n_cells)
            cells = np.take_along_axis(cells, (np.arange(3) + turn[:, None]) % 3, axis=1)
            nodes[label] = nodes.copy()
        m = TriMesh(nodes, cells)
        for _ in range(refine + 1):
            m = self.refine_checked(m)

    def test_counts_closed_form(self):
        m = unit_square_mesh(2)
        h0 = m.h
        for k in range(1, 4):
            m = refine_red(m)
            n_eff = 2 * 2**k
            assert m.n_cells == 2 * n_eff**2
            assert m.n_nodes == (n_eff + 1) ** 2
            assert m.h == pytest.approx(h0 * 2.0**-k, rel=1e-12)
            chain, ancestor = 0, m.parent
            while ancestor is not None:
                chain, ancestor = chain + 1, ancestor.parent
            assert chain == k

    def test_child_areas_quarter(self):
        parent = unit_square_mesh(3)
        child = refine_red(parent)
        assert np.min(child.areas) == pytest.approx(np.min(parent.areas) / 4.0, rel=1e-14)
        assert np.max(child.areas) == pytest.approx(np.max(parent.areas) / 4.0, rel=1e-14)

    def test_shape_regularity_preserved(self):
        parent = unit_square_mesh(2)
        child = refine_red(parent)
        assert (oracles.shape_regularity(child)
                == pytest.approx(oracles.shape_regularity(parent), rel=1e-12))

    def test_parent_nodes_keep_their_indices(self):
        parent = unit_square_mesh(3)
        child = refine_red(parent)
        np.testing.assert_array_equal(child.nodes[:parent.n_nodes], parent.nodes)

    def test_midpoints_are_level_edges(self):
        parent = unit_square_mesh(2)
        child = refine_red(parent)
        mids = child.nodes[parent.n_nodes:]
        expect = 0.5 * (parent.nodes[parent.edges[:, 0]] + parent.nodes[parent.edges[:, 1]])
        np.testing.assert_allclose(mids, expect)


class TestProlong:
    def test_zero(self):
        parent = unit_square_mesh(2)
        child = refine_red(parent)
        out = prolong(FemFunction(parent, np.zeros(parent.n_interior)), child)
        np.testing.assert_array_equal(out.coeffs, np.zeros(child.n_interior))

    def test_single_hat_midpoint_averages(self):
        parent = unit_square_mesh(2)
        child = refine_red(parent)
        u = FemFunction(parent, np.array([1.0]))  # the center hat
        out_full = prolong(u, child).full_values()
        parent_full = u.full_values()
        # parent nodes keep values, midpoints average the edge ends
        np.testing.assert_array_equal(out_full[:parent.n_nodes], parent_full)
        mids = parent.edges
        np.testing.assert_allclose(
            out_full[parent.n_nodes:],
            0.5 * (parent_full[mids[:, 0]] + parent_full[mids[:, 1]]))

    def test_norm_preservation(self, rng):
        parent = unit_square_mesh(4)
        child = refine_red(parent)
        u = FemFunction(parent, rng.uniform(-1, 1, parent.n_interior))
        v = prolong(u, child)
        assert assembly.norm_L2(v) == pytest.approx(assembly.norm_L2(u), rel=1e-12)
        for p in (1.3, 2.0):
            assert assembly.seminorm_W1p(v, p) == pytest.approx(
                assembly.seminorm_W1p(u, p), rel=1e-12)

    def test_linear_and_two_level_composition(self, rng):
        parent = unit_square_mesh(2)
        child = refine_red(parent)
        grand = refine_red(child)
        u = FemFunction(parent, rng.uniform(-1, 1, parent.n_interior))
        v = FemFunction(parent, rng.uniform(-1, 1, parent.n_interior))
        lin = prolong(FemFunction(parent, 2.0 * u.coeffs - 3.0 * v.coeffs), child)
        np.testing.assert_allclose(
            lin.coeffs, 2.0 * prolong(u, child).coeffs - 3.0 * prolong(v, child).coeffs,
            rtol=1e-14, atol=1e-15)
        # two red refinements: values at grandchild nodes equal the piecewise
        # affine evaluation of u, so prolong twice = exact re-representation
        w = prolong(prolong(u, child), grand)
        assert assembly.seminorm_W1p(w, 1.7) == pytest.approx(
            assembly.seminorm_W1p(u, 1.7), rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 5), depth=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_prolonged_function_is_the_coarse_function_pointwise(self, n, depth, seed):
        # the V-cycle's P relies on this: a P1 function on a jittered mesh,
        # prolonged through 1-3 red refinements, takes the coarse function's
        # value at random points of every fine cell
        rng = np.random.default_rng(seed)
        coarse = unit_square_mesh(n)
        nodes = coarse.nodes.copy()
        nodes[coarse.interior] += rng.uniform(-0.1, 0.1, (coarse.n_interior, 2)) / n
        coarse = TriMesh(nodes, coarse.cells)
        u = FemFunction(coarse, rng.uniform(-1, 1, coarse.n_interior))
        v, fine = u, coarse
        for _ in range(depth):
            fine = refine_red(fine)
            v = prolong(v, fine)
        fine_tri, coarse_tri = fine.nodes[fine.cells], coarse.nodes[coarse.cells]
        # the coarse cell holding each fine cell, located by the fine centroid
        inside = _barycentric(coarse_tri[None], fine_tri.mean(axis=1)[:, None]).min(axis=-1)
        owner = np.argmax(inside, axis=1)
        assert np.all(inside[np.arange(fine.n_cells), owner] > 0.0)
        lam = rng.random((fine.n_cells, 4, 3))
        lam /= lam.sum(axis=-1, keepdims=True)
        points = lam @ fine_tri  # (M, 4, 2)
        fine_values = np.sum(lam * v.full_values()[fine.cells][:, None], axis=-1)
        mu = _barycentric(coarse_tri[owner][:, None], points)
        coarse_values = np.sum(mu * u.full_values()[coarse.cells[owner]][:, None], axis=-1)
        scale = np.max(np.abs(u.coeffs), initial=0.0)
        assert np.max(np.abs(fine_values - coarse_values)) <= 1e-13 * scale

    def test_mismatch_rejected(self):
        parent = unit_square_mesh(2)
        other = unit_square_mesh(4)  # same size as the child but not the child
        u = FemFunction(parent, np.zeros(parent.n_interior))
        with pytest.raises(ValueError):
            prolong(u, other)
        child = refine_red(parent)
        with pytest.raises(ValueError):
            prolong(FemFunction(child, np.zeros(child.n_interior)), child)


# Every builder that goes through the per-mesh memo.
MEMOIZED = [TriMesh.hat_gradients, prolongation, assembly._pattern, assembly.nested_dissection,
            assembly._stiffness_blocks, assembly.mass_matrix, assembly._gradient_operator,
            assembly._stiffness_operator, assembly.midpoint_coords, assembly._midpoint_operator,
            assembly._midpoint_mass_operator]


class TestPerMesh:
    @pytest.mark.parametrize("build", MEMOIZED, ids=lambda f: f.__name__)
    def test_built_once_per_mesh(self, build):
        m, other = refine_red(unit_square_mesh(2)), refine_red(unit_square_mesh(3))
        first = build(m)
        assert build(m) is first
        assert build(other) is not first
        assert build(other) is build(other)

    def test_every_memoized_builder_is_listed(self):
        memo = per_mesh(lambda m: None).__code__
        found = {f for namespace in (vars(mesh_module), vars(assembly), vars(TriMesh))
                 for f in namespace.values() if getattr(f, "__code__", None) is memo}
        assert found == set(MEMOIZED)

    def test_no_other_module_touches_the_memo(self):
        package = Path(plapflow.__file__).parent
        users = sorted(p.name for p in package.glob("*.py") if "_cache" in p.read_text())
        assert users == ["mesh.py"]

    def test_no_other_module_numbers_edges(self):
        # edge keys and the local-edge table are formed in mesh only, and the
        # mesh sorts its edge keys once
        package = Path(plapflow.__file__).parent
        users = sorted(p.name for p in package.glob("*.py")
                       if re.search(r"_edge_keys|np\.roll\(|\[\[0,1\],\[1,2\],\[2,0\]\]",
                                    re.sub(r"\s", "", p.read_text())))
        assert users == ["mesh.py"]
        assert (package / "mesh.py").read_text().count("np.unique(") == 1

    def test_dof_numbers(self):
        m = refine_red(unit_square_mesh(3))
        number = m.dof_numbers()
        assert number.dtype == np.int64
        np.testing.assert_array_equal(number[m.interior], np.arange(m.n_interior))
        np.testing.assert_array_equal(number[m.boundary_node], m.n_interior)


class TestInterpolateNodal:
    def test_zero(self):
        m = unit_square_mesh(3)
        u = interpolate_nodal(lambda x, y: np.zeros_like(x), m)
        np.testing.assert_array_equal(u.coeffs, np.zeros(m.n_interior))

    def test_sin_product_center_node(self):
        m = unit_square_mesh(2)
        u = interpolate_nodal(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), m)
        assert u.coeffs.shape == (1,)
        assert u.coeffs[0] == pytest.approx(1.0, rel=1e-14)

    def test_polynomial_bump_value(self):
        m = unit_square_mesh(4)
        u = interpolate_nodal(lambda x, y: x * (1 - x) * y * (1 - y), m)
        full = u.full_values()
        node = np.flatnonzero((np.abs(m.nodes[:, 0] - 0.25) < 1e-12)
                              & (np.abs(m.nodes[:, 1] - 0.5) < 1e-12))[0]
        assert full[node] == pytest.approx(0.046875, rel=1e-14)

    def test_nonzero_boundary_warns_and_discards(self):
        m = unit_square_mesh(2)
        with pytest.warns(UserWarning, match="boundary"):
            u = interpolate_nodal(lambda x, y: np.ones_like(x), m)
        assert np.all(u.full_values()[m.boundary_node] == 0.0)


class TestFemFunction:
    def test_coefficient_length_checked(self):
        m = unit_square_mesh(4)
        with pytest.raises(ValueError):
            FemFunction(m, np.zeros(5))

    def test_full_values_roundtrip(self, rng):
        m = unit_square_mesh(4)
        u = FemFunction(m, rng.uniform(-1, 1, m.n_interior))
        v = FemFunction(m, u.full_values()[m.interior])
        np.testing.assert_array_equal(u.coeffs, v.coeffs)

    def test_hat_integrals_positive(self):
        m = unit_square_mesh(4)
        ones = assembly.load_vector(m, lambda x, y, t: np.ones_like(x))
        assert np.all(ones > 0.0)


class TestExports:
    def test_vtk_structure(self, tmp_path):
        m = unit_square_mesh(2)
        path = tmp_path / "mesh.vtk"
        export_vtk(m, path, point_data={"u": np.arange(m.n_nodes, dtype=float)})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile")
        assert "DATASET UNSTRUCTURED_GRID" in lines
        assert f"POINTS {m.n_nodes} double" in lines
        assert f"CELLS {m.n_cells} {4 * m.n_cells}" in lines
        assert lines.count("5") >= m.n_cells  # triangle cell type
        assert f"POINT_DATA {m.n_nodes}" in lines

    def test_csv_roundtrip(self, tmp_path, rng):
        m = unit_square_mesh(3)
        u = FemFunction(m, rng.uniform(-1, 1, m.n_interior))
        path = tmp_path / "u.csv"
        export_csv(u, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "node_x,node_y,value"
        assert len(rows) == m.n_nodes + 1
        vals = np.array([float(r.split(",")[2]) for r in rows[1:]])
        np.testing.assert_array_equal(vals, u.full_values())
