import numpy as np
import pytest

from plapflow import assembly
from plapflow.mesh import (FemFunction, TriMesh, export_csv, export_vtk,
                           interpolate_nodal, prolong, refine_red, unit_square_mesh)

import oracles


def _canonical_cells(m):
    """Cells as a set of frozensets of rounded coordinates (ordering-free)."""
    return {frozenset(tuple(np.round(m.nodes[v], 12)) for v in tri)
            for tri in m.cells}


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


class TestRedRefinement:
    def test_matches_next_unit_square(self):
        child = refine_red(unit_square_mesh(1))
        ref = unit_square_mesh(2)
        assert child.n_nodes == 9 and child.n_cells == 8
        assert _canonical_cells(child) == _canonical_cells(ref)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_loop_oracle(self, n):
        m = unit_square_mesh(n)
        np.testing.assert_array_equal(m.cells, oracles.unit_square_cells(n))
        np.testing.assert_array_equal(m.edges, oracles.sorted_edges(m.cells))
        for _ in range(4):
            nodes, cells, mids = oracles.refine_red(m.nodes, m.cells)
            m = refine_red(m)
            assert np.array_equal(m.nodes, nodes)
            assert np.array_equal(m.cells, cells)
            assert np.array_equal(m.edges, oracles.sorted_edges(cells))
            assert np.array_equal(m.midpoint_edges, mids)

    def test_counts_closed_form(self):
        m = unit_square_mesh(2)
        h0 = m.h
        for k in range(1, 4):
            m = refine_red(m)
            n_eff = 2 * 2**k
            assert m.n_cells == 2 * n_eff**2
            assert m.n_nodes == (n_eff + 1) ** 2
            assert m.h == pytest.approx(h0 * 2.0**-k, rel=1e-12)
            assert m.level == k

    def test_child_areas_quarter(self):
        parent = unit_square_mesh(3)
        child = refine_red(parent)
        assert np.min(child.areas) == pytest.approx(np.min(parent.areas) / 4.0, rel=1e-14)
        assert np.max(child.areas) == pytest.approx(np.max(parent.areas) / 4.0, rel=1e-14)

    def test_shape_regularity_preserved(self):
        parent = unit_square_mesh(2)
        child = refine_red(parent)
        assert child.shape_regularity() == pytest.approx(parent.shape_regularity(), rel=1e-12)

    def test_parent_map_is_coordinate_preserving_injection(self):
        parent = unit_square_mesh(3)
        child = refine_red(parent)
        pm = child.parent_map
        assert len(np.unique(pm)) == parent.n_nodes
        np.testing.assert_array_equal(child.nodes[pm], parent.nodes)

    def test_midpoints_are_level_edges(self):
        parent = unit_square_mesh(2)
        child = refine_red(parent)
        mids = child.nodes[parent.n_nodes:]
        expect = 0.5 * (parent.nodes[child.midpoint_edges[:, 0]]
                        + parent.nodes[child.midpoint_edges[:, 1]])
        np.testing.assert_allclose(mids, expect)


class TestProlong:
    def test_zero(self):
        parent = unit_square_mesh(2)
        child = refine_red(parent)
        out = prolong(FemFunction.zeros(parent), child)
        np.testing.assert_array_equal(out.coeffs, np.zeros(child.n_interior))

    def test_single_hat_midpoint_averages(self):
        parent = unit_square_mesh(2)
        child = refine_red(parent)
        u = FemFunction(parent, np.array([1.0]))  # the center hat
        out_full = prolong(u, child).full_values()
        parent_full = u.full_values()
        # parent nodes keep values, midpoints average the edge ends
        np.testing.assert_array_equal(out_full[child.parent_map], parent_full)
        mids = child.midpoint_edges
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

    def test_mismatch_rejected(self):
        parent = unit_square_mesh(2)
        other = unit_square_mesh(4)  # same size as the child but not the child
        u = FemFunction.zeros(parent)
        with pytest.raises(ValueError):
            prolong(u, other)
        child = refine_red(parent)
        with pytest.raises(ValueError):
            prolong(FemFunction.zeros(child), child)


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
        v = FemFunction.from_full(m, u.full_values())
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
