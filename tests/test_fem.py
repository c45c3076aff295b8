import numpy as np
import numpy.testing as npt
import pytest

import sgeit
from sgeit import fem, geometry


def one_triangle_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    tags = np.array([1, 1, 1])
    return geometry._validate(geometry.Mesh(nodes, tris, edges, tags))


def test_stiffness_unit_right_triangle():
    # classic reference element values
    mesh = one_triangle_mesh()
    K = fem.stiffness_matrix(mesh, np.array([1.0])).toarray()
    expect = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    npt.assert_allclose(K, expect, atol=1e-15)


def test_stiffness_matches_elementwise_oracle():
    """Vectorized assembly against a plain per-element loop."""
    mesh = sgeit.make_disk_fixture(3, 12, 4, 0.5)
    rng = np.random.default_rng(1)
    coeff = 0.5 + rng.random(mesh.n_triangles)
    K = fem.stiffness_matrix(mesh, coeff).toarray()

    n = mesh.n_nodes
    oracle = np.zeros((n, n))
    for t, tri in enumerate(mesh.triangles):
        p = mesh.nodes[tri]
        # gradients of the barycentric hats: solve for [c, gx, gy]
        V = np.column_stack([np.ones(3), p])
        G = np.linalg.solve(V, np.eye(3))[1:]  # (2, 3) gradients
        area = 0.5 * abs(np.linalg.det(V))
        oracle[np.ix_(tri, tri)] += coeff[t] * area * (G.T @ G)
    npt.assert_allclose(K, oracle, rtol=1e-12, atol=1e-14)


def test_stiffness_kernel_contains_constants():
    mesh = sgeit.make_disk_fixture(4, 16, 8, 0.5)
    K = fem.stiffness_matrix(mesh, np.ones(mesh.n_triangles))
    npt.assert_allclose(K @ np.ones(mesh.n_nodes), 0.0, atol=1e-13)


def test_stiffness_keeps_structural_zeros():
    # pattern must be the node adjacency of the contributing triangles,
    # even where entries cancel to zero
    mesh = sgeit.make_disk_fixture(2, 8, 4, 0.5)
    coeff = np.zeros(mesh.n_triangles)
    coeff[:8] = 1.0
    K = fem.stiffness_matrix(mesh, coeff).tocoo()
    got = set(zip(K.row.tolist(), K.col.tolist()))
    expect = set()
    for tri in mesh.triangles[:8]:
        for i in tri:
            for j in tri:
                expect.add((int(i), int(j)))
    assert got == expect


def test_electrode_mass_local_values():
    mesh = sgeit.make_disk_fixture(1, 4, 2, 0.5)
    eg = sgeit.electrode_geometry(mesh)
    S, g = fem.assemble_electrode_mass(mesh, eg)
    for m in range(2):
        e = eg.edges[m][0]
        a, b = mesh.boundary_edges[e]
        h = np.linalg.norm(mesh.nodes[b] - mesh.nodes[a])
        block = S[m][np.ix_([a, b], [a, b])].toarray()
        npt.assert_allclose(block, h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]]))
        npt.assert_allclose(g[m][[a, b]], h / 2.0 * np.ones(2))
        # nothing outside the electrode
        assert S[m].sum() == pytest.approx(h)
        assert g[m].sum() == pytest.approx(h)
        assert g[m][np.setdiff1d(np.arange(mesh.n_nodes), [a, b])].sum() == 0.0


def test_electrode_mass_totals_match_lengths():
    mesh = sgeit.make_disk_fixture(4, 24, 4, 0.75)
    sm = fem.assemble_spatial(
        mesh,
        sgeit.assign_pixels(mesh, np.array([[0.0, 0.0]])),
        fem.ParameterBounds(1.0, [0.0], np.full(4, 1.0), np.full(4, 10.0)),
    )
    for m in range(4):
        npt.assert_allclose(sm.S[m].sum(), sm.lengths[m], rtol=1e-13)
        npt.assert_allclose(sm.g[m].sum(), sm.lengths[m], rtol=1e-13)


def test_pixel_stiffness_partitions_background(tiny):
    mesh, part, _ = tiny
    sigma = np.array([0.3, 0.5, 0.7])
    bounds = fem.ParameterBounds(2.0, sigma, np.full(4, 1.0), np.full(4, 10.0))
    sm = fem.assemble_spatial(mesh, part, bounds)
    total = sum((sm.A[l] / sigma[l]).toarray() for l in range(3))
    npt.assert_allclose(total, (sm.A0 / 2.0).toarray(), rtol=1e-12, atol=1e-14)


def test_assemble_spatial_rejects():
    mesh = sgeit.make_disk_fixture(2, 8, 4, 0.5)
    part = sgeit.assign_pixels(mesh, np.array([[0.0, 0.0], [0.5, 0.0]]))
    a, b = np.full(4, 100.0), np.full(4, 1000.0)
    with pytest.raises(ValueError, match="sigma0 must be positive"):
        fem.ParameterBounds(0.0, np.array([0.0, 0.0]), a, b)
    with pytest.raises(ValueError, match=r"pixel 1: sigma\[1\]"):
        fem.ParameterBounds(1.0, np.array([0.5, 1.0]), a, b)
    with pytest.raises(ValueError, match=r"pixel 0"):
        fem.ParameterBounds(1.0, np.array([-0.1, 0.5]), a, b)
    with pytest.raises(ValueError, match="length"):
        fem.assemble_spatial(mesh, part, fem.ParameterBounds(1.0, [0.5], a, b))


def test_spatial_matrices_shape_properties(tiny):
    mesh, part, _ = tiny
    bounds = fem.ParameterBounds(
        1.1, np.full(3, 0.6), np.full(4, 1.0), np.full(4, 10.0)
    )
    sm = fem.assemble_spatial(mesh, part, bounds)
    assert sm.bounds is bounds
    assert sm.n_nodes == mesh.n_nodes
    assert sm.n_pixels == 3
    assert sm.n_electrodes == 4
    for mat in (sm.A0,) + sm.A + sm.S:
        assert mat.shape == (mesh.n_nodes, mesh.n_nodes)
        npt.assert_allclose((mat - mat.T).toarray(), 0.0, atol=1e-15)
