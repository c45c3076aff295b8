import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

import sgeit
from conftest import as_scipy, two_ring_layout
from sgeit import fem, geometry
from sgeit._csr import CSRMatrix


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


def stiffness_in_triangle_order(mesh, coeff):
    """Stiffness entries {(i, j): value}, each summed from 0.0 over its
    triangles' terms in triangle order, by the formula of
    ``stiffness_matrix`` on Python floats; a zero coefficient adds none."""
    entries = {}
    for tri, c in zip(mesh.triangles.tolist(), coeff.tolist()):
        if c == 0.0:
            continue
        p = mesh.nodes[tri].tolist()
        b = [
            (p[(i + 1) % 3][1] - p[(i + 2) % 3][1], p[(i + 2) % 3][0] - p[(i + 1) % 3][0])
            for i in range(3)
        ]
        d1 = (p[1][0] - p[0][0], p[1][1] - p[0][1])
        d2 = (p[2][0] - p[0][0], p[2][1] - p[0][1])
        scale = c / (2.0 * (d1[0] * d2[1] - d1[1] * d2[0]))
        for i in range(3):
            for j in range(3):
                term = (b[i][0] * b[j][0] + b[i][1] * b[j][1]) * scale
                key = (tri[i], tri[j])
                entries[key] = entries.get(key, 0.0) + term
    return entries


def assert_bitwise_equal(A, entries):
    keys = sorted(entries)
    rows = [i for i, _ in keys]
    assert A.indptr.tolist() == np.searchsorted(rows, np.arange(A.shape[0] + 1)).tolist()
    assert A.indices.tolist() == [j for _, j in keys]
    assert A.data.tobytes() == np.array([entries[k] for k in keys]).tobytes()


def test_stiffness_sums_every_entry_in_triangle_order():
    # SciPy's COO-to-CSR conversion sums an entry's terms in the order of its
    # index sort, which on the tank mesh moves the last bits of some entries
    mesh = sgeit.make_disk_fixture(10, 32, 8, 0.5)
    part = sgeit.assign_pixels(mesh, two_ring_layout())
    rng = np.random.default_rng(12)
    # det_cem's stiffness: one coefficient per triangle, some of them zero
    coeff = rng.uniform(0.5, 2.0, mesh.n_triangles)
    coeff[rng.random(mesh.n_triangles) < 0.1] = 0.0
    A = fem.stiffness_matrix(mesh, coeff)
    assert_bitwise_equal(A, stiffness_in_triangle_order(mesh, coeff))
    # the background and every pixel, with a pixel of zero magnitude
    sigma = rng.uniform(0.0, 1.0, part.n_pixels)
    sigma[5] = 0.0
    bounds = fem.ParameterBounds(1.1, sigma, np.full(8, 100.0), np.full(8, 1000.0))
    sm = fem.assemble_spatial(mesh, part, bounds)
    background = np.full(mesh.n_triangles, 1.1)
    assert_bitwise_equal(sm.A0, stiffness_in_triangle_order(mesh, background))
    owner = part.triangle_pixel
    for l, A_l in enumerate(sm.A):
        coeff_l = np.where(owner == l, sigma[l], 0.0)
        assert_bitwise_equal(A_l, stiffness_in_triangle_order(mesh, coeff_l))
    assert sm.A[5].nnz == 0


def test_stiffness_kernel_contains_constants():
    mesh = sgeit.make_disk_fixture(4, 16, 8, 0.5)
    K = fem.stiffness_matrix(mesh, np.ones(mesh.n_triangles))
    npt.assert_allclose(K @ np.ones(mesh.n_nodes), 0.0, atol=1e-13)


def test_stiffness_of_a_zero_coefficient_is_the_zero_matrix():
    # no triangle adds a term, so no entry is stored
    mesh = sgeit.make_disk_fixture(2, 8, 4, 0.5)
    K = fem.stiffness_matrix(mesh, np.zeros(mesh.n_triangles))
    assert K.shape == (mesh.n_nodes, mesh.n_nodes)
    assert K.nnz == 0 and K.data.dtype == np.float64
    npt.assert_array_equal(K @ np.ones(mesh.n_nodes), 0.0)


def test_stiffness_keeps_structural_zeros():
    # pattern must be the node adjacency of the contributing triangles,
    # even where entries cancel to zero
    mesh = sgeit.make_disk_fixture(2, 8, 4, 0.5)
    coeff = np.zeros(mesh.n_triangles)
    coeff[:8] = 1.0
    K = as_scipy(fem.stiffness_matrix(mesh, coeff)).tocoo()
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
        S_m = as_scipy(S[m])
        block = S_m[np.ix_([a, b], [a, b])].toarray()
        npt.assert_allclose(block, h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]]))
        npt.assert_allclose(g[m][[a, b]], h / 2.0 * np.ones(2))
        # nothing outside the electrode
        assert S_m.sum() == pytest.approx(h)
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
        npt.assert_allclose(as_scipy(sm.S[m]).sum(), sm.lengths[m], rtol=1e-13)
        npt.assert_allclose(sm.g[m].sum(), sm.lengths[m], rtol=1e-13)


def per_electrode_mass(mesh, eg):
    """S_m and g_m one electrode at a time, through a COO-to-CSR conversion."""
    n = mesh.n_nodes
    S, g = [], []
    for run in eg.edges:
        ab = mesh.boundary_edges[run]
        vec = mesh.nodes[ab[:, 1]] - mesh.nodes[ab[:, 0]]
        h = np.hypot(vec[:, 0], vec[:, 1])
        rows = np.repeat(ab, 2, axis=1).ravel()
        cols = np.tile(ab, (1, 2)).ravel()
        vals = (h[:, None] * np.array([2.0, 1.0, 1.0, 2.0]) / 6.0).ravel()
        S.append(sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr())
        gm = np.zeros(n)
        np.add.at(gm, ab.ravel(), np.repeat(h / 2.0, 2))
        g.append(gm)
    return S, g


@pytest.mark.parametrize(
    "args", [(1, 4, 2, 0.5), (3, 12, 4, 0.5), (10, 32, 8, 0.5), (10, 32, 16, 0.5)]
)
def test_electrode_mass_equals_the_per_electrode_reference(args):
    # the stiffness, B_0, K_kj and the surrogate bytes rest on these arrays
    mesh = sgeit.make_disk_fixture(*args)
    eg = sgeit.electrode_geometry(mesh)
    S, g = fem.assemble_electrode_mass(mesh, eg)
    S_ref, g_ref = per_electrode_mass(mesh, eg)
    assert len(S) == len(g) == eg.n_electrodes
    for S_m, g_m, R_m, h_m in zip(S, g, S_ref, g_ref):
        assert S_m.shape == R_m.shape and isinstance(S_m, CSRMatrix)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(S_m, name), getattr(R_m, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert g_m.tobytes() == h_m.tobytes()


def test_pixel_stiffness_partitions_background(tiny):
    mesh, part, _ = tiny
    sigma = np.array([0.3, 0.5, 0.7])
    bounds = fem.ParameterBounds(2.0, sigma, np.full(4, 1.0), np.full(4, 10.0))
    sm = fem.assemble_spatial(mesh, part, bounds)
    total = sum((as_scipy(sm.A[l]) / sigma[l]).toarray() for l in range(3))
    npt.assert_allclose(total, (as_scipy(sm.A0) / 2.0).toarray(), rtol=1e-12, atol=1e-14)


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
    for mat in map(as_scipy, (sm.A0,) + sm.A + sm.S):
        assert mat.shape == (mesh.n_nodes, mesh.n_nodes)
        npt.assert_allclose((mat - mat.T).toarray(), 0.0, atol=1e-15)
