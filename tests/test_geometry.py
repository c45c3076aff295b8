import json
import math

import numpy as np
import numpy.testing as npt
import pytest

import sgeit
from conftest import json_dump_text
from sgeit import geometry


def test_disk_fixture_counts():
    # 2 rings x 8 sectors: hub + 16 ring nodes, 8 fan + 16 quad triangles
    mesh = sgeit.make_disk_fixture(2, 8, 4, 0.5)
    assert mesh.n_nodes == 17
    assert mesh.n_triangles == 24
    assert mesh.boundary_edges.shape == (8, 2)
    assert mesh.n_electrodes == 4
    for m in range(1, 5):
        assert int((mesh.edge_tags == m).sum()) == 1


def test_disk_fixture_minimal():
    mesh = sgeit.make_disk_fixture(1, 4, 2, 0.5)
    assert mesh.n_nodes == 5
    assert mesh.n_triangles == 4


def test_disk_fixture_electrode_length():
    # one edge per electrode on the unit circle: chord of a 45 degree arc
    mesh = sgeit.make_disk_fixture(2, 8, 4, 0.5)
    eg = sgeit.electrode_geometry(mesh)
    npt.assert_allclose(eg.lengths, 2.0 * math.sin(math.pi / 8), rtol=1e-14)


def test_disk_fixture_positive_areas_and_closed_boundary():
    mesh = sgeit.make_disk_fixture(5, 24, 8, 0.5)
    assert (mesh.triangle_areas() > 0.0).all()
    src = np.sort(mesh.boundary_edges[:, 0])
    tgt = np.sort(mesh.boundary_edges[:, 1])
    npt.assert_array_equal(src, tgt)


def test_disk_fixture_total_area():
    # polygonal approximation of the unit disk from below
    mesh = sgeit.make_disk_fixture(20, 64, 8, 0.5)
    area = mesh.triangle_areas().sum()
    assert 0.99 * math.pi < area < math.pi


@pytest.mark.parametrize(
    "args",
    [
        (0, 8, 4, 0.5),
        (1, 2, 2, 0.5),
        (2, 9, 4, 0.5),     # sectors not divisible by electrodes
        (2, 8, 4, 0.05),    # below one edge
        (2, 8, 4, 1.0),     # no gap left
    ],
)
def test_disk_fixture_rejects(args):
    with pytest.raises(ValueError):
        sgeit.make_disk_fixture(*args)


def test_validate_node_index_out_of_range():
    mesh = sgeit.make_disk_fixture(1, 4, 2, 0.5)
    tris = mesh.triangles.copy()
    tris[2, 1] = 99
    with pytest.raises(ValueError, match="triangle 2"):
        geometry._validate(
            geometry.Mesh(mesh.nodes, tris, mesh.boundary_edges, mesh.edge_tags)
        )


def test_validate_flipped_triangle():
    mesh = sgeit.make_disk_fixture(1, 4, 2, 0.5)
    tris = mesh.triangles.copy()
    tris[1] = tris[1, ::-1]
    with pytest.raises(ValueError, match="non-positive triangle area: triangle 1"):
        geometry._validate(
            geometry.Mesh(mesh.nodes, tris, mesh.boundary_edges, mesh.edge_tags)
        )


def test_validate_open_boundary():
    mesh = sgeit.make_disk_fixture(1, 4, 2, 0.5)
    edges = mesh.boundary_edges.copy()
    edges[0] = edges[0, ::-1]
    with pytest.raises(ValueError, match="closed loops"):
        geometry._validate(
            geometry.Mesh(mesh.nodes, mesh.triangles, edges, mesh.edge_tags)
        )


def test_validate_missing_electrode():
    mesh = sgeit.make_disk_fixture(1, 4, 2, 0.5)
    tags = mesh.edge_tags.copy()
    tags[tags == 1] = 0
    with pytest.raises(ValueError, match="electrode 1 has no boundary edges"):
        geometry._validate(
            geometry.Mesh(mesh.nodes, mesh.triangles, mesh.boundary_edges, tags)
        )


def test_validate_disconnected_electrode():
    # tag two opposite edges with the same electrode id
    mesh = sgeit.make_disk_fixture(2, 8, 1, 0.25)
    tags = mesh.edge_tags.copy()
    first = int(np.flatnonzero(tags == 1)[0])
    tags[(first + 4) % 8] = 1
    with pytest.raises(ValueError, match="disconnected"):
        geometry._validate(
            geometry.Mesh(mesh.nodes, mesh.triangles, mesh.boundary_edges, tags)
        )


def test_mesh_roundtrip(tmp_path):
    mesh = sgeit.make_disk_fixture(3, 12, 4, 0.5)
    path = tmp_path / "mesh.json"
    sgeit.save_mesh(mesh, path)
    back = sgeit.load_mesh(path)
    npt.assert_array_equal(back.nodes, mesh.nodes)
    npt.assert_array_equal(back.triangles, mesh.triangles)
    npt.assert_array_equal(back.boundary_edges, mesh.boundary_edges)
    npt.assert_array_equal(back.edge_tags, mesh.edge_tags)


def test_save_mesh_writes_the_bytes_of_json_dump(tmp_path):
    # half the boundary edges of this mesh carry no electrode (null)
    mesh = sgeit.make_disk_fixture(3, 12, 4, 0.5)
    assert (mesh.edge_tags == 0).any()
    doc = {
        "nodes": mesh.nodes.tolist(),
        "triangles": mesh.triangles.tolist(),
        "boundary_edges": [
            {"nodes": [int(a), int(b)], "electrode": int(t) if t > 0 else None}
            for (a, b), t in zip(mesh.boundary_edges, mesh.edge_tags)
        ],
    }
    path = tmp_path / "mesh.json"
    sgeit.save_mesh(mesh, path)
    assert path.read_text() == json_dump_text(doc)


def loop_disk_fixture(n_rings, n_sectors, n_electrodes, coverage):
    """The arrays of ``make_disk_fixture``, built node by node and edge by edge."""
    sector_edges = n_sectors // n_electrodes
    n_edge = int(np.floor(coverage * sector_edges + 1e-9))
    offset = (sector_edges - n_edge) // 2
    theta = 2.0 * np.pi * np.arange(n_sectors) / n_sectors
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    nodes = [np.zeros((1, 2))]
    for k in range(1, n_rings + 1):
        nodes.append(ring * (k / n_rings))

    def nid(k, j):
        return 1 + (k - 1) * n_sectors + (j % n_sectors)

    tris = [[0, nid(1, j), nid(1, j + 1)] for j in range(n_sectors)]
    for k in range(1, n_rings):
        for j in range(n_sectors):
            tris.append([nid(k, j), nid(k + 1, j), nid(k + 1, j + 1)])
            tris.append([nid(k, j), nid(k + 1, j + 1), nid(k, j + 1)])
    edges = [[nid(n_rings, j), nid(n_rings, j + 1)] for j in range(n_sectors)]
    tags = np.zeros(n_sectors, dtype=np.int64)
    for m in range(n_electrodes):
        lo = m * sector_edges + offset
        tags[lo : lo + n_edge] = m + 1
    as_int = [np.asarray(x, dtype=np.int64) for x in (tris, edges)]
    return np.vstack(nodes), *as_int, tags


@pytest.mark.parametrize(
    "args",
    [(1, 3, 1, 0.5), (1, 4, 2, 0.5), (3, 12, 4, 0.5), (2, 9, 3, 0.34), (5, 30, 5, 0.2),
     (10, 32, 8, 0.5), (10, 32, 16, 0.5), (20, 64, 8, 0.5)],
)
def test_disk_fixture_equals_the_loop_built_reference(args):
    mesh = sgeit.make_disk_fixture(*args)
    got = (mesh.nodes, mesh.triangles, mesh.boundary_edges, mesh.edge_tags)
    for a, b in zip(got, loop_disk_fixture(*args)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_load_mesh_rejects_bad_json(tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        sgeit.load_mesh(path)


def test_load_mesh_rejects_missing_key(tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({"nodes": [[0.0, 0.0]]}))
    with pytest.raises(ValueError, match="malformed"):
        sgeit.load_mesh(path)


def test_assign_pixels_nearest_centroid():
    mesh = sgeit.make_disk_fixture(4, 16, 4, 0.5)
    rng = np.random.default_rng(0)
    seeds = 0.8 * (rng.random((5, 2)) - 0.5)
    part = sgeit.assign_pixels(mesh, seeds)
    cents = mesh.triangle_centroids()
    d = np.linalg.norm(cents[:, None, :] - seeds[None, :, :], axis=2)
    npt.assert_array_equal(part.triangle_pixel, np.argmin(d, axis=1))
    assert part.n_pixels == 5
    for l in range(5):
        assert part.pixel_triangles(l).size > 0


def test_assign_pixels_tie_breaks_low():
    # two seeds mirror-symmetric about the y axis: centroids on the axis
    # (there are none here, so construct an exact tie by duplicating)
    mesh = sgeit.make_disk_fixture(2, 8, 4, 0.5)
    seeds = np.array([[0.3, 0.1], [0.3, 0.1], [-0.4, 0.0]])
    with pytest.raises(ValueError, match="empty pixels"):
        sgeit.assign_pixels(mesh, seeds)


def test_assign_pixels_empty_pixel_error():
    mesh = sgeit.make_disk_fixture(2, 8, 4, 0.5)
    seeds = np.array([[0.0, 0.0], [5.0, 5.0]])  # second seed too far out
    with pytest.raises(ValueError, match=r"empty pixels for seeds \[1\]"):
        sgeit.assign_pixels(mesh, seeds)


def test_electrode_geometry_walk_order():
    mesh = sgeit.make_disk_fixture(3, 24, 4, 0.75)
    eg = sgeit.electrode_geometry(mesh)
    assert eg.n_electrodes == 4
    for m in range(4):
        run = eg.edges[m]
        assert run.size == 4
        # consecutive edges chain head to tail
        for e1, e2 in zip(run[:-1], run[1:]):
            assert mesh.boundary_edges[e1, 1] == mesh.boundary_edges[e2, 0]
        length = sum(
            np.linalg.norm(
                mesh.nodes[mesh.boundary_edges[e, 1]]
                - mesh.nodes[mesh.boundary_edges[e, 0]]
            )
            for e in run
        )
        npt.assert_allclose(eg.lengths[m], length, rtol=1e-14)


def test_a_set_up_walks_each_electrode_once(tmp_path, monkeypatch):
    # validation walks every electrode; electrode_geometry reuses that walk
    # on a validated mesh and walks a mesh built without validation itself,
    # with the same runs and lengths
    walked = []
    walk = geometry._walk_electrode

    def counting(mesh, tag):
        walked.append(tag)
        return walk(mesh, tag)

    monkeypatch.setattr(geometry, "_walk_electrode", counting)
    path = tmp_path / "mesh.json"
    sgeit.save_mesh(sgeit.make_disk_fixture(3, 24, 4, 0.75), path)
    walked.clear()
    mesh = sgeit.load_mesh(path)
    eg = sgeit.electrode_geometry(mesh)
    assert walked == [1, 2, 3, 4]
    bare = geometry.Mesh(
        mesh.nodes, mesh.triangles, mesh.boundary_edges, mesh.edge_tags
    )
    again = sgeit.electrode_geometry(bare)
    assert walked == [1, 2, 3, 4] * 2
    for got, want in zip(again.edges, eg.edges):
        npt.assert_array_equal(got, want)
    npt.assert_array_equal(again.lengths, eg.lengths)


def test_electrode_arcs_shared_across_refinements(disk_seeds):
    """Refining rings and sectors together keeps the electrode arcs fixed."""
    def arcs(mesh):
        eg = sgeit.electrode_geometry(mesh)
        out = []
        for run in eg.edges:
            n0 = mesh.boundary_edges[run[0], 0]
            n1 = mesh.boundary_edges[run[-1], 1]
            out.append(
                (math.atan2(*mesh.nodes[n0][::-1]), math.atan2(*mesh.nodes[n1][::-1]))
            )
        return np.asarray(out)

    a = arcs(sgeit.make_disk_fixture(10, 32, 8, 0.5))
    b = arcs(sgeit.make_disk_fixture(16, 32, 8, 0.5))
    c = arcs(sgeit.make_disk_fixture(20, 64, 8, 0.5))
    npt.assert_allclose(a, b, atol=1e-12)
    npt.assert_allclose(a, c, atol=1e-12)
