"""Triangle meshes, electrode boundary data and pixel partitions.

All lengths are in cm.  Node/triangle indices are 0-based; electrode tags
are 1-based (0 marks an untagged boundary edge).  Boundary edges are
oriented so that the domain lies on their left, hence the outward normal
of an edge with direction (dx, dy) is (dy, -dx).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with tagged boundary edges.

    Attributes
    ----------
    nodes : (N, 2) float array of vertex coordinates in cm.
    triangles : (T, 3) int array, counterclockwise vertex triples.
    boundary_edges : (E, 2) int array of oriented boundary segments.
    edge_tags : (E,) int array, electrode tag per edge (1..M, 0 = none).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    edge_tags: np.ndarray
    # the ordered edges of every electrode, from the walk that validated
    # the mesh, for ``electrode_geometry``; None until then
    _electrode_runs: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_electrodes(self) -> int:
        return int(self.edge_tags.max(initial=0))

    def triangle_areas(self) -> np.ndarray:
        """Signed areas of all triangles (positive for CCW)."""
        p = self.nodes[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def triangle_centroids(self) -> np.ndarray:
        return self.nodes[self.triangles].mean(axis=1)


@dataclass(frozen=True)
class PixelPartition:
    """Assignment of every triangle to one of L conductivity pixels.

    ``triangle_pixel[t]`` is the 0-based pixel id of triangle ``t``;
    ``seeds`` are the generating points of the nearest-seed partition.
    """

    seeds: np.ndarray
    triangle_pixel: np.ndarray

    @property
    def n_pixels(self) -> int:
        return self.seeds.shape[0]

    def pixel_triangles(self, pixel: int) -> np.ndarray:
        """Indices of the triangles belonging to one pixel."""
        return np.flatnonzero(self.triangle_pixel == pixel)


@dataclass(frozen=True)
class ElectrodeGeometry:
    """Per-electrode boundary data extracted from a tagged mesh.

    ``edges[m]`` lists the mesh boundary-edge indices of electrode m+1 in
    the order they are walked along the boundary; ``lengths[m]`` is the
    total electrode length |E_{m+1}|.
    """

    edges: tuple[np.ndarray, ...]
    lengths: np.ndarray

    @property
    def n_electrodes(self) -> int:
        return len(self.edges)


def read_json(path):
    """Parse a JSON input file, naming it if it is not UTF-8 JSON."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def write_json(doc, path, **options) -> None:
    """Write a JSON document in one piece, with the bytes of ``json.dump``.

    ``json.dumps`` encodes with CPython's C encoder where ``json.dump`` runs
    the pure-Python one; keyword ``options`` go to ``json.dumps``.
    """
    text = json.dumps(doc, **options)
    with open(path, "w") as f:
        f.write(text)


def require_finite(path, **fields) -> None:
    """Reject an input file whose named fields hold NaN or infinity."""
    for name, value in fields.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{path}: non-finite value in {name}")


def _validate(mesh: Mesh) -> Mesh:
    nodes, tris = mesh.nodes, mesh.triangles
    edges, tags = mesh.boundary_edges, mesh.edge_tags
    n = nodes.shape[0]
    if tris.size and (tris.min() < 0 or tris.max() >= n):
        bad = np.flatnonzero((tris < 0).any(axis=1) | (tris >= n).any(axis=1))[0]
        raise ValueError(f"triangle {bad} references a node index out of range")
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        bad = np.flatnonzero((edges < 0).any(axis=1) | (edges >= n).any(axis=1))[0]
        raise ValueError(f"boundary edge {bad} references a node index out of range")

    areas = mesh.triangle_areas()
    nonpos = np.flatnonzero(areas <= 0.0)
    if nonpos.size:
        t = int(nonpos[0])
        raise ValueError(
            f"non-positive triangle area: triangle {t} has signed area {areas[t]:g}"
        )

    # Boundary edges must close up into directed loops: every participating
    # node appears exactly once as a source and once as a target.
    if edges.size:
        src, counts_s = np.unique(edges[:, 0], return_counts=True)
        tgt, counts_t = np.unique(edges[:, 1], return_counts=True)
        if (
            src.size != tgt.size
            or (src != tgt).any()
            or (counts_s != 1).any()
            or (counts_t != 1).any()
        ):
            raise ValueError("boundary edges do not form closed loops")

    if (tags < 0).any():
        bad = int(np.flatnonzero(tags < 0)[0])
        raise ValueError(f"boundary edge {bad} has a negative electrode tag")
    n_el = int(tags.max(initial=0))
    if n_el:
        present = np.unique(tags[tags > 0])
        missing = sorted(set(range(1, n_el + 1)) - set(present.tolist()))
        if missing:
            raise ValueError(f"electrode {missing[0]} has no boundary edges")
        runs = tuple(_walk_electrode(mesh, m) for m in range(1, n_el + 1))
        object.__setattr__(mesh, "_electrode_runs", runs)
    return mesh


def _walk_electrode(mesh: Mesh, tag: int) -> np.ndarray:
    """Order the edges of one electrode along the boundary.

    Raises if the tagged edges do not form a single contiguous run.
    """
    idx = np.flatnonzero(mesh.edge_tags == tag)
    by_source = {int(mesh.boundary_edges[e, 0]): int(e) for e in idx}
    targets = {int(mesh.boundary_edges[e, 1]) for e in idx}
    starts = [s for s in by_source if s not in targets]
    if len(starts) > 1:
        raise ValueError(f"electrode {tag}: disconnected electrode edge run")
    node = starts[0] if starts else int(mesh.boundary_edges[idx[0], 0])
    ordered = []
    for _ in range(idx.size):
        e = by_source.pop(node, None)
        if e is None:
            raise ValueError(f"electrode {tag}: disconnected electrode edge run")
        ordered.append(e)
        node = int(mesh.boundary_edges[e, 1])
    return np.asarray(ordered, dtype=np.int64)


def load_mesh(path) -> Mesh:
    """Read a mesh from its JSON file and validate every invariant.

    The file holds ``nodes`` (coordinate pairs), ``triangles`` (CCW index
    triples) and ``boundary_edges`` (objects with ``nodes`` and an
    ``electrode`` tag or null).  The first offending entity is reported on
    validation failure.
    """
    raw = read_json(path)
    try:
        nodes = np.asarray(raw["nodes"], dtype=np.float64).reshape(-1, 2)
        tris = np.asarray(raw["triangles"], dtype=np.int64).reshape(-1, 3)
        be = raw["boundary_edges"]
        edges = np.asarray([e["nodes"] for e in be], dtype=np.int64).reshape(-1, 2)
        tags = np.asarray(
            [0 if e.get("electrode") is None else int(e["electrode"]) for e in be],
            dtype=np.int64,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed mesh file ({exc})") from exc
    require_finite(path, nodes=nodes)
    return _validate(Mesh(nodes, tris, edges, tags))


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh to the JSON layout understood by :func:`load_mesh`."""
    doc = {
        "nodes": mesh.nodes.tolist(),
        "triangles": mesh.triangles.tolist(),
        "boundary_edges": [
            {"nodes": ab, "electrode": t if t > 0 else None}
            for ab, t in zip(mesh.boundary_edges.tolist(), mesh.edge_tags.tolist())
        ],
    }
    write_json(doc, path)


def make_disk_fixture(
    n_rings: int, n_sectors: int, n_electrodes: int, coverage: float
) -> Mesh:
    """Polar-grid triangulation of the unit disk with M boundary electrodes.

    The mesh has ``1 + n_rings*n_sectors`` nodes.  Electrodes are equally
    spaced arcs; each covers ``coverage`` of its sector, realized as whole
    boundary edges centred within the sector.  ``n_sectors`` must be a
    multiple of ``n_electrodes`` and the coverage must amount to at least
    one edge per electrode while leaving a gap between neighbours.
    """
    if n_rings < 1 or n_sectors < 3:
        raise ValueError("need n_rings >= 1 and n_sectors >= 3")
    if n_sectors % n_electrodes:
        raise ValueError("n_sectors must be divisible by n_electrodes")
    sector_edges = n_sectors // n_electrodes
    n_edge = int(np.floor(coverage * sector_edges + 1e-9))
    if n_edge < 1:
        raise ValueError("coverage below one boundary edge per electrode")
    if n_edge >= sector_edges:
        raise ValueError("coverage leaves no gap between electrodes")
    offset = (sector_edges - n_edge) // 2

    theta = 2.0 * np.pi * np.arange(n_sectors) / n_sectors
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    radii = np.arange(1, n_rings + 1) / n_rings
    nodes = np.vstack([np.zeros((1, 2)), (radii[:, None, None] * ring).reshape(-1, 2)])

    # node j of ring k >= 1 is 1 + (k-1) n_sectors + j, wrapping in j
    j = np.arange(n_sectors, dtype=np.int64)
    nxt = (j + 1) % n_sectors
    fan = np.column_stack([np.zeros_like(j), 1 + j, 1 + nxt])
    inner = 1 + n_sectors * np.arange(n_rings - 1, dtype=np.int64)[:, None]
    a, b = inner + j, inner + nxt
    c, d = a + n_sectors, b + n_sectors
    # two triangles per cell between rings k and k+1: (a, c, d) and (a, d, b)
    quads = np.stack([a, c, d, a, d, b], axis=-1).reshape(-1, 3)
    tris = np.vstack([fan, quads])

    outer = 1 + (n_rings - 1) * n_sectors
    edges = np.column_stack([outer + j, outer + nxt])
    # electrode m + 1 covers edges offset .. offset + n_edge - 1 of sector m
    sector, within = np.divmod(j - offset, sector_edges)
    tags = np.where(within < n_edge, sector + 1, 0)

    return _validate(Mesh(nodes, tris, edges, tags))


def assign_pixels(mesh: Mesh, seeds: np.ndarray) -> PixelPartition:
    """Partition the triangles among seeds by nearest centroid.

    Ties go to the lowest seed index.  Raises if any seed ends up with an
    empty pixel, listing every empty pixel id.
    """
    seeds = np.asarray(seeds, dtype=np.float64).reshape(-1, 2)
    if seeds.shape[0] == 0:
        raise ValueError("need at least one seed")
    cent = mesh.triangle_centroids()
    d2 = ((cent[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2)
    owner = np.argmin(d2, axis=1).astype(np.int64)
    counts = np.bincount(owner, minlength=seeds.shape[0])
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValueError(f"empty pixels for seeds {empty.tolist()}")
    return PixelPartition(seeds, owner)


def electrode_geometry(mesh: Mesh) -> ElectrodeGeometry:
    """Collect ordered edge runs and total lengths for all electrodes.

    A mesh from ``load_mesh`` or ``make_disk_fixture`` keeps the runs of
    the walk that validated it, so its electrodes are not walked again.
    """
    n_el = mesh.n_electrodes
    if n_el == 0:
        raise ValueError("mesh has no electrodes")
    runs = mesh._electrode_runs
    if runs is None:
        runs = tuple(_walk_electrode(mesh, m) for m in range(1, n_el + 1))
    lengths = np.zeros(n_el)
    for m, run in enumerate(runs):
        vec = mesh.nodes[mesh.boundary_edges[run, 1]] - mesh.nodes[
            mesh.boundary_edges[run, 0]
        ]
        lengths[m] = np.hypot(vec[:, 0], vec[:, 1]).sum()
    return ElectrodeGeometry(runs, lengths)
