"""Parameter box and piecewise-linear finite element matrices for the
complete electrode model.

``ParameterBounds`` holds and checks the box: pixel l has conductivity
sigma0 + sigma[l] y_l and electrode m contact conductance
(a_m+b_m)/2 + (b_m-a_m)/2 y_{L+m}, over y in [-1, 1]^(L+M).  The stiffness
matrices (background plus one restriction per pixel) are scaled by it; each
electrode adds a boundary mass matrix and load vector for the contact
terms.  Conductivity is in mS, contact conductance in mS/cm, lengths in cm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import ElectrodeGeometry, Mesh, PixelPartition, electrode_geometry


@dataclass(frozen=True)
class ParameterBounds:
    """Affine parametrization of conductivity pixels and contacts.

    Requires one-dimensional sigma, a and b, finite entries, sigma0 > 0,
    0 <= sigma[l] < sigma0 (so the conductivity stays positive over the
    whole box), 0 < a_m <= b_m (equal bounds give a deterministic contact),
    and box ends that stay positive and finite in float64 as
    ``det_cem.params_from_y`` computes them.
    """

    sigma0: float
    sigma: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "sigma0", float(self.sigma0))
        for name in ("sigma", "a", "b"):
            value = np.asarray(getattr(self, name), float)
            if value.ndim != 1:
                raise ValueError(f"{name} must be a one-dimensional array")
            object.__setattr__(self, name, value)
        for name in ("sigma0", "sigma", "a", "b"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite value in {name}")
        sigma0, sigma, a, b = self.sigma0, self.sigma, self.a, self.b
        if sigma0 <= 0.0:
            raise ValueError(f"sigma0 must be positive, got {sigma0:g}")
        bad = np.flatnonzero((sigma < 0.0) | (sigma >= sigma0))
        if bad.size:
            l = int(bad[0])
            raise ValueError(
                f"pixel {l}: sigma[{l}] = {sigma[l]:g} violates "
                f"0 <= sigma < sigma0 = {sigma0:g}"
            )
        if a.shape != b.shape:
            raise ValueError("contact bound arrays differ in length")
        bad = np.flatnonzero((a <= 0.0) | (a > b))
        if bad.size:
            m = int(bad[0])
            raise ValueError(
                f"electrode {m + 1}: invalid contact bounds a={a[m]:g}, "
                f"b={b[m]:g}; need 0 < a <= b"
            )
        # the box ends as the map computes them: sigma0 + sigma can overflow,
        # and (a+b)/2 - (b-a)/2 can overflow or round to zero when b >> a
        with np.errstate(over="ignore"):
            ends = np.concatenate([sigma0 + sigma, self.zeta_mid - self.zeta_half])
        bad = np.flatnonzero(~((ends > 0.0) & (ends < np.inf)))
        if bad.size:
            k, L = int(bad[0]), sigma.size
            where = f"pixel {k}" if k < L else f"electrode {k - L + 1}"
            raise ValueError(f"{where}: box end {ends[k]:g} is not positive and finite")

    @property
    def n_pixels(self) -> int:
        return self.sigma.shape[0]

    @property
    def n_electrodes(self) -> int:
        return self.a.shape[0]

    @property
    def n_params(self) -> int:
        return self.n_pixels + self.n_electrodes

    # centre and half-width of each contact interval
    @property
    def zeta_mid(self) -> np.ndarray:
        return 0.5 * (self.a + self.b)

    @property
    def zeta_half(self) -> np.ndarray:
        return 0.5 * (self.b - self.a)


@dataclass(frozen=True)
class SpatialMatrices:
    """FEM building blocks of the electrode model on one mesh.

    Attributes
    ----------
    A0 : background stiffness, already scaled by sigma0.
    A : tuple of pixel-restricted stiffness matrices, scaled by sigma[l].
    S : tuple of electrode boundary mass matrices.
    g : tuple of electrode boundary load vectors (sum equals |E_m|).
    lengths : (M,) electrode lengths |E_m| in cm.
    bounds : the parameter box that A0 and A were scaled by.
    """

    A0: sp.csr_matrix
    A: tuple[sp.csr_matrix, ...]
    S: tuple[sp.csr_matrix, ...]
    g: tuple[np.ndarray, ...]
    lengths: np.ndarray
    bounds: ParameterBounds

    @property
    def n_nodes(self) -> int:
        return self.A0.shape[0]

    @property
    def n_pixels(self) -> int:
        return len(self.A)

    @property
    def n_electrodes(self) -> int:
        return len(self.S)


def stiffness_matrix(mesh: Mesh, coeff: np.ndarray) -> sp.csr_matrix:
    """Assemble int coeff grad(phi_i).grad(phi_j) with per-triangle coeff.

    Entries are exact for linear elements: each triangle contributes
    coeff * (b_i . b_j) / (4 area), where b_i are the edge-normal vectors
    opposite node i.  Structural zeros are kept so the sparsity pattern is
    exactly the node adjacency of the triangles with nonzero coefficient.
    """
    n = mesh.n_nodes
    tri = mesh.triangles
    keep = np.flatnonzero(coeff != 0.0)
    if keep.size == 0:
        return sp.csr_matrix((n, n))
    tri = tri[keep]
    c = coeff[keep]
    p = mesh.nodes[tri]
    b = np.empty((tri.shape[0], 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        b[:, i, 0] = p[:, j, 1] - p[:, k, 1]
        b[:, i, 1] = p[:, k, 0] - p[:, j, 0]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    # area2 is twice the signed area; positivity was validated on load
    scale = c / (2.0 * area2)
    vals = np.einsum("tid,tjd->tij", b, b) * scale[:, None, None]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assemble_electrode_mass(
    mesh: Mesh, eg: ElectrodeGeometry
) -> tuple[tuple[sp.csr_matrix, ...], tuple[np.ndarray, ...]]:
    """Boundary mass matrix S_m and load vector g_m for every electrode.

    On an edge of length h the local mass is h/6 * [[2, 1], [1, 2]] and the
    local load is h/2 * [1, 1]; hence sum(g_m) = |E_m| and the total mass
    of S_m equals |E_m|.
    """
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
    return tuple(S), tuple(g)


def assemble_spatial(
    mesh: Mesh, partition: PixelPartition, bounds: ParameterBounds
) -> SpatialMatrices:
    """Bundle all FEM matrices of one mesh, partition and parameter box.

    ``A0`` is the global stiffness scaled by the background conductivity
    ``bounds.sigma0``; ``A[l]`` is the stiffness restricted to pixel l and
    scaled by the perturbation magnitude ``bounds.sigma[l]``.
    """
    eg = electrode_geometry(mesh)
    if bounds.n_pixels != partition.n_pixels:
        raise ValueError("sigma length does not match the pixel count")
    if bounds.n_electrodes != eg.n_electrodes:
        raise ValueError("need one contact bound pair per electrode")
    owner = partition.triangle_pixel
    A0 = stiffness_matrix(mesh, np.full(mesh.n_triangles, bounds.sigma0))
    A = tuple(
        stiffness_matrix(mesh, np.where(owner == l, bounds.sigma[l], 0.0))
        for l in range(partition.n_pixels)
    )
    S, g = assemble_electrode_mass(mesh, eg)
    return SpatialMatrices(A0, A, S, g, eg.lengths.copy(), bounds)
