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

from ._csr import CSRMatrix, index_type
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

    The matrices are ``_csr.CSRMatrix``: CSR arrays with products on
    SciPy's compiled kernels, loaded without the SciPy packages.  Those
    kernels (``scipy.sparse._sparsetools``) are private SciPy API, checked
    on SciPy 1.17.1 and guarded by the Tier-1 test ``tests/test_csr.py``.

    Attributes
    ----------
    A0 : background stiffness, already scaled by sigma0.
    A : tuple of pixel-restricted stiffness matrices, scaled by sigma[l].
    S : tuple of electrode boundary mass matrices.
    g : tuple of electrode boundary load vectors (sum equals |E_m|).
    lengths : (M,) electrode lengths |E_m| in cm.
    bounds : the parameter box that A0 and A were scaled by.
    """

    A0: CSRMatrix
    A: tuple[CSRMatrix, ...]
    S: tuple[CSRMatrix, ...]
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


def stiffness_matrix(mesh: Mesh, coeff: np.ndarray) -> CSRMatrix:
    """Assemble int coeff grad(phi_i).grad(phi_j) with per-triangle coeff.

    Entries are exact for linear elements: each triangle contributes
    coeff * (b_i . b_j) / (4 area), where b_i are the edge-normal vectors
    opposite node i.  Each entry sums its terms in triangle order
    (``summed_csr``).  Structural zeros are kept so the sparsity pattern is
    exactly the node adjacency of the triangles with nonzero coefficient.
    """
    (A,) = _stiffness_matrices(mesh, np.asarray(coeff, dtype=np.float64)[None])
    return A


def _stiffness_matrices(mesh: Mesh, coeffs: np.ndarray) -> tuple[CSRMatrix, ...]:
    """``stiffness_matrix`` of every row of the (B, n_triangles) array
    ``coeffs``, in one pass: the element matrices are computed once, and
    matrix r is assembled as rows r n + i of one stacked matrix, so each
    sums only its own triangles."""
    n, tri = mesh.n_nodes, mesh.triangles
    p = mesh.nodes[tri]
    b = np.empty((tri.shape[0], 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        b[:, i, 0] = p[:, j, 1] - p[:, k, 1]
        b[:, i, 1] = p[:, k, 0] - p[:, j, 0]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area2 = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    # b_i . b_j by elementwise ufuncs, which fuse no multiply-add
    dots = b[:, :, None, 0] * b[:, None, :, 0] + b[:, :, None, 1] * b[:, None, :, 1]
    # the terms of every matrix in triangle order; a zero coefficient adds none
    r, t = np.nonzero(coeffs)
    # area2 is twice the signed area; positivity was validated on load
    vals = dots[t] * (coeffs[r, t] / (2.0 * area2[t]))[:, None, None]
    at = tri[t] + n * r[:, None]
    rows = np.repeat(at, 3, axis=1).ravel()
    cols = np.tile(tri[t], (1, 3)).ravel()
    return _split(summed_csr(rows, cols, vals.ravel(), len(coeffs) * n, n), n)


def summed_csr(rows, cols, vals, n_rows: int, n_cols: int):
    """CSR arrays ``(data, indices, indptr)`` of COO triplets, with sorted
    indices and each entry the sum of its duplicates in the order given.

    SciPy's COO-to-CSR conversion sums duplicates after an index sort that
    need not keep their order; that changes no bit of an entry of at most
    two terms, as a + b = b + a.  No zero is dropped.
    """
    key = np.asarray(rows, dtype=np.int64) * n_cols + cols
    unique, slot = np.unique(key, return_inverse=True)
    # with no triplet at all bincount counts in int64
    data = np.bincount(slot, vals, unique.size).astype(np.float64, copy=False)
    row, col = np.divmod(unique, n_cols)
    indptr = np.searchsorted(row, np.arange(n_rows + 1))
    index = index_type(n_cols, unique.size)
    return data, col.astype(index), indptr.astype(index)


def _split(csr, n: int) -> tuple[CSRMatrix, ...]:
    """The n x n blocks of rows 0..n-1, n..2n-1, ... of the n-column matrix
    given by the CSR arrays ``(data, indices, indptr)``."""
    data, indices, indptr = csr
    blocks = []
    for start in range(0, len(indptr) - 1, n):
        ptr = indptr[start : start + n + 1]
        part = slice(ptr[0], ptr[-1])
        blocks.append(CSRMatrix(data[part], indices[part], ptr - ptr[0], (n, n)))
    return tuple(blocks)


def assemble_electrode_mass(
    mesh: Mesh, eg: ElectrodeGeometry
) -> tuple[tuple[CSRMatrix, ...], tuple[np.ndarray, ...]]:
    """Boundary mass matrix S_m and load vector g_m for every electrode.

    On an edge of length h the local mass is h/6 * [[2, 1], [1, 2]] and the
    local load is h/2 * [1, 1]; hence sum(g_m) = |E_m| and the total mass
    of S_m equals |E_m|.  All electrodes are assembled in one pass, as rows
    m n + i of one stacked matrix, so each S_m sums only its own edges.
    """
    n, n_el = mesh.n_nodes, eg.n_electrodes
    ab = mesh.boundary_edges[np.concatenate(eg.edges)]
    vec = mesh.nodes[ab[:, 1]] - mesh.nodes[ab[:, 0]]
    h = np.hypot(vec[:, 0], vec[:, 1])
    # the nodes of every edge, moved to the rows of its electrode
    electrode = np.repeat(np.arange(n_el), [len(run) for run in eg.edges])
    at = ab + n * electrode[:, None]
    rows = np.repeat(at, 2, axis=1).ravel()
    cols = np.tile(ab, (1, 2)).ravel()
    vals = (h[:, None] * np.array([2.0, 1.0, 1.0, 2.0]) / 6.0).ravel()
    S = _split(summed_csr(rows, cols, vals, n_el * n, n), n)
    g = np.bincount(at.ravel(), weights=np.repeat(h / 2.0, 2), minlength=n_el * n)
    return S, tuple(g.reshape(n_el, n))


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
    # row 0 the background on every triangle, row l + 1 pixel l on its own
    owner, every = partition.triangle_pixel, np.arange(mesh.n_triangles)
    coeffs = np.zeros((partition.n_pixels + 1, mesh.n_triangles))
    coeffs[0] = bounds.sigma0
    coeffs[owner + 1, every] = bounds.sigma[owner]
    A0, *A = _stiffness_matrices(mesh, coeffs)
    S, g = assemble_electrode_mass(mesh, eg)
    return SpatialMatrices(A0, tuple(A), S, g, eg.lengths.copy(), bounds)
