"""Stochastic Galerkin system for the randomized complete electrode model.

Couples the FEM matrices of one mesh with the chaos moment matrices into
the symmetric block system

    [[Delta, Upsilon], [Upsilon^T, Pi]] [alpha; beta] = [0; c],

where Delta carries the conductivity and contact terms, Upsilon/Pi the
electrode coupling in the mean-free voltage basis v_i = e_1 - e_{i+1},
and c the injected current pattern.  Unknowns are chaos coefficients of
the interior potential (alpha) and the electrode voltages (beta), stored
with the spatial index outer and the chaos index inner.  The parameter box
enters only through the spatial matrices: their stiffness blocks are
scaled by it, and they carry it for the contact centres and half-widths.

``solve`` treats all current patterns as one block: conjugate gradients
preconditioned by the mean matrix K_0 (x) I, which needs only a dense
factorization of the n_s x n_s matrix K_0, never one of K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .chaos import MomentMatrices
from .fem import SpatialMatrices


@dataclass(frozen=True)
class SgfemSystem:
    """Assembled Galerkin matrix with its size bookkeeping."""

    K: sp.csr_matrix
    n_nodes: int
    n_electrodes: int
    n_chaos: int

    @property
    def order(self) -> int:
        return (self.n_nodes + self.n_electrodes - 1) * self.n_chaos


@dataclass(frozen=True)
class SgfemSolution:
    """Chaos coefficients per current pattern, with solver diagnostics."""

    patterns: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    residuals: np.ndarray
    iterations: int  # block CG iterations

    def mean_voltages(self) -> np.ndarray:
        """Expected electrode voltages (the degree-0 chaos coefficients)."""
        return expand_mean_free(self.beta[:, :, 0])


def expand_mean_free(gamma: np.ndarray) -> np.ndarray:
    """Expand coefficients over v_i = e_1 - e_{i+1} into electrode values."""
    gamma = np.asarray(gamma, dtype=np.float64)
    out = np.empty(gamma.shape[:-1] + (gamma.shape[-1] + 1,))
    out[..., 0] = gamma.sum(axis=-1)
    out[..., 1:] = -gamma
    return out


def cem_matrix(A, zeta, S, g, lengths) -> sp.csr_matrix:
    """Electrode-model block matrix in the mean-free voltage basis.

    Returns [[A + sum_m zeta_m S_m, Upsilon], [Upsilon^T, Pi]] for the
    stiffness ``A``, contact conductances ``zeta`` and the electrode mass
    matrices ``S``, load vectors ``g`` and lengths of one mesh.  Column i
    of Upsilon is zeta_{i+1} g_{i+1} - zeta_1 g_1; Pi is zeta_1 |E_1|
    everywhere plus zeta_{i+1} |E_{i+1}| on the diagonal.  The result is
    linear in the pair (A, zeta); ``A`` may be the scalar 0.
    """
    n_el = len(S)
    delta = A
    for m in range(n_el):
        delta = delta + zeta[m] * S[m]
    ups = np.column_stack(
        [zeta[i + 1] * g[i + 1] - zeta[0] * g[0] for i in range(n_el - 1)]
    )
    pi = np.full((n_el - 1, n_el - 1), zeta[0] * lengths[0])
    pi[np.diag_indices(n_el - 1)] += zeta[1:] * lengths[1:]
    return sp.bmat(
        [[delta, sp.csr_matrix(ups)], [sp.csr_matrix(ups.T), sp.csr_matrix(pi)]],
        format="csr",
    )


def assemble_system(sm: SpatialMatrices, mm: MomentMatrices) -> SgfemSystem:
    """Assemble the coupled Galerkin matrix K = sum_k B_k (x) G_k.

    The electrode-model matrix is affine in y: B_0 is the model at the
    centre of the box ``sm.bounds`` (A0 and the contact centres (a+b)/2),
    the block B_l of pixel l is just A_l in the top-left corner, and B_{L+m}
    of electrode m is the half-width (b_m-a_m)/2 times the unit block
    ``cem_matrix(0, e_m)``: 1 + M model builds, whatever the pixel count.
    Every B_k keeps only its nonzero entries, as ``cem_matrix`` does.  K is
    exactly symmetric without a symmetrization step: the terms have
    disjoint sparsity (G_0 is diagonal, G_k couples only indices that
    differ in dimension k), so each entry is one product B_k[i, j]
    G_k[mu, nu], and every B_k and G_k is exactly symmetric.
    """
    n_pix, n_el = sm.n_pixels, sm.n_electrodes
    if mm.n_dims != n_pix + n_el:
        raise ValueError(
            f"moment matrices cover {mm.n_dims} dimensions, "
            f"spatial data implies {n_pix + n_el}"
        )

    electrodes = (sm.S, sm.g, sm.lengths)
    units = [cem_matrix(0, e_m, *electrodes) for e_m in np.eye(n_el)]
    blocks = [cem_matrix(sm.A0, sm.bounds.zeta_mid, *electrodes), *sm.A]
    blocks += [h * U for h, U in zip(sm.bounds.zeta_half, units)]
    # the COO triplets of every B_k (x) G_k by broadcasting, then one
    # COO-to-CSR conversion for all terms
    n_g = mm[0].shape[0]
    shape = (blocks[0].shape[0] * n_g, blocks[0].shape[1] * n_g)
    index = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    rows, cols, vals = [], [], []
    for B, G in zip(blocks, mm.G):
        B, G = B.tocoo(), G.tocoo()
        nz = B.data != 0.0
        rows.append((B.row[nz].astype(index)[:, None] * n_g + G.row).ravel())
        cols.append((B.col[nz].astype(index)[:, None] * n_g + G.col).ravel())
        vals.append((B.data[nz][:, None] * G.data).ravel())
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape,
    ).tocsr()
    return SgfemSystem(K, sm.n_nodes, n_el, n_g)


def rhs_for_current(system: SgfemSystem, currents) -> np.ndarray:
    """Load vector of one current pattern (mA), nonzero only at the
    degree-0 voltage coefficients: (c_i)_0 = I_1 - I_{i+1}."""
    currents = np.asarray(currents, dtype=np.float64)
    if currents.shape != (system.n_electrodes,):
        raise ValueError("need one current per electrode")
    if abs(currents.sum()) > 1e-12:
        raise ValueError(f"currents must sum to zero, got {currents.sum():g}")
    c = np.zeros(system.order)
    base = system.n_nodes * system.n_chaos
    c[base :: system.n_chaos] = currents[0] - currents[1:]
    return c


def solve(
    system: SgfemSystem,
    patterns,
    tol: float = 1e-10,
    maxiter: int | None = None,
) -> SgfemSolution:
    """Solve the Galerkin system for a batch of current patterns.

    Runs conjugate gradients on all patterns at once, with a step length
    and direction per pattern, preconditioned by K_0^{-1} (x) I where
    K_0 = B_0 is the electrode-model matrix at the parameter mean.  It stops
    once every pattern's residual is at most ``tol`` times its load norm;
    ``tol`` must be positive and finite.  Raises after ``maxiter``
    iterations (default ten times the order), if K_0 is not positive
    definite, or if any relative residual stays above ``tol``.
    """
    patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol:g}")
    K = system.K
    n_d, n_el, n_g = system.n_nodes, system.n_electrodes, system.n_chaos
    # one column per pattern: spatial index outer, chaos inner, pattern last
    C = np.column_stack([rhs_for_current(system, p) for p in patterns])
    if maxiter is None:
        maxiter = 10 * system.order
    X, iterations = _block_pcg(K, C, n_g, tol, maxiter)

    residuals = np.linalg.norm(C - K @ X, axis=0) / np.linalg.norm(C, axis=0)
    for p, rel in enumerate(residuals):
        if rel > tol:
            raise RuntimeError(
                f"pattern {p}: relative residual {rel:.3e} above {tol:g}"
            )
    n_p = patterns.shape[0]
    alpha = X[: n_d * n_g].T.reshape(n_p, n_d, n_g)
    beta = X[n_d * n_g :].T.reshape(n_p, n_el - 1, n_g)
    return SgfemSolution(patterns, alpha, beta, residuals, iterations)


def _block_pcg(K, C, n_g, tol, maxiter):
    """Conjugate gradients on every column of C at once, preconditioned by
    K_0^{-1} (x) I.

    K_0 = K[::n_g, ::n_g] is exactly B_0, since G_0 = I and G_k[0, 0] =
    E[y_k] = 0 for k >= 1.  The iterates are kept as (n_s, n_g * n_p)
    views of the (order, n_p) block: on them K_0^{-1} (x) I is one product
    with the dense inverse of K_0, and the vector updates run along rows
    of length n_g * n_p instead of n_p.  Each column has its own step
    length and direction, and stops moving once its residual norm is at
    most ``tol`` times its load norm.  Returns the solution block and the
    iteration count.
    """
    K0 = K[::n_g, ::n_g].toarray()
    factor, info = lapack.dpotrf(K0, lower=True)
    if info != 0:
        raise RuntimeError(
            "factorization failed; system not positive definite "
            f"(dense Cholesky of K_0, info={info})"
        )
    inv, _ = lapack.dpotri(factor, lower=True)
    K0inv = np.tril(inv) + np.tril(inv, -1).T
    n_s, n_p = K0.shape[0], C.shape[1]

    def column_dots(U, V):
        return np.einsum("ij,ij->j", U, V).reshape(n_g, n_p).sum(axis=0)

    def active_ratio(num, den, done):
        """num / den for each active column (0 where done), repeated
        along a row of the wide view."""
        ratio = np.divide(num, den, out=np.zeros_like(num), where=~done)
        return np.tile(ratio, n_g)

    C = C.reshape(n_s, -1)
    # squared residual norms against squared thresholds
    atol2 = tol**2 * column_dots(C, C)
    X = np.zeros_like(C)
    R = C.copy()
    done = column_dots(R, R) <= atol2
    if done.all():
        return X.reshape(-1, n_p), 0
    Z = K0inv @ R
    D = Z.copy()
    rz = column_dots(R, Z)
    for iteration in range(1, maxiter + 1):
        Q = (K @ D.reshape(-1, n_p)).reshape(n_s, -1)
        step = active_ratio(rz, column_dots(D, Q), done)
        # Z is free until the next preconditioning; Q is dropped before the
        # next product allocates its successor, so one block fewer is alive
        X += np.multiply(D, step, out=Z)
        R -= np.multiply(Q, step, out=Q)
        del Q
        done |= column_dots(R, R) <= atol2
        if done.all():
            return X.reshape(-1, n_p), iteration
        np.matmul(K0inv, R, out=Z)
        rz, rz_old = column_dots(R, Z), rz
        D *= active_ratio(rz, rz_old, done)
        D += Z
    raise RuntimeError(
        f"PCG did not reach tolerance {tol:g} in {maxiter} iterations"
    )


def standard_patterns(n_electrodes: int, amplitude: float = 1.0) -> np.ndarray:
    """The M-1 patterns I^m = amplitude * (e_1 - e_{m+1}), m = 1..M-1."""
    pats = np.zeros((n_electrodes - 1, n_electrodes))
    pats[:, 0] = amplitude
    pats[np.arange(n_electrodes - 1), np.arange(1, n_electrodes)] = -amplitude
    return pats
