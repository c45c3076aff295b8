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
Every electrode-model matrix, the deterministic one of ``cem_matrix`` (which
``det_cem`` solves) and each Galerkin term B_k, is built from the unit
electrode blocks E_m of ``_electrode_triplets``, the one place that lays
out Upsilon and Pi.

With a Legendre basis every G_k, k >= 1, couples only chaos indices of
opposite total-degree parity, so K is 2-cyclic: its blocks between indices
of one parity are B_0 (x) I (Ernst & Ullmann, SIAM J. Matrix Anal. Appl.
2010).  ``solve`` eliminates the larger parity class and treats all current
patterns as one block: conjugate gradients on the Schur complement of the
smaller class, preconditioned by the mean matrix K_0 (x) I, which needs
only a dense factorization of the n_s x n_s matrix K_0, never one of K,
and of the blocks between the classes only K_kj, since K is symmetric.
CG on that Schur complement takes half the iterations of CG on all of K
(Reid, SIAM J. Numer. Anal. 1972).
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
    """Assembled Galerkin matrix with its size bookkeeping and the
    total-degree parity (0 even, 1 odd) of every chaos index."""

    K: sp.csr_matrix
    n_nodes: int
    n_electrodes: int
    n_chaos: int
    parity: np.ndarray

    @property
    def order(self) -> int:
        return (self.n_nodes + self.n_electrodes - 1) * self.n_chaos

    @property
    def kept_parity(self) -> int:
        """The parity class ``solve`` iterates on: the one with fewer chaos
        indices, odd on a tie."""
        return int(2 * np.count_nonzero(self.parity) <= self.n_chaos)


@dataclass(frozen=True)
class SgfemSolution:
    """Chaos coefficients per current pattern, with solver diagnostics."""

    patterns: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    residuals: np.ndarray
    iterations: int  # block CG iterations on the kept parity class

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


def _electrode_triplets(S, g, lengths):
    """COO triplets of the unit block E_m of every electrode m, the only
    place that lays out Upsilon and Pi.

    E_m holds S_m, and in Upsilon and Pi what zeta = e_m leaves of them:
    for m = 1, -g_1 in every column and |E_1| over all of Pi; for m > 1,
    g_m in column m-1 and |E_m| at diagonal entry m-1 of Pi.  Rows and
    columns count the mesh nodes first, then the M-1 mean-free voltages.
    """
    n_d, n_el = S[0].shape[0], len(S)
    voltage = n_d + np.arange(n_el - 1)
    for m in range(n_el):
        S_m = S[m].tocoo()
        cols = voltage if m == 0 else voltage[m - 1 : m]
        nodes = np.flatnonzero(g[m])
        g_m = (-1.0 if m == 0 else 1.0) * g[m][nodes]
        node, volt = np.repeat(nodes, len(cols)), np.tile(cols, len(nodes))
        ups = np.repeat(g_m, len(cols))
        pi_r, pi_c = np.repeat(cols, len(cols)), np.tile(cols, len(cols))
        yield (
            np.concatenate([S_m.row, node, volt, pi_r]),
            np.concatenate([S_m.col, volt, node, pi_c]),
            np.concatenate([S_m.data, ups, ups, np.full(len(pi_r), lengths[m])]),
        )


def cem_matrix(A, zeta, S, g, lengths) -> sp.csr_matrix:
    """Electrode-model block matrix in the mean-free voltage basis.

    Returns [[A + sum_m zeta_m S_m, Upsilon], [Upsilon^T, Pi]] for the
    sparse stiffness ``A``, contact conductances ``zeta`` and the electrode
    mass matrices ``S``, load vectors ``g`` and lengths of one mesh: the
    sum [[A, 0], [0, 0]] + sum_m zeta_m E_m over the unit blocks E_m of
    ``_electrode_triplets``.  Column i of Upsilon is zeta_{i+1} g_{i+1} -
    zeta_1 g_1; Pi is zeta_1 |E_1| everywhere plus zeta_{i+1} |E_{i+1}| on
    the diagonal.  The result is linear in the pair (A, zeta) and stores
    no zero.
    """
    A = sp.coo_matrix(A)
    n = A.shape[0] + len(S) - 1
    units = _electrode_triplets(S, g, lengths)
    terms = [(A.row, A.col, A.data)]
    terms += [(r, c, z * v) for z, (r, c, v) in zip(zeta, units)]
    rows, cols, vals = (np.concatenate(part) for part in zip(*terms))
    B = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    B.eliminate_zeros()
    return B


def assemble_system(sm: SpatialMatrices, mm: MomentMatrices) -> SgfemSystem:
    """Assemble the coupled Galerkin matrix K = sum_k B_k (x) G_k.

    The electrode-model matrix is affine in y: B_0 is the model at the
    centre of the box ``sm.bounds`` (A0 and the contact centres (a+b)/2),
    the block B_l of pixel l is just A_l in the top-left corner, and B_{L+m}
    of electrode m is the half-width (b_m-a_m)/2 times the unit block
    E_m of ``_electrode_triplets``, from which ``cem_matrix`` also builds
    B_0.  Every B_k keeps only its nonzero entries, as ``cem_matrix`` does.
    K is exactly symmetric without a symmetrization step: the terms have
    disjoint sparsity (G_0 is diagonal, G_k couples only indices that
    differ in dimension k), so each entry is one product B_k[i, j]
    G_k[mu, nu], and every B_k and G_k is exactly symmetric.  The system
    records the parity of every chaos index for ``solve``.
    """
    n_pix, n_el = sm.n_pixels, sm.n_electrodes
    if mm.n_dims != n_pix + n_el:
        raise ValueError(
            f"moment matrices cover {mm.n_dims} dimensions, "
            f"spatial data implies {n_pix + n_el}"
        )

    B0 = cem_matrix(sm.A0, sm.bounds.zeta_mid, sm.S, sm.g, sm.lengths)
    triplets = [(B.row, B.col, B.data) for B in map(sp.coo_matrix, [B0, *sm.A])]
    units = _electrode_triplets(sm.S, sm.g, sm.lengths)
    triplets += [(r, c, h * v) for h, (r, c, v) in zip(sm.bounds.zeta_half, units)]
    # the COO triplets of every B_k (x) G_k by broadcasting, then one
    # COO-to-CSR conversion for all terms
    n_g = mm[0].shape[0]
    shape = (B0.shape[0] * n_g, B0.shape[1] * n_g)
    index = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    rows, cols, vals = [], [], []
    for (r, c, v), G in zip(triplets, mm.G):
        G = G.tocoo()
        nz = v != 0.0
        rows.append((r[nz].astype(index)[:, None] * n_g + G.row).ravel())
        cols.append((c[nz].astype(index)[:, None] * n_g + G.col).ravel())
        vals.append((v[nz][:, None] * G.data).ravel())
    K = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=shape,
    ).tocsr()
    return SgfemSystem(K, sm.n_nodes, n_el, n_g, mm.parity)


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
    and direction per pattern, on the Schur complement of the parity class
    ``system.kept_parity``, preconditioned by K_0^{-1} (x) I where K_0 = B_0
    is the electrode-model matrix at the parameter mean; the other class
    follows from one product with K_0^{-1} at the end.  It stops once every
    pattern's residual is at most ``tol`` times its load norm; ``tol`` must
    be positive and finite.  ``maxiter`` and the returned ``iterations``
    count the reduced iterations.  Raises ValueError if K couples two
    distinct chaos indices of the same parity, and RuntimeError after
    ``maxiter`` iterations (default ten times the order), if K_0 is not
    positive definite, or if any relative residual on all of K stays above
    ``tol``.
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
    X, iterations = _schur_pcg(system, C, tol, maxiter)

    # one pattern at a time: the check adds vectors, not blocks, beside C and X
    residuals = np.array(
        [np.linalg.norm(c - K @ x) / np.linalg.norm(c) for c, x in zip(C.T, X.T)]
    )
    for p, rel in enumerate(residuals):
        if rel > tol:
            raise RuntimeError(
                f"pattern {p}: relative residual {rel:.3e} above {tol:g}"
            )
    n_p = patterns.shape[0]
    alpha = X[: n_d * n_g].T.reshape(n_p, n_d, n_g)
    beta = X[n_d * n_g :].T.reshape(n_p, n_el - 1, n_g)
    return SgfemSolution(patterns, alpha, beta, residuals, iterations)


def _parity_split(system: SgfemSystem):
    """Chaos indices of the kept and the other parity class, and the
    off-diagonal block K_kj of K from the kept rows to the other columns.

    Block rows and columns are numbered spatial index outer, position in
    the class inner, which keeps K's order.  When the same-parity blocks
    of K are B_0 (x) I, K holds n_g nnz(B_0) + 2 nnz(K_kj) entries, since
    K is symmetric; only if that count fails are the entries searched.
    Raises ValueError if K couples two distinct chaos indices of the same
    parity: then the Schur complement of ``_schur_pcg`` does not apply.
    """
    K, n_g, parity = system.K, system.n_chaos, system.parity
    n_s = K.shape[0] // n_g
    kept = parity == system.kept_parity
    classes = (np.flatnonzero(kept), np.flatnonzero(~kept))
    rows_kept, rows_other = (
        (np.arange(n_s)[:, None] * n_g + members).ravel() for members in classes
    )
    K_kj = K[rows_kept][:, rows_other]
    if K.nnz != n_g * K[::n_g, ::n_g].nnz + 2 * K_kj.nnz:
        mu = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr)) % n_g
        nu = K.indices % n_g
        same = np.flatnonzero(
            (mu != nu) & (parity[mu] == parity[nu]) & (K.data != 0.0)
        )
        if same.size:
            raise ValueError(
                f"K couples chaos indices {mu[same[0]]} and {nu[same[0]]} of the "
                "same degree parity; the solver needs the 2-cyclic structure of "
                "a Legendre basis"
            )
    return classes, K_kj


def _schur_pcg(system: SgfemSystem, C, tol, maxiter):
    """Conjugate gradients on every column of C at once, on the Schur
    complement of the kept parity class k, preconditioned by K_0^{-1} (x) I.

    K_0 = K[::n_g, ::n_g] is exactly B_0, since G_0 = I and G_k[0, 0] =
    E[y_k] = 0 for k >= 1; it is also each same-parity block of K.  With
    j the other class, the reduced system is

        S_k x_k = (B_0 (x) I) x_k - K_kj (K_0^{-1} (x) I) K_jk x_k
                = c_k - K_kj (K_0^{-1} (x) I) c_j,

    and x_j = (K_0^{-1} (x) I)(c_j - K_jk x_k) afterwards.  K is symmetric,
    so K_jk is the transpose of K_kj, and only K_kj is stored.  The residual
    of the reduced system is that of all of K, whose j rows x_j solves
    exactly.  Vectors are kept as (n_s, n_class * n_p) views of
    (n_s * n_class, n_p) blocks: on them K_0^{-1} (x) I is one product with
    the dense inverse of K_0.  Each column has its own step length and direction, and stops
    moving once its residual norm is at most ``tol`` times its load norm.
    Returns the solution block and the iteration count.
    """
    K, n_g, n_p = system.K, system.n_chaos, C.shape[1]
    B0 = K[::n_g, ::n_g]
    factor, info = lapack.dpotrf(B0.toarray(), lower=True)
    if info != 0:
        raise RuntimeError(
            "factorization failed; system not positive definite "
            f"(dense Cholesky of K_0, info={info})"
        )
    inv, _ = lapack.dpotri(factor, lower=True)
    K0inv = np.tril(inv) + np.tril(inv, -1).T
    (keep, other), K_kj = _parity_split(system)
    K_jk = K_kj.T
    n_s, n_k = B0.shape[0], len(keep)

    def product(A, V):
        """Sparse block A times a wide view, as a wide view."""
        return (A @ V.reshape(-1, n_p)).reshape(n_s, -1)

    def column_dots(U, V):
        return np.einsum("ij,ij->j", U, V).reshape(n_k, n_p).sum(axis=0)

    def active_ratio(num, den, done):
        """num / den for each active column (0 where done), repeated
        along a row of the wide view."""
        ratio = np.divide(num, den, out=np.zeros_like(num), where=~done)
        return np.tile(ratio, n_k)

    def load(members):
        """The rows of C in one class, as a wide view."""
        return np.take(C.reshape(n_s, n_g, n_p), members, axis=1).reshape(n_s, -1)

    # squared residual norms against squared thresholds
    atol2 = tol**2 * np.einsum("ij,ij->j", C, C)
    X = np.zeros((n_s, n_k * n_p))
    R = load(keep) - product(K_kj, K0inv @ load(other))
    done = column_dots(R, R) <= atol2
    iteration = 0
    if not done.all():
        Z = K0inv @ R
        D = Z.copy()
        rz = column_dots(R, Z)
        for iteration in range(1, maxiter + 1):
            Q = B0 @ D - product(K_kj, K0inv @ product(K_jk, D))
            step = active_ratio(rz, column_dots(D, Q), done)
            # Z is free until the next preconditioning
            X += np.multiply(D, step, out=Z)
            R -= np.multiply(Q, step, out=Q)
            done |= column_dots(R, R) <= atol2
            if done.all():
                break
            np.matmul(K0inv, R, out=Z)
            rz, rz_old = column_dots(R, Z), rz
            D *= active_ratio(rz, rz_old, done)
            D += Z
        else:
            raise RuntimeError(
                f"PCG did not reach tolerance {tol:g} in {maxiter} iterations"
            )
    rest = load(other)
    rest -= product(K_jk, X)
    rest = K0inv @ rest
    full = np.empty((n_s, n_g, n_p))
    full[:, keep] = X.reshape(n_s, n_k, n_p)
    full[:, other] = rest.reshape(n_s, -1, n_p)
    return full.reshape(-1, n_p), iteration


def standard_patterns(n_electrodes: int, amplitude: float = 1.0) -> np.ndarray:
    """The M-1 patterns I^m = amplitude * (e_1 - e_{m+1}), m = 1..M-1."""
    pats = np.zeros((n_electrodes - 1, n_electrodes))
    pats[:, 0] = amplitude
    pats[np.arange(n_electrodes - 1), np.arange(1, n_electrodes)] = -amplitude
    return pats
