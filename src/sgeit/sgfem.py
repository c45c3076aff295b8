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

With a Legendre basis every G_k, k >= 1, couples only chaos indices of
opposite total-degree parity, so K is 2-cyclic: its blocks between indices
of one parity are B_0 (x) I (Ernst & Ullmann, SIAM J. Matrix Anal. Appl.
2010).  ``solve`` eliminates the larger parity class and treats all current
patterns as one block: conjugate gradients on the Schur complement of the
smaller class, preconditioned by the mean matrix K_0 (x) I, which needs
only a dense factorization of the n_s x n_s matrix K_0, never one of K.
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


def _unit_electrode_triplets(sm: SpatialMatrices):
    """COO triplets of every unit block ``cem_matrix(0, e_m)``, built
    directly with the same stored entries and values.

    The block holds S_m, and in Upsilon and Pi only what zeta = e_m leaves
    nonzero: for m = 1, -g_1 in every column and |E_1| over all of Pi; for
    m > 1, g_m in column m-1 and |E_m| at diagonal entry m-1 of Pi.
    """
    n_d, n_el = sm.n_nodes, sm.n_electrodes
    voltage = n_d + np.arange(n_el - 1)
    for m in range(n_el):
        S = sm.S[m].tocoo()
        cols = voltage if m == 0 else voltage[m - 1 : m]
        nodes = np.flatnonzero(sm.g[m])
        g = (-1.0 if m == 0 else 1.0) * sm.g[m][nodes]
        node, volt = np.repeat(nodes, len(cols)), np.tile(cols, len(nodes))
        ups = np.repeat(g, len(cols))
        pi_r, pi_c = np.repeat(cols, len(cols)), np.tile(cols, len(cols))
        yield (
            np.concatenate([S.row, node, volt, pi_r]),
            np.concatenate([S.col, volt, node, pi_c]),
            np.concatenate([S.data, ups, ups, np.full(len(pi_r), sm.lengths[m])]),
        )


def assemble_system(sm: SpatialMatrices, mm: MomentMatrices) -> SgfemSystem:
    """Assemble the coupled Galerkin matrix K = sum_k B_k (x) G_k.

    The electrode-model matrix is affine in y: B_0 is the model at the
    centre of the box ``sm.bounds`` (A0 and the contact centres (a+b)/2),
    the block B_l of pixel l is just A_l in the top-left corner, and B_{L+m}
    of electrode m is the half-width (b_m-a_m)/2 times the unit block
    ``cem_matrix(0, e_m)``, whose few entries are written down directly.
    Every B_k keeps only its nonzero entries, as ``cem_matrix`` does.  K is
    exactly symmetric without a symmetrization step: the terms have
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
    triplets += [
        (r, c, h * v)
        for h, (r, c, v) in zip(sm.bounds.zeta_half, _unit_electrode_triplets(sm))
    ]
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
    """Chaos indices of the kept and the other parity class, and the two
    off-diagonal blocks K_kj and K_jk of K between them.

    Block rows and columns are numbered spatial index outer, position in
    the class inner, which keeps K's order, so the blocks are sliced out of
    its CSR arrays without a sort.  Raises ValueError if K couples two
    distinct chaos indices of the same parity: then its same-parity blocks
    are not B_0 (x) I and the Schur complement of ``_schur_pcg`` does not
    apply.
    """
    K, n_g, parity = system.K, system.n_chaos, system.parity
    n_s = K.shape[0] // n_g
    kept = parity == system.kept_parity
    classes = (np.flatnonzero(kept), np.flatnonzero(~kept))
    place, size = np.empty(n_g, dtype=np.int64), np.empty(n_g, dtype=np.int64)
    for members in classes:
        place[members], size[members] = np.arange(len(members)), len(members)
    # per row (= column) of K: its number within its class block, and a
    # code 2 mu + parity, so that two codes differ in the lowest bit exactly
    # when the chaos indices differ in parity
    number = (np.arange(n_s)[:, None] * size + place).ravel()
    code = np.tile((2 * np.arange(n_g) + parity).astype(np.int32), n_s)
    row_code = np.repeat(code, np.diff(K.indptr))
    differ = row_code ^ code[K.indices]
    cross = (differ & 1).astype(bool)
    same = np.flatnonzero(~cross & (differ != 0) & (K.data != 0.0))
    if same.size:
        mu, nu = row_code[same[0]] // 2, K.indices[same[0]] % n_g
        raise ValueError(
            f"K couples chaos indices {mu} and {nu} of the same degree parity; "
            "the solver needs the 2-cyclic structure of a Legendre basis"
        )
    from_kept = (row_code & 1) == system.kept_parity

    def block(at, rows):
        """The entries ``at`` of K, which lie in the rows of class ``rows``."""
        at = np.flatnonzero(at)
        starts = K.indptr[np.flatnonzero(np.tile(rows, n_s))]
        indptr = np.r_[np.searchsorted(at, starts), len(at)]
        shape = (n_s * np.count_nonzero(rows), n_s * (n_g - np.count_nonzero(rows)))
        return sp.csr_matrix((K.data[at], number[K.indices[at]], indptr), shape=shape)

    return classes, block(cross & from_kept, kept), block(cross & ~from_kept, ~kept)


def _schur_pcg(system: SgfemSystem, C, tol, maxiter):
    """Conjugate gradients on every column of C at once, on the Schur
    complement of the kept parity class k, preconditioned by K_0^{-1} (x) I.

    K_0 = K[::n_g, ::n_g] is exactly B_0, since G_0 = I and G_k[0, 0] =
    E[y_k] = 0 for k >= 1; it is also each same-parity block of K.  With
    j the other class, the reduced system is

        S_k x_k = (B_0 (x) I) x_k - K_kj (K_0^{-1} (x) I) K_jk x_k
                = c_k - K_kj (K_0^{-1} (x) I) c_j,

    and x_j = (K_0^{-1} (x) I)(c_j - K_jk x_k) afterwards.  The residual of
    the reduced system is that of all of K, whose j rows x_j solves exactly.
    Vectors are kept as (n_s, n_class * n_p) views of (n_s * n_class, n_p)
    blocks: on them K_0^{-1} (x) I is one product with the dense inverse of
    K_0.  Each column has its own step length and direction, and stops
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
    (keep, other), K_kj, K_jk = _parity_split(system)
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
