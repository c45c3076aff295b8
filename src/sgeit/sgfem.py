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

Precompute holds little beyond K and what the surrogate keeps.
``assemble_system`` converts K in slabs of spatial rows into arrays
allocated once.  ``solve`` holds, besides K, the cross block K_kj, the CG
blocks of the smaller class and one block of the larger one, to which it
applies K_0^{-1} in place; it keeps beta and the block of the smaller
class, from which ``SgfemSolution.alpha`` recovers the interior
coefficients on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

from .chaos import MomentMatrices
from .fem import SpatialMatrices

# spatial rows of K that ``assemble_system`` converts to CSR at a time
_SLAB_ROWS = 32
# columns of a block that ``_apply_inverse`` multiplies at a time
_INVERSE_COLS = 1024


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
    """Electrode-voltage chaos coefficients per current pattern, with solver
    diagnostics.

    ``beta`` is (patterns, M-1, n_g), the coefficients the surrogate keeps.
    The interior coefficients are not stored: the solution keeps the system
    and ``kept_block``, the solved block of the kept parity class as a
    (n_s, n_kept * n_patterns) view (see ``_schur_pcg``), from which
    ``alpha`` recovers the rest on demand.
    """

    patterns: np.ndarray
    beta: np.ndarray
    residuals: np.ndarray
    iterations: int  # block CG iterations on the kept parity class
    system: SgfemSystem = field(repr=False, compare=False)
    kept_block: np.ndarray = field(repr=False, compare=False)

    @property
    def alpha(self) -> np.ndarray:
        """Interior-potential chaos coefficients, (patterns, nodes, n_g).

        Recomputed at every access from the kept-class block, by the same
        operations as in ``solve``, so the values are those whose residual
        ``solve`` checked; keep the result to read it more than once.
        """
        system, n_d = self.system, self.system.n_nodes
        blocks = _schur_blocks(system)
        loads = _voltage_loads(system, self.patterns)
        kept, other = _both_classes(system, blocks, loads, self.kept_block)
        return _join(system, blocks[0], kept[:, :n_d], other[:, :n_d])

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

    K is built in slabs of ``_SLAB_ROWS`` spatial rows: the slab's rows of
    every B_k, one CSR range each, are broadcast against G_k and converted
    to CSR once, then written into index and value arrays allocated once
    for nnz = sum_k nnz(B_k) nnz(G_k).  A slab's rows are whole rows of K,
    sorted like those of one conversion of all terms, so K does not depend
    on the slab height; besides K, assembly holds one slab's triplets.
    """
    n_pix, n_el = sm.n_pixels, sm.n_electrodes
    if mm.n_dims != n_pix + n_el:
        raise ValueError(
            f"moment matrices cover {mm.n_dims} dimensions, "
            f"spatial data implies {n_pix + n_el}"
        )

    B0 = cem_matrix(sm.A0, sm.bounds.zeta_mid, sm.S, sm.g, sm.lengths)
    units = _electrode_triplets(sm.S, sm.g, sm.lengths)
    halves = (
        sp.coo_matrix((h * v, (r, c)), shape=B0.shape)
        for h, (r, c, v) in zip(sm.bounds.zeta_half, units)
    )
    blocks = []
    for B in [B0, *sm.A, *halves]:
        # every B_k as CSR of the shape of B_0 (A_l covers the nodes only)
        B = sp.csr_matrix(B, copy=True)
        B.resize(B0.shape)
        B.eliminate_zeros()
        blocks.append(B)
    G = [G_k.tocoo() for G_k in mm.G]
    n_s, n_g = B0.shape[0], mm[0].shape[0]
    n = n_s * n_g
    nnz = sum(B.nnz * len(G_k.data) for B, G_k in zip(blocks, G))
    index = np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64
    # the first row and the column in K of every stored entry of every B_k
    first_rows = [
        np.repeat(np.arange(0, n, n_g, dtype=index), np.diff(B.indptr)) for B in blocks
    ]
    columns = [B.indices.astype(index) * n_g for B in blocks]
    indptr = np.zeros(n + 1, dtype=index)
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    end = 0
    for r0 in range(0, n_s, _SLAB_ROWS):
        r1 = min(r0 + _SLAB_ROWS, n_s)
        size = sum(
            (B.indptr[r1] - B.indptr[r0]) * len(G_k.data) for B, G_k in zip(blocks, G)
        )
        rows, cols = np.empty(size, dtype=index), np.empty(size, dtype=index)
        vals = np.empty(size)
        at = 0
        for B, first, column, G_k in zip(blocks, first_rows, columns, G):
            lo, hi = B.indptr[r0], B.indptr[r1]
            shape = (hi - lo, len(G_k.data))
            part = slice(at, at + shape[0] * shape[1])
            at = part.stop
            np.add(
                first[lo:hi, None] - r0 * n_g, G_k.row, out=rows[part].reshape(shape)
            )
            np.add(column[lo:hi, None], G_k.col, out=cols[part].reshape(shape))
            np.multiply(B.data[lo:hi, None], G_k.data, out=vals[part].reshape(shape))
        slab = sp.coo_matrix((vals, (rows, cols)), shape=((r1 - r0) * n_g, n)).tocsr()
        del rows, cols, vals
        start, end = end, end + slab.nnz
        indices[start:end] = slab.indices
        data[start:end] = slab.data
        indptr[r0 * n_g + 1 : r1 * n_g + 1] = slab.indptr[1:] + start
    K = sp.csr_matrix((data[:end], indices[:end], indptr), shape=(n, n))
    return SgfemSystem(K, sm.n_nodes, n_el, n_g, mm.parity)


def _voltage_loads(system: SgfemSystem, patterns) -> np.ndarray:
    """The nonzero entries of the load of every current pattern (mA), one
    row per pattern: the degree-0 voltage coefficients (c_i)_0 = I_1 -
    I_{i+1}, i = 1..M-1.  The one place a load is built.

    Raises ValueError, naming the pattern, if its currents do not sum to
    zero or if its load is zero (all currents equal), whose relative
    residual would be undefined.
    """
    patterns = np.asarray(patterns, dtype=np.float64)
    if patterns.ndim != 2 or patterns.shape[1] != system.n_electrodes:
        raise ValueError("need one current per electrode")
    for p, total in enumerate(patterns.sum(axis=1)):
        # written so that a non-finite sum fails too
        if not abs(total) <= 1e-12:
            raise ValueError(f"pattern {p}: currents must sum to zero, got {total:g}")
    loads = patterns[:, :1] - patterns[:, 1:]
    zero = np.flatnonzero(~loads.any(axis=1))
    if zero.size:
        raise ValueError(
            f"pattern {zero[0]} loads nothing: its currents are all equal, "
            "so its relative residual is undefined"
        )
    return loads


def rhs_for_current(system: SgfemSystem, currents) -> np.ndarray:
    """Load vector of one current pattern (mA), nonzero only at the
    degree-0 voltage coefficients: (c_i)_0 = I_1 - I_{i+1}."""
    currents = np.asarray(currents, dtype=np.float64)
    c = np.zeros(system.order)
    base = system.n_nodes * system.n_chaos
    c[base :: system.n_chaos] = _voltage_loads(system, currents[None])[0]
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
    count the reduced iterations.  Raises ValueError if a pattern's
    currents do not sum to zero or are all equal, or if K couples two
    distinct chaos indices of the same parity, and RuntimeError after
    ``maxiter`` iterations (default ten times the order), if K_0 is not
    positive definite, or if any relative residual on all of K stays above
    ``tol``.

    The class loads are built from the M-1 nonzeros of each pattern, so
    the dense load block is never formed.  Besides K the solve holds K_kj,
    the dense K_0^{-1}, the CG blocks of the kept class and one block of
    the other class with one chunk of it (``_apply_inverse``).  The
    residual on all of K is checked one pattern at a time, and beta is
    taken from the voltage rows of both classes: the solution of all of K
    is never held, and ``SgfemSolution.alpha`` recovers it on demand.
    """
    patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol:g}")
    loads = _voltage_loads(system, patterns)
    if maxiter is None:
        maxiter = 10 * system.order
    blocks = _schur_blocks(system)
    X, iterations = _schur_pcg(system, blocks, loads, tol, maxiter)
    kept, other = _both_classes(system, blocks, loads, X)

    residuals = np.empty(len(patterns))
    for p, pattern in enumerate(patterns):
        c = rhs_for_current(system, pattern)
        r = system.K @ _join(system, blocks[0], kept[p], other[p]).ravel()
        residuals[p] = np.linalg.norm(np.subtract(c, r, out=r)) / np.linalg.norm(c)
        # written so that a nan residual fails too
        if not residuals[p] <= tol:
            raise RuntimeError(
                f"pattern {p}: relative residual {residuals[p]:.3e} above {tol:g}"
            )
    n_d = system.n_nodes
    beta = _join(system, blocks[0], kept[:, n_d:], other[:, n_d:])
    return SgfemSolution(patterns, beta, residuals, iterations, system, X)


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


def _schur_blocks(system: SgfemSystem):
    """The parity classes and K_kj of ``_parity_split``, and the dense
    inverse of the mean matrix K_0.

    K_0 = K[::n_g, ::n_g] is exactly B_0, since G_0 = I and G_k[0, 0] =
    E[y_k] = 0 for k >= 1; it is also each same-parity block of K.  Its
    Cholesky factor and the ``dpotri`` output are freed once the symmetric
    inverse is formed.  Raises RuntimeError if K_0 is not positive definite.
    """
    n_g = system.n_chaos
    factor, info = lapack.dpotrf(system.K[::n_g, ::n_g].toarray(), lower=True)
    if info != 0:
        raise RuntimeError(
            "factorization failed; system not positive definite "
            f"(dense Cholesky of K_0, info={info})"
        )
    inv, _ = lapack.dpotri(factor, lower=True, overwrite_c=True)
    del factor
    K0inv = np.tril(inv)
    K0inv += np.tril(inv, -1).T
    del inv
    classes, K_kj = _parity_split(system)
    return classes, K_kj, K0inv


def _add_load(system: SgfemSystem, members, loads, V):
    """Add the load of one parity class to its wide view V (see
    ``_schur_pcg``) in place and return V.  The load is nonzero only at the
    degree-0 voltage coefficients, so only if chaos index 0 is a member."""
    n_p = len(loads)
    V.reshape(V.shape[0], -1, n_p)[system.n_nodes :, members == 0] += loads.T[:, None]
    return V


def _apply_inverse(K0inv, V):
    """V <- (K_0^{-1} (x) I) V in place for a wide view V; returns V.

    Runs over chunks of ``_INVERSE_COLS`` columns, so only one chunk is
    held beside V.  The chunking may change the last bit of a column: with
    the Haswell kernels of OpenBLAS 0.3.31, chunks of 1024 columns give
    the bits of one product over all columns on the 328 x 1,477 block of
    the ``tank`` and the 336 x 64,185 block of the paper-scale setup, while
    chunks of 700 columns differ by ~1e-13.
    """
    buf = np.empty((V.shape[0], min(_INVERSE_COLS, V.shape[1])))
    for start in range(0, V.shape[1], _INVERSE_COLS):
        chunk = V[:, start : start + _INVERSE_COLS]
        out = buf[:, : chunk.shape[1]]
        np.matmul(K0inv, chunk, out=out)
        chunk[...] = out
    return V


def _product(A, V, n_p):
    """Sparse block A times a wide view, as a wide view."""
    return (A @ V.reshape(-1, n_p)).reshape(V.shape[0], -1)


def _schur_pcg(system: SgfemSystem, blocks, loads, tol, maxiter):
    """Conjugate gradients on every pattern at once, on the Schur complement
    of the kept parity class k, preconditioned by K_0^{-1} (x) I.

    With j the other class, the reduced system is

        S_k x_k = (B_0 (x) I) x_k - K_kj (K_0^{-1} (x) I) K_jk x_k
                = c_k - K_kj (K_0^{-1} (x) I) c_j,

    and ``_both_classes`` gives x_j afterwards.  K is symmetric, so K_jk is
    the transpose of K_kj, and only K_kj is stored.  The residual of the
    reduced system is that of all of K, whose j rows x_j solves exactly.
    Vectors are kept as (n_s, n_class * n_p) views of (n_s * n_class, n_p)
    blocks, spatial index outer, position in the class next and pattern
    last: on them K_0^{-1} (x) I is one product with the dense inverse of
    K_0.  Each pattern has its own step length and direction, and stops
    moving once its residual norm is at most ``tol`` times its load norm.
    Returns the kept-class block x_k and the iteration count.
    """
    (keep, other), K_kj, K0inv = blocks
    n_g, n_p = system.n_chaos, len(loads)
    B0 = system.K[::n_g, ::n_g]
    K_jk = K_kj.T
    n_s, n_k = B0.shape[0], len(keep)

    def column_dots(U, V):
        return np.einsum("ij,ij->j", U, V).reshape(n_k, n_p).sum(axis=0)

    def active_ratio(num, den, done):
        """num / den for each active column (0 where done), repeated
        along a row of the wide view."""
        ratio = np.divide(num, den, out=np.zeros_like(num), where=~done)
        return np.tile(ratio, n_k)

    # squared residual norms against squared thresholds
    atol2 = tol**2 * np.einsum("ij,ij->i", loads, loads)
    X = np.zeros((n_s, n_k * n_p))
    F = _add_load(system, other, loads, np.zeros((n_s, len(other) * n_p)))
    R = _add_load(system, keep, loads, np.zeros((n_s, n_k * n_p)))
    R -= _product(K_kj, _apply_inverse(K0inv, F), n_p)
    del F
    done = column_dots(R, R) <= atol2
    iteration = 0
    if not done.all():
        Z = K0inv @ R
        D = Z.copy()
        rz = column_dots(R, Z)
        for iteration in range(1, maxiter + 1):
            W = _apply_inverse(K0inv, _product(K_jk, D, n_p))
            Q = B0 @ D - _product(K_kj, W, n_p)
            # freed before the next iteration allocates its own
            del W
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
    return X, iteration


def _both_classes(system: SgfemSystem, blocks, loads, X):
    """The kept-class block X and the other class recovered from it,
    x_j = (K_0^{-1} (x) I)(c_j - K_jk x_k), each as (n_p, n_s, n_class).

    x_j is formed in the block of p = K_jk x_k itself: (0 - p) + c_j
    equals c_j - p in every bit.
    """
    (_, other), K_kj, K0inv = blocks
    n_p = len(loads)
    rest = _product(K_kj.T, X, n_p)
    np.subtract(0.0, rest, out=rest)
    _apply_inverse(K0inv, _add_load(system, other, loads, rest))
    return tuple(np.moveaxis(V.reshape(V.shape[0], -1, n_p), 2, 0) for V in (X, rest))


def _join(system: SgfemSystem, classes, kept, other):
    """Coefficients of the kept and the other class, chaos index last,
    merged into one array over all chaos indices."""
    out = np.empty(kept.shape[:-1] + (system.n_chaos,))
    for members, part in zip(classes, (kept, other)):
        out[..., members] = part
    return out


def standard_patterns(n_electrodes: int, amplitude: float = 1.0) -> np.ndarray:
    """The M-1 patterns I^m = amplitude * (e_1 - e_{m+1}), m = 1..M-1."""
    pats = np.zeros((n_electrodes - 1, n_electrodes))
    pats[:, 0] = amplitude
    pats[np.arange(n_electrodes - 1), np.arange(1, n_electrodes)] = -amplitude
    return pats
