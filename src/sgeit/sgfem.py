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
opposite total-degree parity, so K = sum_k B_k (x) G_k is 2-cyclic: its
blocks between indices of one parity are B_0 (x) I (Ernst & Ullmann, SIAM
J. Matrix Anal. Appl. 2010).  ``solve`` eliminates the larger parity class
and treats all current patterns as one block: conjugate gradients on the
Schur complement of the smaller class, preconditioned by the mean matrix
K_0 (x) I, K_0 = B_0, which needs only a dense factorization of the
n_s x n_s matrix B_0, and of the blocks between the classes only K_kj,
since K is symmetric.  CG on that Schur complement takes half the
iterations of CG on all of K (Reid, SIAM J. Numer. Anal. 1972).

K itself, n_g copies of B_0 and K_kj, is never formed (as in Powell &
Elman, IMA J. Numer. Anal. 2009): ``assemble_system`` builds only B_0 and
K_kj.  Every B_k, k >= 1, is local: it is nonzero only on a small set S_k
of spatial rows and columns.  So by the Kronecker mixed-product rule the
Schur coupling K_kj (K_0^{-1} (x) I) K_jk is the sum over pairs of
dimensions of (B_m K_0^{-1} B_m') (x) (G_m G_m'^T), which needs K_0^{-1}
only on the pair blocks K_0^{-1}[S_m, S_m'], held once for m <= m' and
shared by every chaos index: at most ((sum_m |S_m|)^2 + sum_m |S_m|^2) / 2
entries, whatever the chaos degree (``_pair_coupling``).  Chaos index 0,
which every dimension reaches, goes through all of K_0^{-1} instead.  Of
the larger class the solve needs only the M-1 voltage rows, x_j[n_d:, nu]
= K_0^{-1}[n_d:, S_nu] h[S_nu, nu], a sum over the rows S_nu at which
column (., nu) of K_kj is nonzero, with h = c_j - K_jk x_k, plus the load
term of chaos index 0 (``_certified_voltages``).  Its residual, pure
rounding of the computed K_0^{-1}, is bounded from the column norms of
B_0 K_0^{-1} - I instead of computed, so the other spatial rows of that
class are never formed.  ``solve`` holds, besides B_0 and K_kj, the dense
K_0^{-1}, the pair blocks, the CG blocks of the smaller class and one
block of the larger one packed over the dimensions' supports.  It returns
beta alone: the posterior reads the surrogate only through the electrode
voltages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._csr import CSRMatrix, index_type
from .chaos import MomentMatrices
from .fem import SpatialMatrices, summed_csr

if TYPE_CHECKING:
    import scipy.sparse as sp

# ``_inverse_defects`` forms B_0 K_0^{-1} - I this many columns at a time
_DEFECT_COLUMNS = 64
# ``_lower_inverse`` inverts blocks of at most this many rows directly; from
# 32 to 128 the dense inverse at 336-2,896 unknowns took about the same time
_INVERSE_LEAF = 64


def _kept_parity(parity: np.ndarray) -> int:
    """The parity ``solve`` iterates on: that of fewer indices, odd on a tie."""
    return int(2 * np.count_nonzero(parity) <= len(parity))


def _parity_classes(parity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chaos indices of the kept and of the other parity class."""
    kept = parity == _kept_parity(parity)
    return np.flatnonzero(kept), np.flatnonzero(~kept)


@dataclass(frozen=True)
class SgfemSystem:
    """The Galerkin matrix K = sum_k B_k (x) G_k as its two distinct blocks,
    with its size bookkeeping and the total-degree parity (0 even, 1 odd)
    of every chaos index: the mean matrix ``B0``, since every same-parity
    block of K is B_0 (x) I, and ``K_kj``, K's block from the rows of the
    kept parity class to the columns of the other, numbered spatial index
    outer and position in the class inner.  K is symmetric, so its block
    from the other class to the kept one is the transpose of K_kj.
    ``G_kj`` lists the nonzeros of the chaos blocks G_k[kept, other], k >=
    1, from which K_kj was built, as (k, row position, column position),
    grouped by k: it names the dimension of every chaos block of K_kj.  The
    solve reads B_0, K_kj and G_kj.

    Both blocks are ``_csr.CSRMatrix``, whose products run on SciPy's
    compiled kernels without the SciPy packages, so neither assembly nor
    ``solve`` imports ``scipy.sparse``.  Those kernels
    (``scipy.sparse._sparsetools``) are private SciPy API, checked on SciPy
    1.17.1 and guarded by the Tier-1 test ``tests/test_csr.py``.  Only
    ``K``, which tests and tracing read, imports ``scipy.sparse``.
    """

    B0: CSRMatrix
    K_kj: CSRMatrix
    n_nodes: int
    n_electrodes: int
    n_chaos: int
    parity: np.ndarray
    G_kj: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def order(self) -> int:
        return (self.n_nodes + self.n_electrodes - 1) * self.n_chaos

    @property
    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Chaos indices of the kept and the other parity class."""
        return _parity_classes(self.parity)

    @property
    def nnz(self) -> int:
        """Stored entries of K: n_g copies of B_0 and K_kj with its
        transpose."""
        return self.n_chaos * self.B0.nnz + 2 * self.K_kj.nnz

    @property
    def K(self) -> sp.csr_matrix:
        """All of K as one SciPy CSR matrix, joined from the blocks at every
        access by one COO-to-CSR conversion; for tests and tracing, since
        neither assembly nor ``solve`` needs it.  Imports ``scipy.sparse``."""
        import scipy.sparse as sp

        n_g, n_s = self.n_chaos, self.B0.shape[0]
        (b_row, b_col, b_val), (c_row, c_col, c_val) = map(_triplets, (self.B0, self.K_kj))
        kept_rows, other_rows = (
            (np.arange(n_s)[:, None] * n_g + members).ravel() for members in self.classes
        )
        r, c = kept_rows[c_row], other_rows[c_col]
        same = np.arange(n_g)
        rows = np.concatenate([(b_row[:, None] * n_g + same).ravel(), r, c])
        cols = np.concatenate([(b_col[:, None] * n_g + same).ravel(), c, r])
        vals = np.concatenate([np.repeat(b_val, n_g), c_val, c_val])
        return sp.coo_matrix((vals, (rows, cols)), shape=(self.order,) * 2).tocsr()


@dataclass(frozen=True)
class SgfemSolution:
    """Electrode-voltage chaos coefficients per current pattern, with solver
    diagnostics.

    ``beta`` is (patterns, M-1, n_g), the coefficients the surrogate keeps.
    ``residuals`` holds, per pattern, sqrt(r_k^2 + b^2) / ||c||: r_k is the
    norm of the true residual on the rows of the kept parity class, b a
    bound on that of the eliminated class (see ``solve``), and c the load.
    """

    patterns: np.ndarray
    beta: np.ndarray
    residuals: np.ndarray
    iterations: int  # block CG iterations on the kept parity class


def expand_mean_free(gamma: np.ndarray) -> np.ndarray:
    """Expand coefficients over v_i = e_1 - e_{i+1} into electrode values."""
    gamma = np.asarray(gamma, dtype=np.float64)
    out = np.empty(gamma.shape[:-1] + (gamma.shape[-1] + 1,))
    out[..., 0] = gamma.sum(axis=-1)
    out[..., 1:] = -gamma
    return out


def _triplets(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of a CSR matrix, without a COO container."""
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    return rows, M.indices, M.data


def _electrode_triplets(S, g, lengths):
    """COO triplets of the unit blocks E_m of all electrodes, with the
    electrode m of each: the only place that lays out Upsilon and Pi.

    E_m holds S_m, and in Upsilon and Pi what zeta = e_m leaves of them:
    for m = 1, -g_1 in every column and |E_1| over all of Pi; for m > 1,
    g_m in column m-1 and |E_m| at diagonal entry m-1 of Pi.  Rows and
    columns count the mesh nodes first, then the M-1 mean-free voltages.
    The triplets of one entry come in electrode order.
    """
    n_d, n_el = S[0].shape[0], len(S)
    voltage = n_d + np.arange(n_el - 1)
    s_row, s_col, s_val = (np.concatenate(part) for part in zip(*map(_triplets, S)))
    s_el = np.repeat(np.arange(n_el), [len(S_m.data) for S_m in S])
    # Upsilon: the nodes of electrode 1 fill every column, those of
    # electrode m > 1 column m - 1
    g = np.stack(g)
    u_el, node = np.nonzero(g)  # electrode 1 first
    first, width = np.count_nonzero(u_el == 0), np.where(u_el == 0, n_el - 1, 1)
    u_val = np.repeat(np.where(u_el == 0, -1.0, 1.0) * g[u_el, node], width)
    u_col = np.concatenate([np.tile(voltage, first), voltage[u_el[first:] - 1]])
    u_row, u_el = np.repeat(node, width), np.repeat(u_el, width)
    # Pi: all of it for electrode 1, diagonal entry m - 1 for m > 1
    p_row = np.concatenate([np.repeat(voltage, n_el - 1), voltage])
    p_col = np.concatenate([np.tile(voltage, n_el - 1), voltage])
    p_val = np.concatenate([np.full((n_el - 1) ** 2, lengths[0]), lengths[1:]])
    p_el = np.repeat(np.arange(n_el), [(n_el - 1) ** 2] + [1] * (n_el - 1))
    return (
        np.concatenate([s_row, u_row, u_col, p_row]),
        np.concatenate([s_col, u_col, u_row, p_col]),
        np.concatenate([s_val, u_val, u_val, p_val]),
        np.concatenate([s_el, u_el, u_el, p_el]),
    )


def cem_matrix(A, zeta, S, g, lengths) -> CSRMatrix:
    """Electrode-model block matrix in the mean-free voltage basis.

    Returns [[A + sum_m zeta_m S_m, Upsilon], [Upsilon^T, Pi]] for the
    stiffness ``A``, given by its CSR arrays (a ``CSRMatrix``, or SciPy's
    ``csr_matrix``), contact conductances ``zeta`` and the electrode
    mass matrices ``S``, load vectors ``g`` and lengths of one mesh: the
    sum [[A, 0], [0, 0]] + sum_m zeta_m E_m over the unit blocks E_m of
    ``_electrode_triplets``.  Column i of Upsilon is zeta_{i+1} g_{i+1} -
    zeta_1 g_1; Pi is zeta_1 |E_1| everywhere plus zeta_{i+1} |E_{i+1}| on
    the diagonal.  The result is linear in the pair (A, zeta) and stores
    no zero.  Each entry sums A, then the electrodes in order
    (``summed_csr``); zeta_m scales each entry of S_m after its edges were
    summed.
    With every S_m and a stiffness matrix of a conforming mesh, whose
    off-diagonal entries hold at most two terms each, the result is
    exactly symmetric.
    """
    n, zeta = A.shape[0] + len(S) - 1, np.asarray(zeta)
    rows, cols, vals, electrode = _electrode_triplets(S, g, lengths)
    terms = [_triplets(A), (rows, cols, zeta[electrode] * vals)]
    rows, cols, vals = (np.concatenate(part) for part in zip(*terms))
    data, indices, indptr = summed_csr(rows, cols, vals, n, n)
    # the entries that summed to zero leave, the others keep their order
    kept = data != 0.0
    stored = np.concatenate(([0], np.cumsum(kept)))[indptr].astype(indptr.dtype)
    return CSRMatrix(data[kept], indices[kept], stored, (n, n))


def assemble_system(sm: SpatialMatrices, mm: MomentMatrices) -> SgfemSystem:
    """Assemble the two distinct blocks of K = sum_k B_k (x) G_k: B_0 and
    the cross block K_kj.

    The electrode-model matrix is affine in y: B_0 is the model at the
    centre of the box ``sm.bounds`` (A0 and the contact centres (a+b)/2),
    the block B_l of pixel l is just A_l in the top-left corner, and B_{L+m}
    of electrode m is the half-width (b_m-a_m)/2 times the unit block
    E_m of ``_electrode_triplets``, from which ``cem_matrix`` also builds
    B_0.  Every B_k keeps only its nonzero entries, as ``cem_matrix`` does.

    G_0 = I, and K_kj = sum_{k >= 1} B_k (x) G_k[kept, other] is one
    COO-to-CSR conversion of the triplets of every term
    (``CSRMatrix.from_triplets``, SciPy's kernels), with the G_k read
    from the coupling table of ``mm`` grouped by k.  The terms have
    disjoint sparsity (G_k couples only indices that differ in dimension
    k), so each entry is one product B_k[i, j] G_k[mu, nu], that of K; as
    every B_k and G_k is exactly symmetric, so is K.  No triplet repeats,
    so the conversion sums nothing and its bits do not depend on SciPy's
    index sort; ``fem.summed_csr`` would fix an order too, but took 2.9 ms
    on the 55,986 triplets of the tank against 0.9 ms for the conversion.
    Raises ValueError, naming the two chaos indices, if a G_k, k >= 1,
    couples indices of the same parity: then K is not 2-cyclic, and
    ``solve`` does not apply.
    """
    n_pix, n_el = sm.n_pixels, sm.n_electrodes
    if mm.n_dims != n_pix + n_el:
        raise ValueError(
            f"moment matrices cover {mm.n_dims} dimensions, "
            f"spatial data implies {n_pix + n_el}"
        )
    parity, kept = mm.parity, _kept_parity(mm.parity)
    same = np.flatnonzero(parity[mm.row] == parity[mm.col])
    if same.size:
        e = same[0]
        raise ValueError(
            f"G_{mm.dim[e]} couples chaos indices {mm.row[e]} and {mm.col[e]} "
            "of the same degree parity; the solver needs the 2-cyclic "
            "structure of a Legendre basis"
        )
    classes = _parity_classes(parity)
    # the position of every chaos index in its class
    position = np.empty(len(parity), dtype=np.int64)
    for members in classes:
        position[members] = np.arange(len(members))
    # the entries in the rows of the kept class, grouped by k
    at = np.flatnonzero(parity[mm.row] == kept)
    at = at[np.argsort(mm.dim[at], kind="stable")]
    ends = np.searchsorted(mm.dim[at], np.arange(1, mm.n_dims + 2))
    table = position[mm.row[at]], position[mm.col[at]], mm.coeff[at]
    couplings = [[part[a:b] for part in table] for a, b in zip(ends[:-1], ends[1:])]
    G_kj = mm.dim[at], *table[:2]

    B0 = cem_matrix(sm.A0, sm.bounds.zeta_mid, sm.S, sm.g, sm.lengths)
    rows, cols, vals, electrode = _electrode_triplets(sm.S, sm.g, sm.lengths)
    blocks = [_triplets(A_l) for A_l in sm.A]
    for m, h in enumerate(sm.bounds.zeta_half):
        at = electrode == m
        blocks.append((rows[at], cols[at], h * vals[at]))
    # every B_k keeps only its nonzero entries; none repeats an entry
    blocks = [tuple(part[v != 0.0] for part in (r, c, v)) for r, c, v in blocks]
    n_s, (n_kept, n_other) = B0.shape[0], (len(members) for members in classes)
    nnz = sum(len(v) * len(g) for (_, _, v), (_, _, g) in zip(blocks, couplings))
    index = index_type(n_s * len(parity), nnz)
    rows, cols = np.empty(nnz, dtype=index), np.empty(nnz, dtype=index)
    vals = np.empty(nnz)
    end = 0
    for (i, j, v), (mu, nu, g) in zip(blocks, couplings):
        shape = (len(v), len(g))
        part = slice(end, end + shape[0] * shape[1])
        end = part.stop
        i, j = (ij.astype(index)[:, None] for ij in (i, j))
        np.add(i * n_kept, mu, out=rows[part].reshape(shape))
        np.add(j * n_other, nu, out=cols[part].reshape(shape))
        np.multiply(v[:, None], g, out=vals[part].reshape(shape))
    K_kj = CSRMatrix.from_triplets(rows, cols, vals, (n_s * n_kept, n_s * n_other))
    return SgfemSystem(B0, K_kj, sm.n_nodes, n_el, len(parity), parity, G_kj)


def _voltage_loads(patterns, n_electrodes: int) -> np.ndarray:
    """The nonzero entries of the load of every current pattern (mA), one
    row per pattern: the degree-0 voltage coefficients (c_i)_0 = I_1 -
    I_{i+1}, i = 1..M-1, also the load of ``det_cem``.  The one place a
    load is built and a pattern checked: raises ValueError unless the
    patterns are 2-D with one current per electrode, and, naming the
    pattern, if its currents do not sum to zero.
    """
    patterns = np.asarray(patterns, dtype=np.float64)
    if patterns.ndim != 2 or patterns.shape[1] != n_electrodes:
        raise ValueError(
            "pattern length does not match the electrode count: "
            "need one current per electrode"
        )
    for p, total in enumerate(patterns.sum(axis=1)):
        # written so that a non-finite sum fails too
        if not abs(total) <= 1e-12:
            raise ValueError(f"pattern {p}: currents must sum to zero, got {total:g}")
    return patterns[:, :1] - patterns[:, 1:]


def solve(
    system: SgfemSystem,
    patterns,
    tol: float = 1e-10,
    maxiter: int | None = None,
) -> SgfemSolution:
    """Solve the Galerkin system for a batch of current patterns.

    Runs conjugate gradients on all patterns at once, with a step length
    and direction per pattern, on the Schur complement of the parity class
    of fewer chaos indices (odd on a tie), preconditioned by K_0^{-1} (x) I
    where K_0 = B_0 is the electrode-model matrix at the parameter mean;
    of the other class only the voltage rows are formed, at the end
    (``_certified_voltages``).  It stops once every pattern's residual is
    at most ``tol`` times its load norm; ``tol`` must be positive and
    finite.  ``maxiter`` and the returned ``iterations`` count the reduced
    iterations.  Raises ValueError if the patterns do not fit the
    electrodes or a pattern's currents do not sum to zero or are all
    equal, and RuntimeError after ``maxiter`` iterations (default ten
    times the order), if K_0 is not positive definite, or if any returned
    residual stays above ``tol``.

    The returned ``residuals`` are, per pattern, sqrt(r_k^2 + b^2) / ||c||
    with c the load: r_k is the norm of the residual on the rows of the
    kept class, c_k - (B_0 (x) I) x_k - K_kj x_j with x_j = (K_0^{-1} (x)
    I) h and h = c_j - K_jk x_k, formed fresh from x_k through the CG's
    coupling; b bounds the norm of the residual on the rows of the
    eliminated class, where x_j leaves (B_0 K_0^{-1} - I) h, pure rounding
    of the computed inverse: b^2 = sum_nu ||(B_0 K_0^{-1} - I)[:, supp
    h_nu]||_F^2 ||h_nu||^2.  On the tank r_k is ~1e-10 ||c|| and b ~2e-12
    ||c||.

    The solve reads B_0, K_kj and G_kj of the system.  It lays the Schur
    coupling out on the pair blocks K_0^{-1}[S_m, S_m'] of the dimensions'
    supports (``_pair_coupling``), and after the CG packs K_kj's columns
    over the supports S_nu of the other class (``_packed_supports``) for
    that class's voltage rows and residual bound.  The class loads are
    built from the M-1 nonzeros of each pattern, so the dense load block is
    never formed.  Besides the system the solve holds the dense K_0^{-1},
    the pair blocks with their index arrays, the column indices of K_kj
    renumbered over the packed rows of the dimensions, one (packed rows,
    n_p) block and the outputs of the pairs m != m', and the CG blocks of
    the kept class.  After the CG it holds, instead of the CG blocks, three
    blocks of the kept class for its residual, then the column indices of
    K_kj packed over the supports S_nu, the packed h and one chunk of
    ``_DEFECT_COLUMNS`` columns of B_0 K_0^{-1}: the solution of all of K
    is never held, and only beta is returned.
    """
    patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol:g}")
    loads = _voltage_loads(patterns, system.n_electrodes)
    zero = np.flatnonzero(~loads.any(axis=1))
    if zero.size:
        raise ValueError(
            f"pattern {zero[0]} loads nothing: its currents are all equal, "
            "so its relative residual is undefined"
        )
    if maxiter is None:
        maxiter = 10 * system.order
    coupling = _pair_coupling(system, _mean_inverse(system), len(loads))
    X, iterations = _schur_pcg(system, coupling, loads, tol, maxiter)
    square = _kept_residual(system, coupling, loads, X)
    # the coupling's blocks go before those of the eliminated class come
    K0inv = coupling.K0inv
    del coupling
    beta, bound = _certified_voltages(system, K0inv, loads, X)
    residuals = np.sqrt(square + bound) / np.linalg.norm(loads, axis=1)
    for p, residual in enumerate(residuals):
        # written so that a nan residual fails too
        if not residual <= tol:
            raise RuntimeError(
                f"pattern {p}: relative residual {residual:.3e} above {tol:g}"
            )
    return SgfemSolution(patterns, beta, residuals, iterations)


def _mean_inverse(system: SgfemSystem) -> np.ndarray:
    """The dense inverse of the mean matrix K_0 = B_0 by LAPACK's route
    (Du Croz & Higham, IMA J. Numer. Anal. 1992) on numpy alone: the
    Cholesky factor L, its inverse in place (``_lower_inverse``), then
    K_0^{-1} = L^{-T} L^{-1}.  numpy forms a product of a matrix's
    transpose with the matrix itself as a symmetric rank-k update and
    mirrors one triangle, so the result is exactly symmetric.  Raises
    RuntimeError if K_0 is not positive definite."""
    try:
        factor = np.linalg.cholesky(system.B0.toarray())
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            "factorization failed; system not positive definite "
            f"(dense Cholesky of K_0: {exc})"
        ) from exc
    inverse = _lower_inverse(factor)
    return inverse.T @ inverse


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Invert the lower-triangular L in place and return it, by 2 x 2 block
    recursion: with L = [[A, 0], [C, D]], L^{-1} = [[A^{-1}, 0],
    [-D^{-1} C A^{-1}, D^{-1}]].  A block of at most ``_INVERSE_LEAF`` rows
    is inverted by ``np.linalg.inv``, whose rounding above the diagonal is
    cleared."""
    n = L.shape[0]
    if n <= _INVERSE_LEAF:
        L[...] = np.tril(np.linalg.inv(L))
        return L
    h = n // 2
    A, C, D = L[:h, :h], L[h:, :h], L[h:, h:]
    _lower_inverse(A)
    _lower_inverse(D)
    CA = C @ A
    np.negative(CA, out=CA)
    np.matmul(D, CA, out=C)
    return L


def _add_load(system: SgfemSystem, members, loads, V):
    """Add the load of the chaos indices ``members`` to V in place and
    return V, for V of shape (n_s, len(members) * n_p), or a view of that
    layout (see ``_schur_pcg``).  The load is nonzero only at the degree-0
    voltage coefficients, so only if chaos index 0 is a member."""
    zero = members == 0
    if zero.any():
        n_p = len(loads)
        V.reshape(V.shape[0], -1, n_p)[system.n_nodes :, zero] += loads.T[:, None]
    return V


def _packed_supports(system: SgfemSystem):
    """K_kj with its columns (j, nu) renumbered over the supports S_nu of h =
    c_j - K_jk x_k, sharing its entries and row pointers: the j at which
    column (j, nu) stores an entry, and for chaos index 0 the voltage rows,
    where its load lies, position by position in ascending j.  Also returns
    the first packed row of every position with the row count past them,
    and the j of every packed row."""
    K_kj, n_s, other = system.K_kj, system.B0.shape[0], system.classes[1]
    j, nu = np.divmod(K_kj.indices, len(other))
    key = nu * n_s + j
    del j, nu
    stored = np.zeros(len(other) * n_s, dtype=bool)
    stored[key] = True
    if other[0] == 0:
        stored[system.n_nodes : n_s] = True
    rank = np.cumsum(stored, dtype=key.dtype)
    starts = np.insert(rank[n_s - 1 :: n_s], 0, 0)
    rank -= 1
    indices = rank.take(key)
    del rank, key
    K = CSRMatrix(K_kj.data, indices, K_kj.indptr, (K_kj.shape[0], int(starts[-1])))
    return K, starts, np.flatnonzero(stored) % n_s


@dataclass(frozen=True)
class _PairCoupling:
    """The Schur coupling K_kj (K_0^{-1} (x) I) K_jk on blocks of K_0^{-1}
    between pairs of dimensions, as ``_pair_coupling`` lays it out.

    ``K`` is K_kj with its columns renumbered over packed rows, sharing its
    entries and row pointers: first ``n_dense`` rows per spatial row, for
    the other positions applied through all of K_0^{-1}, then per
    dimension m an (|S_m|, g_m) block of rows, the position in S_m outer
    and the g_m other positions that m reaches inner.  ``diagonal`` holds,
    per run of dimensions of one (|S_m|, g_m), their packed rows and their
    blocks K_0^{-1}[S_m, S_m].  ``off`` holds, per batch of pairs m != m'
    and per orientation, the blocks K_0^{-1}[S_m, S_m'] (for the second
    orientation their transposed view), the packed rows they read and the
    slice of ``outputs`` they write.  Per layer, ``spread`` gives every
    packed row the output it adds, or the zero row past the outputs, so
    that no layer adds twice to one row.  ``K_0`` is K_kj's columns of
    chaos index 0, numbered by spatial row; it stores nothing unless index
    0 is in the other class.  ``packed`` and ``outputs`` are the blocks of
    n_p patterns that every ``_couple`` call reuses.
    """

    K: CSRMatrix
    K0inv: np.ndarray
    n_dense: int
    diagonal: list
    off: list
    spread: np.ndarray
    K_0: CSRMatrix
    packed: np.ndarray
    outputs: np.ndarray


def _pair_coupling(system: SgfemSystem, K0inv, n_p: int) -> _PairCoupling:
    """Lay out K_kj (K_0^{-1} (x) I) K_jk on the blocks K_0^{-1}[S_m, S_m']
    of pairs of dimensions, for blocks of ``n_p`` patterns.

    K_kj = sum_m B_m (x) G_m[kept, other], with B_m nonzero only on the
    rows and columns S_m (a pixel's nodes, or an electrode's nodes and
    voltage rows), so by the mixed-product rule

        K_kj (K_0^{-1} (x) I) K_jk
            = sum_{m, m'} (B_m K_0^{-1} B_m') (x) (G_m G_m'^T)[kept, kept],

    and B_m K_0^{-1} B_m' reads K_0^{-1} only on S_m x S_m'.  The chaos
    factor runs through the other positions nu that both G_m and G_m'
    reach: for each such nu, K_0^{-1}[S_m, S_m'] takes the entries of K_jk
    in the columns (S_m', nu) that dimension m' fills to the columns
    (S_m, nu) that K_kj's dimension m reads.  Every stored entry of K_kj
    belongs to one dimension, that of the G_k coupling its chaos row and
    column (``system.G_kj``), and each chaos block of dimension m holds the
    entries of B_m, so the columns of one such block are S_m.

    An other position whose dimensions cover at least n_s spatial rows
    together (chaos index 0, which every dimension reaches, at degree 2)
    is applied through all of K_0^{-1}, whose entries its pair blocks would
    outnumber.  The rest run on the pair blocks, each held once, for m <=
    m': besides K_0^{-1}, at most ((sum_m |S_m|)^2 + sum_m |S_m|^2) / 2 of
    its entries, whatever the chaos degree.  The diagonal pairs m = m' are
    one product per dimension over every position it reaches, batched over
    the dimensions of one |S_m| and position count.  The pairs m != m' are
    batched by (|S_m|, |S_m'|, shared positions), in both orientations.  A
    dimension with an empty support (a collapsed contact) reaches nothing.
    """
    (keep, other), K_kj = system.classes, system.K_kj
    n_s, n_k, n_j = system.B0.shape[0], len(keep), len(other)
    dim, mu, nu = system.G_kj
    n_dims, dim = int(dim.max(initial=0)), dim - 1
    small = index_type((n_dims + 1) * max(n_j, n_s), n_k * n_j)
    # the chaos block (mu, nu) and the spatial column of every stored entry
    key = np.arange(K_kj.shape[0], dtype=small) % max(n_k, 1) * small(n_j)
    key = np.repeat(key, np.diff(K_kj.indptr))
    j, nu_e = np.divmod(K_kj.indices, n_j)
    key += nu_e
    # the dimension of every stored entry, and the supports S_m its entries fill
    block_dim = np.zeros(n_k * n_j, dtype=small)
    block_dim[mu * n_j + nu] = dim
    m_e = block_dim.take(key)
    del key, block_dim
    stored = np.zeros((n_dims, n_s), dtype=bool)
    stored.ravel()[m_e * n_s + j] = True
    size = stored.sum(axis=1)
    # the other positions each dimension reaches, less the dense ones
    reach = np.zeros((n_dims, n_j), dtype=bool)
    reach[dim, nu] = size[dim] > 0
    dense = size @ reach >= n_s
    reach[:, dense] = False
    n_dense, count = int(dense.sum()), reach.sum(axis=1)
    extent = size * count
    order = np.lexsort((count, size))
    base = np.empty(n_dims, dtype=np.int64)
    base[order] = n_s * n_dense + np.cumsum(extent[order]) - extent[order]
    n_rows = n_s * n_dense + int(extent.sum())
    index = np.promote_types(K_kj.indices.dtype, index_type(n_rows))
    # the packed row of an entry of dimension m is at[m, nu] + step[m, j];
    # the entries of a dense position take the row m = n_dims
    at = np.empty((n_dims + 1, n_j), dtype=index)
    at[:n_dims] = base[:, None] + np.cumsum(reach, axis=1) - 1
    at[n_dims] = np.cumsum(dense) - 1
    step = np.empty((n_dims + 1, n_s), dtype=index)
    step[:n_dims] = (np.cumsum(stored, axis=1) - 1) * count[:, None]
    step[n_dims] = np.arange(n_s) * n_dense
    m_e[dense.take(nu_e)] = n_dims
    packed = at.ravel().take(m_e * n_j + nu_e)
    packed += step.ravel().take(m_e * n_s + j)
    indptr = K_kj.indptr.astype(index, copy=False)
    K = CSRMatrix(K_kj.data, packed, indptr, (K_kj.shape[0], n_rows))
    # K_kj's columns of chaos index 0 if it is in the other class, in order
    first = np.flatnonzero((nu_e == 0) & bool(n_j and other[0] == 0))
    starts = np.searchsorted(first, K_kj.indptr).astype(index)
    K_0 = CSRMatrix(K_kj.data[first], j[first].astype(index), starts, (K_kj.shape[0], n_s))
    del j, nu_e, m_e, packed, first
    supports, start = np.nonzero(stored)[1], np.cumsum(size) - size

    def S(ms, s):
        """The supports of the dimensions ``ms``, each of size s."""
        return supports[start[ms][:, None] + np.arange(s)]

    def block(S1, S2):
        """K_0^{-1}[S1, S2] for every row of S1 and S2, by one flat index."""
        return K0inv.ravel().take(S1[:, :, None] * n_s + S2[:, None, :])

    def rows(ms, s, nus):
        """The packed rows of the dimensions ``ms``, each of support size s,
        at the positions ``nus``, a row of them per dimension, (len(ms) * s
        * w,)."""
        grid = at[ms[:, None], nus][:, None] + np.arange(s)[:, None] * count[ms, None, None]
        return grid.ravel().astype(index)

    diagonal = []
    used = order[extent[order] > 0]
    cuts = np.flatnonzero(np.diff(size[used]) | np.diff(count[used])) + 1
    for run in np.split(used, cuts) if len(used) else ():
        S_run, a = S(run, size[run[0]]), base[run[0]]
        diagonal.append((slice(a, a + int(extent[run].sum())), block(S_run, S_run)))
    # every pair m != m' that shares a position, m first in ``order``, with
    # the positions it shares
    slot = np.empty(n_dims, dtype=np.int64)
    slot[order] = np.arange(n_dims)
    r_nu, r_m = np.nonzero(reach.T)
    by = np.lexsort((slot[r_m], r_nu))
    r_nu, r_m = r_nu[by], r_m[by]
    later = np.cumsum(np.bincount(r_nu, minlength=n_j))[r_nu] - np.arange(len(r_nu)) - 1
    a = np.repeat(np.arange(len(r_nu)), later)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
    by = np.lexsort((r_nu[a], slot[r_m[b]], slot[r_m[a]]))
    m1, m2, shared = r_m[a][by], r_m[b][by], r_nu[a][by]
    firsts = np.flatnonzero(np.diff(m1, prepend=-1) | np.diff(m2, prepend=-1))
    width = np.diff(np.append(firsts, len(m1)))
    p1, p2 = m1[firsts], m2[firsts]
    shape = size[p1], size[p2], width
    by = np.lexsort(shape[::-1])
    cuts = np.flatnonzero(np.any([np.diff(part[by]) for part in shape], axis=0)) + 1
    off, scatter, end = [], [], 0
    for batch in np.split(by, cuts) if len(by) else ():
        s1, s2, w = (int(part[batch[0]]) for part in shape)
        nus = shared[firsts[batch][:, None] + np.arange(w)]
        P = block(S(p1[batch], s1), S(p2[batch], s2))
        into, out_of = rows(p1[batch], s1, nus), rows(p2[batch], s2, nus)
        # K_0^{-1}[S_m, S_m'] takes m' to m, its transpose m to m'
        for blocks, src, dst in ((P, out_of, into), (P.transpose(0, 2, 1), into, out_of)):
            off.append((blocks, src, slice(end, end + len(dst))))
            scatter.append(dst)
            end += len(dst)
    scatter = np.concatenate(scatter or [np.empty(0, dtype=index)])
    # the layer of each output: how many outputs to its packed row precede it
    by = np.argsort(scatter, kind="stable")
    runs = np.flatnonzero(np.diff(scatter[by], prepend=-1))
    layer = np.empty(end, dtype=np.int64)
    layer[by] = np.arange(end) - np.repeat(runs, np.diff(np.append(runs, end)))
    spread = np.full((int(layer.max(initial=-1)) + 1, n_rows), end, dtype=index)
    spread[layer, scatter] = np.arange(end)
    outputs = np.empty((end + 1, n_p))
    outputs[-1] = 0.0
    return _PairCoupling(
        K, K0inv, n_dense, diagonal, off, spread, K_0, np.empty((n_rows, n_p)), outputs
    )


def _couple(coupling: _PairCoupling, V, n_p):
    """K_kj (K_0^{-1} (x) I) K_jk V for a wide view V of the kept class
    (see ``_schur_pcg``): a sparse product onto the packed rows of
    ``_pair_coupling``, the pairs m != m' into the outputs, the dense
    positions through all of K_0^{-1} and the pairs m = m' in place, the
    outputs added, and a sparse product back.

    The products run in place: a second packed block would add its size to
    the peak memory of the solve.
    """
    c, n_s = coupling, coupling.K0inv.shape[0]
    U, outputs = c.packed, c.outputs
    c.K.transpose_matmul(V.reshape(-1, n_p), out=U)
    for blocks, src, dst in c.off:
        k, s, t = blocks.shape
        inputs = U.take(src, axis=0).reshape(k, t, -1)
        np.matmul(blocks, inputs, out=outputs[dst].reshape(k, s, -1))
    # matmul reads an input that overlaps its output as if it did not
    dense = U[: n_s * c.n_dense].reshape(n_s, -1)
    np.matmul(c.K0inv, dense, out=dense)
    for rows, blocks in c.diagonal:
        k, s = blocks.shape[:2]
        diagonal = U[rows].reshape(k, s, -1)
        np.matmul(blocks, diagonal, out=diagonal)
        # the zero row past the outputs is what a layer adds to a row it skips
        for spread in c.spread:
            U[rows] += outputs.take(spread[rows], axis=0)
    return (c.K @ U).reshape(V.shape)


def _reduced_load(system: SgfemSystem, coupling: _PairCoupling, loads) -> np.ndarray:
    """The load of the Schur complement, c_k - K_kj (K_0^{-1} (x) I) c_j, as
    a wide view of the kept class (see ``_schur_pcg``).  c_j is nonzero
    only if chaos index 0 is in the other class, on its voltage rows, so
    K_kj reads K_0^{-1} c_j through its columns of index 0 alone."""
    keep, n_s = system.classes[0], system.B0.shape[0]
    R = _add_load(system, keep, loads, np.zeros((n_s, len(keep) * len(loads))))
    K_0 = coupling.K_0
    if K_0.nnz:
        R -= (K_0 @ (coupling.K0inv[:, system.n_nodes :] @ loads.T)).reshape(R.shape)
    return R


def _schur_pcg(system: SgfemSystem, coupling: _PairCoupling, loads, tol, maxiter):
    """Conjugate gradients on every pattern at once, on the Schur complement
    of the kept parity class k, preconditioned by K_0^{-1} (x) I.

    With j the other class, the reduced system is

        S_k x_k = (B_0 (x) I) x_k - K_kj (K_0^{-1} (x) I) K_jk x_k
                = c_k - K_kj (K_0^{-1} (x) I) c_j,

    and x_j = (K_0^{-1} (x) I)(c_j - K_jk x_k) follows from x_k
    (``_certified_voltages`` forms its voltage rows).  K is symmetric, so
    K_jk is the transpose of K_kj, and only K_kj is stored.  The residual
    of the reduced system is that of all of K, whose j rows x_j solves
    exactly.  Kept-class vectors are (n_s, n_kept * n_p) views of (n_s *
    n_kept, n_p) blocks, spatial index outer, position in the class next
    and pattern last: on them the preconditioner is one product with the
    dense inverse of K_0.  The coupling through the other class runs on one
    block packed over the supports of the dimensions, through the pair
    blocks K_0^{-1}[S_m, S_m'] (``_pair_coupling``, ``_couple``), never on
    a whole block of that class.  Each pattern has its own step length and
    direction, and stops moving once its residual norm is at most ``tol``
    times its load norm.  Returns the kept-class block x_k and the
    iteration count.
    """
    keep, B0, K0inv = system.classes[0], system.B0, coupling.K0inv
    n_p, n_s, n_k = len(loads), B0.shape[0], len(keep)

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
    R = _reduced_load(system, coupling, loads)
    done = column_dots(R, R) <= atol2
    iteration = 0
    if not done.all():
        Z = K0inv @ R
        D = Z.copy()
        rz = column_dots(R, Z)
        for iteration in range(1, maxiter + 1):
            Q = B0 @ D
            Q -= _couple(coupling, D, n_p)
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


def _inverse_defects(B0, K0inv) -> np.ndarray:
    """The squared column norms e_j^2 of B_0 K_0^{-1} - I, for the computed
    inverse, in chunks of ``_DEFECT_COLUMNS`` columns, so that no second
    n_s x n_s array is held.  K_0^{-1} is exactly symmetric, so its
    columns are read as rows."""
    n_s = K0inv.shape[0]
    out = np.empty(n_s)
    for a in range(0, n_s, _DEFECT_COLUMNS):
        b = min(a + _DEFECT_COLUMNS, n_s)
        E = B0 @ np.ascontiguousarray(K0inv[a:b].T)
        E[np.arange(a, b), np.arange(b - a)] -= 1.0
        out[a:b] = np.einsum("ij,ij->j", E, E)
    return out


def _kept_residual(system: SgfemSystem, coupling: _PairCoupling, loads, X):
    """Per pattern, the squared norm of the residual on the rows of the kept
    class, for the kept-class block X (see ``_schur_pcg``).

    With x_j = (K_0^{-1} (x) I) h and h = c_j - K_jk x_k, the kept rows'
    residual c_k - (B_0 (x) I) x_k - K_kj x_j is that of the Schur
    complement, c_k - K_kj (K_0^{-1} (x) I) c_j - (B_0 (x) I) x_k + K_kj
    (K_0^{-1} (x) I) K_jk x_k, formed fresh from x_k with the CG's pair
    coupling (``_reduced_load``, ``_couple``).
    """
    r = _reduced_load(system, coupling, loads)
    r -= system.B0 @ X
    r += _couple(coupling, X, len(loads))
    return np.einsum("ij,ij->j", r, r).reshape(-1, len(loads)).sum(axis=0)


def _certified_voltages(system: SgfemSystem, K0inv, loads, X):
    """beta of both classes from the kept-class block X (see ``_schur_pcg``)
    and, per pattern, a bound on the squared residual on the rows of the
    eliminated class.  Of x_j only the voltage rows are formed.

    h = c_j - K_jk x_k is formed once, packed over its supports S_nu as
    -K^T X (``_packed_supports``), and summed over every S_nu by one
    product with a matrix of a row per position and the columns of its
    packed rows:

    - beta of the eliminated class is K_0^{-1}[n_d:, S_nu] h_nu, one such
      product per voltage row, plus K_0^{-1}[n_d:, n_d:] times the load
      c_j of index 0;
    - the eliminated rows' residual B_0 x_j,nu - h_nu = (B_0 K_0^{-1} - I)
      h_nu is pure rounding of the computed K_0^{-1}, and its norm is at
      most ||(B_0 K_0^{-1} - I)[:, supp h_nu]||_F ||h_nu|| (Higham,
      Accuracy and Stability of Numerical Algorithms, 2002, ch. 14): the
      squared Frobenius norm is the sum of e_j^2 over the support
      (``_inverse_defects``), and h_0 takes in c_j on the voltage rows.
    """
    (keep, other), B0, n_d = system.classes, system.B0, system.n_nodes
    n_p, n_s = len(loads), B0.shape[0]
    beta = np.empty((n_p, system.n_electrodes - 1, system.n_chaos))
    beta[:, :, keep] = X.reshape(n_s, -1, n_p)[n_d:].transpose(2, 0, 1)
    K, starts, supports = _packed_supports(system)
    h = K.transpose_matmul(X.reshape(-1, n_p))
    np.negative(h, out=h)
    rows = np.arange(len(supports), dtype=starts.dtype)
    shape = (len(other), len(rows))
    for r in range(n_d, n_s):
        # K_0^{-1} is symmetric: row r is column r
        sums = CSRMatrix(K0inv[r].take(supports), rows, starts, shape)
        beta[:, r - n_d, other] = (sums @ h).T
    if other[0] == 0:
        # index 0 is position 0, and its load lies on the last rows of S_0
        beta[:, :, 0] += (K0inv[n_d:, n_d:] @ loads.T).T
        h[starts[1] - (n_s - n_d) : starts[1]] += loads.T
    defects = _inverse_defects(B0, K0inv)
    weights = CSRMatrix(defects.take(supports), rows, starts, shape) @ np.ones(len(rows))
    h *= h
    bound = np.repeat(weights, np.diff(starts)) @ h
    return beta, bound


def standard_patterns(n_electrodes: int) -> np.ndarray:
    """The M-1 patterns I^m = e_1 - e_{m+1}, m = 1..M-1."""
    pats = np.zeros((n_electrodes - 1, n_electrodes))
    pats[:, 0] = 1.0
    pats[np.arange(n_electrodes - 1), np.arange(1, n_electrodes)] = -1.0
    return pats
