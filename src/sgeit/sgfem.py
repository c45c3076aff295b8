"""Stochastic Galerkin system for the randomized complete electrode model.

Couples the FEM matrices of one mesh with the chaos moment matrices into
the symmetric block system

    [[Delta, Upsilon], [Upsilon^T, Pi]] [alpha; beta] = [0; c],

where Delta carries the conductivity and contact terms, Upsilon/Pi the
electrode coupling in the mean-free voltage basis v_i = e_1 - e_{i+1},
and c the injected current pattern.  Unknowns are chaos coefficients of
the interior potential (alpha) and the electrode voltages (beta), stored
with the spatial index outer and the chaos index inner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chaos import MomentMatrices
from .fem import SpatialMatrices

DIRECT_ORDER_LIMIT = 2_000_000


@dataclass(frozen=True)
class SgfemSystem:
    """Assembled Galerkin matrix with its size bookkeeping."""

    K: sp.csr_matrix
    n_nodes: int
    n_electrodes: int
    n_chaos: int
    a: np.ndarray
    b: np.ndarray

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
    method: str

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
    linear in the pair (A, zeta).
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


def assemble_system(
    sm: SpatialMatrices, mm: MomentMatrices, a, b
) -> SgfemSystem:
    """Assemble the coupled Galerkin matrix K = sum_k B_k (x) G_k.

    ``a``/``b`` are the per-electrode contact conductance bounds in mS/cm.
    The electrode-model matrix is affine in y, so its coefficients are the
    blocks B_0 at the mean (A0, (a+b)/2), B_l of pixel l (A_l, no contact)
    and B_{L+m} of electrode m (no stiffness, (b_m-a_m)/2 on contact m).
    Requires 0 < a_m <= b_m (equal bounds give a deterministic contact).
    Kronecker factors stay sparse throughout.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n_pix, n_el = sm.n_pixels, sm.n_electrodes
    if a.shape != (n_el,) or b.shape != (n_el,):
        raise ValueError("need one contact bound pair per electrode")
    bad = np.flatnonzero((a <= 0.0) | (a > b))
    if bad.size:
        m = int(bad[0])
        raise ValueError(
            f"electrode {m + 1}: invalid contact bounds a={a[m]:g}, b={b[m]:g}"
        )
    if mm.n_dims != n_pix + n_el:
        raise ValueError(
            f"moment matrices cover {mm.n_dims} dimensions, "
            f"spatial data implies {n_pix + n_el}"
        )

    electrodes = (sm.S, sm.g, sm.lengths)
    zero = sp.csr_matrix(sm.A0.shape)
    blocks = [cem_matrix(sm.A0, 0.5 * (a + b), *electrodes)]
    blocks += [cem_matrix(A_l, np.zeros(n_el), *electrodes) for A_l in sm.A]
    blocks += [
        cem_matrix(zero, 0.5 * (b[m] - a[m]) * np.eye(n_el)[m], *electrodes)
        for m in range(n_el)
    ]
    K = sum(sp.kron(B, G, format="csr") for B, G in zip(blocks, mm.G))
    # enforce bitwise symmetry; summation order can differ across the
    # diagonal by a last-bit rounding otherwise
    K = (K + K.T) * 0.5
    return SgfemSystem(K.tocsr(), sm.n_nodes, n_el, mm[0].shape[0], a, b)


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
    method: str = "auto",
    tol: float = 1e-10,
    maxiter: int | None = None,
) -> SgfemSolution:
    """Solve the Galerkin system for a batch of current patterns.

    ``method`` is ``direct`` (sparse LU, one factorization shared by all
    patterns, with iterative refinement down to ``tol``), ``pcg``
    (conjugate gradients preconditioned by K_0 (x) I, where K_0 = B_0 is the
    electrode-model matrix at the parameter mean), or ``auto`` which picks
    direct up to DIRECT_ORDER_LIMIT unknowns.  Raises if any relative
    residual stays above ``tol``.
    """
    patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
    K = system.K
    n_d, n_el, n_g = system.n_nodes, system.n_electrodes, system.n_chaos
    if method == "auto":
        method = "direct" if system.order <= DIRECT_ORDER_LIMIT else "pcg"
    if method not in ("direct", "pcg"):
        raise ValueError(f"unknown solver method {method!r}")

    # pcg factors only the degree-0 slice of K, which is exactly B_0 since
    # G_0 = I and G_k[0, 0] = E[y_k] = 0 for k >= 1
    try:
        lu = spla.splu((K if method == "direct" else K[::n_g, ::n_g]).tocsc())
    except RuntimeError as exc:
        raise RuntimeError(
            "factorization failed; system not positive definite "
            f"({exc})"
        ) from exc
    if method == "pcg":
        n_s = n_d + n_el - 1
        prec = spla.LinearOperator(
            K.shape, matvec=lambda x: lu.solve(x.reshape(n_s, n_g)).ravel()
        )

    alpha = np.empty((patterns.shape[0], n_d, n_g))
    beta = np.empty((patterns.shape[0], n_el - 1, n_g))
    residuals = np.empty(patterns.shape[0])
    for p, pattern in enumerate(patterns):
        c = rhs_for_current(system, pattern)
        cnorm = np.linalg.norm(c)
        if method == "direct":
            x = lu.solve(c)
            for _ in range(3):
                r = c - K @ x
                if np.linalg.norm(r) <= tol * cnorm:
                    break
                x = x + lu.solve(r)
        else:
            x, info = spla.cg(K, c, rtol=tol, atol=0.0, M=prec, maxiter=maxiter)
            if info != 0:
                raise RuntimeError(
                    f"PCG did not reach tolerance {tol:g} (info={info})"
                )
        rel = np.linalg.norm(c - K @ x) / cnorm
        if rel > tol:
            raise RuntimeError(
                f"pattern {p}: relative residual {rel:.3e} above {tol:g}"
            )
        residuals[p] = rel
        alpha[p] = x[: n_d * n_g].reshape(n_d, n_g)
        beta[p] = x[n_d * n_g :].reshape(n_el - 1, n_g)
    return SgfemSolution(patterns, alpha, beta, residuals, method)


def standard_patterns(n_electrodes: int, amplitude: float = 1.0) -> np.ndarray:
    """The M-1 patterns I^m = amplitude * (e_1 - e_{m+1}), m = 1..M-1."""
    pats = np.zeros((n_electrodes - 1, n_electrodes))
    pats[:, 0] = amplitude
    pats[np.arange(n_electrodes - 1), np.arange(1, n_electrodes)] = -amplitude
    return pats
