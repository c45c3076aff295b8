import math

import numpy as np
import numpy.testing as npt
import pytest
from numpy.polynomial import legendre as npleg

from sgeit import chaos


def classical_legendre(k, y):
    # P_k via numpy, independent of the package recurrence
    c = np.zeros(k + 1)
    c[k] = 1.0
    return npleg.legval(y, c)


def test_legendre_eval_frozen_values():
    vals, _ = chaos.legendre_eval(1, np.array([0.5]))
    npt.assert_allclose(vals[0, 0], 1.0 / math.sqrt(2.0), rtol=1e-15)
    npt.assert_allclose(vals[0, 1], math.sqrt(1.5) * 0.5, rtol=1e-15)


def test_legendre_eval_matches_scaled_classical():
    rng = np.random.default_rng(2)
    y = 2.0 * rng.random(7) - 1.0
    vals, _ = chaos.legendre_eval(10, y)
    for k in range(11):
        expect = math.sqrt((2 * k + 1) / 2.0) * classical_legendre(k, y)
        npt.assert_allclose(vals[:, k], expect, rtol=1e-12, atol=1e-13)


def test_legendre_orthonormality_quadrature():
    # 32-point Gauss rule integrates degree <= 63 exactly
    x, w = npleg.leggauss(32)
    vals, _ = chaos.legendre_eval(10, x)
    gram = (vals * w[:, None]).T @ vals
    npt.assert_allclose(gram, np.eye(11), atol=1e-12)


def test_legendre_derivatives_match_fd():
    y = np.linspace(-0.9, 0.9, 11)
    h = 1e-6
    _, ders = chaos.legendre_eval(8, y)
    vp, _ = chaos.legendre_eval(8, y + h)
    vm, _ = chaos.legendre_eval(8, y - h)
    npt.assert_allclose(ders, (vp - vm) / (2 * h), rtol=2e-9, atol=1e-8)


def test_legendre_eval_rejects_negative_degree():
    with pytest.raises(ValueError):
        chaos.legendre_eval(-1, np.array([0.0]))


def test_iso_td_frozen_ordering():
    idx = chaos.iso_td(2, 2)
    npt.assert_array_equal(
        idx.indices,
        [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]],
    )


def test_iso_td_cardinality():
    assert len(chaos.iso_td(92, 2)) == 4371
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = int(rng.integers(1, 51))
        q = int(rng.integers(0, 5))
        assert len(chaos.iso_td(p, q)) == math.comb(p + q, q)


def test_iso_td_structure():
    idx = chaos.iso_td(5, 3)
    rows = idx.indices
    assert tuple(rows[0]) == (0, 0, 0, 0, 0)
    assert rows.min() >= 0
    assert rows.sum(axis=1).max() == 3
    # graded: total degree is non-decreasing along the rows
    totals = rows.sum(axis=1)
    assert (np.diff(totals) >= 0).all()
    assert len({tuple(r) for r in rows.tolist()}) == len(idx)


def test_iso_td_rejects():
    with pytest.raises(ValueError, match="cap"):
        chaos.iso_td(100, 5, size_cap=1000)
    with pytest.raises(ValueError):
        chaos.iso_td(0, 2)
    with pytest.raises(ValueError):
        chaos.iso_td(3, -1)


def test_moment_matrices_identity_and_symmetry():
    mm = chaos.moment_matrices(chaos.iso_td(4, 2))
    n = len(chaos.iso_td(4, 2))
    npt.assert_array_equal(mm[0].toarray(), np.eye(n))
    for k in range(1, 5):
        g = mm[k].toarray()
        npt.assert_array_equal(g, g.T)
        npt.assert_array_equal(np.diag(g), 0.0)


def test_moment_entries_match_quadrature_oracle():
    """Every entry of every G_k against a tensor Gauss quadrature."""
    idx = chaos.iso_td(3, 2)
    mm = chaos.moment_matrices(idx)
    basis = chaos.ChaosBasis(idx)
    x, w = npleg.leggauss(4)
    # tensor grid over 3 dims with the uniform probability weight 1/2 each
    Y = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    W = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel() / 8.0
    psi = np.array([basis.eval(y) for y in Y])
    for k in range(1, 4):
        oracle = (psi * (W * Y[:, k - 1])[:, None]).T @ psi
        npt.assert_allclose(mm[k].toarray(), oracle, atol=1e-12)
    # and orthonormality of the probability-normalized basis itself
    gram = (psi * W[:, None]).T @ psi
    npt.assert_allclose(gram, np.eye(len(idx)), atol=1e-12)


def test_moment_sparsity_is_degree_one_coupling():
    idx = chaos.iso_td(4, 3)
    mm = chaos.moment_matrices(idx)
    rows = idx.indices
    for k in range(1, 5):
        g = mm[k].toarray()
        for i in range(len(idx)):
            for j in range(len(idx)):
                mu, nu = rows[i], rows[j]
                others = np.delete(mu, k - 1), np.delete(nu, k - 1)
                coupled = (
                    abs(int(mu[k - 1]) - int(nu[k - 1])) == 1
                    and (others[0] == others[1]).all()
                )
                if coupled:
                    m = min(int(mu[k - 1]), int(nu[k - 1])) + 1
                    expect = m / math.sqrt((2 * m - 1) * (2 * m + 1))
                    npt.assert_allclose(g[i, j], expect, rtol=1e-14)
                else:
                    assert g[i, j] == 0.0


def test_chaos_basis_is_product_of_scaled_classical():
    idx = chaos.iso_td(4, 3)
    basis = chaos.ChaosBasis(idx)
    rng = np.random.default_rng(4)
    for _ in range(5):
        y = 2.0 * rng.random(4) - 1.0
        got = basis.eval(y)
        expect = np.ones(len(idx))
        for d in range(4):
            for i, mu in enumerate(idx.indices):
                k = int(mu[d])
                expect[i] *= math.sqrt(2 * k + 1) * classical_legendre(k, y[d])
        npt.assert_allclose(got, expect, rtol=1e-12, atol=1e-13)


def test_chaos_basis_constant_for_degree_zero():
    basis = chaos.ChaosBasis(chaos.iso_td(6, 0))
    npt.assert_array_equal(basis.eval(np.full(6, 0.3)), [1.0])


@pytest.mark.parametrize("n_dims, degree", [(1, 3), (2, 3), (4, 0), (5, 2), (6, 3)])
def test_chaos_basis_slots_match_a_per_row_loop(n_dims, degree):
    basis = chaos.ChaosBasis(chaos.iso_td(n_dims, degree))
    idx = basis.index_set.indices
    assert len(basis._slots) == degree
    for s, (flat, dims) in enumerate(basis._slots):
        for i, mu in enumerate(idx):
            # the s-th active dimension of row i, or the degree-0 entry
            nz = np.flatnonzero(mu)
            d = int(nz[s]) if s < nz.size else 0
            assert dims[i] == d
            assert flat[i] == d * (degree + 1) + (mu[d] if s < nz.size else 0)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_chaos_basis_values_match_jacobian_path_bitwise(degree):
    basis = chaos.ChaosBasis(chaos.iso_td(5, degree))
    rng = np.random.default_rng(40 + degree)
    for _ in range(10):
        y = rng.uniform(-1.0, 1.0, 5)
        psi, _ = basis.eval_with_jacobian(y)
        npt.assert_array_equal(basis.eval(y), psi)


def test_chaos_basis_jacobian_matches_fd():
    idx = chaos.iso_td(5, 2)
    basis = chaos.ChaosBasis(idx)
    rng = np.random.default_rng(5)
    y = 0.8 * (2.0 * rng.random(5) - 1.0)
    psi, jac = basis.eval_with_jacobian(y)
    npt.assert_allclose(psi, basis.eval(y), rtol=1e-14)
    h = 1e-6
    for d in range(5):
        e = np.zeros(5)
        e[d] = h
        fd = (basis.eval(y + e) - basis.eval(y - e)) / (2 * h)
        npt.assert_allclose(jac[:, d], fd, rtol=1e-6, atol=1e-8)
