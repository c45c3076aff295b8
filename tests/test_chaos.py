import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
from numpy.polynomial import legendre as npleg

from conftest import moment_matrix
from sgeit import chaos


def classical_legendre(k, y):
    # P_k via numpy, independent of the package recurrence
    c = np.zeros(k + 1)
    c[k] = 1.0
    return npleg.legval(y, c)


def univariate(degree, y):
    """Values and derivatives of the one-dimensional ``ChaosBasis`` at the
    points y, one row per point and degrees 0..degree along the columns."""
    basis = chaos.ChaosBasis(chaos.iso_td(1, degree))
    pairs = [basis.eval_with_jacobian(np.array([t])) for t in y]
    return np.array([v for v, _ in pairs]), np.array([d[:, 0] for _, d in pairs])


def test_legendre_eval_frozen_values():
    vals, _ = univariate(1, np.array([0.5]))
    npt.assert_allclose(vals[0, 0], 1.0, rtol=1e-15)
    npt.assert_allclose(vals[0, 1], math.sqrt(3.0) * 0.5, rtol=1e-15)


def test_legendre_eval_matches_scaled_classical():
    rng = np.random.default_rng(2)
    y = 2.0 * rng.random(7) - 1.0
    vals, _ = univariate(10, y)
    for k in range(11):
        expect = math.sqrt(2 * k + 1) * classical_legendre(k, y)
        npt.assert_allclose(vals[:, k], expect, rtol=1e-12, atol=1e-13)


def test_legendre_orthonormality_quadrature():
    # 32-point Gauss rule integrates degree <= 63 exactly; the uniform
    # probability weight is half the Gauss weight
    x, w = npleg.leggauss(32)
    vals, _ = univariate(10, x)
    gram = (vals * (0.5 * w)[:, None]).T @ vals
    npt.assert_allclose(gram, np.eye(11), atol=1e-12)


def test_legendre_derivatives_match_fd():
    y = np.linspace(-0.9, 0.9, 11)
    h = 1e-6
    _, ders = univariate(8, y)
    vp, _ = univariate(8, y + h)
    vm, _ = univariate(8, y - h)
    npt.assert_allclose(ders, (vp - vm) / (2 * h), rtol=2e-9, atol=1e-8)


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


def composition_blocks(degree, n_dims):
    """The rows of iso_td(n_dims, degree) as the one-dimension-at-a-time
    construction grew them, one block per total: prepending the new head
    in decreasing order keeps every block in descending lexicographic
    order."""
    blocks = [np.full((1, 1), d, dtype=np.int64) for d in range(degree + 1)]
    for _ in range(1, n_dims):
        # total d: heads d, d-1, ..., 0, each before the tails of total d - head
        sizes = [len(b) for b in blocks]
        heads = [np.repeat(range(d, -1, -1), sizes[: d + 1]) for d in range(degree + 1)]
        blocks = [np.c_[h, np.vstack(blocks[: d + 1])] for d, h in enumerate(heads)]
    return np.vstack(blocks)


@pytest.mark.parametrize(
    "n_dims, degree", [(1, 0), (7, 0), (20, 2), (20, 3), (92, 2), (12, 5)]
)
def test_iso_td_is_the_composition_construction(n_dims, degree):
    got = chaos.iso_td(n_dims, degree).indices
    want = composition_blocks(degree, n_dims)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    npt.assert_array_equal(got, want)


def test_index_set_refuses_a_repeated_row():
    # the tiny surrogate's set with its last row replaced by the one before
    # it: the repeat is named where the set is built, not later as a fault
    # of the graded order
    rows = chaos.iso_td(7, 2).indices.copy()
    rows[-1] = rows[-2]
    repeat = r"multi-index \[0, 0, 0, 0, 0, 1, 1\] is repeated: rows 34 and 35"
    with pytest.raises(ValueError, match=repeat):
        chaos.MultiIndexSet(7, 2, rows)
    # a reordered set of distinct rows is still a set
    rows = chaos.iso_td(7, 2).indices[::-1]
    assert len(chaos.MultiIndexSet(7, 2, rows)) == 36


def first_repeat_by_byte_sort(rows):
    """The message for the first repeat that one stable sort of all rows as
    bytes finds, or None: the reference for the keyed check."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    as_bytes = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(as_bytes, kind="stable")
    repeats = np.flatnonzero(as_bytes[order][1:] == as_bytes[order][:-1])
    if not repeats.size:
        return None
    i, j = order[repeats[0]], order[repeats[0] + 1]
    return f"multi-index {rows[j].tolist()} is repeated: rows {i} and {j}"


@pytest.mark.parametrize("weights", ["fixed", "all ones"])
def test_index_set_compares_rows_of_equal_keys_in_full(monkeypatch, weights):
    # with every weight 1 a row's key is its total degree, so every row of
    # one degree shares its key: distinct rows must still be accepted, and a
    # repeat named as the byte sort of all rows names it
    if weights == "all ones":
        monkeypatch.setattr(chaos, "_row_weights", lambda n: np.ones(n, dtype=np.int64))
    full = chaos.iso_td(7, 2).indices
    assert len(chaos.MultiIndexSet(7, 2, full[::-1])) == 36
    rng = np.random.default_rng(21)
    for _ in range(20):
        rows = full[rng.integers(0, 36, 36)]
        want = first_repeat_by_byte_sort(rows)
        if want is None:
            assert len(chaos.MultiIndexSet(7, 2, rows)) == 36
        else:
            with pytest.raises(ValueError) as raised:
                chaos.MultiIndexSet(7, 2, rows)
            assert str(raised.value) == want


def test_row_weights_give_the_paper_set_distinct_keys():
    # the fixed weights are odd and, on the 4,371 rows of the paper's set,
    # leave no two rows one key, so no row is compared in full there
    w = chaos._row_weights(92)
    assert w.dtype == np.int64 and (w & 1).all() and len(np.unique(w)) == 92
    idx = chaos.iso_td(92, 2).indices
    assert len(np.unique(idx @ w)) == len(idx) == 4_371


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
    npt.assert_array_equal(moment_matrix(mm, 0).toarray(), np.eye(n))
    for k in range(1, 5):
        g = moment_matrix(mm, k).toarray()
        npt.assert_array_equal(g, g.T)
        npt.assert_array_equal(np.diag(g), 0.0)


def check_moments_against_quadrature(idx):
    """Every entry of every G_k of a 3-dimensional set against a 4-point
    tensor Gauss quadrature, exact up to degree 7 per dimension."""
    mm = chaos.moment_matrices(idx)
    basis = chaos.ChaosBasis(idx)
    x, w = npleg.leggauss(4)
    # tensor grid over 3 dims with the uniform probability weight 1/2 each
    Y = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    W = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel() / 8.0
    psi = np.array([basis.eval(y) for y in Y])
    for k in range(1, 4):
        oracle = (psi * (W * Y[:, k - 1])[:, None]).T @ psi
        npt.assert_allclose(moment_matrix(mm, k).toarray(), oracle, atol=1e-12)
    # and orthonormality of the probability-normalized basis itself
    gram = (psi * W[:, None]).T @ psi
    npt.assert_allclose(gram, np.eye(len(idx)), atol=1e-12)


def test_moment_entries_match_quadrature_oracle():
    check_moments_against_quadrature(chaos.iso_td(3, 2))


def td_with_cubes():
    """A downward-closed set that is not isotropic: total degree 2 in three
    dimensions plus the pure cubes y_k^3."""
    cubes = 3 * np.eye(3, dtype=np.int64)
    return chaos.MultiIndexSet(3, 3, np.vstack([chaos.iso_td(3, 2).indices, cubes]))


def test_moment_entries_of_a_non_isotropic_set_match_quadrature_oracle():
    idx = td_with_cubes()
    check_moments_against_quadrature(idx)
    # a cube couples only to its square
    g = moment_matrix(chaos.moment_matrices(idx), 1).tocoo()
    cube = len(idx) - 3
    assert g.col[g.row == cube].tolist() == [idx.indices.tolist().index([2, 0, 0])]


def moment_matrices_by_loop(index_set):
    """G_1..G_P, dense, index by index: mu couples to mu - e_k when the set
    holds it."""
    rows = index_set.indices.tolist()
    pos = {tuple(mu): i for i, mu in enumerate(rows)}
    G = np.zeros((index_set.n_dims, len(rows), len(rows)))
    for i, mu in enumerate(rows):
        for k, m in enumerate(mu):
            j = pos.get(tuple(mu[:k] + [m - 1] + mu[k + 1 :]))
            if m and j is not None:
                G[k, i, j] = G[k, j, i] = m / math.sqrt(4.0 * m * m - 1.0)
    return G


@pytest.mark.parametrize(
    "index_set",
    [
        chaos.iso_td(1, 4),
        chaos.iso_td(4, 0),
        chaos.iso_td(6, 3),
        # the set of the tank: 12 pixels and 8 electrodes at degree 2
        chaos.iso_td(20, 2),
        td_with_cubes(),
        # y_1^3 lacks y_1^2: its neighbour is missing and couples nothing
        chaos.MultiIndexSet(2, 3, np.array([[0, 0], [1, 0], [0, 1], [3, 0]])),
    ],
    ids=["1x4", "4x0", "6x3", "20x2", "cubes", "hole"],
)
def test_moment_matrices_equal_a_per_index_loop(index_set):
    mm = chaos.moment_matrices(index_set)
    assert mm.n_dims == index_set.n_dims
    for k, want in enumerate(moment_matrices_by_loop(index_set), start=1):
        npt.assert_array_equal(moment_matrix(mm, k).toarray(), want)
    assert np.all(mm.coeff != 0.0)
    # the table lists every entry once: no (k, row, column) repeats
    entries = np.column_stack([mm.dim, mm.row, mm.col])
    assert len(np.unique(entries, axis=0)) == len(entries)


def test_moment_sparsity_is_degree_one_coupling():
    idx = chaos.iso_td(4, 3)
    mm = chaos.moment_matrices(idx)
    rows = idx.indices
    for k in range(1, 5):
        g = moment_matrix(mm, k).toarray()
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


def monomials(index_set, y):
    """y^mu for every row, from the slot table over [1, y]."""
    slots = chaos.monomial_slots(index_set)
    return np.concatenate([[1.0], y])[slots].prod(axis=1)


@pytest.mark.parametrize("n_dims, degree", [(1, 3), (4, 0), (5, 2), (6, 3), (3, 5)])
def test_monomial_slots_list_each_dimension_by_its_degree(n_dims, degree):
    idx = chaos.iso_td(n_dims, degree)
    slots = chaos.monomial_slots(idx)
    assert slots.shape == (len(idx), degree)
    for mu, row in zip(idx.indices, slots):
        expect = np.repeat(np.arange(1, n_dims + 1), mu)
        expect = np.concatenate([expect, np.zeros(degree - expect.size, int)])
        npt.assert_array_equal(np.sort(row), np.sort(expect))
    # a monomial is a plain power product
    y = np.random.default_rng(30).uniform(-1.0, 1.0, n_dims)
    npt.assert_allclose(monomials(idx, y), np.prod(y**idx.indices, axis=1), rtol=1e-15)


def change_of_basis(index_set):
    """T of ``chaos.legendre_to_monomial`` as a CSR matrix."""
    rows, cols, vals = chaos.legendre_to_monomial(index_set)
    n = len(index_set)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


@pytest.mark.parametrize(
    "n_dims, degree", [(4, 0), (4, 1), (5, 2), (20, 2), (6, 3), (3, 6)]
)
def test_legendre_to_monomial_is_sparse_by_parity(n_dims, degree):
    idx = chaos.iso_td(n_dims, degree)
    T = change_of_basis(idx)
    assert T.shape == (len(idx), len(idx))
    # degree d has the powers d, d-2, ...: prod_k (mu_k // 2 + 1) monomials
    per_row = np.prod(idx.indices // 2 + 1, axis=1)
    npt.assert_array_equal(np.diff(T.indptr), per_row)
    assert np.all(T.data != 0.0)
    # every monomial of row mu has the parity of mu and lies below it
    for i, mu in enumerate(idx.indices):
        nus = idx.indices[T.indices[T.indptr[i] : T.indptr[i + 1]]]
        assert np.all(nus <= mu) and np.all((mu - nus) % 2 == 0)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_power_form_equals_the_legendre_basis(degree):
    n_dims = 4
    idx = chaos.iso_td(n_dims, degree)
    basis = chaos.ChaosBasis(idx)
    T = change_of_basis(idx)
    rng = np.random.default_rng(50 + degree)
    corners = np.array(list(itertools.product([-1.0, 1.0], repeat=n_dims)))
    for y in np.vstack([rng.uniform(-1.0, 1.0, (20, n_dims)), corners]):
        want = basis.eval(y)
        # entries that cancel to near zero carry an absolute rounding error,
        # so the relative bound is taken against the largest entry
        npt.assert_allclose(
            T @ monomials(idx, y), want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
        )


def test_power_form_of_a_non_isotropic_set_equals_the_legendre_basis():
    idx = td_with_cubes()
    basis = chaos.ChaosBasis(idx)
    T = change_of_basis(idx)
    # a cube expands to y_k^3 and y_k
    npt.assert_array_equal(np.diff(T.indptr)[-3:], [2, 2, 2])
    rng = np.random.default_rng(60)
    corners = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
    for y in np.vstack([rng.uniform(-1.0, 1.0, (20, 3)), corners]):
        want = basis.eval(y)
        npt.assert_allclose(
            T @ monomials(idx, y), want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
        )


def test_legendre_to_monomial_rejects_a_set_with_a_hole():
    # y_1^3 expands to y_1^3 and y_1, and y_1 is missing
    idx = chaos.MultiIndexSet(2, 3, np.array([[0, 0], [3, 0]]))
    with pytest.raises(ValueError, match="not downward closed"):
        chaos.legendre_to_monomial(idx)
