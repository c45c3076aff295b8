import dataclasses
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sgeit
from conftest import as_scipy, moment_matrix
from sgeit import chaos, det_cem, fem, sgfem


def spatial(mesh, part, sigma0, sigma, a, b):
    return fem.assemble_spatial(mesh, part, fem.ParameterBounds(sigma0, sigma, a, b))


@pytest.fixture(scope="module")
def tiny_sg():
    # 5 nodes, 2 electrodes, 1 pixel: 3 stochastic dims, order 60 at Q=2
    mesh = sgeit.make_disk_fixture(1, 4, 2, 0.5)
    part = sgeit.assign_pixels(mesh, np.array([[0.0, 0.0]]))
    a = np.array([100.0, 150.0])
    b = np.array([1000.0, 800.0])
    sm = spatial(mesh, part, 1.1, np.array([0.6]), a, b)
    idx = chaos.iso_td(3, 2)
    system = sgfem.assemble_system(sm, chaos.moment_matrices(idx))
    return mesh, part, sm, idx, system, a, b


def rhs_for_current(system, currents):
    """Load vector of one current pattern (mA) on all of K, nonzero only at
    the degree-0 voltage coefficients: (c_i)_0 = I_1 - I_{i+1}."""
    currents = np.asarray(currents, dtype=np.float64)
    c = np.zeros(system.order)
    base = system.n_nodes * system.n_chaos
    loads = sgfem._voltage_loads(currents[None], system.n_electrodes)
    c[base :: system.n_chaos] = loads[0]
    return c


def lu_reference(system, patterns):
    """beta of every pattern by scipy's sparse LU of all of K."""
    C = np.column_stack(
        [rhs_for_current(system, p) for p in np.atleast_2d(patterns)]
    )
    X = spla.spsolve(system.K.tocsc(), C).reshape(C.shape)
    n_d, n_g, n_p = system.n_nodes, system.n_chaos, C.shape[1]
    return X[n_d * n_g :].T.reshape(n_p, -1, n_g)


def dense_block_matrix(sm, a, b, y):
    """Deterministic electrode-model matrix at one parameter point."""
    n_d = sm.n_nodes
    n_el = sm.n_electrodes
    L = sm.n_pixels
    zeta = 0.5 * (a + b) + 0.5 * (b - a) * y[L:]
    delta = sm.A0.toarray()
    for l in range(L):
        delta = delta + y[l] * sm.A[l].toarray()
    for m in range(n_el):
        delta = delta + zeta[m] * sm.S[m].toarray()
    ups = np.column_stack(
        [zeta[i + 1] * sm.g[i + 1] - zeta[0] * sm.g[0] for i in range(n_el - 1)]
    )
    pi = np.full((n_el - 1, n_el - 1), zeta[0] * sm.lengths[0])
    pi[np.diag_indices(n_el - 1)] += zeta[1:] * sm.lengths[1:]
    n = n_d + n_el - 1
    B = np.zeros((n, n), dtype=np.result_type(y, np.float64))
    B[:n_d, :n_d] = delta
    B[:n_d, n_d:] = ups
    B[n_d:, :n_d] = ups.T
    B[n_d:, n_d:] = pi
    return B


def gauss_legendre4_longdouble():
    """4-point Gauss-Legendre rule on [-1, 1] in closed form, in long double.

    numpy's ``leggauss`` returns float64 nodes and weights whose moments are
    off by up to ~4e-16, which the ~1e3 entries of the Galerkin matrix turn
    into ~1e-12 errors at its structural zeros.
    """
    ld = np.longdouble
    r = np.sqrt(ld(6) / ld(5))
    inner = np.sqrt((ld(3) - 2 * r) / ld(7))
    outer = np.sqrt((ld(3) + 2 * r) / ld(7))
    w_inner = (ld(18) + np.sqrt(ld(30))) / ld(36)
    w_outer = (ld(18) - np.sqrt(ld(30))) / ld(36)
    x = np.array([-outer, -inner, inner, outer], dtype=ld)
    w = np.array([w_outer, w_inner, w_inner, w_outer], dtype=ld)
    return x, w


def legendre_prob_longdouble(y):
    """Legendre values of degree 0..2, orthonormal under the uniform
    probability measure on [-1, 1], in closed form in long double.

    Trailing axis over degrees.  ``numpy.polynomial.legendre.legval`` is not
    used: numpy forms its recurrence ratios as Python floats, so its
    long-double results have only float64 accuracy.
    """
    ld = np.longdouble
    y = np.asarray(y, dtype=ld)
    return np.stack(
        [np.ones_like(y), np.sqrt(ld(3)) * y, np.sqrt(ld(5)) * (3 * y * y - 1) / 2],
        axis=-1,
    )


def test_system_matches_dense_quadrature_oracle(tiny_sg):
    """Whole Galerkin matrix vs brute-force integration of B(y) Psi Psi'.

    The 4^3 tensor Gauss rule is exact for the integrand (degree <= 5 per
    dimension); the reference is summed in long double so that its own
    error at K's structural zeros stays far below ``atol``.
    """
    mesh, part, sm, idx, system, a, b = tiny_sg
    x, w = gauss_legendre4_longdouble()
    # the rule itself must be exact to long-double precision up to degree 7;
    # this fails first where long double is no wider than float64
    for k in range(8):
        exact = np.longdouble(2) / (k + 1) if k % 2 == 0 else 0
        assert abs(np.sum(w * x**k) - exact) <= 1e-18, k
    assert idx.indices.max() <= 2  # the closed-form values stop at degree 2
    Y = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    W = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel() / 8.0
    P = legendre_prob_longdouble(Y)  # (points, dims, degree)
    dims = np.arange(idx.n_dims)
    oracle = np.zeros((system.order, system.order), dtype=np.longdouble)
    for y, p, wt in zip(Y, P, W):
        B = dense_block_matrix(sm, a, b, y)
        psi = np.prod(p[dims, idx.indices], axis=1)
        oracle += wt * np.kron(B, np.outer(psi, psi))
    K = system.K.toarray()
    npt.assert_allclose(K, oracle, rtol=1e-10, atol=1e-12)


def test_degree_zero_slice_is_mean_block_matrix(tiny_sg):
    # the pcg preconditioner factors this slice as K_0
    _, _, sm, idx, system, a, b = tiny_sg
    B0 = sgfem.cem_matrix(sm.A0, 0.5 * (a + b), sm.S, sm.g, sm.lengths)
    n_g = len(idx)
    assert (system.K[::n_g, ::n_g] != as_scipy(B0)).nnz == 0


def test_cem_matrix_equals_the_dense_block_matrix(tiny):
    # the one builder against the layout written out by hand, at points y
    # inside the box; kron_reference builds its blocks with the same builder
    # as assembly, so it cannot catch a layout error
    mesh, part, _ = tiny
    L, M = part.n_pixels, mesh.n_electrodes
    a, b = np.full(M, 100.0), np.linspace(500.0, 1000.0, M)
    sm = spatial(mesh, part, 1.1, np.full(L, 0.6), a, b)
    rng = np.random.default_rng(16)
    for y in rng.uniform(-1.0, 1.0, (4, L + M)):
        A = as_scipy(sm.A0) + sum(y_l * as_scipy(A_l) for y_l, A_l in zip(y, sm.A))
        zeta = sm.bounds.zeta_mid + sm.bounds.zeta_half * y[L:]
        B = sgfem.cem_matrix(A, zeta, sm.S, sm.g, sm.lengths)
        assert np.all(B.data != 0.0)
        npt.assert_allclose(
            B.toarray(), dense_block_matrix(sm, a, b, y), rtol=1e-13, atol=1e-12
        )


def test_system_bitwise_symmetric(tiny_sg):
    _, _, _, _, system, _, _ = tiny_sg
    diff = (system.K - system.K.T).toarray()
    assert np.abs(diff).max() == 0.0


def kron_reference(sm, mm):
    """K from sp.kron of every block pair, one COO-to-CSR conversion."""
    n_el = sm.n_electrodes
    electrodes = (sm.S, sm.g, sm.lengths)
    zero = sp.csr_matrix(sm.A0.shape)
    blocks = [sgfem.cem_matrix(sm.A0, sm.bounds.zeta_mid, *electrodes)]
    blocks += [sgfem.cem_matrix(A_l, np.zeros(n_el), *electrodes) for A_l in sm.A]
    blocks += [
        sgfem.cem_matrix(zero, h * e_m, *electrodes)
        for h, e_m in zip(sm.bounds.zeta_half, np.eye(n_el))
    ]
    G = [moment_matrix(mm, k) for k in range(mm.n_dims + 1)]
    terms = [sp.kron(as_scipy(B), G_k, format="coo") for B, G_k in zip(blocks, G)]
    return sp.coo_matrix(
        (
            np.concatenate([t.data for t in terms]),
            (
                np.concatenate([t.row for t in terms]),
                np.concatenate([t.col for t in terms]),
            ),
        ),
        shape=terms[0].shape,
    ).tocsr()


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_system_equals_the_kron_construction_bitwise(tiny, degree):
    mesh, part, _ = tiny
    L, M = part.n_pixels, mesh.n_electrodes
    sm = spatial(
        mesh, part, 1.1, np.full(L, 0.6), np.full(M, 100.0), np.full(M, 1000.0)
    )
    mm = chaos.moment_matrices(chaos.iso_td(L + M, degree))
    K = sgfem.assemble_system(sm, mm).K
    ref = kron_reference(sm, mm)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(K, name), getattr(ref, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_system_with_collapsed_contacts_equals_the_kron_construction_bitwise(tiny):
    # a zero half-width makes a zero electrode block, which K must not store
    mesh, part, _ = tiny
    L, M = part.n_pixels, mesh.n_electrodes
    sm = spatial(mesh, part, 1.1, np.full(L, 0.6), np.full(M, 300.0), np.full(M, 300.0))
    mm = chaos.moment_matrices(chaos.iso_td(L + M, 2))
    K = sgfem.assemble_system(sm, mm).K
    ref = kron_reference(sm, mm)
    assert K.nnz == ref.nnz and np.all(K.data != 0.0)
    for name in ("indptr", "indices", "data"):
        assert getattr(K, name).tobytes() == getattr(ref, name).tobytes()


def test_system_positive_definite(tiny_sg):
    _, _, _, _, system, _, _ = tiny_sg
    w = np.linalg.eigvalsh(system.K.toarray())
    assert w.min() > 0.0


def test_system_bookkeeping(tiny_sg):
    mesh, _, _, idx, system, _, _ = tiny_sg
    assert system.n_nodes == mesh.n_nodes
    assert system.n_electrodes == 2
    assert system.n_chaos == len(idx)
    assert system.order == (mesh.n_nodes + 1) * len(idx)
    assert system.K.shape == (system.order, system.order)


def test_assemble_system_rejects(tiny_sg):
    # the contact checks live in the box and in assemble_spatial
    mesh, part, sm, idx, _, _, _ = tiny_sg
    sigma = np.array([0.6])
    with pytest.raises(ValueError, match="electrode 1: invalid contact"):
        fem.ParameterBounds(1.1, sigma, np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="electrode 2: invalid contact"):
        fem.ParameterBounds(1.1, sigma, np.array([1.0, 5.0]), np.array([2.0, 1.0]))
    with pytest.raises(ValueError, match="one contact bound pair"):
        spatial(mesh, part, 1.1, sigma, np.array([1.0]), np.array([2.0]))
    mm_small = chaos.moment_matrices(chaos.iso_td(2, 2))
    with pytest.raises(ValueError, match="moment matrices cover 2 dimensions"):
        sgfem.assemble_system(sm, mm_small)


def test_rhs_frozen_examples():
    mesh = sgeit.make_disk_fixture(2, 12, 3, 0.5)
    part = sgeit.assign_pixels(mesh, np.array([[0.0, 0.0]]))
    sm = spatial(mesh, part, 1.0, [0.5], np.full(3, 10.0), np.full(3, 1000.0))
    idx = chaos.iso_td(4, 1)
    system = sgfem.assemble_system(sm, chaos.moment_matrices(idx))
    n_g = len(idx)
    base = mesh.n_nodes * n_g

    c = rhs_for_current(system, np.array([1.0, -1.0, 0.0]))
    assert c[base] == 2.0 and c[base + n_g] == 1.0
    c = rhs_for_current(system, np.array([1.0, 0.0, -1.0]))
    assert c[base] == 1.0 and c[base + n_g] == 2.0
    # only the degree-0 voltage coefficients are loaded
    mask = np.ones(system.order, dtype=bool)
    mask[base::n_g] = False
    assert np.all(c[mask] == 0.0)

    with pytest.raises(ValueError, match="sum to zero"):
        rhs_for_current(system, np.array([1.0, -0.5, 0.0]))
    with pytest.raises(ValueError, match="one current per electrode"):
        rhs_for_current(system, np.array([1.0, -1.0]))


def test_solve_rejects_a_pattern_that_loads_nothing():
    # equal currents give a zero load, whose relative residual is 0/0: a
    # nan that no tolerance check would catch
    mesh = sgeit.make_disk_fixture(2, 12, 4, 0.5)
    part = sgeit.assign_pixels(mesh, np.array([[0.3, 0.0], [-0.3, 0.0]]))
    sm = spatial(
        mesh, part, 1.1, np.full(2, 0.6), np.full(4, 100.0), np.full(4, 1000.0)
    )
    system = sgfem.assemble_system(sm, chaos.moment_matrices(chaos.iso_td(6, 2)))
    first = sgfem.standard_patterns(4)[0]
    with pytest.raises(ValueError, match="pattern 1 loads nothing"):
        sgfem.solve(system, np.vstack([first, np.zeros(4)]))
    with pytest.raises(ValueError, match="pattern 0 loads nothing"):
        sgfem.solve(system, np.zeros(4))
    # a non-finite current fails the sum test instead of passing it
    with pytest.raises(ValueError, match="pattern 0: currents must sum to zero"):
        sgfem.solve(system, [np.nan, 1.0, -1.0, 0.0])


def test_solve_direct_and_pcg_agree(tiny_sg):
    # moderate contact bounds keep the system well conditioned for CG
    mesh, part, _, idx, _, _, _ = tiny_sg
    sm = spatial(mesh, part, 1.1, [0.6], np.array([1.0, 2.0]), np.array([5.0, 4.0]))
    system = sgfem.assemble_system(sm, chaos.moment_matrices(idx))
    pats = sgfem.standard_patterns(2)
    beta = lu_reference(system, pats)
    # CG on the Schur complement of one parity class needs 3 iterations
    # here, CG on all of K with the same preconditioner 7, Jacobi 34
    sol_p = sgfem.solve(system, pats, maxiter=20)
    # symmetry zeros carry solver noise ~tol, so an absolute floor applies
    npt.assert_allclose(sol_p.beta, beta, rtol=1e-7, atol=1e-9)
    assert sol_p.residuals.max() <= 1e-10


# three patterns of different amplitude on the 4 electrodes of ``tiny``
MIXED_PATTERNS = np.array(
    [[1.0, -1.0, 0.0, 0.0], [0.0, 2.0, -2.0, 0.0], [0.5, 0.5, -0.5, -0.5]]
)


def test_block_pcg_matches_direct_and_single_pattern_solves(tiny):
    # three patterns of different amplitude share one block CG run
    mesh, part, _ = tiny
    sm = spatial(
        mesh, part, 1.1, np.full(3, 0.6), np.full(4, 100.0), np.full(4, 1000.0)
    )
    system = sgfem.assemble_system(sm, chaos.moment_matrices(chaos.iso_td(7, 2)))
    pats = MIXED_PATTERNS
    sol = sgfem.solve(system, pats)
    beta = lu_reference(system, pats)
    # 9 iterations measured for every pattern (19 for CG on all of K)
    assert sol.iterations <= 9
    assert sol.residuals.max() <= 1e-10
    npt.assert_allclose(sol.beta, beta, rtol=1e-7, atol=1e-9)
    # each column follows its own CG iterates: pattern-wise step lengths
    # agree with one-pattern runs to rounding (~4e-15 measured), where
    # step lengths shared across the block differ by ~1e-12
    for p, pattern in enumerate(pats):
        single = sgfem.solve(system, pattern)
        assert single.iterations <= sol.iterations
        want = single.beta[0]
        npt.assert_allclose(sol.beta[p], want, rtol=0, atol=1e-13 * np.abs(want).max())


def tiny_collapsed_spatial(tiny):
    """Spatial matrices of the tiny setup with collapsed contacts (a = b)."""
    mesh, part, _ = tiny
    L, M = part.n_pixels, mesh.n_electrodes
    return spatial(mesh, part, 1.1, np.full(L, 0.6), np.full(M, 300.0), np.full(M, 300.0))


def tiny_collapsed_system(tiny):
    """Galerkin system of the tiny setup at degree 2 with collapsed contacts
    (a = b): every electrode block B_{L+m} is zero, so the even indices
    coupled only through electrode dimensions (2 e_m, e_m + e_m') reach no
    spatial row, and their supports are empty."""
    sm = tiny_collapsed_spatial(tiny)
    n_dims = sm.n_pixels + sm.n_electrodes
    return sgfem.assemble_system(sm, chaos.moment_matrices(chaos.iso_td(n_dims, 2)))


def support_sizes(sm):
    """|S_k| of every B_k, k >= 1, from the spatial matrices: the rows that
    A_l stores, and those of the electrode's unit block E_m, none when its
    half-width is zero."""
    sizes = [len(np.unique(sgfem._triplets(A_l)[0])) for A_l in sm.A]
    rows, _, _, electrode = sgfem._electrode_triplets(sm.S, sm.g, sm.lengths)
    for m, half in enumerate(sm.bounds.zeta_half):
        sizes.append(len(np.unique(rows[electrode == m])) if half else 0)
    return np.array(sizes)


def held_entries(coupling):
    """The entries of K_0^{-1} in the pair blocks of a ``_pair_coupling``:
    the diagonal ones, and each pair m != m' in its first orientation."""
    held = sum(blocks.size for _, blocks in coupling.diagonal)
    return held + sum(blocks.size for blocks, _, _ in coupling.off[::2])


def assert_packed_rows_are_the_supports(system):
    """Each other-class position's rows of ``_packed_supports`` follow those
    of the position before it and hold its support in ascending order: the
    spatial rows at which its columns of K_kj store an entry, and for chaos
    index 0 the voltage rows, where its load lies; every entry of K_kj is
    renumbered to the packed row of its column.  Returns the first packed
    row of every position, with the row count."""
    other, n_s = system.classes[1], system.B0.shape[0]
    K, starts, supports = sgfem._packed_supports(system)
    j, nu = np.divmod(system.K_kj.indices, len(other))
    assert len(starts) == len(other) + 1 and starts[0] == 0
    for p, index in enumerate(other):
        want = np.unique(j[nu == p])
        if index == 0:
            want = np.union1d(want, np.arange(system.n_nodes, n_s))
        npt.assert_array_equal(supports[starts[p] : starts[p + 1]], want)
    assert K.shape == (system.K_kj.shape[0], len(supports))
    npt.assert_array_equal(supports[K.indices], j)
    assert ((starts[nu] <= K.indices) & (K.indices < starts[nu + 1])).all()
    return starts


@pytest.mark.parametrize("case", [1, 2, 3, "collapsed"])
def test_pair_coupling_is_exact(tiny, case):
    # K_kj (K_0^{-1} (x) I) K_jk through the pair blocks K_0^{-1}[S_m,
    # S_m'] against the same product with all of K_0^{-1} (x) I, K_kj taken
    # from all of K.  The kept class is the even one at degrees 1 and 3,
    # with chaos index 0 in it, and the odd one at degree 2.  Degree 1
    # pairs no two dimensions; at degree 3 three dimensions reach a
    # position, so the outputs of the pairs m != m' add in two layers; the
    # collapsed contacts leave every electrode block empty.
    if case == "collapsed":
        sm = tiny_collapsed_spatial(tiny)
        system = tiny_collapsed_system(tiny)
    else:
        sm, system = tiny_system(tiny, case)
    n_s, n_g, n_p = system.B0.shape[0], system.n_chaos, 3
    kept, other = system.classes
    K0inv = sgfem._mean_inverse(system)
    coupling = sgfem._pair_coupling(system, K0inv, n_p)
    assert len(coupling.spread) == {1: 0, 2: 1, 3: 2, "collapsed": 1}[case]
    V = np.random.default_rng(len(kept)).standard_normal((n_s, len(kept) * n_p))
    kept_rows, other_rows = (
        (np.arange(n_s)[:, None] * n_g + members).ravel() for members in (kept, other)
    )
    K_kj = system.K[kept_rows][:, other_rows]
    dense = sp.kron(K0inv, sp.identity(len(other)), format="csr")
    want = K_kj @ (dense @ (K_kj.T @ V.reshape(-1, n_p)))
    got = sgfem._couple(coupling, V, n_p)
    assert got.shape == V.shape
    npt.assert_allclose(
        got.reshape(-1, n_p), want, rtol=0, atol=1e-13 * np.abs(want).max()
    )
    # beside K_0^{-1}, the blocks hold each pair of dimensions once
    sizes = support_sizes(sm)
    assert 0 < held_entries(coupling) <= (sizes.sum() ** 2 + sizes @ sizes) / 2


def test_solve_with_empty_supports_matches_direct(tiny):
    # an other position is reached by a pixel dimension exactly when its
    # support is not empty: the collapsed contacts store nothing
    system = tiny_collapsed_system(tiny)
    n_pixels = tiny_collapsed_spatial(tiny).n_pixels
    dim, _, nu = system.G_kj
    reached = np.zeros(len(system.classes[1]), dtype=bool)
    reached[nu[dim <= n_pixels]] = True
    assert not reached.all()
    starts = assert_packed_rows_are_the_supports(system)
    npt.assert_array_equal(np.diff(starts) > 0, reached)
    sol = sgfem.solve(system, MIXED_PATTERNS)
    assert sol.residuals.max() <= 1e-10
    beta = lu_reference(system, MIXED_PATTERNS)
    npt.assert_allclose(sol.beta, beta, rtol=1e-7, atol=1e-9)


def test_solve_rejects_bad_options(tiny_sg):
    mesh, part, _, idx, _, _, _ = tiny_sg
    sm = spatial(mesh, part, 1.1, [0.6], np.array([1.0, 2.0]), np.array([5.0, 4.0]))
    system = sgfem.assemble_system(sm, chaos.moment_matrices(idx))
    pats = sgfem.standard_patterns(2)
    with pytest.raises(RuntimeError, match="PCG did not reach"):
        sgfem.solve(system, pats, maxiter=1)
    # a tolerance that is not positive and finite would run to the cap
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            sgfem.solve(system, pats, tol=tol)


def test_solve_refuses_a_mean_matrix_that_is_not_positive_definite(tiny_sg):
    # the dense Cholesky of the negated mean matrix -K_0 fails at once
    system = tiny_sg[4]
    negated = dataclasses.replace(system, B0=-as_scipy(system.B0))
    with pytest.raises(RuntimeError, match="not positive definite"):
        sgfem.solve(negated, sgfem.standard_patterns(2))


LEAF = sgfem._INVERSE_LEAF


def random_spd(n, seed):
    """A well-conditioned symmetric positive definite n x n matrix."""
    A = np.random.default_rng(seed).standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_mean_inverse_matches_the_dense_inverse(tiny, degree):
    _, system = tiny_system(tiny, degree)
    want = np.linalg.inv(system.B0.toarray())
    got = sgfem._mean_inverse(system)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [None, 2 * LEAF + 3], ids=["tiny", "blocks"])
def test_mean_inverse_is_exactly_symmetric(tiny, n):
    # K_0^{-1} = L^{-T} L^{-1} is symmetric only if numpy forms a matrix's
    # transpose times the matrix as a symmetric rank-k update, which mirrors
    # one triangle; on the tiny B_0, and on a matrix large enough for the
    # block recursion of the triangular inverse
    _, system = tiny_system(tiny, 2)
    if n is not None:
        system = dataclasses.replace(system, B0=sp.csr_matrix(random_spd(n, n)))
    K0inv = sgfem._mean_inverse(system)
    assert np.array_equal(K0inv, K0inv.T)


@pytest.mark.parametrize("n", [LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 1, 3 * LEAF + 5])
def test_lower_inverse_matches_numpy_around_its_leaf_size(n):
    # one leaf below and at the leaf size, one split above it, and deeper
    # recursions with halves of unequal size
    L = np.linalg.cholesky(random_spd(n, n))
    want = np.linalg.inv(L)
    got = sgfem._lower_inverse(L)
    assert not np.triu(got, 1).any()
    npt.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


def tiny_system(tiny, degree):
    """Galerkin system of the tiny setup (7 dimensions) at one degree."""
    mesh, part, _ = tiny
    L, M = part.n_pixels, mesh.n_electrodes
    sm = spatial(
        mesh, part, 1.1, np.full(L, 0.6), np.full(M, 100.0), np.full(M, 1000.0)
    )
    mm = chaos.moment_matrices(chaos.iso_td(L + M, degree))
    return sm, sgfem.assemble_system(sm, mm)


def assert_two_cyclic(sm, idx, system):
    """Both same-parity blocks of K are exactly B_0 (x) I, and the system
    counts K's entries from B_0 and K_kj."""
    npt.assert_array_equal(system.parity, idx.indices.sum(axis=1) % 2)
    assert system.nnz == system.K.nnz
    B0 = sgfem.cem_matrix(sm.A0, sm.bounds.zeta_mid, sm.S, sm.g, sm.lengths)
    n_s, n_g = B0.shape[0], system.n_chaos
    for parity in (0, 1):
        members = np.flatnonzero(system.parity == parity)
        rows = (np.arange(n_s)[:, None] * n_g + members).ravel()
        same = system.K[rows][:, rows]
        assert same.shape == (n_s * len(members),) * 2
        assert (same != sp.kron(as_scipy(B0), sp.identity(len(members)))).nnz == 0


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_same_parity_blocks_are_the_mean_matrix_times_identity(tiny, degree):
    sm, system = tiny_system(tiny, degree)
    assert_two_cyclic(sm, chaos.iso_td(7, degree), system)


def test_same_parity_blocks_of_a_set_that_is_not_total_degree(tiny_sg):
    # iso_td(3, 3) without its last cubic row is still downward closed
    sm = tiny_sg[2]
    full = chaos.iso_td(3, 3)
    idx = chaos.MultiIndexSet(3, 3, full.indices[:-1])
    assert idx.indices[-1].sum() == 3
    system = sgfem.assemble_system(sm, chaos.moment_matrices(idx))
    assert_two_cyclic(sm, idx, system)
    beta = lu_reference(system, sgfem.standard_patterns(2))
    sol = sgfem.solve(system, sgfem.standard_patterns(2))
    npt.assert_allclose(sol.beta, beta, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("mu, nu, parity", [(0, 4, 0), (1, 3, 1)], ids=["even", "odd"])
def test_solve_refuses_a_same_parity_coupling(tiny_sg, mu, nu, parity):
    # one symmetric pair of entries of G_1 between chaos indices mu and nu
    # of one parity, appended to the coupling table: of the eliminated even
    # class, or of the kept odd class; assembly refuses it, so no solve can
    # start on such a system
    _, _, sm, idx, system, _, _ = tiny_sg
    mm = chaos.moment_matrices(idx)
    assert mm.parity[mu] == mm.parity[nu] == parity
    assert system.parity[system.classes[0][0]] == 1
    coupled = dataclasses.replace(
        mm,
        dim=np.r_[mm.dim, 1, 1],
        row=np.r_[mm.row, mu, nu],
        col=np.r_[mm.col, nu, mu],
        coeff=np.r_[mm.coeff, 1.0, 1.0],
    )
    match = f"G_1 couples chaos indices {mu} and {nu} of the same degree parity"
    with pytest.raises(ValueError, match=match):
        sgfem.assemble_system(sm, coupled)


@pytest.mark.parametrize(
    "degree, kept, iterations", [(0, 1, 0), (1, 0, 7), (2, 1, 9), (3, 0, 12)]
)
def test_solve_on_one_parity_class_matches_direct(tiny, degree, kept, iterations):
    # the kept class is the smaller one: Q=0 has no odd index, Q=1 one even
    # index against 7 odd ones, Q=2 7 odd against 29 even, Q=3 29 even
    # against 91 odd; the iteration counts are the measured ones
    _, system = tiny_system(tiny, degree)
    # the parity of the kept class; at Q=0 it is empty, and the other class
    # holds index 0 alone
    keep, other = system.classes
    assert (system.parity[keep] == kept).all() and (system.parity[other] != kept).all()
    assert np.count_nonzero(system.parity == kept) <= system.n_chaos / 2
    sol = sgfem.solve(system, MIXED_PATTERNS)
    assert sol.iterations <= iterations
    assert sol.residuals.max() <= 1e-10
    beta = lu_reference(system, MIXED_PATTERNS)
    npt.assert_allclose(sol.beta, beta, rtol=1e-7, atol=1e-9)


def test_degree_zero_equals_deterministic_midpoint(tiny_sg):
    # Q=0 keeps only the parameter mean, and B(y) is affine in y
    mesh, part, sm, _, _, a, b = tiny_sg
    idx0 = chaos.iso_td(3, 0)
    system0 = sgfem.assemble_system(sm, chaos.moment_matrices(idx0))
    pats = sgfem.standard_patterns(2)
    sol = sgfem.solve(system0, pats)
    det = det_cem.solve_deterministic(
        mesh,
        part,
        det_cem.DeterministicSample(np.array([1.1]), 0.5 * (a + b)),
        pats,
    )
    U = sgfem.expand_mean_free(sol.beta[:, :, 0])
    npt.assert_allclose(U, det.voltages, rtol=1e-12)


def test_mean_reciprocity():
    mesh = sgeit.make_disk_fixture(3, 12, 3, 0.5)
    part = sgeit.assign_pixels(mesh, np.array([[0.3, 0.0], [-0.3, 0.0]]))
    sm = spatial(mesh, part, 1.1, [0.5, 0.5], np.full(3, 50.0), np.full(3, 900.0))
    idx = chaos.iso_td(5, 2)
    system = sgfem.assemble_system(sm, chaos.moment_matrices(idx))
    pats = sgfem.standard_patterns(3)
    sol = sgfem.solve(system, pats)
    U = sgfem.expand_mean_free(sol.beta[:, :, 0])
    npt.assert_allclose(pats[0] @ U[1], pats[1] @ U[0], rtol=1e-9)


def test_expand_mean_free():
    out = sgfem.expand_mean_free(np.array([0.25, -1.5]))
    npt.assert_allclose(out, [-1.25, -0.25, 1.5])
    assert out.sum() == pytest.approx(0.0, abs=1e-15)


def test_standard_patterns():
    pats = 2.0 * sgfem.standard_patterns(4)
    npt.assert_array_equal(
        pats,
        [[2.0, -2.0, 0.0, 0.0], [2.0, 0.0, -2.0, 0.0], [2.0, 0.0, 0.0, -2.0]],
    )
    npt.assert_array_equal(pats.sum(axis=1), 0.0)


@pytest.fixture(scope="module")
def tank_sm_mm(disk_seeds):
    """Spatial and moment matrices of the tank: 321 nodes, 8 electrodes,
    the 12 two-ring pixels and Q=2 (231 chaos terms, order 75,768), with the
    box of ``sgeit precompute``'s defaults."""
    mesh = sgeit.make_disk_fixture(10, 32, 8, 0.5)
    part = sgeit.assign_pixels(mesh, disk_seeds)
    L, M = part.n_pixels, mesh.n_electrodes
    sm = spatial(mesh, part, 1.1, np.full(L, 0.9), np.full(M, 10.0), np.full(M, 1000.0))
    return sm, chaos.moment_matrices(chaos.iso_td(L + M, 2))


def traced_peak(fn):
    """fn() and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def nbytes(A):
    return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


def test_assembly_holds_little_beside_K(tank_sm_mm):
    # assembly builds B_0 and K_kj, never K: 0.21 x K traced on the tank,
    # against 1.35 x K for K built in slabs of rows and 3.6 x K for K
    # from one conversion of all terms
    system, peak = traced_peak(lambda: sgfem.assemble_system(*tank_sm_mm))
    assert peak <= 0.25 * nbytes(system.K)


def test_solve_holds_one_block_of_the_eliminated_class(tank_sm_mm):
    # the bound counts what the solve holds beside the system during the
    # CG, where its peak lies: K_0^{-1} with its Cholesky temporaries; the
    # pair blocks K_0^{-1}[S_m, S_m'], m <= m', with their index arrays,
    # that is the column indices of K_kj renumbered over the packed rows,
    # the packed rows each pair m != m' reads, the rows each packed row adds
    # and K_kj's columns of chaos index 0; the packed block and the outputs
    # of the pairs m != m'; and the CG blocks of the kept class.  On the
    # tank chaos index 0 goes through all of K_0^{-1} (one block of n_s
    # packed rows), each of the d dimensions reaches the d positions
    # e_m + e_m' of degree 2 (sum_m |S_m| d packed rows), and each pair
    # m != m' shares one of them ((d - 1) sum_m |S_m| outputs).  After the
    # CG, ``_kept_residual`` holds three blocks of the kept class beside
    # the coupling; then the coupling is freed, and ``_certified_voltages``
    # holds the kept block, one block of the other class packed over the
    # supports S_nu with the renumbered indices of K_kj, the row indices,
    # spatial rows and one voltage row of K_0^{-1} of the packed rows, the
    # voltage rows of that class and one chunk of ``_DEFECT_COLUMNS``
    # columns of B_0 K_0^{-1} - I.  A block of the other class for all
    # patterns does not fit in the bound.
    sm, _ = tank_sm_mm
    system = sgfem.assemble_system(*tank_sm_mm)
    patterns = sgfem.standard_patterns(system.n_electrodes)
    sol, peak = traced_peak(lambda: sgfem.solve(system, patterns))
    assert sol.iterations == 12
    n_s, n_p = system.order // system.n_chaos, len(patterns)
    n_kept = len(system.classes[0])
    n_other = system.n_chaos - n_kept
    f8, i4 = np.dtype(np.float64).itemsize, np.dtype(np.int32).itemsize
    sizes = support_sizes(sm)
    d, N = len(sizes), sizes.sum()
    # every pair of dimensions shares a position e_m + e_m' that is not
    # dense, so the blocks hold exactly that many entries of K_0^{-1}
    held = held_entries(sgfem._pair_coupling(system, sgfem._mean_inverse(system), n_p))
    assert held == (N * N + sizes @ sizes) // 2 == 116_942
    pairs = held * f8
    rows, outputs = n_s + d * N, (d - 1) * N
    at_0 = np.count_nonzero(system.K_kj.indices % n_other == 0)
    index = system.K_kj.indices.nbytes + (outputs + rows) * i4
    index += at_0 * (f8 + i4) + (n_s * n_kept + 1) * i4
    packed = (rows + outputs + 1) * n_p * f8
    kept_block = n_s * n_kept * n_p * f8
    bound = 2 * n_s * n_s * f8 + pairs + index + packed + 6 * kept_block
    other_block = n_s * n_other * n_p * f8
    assert other_block > 0.25 * bound
    assert peak <= bound


def dense_solution(system, sol):
    """The solution on every row of K, with K built whole by
    ``SgfemSystem.K`` and the load block, for a solution of ``solve``: x_k
    is the block of ``_schur_pcg`` run on the pieces ``solve`` uses, and x_j
    = (K_0^{-1} (x) I)(c_j - K_jk x_k) is formed densely, on every spatial
    row.  x is returned as (n_s, n_g, n_p)."""
    n_p, n_d = len(sol.patterns), system.n_nodes
    n_s, n_g = system.B0.shape[0], system.n_chaos
    kept, other = system.classes
    K0inv = sgfem._mean_inverse(system)
    loads = sgfem._voltage_loads(sol.patterns, system.n_electrodes)
    coupling = sgfem._pair_coupling(system, K0inv, n_p)
    X, iterations = sgfem._schur_pcg(system, coupling, loads, 1e-10, 10 * system.order)
    assert iterations == sol.iterations
    # beta of the kept class is the voltage rows of the CG's block
    npt.assert_array_equal(
        sol.beta[:, :, kept], X.reshape(n_s, -1, n_p)[n_d:].transpose(2, 0, 1)
    )
    # K's rows of each class, spatial index outer and position inner
    kept_rows, other_rows = (
        (np.arange(n_s)[:, None] * n_g + members).ravel() for members in (kept, other)
    )
    A = system.K
    C = np.column_stack([rhs_for_current(system, p) for p in sol.patterns])
    x = np.empty_like(C)
    x[kept_rows] = X.reshape(-1, n_p)
    h = C[other_rows] - A[other_rows][:, kept_rows] @ x[kept_rows]
    # K_0^{-1} (x) I on this numbering is K_0^{-1} on an (n_s, n_other * n_p)
    # view: sp.kron(K0inv, I) holds 23M entries on the tank
    x[other_rows] = (K0inv @ h.reshape(n_s, -1)).reshape(h.shape)
    return x.reshape(n_s, n_g, n_p), A, C


def full_residuals(system, sol):
    """Norms of K x - c per pattern on the rows of the kept and of the
    eliminated class, relative to the load, for x of ``dense_solution``
    with the solution's beta as its voltage rows."""
    x, A, C = dense_solution(system, sol)
    x[system.n_nodes :] = sol.beta.transpose(1, 2, 0)
    R = (A @ x.reshape(-1, len(sol.patterns)) - C).reshape(x.shape)
    norms = np.linalg.norm(C, axis=0)
    return tuple(np.linalg.norm(R[:, c], axis=(0, 1)) / norms for c in system.classes)


@pytest.mark.parametrize("case", [1, 2, 3, "collapsed", "tank"])
def test_eliminated_voltages_are_those_of_the_dense_solution(tiny, tank_sm_mm, case):
    # beta of the eliminated class, summed over the supports S_nu of
    # ``_packed_supports``, against the voltage rows of x_j formed on every
    # spatial row; at degree 2, collapsed and on the tank chaos index 0 is
    # in that class, with its load
    if case == "tank":
        system = sgfem.assemble_system(*tank_sm_mm)
        patterns = sgfem.standard_patterns(system.n_electrodes)
    else:
        if case == "collapsed":
            system = tiny_collapsed_system(tiny)
        else:
            _, system = tiny_system(tiny, case)
        patterns = MIXED_PATTERNS
    sol = sgfem.solve(system, patterns)
    x, _, _ = dense_solution(system, sol)
    other = system.classes[1]
    want = x[system.n_nodes :, other].transpose(2, 0, 1)
    npt.assert_allclose(
        sol.beta[:, :, other], want, rtol=0, atol=1e-14 * np.abs(sol.beta).max()
    )


@pytest.mark.parametrize("case", [1, 2, 3, "tank"])
def test_residuals_are_the_full_residual_with_a_bound_on_the_eliminated_rows(
    tiny, tank_sm_mm, monkeypatch, case
):
    # ``solve`` computes the residual on the rows of the kept class and
    # bounds that on the rows of the eliminated class, which it never
    # forms; the reference is the residual on all of K.  Chaos index 0 is
    # in the eliminated class at degree 2 and on the tank, with a support
    # of all rows there.
    if case == "tank":
        system = sgfem.assemble_system(*tank_sm_mm)
        patterns = sgfem.standard_patterns(system.n_electrodes)
    else:
        _, system = tiny_system(tiny, case)
        patterns = MIXED_PATTERNS
    sol = sgfem.solve(system, patterns)
    kept, eliminated = full_residuals(system, sol)
    npt.assert_allclose(sol.residuals, np.hypot(kept, eliminated), rtol=0.01)
    # the same solve with the columns of B_0 K_0^{-1} - I taken as zero
    # leaves the kept rows' residual alone
    monkeypatch.setattr(
        sgfem, "_inverse_defects", lambda B0, K0inv: np.zeros(len(K0inv))
    )
    kept_only = sgfem.solve(system, patterns)
    npt.assert_array_equal(kept_only.beta, sol.beta)
    npt.assert_allclose(kept_only.residuals, kept, rtol=0.01)
    bound = np.sqrt(sol.residuals**2 - kept_only.residuals**2)
    assert (bound >= eliminated).all()


def test_the_solution_keeps_no_reference_to_its_system(tiny):
    # the solution carries beta and its diagnostics only, so the Galerkin
    # system, B_0 and K_kj, can be freed once the solve returns
    _, system = tiny_system(tiny, 2)
    sol = sgfem.solve(system, MIXED_PATTERNS)
    ref = weakref.ref(system)
    del system
    assert ref() is None
    assert sol.beta.shape == (len(MIXED_PATTERNS), 3, len(chaos.iso_td(7, 2)))


@pytest.mark.parametrize("width", [1, 7, 10**9], ids=["1", "7", "all"])
def test_inverse_defects_are_the_column_norms_at_any_chunk_width(
    tiny, monkeypatch, width
):
    _, system = tiny_system(tiny, 2)
    K0inv = sgfem._mean_inverse(system)
    E = system.B0 @ K0inv - np.identity(len(K0inv))
    monkeypatch.setattr(sgfem, "_DEFECT_COLUMNS", width)
    got = sgfem._inverse_defects(system.B0, K0inv)
    npt.assert_allclose(got, (E**2).sum(axis=0), rtol=1e-12, atol=0)
    assert 0 < got.max() < 1e-24


def test_the_cross_block_repeats_no_triplet(tank_sm_mm, monkeypatch):
    # K_kj stays on SciPy's COO-to-CSR conversion (``CSRMatrix.from_triplets``
    # on its kernels), which sums duplicates in the order of its own index
    # sort: with no (row, column) pair repeated it sums nothing, so the bits
    # of K_kj do not depend on that order
    triplets = []

    def recording(rows, cols, vals, shape):
        triplets.append(((rows, cols), shape))
        return from_triplets(rows, cols, vals, shape)

    from_triplets = sgfem.CSRMatrix.from_triplets
    monkeypatch.setattr(sgfem.CSRMatrix, "from_triplets", recording)
    system = sgfem.assemble_system(*tank_sm_mm)
    [((rows, cols), shape)] = triplets
    key = rows.astype(np.int64) * shape[1] + cols
    assert len(key) == system.K_kj.nnz == len(np.unique(key)) == 55_986
