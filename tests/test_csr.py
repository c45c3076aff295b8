"""``sgeit._csr`` against ``scipy.sparse``, bit for bit, and its
``add_matmul``, which SciPy lacks, against a Python loop.

The module calls SciPy's private compiled kernels (``_sparsetools``)
directly; these tests fail if a SciPy release changes a kernel's arguments
or results, or if a bad operand reaches a kernel, which checks no bounds.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

import sgeit
from conftest import as_scipy, two_ring_layout
from sgeit import _csr, chaos, fem, geometry, sgfem
from sgeit._csr import CSRMatrix


@pytest.fixture(scope="module")
def tank_system():
    """The tank's Galerkin system, with the triplets of K_kj as assembly
    passed them to ``from_triplets``."""
    mesh = sgeit.make_disk_fixture(10, 32, 8, 0.5)
    part = sgeit.assign_pixels(mesh, two_ring_layout())
    L, M = part.n_pixels, mesh.n_electrodes
    bounds = fem.ParameterBounds(1.1, np.full(L, 0.9), np.full(M, 10.0), np.full(M, 1000.0))
    sm = fem.assemble_spatial(mesh, part, bounds)
    mm = chaos.moment_matrices(chaos.iso_td(L + M, 2))
    triplets = []
    with pytest.MonkeyPatch.context() as mp:
        from_triplets = CSRMatrix.from_triplets

        def recording(rows, cols, vals, shape):
            triplets.append((rows, cols, vals, shape))
            return from_triplets(rows, cols, vals, shape)

        mp.setattr(CSRMatrix, "from_triplets", recording)
        system = sgfem.assemble_system(sm, mm)
    (K_kj_triplets,) = triplets
    return system, K_kj_triplets


def random_csr(seed, index, n_rows=40, n_cols=30):
    """A random CSR matrix with empty rows, unsorted and repeated column
    indices within rows, as SciPy's arrays of the given index type."""
    rng = np.random.default_rng(seed)
    nnz = 150
    rows = rng.choice(np.arange(0, n_rows, 2), nnz)  # every odd row empty
    cols = rng.integers(0, n_cols, nnz)
    vals = rng.standard_normal(nnz)
    order = np.argsort(rows, kind="stable")
    indptr = np.searchsorted(rows[order], np.arange(n_rows + 1))
    arrays = vals[order], cols[order].astype(index), indptr.astype(index)
    return (*arrays, (n_rows, n_cols)), (rows, cols, vals)


def assert_same_arrays(got, want):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.shape == want.shape


def assert_products_are_scipys(M, seed=0, dense=True):
    """Every product and (if ``dense``) the dense form of ``M`` equal
    SciPy's on the same arrays, bit for bit: blocks of several columns, one
    column and a vector, for M and its transpose."""
    ref = as_scipy(M)
    rng = np.random.default_rng(seed)
    n_rows, n_cols = M.shape
    for width in (None, 1, 7):
        shape = () if width is None else (width,)
        V = rng.standard_normal((n_cols,) + shape)
        U = rng.standard_normal((n_rows,) + shape)
        got, want = M @ V, ref @ V
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        got, want = M.transpose_matmul(U), ref.T @ U
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        out = np.full_like(want, np.nan)
        assert M.transpose_matmul(U, out=out) is out and out.tobytes() == want.tobytes()
    if dense:
        assert M.toarray().tobytes() == ref.toarray().tobytes()


@pytest.mark.parametrize("block", ["B0", "K_kj", "packed K", "pair K"])
def test_products_on_the_tank_blocks_are_scipys(tank_system, block):
    system, _ = tank_system
    if block == "packed K":
        M, _, _ = sgfem._packed_supports(system)
    elif block == "pair K":
        M = sgfem._pair_coupling(system, sgfem._mean_inverse(system), 7).K
    else:
        M = getattr(system, block)
    assert M.nnz == {"B0": 2_308, "K_kj": 55_986, "packed K": 55_986, "pair K": 55_986}[block]
    # the dense form of K_kj would take 3.6 GB
    assert_products_are_scipys(M, dense=block == "B0")


def added_in_stored_order(M, V, out):
    """out + M @ V by Python floats: each stored entry's term added to its
    row of a copy of ``out``, entry by entry in stored order."""
    out, V = out.astype(float), V.reshape(len(V), -1)
    rows = out.reshape(len(out), -1)
    for i in range(M.shape[0]):
        for e in range(M.indptr[i], M.indptr[i + 1]):
            a, j = float(M.data[e]), int(M.indices[e])
            for c in range(V.shape[1]):
                rows[i, c] = float(rows[i, c]) + a * float(V[j, c])
    return out


@pytest.mark.parametrize("index", [np.int32, np.int64])
@pytest.mark.parametrize("seed", [0, 1])
def test_added_products_add_each_term_in_stored_order(index, seed):
    # empty rows, and unsorted rows with repeated columns
    (data, indices, indptr, shape), _ = random_csr(seed, index)
    M = CSRMatrix(data, indices, indptr, shape)
    rng = np.random.default_rng(seed)
    for width in (None, 1, 7):
        extra = () if width is None else (width,)
        V = rng.standard_normal((shape[1],) + extra)
        out = rng.standard_normal((shape[0],) + extra)
        want = added_in_stored_order(M, V, out)
        assert M.add_matmul(V, out) is out
        assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", ["B0", "K_kj"])
def test_added_products_on_the_tank_blocks(tank_system, block):
    M = getattr(tank_system[0], block)
    rng = np.random.default_rng(4)
    V = rng.standard_normal((M.shape[1], 5))
    start = rng.standard_normal((M.shape[0], 5))
    want = start + M @ V
    out = start.copy()
    M.add_matmul(V, out)
    scale = np.abs(start).max() + np.abs(M.data).max() * np.abs(V).max()
    npt.assert_allclose(out, want, rtol=0, atol=1e-13 * scale)


def test_the_tank_cross_block_is_scipys_conversion(tank_system):
    system, (rows, cols, vals, shape) = tank_system
    want = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    assert_same_arrays(system.K_kj, want)


@pytest.mark.parametrize("index", [np.int32, np.int64])
@pytest.mark.parametrize("seed", [0, 1])
def test_random_matrices_with_empty_rows_are_scipys(index, seed):
    (data, indices, indptr, shape), _ = random_csr(seed, index)
    M = CSRMatrix(data, indices, indptr, shape)
    assert M.indices.dtype == index and M.nnz == len(data)
    assert (np.diff(M.indptr)[1::2] == 0).all()
    # unsorted rows with repeated columns, which SciPy keeps as given
    assert not as_scipy(M).has_canonical_format
    assert_products_are_scipys(M, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triplets_with_repeats_convert_as_scipy_does(seed):
    # repeated (row, column) pairs are summed after the index sort, in its
    # order; no triplet, sorted rows and an empty matrix take other branches
    _, (rows, cols, vals) = random_csr(seed, np.int64)
    cases = [
        (rows, cols, vals, (40, 30)),
        (rows[:0], cols[:0], vals[:0], (40, 30)),
        (np.arange(5), np.arange(5), vals[:5], (5, 5)),
    ]
    for r, c, v, shape in cases:
        got = CSRMatrix.from_triplets(r, c, v, shape)
        want = sp.coo_matrix((v, (r, c)), shape=shape).tocsr()
        assert_same_arrays(got, want)
    got = CSRMatrix.from_triplets(rows.astype(np.int32), cols.astype(np.int32), vals, (40, 30))
    assert got.indices.dtype == np.int32
    assert len(np.unique(rows * 30 + cols)) == got.nnz < len(vals)


class Refuse(types.ModuleType):
    """A kernel module stand-in that fails any use."""

    def __getattr__(self, name):
        raise AssertionError(f"kernel {name} ran")


@pytest.fixture
def no_kernels(monkeypatch):
    monkeypatch.setattr(_csr, "_kernels", Refuse("refuse"))


def test_bad_operands_raise_before_any_kernel_runs(no_kernels):
    (data, indices, indptr, shape), (rows, cols, vals) = random_csr(0, np.int32)
    M = CSRMatrix(data, indices, indptr, shape)
    good = np.zeros((30, 3))
    bad = {
        "dtype": good.astype(np.float32),
        "integers": np.zeros((30, 3), dtype=np.int64),
        "not contiguous": np.zeros((30, 6))[:, ::2],
        "Fortran order": np.asfortranarray(np.zeros((30, 3))),
        "rows": np.zeros((29, 3)),
        "3-D": np.zeros((30, 3, 1)),
        "list": [[0.0] * 3] * 30,
    }
    for name, V in bad.items():
        with pytest.raises(ValueError, match="C-contiguous float64"):
            M @ V
    with pytest.raises(ValueError, match="block of 40 rows"):
        M.transpose_matmul(good)
    U = np.zeros((40, 3))
    for out in (np.zeros((30, 2)), np.zeros((30, 3), dtype=np.float32), U[:30]):
        with pytest.raises(ValueError, match="out must be a C-contiguous float64 array"):
            M.transpose_matmul(U, out=out)
    # an ``out`` that overlaps the operand, or none at all, is refused too
    shared = np.zeros((40, 3))
    for out in (None, np.zeros((40, 2)), np.zeros((40, 3), dtype=np.float32), shared):
        with pytest.raises(ValueError, match="out must be a C-contiguous float64 array"):
            M.add_matmul(shared[:30], out)
    with pytest.raises(ValueError, match="square matrix"):
        _csr.superlu(M)
    with pytest.raises(ValueError, match="outside 0..39"):
        CSRMatrix.from_triplets(np.r_[rows, 40], np.r_[cols, 0], np.r_[vals, 1.0], (40, 30))
    with pytest.raises(ValueError, match="outside 0..29"):
        CSRMatrix.from_triplets(rows, cols - 1, vals, (40, 30))
    with pytest.raises(ValueError, match="outside 0..29"):
        # an index beyond int32 that would wrap into range on conversion
        CSRMatrix.from_triplets(rows, cols + 2**32, vals, (40, 30))
    with pytest.raises(ValueError, match="float64"):
        CSRMatrix.from_triplets(rows, cols, vals.astype(np.float32), (40, 30))
    with pytest.raises(ValueError, match="integers"):
        CSRMatrix.from_triplets(rows.astype(float), cols, vals, (40, 30))
    with pytest.raises(ValueError, match="equal length"):
        CSRMatrix.from_triplets(rows[:-1], cols, vals, (40, 30))


def test_superlu_factor_solves_as_scipys_splu(monkeypatch):
    # the electrode-model matrix that ``det_cem.solve_deterministic``
    # factors, on the tank, through a copy of SciPy's compiled SuperLU
    # module loaded by ``_csr``; its solves have the bits of splu's factor
    # of the same arrays
    import scipy.sparse.linalg as spla

    mesh = sgeit.make_disk_fixture(10, 32, 8, 0.5)
    part = sgeit.assign_pixels(mesh, two_ring_layout())
    eg = geometry.electrode_geometry(mesh)
    S, g = fem.assemble_electrode_mass(mesh, eg)
    sigma = np.linspace(0.5, 1.5, part.n_pixels)
    A = fem.stiffness_matrix(mesh, sigma[part.triangle_pixel])
    B = sgfem.cem_matrix(A, np.linspace(100.0, 500.0, mesh.n_electrodes), S, g, eg.lengths)
    monkeypatch.setattr(_csr, "_superlu", _csr._load(_csr._SUPERLU))
    lu = _csr.superlu(B)
    ref = spla.splu(sp.csc_matrix((B.data, B.indices, B.indptr), shape=B.shape))
    for b in np.random.default_rng(3).standard_normal((4, B.shape[0])):
        assert lu.solve(b).tobytes() == ref.solve(b).tobytes()


def test_bad_arrays_are_refused_when_the_matrix_is_made(no_kernels):
    (data, indices, indptr, shape), _ = random_csr(0, np.int32)
    bad = {
        "float64": (data.astype(np.float32), indices, indptr, shape),
        "got int64 and int32": (data, indices.astype(np.int64), indptr, shape),
        "got int16 and int16": (data, *(a.astype(np.int16) for a in (indices, indptr)), shape),
        "C-contiguous": (np.repeat(data, 2)[::2], indices, indptr, shape),
        "nondecreasing": (data, indices, indptr[::-1].copy(), shape),
        "from 0 to nnz": (data, indices, indptr[:-1].copy(), shape),
        "outside 0..28": (data, indices, indptr, (40, 29)),
        "does not fit": (data, indices, indptr, (40, 2**31)),
    }
    for message, args in bad.items():
        with pytest.raises(ValueError, match=message):
            CSRMatrix(*args)
    M = CSRMatrix(data, indices, indptr, shape)
    for name in ("data", "indices", "indptr"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(M, name)[0] = 1


def test_a_missing_kernel_module_names_itself_and_scipys_version(monkeypatch):
    import scipy

    monkeypatch.setattr(_csr.importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=rf"scipy\.sparse\._sparsetools of SciPy {scipy.__version__}"):
        _csr._load(_csr._NAME)
    monkeypatch.setattr(_csr, "_kernels", None)
    monkeypatch.setitem(sys.modules, "scipy.sparse._sparsetools", types.ModuleType("empty"))
    with pytest.raises(ImportError, match=r"_sparsetools of SciPy .* lacks coo_tocsr"):
        _csr.kernels()


# one import order per run: the kernels through sgeit._csr, then
# scipy.sparse, or the reverse; the products must agree either way, and
# scipy.sparse must bind its kernel module as usual
IMPORT_ORDER_PROBE = """
import sys
import numpy as np

def products(M, V):
    if isinstance(M, tuple):
        M = sparse.csr_matrix(M[:3], shape=M[3])
        return (M @ V).tobytes() + (M.T @ V).tobytes()
    return (M @ V).tobytes() + M.transpose_matmul(V).tobytes()

rng = np.random.default_rng(5)
rows, cols = rng.integers(0, 60, (2, 500))
vals, V = rng.standard_normal(500), rng.standard_normal((60, 4))
if sys.argv[1] == "kernels first":
    from sgeit._csr import CSRMatrix
    M = CSRMatrix.from_triplets(rows, cols, vals, (60, 60))
    ours = products(M, V)
    assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], sys.modules
    import scipy.sparse as sparse
else:
    import scipy.sparse as sparse
    from sgeit import _csr
    M = _csr.CSRMatrix.from_triplets(rows, cols, vals, (60, 60))
    ours = products(M, V)
    assert _csr.kernels() is sys.modules["scipy.sparse._sparsetools"]
A = sparse.coo_matrix((vals, (rows, cols)), shape=(60, 60)).tocsr()
assert ours == products((A.data, A.indices, A.indptr, A.shape), V)
assert sparse._sparsetools is sys.modules["scipy.sparse._sparsetools"]
"""


@pytest.mark.parametrize("order", ["kernels first", "scipy.sparse first"])
def test_products_agree_in_either_import_order(order):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_ORDER_PROBE, order],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
