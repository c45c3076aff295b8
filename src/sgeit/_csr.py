"""Float64 CSR matrices on SciPy's compiled sparse kernels, and SuperLU's
factor of one, without the SciPy packages.

Precompute's sparse work is CSR products with B_0 and K_kj, COO-to-CSR
conversion and a dense form; simulate's is one SuperLU factor of the
electrode-model matrix.  ``import scipy.sparse`` would add about 15 MB
resident and 0.1-0.2 s to the process, most of it SciPy's array-API layer,
which walks numpy's namespace and so loads ``numpy.f2py``, ``numpy.testing``
and more; ``scipy.sparse.linalg`` loads 153 SciPy modules in all.  This
module loads only SciPy's compiled modules ``scipy/sparse/_sparsetools``
and ``scipy/sparse/linalg/_dsolve/_superlu``, each on first use: it finds
the file without importing SciPy and loads it with an
``ExtensionFileLoader``, which runs no SciPy package's ``__init__.py``.
The load leaves nothing in ``sys.modules``, so a later ``import
scipy.sparse`` loads and binds its own copy as usual; if SciPy's module is
already loaded, it is used.

Both modules are private SciPy API: their functions and argument order
are not documented and can change between releases.  This module was
checked on SciPy 1.17.1, and ``tests/test_csr.py`` (Tier-1) checks every
operation bit for bit against ``scipy.sparse`` and ``splu``, so a SciPy
release that changes them fails there.  A SciPy without a module or one of
its functions raises ImportError naming the module and the installed SciPy
version.

The kernels check no bounds.  ``CSRMatrix`` therefore checks its arrays
once when it is made and makes them read-only, and checks every dense
operand's dtype, C-contiguity and shape before a kernel runs; a bad one
raises ValueError.  The operations are those of ``scipy.sparse`` on the
same arrays, kernel for kernel, so their results have its bits; only a
product with a vector runs the block kernel on one column, which forms
the same sums in the same order as SciPy's vector kernel.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

_NAME = "scipy.sparse._sparsetools"
# every kernel this module calls
_USED = (
    "coo_tocsr", "csr_has_canonical_format", "csr_has_sorted_indices",
    "csr_sort_indices", "csr_sum_duplicates", "csr_matvecs", "csc_matvecs",
    "csr_todense",
)
_SUPERLU = "scipy.sparse.linalg._dsolve._superlu"
_INDEX_TYPES = (np.dtype(np.int32), np.dtype(np.int64))
_kernels = None
_superlu = None


def index_type(*extents: int) -> type:
    """int32 if every extent fits, else int64: SciPy's pick, so it converts nothing."""
    return np.int32 if max(extents) < 2**31 else np.int64


def kernels():
    """SciPy's compiled sparse kernel module, loaded on the first call."""
    global _kernels
    if _kernels is None:
        _kernels = _module(_NAME, _USED)
    return _kernels


def _module(name: str, used):
    """SciPy's compiled module ``name``, the loaded one if any, checked to
    have the functions ``used``."""
    module = sys.modules.get(name) or _load(name)
    missing = [function for function in used if not hasattr(module, function)]
    if missing:
        raise ImportError(
            f"{name} of SciPy {_scipy_version()} lacks {', '.join(missing)}", name=name
        )
    return module


def _load(name: str):
    """Load SciPy's compiled module ``name`` from its installed files,
    running no SciPy package code and leaving ``sys.modules`` as it was."""
    spec = importlib.util.find_spec("scipy")
    *package, stem = name.split(".")[1:]
    for directory in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, *package, stem + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                found = importlib.util.spec_from_file_location(name, path, loader=loader)
                module = importlib.util.module_from_spec(found)
                loader.exec_module(module)
                # an extension of single-phase init registers itself
                if sys.modules.get(name) is module:
                    del sys.modules[name]
                return module
    raise ImportError(f"cannot find {name} of SciPy {_scipy_version()}", name=name)


def superlu(M: CSRMatrix):
    """SuperLU's factor of the square, symmetric ``M``, with a ``solve``
    method: what ``scipy.sparse.linalg.splu`` makes of ``csc_matrix`` on
    M's arrays, M's transpose and so M itself, at its defaults, by the same
    call of SciPy's compiled ``gstrf``.  ``splu`` first sums duplicate
    entries; M must have none, as every matrix of ``sgfem.cem_matrix``.
    The factor's ``L`` and ``U``, which ``gstrf`` builds only when read,
    are ``scipy.sparse.csc_array``, imported then.
    """
    global _superlu
    if _superlu is None:
        _superlu = _module(_SUPERLU, ("gstrf",))
    n = M.shape[0]
    if M.shape != (n, n) or np.iinfo(np.intc).max < max(n, M.nnz):
        raise ValueError(f"need a square matrix with int32 indices, got {M!r}")
    indices, indptr = (a.astype(np.intc, copy=False) for a in (M.indices, M.indptr))
    options = dict(DiagPivotThresh=None, ColPerm=None, PanelSize=None, Relax=None)
    return _superlu.gstrf(
        n, M.nnz, M.data, indices, indptr,
        csc_construct_func=_csc_array, ilu=False, options=options,
    )


def _csc_array(*args):
    """``scipy.sparse.csc_array``, for the triangles of a SuperLU factor."""
    from scipy.sparse import csc_array

    return csc_array(*args)


def _scipy_version() -> str:
    from importlib import metadata

    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return "(not installed)"


class CSRMatrix:
    """A float64 matrix in compressed sparse row form: ``data``,
    ``indices`` and ``indptr`` as SciPy's ``csr_matrix`` holds them, with
    ``shape`` and ``nnz``.

    Made from its arrays, which must be one-dimensional and C-contiguous,
    ``data`` float64 and the index arrays both int32 or both int64, and
    form valid CSR arrays of ``shape``: ``indptr`` from 0, nondecreasing, to
    ``nnz``, and every column index in range.  Duplicate or unsorted column
    indices are allowed, as in SciPy.  The arrays are shared, not copied,
    and made read-only.  Raises ValueError otherwise.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape):
        n_rows, n_cols = (int(n) for n in shape)
        arrays = {"data": data, "indices": indices, "indptr": indptr}
        for name, a in arrays.items():
            if not (isinstance(a, np.ndarray) and a.ndim == 1 and a.flags.c_contiguous):
                raise ValueError(f"{name} must be a one-dimensional C-contiguous array")
        if data.dtype != np.float64:
            raise ValueError(f"data must be float64, got {data.dtype}")
        if indices.dtype != indptr.dtype or indptr.dtype not in _INDEX_TYPES:
            raise ValueError(
                f"indices and indptr must both be int32 or both int64, got "
                f"{indices.dtype} and {indptr.dtype}"
            )
        if min(n_rows, n_cols) < 0 or np.iinfo(indptr.dtype).max < max(n_rows, n_cols):
            raise ValueError(f"shape {(n_rows, n_cols)} does not fit {indptr.dtype}")
        nnz = len(data)
        if not (
            len(indptr) == n_rows + 1
            and indptr[0] == 0
            and indptr[-1] == nnz == len(indices)
            and (np.diff(indptr) >= 0).all()
        ):
            raise ValueError(
                f"indptr must run from 0 to nnz = {nnz} in {n_rows} nondecreasing steps"
            )
        if nnz and not (0 <= indices.min() and indices.max() < n_cols):
            raise ValueError(f"a column index is outside 0..{n_cols - 1}")
        for a in arrays.values():
            a.flags.writeable = False
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = (n_rows, n_cols)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"<{self.shape[0]}x{self.shape[1]} CSRMatrix, {self.nnz} stored>"

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape) -> CSRMatrix:
        """The matrix of COO triplets as ``coo_matrix((vals, (rows, cols)),
        shape).tocsr()`` makes it, kernel for kernel: ``coo_tocsr``, which
        keeps the triplets' order within a row, then, unless the result is
        already canonical, ``csr_sort_indices`` (if a row is unsorted) and
        ``csr_sum_duplicates``, which sums repeated entries in the order of
        that sort.  ``vals`` must be float64 and the triplets of equal
        length, with every row and column in range; raises ValueError
        otherwise.
        """
        n_rows, n_cols = (int(n) for n in shape)
        rows, cols, vals = (np.ascontiguousarray(a) for a in (rows, cols, vals))
        if vals.dtype != np.float64:
            raise ValueError(f"values must be float64, got {vals.dtype}")
        nnz = len(vals)
        if not rows.shape == cols.shape == vals.shape == (nnz,):
            raise ValueError("rows, columns and values must be 1-D and of equal length")
        for name, a, n in (("row", rows, n_rows), ("column", cols, n_cols)):
            if a.dtype.kind not in "iu":
                raise ValueError(f"{name} indices must be integers, got {a.dtype}")
            if nnz and not (0 <= a.min() and a.max() < n):
                raise ValueError(f"a {name} index is outside 0..{n - 1}")
        index = index_type(n_rows, n_cols, nnz)
        rows, cols = (a.astype(index, copy=False) for a in (rows, cols))
        k = kernels()
        indptr = np.empty(n_rows + 1, dtype=index)
        indices, data = np.empty(nnz, dtype=index), np.empty(nnz)
        k.coo_tocsr(n_rows, n_cols, nnz, rows, cols, vals, indptr, indices, data)
        if not k.csr_has_canonical_format(n_rows, indptr, indices):
            if not k.csr_has_sorted_indices(n_rows, indptr, indices):
                k.csr_sort_indices(n_rows, indptr, indices, data)
            k.csr_sum_duplicates(n_rows, n_cols, indptr, indices, data)
            indices, data = indices[: indptr[-1]], data[: indptr[-1]]
        return cls(data, indices, indptr, (n_rows, n_cols))

    def __matmul__(self, V) -> np.ndarray:
        """The product with a dense float64 vector or (n_cols, k) block,
        with the bits of ``csr_matrix @ V``: ``csr_matvecs``, on one column
        for a vector."""
        return self._product(V, False)

    def transpose_matmul(self, U, out=None) -> np.ndarray:
        """The product of the transpose with a dense float64 vector or
        (n_rows, k) block, with the bits of ``csr_matrix.T @ U``: the CSC
        kernel ``csc_matvecs`` on the same arrays.  ``out``, if given, is
        a C-contiguous float64 array of the product's shape apart from
        ``U``, which receives the product and is returned."""
        return self._product(U, True, out)

    def _product(self, V, transpose: bool, out=None) -> np.ndarray:
        n_rows, n_cols = self.shape
        n_in, n_out = (n_rows, n_cols) if transpose else (n_cols, n_rows)
        if not (
            isinstance(V, np.ndarray)
            and V.dtype == np.float64
            and V.flags.c_contiguous
            and V.ndim in (1, 2)
            and V.shape[0] == n_in
        ):
            raise ValueError(
                f"need a C-contiguous float64 vector or block of {n_in} rows, got "
                f"{getattr(V, 'dtype', type(V))} of shape {getattr(V, 'shape', None)}"
            )
        shape = (n_out,) + V.shape[1:]
        if out is None:
            out = np.zeros(shape)
        elif (
            isinstance(out, np.ndarray)
            and out.dtype == np.float64
            and out.flags.c_contiguous
            and out.shape == shape
            and not np.may_share_memory(out, V)
        ):
            out[...] = 0.0
        else:
            raise ValueError(
                f"out must be a C-contiguous float64 array of shape {shape} apart "
                f"from the operand, got {getattr(out, 'dtype', type(out))} of shape "
                f"{getattr(out, 'shape', None)}"
            )
        k, arrays = kernels(), (self.indptr, self.indices, self.data)
        # each entry is summed in the order of the stored entries, one
        # column as in SciPy's vector kernels csr_matvec and csc_matvec
        matvecs = k.csc_matvecs if transpose else k.csr_matvecs
        n_vecs = V.shape[1] if V.ndim == 2 else 1
        matvecs(n_out, n_in, n_vecs, *arrays, V.ravel(), out.ravel())
        return out

    def toarray(self) -> np.ndarray:
        """The dense form, by ``csr_todense`` into zeros as SciPy's
        ``toarray`` forms it."""
        out = np.zeros(self.shape)
        kernels().csr_todense(*self.shape, self.indptr, self.indices, self.data, out)
        return out
