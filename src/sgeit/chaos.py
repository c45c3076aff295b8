"""Legendre chaos bases on the parameter cube [-1, 1]^P.

Provides isotropic total-degree multi-index sets, the product Legendre
basis Psi and the moment matrices G_k[mu, mu'] = E[y_k Psi_mu Psi_mu'],
as one table of their nonzeros, that couple the stochastic dimensions in
the Galerkin system.
The basis is orthonormal under the uniform probability measure on the
cube (constant polynomial 1), the scaling under which the Galerkin
right-hand side carries the plain current pattern.

For fast evaluation the basis also has a power form: a change of basis T,
given by its nonzeros, from the monomials y^mu of the same index set
(Psi = T m), and a slot table that builds every monomial as a product of
Q entries of the extended point [1, y].  ``ChaosBasis`` keeps the Legendre
recurrence, the definition the power form is checked against.

A slot row names its multi-index, so one exact, vectorised lookup of slot
rows (``_find_rows``) finds the neighbours mu - e_k of the moment matrices
and the monomials of the change of basis, for any downward-closed set.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np


def _recurrence_coeff(m):
    # y p_m = c_{m+1} p_{m+1} + c_m p_{m-1} for the orthonormal family;
    # elementwise for an array of degrees m >= 1
    return m / np.sqrt(4.0 * m * m - 1.0)


def _tables(max_degree: int, y: np.ndarray, derivatives: bool = True):
    """Values and derivatives of the univariate family up to max_degree,
    orthonormal under the uniform probability measure on [-1, 1].

    ``derivatives=False`` skips the derivative table and returns None for it.
    """
    y = np.asarray(y, dtype=np.float64)
    vals = np.empty(y.shape + (max_degree + 1,))
    ders = np.zeros_like(vals) if derivatives else None
    vals[..., 0] = 1.0
    if max_degree >= 1:
        vals[..., 1] = math.sqrt(3.0) * y
        if derivatives:
            ders[..., 1] = math.sqrt(3.0)
    for m in range(1, max_degree):
        cm = _recurrence_coeff(m)
        cn = _recurrence_coeff(m + 1)
        vals[..., m + 1] = (y * vals[..., m] - cm * vals[..., m - 1]) / cn
        if derivatives:
            ders[..., m + 1] = (vals[..., m] + y * ders[..., m] - cm * ders[..., m - 1]) / cn
    return vals, ders


def _row_weights(n_dims: int) -> np.ndarray:
    """The weights w of the row keys idx @ w of ``MultiIndexSet``'s
    repeated-row check, which wrap modulo 2^64: one fixed odd 63-bit
    integer per dimension, drawn from a fixed seed, so that distinct rows
    share a key only by chance."""
    rng = random.Random(0x5EED)
    return np.array([rng.getrandbits(62) << 1 | 1 for _ in range(n_dims)], dtype=np.int64)


@dataclass(frozen=True)
class MultiIndexSet:
    """Multi-indices over P stochastic dimensions, graded ordering.

    ``indices`` has one row per multi-index; the all-zero index is first
    and rows are sorted by total degree, then by descending lexicographic
    order within each degree.
    """

    n_dims: int
    degree: int
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 2 or idx.shape[1] != self.n_dims:
            raise ValueError("indices must have one column per dimension")
        if idx.size and idx.min() < 0:
            raise ValueError("multi-indices must be nonnegative")
        if idx.size and idx.sum(axis=1).max() > self.degree:
            raise ValueError("multi-index exceeds the total degree bound")
        # equal rows have equal 64-bit keys; only if two rows share a key are
        # the rows compared in full, as bytes, by one stable sort
        keys = (idx @ _row_weights(self.n_dims)).tolist()
        if len(set(keys)) < len(keys):
            row_bytes = np.dtype((np.void, idx.itemsize * self.n_dims))
            rows = np.ascontiguousarray(idx).view(row_bytes).ravel()
            order = np.argsort(rows, kind="stable")
            ordered = rows[order]
            repeats = np.flatnonzero(ordered[1:] == ordered[:-1])
            if repeats.size:
                i, j = order[repeats[0]], order[repeats[0] + 1]
                raise ValueError(
                    f"multi-index {idx[j].tolist()} is repeated: rows {i} and {j}"
                )
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.indices.shape[0]


def iso_td(n_dims: int, degree: int, size_cap: int = 10_000_000) -> MultiIndexSet:
    """Isotropic total-degree index set {mu : |mu| <= degree}.

    The cardinality is binomial(n_dims + degree, degree); construction is
    refused if it exceeds ``size_cap``.
    """
    if n_dims < 1:
        raise ValueError("need at least one dimension")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    count = math.comb(n_dims + degree, degree)
    if count > size_cap:
        raise ValueError(
            f"index set would hold {count} indices, above the cap {size_cap}"
        )
    # the indices of total d in descending lexicographic order are the
    # multisets of d dimensions in lexicographic order, each counted out
    sizes = [math.comb(n_dims + d - 1, d) for d in range(degree + 1)]
    starts = np.cumsum([0] + sizes[:-1])
    flat = [
        np.fromiter(
            itertools.chain.from_iterable(
                itertools.combinations_with_replacement(range(n_dims), d)
            ),
            dtype=np.int64,
            count=size * d,
        ).reshape(size, d)
        + (start + np.arange(size))[:, None] * n_dims
        for d, (start, size) in enumerate(zip(starts, sizes))
    ]
    counts = np.bincount(np.concatenate(flat, axis=None), minlength=count * n_dims)
    return MultiIndexSet(n_dims, degree, counts.reshape(count, n_dims))


@dataclass(frozen=True)
class MomentMatrices:
    """The moment matrices G_0 = I and G_k = E[y_k Psi Psi'], k = 1..P, as
    one coupling table, with the total-degree parity (0 even, 1 odd) of
    every index of the set.

    Entry e of the table is G_k[row, col] = coeff with k = ``dim[e]``,
    counted from 1; every nonzero of G_1..G_P is listed once, both of its
    symmetric pair, and no (k, row, col) repeats.  G_0 = I is implied.
    """

    n_dims: int
    dim: np.ndarray
    row: np.ndarray
    col: np.ndarray
    coeff: np.ndarray
    parity: np.ndarray


def moment_matrices(index_set: MultiIndexSet) -> MomentMatrices:
    """The coupling table of G_1..G_P for one multi-index set.

    G_k couples indices differing by exactly one in dimension k; the entry
    between degrees m and m+1 is (m+1)/sqrt((2m+1)(2m+3)).  Every G_k is
    symmetric with zero diagonal.  One lookup of slot rows finds every
    neighbour mu - e_k; one outside the set couples nothing.  So every G_k,
    k >= 1, couples only indices of opposite total-degree parity.  The
    table lists the pairs (mu, mu - e_k) in the order of the lookup, then
    their transposes.
    """
    dims, degs = _active(index_set)
    # lowering active slot s of row i by one degree gives mu - e_k
    i, s = np.nonzero(degs)
    lowered = degs[i]
    lowered[np.arange(len(i)), s] -= 1
    j = _find_rows(_power_slots(dims, degs), _power_slots(dims[i], lowered))
    at = j >= 0
    i, j, s = i[at], j[at], s[at]
    k, c = dims[i, s] + 1, _recurrence_coeff(degs[i, s])
    return MomentMatrices(
        index_set.n_dims, np.r_[k, k], np.r_[i, j], np.r_[j, i], np.r_[c, c],
        index_set.indices.sum(axis=1) % 2,
    )


def _active(index_set: MultiIndexSet) -> tuple[np.ndarray, np.ndarray]:
    """Active dimensions and their degrees of every row, (n_terms, Q) each.

    A total-degree-Q index has at most Q nonzero entries, listed in
    increasing dimension; rows with fewer are padded with dimension 0 at
    degree 0, the neutral factor.
    """
    idx = index_set.indices
    shape = (len(idx), index_set.degree)
    dims, degs = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
    # nonzeros come row by row in increasing dimension; rank them per row
    rows, cols = np.nonzero(idx)
    first = np.searchsorted(rows, rows)
    rank = np.arange(len(rows)) - first
    dims[rows, rank] = cols
    degs[rows, rank] = idx[rows, cols]
    return dims, degs


def _power_slots(dims: np.ndarray, degs: np.ndarray) -> np.ndarray:
    """Monomial slot rows: dimension k listed as k + 1 once per unit of
    degree, in increasing order (as ``dims`` lists them), then 0 (the
    constant) up to Q entries."""
    n, q = degs.shape
    # position p of a row belongs to the first slot whose degrees reach past p
    reach = np.cumsum(degs, axis=1)
    owner = (reach[:, None, :] <= np.arange(q)[:, None]).sum(axis=2)
    listed = np.take_along_axis(dims, np.minimum(owner, q - 1), axis=1) + 1
    return np.where(owner < q, listed, 0)


def _find_rows(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Row number in ``table`` (distinct rows) of every row of ``keys``, -1
    where absent; exact, by one lexsort of both as whole integer rows."""
    both = np.vstack([table, keys])
    # a constant key keeps lexsort defined for rows without entries (Q = 0)
    order = np.lexsort([*both.T, np.zeros(len(both), dtype=both.dtype)])
    ordered = both[order]
    ids = np.empty(len(both), dtype=np.int64)
    ids[order] = np.cumsum(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)])
    where = np.full(len(both) + 1, -1)
    where[ids[: len(table)]] = np.arange(len(table))
    return where[ids[len(table) :]]


def monomial_slots(index_set: MultiIndexSet) -> np.ndarray:
    """Slot table of the monomials y^mu of an index set, (n_terms, Q).

    Row mu indexes into the extended point [1, y]: every active dimension
    k appears as k + 1, repeated mu_k times, and the remaining entries are
    0, so y^mu is the product of the Q gathered entries.
    """
    return _power_slots(*_active(index_set))


def legendre_to_monomial(
    index_set: MultiIndexSet,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Change of basis T with Psi(y) = T m(y), m the monomials y^mu, as the
    COO triplets (rows, cols, vals) of its nonzeros, rows ascending.

    The orthonormal Legendre polynomial of degree d has the powers d, d-2,
    ... of its variable, so term mu expands to prod_k (mu_k // 2 + 1)
    monomials of the same, downward-closed, index set; columns follow the
    rows of the set, and no (row, column) pair repeats.  In a set of graded
    order the first triplet of every column nu is its diagonal entry: the
    rows mu with y^nu in Psi_mu are nu and indices of higher total degree,
    which come later.  Built one active dimension at a time, without a
    dense n_terms^2 array; one lookup of slot rows finds the columns.
    """
    q = index_set.degree
    n = len(index_set)
    # coef[d, j]: coefficient of y^j in the degree-d polynomial, by the
    # recurrence of _tables applied to coefficient rows
    coef = np.zeros((q + 1, q + 1))
    coef[0, 0] = 1.0
    for m in range(q):
        coef[m + 1, 1:] = coef[m, :-1]
        if m:
            coef[m + 1] -= _recurrence_coeff(m) * coef[m - 1]
        coef[m + 1] /= _recurrence_coeff(m + 1)
    dims, degs = _active(index_set)
    rows, vals = np.arange(n), np.ones(n)
    reduced = np.zeros((n, 0), dtype=np.int64)
    for s in range(q):
        # every expansion so far branches into the degrees d, d-2, ... of slot s
        d = degs[rows, s]
        counts = d // 2 + 1
        pick = np.repeat(np.arange(len(rows)), counts)
        skip = np.arange(len(pick)) - np.repeat(np.cumsum(counts) - counts, counts)
        e = d[pick] - 2 * skip
        rows, vals = rows[pick], vals[pick] * coef[d[pick], e]
        reduced = np.column_stack([reduced[pick], e])
    # a monomial's slot row identifies it; the set's own rows name the columns
    cols = _find_rows(_power_slots(dims, degs), _power_slots(dims[rows], reduced))
    if (cols < 0).any():
        raise ValueError("index set is not downward closed")
    return rows, cols, vals


@dataclass
class ChaosBasis:
    """Product Legendre basis orthonormal under Uniform([-1, 1]^P).

    The constant polynomial is 1, so coefficients of an expansion are the
    physical quantities themselves at the distribution mean.  Evaluation
    exploits that a total-degree-Q index has at most Q active dimensions:
    each row stores Q (dimension, degree) slots, padded with the neutral
    degree-0 entry.
    """

    index_set: MultiIndexSet
    _slots: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self):
        q = self.index_set.degree
        dims, degs = _active(self.index_set)
        self._slots = [(dims[:, s] * (q + 1) + degs[:, s], dims[:, s]) for s in range(q)]

    @property
    def n_dims(self) -> int:
        return self.index_set.n_dims

    def _product(self, flat: np.ndarray) -> np.ndarray:
        """Basis values from the flattened univariate value table."""
        if not self._slots:
            return np.ones(len(self.index_set))
        psi = flat[self._slots[0][0]]
        for slot_flat, _ in self._slots[1:]:
            psi *= flat[slot_flat]
        return psi

    def eval(self, y: np.ndarray) -> np.ndarray:
        """Values of all basis polynomials at one parameter point."""
        vals, _ = _tables(self.index_set.degree, y, derivatives=False)
        return self._product(vals.ravel())

    def eval_with_jacobian(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and per-dimension partial derivatives at one point."""
        vals, ders = _tables(self.index_set.degree, y)
        fv, fd = vals.ravel(), ders.ravel()
        slot_vals = [fv[flat] for flat, _ in self._slots]
        jac = np.zeros((len(self.index_set), self.n_dims))
        rows = np.arange(len(self.index_set))
        for s, (flat, dims) in enumerate(self._slots):
            term = fd[flat]
            for t, v in enumerate(slot_vals):
                if t != s:
                    term *= v
            # the rows are distinct, so no index pair repeats within a slot
            jac[rows, dims] += term
        return self._product(fv), jac
