"""Polynomial voltage surrogates: evaluation, Jacobians and file storage.

A surrogate holds the voltage chaos coefficients of a Galerkin solve for a
batch of current patterns, together with everything needed to reuse it:
the parameter box (``fem.ParameterBounds``), pixel seeds, current patterns
and the multi-index set.  The coefficients beta are those of the chaos
basis Psi orthonormal under the uniform distribution on the parameter
cube, so the degree-0 coefficients are the expected voltages.  Evaluation
uses the power form of that basis instead: with V the electrode voltage
coefficients (beta expanded mean-free) and Psi = T m the change to the
monomials m(y) = y^mu, the surrogate keeps M = V T once, and one
evaluation is Q gathers of [1, y] that form m(y), then the product M m(y).
The Jacobian is M times the derivatives of the monomials.

File format ``SGFEM-EIT/2``: a magic line, an 8-byte little-endian header
length, a JSON header {Q, sigma0, sigma, a, b, seeds, patterns}, then the
coefficients as little-endian float64, pattern-major.  The file stores
nothing that can be derived: L = len(sigma), M = len(a), and the index set
is ``iso_td(L+M, Q)``.  Version-1 files, whose header also holds M, L and
the index set, are read but not written.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .chaos import MultiIndexSet, iso_td, legendre_to_monomial, monomial_slots
from .fem import ParameterBounds
from .sgfem import SgfemSolution, expand_mean_free

MAGIC_PREFIX = b"SGFEM-EIT/"
FORMAT_VERSION = "2"
# the header fields of each readable version; version 1 adds what 2 derives
HEADER_FIELDS = {"2": ("Q", "sigma0", "sigma", "a", "b", "seeds", "patterns")}
HEADER_FIELDS["1"] = ("M", "L") + HEADER_FIELDS["2"] + ("index_set",)
# the leading entry of the extended point [1, y] the monomial slots index
_ONE = np.ones(1)


@dataclass
class SgfemSurrogate:
    """Voltage surrogate over the parameter cube [-1, 1]^(L+M); construction
    checks that seeds, patterns, coefficients and index set fit the box."""

    index_set: MultiIndexSet
    patterns: np.ndarray
    beta: np.ndarray
    bounds: ParameterBounds
    seeds: np.ndarray
    _slots: list[np.ndarray] = field(init=False, repr=False)
    _power_coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.patterns = np.asarray(self.patterns, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.seeds = np.asarray(self.seeds, dtype=np.float64)
        n_pix, m = self.bounds.n_pixels, self.bounds.n_electrodes
        p, n_terms = self.patterns.shape[:1], len(self.index_set)
        for name, value, expected in (
            ("seeds", self.seeds, (n_pix, 2)),
            ("patterns", self.patterns, p + (m,)),
            ("coefficient array", self.beta, p + (m - 1, n_terms)),
            ("index set", self.index_set.indices, (n_terms, n_pix + m)),
        ):
            if value.shape != expected:
                raise ValueError(f"{name} has shape {value.shape}, expected {expected}")
        # Q = 0 has no slot; one gather of the constant stands for it
        slots = monomial_slots(self.index_set).T
        self._slots = [np.ascontiguousarray(s) for s in slots] or [
            np.zeros(len(self.index_set), dtype=np.int64)
        ]
        # electrode voltage coefficients, (n_patterns * M, n_terms), in the
        # monomial basis: M = V T
        volts = expand_mean_free(self.beta.swapaxes(1, 2)).swapaxes(1, 2)
        volts = volts.reshape(-1, len(self.index_set))
        self._power_coeffs = np.ascontiguousarray(
            volts @ legendre_to_monomial(self.index_set)
        )

    @property
    def n_electrodes(self) -> int:
        return self.patterns.shape[1]

    @property
    def n_pixels(self) -> int:
        return self.bounds.n_pixels

    @property
    def n_patterns(self) -> int:
        return self.patterns.shape[0]

    @property
    def n_params(self) -> int:
        return self.index_set.n_dims

    # the box's fields, read-only
    sigma0 = property(lambda self: self.bounds.sigma0)
    sigma = property(lambda self: self.bounds.sigma)
    a = property(lambda self: self.bounds.a)
    b = property(lambda self: self.bounds.b)

    def _check_point(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {y.shape}")
        top = np.abs(y).max()
        if not top <= 1.0 + 1e-12:
            if not math.isfinite(top):
                raise ValueError("non-finite parameter point")
            warnings.warn(
                "parameter point outside [-1, 1]; polynomial extrapolation",
                stacklevel=3,
            )
        return y

    def eval_stacked(self, y, *, check: bool = True) -> np.ndarray:
        """All patterns' voltages stacked into one vector, pattern-major;
        ``check=False`` skips the test of ``y`` for callers that made it."""
        if check:
            y = self._check_point(y)
        ext = np.concatenate((_ONE, y))
        first, *rest = self._slots
        mono = ext.take(first)
        for slot in rest:
            mono *= ext.take(slot)
        return self._power_coeffs @ mono

    def jacobian(self, y) -> np.ndarray:
        """Derivative of the stacked voltages with respect to y."""
        ext = np.concatenate((_ONE, self._check_point(y)))
        gathered = [ext.take(slot) for slot in self._slots]
        rows = np.arange(len(self.index_set))
        # column 0 collects the derivatives with respect to the constant
        dmono = np.zeros((len(rows), len(ext)))
        for s, slot in enumerate(self._slots):
            term = np.ones(len(rows))
            for t, g in enumerate(gathered):
                if t != s:
                    term *= g
            # the rows are distinct, so no index pair repeats within a slot
            dmono[rows, slot] += term
        return self._power_coeffs @ dmono[:, 1:]

    def save(self, path) -> None:
        """Write the surrogate in format version 2.  The file names its
        index set by Q alone, so a set other than ``iso_td(L+M, Q)`` is
        refused."""
        q = self.index_set.degree
        if not np.array_equal(self.index_set.indices, iso_td(self.n_params, q).indices):
            raise ValueError(
                f"index set is not the total-degree set for L+M={self.n_params}, "
                f"Q={q}; the surrogate file cannot store it"
            )
        # Q, sigma0, then the arrays, in the order of HEADER_FIELDS
        header = {"Q": q, "sigma0": self.sigma0}
        header.update((k, getattr(self, k).tolist()) for k in HEADER_FIELDS["2"][2:])
        blob = json.dumps(header, separators=(",", ":")).encode()
        with open(path, "wb") as f:
            f.write(MAGIC_PREFIX + FORMAT_VERSION.encode() + b"\n")
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            f.write(np.ascontiguousarray(self.beta, dtype="<f8").tobytes())


def from_solution(
    solution: SgfemSolution,
    index_set: MultiIndexSet,
    bounds: ParameterBounds,
    seeds,
) -> SgfemSurrogate:
    """Package a Galerkin solution as a reusable surrogate."""
    return SgfemSurrogate(index_set, solution.patterns, solution.beta, bounds, seeds)


def load(path) -> SgfemSurrogate:
    """Read a surrogate file of format version 2 or 1, putting the path in
    front of any error.  Loading parses the magic line, version, header
    length, JSON header and payload size and checks finiteness; the box and
    the surrogate check that the parts agree.  A version-1 header must hold
    the M, L and index set that version 2 derives."""
    with open(path, "rb") as f:
        try:
            return _read(f)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _read(f) -> SgfemSurrogate:
    line = f.readline()
    if not line.startswith(MAGIC_PREFIX):
        raise ValueError("not a surrogate file")
    version = line[len(MAGIC_PREFIX) :].strip().decode(errors="replace")
    if version not in HEADER_FIELDS:
        raise ValueError(f"unsupported format version {version!r} (reads 1 and 2)")
    size = f.read(8)
    if len(size) != 8:
        raise ValueError("truncated before the header length")
    (hlen,) = struct.unpack("<Q", size)
    left = os.fstat(f.fileno()).st_size - f.tell()
    if hlen > left:
        raise ValueError(f"header length {hlen} exceeds the {left} bytes left")
    try:
        header = json.loads(f.read(hlen).decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"corrupt header ({exc})") from exc
    fields = HEADER_FIELDS[version]
    if not isinstance(header, dict) or header.keys() != set(fields):
        raise ValueError(f"header must hold exactly the fields {', '.join(fields)}")
    for key in ("Q", "M", "L"):
        # M and L exist in version 1 only; a bool is an int subclass, and a
        # float would be truncated
        value = header.get(key, 0)
        if type(value) is not int or value < 0:
            raise ValueError(f"{key} must be a nonnegative integer, got {value!r}")
    try:
        sigma0 = float(header["sigma0"])
        sigma, a, b, seeds, patterns = (
            np.asarray(header[key], dtype=np.float64)
            for key in ("sigma", "a", "b", "seeds", "patterns")
        )
        n_patterns = len(patterns)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed header ({exc})") from exc
    bounds = ParameterBounds(sigma0, sigma, a, b)
    q, m, n_dims = header["Q"], bounds.n_electrodes, bounds.n_params
    # the payload size bounds the work before the index set is built
    shape = (n_patterns, m - 1, math.comb(n_dims + q, q))
    payload = f.read()
    if len(payload) != 8 * math.prod(shape):
        raise ValueError(
            f"payload holds {len(payload)} bytes, expected {8 * math.prod(shape)}"
        )
    index_set = iso_td(n_dims, q)
    if version == "1":
        rows = index_set.indices.tolist()
        for key, value in (("M", m), ("L", bounds.n_pixels), ("index_set", rows)):
            if header[key] != value:
                raise ValueError(f"stored {key} does not match the box and Q={q}")
    beta = np.frombuffer(payload, dtype="<f8").reshape(shape)
    finite = {"seeds": seeds, "patterns": patterns, "coefficients": beta}
    for name, value in finite.items():
        if not np.isfinite(value).all():
            raise ValueError(f"non-finite value in {name}")
    return SgfemSurrogate(index_set, patterns, beta.copy(), bounds, seeds)
