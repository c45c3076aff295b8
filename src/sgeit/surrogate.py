"""Polynomial voltage surrogates: evaluation, Jacobians and file storage.

A surrogate holds the voltage chaos coefficients of a Galerkin solve for a
batch of current patterns, together with everything needed to reuse it:
the parameter box (``fem.ParameterBounds``), pixel seeds, current patterns
and the multi-index set.  Evaluation is one product V Psi(y), where V
holds the electrode voltage coefficients (the mean-free coefficients beta
expanded once) and Psi is the chaos basis orthonormal under the uniform
distribution on the parameter cube, so the degree-0 coefficients are the
expected voltages.

File format ``SGFEM-EIT/1``: a magic line, an 8-byte little-endian header
length, a JSON header {M, L, Q, sigma0, sigma, a, b, seeds, patterns,
index_set}, then the coefficients as little-endian float64, pattern-major.
Loading checks the stored box and puts the file path in front of any error.
"""

from __future__ import annotations

import json
import math
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .chaos import ChaosBasis, MultiIndexSet, iso_td
from .fem import ParameterBounds
from .geometry import require_finite
from .sgfem import SgfemSolution, expand_mean_free

MAGIC_PREFIX = b"SGFEM-EIT/"
FORMAT_VERSION = "1"


@dataclass
class SgfemSurrogate:
    """Voltage surrogate over the parameter cube [-1, 1]^(L+M)."""

    index_set: MultiIndexSet
    patterns: np.ndarray
    beta: np.ndarray
    bounds: ParameterBounds
    seeds: np.ndarray
    _basis: ChaosBasis = field(init=False, repr=False)
    _voltage_coeffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.patterns = np.atleast_2d(np.asarray(self.patterns, dtype=np.float64))
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.seeds = np.asarray(self.seeds, dtype=np.float64).reshape(-1, 2)
        m = self.patterns.shape[1]
        expected = (self.patterns.shape[0], m - 1, len(self.index_set))
        if self.beta.shape != expected:
            raise ValueError(
                f"coefficient array has shape {self.beta.shape}, expected {expected}"
            )
        if self.bounds.n_electrodes != m or self.bounds.n_params != self.n_params:
            raise ValueError(
                "index set dimension does not match pixel and electrode counts"
            )
        self._basis = ChaosBasis(self.index_set)
        # electrode voltage coefficients, (n_patterns * M, n_terms)
        self._voltage_coeffs = np.ascontiguousarray(
            expand_mean_free(self.beta.swapaxes(1, 2)).swapaxes(1, 2)
        ).reshape(-1, len(self.index_set))

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
        if np.abs(y).max() > 1.0 + 1e-12:
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
        return self._voltage_coeffs @ self._basis.eval(y)

    def jacobian(self, y) -> np.ndarray:
        """Derivative of the stacked voltages with respect to y."""
        _, jpsi = self._basis.eval_with_jacobian(self._check_point(y))
        return self._voltage_coeffs @ jpsi

    def save(self, path) -> None:
        """Write the surrogate in the versioned binary format."""
        header = {
            "M": self.n_electrodes,
            "L": self.n_pixels,
            "Q": self.index_set.degree,
            "sigma0": float(self.sigma0),
            "sigma": self.sigma.tolist(),
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "seeds": self.seeds.tolist(),
            "patterns": self.patterns.tolist(),
            "index_set": self.index_set.indices.tolist(),
        }
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
    """Read a surrogate file, rejecting unknown versions, size lies, fields
    of the wrong shape, an index set other than the total-degree one,
    non-finite values and an invalid parameter box."""
    with open(path, "rb") as f:
        line = f.readline()
        if not line.startswith(MAGIC_PREFIX):
            raise ValueError(f"{path}: not a surrogate file")
        version = line[len(MAGIC_PREFIX) :].strip().decode(errors="replace")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported format version {version!r} "
                f"(supported: {FORMAT_VERSION})"
            )
        size = f.read(8)
        if len(size) != 8:
            raise ValueError(f"{path}: truncated before the header length")
        (hlen,) = struct.unpack("<Q", size)
        remaining = os.fstat(f.fileno()).st_size - f.tell()
        if hlen > remaining:
            raise ValueError(
                f"{path}: header length {hlen} exceeds the {remaining} bytes left"
            )
        try:
            header = json.loads(f.read(hlen).decode())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: corrupt header ({exc})") from exc
        payload = f.read()
    try:
        m, big_l, q = int(header["M"]), int(header["L"]), int(header["Q"])
        indices = np.asarray(header["index_set"], dtype=np.int64)
        patterns = np.asarray(header["patterns"], dtype=np.float64)
        sigma = np.asarray(header["sigma"], dtype=np.float64)
        a = np.asarray(header["a"], dtype=np.float64)
        b = np.asarray(header["b"], dtype=np.float64)
        seeds = np.asarray(header["seeds"], dtype=np.float64)
        sigma0 = float(header["sigma0"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed header ({exc})") from exc
    for name, value, shape in (
        ("sigma", sigma, (big_l,)),
        ("a", a, (m,)),
        ("b", b, (m,)),
        ("seeds", seeds, (big_l, 2)),
        ("patterns", patterns, patterns.shape[:1] + (m,)),
    ):
        if value.shape != shape:
            raise ValueError(
                f"{path}: {name} has shape {value.shape}, expected {shape}"
            )
    try:
        bounds = ParameterBounds(sigma0, sigma, a, b)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    n_dims = big_l + m
    expected_card = math.comb(n_dims + q, q)
    if indices.ndim != 2 or indices.shape != (expected_card, n_dims):
        raise ValueError(
            f"{path}: index set cardinality {indices.shape} does not match "
            f"the total-degree count {expected_card} for L+M={n_dims}, Q={q}"
        )
    # (L+M, Q) determines the set; a stored one that differs is corrupt
    index_set = iso_td(n_dims, q)
    if not np.array_equal(indices, index_set.indices):
        raise ValueError(
            f"{path}: index_set differs from the total-degree set for "
            f"L+M={n_dims}, Q={q}"
        )
    n_values = patterns.shape[0] * (m - 1) * expected_card
    if len(payload) != 8 * n_values:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, expected {8 * n_values}"
        )
    beta = np.frombuffer(payload, dtype="<f8").reshape(
        patterns.shape[0], m - 1, expected_card
    )
    require_finite(path, seeds=seeds, patterns=patterns, coefficients=beta)
    return SgfemSurrogate(index_set, patterns, beta.copy(), bounds, seeds)
