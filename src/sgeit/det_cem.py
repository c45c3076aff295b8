"""Deterministic complete electrode model solves and data simulation.

Solves the electrode model at a single conductivity/contact sample on the
same FEM building blocks as the Galerkin system, which makes it the exact
degenerate case of the stochastic solver (chaos degree 0, collapsed
contact bounds).  Also generates synthetic measurement sets with additive
Gaussian noise; :func:`noise_level` is the one noise-level rule, of the
data and of the likelihood.  Units: conductivity mS, contact conductance
mS/cm, currents mA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csr import superlu
from .fem import ParameterBounds, assemble_electrode_mass, stiffness_matrix
from .geometry import (
    Mesh, PixelPartition, electrode_geometry, read_json, require_finite, write_json
)
from .sgfem import _voltage_loads, cem_matrix, expand_mean_free


@dataclass(frozen=True)
class DeterministicSample:
    """One realization: per-pixel conductivity and per-electrode contact."""

    sigma: np.ndarray
    zeta: np.ndarray


@dataclass(frozen=True)
class DeterministicSolution:
    """Electrode voltages per current pattern."""

    patterns: np.ndarray
    voltages: np.ndarray


@dataclass(frozen=True)
class MeasurementSet:
    """Simulated or measured electrode voltages per current pattern."""

    patterns: np.ndarray
    voltages: np.ndarray
    noise_std: float
    seed: int
    provenance: str = ""


def params_from_y(y, bounds: ParameterBounds) -> DeterministicSample:
    """Map a parameter vector in [-1, 1]^(L+M) to physical values."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (bounds.n_params,):
        raise ValueError(
            f"expected {bounds.n_params} parameters, got {y.shape}"
        )
    L = bounds.n_pixels
    sigma = bounds.sigma0 + bounds.sigma * y[:L]
    zeta = bounds.zeta_mid + bounds.zeta_half * y[L:]
    return DeterministicSample(sigma, zeta)


def noise_level(voltages, noise_std=None, noise_pct=None) -> float:
    """``noise_std``, or ``noise_pct`` percent of the spread max - min of
    ``voltages``, or 0 with neither.  Both together, and a negative, NaN or
    infinite value, are refused by name."""
    if noise_std is not None and noise_pct is not None:
        raise ValueError("give either noise_std or noise_pct, not both")
    for name, value in (("noise_std", noise_std), ("noise_pct", noise_pct)):
        if value is not None and not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {value:g}")
    if noise_pct is not None:
        return float((noise_pct / 100.0) * (np.max(voltages) - np.min(voltages)))
    return 0.0 if noise_std is None else float(noise_std)


def solve_deterministic(
    mesh: Mesh,
    partition: PixelPartition,
    sample: DeterministicSample,
    patterns,
) -> DeterministicSolution:
    """Electrode voltages for each current pattern at one sample.

    Assembles the electrode-model system in the mean-free voltage basis,
    factorizes once, and solves all patterns against it, with the loads and
    pattern checks of the Galerkin solve; each voltage vector sums to zero.
    """
    patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
    sigma = np.asarray(sample.sigma, dtype=np.float64)
    zeta = np.asarray(sample.zeta, dtype=np.float64)
    if sigma.shape[0] != partition.n_pixels:
        raise ValueError("sample has wrong number of pixel conductivities")
    # written so that a NaN fails too
    if not (sigma > 0.0).all():
        raise ValueError("pixel conductivities must be positive")
    if not (zeta > 0.0).all():
        raise ValueError("contact conductances must be positive")
    eg = electrode_geometry(mesh)
    n_el = eg.n_electrodes
    if zeta.shape[0] != n_el:
        raise ValueError("sample has wrong number of contact conductances")
    loads = _voltage_loads(patterns, n_el)

    S, g = assemble_electrode_mass(mesh, eg)
    A = stiffness_matrix(mesh, sigma[partition.triangle_pixel])
    B = cem_matrix(A, zeta, S, g, eg.lengths)
    # B is exactly symmetric, so the CSC matrix of its CSR arrays, its
    # transpose, is B in the format SuperLU factorizes
    lu = superlu(B)

    n_d = mesh.n_nodes
    rhs = np.zeros((patterns.shape[0], B.shape[0]))
    rhs[:, n_d:] = loads
    # one solve per pattern: on a block of patterns SuperLU runs other BLAS
    # kernels, whose results can differ in the last bits
    x = np.array([lu.solve(b) for b in rhs])
    return DeterministicSolution(patterns, expand_mean_free(x[:, n_d:]))


def simulate_measurements(
    mesh: Mesh,
    partition: PixelPartition,
    sample: DeterministicSample,
    patterns,
    noise_std: float | None = None,
    noise_pct: float | None = None,
    seed: int = 0,
    provenance: str = "",
) -> MeasurementSet:
    """Solve the electrode model and add white Gaussian noise.

    The noise level is :func:`noise_level` of the noise-free voltages;
    with neither setting the data are noise-free.  A bad noise setting and
    a negative seed are refused by name before the solve.
    """
    noise_level(0.0, noise_std, noise_pct)  # checks the settings, not the data
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    sol = solve_deterministic(mesh, partition, sample, patterns)
    clean = sol.voltages
    xi = noise_level(clean, noise_std, noise_pct)
    rng = np.random.default_rng(seed)
    noisy = clean + xi * rng.standard_normal(clean.shape) if xi else clean.copy()
    return MeasurementSet(sol.patterns, noisy, xi, seed, provenance)


def save_measurements(ms: MeasurementSet, path) -> None:
    """Write a measurement set to JSON."""
    doc = {
        "patterns": ms.patterns.tolist(),
        "voltages": ms.voltages.tolist(),
        "noise_std": float(ms.noise_std),
        "seed": int(ms.seed),
    }
    if ms.provenance:
        doc["provenance"] = ms.provenance
    write_json(doc, path)


def load_measurements(path) -> MeasurementSet:
    """Read a measurement set written by :func:`save_measurements`."""
    raw = read_json(path)
    try:
        patterns = np.asarray(raw["patterns"], dtype=np.float64)
        voltages = np.asarray(raw["voltages"], dtype=np.float64)
        seed = raw["seed"]
        # a bool is an int subclass, and int() would take 1.5 or "7"
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, got {seed!r}")
        ms = MeasurementSet(
            patterns,
            voltages,
            float(raw["noise_std"]),
            seed,
            raw.get("provenance", ""),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed measurement file ({exc})") from exc
    require_finite(
        path, patterns=ms.patterns, voltages=ms.voltages, noise_std=ms.noise_std
    )
    if ms.patterns.ndim != 2 or ms.voltages.shape != ms.patterns.shape:
        raise ValueError(f"{path}: pattern/voltage shapes disagree")
    return ms
