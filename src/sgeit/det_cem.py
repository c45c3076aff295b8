"""Deterministic complete electrode model solves and data simulation.

Solves the electrode model at a single conductivity/contact sample on the
same FEM building blocks as the Galerkin system, which makes it the exact
degenerate case of the stochastic solver (chaos degree 0, collapsed
contact bounds).  Also generates synthetic measurement sets with additive
Gaussian noise.  Units: conductivity mS, contact conductance mS/cm,
currents mA.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .fem import ParameterBounds, assemble_electrode_mass, stiffness_matrix
from .geometry import Mesh, PixelPartition, electrode_geometry, require_finite
from .sgfem import cem_matrix, expand_mean_free


@dataclass(frozen=True)
class DeterministicSample:
    """One realization: per-pixel conductivity and per-electrode contact."""

    sigma: np.ndarray
    zeta: np.ndarray


@dataclass(frozen=True)
class DeterministicSolution:
    """Interior potentials and electrode voltages per current pattern."""

    patterns: np.ndarray
    potentials: np.ndarray
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


def solve_deterministic(
    mesh: Mesh,
    partition: PixelPartition,
    sample: DeterministicSample,
    patterns,
) -> DeterministicSolution:
    """Electrode voltages for each current pattern at one sample.

    Assembles the electrode-model system in the mean-free voltage basis,
    factorizes once, and solves all patterns against it.  The voltage
    vector of every pattern sums to zero by construction.
    """
    patterns = np.atleast_2d(np.asarray(patterns, dtype=np.float64))
    sigma = np.asarray(sample.sigma, dtype=np.float64)
    zeta = np.asarray(sample.zeta, dtype=np.float64)
    if sigma.shape[0] != partition.n_pixels:
        raise ValueError("sample has wrong number of pixel conductivities")
    if (sigma <= 0.0).any():
        raise ValueError("pixel conductivities must be positive")
    if (zeta <= 0.0).any():
        raise ValueError("contact conductances must be positive")
    eg = electrode_geometry(mesh)
    n_el = eg.n_electrodes
    if zeta.shape[0] != n_el:
        raise ValueError("sample has wrong number of contact conductances")
    if patterns.shape[1] != n_el:
        raise ValueError("pattern length does not match electrode count")
    if np.abs(patterns.sum(axis=1)).max() > 1e-12:
        raise ValueError("current patterns must sum to zero")

    S, g = assemble_electrode_mass(mesh, eg)
    A = stiffness_matrix(mesh, sigma[partition.triangle_pixel])
    lu = spla.splu(cem_matrix(A, zeta, S, g, eg.lengths).tocsc())

    n_d = mesh.n_nodes
    potentials = np.empty((patterns.shape[0], n_d))
    voltages = np.empty((patterns.shape[0], n_el))
    for p, current in enumerate(patterns):
        rhs = np.zeros(n_d + n_el - 1)
        rhs[n_d:] = current[0] - current[1:]
        x = lu.solve(rhs)
        potentials[p] = x[:n_d]
        voltages[p] = expand_mean_free(x[n_d:])
    return DeterministicSolution(patterns, potentials, voltages)


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

    The noise level is either ``noise_std`` directly or, via
    ``noise_pct``, that percentage of the spread max(U) - min(U) of the
    noise-free voltages.  With neither given the data are noise-free.
    """
    sol = solve_deterministic(mesh, partition, sample, patterns)
    clean = sol.voltages
    if noise_std is not None and noise_pct is not None:
        raise ValueError("give either noise_std or noise_pct, not both")
    if noise_pct is not None:
        xi = (noise_pct / 100.0) * (clean.max() - clean.min())
    else:
        xi = float(noise_std) if noise_std is not None else 0.0
    if xi < 0.0:
        raise ValueError("noise level must be nonnegative")
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
    with open(path, "w") as f:
        json.dump(doc, f)


def load_measurements(path) -> MeasurementSet:
    """Read a measurement set written by :func:`save_measurements`."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    try:
        patterns = np.asarray(raw["patterns"], dtype=np.float64)
        voltages = np.asarray(raw["voltages"], dtype=np.float64)
        ms = MeasurementSet(
            patterns,
            voltages,
            float(raw["noise_std"]),
            int(raw["seed"]),
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
