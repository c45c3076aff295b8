"""Inputs, timed ``sgeit`` commands and output checks of the benchmark.

Shared by ``run.py`` and ``fresh_op.py``.  Both set the BLAS thread count
before they import this module, because it imports numpy.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import resource
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "sgeit" / "__init__.py").is_file():
    sys.exit(f"error: no sgeit sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import sgeit  # noqa: E402
from sgeit import cli, det_cem, inversion, sgfem, surrogate  # noqa: E402

TANK = (10, 32, 8, 0.5)  # make_disk_fixture arguments of the tank mesh
TANK_FINE = (20, 64, 8, 0.5)
INCLUSION_PIXEL = 4
INCLUSION_SIGMA = 0.25  # mS, background 1.1
CONTACT = 300.0  # mS/cm
DATA_NOISE_PCT = 0.1
CHAIN_SAMPLES = 10_000  # retained; default burn-in 50k and thinning 5
MAX_REL_RESIDUAL = 1e-10
REL_ERR_POINTS = 256
REL_ERR_BOUND = 0.12  # measured 0.076-0.081 on the tank surrogate


def two_ring_seeds() -> np.ndarray:
    """4 seeds at r=0.35 rotated half a sector, 8 at r=0.75 on the axes."""
    inner_t = 2.0 * np.pi * (np.arange(4) + 0.5) / 4
    outer_t = 2.0 * np.pi * np.arange(8) / 8
    inner = 0.35 * np.column_stack([np.cos(inner_t), np.sin(inner_t)])
    outer = 0.75 * np.column_stack([np.cos(outer_t), np.sin(outer_t)])
    return np.vstack([inner, outer])


def make_inputs(work: Path, fine_data: bool, data_seed: int) -> dict[str, Path]:
    """Write the tank mesh, the pixel seeds and the inclusion data set."""
    paths = {name: work / f"{name}.json" for name in ("mesh", "seeds", "data")}
    seeds = two_ring_seeds()
    mesh = sgeit.make_disk_fixture(*TANK)
    sgeit.save_mesh(mesh, paths["mesh"])
    paths["seeds"].write_text(json.dumps(seeds.tolist()))
    data_mesh = sgeit.make_disk_fixture(*TANK_FINE) if fine_data else mesh
    sigma = np.full(len(seeds), 1.1)
    sigma[INCLUSION_PIXEL] = INCLUSION_SIGMA
    sample = det_cem.DeterministicSample(sigma, np.full(mesh.n_electrodes, CONTACT))
    ms = det_cem.simulate_measurements(
        data_mesh,
        sgeit.assign_pixels(data_mesh, seeds),
        sample,
        sgfem.standard_patterns(mesh.n_electrodes),
        noise_pct=DATA_NOISE_PCT,
        seed=data_seed,
    )
    det_cem.save_measurements(ms, paths["data"])
    return paths


def precompute_argv(paths: dict, out: Path) -> list[str]:
    """``sgeit precompute`` at its defaults (Q=2, zeta 10-1000, solver auto)."""
    return ["precompute", "--mesh", str(paths["mesh"]), "--seeds", str(paths["seeds"]),
            "--out", str(out)]


def reconstruct_argv(
    surr: Path, paths: dict, chain_seed: int, noise_pct: float | None, out: Path
) -> list[str]:
    argv = ["reconstruct", "--surrogate", str(surr), "--data", str(paths["data"]),
            "--corr-length", "0.5", "--samples", str(CHAIN_SAMPLES),
            "--seed", str(chain_seed), "--out", str(out)]
    if noise_pct is not None:
        argv += ["--noise-pct", str(noise_pct)]
    return argv


def run_cli(argv: list[str]) -> tuple[int, float]:
    """Exit code and wall time of ``sgeit.cli.main(argv)``, output muted."""
    sink = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(sink), redirect_stderr(sink):
        # a low acceptance rate warns by design; it is measured instead
        warnings.simplefilter("ignore", UserWarning)
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return code, seconds


def max_rss_mb() -> float:
    """Peak resident set of this process image in MB.

    VmHWM belongs to the address space, so unlike ``ru_maxrss`` it does
    not carry over the parent's peak into a freshly started interpreter.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Keeper:
    """Pass-throughs that keep the last chain and Galerkin solution.

    They wrap ``inversion.mcmc_sample`` and ``sgfem.solve`` and change
    nothing but keeping the result (and, for the solve, the growth of the
    peak resident set across the call).
    """

    def __init__(self):
        self.chain = None
        self.solution = None
        self.solve_rss_growth_mb = 0.0
        self._orig = None

    def __enter__(self):
        sample, solve = inversion.mcmc_sample, sgfem.solve
        self._orig = (sample, solve)

        def keep_chain(*args, **kwargs):
            self.chain = sample(*args, **kwargs)
            return self.chain

        def keep_solution(*args, **kwargs):
            before = max_rss_mb()
            self.solution = solve(*args, **kwargs)
            self.solve_rss_growth_mb = max_rss_mb() - before
            return self.solution

        inversion.mcmc_sample, sgfem.solve = keep_chain, keep_solution
        return self

    def __exit__(self, *exc):
        inversion.mcmc_sample, sgfem.solve = self._orig

    def reset(self) -> None:
        self.chain = None
        self.solution = None


def output_digest(out: Path, chain=None) -> str:
    """SHA-256 of an output file, followed by the kept chain if given."""
    blob = out.read_bytes()
    if chain is not None:
        blob += np.ascontiguousarray(chain.samples, dtype="<f8").tobytes()
    return hashlib.sha256(blob).hexdigest()


def check_precompute(code: int, keeper: Keeper, out: Path) -> tuple[str, list[str]]:
    """SHA-256 of the surrogate file and the list of failed checks."""
    if code != 0:
        return "", [f"precompute exited {code}"]
    problems = []
    residual = float(keeper.solution.residuals.max())
    if not residual <= MAX_REL_RESIDUAL:
        problems.append(f"max relative residual {residual:.3e} above {MAX_REL_RESIDUAL:g}")
    resaved = out.with_suffix(".resaved")
    surrogate.load(out).save(resaved)
    if resaved.read_bytes() != out.read_bytes():
        problems.append("surrogate saved again after loading differs")
    resaved.unlink()
    return output_digest(out), problems


def check_reconstruct(
    code: int, keeper: Keeper, out: Path, inclusion: bool
) -> tuple[str, list[str]]:
    """SHA-256 of estimates plus kept chain, and the list of failed checks.

    The bounds are those of the parameter cube at the precompute defaults
    (sigma in [0.2, 2.0] mS, zeta in [10, 1000] mS/cm); with ``inclusion``
    the lowest MAP pixel must lie within one pixel diameter of the
    inclusion.
    """
    if code != 0 or keeper.chain is None:
        return "", [f"reconstruct exited {code}"]
    digest = output_digest(out, keeper.chain)
    est = json.loads(out.read_text())
    problems = []
    limits = {
        "sigma_map": (0.2, 2.0), "sigma_cm": (0.2, 2.0),
        "zeta_map": (10.0, 1000.0), "zeta_cm": (10.0, 1000.0),
        "sigma_sd": (0.0, 0.9), "zeta_sd": (0.0, 495.0),
    }
    for name, (lo, hi) in limits.items():
        v = np.asarray(est.get(name, []), dtype=np.float64)
        if v.size == 0 or not np.isfinite(v).all() or v.min() < lo or v.max() > hi:
            problems.append(f"{name} missing, non-finite or outside [{lo:g}, {hi:g}]")
    if inclusion and not problems:
        seeds = two_ring_seeds()
        gaps = np.linalg.norm(seeds[:, None, :] - seeds[None, :, :], axis=2)
        np.fill_diagonal(gaps, np.inf)
        lowest = int(np.argmin(est["sigma_map"]))
        miss = np.linalg.norm(seeds[lowest] - seeds[INCLUSION_PIXEL])
        if miss > gaps.min(axis=1).max():
            problems.append(f"lowest MAP pixel {lowest} is not near the inclusion")
    return digest, problems


def surrogate_rel_err(surr_path: Path, paths: dict, probe_seed: int) -> float:
    """RMS relative error against deterministic solves at Sobol points."""
    from scipy.stats import qmc

    surr = surrogate.load(surr_path)
    mesh = sgeit.load_mesh(paths["mesh"])
    part = sgeit.assign_pixels(mesh, surr.seeds)
    bounds = det_cem.ParameterBounds(surr.sigma0, surr.sigma, surr.a, surr.b)
    points = qmc.Sobol(d=surr.n_params, scramble=True, seed=probe_seed)
    errs = []
    for y in 2.0 * points.random(REL_ERR_POINTS) - 1.0:
        ref = det_cem.solve_deterministic(
            mesh, part, det_cem.params_from_y(y, bounds), surr.patterns
        ).voltages.ravel()
        errs.append(np.linalg.norm(surr.eval_stacked(y) - ref) / np.linalg.norm(ref))
    return math.sqrt(float(np.mean(np.square(errs))))
