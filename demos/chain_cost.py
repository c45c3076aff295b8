"""Wall time of one chain step and of one log density evaluation.

Builds a posterior, then prints the wall time per step of one Metropolis
chain and per call of ``Posterior.log_density`` at points inside the
parameter cube, each as the median (and quartiles) of N runs, with one
BLAS thread.

- The tank posterior (default) is the one the ``reconstruct-broad``
  benchmark workload inverts: the tank mesh ``make_disk_fixture(10, 32, 8,
  0.5)`` with the two-ring seeds, same-mesh data with pixel 4 at 0.25 mS and
  contacts at 300 mS/cm under 0.1 % noise, the 5 % noise rule and
  ``corr_length`` 0.5.
- ``--paper`` builds the ``paper`` posterior of ROADMAP.md on the fixture
  of ``paper_scale.py``: same-mesh data with pixel 3 at 0.25 mS, contacts
  at 300 mS/cm, 1 % noise and data seed 7, at the 5 % rule and
  ``corr_length`` 0.5.  The precompute takes a few seconds and about
  150 MiB.

Both surrogates come from ``sgeit precompute`` at its defaults, run in this
process.  The chain starts at the MAP with the proposal factor of
``mcmc_sample``; one retained sample makes ``mcmc_sample`` run only its
first chain, in this process, for the whole burn-in.

    python demos/chain_cost.py [--paper] [--runs N] [--steps S]

S is the number of chain steps and of log density calls per run (default
35,000 on the tank, the length of one chain of ``sgeit reconstruct
--samples 10000``, and 2,000 with ``--paper``); N defaults to 5.
"""

import os

# before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

from paper_scale import write_fixture  # noqa: E402  (puts src/ on the path)

import sgeit  # noqa: E402
from sgeit import cli, det_cem, inversion, sgfem, surrogate  # noqa: E402


def tank_seeds() -> np.ndarray:
    """4 seeds at r = 0.35 rotated half a sector, 8 at r = 0.75 on the axes."""
    inner = 2.0 * np.pi * (np.arange(4) + 0.5) / 4
    outer = 2.0 * np.pi * np.arange(8) / 8
    return np.vstack([
        0.35 * np.column_stack([np.cos(inner), np.sin(inner)]),
        0.75 * np.column_stack([np.cos(outer), np.sin(outer)]),
    ])


def write_tank(directory: pathlib.Path) -> tuple[pathlib.Path, pathlib.Path]:
    mesh_path, seeds_path = directory / "mesh.json", directory / "seeds.json"
    sgeit.save_mesh(sgeit.make_disk_fixture(10, 32, 8, 0.5), mesh_path)
    seeds_path.write_text(json.dumps(tank_seeds().tolist()))
    return mesh_path, seeds_path


def build(directory: pathlib.Path, paper: bool) -> inversion.Posterior:
    """Precompute the surrogate, simulate the data and wire the posterior."""
    mesh_path, seeds_path = (write_fixture if paper else write_tank)(directory)
    surr_path = directory / "surrogate.bin"
    argv = ["precompute", "--mesh", str(mesh_path), "--seeds", str(seeds_path),
            "--out", str(surr_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit("sgeit precompute failed")
    surr = surrogate.load(surr_path)
    mesh = sgeit.load_mesh(mesh_path)
    sigma = np.full(surr.n_pixels, 1.1)
    sigma[3 if paper else 4] = 0.25
    data = det_cem.simulate_measurements(
        mesh,
        sgeit.assign_pixels(mesh, surr.seeds),
        det_cem.DeterministicSample(sigma, np.full(mesh.n_electrodes, 300.0)),
        sgfem.standard_patterns(mesh.n_electrodes),
        noise_pct=1.0 if paper else 0.1,
        seed=7,
    )
    return inversion.build_posterior(surr, data, noise_pct=5.0, corr_length=0.5)


def summary(per_op: list[float]) -> str:
    text = f"{1e6 * statistics.median(per_op):.2f} us"
    if len(per_op) > 1:
        q1, _, q3 = statistics.quantiles(per_op, n=4)
        text += f" (quartiles {1e6 * q1:.2f}-{1e6 * q3:.2f})"
    return text


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--paper", action="store_true", help="the paper posterior")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--steps", type=int, default=None)
    args = parser.parse_args()
    steps = args.steps or (2_000 if args.paper else 35_000)
    if args.runs < 1 or steps < 2:
        parser.error("need at least one run of at least two steps")
    with tempfile.TemporaryDirectory() as tmp:
        posterior = build(pathlib.Path(tmp), args.paper)
    start = inversion.map_estimate(posterior).y
    chain, density, inside = [], [], []
    for run in range(args.runs):
        config = inversion.McmcConfig(
            n_samples=1, burn_in=steps - 1, thinning=1, seed=run
        )
        with warnings.catch_warnings():
            # one post-burn-in step has an acceptance rate of 0 or 1
            warnings.filterwarnings("ignore", "MCMC acceptance rate")
            t0 = time.perf_counter()
            result = inversion.mcmc_sample(posterior, config, start=start)
            chain.append((time.perf_counter() - t0) / steps)
        inside.append(result.in_support)
        points = np.random.default_rng(run).uniform(-1.0, 1.0, (steps, start.size))
        t0 = time.perf_counter()
        for y in points:
            posterior.log_density(y)
        density.append((time.perf_counter() - t0) / steps)
    name = "paper" if args.paper else "tank"
    print(f"{name} posterior: {start.size} parameters, "
          f"{len(posterior.data)} data, {len(posterior.surrogate.index_set)} "
          f"chaos terms; median of {args.runs} runs of {steps} at one BLAS thread")
    print(f"chain step (one chain):  {summary(chain)}; in support "
          f"{statistics.median(inside):.3f}")
    print(f"Posterior.log_density:   {summary(density)} per call inside the cube")


if __name__ == "__main__":
    main()
