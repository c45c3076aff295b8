"""Wall time of each stage of ``sgeit precompute``.

Writes a fixture to a temporary directory, then runs the stages of ``sgeit
precompute`` at its defaults N times in this process and prints each
stage's wall time as the median (and quartiles) of the N runs, with one
BLAS thread.  The stages are those of ``cli.cmd_precompute``:

- FEM: ``fem.assemble_spatial``, the stiffness and electrode matrices;
- moment couplings: ``chaos.iso_td`` and ``chaos.moment_matrices``;
- Galerkin assembly: ``sgfem.assemble_system``, B_0 and K_kj;
- solve: ``sgfem.solve`` on the standard current patterns, printed with
  the CG iterations and the largest relative residual of the last run,
  and the peak of the memory that ``tracemalloc`` traced while the
  warm-up run solved;
- save: ``surrogate.from_solution`` and ``SgfemSurrogate.save``.

The fixture is the tank (default): ``make_disk_fixture(10, 32, 8, 0.5)``
with the two-ring seeds of the benchmark, or with ``--paper`` the ``paper``
fixture of ``paper_scale.py`` (76 pixels, 16 electrodes; each run takes
about half a second and peaks near 110 MiB).  The first run warms up and
is not counted.

    python demos/precompute_cost.py [--paper] [--runs N]

N defaults to 20 on the tank and 5 with ``--paper``.
"""

import os

# before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from paper_scale import write_fixture  # noqa: E402  (puts src/ on the path)
from chain_cost import write_tank  # noqa: E402

import sgeit  # noqa: E402
from sgeit import chaos, cli, fem, sgfem, surrogate  # noqa: E402

STAGES = ("FEM", "moment couplings", "Galerkin assembly", "solve", "save")


def precompute(
    args, traced: bool = False
) -> tuple[list[float], sgfem.SgfemSolution, int]:
    """One ``sgeit precompute`` of the parsed options; the wall time of
    every stage in seconds, the solution and, if ``traced``, the peak in
    bytes of the memory traced while it solved (else 0)."""
    mesh = sgeit.load_mesh(args.mesh)
    seeds = np.array(json.loads(pathlib.Path(args.seeds).read_text()))
    partition = sgeit.assign_pixels(mesh, seeds)
    n_pix, n_el = partition.n_pixels, mesh.n_electrodes
    bounds = fem.ParameterBounds(
        args.sigma0, np.full(n_pix, args.dsigma),
        np.full(n_el, args.zeta_min), np.full(n_el, args.zeta_max),
    )
    times = [time.perf_counter()]
    sm = fem.assemble_spatial(mesh, partition, bounds)
    times.append(time.perf_counter())
    index_set = chaos.iso_td(n_pix + n_el, args.order)
    mm = chaos.moment_matrices(index_set)
    times.append(time.perf_counter())
    system = sgfem.assemble_system(sm, mm)
    times.append(time.perf_counter())
    if traced:
        tracemalloc.start()
    sol = sgfem.solve(system, sgfem.standard_patterns(n_el), tol=args.tol)
    peak = tracemalloc.get_traced_memory()[1]  # 0 unless traced
    tracemalloc.stop()
    times.append(time.perf_counter())
    surrogate.from_solution(sol, index_set, bounds, seeds).save(args.out)
    times.append(time.perf_counter())
    return list(np.diff(times)), sol, peak


def summary(runs: list[float]) -> str:
    text = f"{1e3 * statistics.median(runs):8.2f} ms"
    if len(runs) > 1:
        q1, _, q3 = statistics.quantiles(runs, n=4)
        text += f" (quartiles {1e3 * q1:.2f}-{1e3 * q3:.2f})"
    return text


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--paper", action="store_true", help="the paper fixture")
    parser.add_argument("--runs", type=int, default=None)
    options = parser.parse_args()
    runs = options.runs or (5 if options.paper else 20)
    if runs < 1:
        parser.error("need at least one run")
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        mesh_path, seeds_path = (write_fixture if options.paper else write_tank)(directory)
        args = cli.build_parser().parse_args([
            "precompute", "--mesh", str(mesh_path), "--seeds", str(seeds_path),
            "--out", str(directory / "surrogate.bin"),
        ])
        peak = precompute(args, traced=True)[2]
        stages = []
        for _ in range(runs):
            times, sol, _ = precompute(args)
            stages.append(times)
    stages = np.array(stages)
    name = "paper" if options.paper else "tank"
    print(f"{name} precompute at the defaults of sgeit precompute; median of "
          f"{runs} runs after one warm-up, one BLAS thread")
    for stage, column in zip(STAGES, stages.T):
        text = f"{stage + ':':19s}{summary(list(column))}"
        if stage == "solve":
            text += (f", {sol.iterations} iterations, max relative residual "
                     f"{sol.residuals.max():.4e}, traced peak {peak / 2**20:.2f} MiB")
        print(text)
    print(f"{'total:':19s}{summary(list(stages.sum(axis=1)))}")


if __name__ == "__main__":
    main()
