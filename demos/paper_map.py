"""Check the MAP search from the cube centre on the paper-scale posterior.

Builds the ``paper`` fixture of ROADMAP.md with ``paper_scale.py`` (its
surrogate by ``sgeit precompute`` at the defaults, in a fresh interpreter)
and simulates data on the same mesh: pixel 3 at 0.25 mS, every other pixel
at 1.1 mS, contacts at 300 mS/cm, 1 % noise, seed 7.  For the 1 % and 5 %
noise rules at ``corr_length`` 0.5 it runs ``inversion.map_estimate`` from
the centre and from four starts drawn by ``default_rng(0).uniform(-0.5,
0.5)`` (at most 2,000 residual evaluations each), and prints F and the
residual evaluations of each.  The check passes when the centre's F is
within 1e-6 relative of the best start's at both rules; the exit code is 0
only then.  Takes a few seconds.

    python demos/paper_map.py
"""

import os

# before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pathlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from paper_scale import paper_seeds, precompute  # noqa: E402  (puts src/ on the path)

import sgeit  # noqa: E402
from sgeit import det_cem, inversion, sgfem, surrogate  # noqa: E402

REL_GAP = 1e-6


def paper_data(mesh_path: pathlib.Path) -> det_cem.MeasurementSet:
    """Same-mesh data of ROADMAP's ``paper`` posterior."""
    mesh, seeds = sgeit.load_mesh(mesh_path), paper_seeds()
    sigma = np.full(len(seeds), 1.1)
    sigma[3] = 0.25
    return det_cem.simulate_measurements(
        mesh,
        sgeit.assign_pixels(mesh, seeds),
        det_cem.DeterministicSample(sigma, np.full(mesh.n_electrodes, 300.0)),
        sgfem.standard_patterns(mesh.n_electrodes),
        noise_pct=1.0,
        seed=7,
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        if precompute(directory, 10, 32, []) != 0:
            return 1
        surr = surrogate.load(directory / "paper.bin")
        data = paper_data(directory / "mesh.json")
    ok = True
    for noise_pct in (1.0, 5.0):
        post = inversion.build_posterior(surr, data, noise_pct=noise_pct, corr_length=0.5)
        centre = inversion.map_estimate(post)
        starts = np.random.default_rng(0).uniform(-0.5, 0.5, (4, post.n_params))
        restarts = [inversion.map_estimate(post, start=s, max_iter=2000) for s in starts]
        best = min(r.objective for r in restarts)
        gap = (centre.objective - best) / best
        ok &= gap <= REL_GAP
        print(f"{noise_pct:g} % rule: centre F = {centre.objective:.7g} after "
              f"{centre.iterations} evaluations; starts F = "
              + ", ".join(f"{r.objective:.7g} ({r.iterations})" for r in restarts)
              + f"; relative gap {gap:+.1e}")
    print("centre within {:g} of the best start: {}".format(REL_GAP, "yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
