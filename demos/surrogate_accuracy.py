"""How fast the polynomial surrogate closes in on the full forward model.

Builds voltage surrogates of chaos degree 0, 1 and 2 for a 12-pixel disk
with 8 electrodes, then compares each against direct forward solves at 20
quasi-random parameter points.  Degree 0 is just the forward solve at the
parameter midpoint, so its error shows how much the parameters matter;
each added degree should shrink the error by roughly an order of
magnitude.  Runs in about ten seconds.
"""

import time

import numpy as np
from scipy.stats import qmc

import sgeit
from sgeit import chaos, det_cem, fem, sgfem, surrogate

n_pixels, n_electrodes = 12, 8

mesh = sgeit.make_disk_fixture(10, 32, n_electrodes, 0.5)
inner = 2.0 * np.pi * (np.arange(4) + 0.5) / 4
outer = 2.0 * np.pi * np.arange(8) / 8
seeds = np.vstack([
    0.35 * np.column_stack([np.cos(inner), np.sin(inner)]),
    0.75 * np.column_stack([np.cos(outer), np.sin(outer)]),
])
part = sgeit.assign_pixels(mesh, seeds)
print(f"mesh: {mesh.n_nodes} nodes, {mesh.triangles.shape[0]} triangles, "
      f"{part.n_pixels} pixels")

# conductivity 1.1 +- 0.6 mS per pixel, contact conductance 100..1000 mS/cm
bounds = fem.ParameterBounds(
    1.1, np.full(n_pixels, 0.6),
    np.full(n_electrodes, 100.0), np.full(n_electrodes, 1000.0),
)
patterns = sgfem.standard_patterns(n_electrodes)
spatial = fem.assemble_spatial(mesh, part, bounds)

surrogates = {}
for degree in (0, 1, 2):
    t0 = time.perf_counter()
    index_set = chaos.iso_td(n_pixels + n_electrodes, degree)
    system = sgfem.assemble_system(spatial, chaos.moment_matrices(index_set))
    solution = sgfem.solve(system, patterns)
    surrogates[degree] = surrogate.from_solution(solution, index_set, bounds, seeds)
    print(f"degree {degree}: {len(index_set):4d} basis terms, "
          f"system order {system.order:6d}, "
          f"built in {time.perf_counter() - t0:5.2f} s")

points = 2.0 * qmc.Halton(d=n_pixels + n_electrodes, seed=99).random(20) - 1.0
errors = {degree: [] for degree in surrogates}
for y in points:
    reference = det_cem.solve_deterministic(
        mesh, part, det_cem.params_from_y(y, bounds), patterns
    ).voltages.ravel()
    for degree, surr in surrogates.items():
        err = np.linalg.norm(surr.eval_stacked(y) - reference)
        errors[degree].append(err / np.linalg.norm(reference))

print("\nrelative voltage error over 20 random parameter draws")
print("degree      mean       worst")
for degree, errs in errors.items():
    print(f"     {degree}   {np.mean(errs):8.2e}   {np.max(errs):8.2e}")
