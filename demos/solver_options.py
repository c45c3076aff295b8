"""Block conjugate gradients versus sparse LU on the coupled Galerkin system.

The degree-2 system for a 12-pixel, 8-electrode disk has order 76k with
a couple hundred nonzeros per row.  The default solver runs conjugate
gradients on all seven current patterns at once, preconditioned by the
mean matrix K_0 (x) I: it factors only the 328 x 328 electrode-model
matrix at the parameter mean, never K itself, and its iteration count
does not grow with the mesh.  Sparse LU of all of K is the reference it
is checked against.  This prints a small comparison table.  Runs in under
a minute.
"""

import time

import numpy as np

import sgeit
from sgeit import chaos, fem, sgfem

n_pixels, n_electrodes = 12, 8

mesh = sgeit.make_disk_fixture(10, 32, n_electrodes, 0.5)
inner = 2.0 * np.pi * (np.arange(4) + 0.5) / 4
outer = 2.0 * np.pi * np.arange(8) / 8
seeds = np.vstack([
    0.35 * np.column_stack([np.cos(inner), np.sin(inner)]),
    0.75 * np.column_stack([np.cos(outer), np.sin(outer)]),
])
part = sgeit.assign_pixels(mesh, seeds)

spatial = fem.assemble_spatial(mesh, part, 1.1, np.full(n_pixels, 0.6))
index_set = chaos.iso_td(n_pixels + n_electrodes, 2)
system = sgfem.assemble_system(
    spatial,
    chaos.moment_matrices(index_set),
    np.full(n_electrodes, 100.0),
    np.full(n_electrodes, 1000.0),
)
patterns = sgfem.standard_patterns(n_electrodes)
print(f"system order {system.order}, {system.K.nnz} nonzeros")

print(f"\n{'solver':8s} {'time':>8s} {'iterations':>11s} {'max residual':>14s}")
reference = None
for method in ("direct", "pcg"):
    t0 = time.perf_counter()
    solution = sgfem.solve(system, patterns, method=method, tol=1e-10)
    dt = time.perf_counter() - t0
    print(
        f"{method:8s} {dt:7.2f}s {solution.iterations:11d} "
        f"{solution.residuals.max():14.2e}"
    )
    if reference is None:
        reference = solution.mean_voltages()
    else:
        gap = np.abs(solution.mean_voltages() - reference).max()
        assert gap <= 1e-8 * np.abs(reference).max()
