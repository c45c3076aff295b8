"""Synthetic tank reconstruction, start to finish.

A low-conductivity inclusion (0.25 mS against a 1.1 mS background) sits on
the outer pixel ring of a circular tank.  Measurements are simulated on a
twice-finer mesh with 0.1 percent noise so the inverse crime stays mild,
then inverted through the degree-2 surrogate: MAP estimate first, then a
Metropolis chain scaled by the Laplace covariance at the MAP for the
conditional mean and spread.  Its proposal scale adapts toward an
acceptance rate of 0.25 during burn-in; the rate and the adapted scale are
printed below.  Writes three SVG maps next to this script.  Takes a few
seconds.
"""

import pathlib
import time

import numpy as np

import sgeit
from sgeit import chaos, cli, det_cem, fem, inversion, sgfem, surrogate

n_pixels, n_electrodes = 12, 8
true_pixel = 4

inner = 2.0 * np.pi * (np.arange(4) + 0.5) / 4
outer = 2.0 * np.pi * np.arange(8) / 8
seeds = np.vstack([
    0.35 * np.column_stack([np.cos(inner), np.sin(inner)]),
    0.75 * np.column_stack([np.cos(outer), np.sin(outer)]),
])

# forward surrogate on the coarse reconstruction mesh, wide contact bounds
mesh = sgeit.make_disk_fixture(10, 32, n_electrodes, 0.5)
part = sgeit.assign_pixels(mesh, seeds)
bounds = fem.ParameterBounds(
    1.1, np.full(n_pixels, 0.9),
    np.full(n_electrodes, 10.0), np.full(n_electrodes, 1000.0),
)
patterns = sgfem.standard_patterns(n_electrodes)

t0 = time.perf_counter()
spatial = fem.assemble_spatial(mesh, part, bounds)
index_set = chaos.iso_td(n_pixels + n_electrodes, 2)
system = sgfem.assemble_system(spatial, chaos.moment_matrices(index_set))
solution = sgfem.solve(system, patterns)
surr = surrogate.from_solution(solution, index_set, bounds, seeds)
print(f"surrogate: order {system.order} system, "
      f"{time.perf_counter() - t0:.1f} s, "
      f"max residual {solution.residuals.max():.1e}")

# synthetic data from a finer mesh so the discretizations differ
fine = sgeit.make_disk_fixture(20, 64, n_electrodes, 0.5)
sigma_true = np.full(n_pixels, 1.1)
sigma_true[true_pixel] = 0.25
data = det_cem.simulate_measurements(
    fine,
    sgeit.assign_pixels(fine, seeds),
    det_cem.DeterministicSample(sigma_true, np.full(n_electrodes, 300.0)),
    patterns,
    noise_pct=0.1,
    seed=7,
)
print(f"data: {data.voltages.shape[0]} patterns x "
      f"{data.voltages.shape[1]} electrodes, noise std {data.noise_std:.2e} mV")

posterior = inversion.build_posterior(surr, data, corr_length=0.5)
t0 = time.perf_counter()
estimates = inversion.reconstruct(posterior, inversion.McmcConfig())
print(f"reconstruction: {time.perf_counter() - t0:.1f} s, "
      f"acceptance {estimates.diagnostics['acceptance']:.3f}, "
      f"proposals inside the cube {estimates.diagnostics['in_support']:.3f}, "
      f"proposal scale {estimates.diagnostics['proposal_scale']:.3g}")

print("\npixel   true sigma   MAP     CM      SD")
for l in range(n_pixels):
    print(f"  {l:3d}      {sigma_true[l]:5.2f}   {estimates.sigma_map[l]:6.3f} "
          f"{estimates.sigma_cm[l]:6.3f}  {estimates.sigma_sd[l]:6.3f}")
found = int(np.argmin(estimates.sigma_map))
print(f"\nlowest MAP conductivity at pixel {found} "
      f"(inclusion placed at pixel {true_pixel})")

here = pathlib.Path(__file__).parent
for field, values in [
    ("sigma_map", estimates.sigma_map),
    ("sigma_cm", estimates.sigma_cm),
    ("sigma_sd", estimates.sigma_sd),
]:
    path = here / f"tank_{field}.svg"
    path.write_text(cli.render_field_svg(mesh, part, values, field))
    print(f"wrote {path}")
