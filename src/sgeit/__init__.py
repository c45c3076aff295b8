"""Stochastic Galerkin finite elements for electrical impedance tomography.

Forward surrogates for the complete electrode model with uncertain
pixelwise conductivity and uncertain contact conductances, plus Bayesian
reconstruction (MAP, conditional mean and spread) on top of them.
"""

from .chaos import ChaosBasis, MultiIndexSet, iso_td, moment_matrices
from .det_cem import (
    DeterministicSample,
    MeasurementSet,
    params_from_y,
    simulate_measurements,
    solve_deterministic,
)
from .fem import ParameterBounds, SpatialMatrices, assemble_spatial
from .geometry import (
    ElectrodeGeometry,
    Mesh,
    PixelPartition,
    assign_pixels,
    electrode_geometry,
    load_mesh,
    make_disk_fixture,
    save_mesh,
)
from .inversion import (
    Estimates,
    McmcConfig,
    Posterior,
    build_posterior,
    build_prior_cov,
    map_estimate,
    mcmc_sample,
    reconstruct,
)
from .sgfem import SgfemSystem, assemble_system, solve, standard_patterns
from .surrogate import SgfemSurrogate, from_solution, load

__version__ = "0.1.0"
