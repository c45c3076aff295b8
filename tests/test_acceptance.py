"""End-to-end acceptance checks for the solver and inversion chain.

Heavier than the unit tests: a few module-scoped builds are shared between
checks and every test asserts a wall-clock budget where the workflow has
one.  Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per check.
"""

import json
import math
import time
import warnings

import numpy as np
import numpy.polynomial.legendre as npleg
import numpy.testing as npt
import pytest
from scipy import stats
from scipy.stats import qmc

import sgeit
from conftest import metropolis, moment_matrix, two_ring_layout
from sgeit import chaos, cli, det_cem, fem, inversion, sgfem, surrogate

L, M = 12, 8


def _build(mesh, part, seeds, degree, bounds):
    spatial = fem.assemble_spatial(mesh, part, bounds)
    index_set = chaos.iso_td(L + M, degree)
    system = sgfem.assemble_system(spatial, chaos.moment_matrices(index_set))
    solution = sgfem.solve(system, sgfem.standard_patterns(M))
    surr = surrogate.from_solution(solution, index_set, bounds, seeds)
    return system, solution, surr


@pytest.fixture(scope="module")
def recon_grid():
    mesh = sgeit.make_disk_fixture(10, 32, 8, 0.5)
    seeds = two_ring_layout()
    return mesh, seeds, sgeit.assign_pixels(mesh, seeds)


@pytest.fixture(scope="module")
def order_sweep(recon_grid):
    """Surrogates of chaos degree 0, 1, 2 on one moderate fixture."""
    mesh, seeds, part = recon_grid
    bounds = fem.ParameterBounds(
        1.1, np.full(L, 0.6), np.full(M, 100.0), np.full(M, 1000.0)
    )
    out = {
        "bounds": bounds,
        "mesh": mesh,
        "part": part,
    }
    t0 = time.perf_counter()
    for q in (0, 1, 2):
        out[q] = _build(mesh, part, seeds, q, bounds)
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def default_model(recon_grid):
    """Degree-2 surrogate at the precompute defaults (wide contact bounds)."""
    mesh, seeds, part = recon_grid
    t0 = time.perf_counter()
    bounds = fem.ParameterBounds(
        1.1, np.full(L, 0.9), np.full(M, 10.0), np.full(M, 1000.0)
    )
    system, solution, surr = _build(mesh, part, seeds, 2, bounds)
    return {
        "mesh": mesh,
        "seeds": seeds,
        "part": part,
        "system": system,
        "solution": solution,
        "surrogate": surr,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def synthetic_run(default_model):
    """Reconstruct one low-conductivity inclusion from finer-mesh data."""
    seeds = default_model["seeds"]
    true_pixel = 4
    sigma_true = np.full(L, 1.1)
    sigma_true[true_pixel] = 0.25
    sample = det_cem.DeterministicSample(sigma_true, np.full(M, 300.0))
    t0 = time.perf_counter()
    fine = sgeit.make_disk_fixture(20, 64, 8, 0.5)
    data = det_cem.simulate_measurements(
        fine,
        sgeit.assign_pixels(fine, seeds),
        sample,
        sgfem.standard_patterns(M),
        noise_pct=0.1,
        seed=7,
    )
    posterior = inversion.build_posterior(
        default_model["surrogate"], data, corr_length=0.5
    )
    with warnings.catch_warnings():
        # the tight default likelihood yields a low acceptance rate by
        # design; it lands in the diagnostics either way
        warnings.simplefilter("ignore", UserWarning)
        est = inversion.reconstruct(posterior, inversion.McmcConfig())
    elapsed = time.perf_counter() - t0 + default_model["elapsed"]
    return {
        "estimates": est,
        "elapsed": elapsed,
        "true_pixel": true_pixel,
        "seeds": seeds,
    }


def test_legendre_orthonormality_and_couplings():
    t0 = time.perf_counter()
    nodes, wts = npleg.leggauss(32)
    basis = chaos.ChaosBasis(chaos.iso_td(1, 10))
    vals = np.array([basis.eval(np.array([x])) for x in nodes])
    # the uniform probability weight is half the Gauss weight
    gram = vals.T @ (vals * (0.5 * wts)[:, None])
    npt.assert_allclose(gram, np.eye(11), atol=1e-12)

    idx = chaos.iso_td(5, 3)
    mm = chaos.moment_matrices(idx)
    npt.assert_array_equal(moment_matrix(mm, 0).toarray(), np.eye(len(idx)))

    # tensor-product Gauss oracle, exact for the degree 3+3+1 integrands
    n1, w1 = npleg.leggauss(4)
    uni = npleg.legvander(n1, 3) * np.sqrt(2.0 * np.arange(4) + 1.0)
    pos = np.stack(np.meshgrid(*([np.arange(4)] * 5), indexing="ij"), -1)
    pos = pos.reshape(-1, 5)
    psi = np.ones((pos.shape[0], len(idx)))
    for d in range(5):
        psi *= uni[pos[:, d]][:, idx.indices[:, d]]
    w = np.prod((0.5 * w1)[pos], axis=1)
    for k in range(6):
        yk = np.ones(pos.shape[0]) if k == 0 else n1[pos[:, k - 1]]
        oracle = psi.T @ (psi * (w * yk)[:, None])
        npt.assert_allclose(moment_matrix(mm, k).toarray(), oracle, atol=1e-12)

    # coupling k pairs exactly the indices that differ by 1 in dimension k
    diff = np.abs(idx.indices[:, None, :] - idx.indices[None, :, :])
    for k in range(1, 6):
        rest = np.delete(diff, k - 1, axis=2).sum(axis=2)
        expected = (diff[:, :, k - 1] == 1) & (rest == 0)
        assert ((moment_matrix(mm, k).toarray() != 0.0) == expected).all()
    assert time.perf_counter() - t0 < 1.0


def test_total_degree_cardinality():
    t0 = time.perf_counter()
    assert len(chaos.iso_td(92, 2)) == 4371
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = int(rng.integers(1, 51))
        q = int(rng.integers(0, 5))
        assert len(chaos.iso_td(p, q)) == math.comb(p + q, q)
    assert time.perf_counter() - t0 < 1.0


def test_degree_zero_collapse_to_deterministic():
    t0 = time.perf_counter()
    mesh = sgeit.make_disk_fixture(16, 32, 8, 0.5)
    assert 400 <= mesh.n_nodes <= 600
    seeds = two_ring_layout()
    part = sgeit.assign_pixels(mesh, seeds)
    zeta = np.full(M, 400.0)
    bounds = fem.ParameterBounds(1.1, np.full(L, 0.6), zeta, zeta)
    spatial = fem.assemble_spatial(mesh, part, bounds)
    idx0 = chaos.iso_td(L + M, 0)
    system = sgfem.assemble_system(spatial, chaos.moment_matrices(idx0))
    pats = sgfem.standard_patterns(M)
    sol = sgfem.solve(system, pats)
    det = det_cem.solve_deterministic(
        mesh, part, det_cem.DeterministicSample(np.full(L, 1.1), zeta), pats
    )
    dv = np.linalg.norm(sgfem.expand_mean_free(sol.beta[:, :, 0]) - det.voltages)
    assert dv <= 1e-8 * np.linalg.norm(det.voltages)
    assert time.perf_counter() - t0 < 5.0


def test_system_structure_and_reciprocity(order_sweep):
    t0 = time.perf_counter()
    system, solution, surr = order_sweep[2]
    skew = system.K - system.K.T
    assert skew.nnz == 0 or np.abs(skew.data).max() == 0.0
    for q in (0, 1, 2):
        assert order_sweep[q][1].residuals.max() <= 1e-10
    U = sgfem.expand_mean_free(solution.beta[:, :, 0])
    overlaps = solution.patterns @ U.T
    npt.assert_allclose(overlaps, overlaps.T, rtol=1e-9, atol=1e-12)
    rng = np.random.default_rng(3)
    for y in rng.uniform(-1.0, 1.0, size=(5, L + M)):
        stacked = surr.eval_stacked(y).reshape(M - 1, M)
        assert np.abs(stacked.sum(axis=1)).max() <= 1e-12 * np.abs(stacked).max()
    assert time.perf_counter() - t0 + order_sweep["elapsed"] < 30.0


def test_surrogate_convergence_with_degree(order_sweep):
    t0 = time.perf_counter()
    mesh, part = order_sweep["mesh"], order_sweep["part"]
    pats = sgfem.standard_patterns(M)
    points = 2.0 * qmc.Halton(d=L + M, scramble=True, seed=1234).random(20) - 1.0
    errs = np.empty((3, points.shape[0]))
    for j, y in enumerate(points):
        det = det_cem.solve_deterministic(
            mesh, part, det_cem.params_from_y(y, order_sweep["bounds"]), pats
        )
        ref = det.voltages.ravel()
        for q in (0, 1, 2):
            approx = order_sweep[q][2].eval_stacked(y)
            errs[q, j] = np.linalg.norm(approx - ref) / np.linalg.norm(ref)
    means = errs.mean(axis=1)
    assert means[0] >= means[1] >= means[2]
    assert means[2] <= 0.05
    assert time.perf_counter() - t0 + order_sweep["elapsed"] < 300.0


def test_surrogate_jacobian_against_differences(default_model):
    t0 = time.perf_counter()
    surr = default_model["surrogate"]
    h = 1e-6
    rng = np.random.default_rng(5)
    for y in rng.uniform(-0.5, 0.5, size=(10, L + M)):
        jac = surr.jacobian(y)
        fd = np.empty_like(jac)
        for d in range(L + M):
            step = np.zeros(L + M)
            step[d] = h
            fd[:, d] = (
                surr.eval_stacked(y + step) - surr.eval_stacked(y - step)
            ) / (2.0 * h)
        assert np.linalg.norm(fd - jac) <= 1e-6 * np.linalg.norm(jac)
    assert time.perf_counter() - t0 + default_model["elapsed"] < 10.0


def test_mcmc_sampler_and_posterior_acceptance(default_model):
    t0 = time.perf_counter()

    def logd(y):
        return -0.5 * y[0] * y[0] if abs(y[0]) <= 1.0 else -np.inf

    cfg = inversion.McmcConfig(100_000, 5_000, 10, proposal_std=0.8, seed=0)
    chain = metropolis(logd, np.zeros(1), cfg)
    edges = np.linspace(-1.0, 1.0, 21)
    counts, _ = np.histogram(chain.samples[:, 0], bins=edges)
    probs = np.diff(stats.truncnorm.cdf(edges, -1.0, 1.0))
    assert stats.chisquare(counts, f_exp=counts.sum() * probs).pvalue > 0.01

    # acceptance rate at the shipped chain settings on a real posterior
    mesh, part = default_model["mesh"], default_model["part"]
    sigma_true = np.full(L, 1.1)
    sigma_true[4] = 0.25
    data = det_cem.simulate_measurements(
        mesh,
        part,
        det_cem.DeterministicSample(sigma_true, np.full(M, 300.0)),
        sgfem.standard_patterns(M),
        noise_pct=0.1,
        seed=7,
    )
    posterior = inversion.build_posterior(
        default_model["surrogate"], data, noise_pct=5.0, corr_length=0.5
    )
    start = inversion.map_estimate(posterior).y
    chain = inversion.mcmc_sample(posterior, inversion.McmcConfig(), start=start)
    assert 0.1 <= chain.acceptance <= 0.6
    assert time.perf_counter() - t0 + default_model["elapsed"] < 120.0


def test_inclusion_reconstruction(synthetic_run):
    est = synthetic_run["estimates"]
    seeds = synthetic_run["seeds"]
    lowest = int(np.argmin(est.sigma_map))
    gaps = np.linalg.norm(seeds[:, None, :] - seeds[None, :, :], axis=2)
    np.fill_diagonal(gaps, np.inf)
    pixel_diameter = gaps.min(axis=1).max()
    truth = seeds[synthetic_run["true_pixel"]]
    assert np.linalg.norm(seeds[lowest] - truth) <= pixel_diameter
    # sampling spread grows away from the electrodes: inner ring vs outer
    assert est.sigma_sd[:4].mean() > est.sigma_sd[4:].mean()
    assert synthetic_run["elapsed"] <= 900.0


def test_estimates_within_model_bounds(synthetic_run):
    est = synthetic_run["estimates"]
    for field in (est.sigma_map, est.sigma_cm):
        assert (field >= 0.2).all() and (field <= 2.0).all()
    for field in (est.zeta_map, est.zeta_cm):
        assert (field >= 10.0).all() and (field <= 1000.0).all()
    assert (est.sigma_sd <= 0.9).all()
    assert (est.zeta_sd <= 495.0).all()


def test_pipeline_is_deterministic(tmp_path):
    mesh_path = tmp_path / "mesh.json"
    seeds_path = tmp_path / "seeds.json"
    phantom_path = tmp_path / "phantom.json"
    sgeit.save_mesh(sgeit.make_disk_fixture(3, 12, 4, 0.5), mesh_path)
    seeds_path.write_text(json.dumps([[0.0, 0.0], [0.55, 0.0], [-0.55, 0.0]]))
    phantom_path.write_text(
        json.dumps({"sigma": [1.1, 0.7, 1.3], "zeta": [400.0] * 4})
    )

    def run(argv):
        assert cli.main([str(a) for a in argv]) == 0

    replicates = []
    for rep in (1, 2):
        surr = tmp_path / f"surr{rep}.bin"
        data = tmp_path / f"data{rep}.json"
        est = tmp_path / f"est{rep}.json"
        svg = tmp_path / f"map{rep}.svg"
        run(["precompute", "--mesh", mesh_path, "--seeds", seeds_path,
             "--order", 1, "--out", surr])
        run(["simulate", "--mesh", mesh_path, "--seeds", seeds_path,
             "--phantom", phantom_path, "--noise-pct", 1.0, "--seed", 3,
             "--out", data])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            run(["reconstruct", "--surrogate", surr, "--data", data,
                 "--samples", 2000, "--burn-in", 500, "--thin", 2,
                 "--seed", 5, "--out", est])
        run(["render", "--estimates", est, "--mesh", mesh_path,
             "--seeds", seeds_path, "--field", "sigma_map", "--out", svg])
        replicates.append([p.read_bytes() for p in (surr, data, est, svg)])
    assert replicates[0] == replicates[1]
