import dataclasses
import json
import math
import multiprocessing
import os
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from conftest import (
    build_tiny_surrogate, json_dump_text, metropolis, start_scaled, strict_json
)
from sgeit import chaos, det_cem, inversion, sgfem


@pytest.fixture(scope="module")
def tiny_posterior(tiny_surrogate, tiny_measurements):
    return inversion.build_posterior(
        tiny_surrogate, tiny_measurements, noise_pct=5.0, corr_length=0.5
    )


def generating_point():
    # tiny_measurements uses sigma [1.1, 0.7, 1.3], zeta 400 under
    # sigma0 1.1, magnitude 0.6, contacts [100, 1000]
    y_sigma = (np.array([1.1, 0.7, 1.3]) - 1.1) / 0.6
    y_zeta = np.full(4, (400.0 - 550.0) / 450.0)
    return np.concatenate([y_sigma, y_zeta])


def test_prior_covariance_frozen_entries():
    seeds = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    prior = inversion.build_prior_cov(seeds, corr_length=1.0, eta=2.0)
    npt.assert_allclose(np.diag(prior.cov), 4.0)
    assert prior.cov[0, 1] == pytest.approx(4.0 * math.exp(-0.5))
    assert prior.cov[0, 2] == pytest.approx(4.0 * math.exp(-1.0))
    assert prior.cov[1, 2] == pytest.approx(4.0 * math.exp(-0.5))
    # the inverse of the Cholesky factor: lower triangular, W C W^T = I
    assert not np.triu(prior.whiten, 1).any()
    whitened = prior.whiten @ prior.cov @ prior.whiten.T
    npt.assert_allclose(whitened, np.eye(3), atol=1e-13)


def test_prior_covariance_rejects():
    seeds = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="must be positive"):
        inversion.build_prior_cov(seeds, corr_length=0.0, eta=1.0)
    with pytest.raises(ValueError, match="must be positive"):
        inversion.build_prior_cov(seeds, corr_length=1.0, eta=-1.0)
    with pytest.raises(ValueError, match="seeds must be finite"):
        inversion.build_prior_cov(
            np.array([[np.nan, 0.0], [1.0, 0.0]]), corr_length=1.0, eta=1.0
        )
    # duplicate seeds give a singular covariance; the jitter fallback
    # keeps it factorizable instead of refusing outright
    dup = np.array([[0.2, 0.1], [0.2, 0.1]])
    prior = inversion.build_prior_cov(dup, corr_length=1.0, eta=1.0)
    assert np.isfinite(prior.whiten).all()
    chol = np.linalg.inv(prior.whiten)
    npt.assert_allclose(chol @ chol.T, prior.cov, atol=1e-12)
    # the jitter fired, and the jittered covariance [[1, 1], [1, 1]] +
    # 1e-10 I has the eigenvalues 2 + 1e-10 and 1e-10
    assert prior.jitter
    assert prior.condition == pytest.approx(2e10, rel=1e-4)


def test_prior_of_the_tank_seeds_is_well_conditioned_at_half_the_radius(disk_seeds):
    # at corr_length 0.5 the 12 two-ring pixels stay distinct: measured
    # condition number 1.5e2, no jitter; the CLI's default of 5 gives 2.0e10
    prior = inversion.build_prior_cov(disk_seeds, corr_length=0.5, eta=1.0)
    assert not prior.jitter
    assert 1.0e2 < prior.condition < 2.0e2
    assert prior.condition == pytest.approx(np.linalg.cond(prior.cov), rel=1e-12)


def test_objective_against_explicit_covariance(tiny_posterior):
    # second route to F: inverse covariance instead of whitening
    rng = np.random.default_rng(10)
    cov_inv = np.linalg.inv(tiny_posterior.prior.cov)
    for _ in range(5):
        y = rng.uniform(-1.0, 1.0, tiny_posterior.n_params)
        misfit = tiny_posterior.data - tiny_posterior.surrogate.eval_stacked(y)
        ys = y[: tiny_posterior.n_pixels]
        expected = misfit @ misfit / tiny_posterior.noise_std**2 + ys @ cov_inv @ ys
        assert -2 * tiny_posterior.log_density(y) == pytest.approx(expected, rel=1e-12)
        r = tiny_posterior.residual(y)
        assert -2 * tiny_posterior.log_density(y) == pytest.approx(
            float(r @ r), rel=1e-14
        )
        assert tiny_posterior.log_density(y) == pytest.approx(
            -0.5 * expected, rel=1e-12
        )


def test_log_density_matches_the_formula(tiny_posterior):
    post = tiny_posterior
    rng = np.random.default_rng(12)
    for _ in range(20):
        y = rng.uniform(-1.0, 1.0, post.n_params)
        misfit = (post.data - post.surrogate.eval_stacked(y)) / post.noise_std
        w = post.prior.whiten @ y[: post.n_pixels]
        expected = -0.5 * (misfit @ misfit + w @ w)
        assert post.log_density(y) == pytest.approx(expected, rel=1e-13)
    # the surrogate's own test of y is skipped here, so the shape is checked
    for bad in (np.zeros(post.n_params + 2), np.zeros(post.n_params - 1)):
        with pytest.raises(ValueError, match="expected 7 parameters"):
            post.log_density(bad)


def test_objective_sentinels_outside_cube(tiny_posterior):
    y = np.zeros(tiny_posterior.n_params)
    y[2] = 1.0 + 1e-9
    assert -2 * tiny_posterior.log_density(y) == math.inf
    assert tiny_posterior.log_density(y) == -math.inf
    y[2] = 1.0
    assert math.isfinite(-2 * tiny_posterior.log_density(y))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_log_density_is_minus_inf_at_a_non_finite_point(tiny_posterior, bad):
    y = np.zeros(tiny_posterior.n_params)
    y[5] = bad
    assert tiny_posterior.log_density(y) == -math.inf


@pytest.mark.parametrize("position", [0, 3, 6])
def test_log_density_is_minus_inf_for_nan_in_any_position(tiny_posterior, position):
    # first, middle and last entry: Python's max and min skip a NaN that
    # is not first
    y = np.full(tiny_posterior.n_params, 0.5)
    y[position] = np.nan
    assert tiny_posterior.log_density(y) == -math.inf
    assert -2 * tiny_posterior.log_density(y) == math.inf


def test_residual_jacobian_matches_fd(tiny_posterior):
    rng = np.random.default_rng(11)
    y = rng.uniform(-0.5, 0.5, tiny_posterior.n_params)
    jac = tiny_posterior.residual_jacobian(y)
    h = 1e-6
    for k in range(tiny_posterior.n_params):
        e = np.zeros_like(y)
        e[k] = h
        fd = (tiny_posterior.residual(y + e) - tiny_posterior.residual(y - e)) / (
            2.0 * h
        )
        npt.assert_allclose(jac[:, k], fd, rtol=2e-5, atol=1e-9)


@pytest.fixture(scope="module")
def tiny_posteriors_by_degree(tiny, tiny_measurements):
    """Posteriors on tiny surrogates of chaos degree 0 to 3."""
    return {
        degree: inversion.build_posterior(
            build_tiny_surrogate(tiny, degree),
            tiny_measurements,
            noise_pct=5.0,
            corr_length=0.5,
        )
        for degree in range(4)
    }


def explicit_residual(post, y):
    """[(d - U(y)) / xi, W y_sigma], with U(y) from the Legendre
    coefficients and the chaos basis rather than the power form."""
    psi = chaos.ChaosBasis(post.surrogate.index_set).eval(y)
    beta = post.surrogate.beta
    volts = np.concatenate(
        [sgfem.expand_mean_free(beta[p] @ psi) for p in range(len(beta))]
    )
    misfit = (post.data - volts) / post.noise_std
    return np.concatenate([misfit, post.prior.whiten @ y[: post.n_pixels]])


def explicit_log_density(post, y):
    """-F(y)/2 from :func:`explicit_residual`, -inf outside the cube."""
    if not np.abs(y).max() <= 1.0:
        return -math.inf
    r = explicit_residual(post, y)
    return -0.5 * float(r @ r)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_whitened_form_matches_the_explicit_formula(tiny_posteriors_by_degree, degree):
    post = tiny_posteriors_by_degree[degree]
    rng = np.random.default_rng(70 + degree)
    corners = 2.0 * rng.integers(0, 2, (4, post.n_params)) - 1.0
    for y in np.vstack([rng.uniform(-1.0, 1.0, (8, post.n_params)), corners]):
        want = explicit_residual(post, y)
        npt.assert_allclose(
            post.residual(y), want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
        )
        assert post.log_density(y) == pytest.approx(
            explicit_log_density(post, y), rel=1e-12
        )
        assert -2 * post.log_density(y) == pytest.approx(float(want @ want), rel=1e-12)
    # the Jacobian against central differences of the explicit residual
    y = rng.uniform(-0.5, 0.5, post.n_params)
    jac = post.residual_jacobian(y)
    assert jac.shape == (len(post.data) + post.n_pixels, post.n_params)
    h = 1e-6
    for k in range(post.n_params):
        e = np.zeros_like(y)
        e[k] = h
        fd = (explicit_residual(post, y + e) - explicit_residual(post, y - e)) / (
            2.0 * h
        )
        npt.assert_allclose(jac[:, k], fd, rtol=1e-5, atol=1e-8 * np.abs(jac).max())


def test_posterior_rejects_non_finite_data(tiny_posterior):
    post = tiny_posterior
    for bad in (np.nan, np.inf):
        data = post.data.copy()
        data[4] = bad
        with pytest.raises(ValueError, match="non-finite value in data"):
            inversion.Posterior(post.surrogate, data, post.noise_std, post.prior)
    # the percent rule never sees NaN data when the noise is given
    ms = det_cem.MeasurementSet(
        post.surrogate.patterns, np.full((3, 4), np.nan), 0.0, 0
    )
    with pytest.raises(ValueError, match="non-finite value in data"):
        inversion.build_posterior(post.surrogate, ms, noise_std=0.1)


def test_build_posterior_wiring(tiny_surrogate, tiny_measurements):
    post = inversion.build_posterior(tiny_surrogate, tiny_measurements)
    v = tiny_measurements.voltages
    assert post.noise_std == pytest.approx(0.01 * (v.max() - v.min()))
    # the prior variance of every pixel is eta^2, eta = eta_factor * xi
    npt.assert_allclose(np.diag(post.prior.cov), (10.0 * post.noise_std) ** 2)
    post = inversion.build_posterior(
        tiny_surrogate, tiny_measurements, noise_std=0.125, eta_factor=2.0
    )
    assert post.noise_std == 0.125
    npt.assert_allclose(np.diag(post.prior.cov), 0.25**2)
    post = inversion.build_posterior(tiny_surrogate, tiny_measurements, noise_pct=5.0)
    assert post.noise_std == det_cem.noise_level(v, noise_pct=5.0)

    with pytest.raises(ValueError, match="give either noise_std or noise_pct"):
        inversion.build_posterior(
            tiny_surrogate, tiny_measurements, noise_std=0.125, noise_pct=5.0
        )
    for setting, match in (
        ({"noise_std": 0.0}, "noise level from noise_std must be positive"),
        ({"noise_pct": 0.0}, "noise level from noise_pct 0 must be positive"),
    ):
        with pytest.raises(ValueError, match=match):
            inversion.build_posterior(tiny_surrogate, tiny_measurements, **setting)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="noise_std must be positive and finite"):
            inversion.Posterior(tiny_surrogate, v, bad, post.prior)

    other = det_cem.MeasurementSet(
        tiny_measurements.patterns[:2], tiny_measurements.voltages[:2], 0.0, 0
    )
    with pytest.raises(ValueError, match="patterns of data and surrogate differ"):
        inversion.build_posterior(tiny_surrogate, other)


def test_map_beats_generating_point(tiny_posterior):
    res = inversion.map_estimate(tiny_posterior)
    assert res.converged
    assert np.abs(res.y).max() <= 1.0
    assert res.objective <= -2 * tiny_posterior.log_density(generating_point()) + 1e-8
    assert res.objective == pytest.approx(
        -2 * tiny_posterior.log_density(res.y), rel=1e-14
    )


def test_map_is_locally_and_probe_optimal(tiny_posterior):
    res = inversion.map_estimate(tiny_posterior)
    rng = np.random.default_rng(12)
    for _ in range(100):
        delta = 1e-3 * rng.standard_normal(tiny_posterior.n_params)
        y = np.clip(res.y + delta, -1.0, 1.0)
        assert res.objective <= -2 * tiny_posterior.log_density(y) + 1e-8
    probes = rng.uniform(-1.0, 1.0, (100, tiny_posterior.n_params))
    best = min(-2 * tiny_posterior.log_density(p) for p in probes)
    assert res.objective <= best


def test_map_iteration_cap_warns(tiny_posterior):
    with pytest.warns(UserWarning, match="without meeting"):
        res = inversion.map_estimate(tiny_posterior, max_iter=1)
    assert not res.converged
    assert res.iterations == 1


def test_map_accepts_start(tiny_posterior):
    res = inversion.map_estimate(tiny_posterior, start=generating_point())
    assert res.converged
    # a start outside the cube is clipped, not rejected
    res2 = inversion.map_estimate(tiny_posterior, start=np.full(7, 2.0))
    assert np.abs(res2.y).max() <= 1.0


def test_map_from_the_centre_matches_the_best_restart(tiny, tiny_surrogate):
    # F has a second, local optimum here (1.300836 against 1.293027)
    # that a search from the centre can stop at
    mesh, part, _ = tiny
    sample = det_cem.DeterministicSample(np.array([1.1, 0.7, 1.3]), np.full(4, 400.0))
    patterns = tiny_surrogate.patterns
    data = det_cem.simulate_measurements(
        mesh, part, sample, patterns, noise_pct=1.0, seed=3
    )
    post = inversion.build_posterior(
        tiny_surrogate, data, noise_pct=5.0, corr_length=0.5
    )
    starts = np.random.default_rng(0).uniform(-1.0, 1.0, (10, post.n_params))
    best = min(inversion.map_estimate(post, start=s).objective for s in starts)
    assert inversion.map_estimate(post).objective == pytest.approx(best, rel=1e-6)


def test_mcmc_reproducible_and_in_support(tiny_posterior):
    cfg = inversion.McmcConfig(n_samples=400, burn_in=200, thinning=2, seed=21)
    a = inversion.mcmc_sample(tiny_posterior, cfg)
    b = inversion.mcmc_sample(tiny_posterior, cfg)
    npt.assert_array_equal(a.samples, b.samples)
    assert a.acceptance == b.acceptance
    assert a.samples.shape == (400, 7)
    assert np.abs(a.samples).max() <= 1.0
    assert 0.0 < a.acceptance < 1.0
    c = inversion.mcmc_sample(
        tiny_posterior, inversion.McmcConfig(400, 200, 2, seed=22)
    )
    assert np.abs(a.samples - c.samples).max() > 0.0


def laplace_factor(post, y):
    """The proposal factor of the chain, built from its definition: R is
    the Cholesky factor of the precision P = J^T J + I/4 with the contacts
    first and then the pixels in reverse, so that P^{-1} = R^{-T} R^{-1}
    in that order.  The pixel block of the upper triangular R^{-T}, back
    in the pixel order, is the lower Cholesky factor of C_PP; beside it
    stand the column norms of R^{-1} at the contacts, sqrt(diag C)_CC."""
    n, L = post.n_params, post.n_pixels
    order = [*range(L, n), *range(L - 1, -1, -1)]
    jac = post.residual_jacobian(y)[:, order]
    inv = np.linalg.inv(np.linalg.cholesky(jac.T @ jac + 0.25 * np.eye(n)))
    factor = np.zeros((n, n))
    for i, p in enumerate(order):
        for j, q in enumerate(order):
            if q <= p < L:
                factor[p, q] = inv.T[i, j]
            elif p == q >= L:
                factor[p, q] = math.sqrt(float(np.sum(inv[:, i] ** 2)))
    return factor


def test_laplace_proposal_follows_its_definition(tiny_posterior):
    post = tiny_posterior
    y = inversion.map_estimate(post).y
    factor = inversion.laplace_proposal(post, y)
    assert factor.tobytes() == laplace_factor(post, y).tobytes()
    jac = post.residual_jacobian(y)
    cov = np.linalg.inv(jac.T @ jac + 0.25 * np.eye(post.n_params))
    npt.assert_allclose((factor @ factor.T)[:3, :3], cov[:3, :3], rtol=1e-12)
    npt.assert_allclose(np.diag(factor)[3:] ** 2, np.diag(cov)[3:], rtol=1e-12)
    assert not np.triu(factor, 1).any() and (np.diag(factor) > 0.0).all()
    # the contacts are drawn alone, and no standard deviation exceeds 2
    assert np.count_nonzero(factor[3:]) == 4 and np.count_nonzero(factor[:, 3:]) == 4
    assert (np.sqrt((factor**2).sum(axis=1)) <= 2.0).all()


def laplace_started_at(monkeypatch, scale):
    """Make the chains of ``mcmc_sample`` start their proposal at ``scale``
    times the Laplace factor, by scaling the factor it is given."""
    plain = inversion.laplace_proposal
    monkeypatch.setattr(
        inversion,
        "laplace_proposal",
        lambda post, y: start_scaled(plain(post, y), scale),
    )


def test_mcmc_in_support_share_counts_proposals_inside_the_cube(
    tiny_posterior, monkeypatch
):
    cfg = inversion.McmcConfig(n_samples=300, burn_in=100, thinning=2, seed=23)
    # twice the Laplace scale, so that some pixel proposals leave the cube
    laplace_started_at(monkeypatch, 2.0)
    values = []
    step = tiny_posterior.step

    def counted_step(y, inc):
        values.append(step(y, inc))
        return values[-1]

    # both chains in this process, where the steps are counted
    with monkeypatch.context() as m:
        m.setattr(inversion, "_FORK", False)
        m.setattr(tiny_posterior, "step", counted_step)
        res = inversion.mcmc_sample(tiny_posterior, cfg)
    # two chains of 100 + 150 * 2 steps, one call per step; the folded
    # contacts never leave the cube, so only pixel proposals can miss it
    inside = sum(math.isfinite(v) for v in values)
    assert len(values) == 800
    assert res.in_support == inside / 800
    assert 0.0 < res.in_support < 1.0
    # counting draws no random numbers: the plain sampler gives the same
    # chains, and they are the reference chains of its two child seeds
    start = np.zeros(7)
    factor = inversion.laplace_proposal(tiny_posterior, start)
    plain = inversion.mcmc_sample(tiny_posterior, cfg)
    assert plain.samples.tobytes() == res.samples.tobytes()
    configs = child_configs(cfg)
    chains = [
        reference_chain(tiny_posterior.log_density, start, c, factor, range(3, 7))
        for c in configs
    ]
    samples, _, in_support, _ = zip(*chains)
    assert plain.samples.tobytes() == np.concatenate(samples).tobytes()
    assert plain.in_support == pooled(in_support, configs, post=False)


def child_configs(cfg):
    """The settings of the two chains of ``mcmc_sample``: child c of the
    seed's SeedSequence, ceil(n/2) samples for chain 0, floor(n/2) for 1."""
    n = cfg.n_samples
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    return [
        dataclasses.replace(cfg, n_samples=k, seed=seed)
        for k, seed in zip((n - n // 2, n // 2), seeds)
    ]


def pooled(rates, configs, post):
    """A rate pooled over chains from each chain's rate: over the steps
    after burn-in (``post``) or over all steps."""
    steps = [c.n_samples * c.thinning + (0 if post else c.burn_in) for c in configs]
    return sum(round(r * n) for r, n in zip(rates, steps)) / sum(steps)


def fold(p):
    return 1.0 - abs((p + 1.0) % 4.0 - 2.0)


def reference_chain(log_density, start, cfg, factor, reflect):
    """The sampler written step by step: one increment and one uniform
    drawn per step from the two child streams of the seed, the increment
    summed from the factor in Python floats, the reflected coordinates
    folded one by one, the scale adapted after every full window of
    burn-in and frozen at the geometric mean of the scales set after the
    windows of the burn-in's second half."""
    steps, uniforms = np.random.default_rng(cfg.seed).spawn(2)
    y = np.asarray(start, dtype=np.float64).copy()
    d = y.size
    rows = np.asarray(factor).tolist()
    lp = log_density(y)
    scale = 2.38 / math.sqrt(d)
    window = inversion._ADAPT_WINDOW
    n_windows = cfg.burn_in // window
    late_scales = []
    samples, accepted, inside, in_window = [], 0, 0, 0
    total = cfg.burn_in + cfg.n_samples * cfg.thinning
    for t in range(total):
        z = steps.standard_normal(d).tolist()
        inc = []
        for row in rows:
            acc = 0.0
            for f, zj in zip(row, z):
                acc += f * zj
            inc.append(acc)
        prop = y + np.array(inc) * scale
        for k in reflect:
            if not -1.0 <= prop[k] <= 1.0:
                prop[k] = fold(float(prop[k]))
        log_u = math.log1p(-uniforms.random())
        lp_new = log_density(prop)
        if lp_new > -math.inf:
            inside += 1
            if lp_new - lp >= log_u:
                y, lp = prop, lp_new
                accepted += t >= cfg.burn_in
                in_window += 1
        if t >= cfg.burn_in:
            if (t - cfg.burn_in + 1) % cfg.thinning == 0:
                samples.append(y)
        elif (t + 1) % window == 0:
            scale *= math.exp(2.0 * (in_window / window - 0.25))
            in_window = 0
            if (t + 1) // window > n_windows // 2:
                late_scales.append(scale)
        if t + 1 == cfg.burn_in and late_scales:
            scale = math.exp(sum(math.log(s) for s in late_scales) / len(late_scales))
    rate = accepted / (total - cfg.burn_in)
    return np.array(samples), rate, inside / total, scale


@pytest.mark.parametrize("block", [1, 7, 1000, None])
def test_mcmc_equals_a_per_step_loop_for_any_block_size(
    tiny_posterior, monkeypatch, block
):
    if block is not None:
        monkeypatch.setattr(inversion, "_DRAW_BLOCK", block)
    # four adaptations in the burn-in, the last at its final step; the
    # last two are averaged into the frozen scale
    monkeypatch.setattr(inversion, "_ADAPT_WINDOW", 50)
    # 1,250 steps per chain: two blocks of 1000, the second one partial
    cfg = inversion.McmcConfig(n_samples=700, burn_in=200, thinning=3, seed=31)
    laplace_started_at(monkeypatch, 0.6)
    start = np.zeros(tiny_posterior.n_params)
    res = inversion.mcmc_sample(tiny_posterior, cfg)
    factor = inversion.laplace_proposal(tiny_posterior, start)
    configs = child_configs(cfg)
    chains = [
        reference_chain(tiny_posterior.log_density, start, c, factor, range(3, 7))
        for c in configs
    ]
    samples, acceptance, in_support, scales = zip(*chains)
    assert res.samples.tobytes() == np.concatenate(samples).tobytes()
    assert res.acceptance == pooled(acceptance, configs, post=True)
    assert res.in_support == pooled(in_support, configs, post=False)
    assert res.chain_scales == scales and 2.38 / math.sqrt(7) not in scales
    assert all(0.0 < share < 1.0 for share in in_support)


def test_mcmc_equals_the_reference_chain_on_the_explicit_formula(
    tiny_posterior, monkeypatch
):
    monkeypatch.setattr(inversion, "_ADAPT_WINDOW", 40)
    cfg = inversion.McmcConfig(n_samples=600, burn_in=200, thinning=3, seed=37)
    start = inversion.map_estimate(tiny_posterior).y
    res = inversion.mcmc_sample(tiny_posterior, cfg, start=start)
    configs = child_configs(cfg)
    chains = [
        reference_chain(
            lambda y: explicit_log_density(tiny_posterior, y),
            start,
            c,
            laplace_factor(tiny_posterior, start),
            range(3, 7),
        )
        for c in configs
    ]
    samples, acceptance, in_support, scales = zip(*chains)
    assert res.samples.tobytes() == np.concatenate(samples).tobytes()
    assert res.acceptance == pooled(acceptance, configs, post=True)
    assert res.in_support == pooled(in_support, configs, post=False)
    assert res.chain_scales == scales
    assert 2.38 / math.sqrt(7) not in scales
    assert 0.0 < res.acceptance < 1.0 and 0.0 < res.in_support <= 1.0


def test_mcmc_chains_are_the_same_bytes_forked_or_in_process(tiny_posterior, monkeypatch):
    cfg = inversion.McmcConfig(n_samples=500, burn_in=600, thinning=2, seed=41)
    start = inversion.map_estimate(tiny_posterior).y
    forked = inversion.mcmc_sample(tiny_posterior, cfg, start=start)
    monkeypatch.setattr(inversion, "_FORK", False)
    here = inversion.mcmc_sample(tiny_posterior, cfg, start=start)
    assert forked.samples.tobytes() == here.samples.tobytes()
    assert forked.rhat.tobytes() == here.rhat.tobytes()
    assert (forked.acceptance, forked.in_support, forked.chain_scales) == (
        here.acceptance, here.in_support, here.chain_scales
    )
    assert len(forked.chain_scales) == 2
    assert multiprocessing.active_children() == []


# at degree 1 the monomials take one gather and no product
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_mcmc_odd_sample_count_splits_ceil_then_floor(tiny_posteriors_by_degree, degree):
    post = tiny_posteriors_by_degree[degree]
    cfg = inversion.McmcConfig(n_samples=401, burn_in=100, thinning=2, seed=43)
    start = np.zeros(7)
    res = inversion.mcmc_sample(post, cfg)
    configs = child_configs(cfg)
    assert [c.n_samples for c in configs] == [201, 200]
    factor = inversion.laplace_proposal(post, start)
    # the chains of mcmc_sample run on Posterior.step, these on log_density
    chains = [
        reference_chain(post.log_density, start, c, factor, range(3, 7))
        for c in configs
    ]
    samples, _, in_support, _ = zip(*chains)
    assert res.samples.shape == (401, 7)
    assert res.samples.tobytes() == np.concatenate(samples).tobytes()
    assert res.in_support == pooled(in_support, configs, post=False) < 1.0
    # one retained sample: only the first chain runs
    one = inversion.mcmc_sample(post, dataclasses.replace(cfg, n_samples=1))
    assert one.samples.shape == (1, 7) and len(one.chain_scales) == 1
    assert one.samples.tobytes() == samples[0][:1].tobytes()
    assert np.isinf(one.rhat).all()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_mcmc_rejects_a_non_finite_increment_without_evaluating_it(
    tiny_posterior, monkeypatch, bad
):
    # every increment of pixel 1 is non-finite; the factor is finite, so
    # the increments are spoilt after it is applied
    start = np.zeros(7)
    plain_increments = inversion.correlated_increments

    def increments(z, factor):
        out = plain_increments(z, factor)
        out[:, 1] = bad
        return out

    monkeypatch.setattr(inversion, "correlated_increments", increments)
    cfg = inversion.McmcConfig(n_samples=40, burn_in=0, thinning=1, seed=47)
    calls = []
    plain = tiny_posterior.step

    def step(y, inc):
        calls.append(None)
        return plain(y, inc)

    # both chains in this process, where the calls are counted
    monkeypatch.setattr(inversion, "_FORK", False)
    monkeypatch.setattr(tiny_posterior, "step", step)
    with pytest.warns(UserWarning, match="acceptance rate"):
        res = inversion.mcmc_sample(tiny_posterior, cfg, start=start)
    assert res.in_support == 0.0 and res.acceptance == 0.0
    assert (res.samples == start).all() and calls == []


def test_mcmc_error_in_the_child_reaches_the_caller(tiny_posterior, monkeypatch):
    parent, plain = os.getpid(), tiny_posterior.log_density

    def log_density(y):
        if os.getpid() != parent:
            raise ValueError("log density failed in the second chain")
        return plain(y)

    monkeypatch.setattr(tiny_posterior, "log_density", log_density)
    cfg = inversion.McmcConfig(n_samples=200, burn_in=100, thinning=1, seed=44)
    with pytest.raises(ValueError, match="failed in the second chain"):
        inversion.mcmc_sample(tiny_posterior, cfg)
    assert multiprocessing.active_children() == []

    # a child that dies without sending anything
    def dying_log_density(y):
        if os.getpid() != parent:
            os._exit(3)
        return plain(y)

    monkeypatch.setattr(tiny_posterior, "log_density", dying_log_density)
    with pytest.raises(RuntimeError, match=r"without a result \(exit code 3\)"):
        inversion.mcmc_sample(tiny_posterior, cfg)
    assert multiprocessing.active_children() == []


def test_mcmc_error_in_the_caller_stops_the_child(tiny_posterior, monkeypatch):
    # the chains call the per-step evaluator, not log_density, on each step
    parent, plain = os.getpid(), tiny_posterior.step
    calls = []

    def step(y, inc):
        calls.append(None)
        if os.getpid() == parent and len(calls) > 50:
            raise ValueError("log density failed in the first chain")
        return plain(y, inc)

    monkeypatch.setattr(tiny_posterior, "step", step)
    # long enough that the child is still running when the caller fails
    cfg = inversion.McmcConfig(n_samples=200_000, burn_in=100, thinning=5, seed=45)
    with pytest.raises(ValueError, match="failed in the first chain"):
        inversion.mcmc_sample(tiny_posterior, cfg)
    assert multiprocessing.active_children() == []


def test_mcmc_pooled_acceptance_warns_once_in_the_caller(tiny_posterior, monkeypatch):
    # a tiny scale that never adapts accepts nearly every step
    laplace_started_at(monkeypatch, 1e-4)
    cfg = inversion.McmcConfig(300, 0, 1, seed=46)
    with pytest.warns(UserWarning, match="acceptance rate") as record:
        res = inversion.mcmc_sample(tiny_posterior, cfg)
    assert sum("acceptance rate" in str(w.message) for w in record) == 1
    assert res.acceptance > 0.8


def test_split_rhat_matches_the_textbook_formula():
    rng = np.random.default_rng(47)
    # two chains of unequal length; the second sits 0.3 higher in dim 1
    a = rng.normal(size=(1001, 3))
    b = rng.normal(size=(1000, 3)) + [0.0, 0.3, 0.0]
    halves = np.stack([a[:500], a[-500:], b[:500], b[-500:]])
    within = halves.var(axis=1, ddof=1).mean(axis=0)
    var_plus = 499 / 500 * within + halves.mean(axis=1).var(axis=0, ddof=1)
    rhat = inversion.split_rhat([a, b])
    npt.assert_allclose(rhat, np.sqrt(var_plus / within), rtol=1e-12)
    assert rhat[1] > 1.01 > max(rhat[0], rhat[2])
    # a coordinate that never moves, or chains too short to split, show nothing
    a[:, 2] = b[:, 2] = 0.3
    assert np.isinf(inversion.split_rhat([a, b])[2])
    assert np.isinf(inversion.split_rhat([a[:3], b[:3]])).all()


def test_reconstruct_reports_split_rhat_and_warns_above_the_limit(tiny_posterior):
    est = inversion.reconstruct(tiny_posterior, inversion.McmcConfig(4000, 500, 2, seed=5))
    assert est.diagnostics["rhat_max"] <= 1.01
    assert len(est.diagnostics["chain_scales"]) == 2
    with pytest.warns(UserWarning, match=r"split R-hat .* raise the number of retained"):
        short = inversion.reconstruct(tiny_posterior, inversion.McmcConfig(8, 0, 1, seed=5))
    assert short.diagnostics["rhat_max"] > 1.01


# a box-truncated correlated Gaussian: mean, standard deviations and
# correlation of the untruncated density
BOX_MEAN = np.array([0.4, -0.3])
BOX_COV = np.array([[0.36, 0.7 * 0.48], [0.7 * 0.48, 0.64]])


def box_log_density(y):
    a, b = y.tolist()
    if not (-1.0 <= a <= 1.0 and -1.0 <= b <= 1.0):
        return -math.inf
    r = np.array([a, b]) - BOX_MEAN
    return -0.5 * float(r @ np.linalg.solve(BOX_COV, r))


def box_moments(samples):
    a, b = samples.T
    return np.array([a.mean(), b.mean(), (a * a).mean(), (b * b).mean(), (a * b).mean()])


def test_mcmc_reflected_coordinate_keeps_the_target(monkeypatch):
    # E[a], E[b], E[a^2], E[b^2], E[ab] by a 60 x 60 Gauss-Legendre rule
    nodes, weights = np.polynomial.legendre.leggauss(60)
    a, b = np.meshgrid(nodes, nodes, indexing="ij")
    dens = np.outer(weights, weights) * np.exp(
        [[box_log_density(np.array([p, q])) for q in nodes] for p in nodes]
    )
    exact = np.array([(dens * m).sum() for m in (a, b, a * a, b * b, a * b)])
    exact /= dens.sum()
    # a drawn alone and rejected outside the box, b drawn alone and folded;
    # a proposal that draws b jointly with a (correlation 0.9) and folds it
    # moves E[a] and E[ab] by 0.03-0.08
    cfg = inversion.McmcConfig(100_000, 2_000, 2, seed=0)
    res = metropolis(
        box_log_density, np.zeros(2), cfg, np.diag([0.9, 1.2]), 1, start_scale=1.0
    )
    assert np.abs(res.samples).max() <= 1.0
    npt.assert_allclose(box_moments(res.samples), exact, rtol=0.0, atol=0.015)


@pytest.mark.parametrize("start_scale", [0.05, 10.0])
def test_mcmc_scale_adapts_during_burn_in_only(start_scale):
    def gaussian(y):
        return -0.5 * float(y @ y)

    # the chain starts at start_scale times the identity; its scales are
    # in units of the factor start_scaled gives it
    cfg = inversion.McmcConfig(5_000, 6_000, 1, seed=4)
    res = metropolis(gaussian, np.zeros(4), cfg, start_scale=start_scale)
    assert 0.15 <= res.acceptance <= 0.35
    (scale,) = res.chain_scales
    assert 0.5 <= scale * start_scale / (2.38 / math.sqrt(4)) <= 2.0
    # no full window of burn-in: the scale stays where it started
    short = inversion.McmcConfig(100, 499, 1, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = metropolis(gaussian, np.zeros(4), short, start_scale=start_scale)
    assert res.chain_scales == (2.38 / math.sqrt(4),)


def test_mcmc_frozen_scale_is_steady_across_seeds():
    # 20 windows of burn-in on a 12-D Gaussian: the scale after the last
    # window alone spreads by 0.039 in log over 20 seeds, the mean over
    # the last ten by 0.016
    def gaussian(y):
        return -0.5 * float(y @ y)

    logs = []
    for seed in range(20):
        cfg = inversion.McmcConfig(100, 10_000, 1, seed=seed)
        res = metropolis(gaussian, np.zeros(12), cfg)
        logs.append(math.log(res.chain_scales[0]))
    assert np.std(logs, ddof=1) < 0.025


def test_mcmc_truncated_normal_moments():
    # analytic check: unit normal restricted to [-1, 1]
    def logd(y):
        if abs(y[0]) > 1.0:
            return -math.inf
        return -0.5 * y[0] ** 2

    cfg = inversion.McmcConfig(n_samples=20_000, burn_in=2_000, thinning=2, seed=3)
    res = metropolis(logd, np.zeros(1), cfg, start_scale=0.8)
    tn = stats.truncnorm(-1.0, 1.0)
    x = res.samples[:, 0]
    assert abs(x.mean() - 0.0) < 0.02
    assert x.var() == pytest.approx(tn.var(), abs=0.01)
    assert x.min() >= -1.0 and x.max() <= 1.0


def test_mcmc_warning_flag_semantics():
    def flat(y):
        return 0.0 if np.abs(y).max() <= 1.0 else -math.inf

    cfg = inversion.McmcConfig(500, 100, 1, seed=0)
    with pytest.warns(UserWarning, match="acceptance rate"):
        res = metropolis(flat, np.zeros(2), cfg, start_scale=0.01)
    assert res.acceptance > 0.8


def test_mcmc_rejects_bad_input(tiny_posterior):
    with pytest.raises(ValueError, match="n_samples must be at least 1, got 0"):
        inversion.McmcConfig(n_samples=0)
    with pytest.raises(ValueError, match="thinning must be at least 1, got 0"):
        inversion.McmcConfig(thinning=0)
    with pytest.raises(ValueError, match="burn_in must be at least 0, got -1"):
        inversion.McmcConfig(burn_in=-1)
    # the chain sets its own proposal scale; there is no setting for it
    with pytest.raises(TypeError, match="proposal_std"):
        inversion.McmcConfig(proposal_std=1.0)
    cfg = inversion.McmcConfig(10, 0, 1)
    with pytest.raises(ValueError, match="outside the posterior support"):
        inversion.mcmc_sample(tiny_posterior, cfg, start=np.full(7, 3.0))


def test_cm_sd_estimates_frozen_affine():
    bounds = det_cem.ParameterBounds(1.0, [0.5], [10.0], [20.0])
    chain = np.array([[0.0, -1.0], [1.0, 1.0]])
    cm = inversion.cm_sd_estimates(chain, bounds)
    npt.assert_allclose(cm["sigma_cm"], [1.25])
    npt.assert_allclose(cm["sigma_sd"], [0.25])
    npt.assert_allclose(cm["zeta_cm"], [15.0])
    npt.assert_allclose(cm["zeta_sd"], [5.0])


def test_reconstruct_map_only(tiny_posterior):
    est = inversion.reconstruct(tiny_posterior)
    assert est.sigma_cm is None and est.zeta_sd is None
    assert est.diagnostics["map_converged"]
    assert est.diagnostics["prior_jitter"] is tiny_posterior.prior.jitter
    assert est.diagnostics["prior_condition"] == tiny_posterior.prior.condition
    bounds = det_cem.ParameterBounds(1.1, np.full(3, 0.6), np.full(4, 100.0),
                                     np.full(4, 1000.0))
    s = det_cem.params_from_y(est.y_map, bounds)
    npt.assert_allclose(est.sigma_map, s.sigma)
    npt.assert_allclose(est.zeta_map, s.zeta)


def test_reconstruct_with_chain(tiny_posterior):
    cfg = inversion.McmcConfig(300, 100, 2, seed=5)
    # these chains are deliberately too short to show mixing, which warns
    with pytest.warns(UserWarning, match="split R-hat"):
        est = inversion.reconstruct(tiny_posterior, cfg)
    assert est.sigma_cm.shape == (3,) and est.zeta_cm.shape == (4,)
    assert (est.sigma_sd > 0.0).all() and (est.zeta_sd > 0.0).all()
    assert set(est.diagnostics) >= {
        "acceptance", "in_support", "n", "chain_scales", "rhat_max"
    }
    assert "proposal_scale" not in est.diagnostics
    assert "stabilization" not in est.diagnostics
    assert est.diagnostics["n"] == 300
    # the chain runs from the MAP point with the stated seed
    map_res = inversion.map_estimate(tiny_posterior)
    chain = inversion.mcmc_sample(tiny_posterior, cfg, start=map_res.y)
    bounds = det_cem.ParameterBounds(1.1, np.full(3, 0.6), np.full(4, 100.0),
                                     np.full(4, 1000.0))
    cm = inversion.cm_sd_estimates(chain.samples, bounds)
    npt.assert_allclose(est.sigma_cm, cm["sigma_cm"])
    npt.assert_allclose(est.zeta_sd, cm["zeta_sd"])
    assert est.diagnostics["in_support"] == chain.in_support
    assert est.diagnostics["chain_scales"] == list(chain.chain_scales)


def test_estimates_roundtrip(tmp_path, tiny_posterior):
    cfg = inversion.McmcConfig(200, 50, 1, seed=6)
    with pytest.warns(UserWarning, match="split R-hat"):
        est = inversion.reconstruct(tiny_posterior, cfg)
    path = tmp_path / "est.json"
    inversion.save_estimates(est, path)
    back = inversion.load_estimates(path)
    npt.assert_array_equal(back.y_map, est.y_map)
    npt.assert_array_equal(back.sigma_map, est.sigma_map)
    npt.assert_array_equal(back.sigma_cm, est.sigma_cm)
    npt.assert_array_equal(back.zeta_sd, est.zeta_sd)
    assert back.diagnostics == json.loads(json.dumps(est.diagnostics))

    est_map = inversion.reconstruct(tiny_posterior)
    inversion.save_estimates(est_map, path)
    back = inversion.load_estimates(path)
    assert back.sigma_cm is None

    path.write_text("[1, 2")
    with pytest.raises(ValueError, match="not valid JSON"):
        inversion.load_estimates(path)


def test_save_estimates_writes_the_bytes_of_json_dump(tmp_path, tiny_posterior):
    cfg = inversion.McmcConfig(200, 50, 1, seed=6)
    with pytest.warns(UserWarning, match="split R-hat"):
        est = inversion.reconstruct(tiny_posterior, cfg)
    assert math.isfinite(est.diagnostics["rhat_max"])
    path = tmp_path / "est.json"
    for est in (est, inversion.reconstruct(tiny_posterior)):
        doc = {
            "y_map": est.y_map.tolist(),
            "sigma_map": est.sigma_map.tolist(),
            "zeta_map": est.zeta_map.tolist(),
        }
        for name in ("sigma_cm", "sigma_sd", "zeta_cm", "zeta_sd"):
            if getattr(est, name) is not None:
                doc[name] = getattr(est, name).tolist()
        doc["diagnostics"] = est.diagnostics
        inversion.save_estimates(est, path)
        assert path.read_text() == json_dump_text(doc)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_diagnostics_survive_strict_json(tmp_path, tiny_posterior, value):
    est = inversion.reconstruct(tiny_posterior)
    est.diagnostics["prior_condition"] = np.float64(value)
    path = tmp_path / "est.json"
    inversion.save_estimates(est, path)
    raw = strict_json(path.read_text())
    assert raw["diagnostics"]["prior_condition"] == str(value)
    back = inversion.load_estimates(path).diagnostics["prior_condition"]
    assert type(back) is float
    assert back == value or math.isnan(value) and math.isnan(back)
    # a value the writer cannot spell is refused, not written
    est.diagnostics["chain_scales"] = [value]
    with pytest.raises(ValueError):
        inversion.save_estimates(est, path)
    path.write_text('{"y_map": [0.0]}')
    with pytest.raises(ValueError, match="malformed estimates"):
        inversion.load_estimates(path)
