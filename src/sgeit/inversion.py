"""Bayesian reconstruction on top of a voltage surrogate.

The posterior combines a Gaussian likelihood with white noise covariance
xi^2 I, a Gaussian smoothness prior on the conductivity parameters with
squared-exponential covariance over the pixel seeds, a flat prior on the
contact parameters, and a hard box constraint to the parameter cube.  Up
to an additive constant the negative log posterior inside the cube is
F(y)/2 with

    F(y) = ||v - U(y)||^2 / xi^2 + y_sigma^T Mcov^{-1} y_sigma.

Point estimates: projected damped Gauss-Newton for the MAP, random-walk
Metropolis for conditional-mean and spread estimates.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .det_cem import MeasurementSet, params_from_y
from .fem import ParameterBounds
from .surrogate import SgfemSurrogate


@dataclass(frozen=True)
class NoiseModel:
    """White measurement noise with standard deviation ``std`` (mV)."""

    std: float
    rule: str = "explicit"

    def __post_init__(self):
        if not 0.0 < self.std < math.inf:
            raise ValueError(
                "noise standard deviation must be positive and finite, "
                f"got {self.std:g} (rule {self.rule})"
            )

    @classmethod
    def percent_rule(cls, voltages, pct: float = 1.0) -> "NoiseModel":
        """pct percent of the voltage spread max(v) - min(v)."""
        v = np.asarray(voltages, dtype=np.float64)
        return cls((pct / 100.0) * (v.max() - v.min()), rule=f"percent:{pct:g}")


@dataclass(frozen=True)
class SmoothnessPrior:
    """Zero-mean Gaussian prior with squared-exponential seed covariance."""

    cov: np.ndarray
    chol: np.ndarray
    whiten: np.ndarray
    corr_length: float
    eta: float


def build_prior_cov(seeds, corr_length: float, eta: float) -> SmoothnessPrior:
    """Covariance eta^2 exp(-|r_l - r_l'|^2 / (2 s^2)) over pixel seeds.

    A tiny jitter (1e-10 eta^2) is added once if the Cholesky factorization
    fails; a second failure is reported (duplicate or near-duplicate seeds).
    """
    for name, value in (("correlation length", corr_length), ("eta", eta)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value:g}")
    seeds = np.asarray(seeds, dtype=np.float64).reshape(-1, 2)
    if not np.isfinite(seeds).all():
        raise ValueError("pixel seeds must be finite")
    d2 = ((seeds[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2)
    cov = eta**2 * np.exp(-d2 / (2.0 * corr_length**2))
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        cov = cov + 1e-10 * eta**2 * np.eye(seeds.shape[0])
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "prior covariance not positive definite even with jitter; "
                "check for duplicate pixel seeds"
            ) from exc
    whiten = np.linalg.inv(chol)
    return SmoothnessPrior(cov, chol, whiten, corr_length, eta)


@dataclass
class Posterior:
    """Posterior density of the parameter vector given one data set."""

    surrogate: SgfemSurrogate
    data: np.ndarray
    noise: NoiseModel
    prior: SmoothnessPrior
    _inv_std: float = field(init=False, repr=False)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64).ravel()
        n = self.surrogate.n_patterns * self.surrogate.n_electrodes
        if self.data.shape != (n,):
            raise ValueError(f"data must stack to {n} voltages")
        if self.prior.cov.shape[0] != self.surrogate.n_pixels:
            raise ValueError("prior covers the wrong number of pixels")
        self._inv_std = 1.0 / self.noise.std

    @property
    def n_params(self) -> int:
        return self.surrogate.n_params

    @property
    def n_pixels(self) -> int:
        return self.surrogate.n_pixels

    def objective(self, y) -> float:
        """F(y): squared data misfit plus squared prior norm, inf outside."""
        return -2.0 * self.log_density(np.asarray(y, dtype=np.float64))

    def residual(self, y: np.ndarray) -> np.ndarray:
        """Whitened residual r(y) with F(y) = ||r(y)||^2."""
        misfit = (self.data - self.surrogate.eval_stacked(y)) * self._inv_std
        return np.concatenate([misfit, self.prior.whiten @ y[: self.n_pixels]])

    def residual_jacobian(self, y: np.ndarray) -> np.ndarray:
        """Derivative of the whitened residual."""
        top = -self._inv_std * self.surrogate.jacobian(y)
        bottom = np.zeros((self.n_pixels, self.n_params))
        bottom[:, : self.n_pixels] = self.prior.whiten
        return np.vstack([top, bottom])

    def log_density(self, y: np.ndarray) -> float:
        """-F(y)/2 inside the cube, -inf outside (up to a constant)."""
        if np.shape(y) != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {np.shape(y)}")
        if np.abs(y).max() > 1.0:
            return -math.inf
        misfit = (self.data - self.surrogate.eval_stacked(y, check=False)) * self._inv_std
        w = self.prior.whiten @ y[: self.n_pixels]
        return -0.5 * (misfit @ misfit + w @ w)


def build_posterior(
    surr: SgfemSurrogate,
    measurements: MeasurementSet,
    noise_std: float | None = None,
    noise_pct: float | None = None,
    corr_length: float = 5.0,
    eta_factor: float = 10.0,
) -> Posterior:
    """Wire surrogate and data into a posterior with standard defaults.

    The noise level is ``noise_std`` if given, otherwise the percent rule
    on the data (default 1 percent of the voltage spread); the prior
    spread is ``eta_factor`` times the noise level.  The measurement
    patterns must match the surrogate's.
    """
    if measurements.patterns.shape != surr.patterns.shape or not np.allclose(
        measurements.patterns, surr.patterns, rtol=0.0, atol=1e-12
    ):
        raise ValueError("current patterns of data and surrogate differ")
    if noise_std is not None:
        noise = NoiseModel(noise_std)
    else:
        noise = NoiseModel.percent_rule(
            measurements.voltages, 1.0 if noise_pct is None else noise_pct
        )
    prior = build_prior_cov(surr.seeds, corr_length, eta_factor * noise.std)
    return Posterior(surr, measurements.voltages.ravel(), noise, prior)


@dataclass(frozen=True)
class MapResult:
    """Gauss-Newton output: the estimate and convergence diagnostics."""

    y: np.ndarray
    objective: float
    iterations: int
    converged: bool


def _projected_gradient(y: np.ndarray, grad: np.ndarray) -> np.ndarray:
    pg = grad.copy()
    pg[(y <= -1.0) & (grad > 0.0)] = 0.0
    pg[(y >= 1.0) & (grad < 0.0)] = 0.0
    return pg


def _backtrack(posterior, y, r, obj, grad, step, min_alpha=1e-12):
    """Armijo backtracking along a projected step; (y, r, obj, moved)."""
    alpha = 1.0
    while alpha >= min_alpha:
        y_new = np.clip(y + alpha * step, -1.0, 1.0)
        if not np.any(y_new != y):
            break
        r_new = posterior.residual(y_new)
        obj_new = float(r_new @ r_new)
        if obj_new <= obj + 1e-4 * (grad @ (y_new - y)):
            return y_new, r_new, obj_new, True
        alpha *= 0.5
    return y, r, obj, False


def map_estimate(
    posterior: Posterior,
    start=None,
    max_iter: int = 500,
    grad_tol: float = 1e-8,
) -> MapResult:
    """Projected damped Gauss-Newton minimization of F over the cube.

    Starts from the cube midpoint unless ``start`` is given.  Each step
    solves a Marquardt-damped linearized least-squares problem in the
    free coordinates (those not pinned at the box boundary by the
    gradient sign), projects onto the box and backtracks under an Armijo
    test; a rejected step raises the damping, an accepted one lowers it.
    Damping keeps the nearly-flat directions (weakly determined contact
    parameters) from swamping the step, and as it grows the step turns
    into a projected gradient, so progress is guaranteed away from
    stationarity.  Terminates when the projected gradient norm drops
    below grad_tol * (1 + |F|), or when the damping sweep finds no
    feasible decrease at all (stationary to working precision); hitting
    the iteration cap returns the best iterate with ``converged=False``
    and a warning.
    """
    n = posterior.n_params
    y = np.zeros(n) if start is None else np.clip(np.asarray(start, float), -1, 1)
    r = posterior.residual(y)
    obj = float(r @ r)
    converged = False
    lam = 1e-3
    it = 0
    for it in range(1, max_iter + 1):
        jac = posterior.residual_jacobian(y)
        grad = 2.0 * (jac.T @ r)
        pg = _projected_gradient(y, grad)
        if np.linalg.norm(pg) <= grad_tol * (1.0 + obj):
            converged = True
            break
        free = pg != 0.0
        jac_f = jac[:, free]
        n_free = int(free.sum())
        scale = math.sqrt(float((jac_f * jac_f).sum(axis=0).max()))
        rhs = np.concatenate([-r, np.zeros(n_free)])
        moved = False
        # the line search is kept shallow on purpose: a step rejected
        # near full length signals the damping, not the step size, is off
        while lam < 1e16:
            aug = np.vstack([jac_f, lam * scale * np.eye(n_free)])
            step = np.zeros(n)
            step[free] = np.linalg.lstsq(aug, rhs, rcond=None)[0]
            y, r, obj, moved = _backtrack(
                posterior, y, r, obj, grad, step, min_alpha=0.25
            )
            if moved:
                lam = max(lam / 10.0, 1e-8)
                break
            lam *= 10.0
        if not moved:
            # the damping swept to its cap without an admissible decrease,
            # so the remaining first-order improvement sits below the
            # floating-point noise of F: the iterate is stationary to
            # working precision even if the gradient test misses by a hair
            converged = True
            break
    if not converged:
        warnings.warn(
            f"Gauss-Newton stopped after {it} iterations without meeting "
            "the gradient tolerance; returning the best iterate"
        )
    return MapResult(y, obj, it, converged)


@dataclass(frozen=True)
class McmcConfig:
    """Random-walk Metropolis settings (defaults sized for tank data)."""

    n_samples: int = 400_000
    burn_in: int = 50_000
    thinning: int = 5
    proposal_std: float = 0.07
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1 or self.burn_in < 0 or self.thinning < 1:
            raise ValueError("invalid chain lengths")
        if not 0.0 < self.proposal_std < math.inf:
            raise ValueError(
                f"proposal_std must be positive and finite, got {self.proposal_std:g}"
            )


@dataclass(frozen=True)
class McmcResult:
    """Thinned chain with its acceptance diagnostics."""

    samples: np.ndarray
    acceptance: float
    warning: bool
    in_support: float  # share of all proposals inside the support


def random_walk_metropolis(
    log_density, start, config: McmcConfig
) -> McmcResult:
    """Metropolis sampling with an isotropic Gaussian proposal.

    Proposals outside the support (log density -inf) are rejected without
    further evaluation; ``in_support`` is the share of all proposals inside
    it.  Runs burn_in + n_samples * thinning iterations and keeps every
    thinning-th state after burn-in.  The acceptance rate is measured over
    the post-burn-in phase; a rate outside [0.05, 0.8] sets the warning flag.
    """
    y = np.asarray(start, dtype=np.float64).copy()
    lp = float(log_density(y))
    if not math.isfinite(lp):
        raise ValueError("chain start lies outside the posterior support")
    rng = np.random.default_rng(config.seed)
    n_dim = y.shape[0]
    total = config.burn_in + config.n_samples * config.thinning
    samples = np.empty((config.n_samples, n_dim))
    accepted = 0
    kept = 0
    inside = 0
    for t in range(total):
        prop = y + config.proposal_std * rng.standard_normal(n_dim)
        lp_new = log_density(prop)
        if lp_new > -math.inf:
            inside += 1
            d = lp_new - lp
            if d >= 0.0 or rng.random() < math.exp(d):
                y, lp = prop, float(lp_new)
                if t >= config.burn_in:
                    accepted += 1
        if t >= config.burn_in and (t - config.burn_in + 1) % config.thinning == 0:
            samples[kept] = y
            kept += 1
    post = total - config.burn_in
    rate = accepted / post if post else 0.0
    warn = not 0.05 <= rate <= 0.8
    if warn:
        warnings.warn(f"MCMC acceptance rate {rate:.3f} outside [0.05, 0.8]")
    return McmcResult(samples, rate, warn, inside / total)


def mcmc_sample(posterior: Posterior, config: McmcConfig, start=None) -> McmcResult:
    """Run the random-walk sampler on a posterior (start defaults to 0)."""
    y0 = np.zeros(posterior.n_params) if start is None else np.asarray(start, float)
    return random_walk_metropolis(posterior.log_density, y0, config)


@dataclass(frozen=True)
class Estimates:
    """Reconstruction output: MAP always, CM/SD when a chain was run."""

    y_map: np.ndarray
    sigma_map: np.ndarray
    zeta_map: np.ndarray
    diagnostics: dict
    sigma_cm: np.ndarray | None = None
    sigma_sd: np.ndarray | None = None
    zeta_cm: np.ndarray | None = None
    zeta_sd: np.ndarray | None = None


def cm_sd_estimates(
    chain: np.ndarray, bounds: ParameterBounds
) -> tuple[dict, float]:
    """Sample means and spreads of the chain, mapped to physical units.

    Returns the conditional-mean/spread arrays and the stabilization
    metric: the largest relative change of any conditional-mean component
    between the first half of the chain and the full chain (below 0.01
    counts as stabilized).
    """
    chain = np.asarray(chain, dtype=np.float64)
    L = bounds.n_pixels
    full = params_from_y(chain.mean(axis=0), bounds)
    first = params_from_y(chain[: max(1, chain.shape[0] // 2)].mean(axis=0), bounds)
    std = chain.std(axis=0)
    cm = {
        "sigma_cm": full.sigma,
        "sigma_sd": bounds.sigma * std[:L],
        "zeta_cm": full.zeta,
        "zeta_sd": bounds.zeta_half * std[L:],
    }
    full_cm = np.concatenate([full.sigma, full.zeta])
    half_cm = np.concatenate([first.sigma, first.zeta])
    stabilization = float(np.max(np.abs(full_cm - half_cm) / np.abs(full_cm)))
    return cm, stabilization


def reconstruct(
    posterior: Posterior,
    config: McmcConfig | None = None,
    start=None,
) -> Estimates:
    """MAP estimate, optionally followed by a Metropolis chain for CM/SD.

    With ``config=None`` only the MAP is computed.  The chain starts from
    the MAP point.
    """
    bounds = posterior.surrogate.bounds
    map_res = map_estimate(posterior, start=start)
    sample_map = params_from_y(map_res.y, bounds)
    diagnostics = {
        "map_objective": map_res.objective,
        "map_iterations": map_res.iterations,
        "map_converged": map_res.converged,
    }
    kwargs = {}
    if config is not None:
        chain = mcmc_sample(posterior, config, start=map_res.y)
        cm, stabilization = cm_sd_estimates(chain.samples, bounds)
        kwargs = cm
        diagnostics.update(
            acceptance=chain.acceptance,
            in_support=chain.in_support,
            n=chain.samples.shape[0],
            stabilization=stabilization,
        )
    return Estimates(
        map_res.y, sample_map.sigma, sample_map.zeta, diagnostics, **kwargs
    )


def save_estimates(est: Estimates, path) -> None:
    """Write estimates to JSON; CM/SD fields appear only when present."""
    doc = {
        "y_map": est.y_map.tolist(),
        "sigma_map": est.sigma_map.tolist(),
        "zeta_map": est.zeta_map.tolist(),
    }
    for name in ("sigma_cm", "sigma_sd", "zeta_cm", "zeta_sd"):
        value = getattr(est, name)
        if value is not None:
            doc[name] = np.asarray(value).tolist()
    doc["diagnostics"] = est.diagnostics
    with open(path, "w") as f:
        json.dump(doc, f)


def load_estimates(path) -> Estimates:
    """Read estimates written by :func:`save_estimates`."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    try:
        opt = {
            name: np.asarray(raw[name], dtype=np.float64)
            for name in ("sigma_cm", "sigma_sd", "zeta_cm", "zeta_sd")
            if name in raw
        }
        return Estimates(
            np.asarray(raw["y_map"], dtype=np.float64),
            np.asarray(raw["sigma_map"], dtype=np.float64),
            np.asarray(raw["zeta_map"], dtype=np.float64),
            dict(raw.get("diagnostics", {})),
            **opt,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed estimates file ({exc})") from exc
