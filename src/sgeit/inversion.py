"""Bayesian reconstruction on top of a voltage surrogate.

The posterior combines a Gaussian likelihood with white noise covariance
xi^2 I, a Gaussian smoothness prior on the conductivity parameters with
squared-exponential covariance over the pixel seeds, a flat prior on the
contact parameters, and a hard box constraint to the parameter cube.  Up
to an additive constant the negative log posterior inside the cube is
F(y)/2 with

    F(y) = ||v - U(y)||^2 / xi^2 + y_sigma^T Mcov^{-1} y_sigma.

``Posterior`` whitens both terms and the data into one matrix A' once, so
that F(y) is the squared norm of one residual r(y) = -A' m+(y); its
residual, Jacobian, objective and log density all evaluate that form.

Point estimates: affine-scaled Levenberg-Marquardt for the MAP, Metropolis
for conditional-mean and spread estimates.  The chain's proposal is scaled
by the Laplace covariance C = (J^T J + I/4)^{-1} at its start (the MAP in
``reconstruct``): the pixels move jointly with covariance C_PP, the
contacts independently with the standard deviations sqrt(diag C)_CC and
are reflected into [-1, 1].  A reflected Gaussian kernel is symmetric only
in coordinates drawn independently of all others, which is why the
contacts are diagonal and the pixels are not reflected: a pixel proposal
outside the cube is rejected.  The common scale starts at 2.38/sqrt(d)
(Roberts, Gelman & Gilks 1997), adapts toward an acceptance of 0.25 in
fixed windows of the burn-in (Haario, Saksman & Tamminen 2001), and is
frozen after it at the geometric mean of its values over the burn-in's
second half, as dual averaging freezes its averaged iterate (Hoffman &
Gelman 2014).  The chain draws its random numbers in blocks from two
child streams of its seed, the proposal increments from one and one
uniform u per step from the other, and accepts a step when the log
density rises by at least log u.  One step costs the fold of the contacts
that left the cube, a cube test, and for a proposal inside the cube Q
gathers of [1, y] that form m+(y), one product with A' and one dot
product.

``mcmc_sample`` runs two such chains from the same start, each with its
own child seed, burn-in and adaptation and half of the retained samples,
the second in a forked child process at the same time as the first.  Their
split-R-hat over the four half-chains (Vehtari, Gelman, Simpson, Carpenter
& Buerkner 2021) tells ``reconstruct`` whether they mixed.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .det_cem import MeasurementSet, params_from_y, percent_noise
from .fem import ParameterBounds
from .geometry import read_json, require_finite
from .surrogate import SgfemSurrogate, monomial_jacobian, monomials


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
        return cls(percent_noise(voltages, pct), rule=f"percent:{pct:g}")


@dataclass(frozen=True)
class SmoothnessPrior:
    """Zero-mean Gaussian prior with squared-exponential seed covariance.

    ``jitter`` records whether ``build_prior_cov`` had to add its jitter to
    factorize ``cov``; ``condition`` is the 2-norm condition number of
    ``cov``, jitter included.
    """

    cov: np.ndarray
    chol: np.ndarray
    whiten: np.ndarray
    corr_length: float
    eta: float
    jitter: bool
    condition: float


def build_prior_cov(seeds, corr_length: float, eta: float) -> SmoothnessPrior:
    """Covariance eta^2 exp(-|r_l - r_l'|^2 / (2 s^2)) over pixel seeds.

    A tiny jitter (1e-10 eta^2) is added once if the Cholesky factorization
    fails; a second failure is reported (duplicate or near-duplicate seeds).
    The prior records whether the jitter fired and the condition number.
    """
    for name, value in (("correlation length", corr_length), ("eta", eta)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value:g}")
    seeds = np.asarray(seeds, dtype=np.float64).reshape(-1, 2)
    if not np.isfinite(seeds).all():
        raise ValueError("pixel seeds must be finite")
    d2 = ((seeds[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2)
    cov = eta**2 * np.exp(-d2 / (2.0 * corr_length**2))
    jitter = False
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jitter = True
        cov = cov + 1e-10 * eta**2 * np.eye(seeds.shape[0])
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "prior covariance not positive definite even with jitter; "
                "check for duplicate pixel seeds"
            ) from exc
    whiten = np.linalg.inv(chol)
    condition = float(np.linalg.cond(cov))
    return SmoothnessPrior(cov, chol, whiten, corr_length, eta, jitter, condition)


@dataclass
class Posterior:
    """Posterior density of the parameter vector given one data set.

    Construction whitens the whole of F, data included, into one matrix
    A', so that the residual is r(y) = -A' m+(y) and F(y) = ||r(y)||^2.
    m+(y) is the surrogate's monomial vector m(y) followed by L slot rows
    that gather y_sigma.  With M the surrogate's power coefficients, W the
    prior whitening factor and A = [[M / xi, 0], [0, -W]], the residual
    d~ - A m+(y) with target d~ = [v / xi, 0] is the same: the constant
    monomial is the first entry of m+ and always 1, so A' is A with d~
    subtracted from its first column.
    """

    surrogate: SgfemSurrogate
    data: np.ndarray
    noise: NoiseModel
    prior: SmoothnessPrior
    _whitened: np.ndarray = field(init=False, repr=False)
    _slots: list[np.ndarray] = field(init=False, repr=False)
    # the extended point [1, y] that log_density fills in place, so
    # threads must not share one posterior
    _ext: np.ndarray = field(init=False, repr=False)
    _shape: tuple[int] = field(init=False, repr=False)

    def __post_init__(self):
        surr = self.surrogate
        self.data = np.asarray(self.data, dtype=np.float64).ravel()
        n_data, n_terms = surr.power_coeffs.shape
        if self.data.shape != (n_data,):
            raise ValueError(f"data must stack to {n_data} voltages")
        if not np.isfinite(self.data).all():
            raise ValueError("non-finite value in data")
        L = surr.n_pixels
        if self.prior.cov.shape[0] != L:
            raise ValueError("prior covers the wrong number of pixels")
        inv_std = 1.0 / self.noise.std
        self._whitened = np.zeros((n_data + L, n_terms + L))
        coeffs = surr.power_coeffs.copy()
        # the index set starts with the zero multi-index, whose monomial is 1
        coeffs[:, 0] -= self.data
        self._whitened[:n_data, :n_terms] = coeffs * inv_std
        self._whitened[n_data:, n_terms:] = -self.prior.whiten
        # the first slot of the extra rows gathers y_1..y_L, the others the 1
        extra = np.zeros((len(surr.slots), L), dtype=np.int64)
        extra[0] = np.arange(1, L + 1)
        self._slots = [np.concatenate(pair) for pair in zip(surr.slots, extra)]
        self._ext = np.ones(surr.n_params + 1)
        self._shape = (surr.n_params,)

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
        """Whitened residual r(y) = -A' m+(y), with F(y) = ||r(y)||^2."""
        mono = monomials(self.surrogate.check_point(y), self._slots)
        return -(self._whitened @ mono)

    def residual_jacobian(self, y: np.ndarray) -> np.ndarray:
        """Derivative of the whitened residual, -A' dm+(y)."""
        dmono = monomial_jacobian(self.surrogate.check_point(y), self._slots)
        return -(self._whitened @ dmono)

    def log_density(self, y: np.ndarray) -> float:
        """-F(y)/2 inside the cube, -inf outside (up to a constant).

        The chain calls this once per step, so it is written out in one
        frame: the cube test on Python floats, the gathers of
        :func:`surrogate.monomials` into the kept point [1, y], then one
        product with A'.
        """
        if y.shape != self._shape:
            raise ValueError(f"expected {self.n_params} parameters, got {y.shape}")
        # max and min skip a NaN that is not first, the sum does not; an
        # infinite entry fails both tests
        v = y.tolist()
        if not (max(v) <= 1.0 and min(v) >= -1.0 and math.isfinite(sum(v))):
            return -math.inf
        ext = self._ext
        ext[1:] = y
        first, *rest = self._slots
        mono = ext.take(first)
        for slot in rest:
            mono *= ext.take(slot)
        # A' m+ is -r, whose norm is the same; ndarray.dot skips the ufunc
        # dispatch of @, which shows at this size
        r = self._whitened.dot(mono)
        return -0.5 * float(r.dot(r))


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
    """MAP point with the search's diagnostics.

    ``iterations`` counts residual evaluations, the first one included;
    ``converged`` is False when the evaluation cap stopped the search.
    """

    y: np.ndarray
    objective: float
    iterations: int
    converged: bool


# relative tolerance of the MAP search on F, its step and its gradient
_MAP_TOL = 1e-8


def map_estimate(posterior: Posterior, start=None, max_iter: int = 500) -> MapResult:
    """Minimize F over the cube by affine-scaled Levenberg-Marquardt.

    Starts from the cube midpoint, or from ``start`` clipped to the cube.
    With J the residual Jacobian and g = J^T r, coordinate k is scaled by
    sqrt(v_k), its distance to the face that -g points it at (Coleman &
    Li, SIAM J. Optim. 1996), and |g_k| joins the diagonal of J^T J, so a
    coordinate slows down near a face it is pushed against and may leave
    one it is pulled from.  A step is damped by lambda times the mean
    diagonal of the scaled matrix and goes at most 99.5 % of the way to
    a face, so every iterate lies inside the cube.  A step that lowers F
    is taken and divides lambda by 10; any other step multiplies it by
    10.  The search stops when a step lowers F by at most ``_MAP_TOL``
    relative, or when a step or max_k v_k |g_k| is that small.  After
    ``max_iter`` residual evaluations it returns the best point with
    ``converged=False`` and a warning.
    """
    n = posterior.n_params
    y = np.zeros(n) if start is None else np.clip(np.asarray(start, float), -1, 1)
    r = posterior.residual(y)
    obj = float(r @ r)
    evals, lam, moved, converged = 1, 10.0, True, False
    while evals < max_iter:
        if moved:
            jac = posterior.residual_jacobian(y)
            grad = jac.T @ r
            v = np.where(grad < 0.0, 1.0 - y, 1.0 + y)
            if np.max(v * np.abs(grad)) <= _MAP_TOL * (1.0 + obj):
                converged = True
                break
            d = np.sqrt(v)
            normal = (jac * d).T @ (jac * d) + np.diag(v * np.abs(grad))
            damping = np.trace(normal) / n * np.eye(n)
        step = d * np.linalg.solve(normal + lam * damping, -d * grad)
        step = np.clip(step, -0.995 * (1.0 + y), 0.995 * (1.0 - y))
        r_new = posterior.residual(y + step)
        evals += 1
        obj_new = float(r_new @ r_new)
        moved = obj_new < obj
        tiny_step = np.linalg.norm(step) <= _MAP_TOL * (_MAP_TOL + np.linalg.norm(y))
        converged = tiny_step or (moved and obj - obj_new <= _MAP_TOL * obj)
        if moved:
            y, r, obj = y + step, r_new, obj_new
        lam = lam / 10.0 if moved else lam * 10.0
        if converged:
            break
    if not converged:
        warnings.warn(
            f"MAP search stopped after {evals} residual evaluations "
            "without meeting its tolerance; returning the best point"
        )
    return MapResult(y, obj, evals, converged)


@dataclass(frozen=True)
class McmcConfig:
    """Metropolis settings (defaults sized for tank data).

    ``proposal_std`` is the proposal scale at the chain start; None starts
    at 2.38/sqrt(d) for d parameters.  The scale adapts during burn-in.
    ``seed`` seeds numpy's ``default_rng``; :func:`mcmc_sample` gives each
    of its chains a child ``SeedSequence`` of it.
    """

    n_samples: int = 50_000
    burn_in: int = 10_000
    thinning: int = 5
    proposal_std: float | None = None
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        if self.n_samples < 1 or self.burn_in < 0 or self.thinning < 1:
            raise ValueError("invalid chain lengths")
        if self.proposal_std is not None and not 0.0 < self.proposal_std < math.inf:
            raise ValueError(
                f"proposal_std must be positive and finite, got {self.proposal_std:g}"
            )


# steps per block of random draws; the chain does not depend on it
_DRAW_BLOCK = 1024
# burn-in steps per adaptation of the proposal scale, and its target
_ADAPT_WINDOW = 500
_TARGET_ACCEPTANCE = 0.25


@dataclass(frozen=True)
class McmcResult:
    """Thinned samples of one or more chains, with their diagnostics.

    ``samples`` holds the chains one after another.  ``acceptance`` is
    pooled over the chains' post-burn-in steps and ``in_support`` over all
    their steps; ``warning`` is set when the pooled acceptance lies outside
    [0.05, 0.8].  ``chain_scales`` is the frozen proposal scale of each
    chain and ``proposal_scale`` their geometric mean (for one chain, its
    scale).  ``rhat`` is the split-R-hat of every coordinate over the
    chains' halves (:func:`split_rhat`).
    """

    samples: np.ndarray
    acceptance: float
    warning: bool
    in_support: float
    proposal_scale: float
    chain_scales: tuple[float, ...]
    rhat: np.ndarray


class _Chain(NamedTuple):
    """One chain's retained samples, with the counts that pool into a result."""

    samples: np.ndarray
    accepted: int  # acceptances after burn-in
    inside: int  # proposals inside the support, over all steps
    steps: int
    burn_in: int
    scale: float  # the scale after burn-in


def split_rhat(chains) -> np.ndarray:
    """Split-R-hat of every coordinate (Vehtari, Gelman, Simpson, Carpenter
    & Buerkner 2021, without rank normalization).

    Each (draws, dims) chain gives its first and its last h draws, h half
    the shortest chain's length, and R-hat = sqrt(V+ / W) over those
    halves, with W their mean variance and V+ = (h - 1)/h W plus the
    variance of their means.  A coordinate that never moves within a half
    (W = 0), or chains shorter than 4 draws, give inf: the chains cannot
    show that they mixed.
    """
    chains = [np.asarray(c, dtype=np.float64) for c in chains]
    h = min(c.shape[0] for c in chains) // 2
    rhat = np.full(chains[0].shape[1], math.inf)
    if h < 2:
        return rhat
    ones = np.ones(h)
    # each half shifted by its first draw, so that a coordinate that never
    # moves sums to exactly 0; one reused buffer and BLAS sums, because
    # ndarray.var allocates and reduces along rows, several times slower
    shifted = np.empty((h, rhat.size))
    means, within = [], 0.0
    for part in (p for c in chains for p in (c[:h], c[-h:])):
        np.subtract(part, part[0], out=shifted)
        sums = ones @ shifted
        means.append(part[0] + sums / h)
        within = within + np.maximum(
            np.einsum("ij,ij->j", shifted, shifted) - sums * sums / h, 0.0
        )
    within = within / (len(means) * (h - 1))
    var_plus = (h - 1) / h * within + np.var(means, axis=0, ddof=1)
    np.divide(var_plus, within, out=rhat, where=within > 0.0)
    return np.sqrt(rhat, out=rhat)


def _pooled(chains: list[_Chain]) -> McmcResult:
    """One result from the chains, with the acceptance warning of the pool."""
    post = sum(c.steps - c.burn_in for c in chains)
    rate = sum(c.accepted for c in chains) / post
    warn = not 0.05 <= rate <= 0.8
    if warn:
        warnings.warn(f"MCMC acceptance rate {rate:.3f} outside [0.05, 0.8]")
    scales = tuple(c.scale for c in chains)
    return McmcResult(
        np.concatenate([c.samples for c in chains]),
        rate,
        warn,
        sum(c.inside for c in chains) / sum(c.steps for c in chains),
        math.prod(scales) ** (1.0 / len(scales)),
        scales,
        split_rhat([c.samples for c in chains]),
    )


def correlated_increments(z: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Rows z_i mapped to factor @ z_i, one column of the factor at a time.

    Entry k of a row is the sum of factor[k, j] z_ij in the order of j,
    whatever the number of rows, so a chain does not depend on how many
    steps are drawn together (a BLAS product may round a row differently
    for another number of rows).  A column is applied only between its
    first and last nonzero entry; the zero products left out change no sum.
    """
    zt = np.ascontiguousarray(z.T)
    out = np.zeros_like(zt)
    for j in range(factor.shape[1]):
        rows = np.flatnonzero(factor[:, j])
        if rows.size:
            a, b = rows[0], rows[-1] + 1
            out[a:b] += factor[a:b, j, None] * zt[j]
    return out.T


def random_walk_metropolis(
    log_density, start, config: McmcConfig, factor=None, reflect: slice = slice(0)
) -> McmcResult:
    """Metropolis sampling with a Gaussian proposal of covariance s^2 F F^T.

    F is ``factor`` (the identity by default) and s the proposal scale.
    Coordinates in the ``reflect`` slice are folded back into [-1, 1] by
    p -> 1 - |((p + 1) mod 4) - 2|; the folded kernel is symmetric only if
    each of them is drawn independently of all others, so a ``factor``
    that couples one of them with another coordinate raises ValueError.
    Any other proposal outside the support (log density -inf) is rejected
    without further evaluation; ``in_support`` is the share of all
    proposals inside it, after the fold.

    The scale starts at ``config.proposal_std``, or 2.38/sqrt(d) if that
    is None.  After every full window of ``_ADAPT_WINDOW`` burn-in steps it
    is multiplied by exp(2 (a - 0.25)), with a the window's acceptance
    rate.  At the end of burn-in it is set to the geometric mean of the
    scales set after the windows of the burn-in's second half (windows
    k > K // 2 of K full windows), so that the acceptance noise of the
    last window alone does not decide it; it then stays fixed and is
    returned as ``proposal_scale``.  Random numbers come in blocks from
    two child streams spawned from ``config.seed``: one gives the
    increments F z, the other one uniform u per step (1 - U for a draw U
    in [0, 1), so log u is finite), and a step accepts when the change of
    the log density is at least log u.  Numpy fills a block exactly as it draws
    one value after another, and :func:`correlated_increments` maps each
    row alone, so the chain does not depend on the block size.  Runs
    burn_in + n_samples * thinning iterations and keeps every thinning-th
    state after burn-in.  The acceptance rate is measured over the
    post-burn-in phase; a rate outside [0.05, 0.8] sets the warning flag.
    """
    return _pooled([_metropolis(log_density, start, config, factor, reflect)])


def _metropolis(log_density, start, config, factor, reflect) -> _Chain:
    """The chain of :func:`random_walk_metropolis`, before pooling."""
    y = np.asarray(start, dtype=np.float64).copy()
    n_dim = y.shape[0]
    factor = np.eye(n_dim) if factor is None else np.asarray(factor, dtype=np.float64)
    if factor.shape != (n_dim, n_dim):
        raise ValueError(f"proposal factor must be {n_dim} x {n_dim}")
    lo, hi, stride = reflect.indices(n_dim)
    if stride != 1:
        raise ValueError("reflected coordinates must form a contiguous slice")
    coupling = factor - np.diag(np.diag(factor))
    if coupling[lo:hi].any() or coupling[:, lo:hi].any():
        raise ValueError("a reflected coordinate is drawn jointly with another one")
    fold = lo < hi
    lp = float(log_density(y))
    if not math.isfinite(lp):
        raise ValueError("chain start lies outside the posterior support")
    steps, uniforms = np.random.default_rng(config.seed).spawn(2)
    scale = config.proposal_std
    if scale is None:
        scale = 2.38 / math.sqrt(n_dim)
    burn_in, thinning = config.burn_in, config.thinning
    total = burn_in + config.n_samples * thinning
    samples = np.empty((config.n_samples, n_dim))
    # acceptances counted over all steps, and their count at the last mark
    accepted = marked = 0
    kept = 0
    inside = 0
    # the adaptations after this many steps enter the frozen scale
    late = burn_in // _ADAPT_WINDOW // 2 * _ADAPT_WINDOW
    log_sum = 0.0
    n_late = 0
    for t0 in range(0, total, _DRAW_BLOCK):
        n = min(_DRAW_BLOCK, total - t0)
        raw = correlated_increments(steps.standard_normal((n, n_dim)), factor)
        incs = raw * scale
        log_us = np.log1p(-uniforms.random(n)).tolist()
        for i in range(n):
            t = t0 + i
            prop = y + incs[i]
            if fold:
                k = lo
                for v in prop[lo:hi].tolist():
                    if not -1.0 <= v <= 1.0:
                        prop[k] = 1.0 - abs((v + 1.0) % 4.0 - 2.0)
                    k += 1
            lp_new = log_density(prop)
            if lp_new > -math.inf:
                inside += 1
                if lp_new - lp >= log_us[i]:
                    y, lp = prop, float(lp_new)
                    accepted += 1
            if t >= burn_in:
                if (t - burn_in + 1) % thinning == 0:
                    samples[kept] = y
                    kept += 1
            elif (t + 1) % _ADAPT_WINDOW == 0:
                # a full window of burn-in ends with this step
                rate = (accepted - marked) / _ADAPT_WINDOW
                scale *= math.exp(2.0 * (rate - _TARGET_ACCEPTANCE))
                if t >= late:
                    log_sum += math.log(scale)
                    n_late += 1
                np.multiply(raw[i + 1 :], scale, out=incs[i + 1 :])
                marked = accepted
            if t + 1 == burn_in:
                marked = accepted
                if n_late:
                    scale = math.exp(log_sum / n_late)
                    np.multiply(raw[i + 1 :], scale, out=incs[i + 1 :])
    return _Chain(samples, accepted - marked, inside, total, burn_in, scale)


def laplace_proposal(posterior: Posterior, y: np.ndarray) -> np.ndarray:
    """Proposal factor of the chain from the Laplace covariance at y.

    C = (J^T J + I/4)^{-1}, with J the residual Jacobian at y; the I/4
    bounds every proposal standard deviation by 2, one cube width, so C
    exists even where a contact leaves the data unchanged.  The factor is
    the Cholesky factor of the pixel block C_PP beside the diagonal
    sqrt(diag C)_CC of the contacts, which the chain reflects.
    """
    jac = posterior.residual_jacobian(y)
    cov = np.linalg.inv(jac.T @ jac + 0.25 * np.eye(posterior.n_params))
    L = posterior.n_pixels
    factor = np.diag(np.sqrt(np.diag(cov)))
    factor[:L, :L] = np.linalg.cholesky(cov[:L, :L])
    return factor


# whether chain 1 can run in a forked child; otherwise it runs after chain 0
_FORK = "fork" in multiprocessing.get_all_start_methods()


def mcmc_sample(posterior: Posterior, config: McmcConfig, start=None) -> McmcResult:
    """Two Laplace-scaled chains on a posterior (start defaults to 0).

    Both chains start at ``start`` with the proposal factor of
    :func:`laplace_proposal` there, and the contacts are the reflected
    coordinates.  Chain c is seeded by child c of
    ``SeedSequence(config.seed).spawn(2)``, runs the full burn-in with its
    own adaptation, and keeps ceil(n/2) (chain 0) or floor(n/2) (chain 1)
    of the ``config.n_samples`` samples; with n = 1 only chain 0 runs.
    The result pools them as :class:`McmcResult` describes, and the
    acceptance warning is raised here, once, from the pooled rate.

    Chain 0 runs in this process and chain 1 at the same time in a forked
    child, which inherits the posterior and sends back its chain, or the
    exception it raised, over a pipe.  The child is always joined, and
    terminated first if chain 0 raised.  Where fork is unavailable chain 1
    runs after chain 0 here, with the same bytes.
    """
    y0 = np.zeros(posterior.n_params) if start is None else np.asarray(start, float)
    # before the Jacobian, which would extrapolate outside the cube
    if not math.isfinite(posterior.log_density(y0)):
        raise ValueError("chain start lies outside the posterior support")
    factor = laplace_proposal(posterior, y0)
    reflect = slice(posterior.n_pixels, None)
    n = config.n_samples
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    configs = [
        replace(config, n_samples=share, seed=seed)
        for share, seed in zip((n - n // 2, n // 2), seeds)
        if share
    ]

    def run(cfg):
        return _metropolis(posterior.log_density, y0, cfg, factor, reflect)

    if len(configs) == 1 or not _FORK:
        return _pooled([run(cfg) for cfg in configs])
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_send_chain, args=(run, configs[1], sender))
    child.start()
    sender.close()
    try:
        first = run(configs[0])
        try:
            second = receiver.recv()
        except EOFError:
            second = None
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        receiver.close()
    if second is None:
        raise RuntimeError(
            "the second chain's process ended without a result "
            f"(exit code {child.exitcode})"
        )
    if isinstance(second, BaseException):
        raise second
    return _pooled([first, second])


def _send_chain(run, config: McmcConfig, sender) -> None:
    """Body of the child process: run one chain, send it or its exception."""
    try:
        outcome = run(config)
    except BaseException as exc:  # the caller re-raises it
        outcome = exc
    # one that does not pickle fails here, and the caller sees the pipe end
    sender.send(outcome)
    sender.close()


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


# largest split-R-hat that counts as mixed (Vehtari et al. 2021)
_RHAT_LIMIT = 1.01


def reconstruct(
    posterior: Posterior,
    config: McmcConfig | None = None,
    start=None,
) -> Estimates:
    """MAP estimate, optionally followed by a Metropolis chain for CM/SD.

    With ``config=None`` only the MAP is computed.  The chains start from
    the MAP point.  The diagnostics carry the prior's jitter and condition
    number (see ``SmoothnessPrior``) as ``prior_jitter`` and
    ``prior_condition``.  ``rhat_max`` is the largest split-R-hat over the
    coordinates; above 1.01 (Vehtari et al. 2021) the chains have not been
    shown to mix, and a warning names the remedy.
    """
    bounds = posterior.surrogate.bounds
    map_res = map_estimate(posterior, start=start)
    sample_map = params_from_y(map_res.y, bounds)
    diagnostics = {
        "map_objective": map_res.objective,
        "map_iterations": map_res.iterations,
        "map_converged": map_res.converged,
        "prior_jitter": posterior.prior.jitter,
        "prior_condition": posterior.prior.condition,
    }
    kwargs = {}
    if config is not None:
        chain = mcmc_sample(posterior, config, start=map_res.y)
        cm, stabilization = cm_sd_estimates(chain.samples, bounds)
        kwargs = cm
        diagnostics.update(
            acceptance=chain.acceptance,
            in_support=chain.in_support,
            proposal_scale=chain.proposal_scale,
            chain_scales=list(chain.chain_scales),
            n=chain.samples.shape[0],
            rhat_max=float(chain.rhat.max()),
            stabilization=stabilization,
        )
        if not diagnostics["rhat_max"] <= _RHAT_LIMIT:
            warnings.warn(
                f"split R-hat {diagnostics['rhat_max']:.4f} above {_RHAT_LIMIT}: "
                "the chains have not been shown to mix; raise the number of "
                "retained samples (--samples)"
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
    raw = read_json(path)
    try:
        opt = {
            name: np.asarray(raw[name], dtype=np.float64)
            for name in ("sigma_cm", "sigma_sd", "zeta_cm", "zeta_sd")
            if name in raw
        }
        maps = {
            name: np.asarray(raw[name], dtype=np.float64)
            for name in ("y_map", "sigma_map", "zeta_map")
        }
        diagnostics = dict(raw.get("diagnostics", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed estimates file ({exc})") from exc
    require_finite(path, **maps, **opt)
    return Estimates(**maps, diagnostics=diagnostics, **opt)
