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
residual, Jacobian, log density and chain step all evaluate that form.

Point estimates: affine-scaled Levenberg-Marquardt for the MAP, Metropolis
for conditional-mean and spread estimates.  The chain's proposal is scaled
by the Laplace covariance C = (J^T J + I/4)^{-1} at its start (the MAP in
``reconstruct``): the pixels move jointly with covariance C_PP, the
contacts independently with the standard deviations sqrt(diag C)_CC and
are reflected into [-1, 1].  A reflected Gaussian kernel is symmetric only
in coordinates drawn independently of all others, which is why the
factor of ``laplace_proposal`` is diagonal in the contacts and the
pixels are not reflected: a pixel proposal outside the cube is rejected.
The chain sets the common scale itself: it starts at 2.38/sqrt(d)
(Roberts, Gelman & Gilks 1997) and moves only after each full window of
the burn-in, toward an acceptance of 0.25 (Haario, Saksman & Tamminen
2001), so the start decides only how many windows that takes.  After the
burn-in it is frozen at the geometric mean of its values over the
burn-in's second half, as dual averaging freezes its averaged iterate
(Hoffman & Gelman 2014).  The chain draws its random numbers in blocks
from two child streams of its seed, the proposal increments from one and
one uniform u per step from the other, and accepts a step when the log
density rises by at least log u.  One step (``Posterior.step``) writes
the proposal into the posterior's kept point [1, y] and reads it back as
Python floats once: a pixel outside the cube rejects it at that cost,
the contacts that left the cube are folded back on the same floats, and
a proposal inside the cube costs Q gathers of [1, y] that form m+(y),
one product with A' and one dot product.  Each block of increments is
checked once for non-finite entries, and a step with one is rejected
unevaluated.

``mcmc_sample`` runs two such chains from the same start, each with its
own child seed, burn-in and adaptation and half of the retained samples,
the second in a forked child process at the same time as the first.  Their
split-R-hat over the four half-chains (Vehtari, Gelman, Simpson, Carpenter
& Buerkner 2021) is the only verdict on whether they mixed, and so on
whether their conditional mean and spread can be trusted.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .det_cem import MeasurementSet, noise_level, params_from_y
from .fem import ParameterBounds
from .geometry import read_json, require_finite, write_json
from .surrogate import SgfemSurrogate, monomial_jacobian, monomials


@dataclass(frozen=True)
class SmoothnessPrior:
    """Zero-mean Gaussian prior with squared-exponential seed covariance.

    ``whiten`` is W = Lambda^{-1/2} V^T from the eigenpairs of ``cov``, so
    that y^T cov^{-1} y = |W y|^2.  ``jitter`` records whether
    ``build_prior_cov`` added its jitter; ``condition`` is the 2-norm
    condition number of ``cov``, jitter included.
    """

    cov: np.ndarray
    whiten: np.ndarray
    jitter: bool
    condition: float


def build_prior_cov(seeds, corr_length: float, eta: float) -> SmoothnessPrior:
    """Covariance eta^2 exp(-|r_l - r_l'|^2 / (2 s^2)) over pixel seeds.

    One eigendecomposition of the kernel exp(...) gives the whitening, the
    condition number and the jitter: 1e-10 eta^2 is added to every
    eigenvalue when the kernel is rank-deficient by numpy's ``matrix_rank``
    tolerance, which eta does not change.  A spectrum still not positive
    is reported (duplicate or near-duplicate seeds).
    """
    for name, value in (("correlation length", corr_length), ("eta", eta)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value:g}")
    seeds = np.asarray(seeds, dtype=np.float64).reshape(-1, 2)
    if not np.isfinite(seeds).all():
        raise ValueError("pixel seeds must be finite")
    d2 = ((seeds[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2)
    kernel = np.exp(-d2 / (2.0 * corr_length**2))
    lam, vecs = np.linalg.eigh(kernel)
    jitter = bool(lam[0] <= lam.size * np.finfo(np.float64).eps * lam[-1])
    lam += jitter * 1e-10
    if not lam[0] > 0.0:
        raise ValueError("prior covariance not positive definite even with jitter; "
                         "check for duplicate pixel seeds")
    cov = eta**2 * kernel + jitter * 1e-10 * eta**2 * np.eye(lam.size)
    whiten = vecs.T / (eta * np.sqrt(lam))[:, None]
    return SmoothnessPrior(cov, whiten, jitter, float(lam[-1] / lam[0]))


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
    subtracted from its first column.  ``noise_std`` is xi (mV), positive and finite.
    """

    surrogate: SgfemSurrogate
    data: np.ndarray
    noise_std: float
    prior: SmoothnessPrior
    _whitened: np.ndarray = field(init=False, repr=False)
    _slots: list[np.ndarray] = field(init=False, repr=False)
    # the extended point [1, y] that log_density and step fill in place, so
    # threads must not share one posterior
    _ext: np.ndarray = field(init=False, repr=False)
    _shape: tuple[int] = field(init=False, repr=False)
    _n_pixels: int = field(init=False, repr=False)
    # the view ext[1:] that step writes the chain's proposal into
    proposal: np.ndarray = field(init=False, repr=False)

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
        xi = self.noise_std
        if not 0.0 < xi < math.inf:
            raise ValueError(f"noise_std must be positive and finite, got {xi:g}")
        inv_std = 1.0 / xi
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
        self._n_pixels = L
        self.proposal = self._ext[1:]

    @property
    def n_params(self) -> int:
        return self.surrogate.n_params

    @property
    def n_pixels(self) -> int:
        return self.surrogate.n_pixels

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

        The cube test runs on Python floats; a point inside is copied into
        the kept point [1, y] for :meth:`_kept_log_density`.
        """
        if y.shape != self._shape:
            raise ValueError(f"expected {self.n_params} parameters, got {y.shape}")
        # max and min skip a NaN that is not first, the sum does not; an
        # infinite entry fails both tests
        v = y.tolist()
        if not (max(v) <= 1.0 and min(v) >= -1.0 and math.isfinite(sum(v))):
            return -math.inf
        self._ext[1:] = y
        return self._kept_log_density()

    def step(self, y: np.ndarray, inc: np.ndarray) -> float:
        """Log density of the chain's proposal y + inc, left in ``proposal``.

        The per-step evaluator of :func:`mcmc_sample`'s chains.  It writes
        y + inc into the kept point [1, y] and turns it into Python floats
        once.  A pixel outside [-1, 1] rejects the proposal (-inf) before
        any other work; a contact outside is folded back on those floats
        by :func:`_fold`.  Inside the cube it costs what
        :meth:`log_density` costs there, with the same bytes.  y must lie
        in the cube and inc must be finite (the chain rejects a non-finite
        increment without this call), so the proposal is finite.
        """
        point = self.proposal
        np.add(y, inc, out=point)
        v = point.tolist()
        n_pixels = self._n_pixels
        for p in v[:n_pixels]:
            if not -1.0 <= p <= 1.0:
                return -math.inf
        for k in range(n_pixels, len(v)):
            p = v[k]
            if not -1.0 <= p <= 1.0:
                point[k] = _fold(p)
        return self._kept_log_density()

    def _kept_log_density(self) -> float:
        """-F/2 at the kept point [1, y], which lies in the cube: the gathers
        of :func:`surrogate.monomials` that form m+, then one product with
        A'."""
        ext = self._ext
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

    The noise level xi is ``det_cem.noise_level`` of the data (``noise_pct``
    1 if neither setting is given) and must be positive, or is refused by
    its setting; the prior spread is ``eta_factor`` times xi, and
    ``eta_factor`` must be positive and finite.  The measurement patterns
    must match the surrogate's.
    """
    if measurements.patterns.shape != surr.patterns.shape or not np.allclose(
        measurements.patterns, surr.patterns, rtol=0.0, atol=1e-12
    ):
        raise ValueError("current patterns of data and surrogate differ")
    if not 0.0 < eta_factor < math.inf:
        raise ValueError(f"eta_factor must be positive and finite, got {eta_factor:g}")
    if noise_std is None and noise_pct is None:
        noise_pct = 1.0
    level = noise_level(measurements.voltages, noise_std, noise_pct)
    if not 0.0 < level < math.inf:
        setting = "noise_std" if noise_pct is None else f"noise_pct {noise_pct:g}"
        raise ValueError(f"noise level from {setting} must be positive, got {level:g}")
    prior = build_prior_cov(surr.seeds, corr_length, eta_factor * level)
    return Posterior(surr, measurements.voltages.ravel(), level, prior)


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

    The chain sets its own proposal scale: it starts at 2.38/sqrt(d) for d
    parameters and moves only after each full window of the ``burn_in``
    steps (:func:`_metropolis`).  ``seed`` seeds numpy's ``default_rng``;
    :func:`mcmc_sample` gives each of its chains a child ``SeedSequence``
    of it.  An integer seed must be nonnegative.
    """

    n_samples: int = 50_000
    burn_in: int = 10_000
    thinning: int = 5
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        for name, least in (("n_samples", 1), ("burn_in", 0), ("thinning", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
        # an integer is told apart first, so a MAP-only run, which checks
        # the config but draws nothing, never loads numpy.random
        seed = self.seed
        is_int = isinstance(seed, (int, np.integer))
        if (is_int or not isinstance(seed, np.random.SeedSequence)) and seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")


# steps per block of random draws; the chain does not depend on it
_DRAW_BLOCK = 1024
# burn-in steps per adaptation of the proposal scale, and its target
_ADAPT_WINDOW = 500
_TARGET_ACCEPTANCE = 0.25


@dataclass(frozen=True)
class McmcResult:
    """Thinned samples of one or more chains, with their diagnostics.

    ``samples`` holds the chains one after another.  ``acceptance`` is
    pooled over the chains' post-burn-in steps, where a rate outside
    [0.05, 0.8] warns, and ``in_support`` over all their steps.
    ``chain_scales`` is the proposal scale each chain froze at the end of
    its burn-in, in units of the proposal factor; a chain whose burn-in
    holds no full adaptation window keeps its start, 2.38/sqrt(d).
    ``rhat`` is the split-R-hat of every coordinate over the chains'
    halves (:func:`split_rhat`), the verdict on their mixing.
    """

    samples: np.ndarray
    acceptance: float
    in_support: float
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
    if not 0.05 <= rate <= 0.8:
        warnings.warn(f"MCMC acceptance rate {rate:.3f} outside [0.05, 0.8]")
    return McmcResult(
        np.concatenate([c.samples for c in chains]),
        rate,
        sum(c.inside for c in chains) / sum(c.steps for c in chains),
        tuple(c.scale for c in chains),
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


def _fold(p: float) -> float:
    """p folded back into [-1, 1]: 1 - |((p + 1) mod 4) - 2|."""
    return 1.0 - abs((p + 1.0) % 4.0 - 2.0)


def _scaled(raw: np.ndarray, scale: float) -> tuple[np.ndarray, list[bool]]:
    """A block of increments at one scale, and whether each row is finite."""
    incs = raw * scale
    return incs, np.isfinite(incs).all(axis=1).tolist()


def _metropolis(target, start, config: McmcConfig, factor: np.ndarray) -> _Chain:
    """One Metropolis chain with a Gaussian proposal of covariance s^2 F F^T.

    F is ``factor`` and s the proposal scale.  ``target`` has
    ``log_density(y)``, which evaluates the start, and the per-step
    evaluator ``step(y, inc)``, which returns the log density of y + inc
    (-inf outside the support) and leaves that proposal, with any
    coordinates it folds, in the array ``target.proposal``.  The state y
    stays finite, so a proposal is finite exactly where its increment is:
    a non-finite increment is rejected without a call to ``step``.

    The scale starts at 2.38/sqrt(d); a caller that wants another start
    scales F.  After every full window of ``_ADAPT_WINDOW`` burn-in steps it
    is multiplied by exp(2 (a - 0.25)), with a the window's acceptance
    rate.  At the end of burn-in it is set to the geometric mean of the
    scales set after the windows of the burn-in's second half (windows
    k > K // 2 of K full windows), so that the acceptance noise of the
    last window alone does not decide it; it then stays fixed.  Random
    numbers come in blocks from two child streams spawned from
    ``config.seed``: one gives the increments F z, the other one uniform
    u per step (1 - U for a draw U in [0, 1), so log u is finite), and a
    step accepts when the change of the log density is at least log u.
    Numpy fills a block exactly as it draws one value after another, and
    :func:`correlated_increments` maps each row alone, so the chain does
    not depend on the block size.  Runs burn_in + n_samples * thinning
    iterations and keeps every thinning-th state after burn-in; the
    acceptances are counted after burn-in, the proposals inside the
    support over all steps.
    """
    y = np.asarray(start, dtype=np.float64).copy()
    n_dim = y.shape[0]
    lp = float(target.log_density(y))
    if not math.isfinite(lp):
        raise ValueError("chain start lies outside the posterior support")
    step, proposal = target.step, target.proposal
    steps, uniforms = np.random.default_rng(config.seed).spawn(2)
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
        incs, finite = _scaled(raw, scale)
        log_us = np.log1p(-uniforms.random(n)).tolist()
        for i in range(n):
            t = t0 + i
            lp_new = step(y, incs[i]) if finite[i] else -math.inf
            if lp_new > -math.inf:
                inside += 1
                if lp_new - lp >= log_us[i]:
                    y[:] = proposal
                    lp = float(lp_new)
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
                incs, finite = _scaled(raw, scale)
                marked = accepted
            if t + 1 == burn_in:
                marked = accepted
                if n_late:
                    scale = math.exp(log_sum / n_late)
                    incs, finite = _scaled(raw, scale)
    return _Chain(samples, accepted - marked, inside, total, burn_in, scale)


def laplace_proposal(posterior: Posterior, y: np.ndarray) -> np.ndarray:
    """Proposal factor of the chain from the Laplace covariance at y.

    C = P^{-1} with the precision P = J^T J + I/4, J the residual Jacobian
    at y; the I/4 bounds every proposal standard deviation by 2, one cube
    width, so C exists even where a contact leaves the data unchanged.
    The factor is the lower Cholesky factor of the pixel block C_PP beside
    the diagonal sqrt(diag C)_CC of the contacts, which the chain reflects.
    Both come from the Cholesky factor R of P with the contacts first and
    the pixels reversed, without forming C, which can be too ill
    conditioned to factor: in that order C = R^{-T} R^{-1}, so the pixels'
    trailing block of the upper triangular R^{-T}, back in pixel order,
    factors C_PP, and the column norms of R^{-1} are sqrt(diag C).
    """
    jac = posterior.residual_jacobian(y)
    L, n = posterior.n_pixels, posterior.n_params
    jac = np.concatenate([jac[:, L:], jac[:, :L][:, ::-1]], axis=1)
    inv = np.linalg.inv(np.linalg.cholesky(jac.T @ jac + 0.25 * np.eye(n)))
    sd = np.sqrt(np.einsum("ij,ij->j", inv, inv))
    factor = np.diag(np.r_[np.zeros(L), sd[: n - L]])
    # tril clears the rounding above the diagonal of inv, lower triangular
    factor[:L, :L] = np.tril(inv[n - L :, n - L :].T[::-1, ::-1])
    return factor


# whether chain 1 can run in a forked child; otherwise it runs after chain 0
_FORK = hasattr(os, "fork")


def mcmc_sample(posterior: Posterior, config: McmcConfig, start=None) -> McmcResult:
    """Two Laplace-scaled chains on a posterior (start defaults to 0).

    Both chains start at ``start`` with the proposal factor of
    :func:`laplace_proposal` there, which draws each contact alone, and
    run :func:`_metropolis` with one call of :meth:`Posterior.step` per
    step, which folds the contacts.  Chain c is seeded by child c of
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
    n = config.n_samples
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    configs = [
        replace(config, n_samples=share, seed=seed)
        for share, seed in zip((n - n // 2, n // 2), seeds)
        if share
    ]

    def run(cfg):
        return _metropolis(posterior, y0, cfg, factor)

    if len(configs) == 1 or not _FORK:
        return _pooled([run(cfg) for cfg in configs])
    # imported only here: nothing else in the package needs it
    import multiprocessing

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


def cm_sd_estimates(chain: np.ndarray, bounds: ParameterBounds) -> dict:
    """Sample means and spreads of the chain, mapped to physical units.

    Returns the conditional-mean/spread arrays ``sigma_cm``, ``sigma_sd``,
    ``zeta_cm`` and ``zeta_sd``.  They are trustworthy only when the chains
    mixed, which their split-R-hat (:func:`split_rhat`) tells.
    """
    chain = np.asarray(chain, dtype=np.float64)
    L = bounds.n_pixels
    cm = params_from_y(chain.mean(axis=0), bounds)
    std = chain.std(axis=0)
    return {
        "sigma_cm": cm.sigma,
        "sigma_sd": bounds.sigma * std[:L],
        "zeta_cm": cm.zeta,
        "zeta_sd": bounds.zeta_half * std[L:],
    }


# largest split-R-hat that counts as mixed (Vehtari et al. 2021)
_RHAT_LIMIT = 1.01


def reconstruct(posterior: Posterior, config: McmcConfig | None = None) -> Estimates:
    """MAP estimate, optionally followed by a Metropolis chain for CM/SD.

    With ``config=None`` only the MAP is computed.  The chains start from
    the MAP point.  The diagnostics carry the prior's jitter and condition
    number (see ``SmoothnessPrior``) as ``prior_jitter`` and
    ``prior_condition``.  ``rhat_max`` is the largest split-R-hat over the
    coordinates; above 1.01 (Vehtari et al. 2021) the chains have not been
    shown to mix, and a warning names the remedy.
    """
    bounds = posterior.surrogate.bounds
    map_res = map_estimate(posterior)
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
        kwargs = cm_sd_estimates(chain.samples, bounds)
        diagnostics.update(
            acceptance=chain.acceptance,
            in_support=chain.in_support,
            chain_scales=list(chain.chain_scales),
            n=chain.samples.shape[0],
            rhat_max=float(chain.rhat.max()),
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


# strict JSON (RFC 8259) has no NaN or infinity, so a non-finite diagnostic,
# such as the split-R-hat of chains too short to split, is written as one of
# these strings
_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def save_estimates(est: Estimates, path) -> None:
    """Write estimates to strict JSON; CM/SD fields appear only when present.

    A non-finite diagnostic is written as the string "inf", "-inf" or "nan",
    which :func:`load_estimates` turns back into the float.
    """
    doc = {
        "y_map": est.y_map.tolist(),
        "sigma_map": est.sigma_map.tolist(),
        "zeta_map": est.zeta_map.tolist(),
    }
    for name in ("sigma_cm", "sigma_sd", "zeta_cm", "zeta_sd"):
        value = getattr(est, name)
        if value is not None:
            doc[name] = np.asarray(value).tolist()
    doc["diagnostics"] = diagnostics = dict(est.diagnostics)
    for name, value in diagnostics.items():
        if isinstance(value, float) and not math.isfinite(value):
            diagnostics[name] = str(float(value))
    write_json(doc, path, allow_nan=False)


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
        diagnostics = {
            name: _NON_FINITE.get(value, value) if isinstance(value, str) else value
            for name, value in dict(raw.get("diagnostics", {})).items()
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed estimates file ({exc})") from exc
    require_finite(path, **maps, **opt)
    return Estimates(**maps, diagnostics=diagnostics, **opt)
