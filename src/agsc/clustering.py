"""Soft semantic clustering of unit embeddings.

Embeddings are centered and projected onto their leading principal
directions, then fit with full-covariance Gaussian mixtures via EM. The
component count is chosen by scanning K upward and accepting each model
only while the Bayesian Information Criterion keeps improving by a
relative margin. A hard k-means path exists for ablation comparisons.

Everything here is deterministic given the data and the seed argument:
k-means++ draws come from a seeded generator, restarts use spawned child
seeds, and all reductions run through fixed-order numpy sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs

_EMPTY_COMPONENT_MASS = 1e-10
N_INIT = 3  # EM restarts per K >= 2, best final log-likelihood kept
EM_MAX_ITER = 200

# LAPACK's triangular solve, called without solve_triangular's checks.
(_trtrs,) = get_lapack_funcs(("trtrs",), (np.empty((1, 1), dtype=np.float64),))


class NumericalError(Exception):
    """EM produced a non-finite likelihood or a non-PD covariance."""


@dataclass(frozen=True)
class ClusteringConfig:
    k_limit: int = 15
    bic_epsilon: float = 0.01
    cov_reg: float = 1e-5
    em_tol: float = 1e-4          # on mean per-point log-likelihood gain
    target_dim: int = 32

    def __post_init__(self) -> None:
        if self.k_limit < 2:
            raise ValueError("k_limit must be >= 2")
        for name in ("bic_epsilon", "cov_reg", "em_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.target_dim < 1:
            raise ValueError("target_dim must be >= 1")


@dataclass
class GmmParams:
    """Mixture parameters: weights on the simplex, means, full covariances."""

    weights: np.ndarray       # (K,)
    means: np.ndarray         # (K, D)
    covariances: np.ndarray   # (K, D, D)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass
class GmmFit:
    """A fitted mixture with its responsibilities and likelihood trace."""

    params: GmmParams
    responsibilities: np.ndarray  # (N, K), rows on the simplex
    log_likelihood: float
    trace: list[float] = field(default_factory=list)
    converged: bool = False
    n_iter: int = 0


@dataclass
class SelectionResult:
    """Outcome of the BIC scan: the accepted fit plus the scanned scores."""

    fit: GmmFit
    k_max: int
    bic_trace: list[tuple[int, float]] = field(default_factory=list)


def reduce_embeddings(data: np.ndarray, target_dim: int) -> np.ndarray:
    """Center the data and project it onto leading principal directions.

    The output dimension is min(target_dim, D, N-1); data already at or
    below the target keeps all its (centered) coordinates. Each principal
    direction has its largest-magnitude loading made positive so the
    projection is sign-deterministic.
    """
    data = np.asarray(data, dtype=np.float64)
    n, dim = data.shape
    centered = data - data.mean(axis=0)
    if dim <= target_dim:
        return centered
    rank_bound = max(n - 1, 1)
    out_dim = min(target_dim, dim, rank_bound)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:out_dim].copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return centered @ components.T


def kmeanspp_init(data: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded k-means++ center selection.

    The first center is uniform over points; each next one is drawn with
    probability proportional to squared distance from the nearest chosen
    center. If every remaining distance is zero (duplicate points), the
    draw falls back to uniform.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if k > n:
        raise ValueError(f"cannot place {k} centers on {n} points")
    rng = np.random.default_rng(seed)
    centers = np.empty((k, data.shape[1]), dtype=np.float64)
    centers[0] = data[rng.integers(n)]
    d2 = np.sum((data - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if not math.isfinite(total):
            raise NumericalError("non-finite squared distance in k-means++")
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = data[idx]
        d2 = np.minimum(d2, np.sum((data - centers[i]) ** 2, axis=1))
    return centers


def _stacked_log_prob(devs: np.ndarray, covariances: np.ndarray) -> np.ndarray:
    """log N(x | mu_k, Sigma_k) for every restart, point and component.

    devs[a, k] holds the points minus restart a's mean k, shape (A, K, N, D);
    a C-ordered devs is overwritten. covariances is (A, K, D, D) and is
    factored in one stacked call. The result is a C-ordered (A, N, K) array:
    responsibilities inherit its layout, and the M-step's sums over points
    run in a single restart's order only on that layout.
    """
    n_restarts, k, n, dim = devs.shape
    try:
        chol = np.linalg.cholesky(covariances)
    except np.linalg.LinAlgError:
        # Only the error path factors the components one by one to name j.
        for i, cov in enumerate(covariances.reshape(-1, dim, dim)):
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError as e:
                raise NumericalError(f"component {i % k} covariance not PD") from e
        raise
    log_det = 2.0 * np.log(np.diagonal(chol, axis1=2, axis2=3)).sum(axis=2)
    sols = np.ascontiguousarray(devs, dtype=np.float64)
    # With D = 0 there is nothing to solve (LAPACK would reject the empty
    # factor's leading dimension) and every distance is 0.
    for a in range(n_restarts if dim else 0):
        for j in range(k):
            # LAPACK wants Fortran order: the C-ordered lower factor's
            # transpose is its upper transpose, solved with trans=1, and
            # sols[a, j].T is solved in place. These are the arguments
            # solve_triangular would pass. A factor from a successful
            # Cholesky has a positive diagonal, so the solve cannot fail;
            # fit_gmm and select_k reject non-finite data at entry.
            _trtrs(chol[a, j].T, sols[a, j].T, lower=0, trans=1, overwrite_b=1)
    maha = np.square(sols, out=sols).sum(axis=3)  # (A, K, N)
    const = dim * math.log(2.0 * math.pi)
    log_prob = -0.5 * (const + log_det[:, :, None] + maha)
    return np.ascontiguousarray(log_prob.transpose(0, 2, 1))


def _stacked_e_step(
    log_prob: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, list[float], np.ndarray]:
    """Responsibilities (A, N, K), log-likelihoods and point log-likelihoods."""
    weighted = log_prob + np.log(weights)[:, None, :]
    # Row-wise log-sum-exp with scipy.special.logsumexp's arithmetic: the
    # row maxima leave the sum and come back through log1p and the log of
    # their count, so each value is bit-identical to scipy's.
    top = weighted.max(axis=2, keepdims=True)
    if not np.isfinite(top).all():  # the shift below would turn it into NaN
        raise NumericalError("non-finite log-likelihood in E-step")
    at_top = weighted == top
    ties = at_top.sum(axis=2, dtype=np.float64)
    rest = np.exp(np.where(at_top, -np.inf, weighted - top)).sum(axis=2)
    point_ll = np.log1p(rest / ties) + np.log(ties) + top[:, :, 0]
    log_likelihood = point_ll.sum(axis=1)
    if not np.isfinite(log_likelihood).all():
        raise NumericalError("non-finite log-likelihood in E-step")
    gamma = np.exp(weighted - point_ll[:, :, None])
    return gamma, log_likelihood.tolist(), point_ll


def _stacked_m_step(
    data: np.ndarray, gamma: np.ndarray, point_ll: np.ndarray, cov_reg: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weights, means, covariances and the devs of the new means, per restart."""
    n, dim = data.shape
    mass = gamma.sum(axis=1)
    dead = mass < _EMPTY_COMPONENT_MASS
    if dead.any():
        # Re-seed dead components at the points the current model explains
        # worst; each claims its point outright.
        gamma = gamma.copy()
        for a in np.flatnonzero(dead.any(axis=1)):
            order = np.argsort(point_ll[a], kind="stable")
            for rank, j in enumerate(np.flatnonzero(dead[a])):
                target = int(order[rank % n])
                gamma[a, target, :] = 0.0
                gamma[a, target, j] = 1.0
        # The identity for every restart that had no dead component.
        mass = np.maximum(gamma.sum(axis=1), _EMPTY_COMPONENT_MASS)

    weights = mass / mass.sum(axis=1, keepdims=True)
    gamma_t = gamma.transpose(0, 2, 1)  # (A, K, N)
    means = (gamma_t @ data) / mass[:, :, None]
    devs = data - means[:, :, None, :]  # (A, K, N, D)
    weighted_devs = gamma_t[:, :, :, None] * devs
    covariances = (
        weighted_devs.transpose(0, 1, 3, 2) @ devs / mass[:, :, None, None]
        + cov_reg * np.eye(dim)
    )
    return weights, means, covariances, devs


# A single parameter set is the one-restart case of the stacked steps.


def _log_gaussian_prob(data: np.ndarray, params: GmmParams) -> np.ndarray:
    devs = data - params.means[:, None, :]
    return _stacked_log_prob(devs[None], params.covariances[None])[0]


def _e_step(
    data: np.ndarray, params: GmmParams
) -> tuple[np.ndarray, float, np.ndarray]:
    log_prob = _log_gaussian_prob(data, params)
    gamma, ll, point_ll = _stacked_e_step(log_prob[None], params.weights[None])
    return gamma[0], ll[0], point_ll[0]


def _m_step(
    data: np.ndarray, gamma: np.ndarray, point_ll: np.ndarray, cov_reg: float
) -> GmmParams:
    weights, means, covariances, _ = _stacked_m_step(
        data, gamma[None], point_ll[None], cov_reg
    )
    return GmmParams(weights=weights[0], means=means[0], covariances=covariances[0])


def _fit_restarts(
    data: np.ndarray, k: int, config: ClusteringConfig, seeds: list[int]
) -> list[GmmFit]:
    """EM from one k-means++ seeding per seed, all restarts in lockstep.

    The restarts share each iteration's stacked arrays, and a restart
    leaves the batch once it converges, so each fit is bit-identical to
    running that restart alone.
    """
    n, dim = data.shape
    base_cov = np.cov(data.T, ddof=0).reshape(dim, dim) + config.cov_reg * np.eye(dim)
    means = np.stack([kmeanspp_init(data, k, seed) for seed in seeds])
    weights = np.full((len(seeds), k), 1.0 / k)
    covariances = np.broadcast_to(base_cov, (len(seeds), k, dim, dim)).copy()
    devs = data - means[:, :, None, :]
    live = list(range(len(seeds)))  # batch row -> restart
    traces: list[list[float]] = [[] for _ in seeds]
    fits: list[GmmFit | None] = [None] * len(seeds)

    def finish(row: int, gamma: np.ndarray, converged: bool) -> None:
        trace = traces[live[row]]
        fits[live[row]] = GmmFit(
            params=GmmParams(weights[row], means[row], covariances[row]),
            responsibilities=gamma[row],
            log_likelihood=trace[-1],
            trace=trace,
            converged=converged,
            n_iter=len(trace),
        )

    prev_ll: list[float] | None = None
    for _ in range(EM_MAX_ITER):
        log_prob = _stacked_log_prob(devs, covariances)
        gamma, ll, point_ll = _stacked_e_step(log_prob, weights)
        stay = []
        for row, value in enumerate(ll):
            traces[live[row]].append(value)
            if prev_ll is not None and (value - prev_ll[row]) / n < config.em_tol:
                finish(row, gamma, converged=True)
            else:
                stay.append(row)
        if not stay:
            break
        if len(stay) < len(live):
            live = [live[row] for row in stay]
            ll = [ll[row] for row in stay]
            gamma, point_ll = gamma[stay], point_ll[stay]
        weights, means, covariances, devs = _stacked_m_step(
            data, gamma, point_ll, config.cov_reg
        )
        prev_ll = ll
    else:
        gamma, ll, _ = _stacked_e_step(_stacked_log_prob(devs, covariances), weights)
        for row, value in enumerate(ll):
            traces[live[row]].append(value)
            finish(row, gamma, converged=False)
    return fits


def _finite_points(data) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if not np.isfinite(data).all():
        raise NumericalError("data contains a non-finite value")
    return data


def _fit_k1(data: np.ndarray, cov_reg: float) -> GmmFit:
    n, dim = data.shape
    mean = data.mean(axis=0)
    dev = data - mean
    cov = dev.T @ dev / n + cov_reg * np.eye(dim)
    params = GmmParams(
        weights=np.ones(1),
        means=mean[None, :],
        covariances=cov[None, :, :],
    )
    gamma, ll, _ = _e_step(data, params)
    return GmmFit(
        params=params,
        responsibilities=gamma,
        log_likelihood=ll,
        trace=[ll],
        converged=True,
        n_iter=1,
    )


def fit_gmm(data: np.ndarray, k: int, config: ClusteringConfig, seed: int = 0) -> GmmFit:
    """EM fit of a K-component full-covariance mixture.

    Runs N_INIT restarts from distinct k-means++ seedings, drawn from
    `seed`, and keeps the fit with the best final log-likelihood. Each EM
    iteration adds cov_reg to every covariance diagonal and stops once the
    mean per-point log-likelihood gain drops below em_tol, or after
    EM_MAX_ITER iterations. K=1 is closed form.
    """
    data = _finite_points(data)
    n = data.shape[0]
    if k > n:
        raise ValueError(f"cannot fit {k} components on {n} points")
    if k == 1:
        return _fit_k1(data, config.cov_reg)
    seeds = np.random.SeedSequence(seed).generate_state(N_INIT).tolist()
    fits = _fit_restarts(data, k, config, seeds)
    return max(fits, key=lambda fit: fit.log_likelihood)  # first of any ties


def bic(params: GmmParams, data: np.ndarray, log_likelihood: float) -> float:
    """Bayesian Information Criterion for a full-covariance mixture.

    p * ln(N) - 2 * log_likelihood with
    p = (K - 1) + K * D + K * D * (D + 1) / 2. Lower is better.
    """
    n = len(data)
    k = params.n_components
    d = params.dim
    p = (k - 1) + k * d + k * d * (d + 1) // 2
    return p * math.log(n) - 2.0 * log_likelihood


def _k_max(n: int, k_limit: int) -> int:
    k_density = max(2, n // 3)
    k_log = int(math.floor(math.log2(n))) + 1
    return min(k_limit, k_density, k_log)


def select_k(data: np.ndarray, config: ClusteringConfig, seed: int = 0) -> SelectionResult:
    """Scan K upward and keep the last model that beat the BIC margin.

    The search runs K = 2 .. min(k_limit, max(2, floor(N/3)),
    floor(log2 N) + 1) and accepts a model only while its BIC improves on
    the previous accepted one by more than bic_epsilon * |previous|;
    otherwise it stops. Two points or fewer get the trivial single
    cluster with unit responsibilities. The fit for K gets seed + K.
    """
    data = _finite_points(data)
    n = data.shape[0]
    if n <= 2:
        fit = _fit_k1(data, config.cov_reg)
        return SelectionResult(fit=fit, k_max=1, bic_trace=[])

    k_max = _k_max(n, config.k_limit)
    best: GmmFit | None = None
    bic_last = math.inf
    trace: list[tuple[int, float]] = []
    for k in range(2, k_max + 1):
        fit = fit_gmm(data, k, config, seed + k)
        score = bic(fit.params, data, fit.log_likelihood)
        trace.append((k, score))
        if best is None or score < bic_last - config.bic_epsilon * abs(bic_last):
            best = fit
            bic_last = score
        else:
            break
    assert best is not None
    return SelectionResult(fit=best, k_max=k_max, bic_trace=trace)


def kmeans_hard(data: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Lloyd's k-means from a k-means++ start; returns one-hot responsibilities.

    Iterates to an assignment fixpoint (or 200 rounds). An emptied
    cluster is relocated to the point currently farthest from its
    assigned center.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if k > n:
        raise ValueError(f"cannot place {k} clusters on {n} points")
    centers = kmeanspp_init(data, k, seed)
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(200):
        d2 = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            mask = new_labels == j
            if mask.any():
                centers[j] = data[mask].mean(axis=0)
            else:
                worst = int(d2[np.arange(n), new_labels].argmax())
                centers[j] = data[worst]
                new_labels[worst] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    gamma = np.zeros((n, k), dtype=np.float64)
    gamma[np.arange(n), labels] = 1.0
    return gamma
