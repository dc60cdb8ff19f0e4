"""Soft semantic clustering of unit embeddings.

Embeddings are centered and projected onto their leading principal
directions, then fit with full-covariance Gaussian mixtures via EM. The
component count is chosen by scanning K upward and accepting each model
only while the Bayesian Information Criterion keeps improving by a
relative margin. A hard k-means path exists for ablation comparisons.

Everything here is deterministic given the data and the configured seed:
k-means++ draws come from a seeded generator, restarts use spawned child
seeds, and all reductions run through fixed-order numpy sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

_EMPTY_COMPONENT_MASS = 1e-10


class NumericalError(Exception):
    """EM produced a non-finite likelihood or a non-PD covariance."""


@dataclass(frozen=True)
class ClusteringConfig:
    k_limit: int = 15
    bic_epsilon: float = 0.01
    cov_reg: float = 1e-5
    em_tol: float = 1e-4          # on mean per-point log-likelihood gain
    em_max_iter: int = 200
    n_init: int = 3
    seed: int = 0
    target_dim: int = 32

    def __post_init__(self) -> None:
        if self.k_limit < 2:
            raise ValueError("k_limit must be >= 2")
        for name in ("bic_epsilon", "cov_reg", "em_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("em_max_iter", "n_init", "target_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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


def _log_gaussian_prob(data: np.ndarray, params: GmmParams) -> np.ndarray:
    """log N(x | mu_k, Sigma_k) for every point and component, via Cholesky.

    All K covariances are factored in one stacked call; the log-determinants
    come from the stacked factor diagonals.
    """
    n, dim = data.shape
    k = params.n_components
    try:
        chol = np.linalg.cholesky(params.covariances)
    except np.linalg.LinAlgError:
        # Only the error path factors the components one by one to name j.
        for j, cov in enumerate(params.covariances):
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError as e:
                raise NumericalError(f"component {j} covariance not PD") from e
        raise
    log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    log_prob = np.empty((n, k), dtype=np.float64)
    const = dim * math.log(2.0 * math.pi)
    for j in range(k):
        dev = data - params.means[j]
        # fit_gmm and select_k reject non-finite data at entry.
        sol = solve_triangular(chol[j], dev.T, lower=True, check_finite=False)
        maha = np.sum(sol * sol, axis=0)
        log_prob[:, j] = -0.5 * (const + log_det[j] + maha)
    return log_prob


def _e_step(
    data: np.ndarray, params: GmmParams
) -> tuple[np.ndarray, float, np.ndarray]:
    weighted = _log_gaussian_prob(data, params) + np.log(params.weights)
    # Row-wise log-sum-exp with scipy.special.logsumexp's arithmetic: the
    # row maxima leave the sum and come back through log1p and the log of
    # their count, so each value is bit-identical to scipy's.
    top = weighted.max(axis=1, keepdims=True)
    if not np.isfinite(top).all():  # the shift below would turn it into NaN
        raise NumericalError("non-finite log-likelihood in E-step")
    at_top = weighted == top
    ties = at_top.sum(axis=1, dtype=np.float64)
    rest = np.exp(np.where(at_top, -np.inf, weighted - top)).sum(axis=1)
    point_ll = np.log1p(rest / ties) + np.log(ties) + top[:, 0]
    log_likelihood = float(point_ll.sum())
    if not math.isfinite(log_likelihood):
        raise NumericalError("non-finite log-likelihood in E-step")
    gamma = np.exp(weighted - point_ll[:, None])
    return gamma, log_likelihood, point_ll


def _m_step(
    data: np.ndarray, gamma: np.ndarray, point_ll: np.ndarray, cov_reg: float
) -> GmmParams:
    n, dim = data.shape
    mass = gamma.sum(axis=0)
    reg = cov_reg * np.eye(dim)

    empty = np.flatnonzero(mass < _EMPTY_COMPONENT_MASS)
    if empty.size:
        # Re-seed dead components at the points the current model explains
        # worst; each claims its point outright.
        gamma = gamma.copy()
        order = np.argsort(point_ll, kind="stable")
        for rank, j in enumerate(empty):
            target = int(order[rank % n])
            gamma[target, :] = 0.0
            gamma[target, j] = 1.0
        mass = np.maximum(gamma.sum(axis=0), _EMPTY_COMPONENT_MASS)

    weights = mass / mass.sum()
    means = (gamma.T @ data) / mass[:, None]
    devs = data[None, :, :] - means[:, None, :]  # (K, N, D)
    weighted_devs = gamma.T[:, :, None] * devs
    covariances = weighted_devs.transpose(0, 2, 1) @ devs / mass[:, None, None] + reg
    return GmmParams(weights=weights, means=means, covariances=covariances)


def _fit_single(
    data: np.ndarray, k: int, config: ClusteringConfig, seed: int
) -> GmmFit:
    n, dim = data.shape
    centers = kmeanspp_init(data, k, seed)
    base_cov = np.cov(data.T, ddof=0).reshape(dim, dim) + config.cov_reg * np.eye(dim)
    params = GmmParams(
        weights=np.full(k, 1.0 / k),
        means=centers,
        covariances=np.repeat(base_cov[None, :, :], k, axis=0),
    )
    trace: list[float] = []
    prev_ll: float | None = None
    converged = False
    for _ in range(config.em_max_iter):
        gamma, ll, point_ll = _e_step(data, params)
        trace.append(ll)
        if prev_ll is not None and (ll - prev_ll) / n < config.em_tol:
            converged = True
            break
        params = _m_step(data, gamma, point_ll, config.cov_reg)
        prev_ll = ll
    else:
        gamma, ll, _ = _e_step(data, params)
        trace.append(ll)
    return GmmFit(
        params=params,
        responsibilities=gamma,
        log_likelihood=trace[-1],
        trace=trace,
        converged=converged,
        n_iter=len(trace),
    )


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


def fit_gmm(
    data: np.ndarray, k: int, config: ClusteringConfig, seed: int | None = None
) -> GmmFit:
    """EM fit of a K-component full-covariance mixture.

    Runs n_init restarts from distinct k-means++ seedings and keeps the
    fit with the best final log-likelihood. Each EM iteration adds
    cov_reg to every covariance diagonal and stops once the mean
    per-point log-likelihood gain drops below em_tol. K=1 is closed form.
    """
    data = _finite_points(data)
    n = data.shape[0]
    if k > n:
        raise ValueError(f"cannot fit {k} components on {n} points")
    if k == 1:
        return _fit_k1(data, config.cov_reg)
    root = config.seed if seed is None else seed
    child_seeds = np.random.SeedSequence(root).generate_state(config.n_init)
    best: GmmFit | None = None
    for child in child_seeds:
        fit = _fit_single(data, k, config, int(child))
        if best is None or fit.log_likelihood > best.log_likelihood:
            best = fit
    assert best is not None
    return best


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


def select_k(data: np.ndarray, config: ClusteringConfig) -> SelectionResult:
    """Scan K upward and keep the last model that beat the BIC margin.

    The search runs K = 2 .. min(k_limit, max(2, floor(N/3)),
    floor(log2 N) + 1) and accepts a model only while its BIC improves on
    the previous accepted one by more than bic_epsilon * |previous|;
    otherwise it stops. Two points or fewer get the trivial single
    cluster with unit responsibilities.
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
        fit = fit_gmm(data, k, config, seed=config.seed + k)
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
