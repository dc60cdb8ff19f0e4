"""Reduction, k-means++ seeding, GMM EM, BIC selection, hard k-means."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

import agsc
from agsc.clustering import (
    EM_MAX_ITER,
    N_INIT,
    ClusteringConfig,
    GmmFit,
    GmmParams,
    NumericalError,
    _e_step,
    _fit_restarts,
    _log_gaussian_prob,
    _m_step,
    _stacked_log_prob,
    bic,
    fit_gmm,
    kmeans_hard,
    kmeanspp_init,
    reduce_embeddings,
    select_k,
)

CFG = ClusteringConfig()


def blobs(rng, means, n_per, scale=1.0):
    parts = [rng.normal(loc=m, scale=scale, size=(n_per, len(m))) for m in means]
    return np.vstack(parts)


class TestReduce:
    def test_low_dim_is_centered_identity(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(10, 16))
        out = reduce_embeddings(data, target_dim=32)
        assert out.shape == (10, 16)
        np.testing.assert_allclose(out, data - data.mean(axis=0), atol=1e-12)

    def test_rank_bound_with_three_points(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3, 40))
        out = reduce_embeddings(data, target_dim=32)
        assert out.shape == (3, 2)

    def test_collinear_data_single_component(self):
        x = np.linspace(-3.0, 3.0, 12)
        data = np.stack([x, 2.0 * x], axis=1)  # the line y = 2x
        out = reduce_embeddings(data, target_dim=1)
        assert out.shape == (12, 1)
        # One direction explains all variance: total variance is preserved.
        total_var = ((data - data.mean(axis=0)) ** 2).sum()
        np.testing.assert_allclose((out**2).sum(), total_var, rtol=1e-12)
        # Closed form: projections are +/- distance along (1,2)/sqrt(5).
        expected = x * math.sqrt(5.0)
        np.testing.assert_allclose(np.sort(out[:, 0]), np.sort(expected), atol=1e-9)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(20, 50))
        a = reduce_embeddings(data, target_dim=8)
        b = reduce_embeddings(data.copy(), target_dim=8)
        np.testing.assert_array_equal(a, b)
        # Largest-magnitude loading positive => projections have a canonical
        # global sign; flipping the input flips outputs exactly.
        c = reduce_embeddings(-data, target_dim=8)
        np.testing.assert_allclose(np.abs(c), np.abs(a), atol=1e-9)

    def test_single_point(self):
        data = np.ones((1, 40))
        out = reduce_embeddings(data, target_dim=32)
        assert out.shape[0] == 1
        np.testing.assert_allclose(out, 0.0, atol=1e-12)


class TestKmeansppInit:
    PTS = np.array(
        [[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0], [10.0, 0.0], [10.0, 0.2]]
    )

    def test_k_equals_n_selects_every_point(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(5, 3))
        centers = kmeanspp_init(pts, 5, seed=11)
        got = {tuple(c) for c in centers}
        want = {tuple(p) for p in pts}
        assert got == want

    def test_duplicate_points_collapse(self):
        pts = np.tile([[2.0, -1.0]], (6, 1))
        centers = kmeanspp_init(pts, 3, seed=0)
        np.testing.assert_array_equal(centers, np.tile([[2.0, -1.0]], (3, 1)))

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            kmeanspp_init(self.PTS, 7, seed=0)

    def test_golden_seeded_run(self):
        # Frozen from the first seeded run; guards seeding stability.
        centers = kmeanspp_init(self.PTS, 3, seed=7)
        idx = [int(np.argmin(((self.PTS - c) ** 2).sum(axis=1))) for c in centers]
        assert idx == [5, 3, 1]
        np.testing.assert_array_equal(centers, kmeanspp_init(self.PTS, 3, seed=7))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_distances_raise_numerical_error(self):
        pts = np.array([[1e300, -1e300], [-1e300, 1e300], [1e300, 1e300]])
        with pytest.raises(NumericalError, match="k-means"):
            kmeanspp_init(pts, 2, seed=0)


class TestFitGmm:
    def test_k1_closed_form(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(30, 3))
        fit = fit_gmm(data, 1, CFG)
        np.testing.assert_allclose(fit.params.means[0], data.mean(axis=0), atol=1e-12)
        dev = data - data.mean(axis=0)
        expected_cov = dev.T @ dev / len(data) + CFG.cov_reg * np.eye(3)
        np.testing.assert_allclose(fit.params.covariances[0], expected_cov, atol=1e-12)
        np.testing.assert_allclose(fit.responsibilities, 1.0, atol=0)

    def test_two_separated_1d_clusters(self):
        rng = np.random.default_rng(6)
        lo = rng.uniform(-0.01, 0.01, size=(20, 1))
        hi = 10.0 + rng.uniform(-0.01, 0.01, size=(20, 1))
        data = np.vstack([lo, hi])
        fit = fit_gmm(data, 2, CFG, seed=1)
        means = np.sort(fit.params.means[:, 0])
        assert abs(means[0] - 0.0) < 0.1
        assert abs(means[1] - 10.0) < 0.1
        own = fit.responsibilities.max(axis=1)
        assert (own >= 0.999).all()

    def test_loglik_monotone_within_tolerance(self):
        rng = np.random.default_rng(7)
        data = blobs(rng, [(0, 0), (4, 1), (-3, 5)], 40)
        fit = fit_gmm(data, 3, CFG, seed=3)
        diffs = np.diff(fit.trace)
        assert (diffs >= -1e-8).all()

    def test_responsibility_rows_simplex(self):
        rng = np.random.default_rng(8)
        data = blobs(rng, [(0, 0, 0), (5, 5, 5)], 25)
        fit = fit_gmm(data, 2, CFG, seed=5)
        np.testing.assert_allclose(fit.responsibilities.sum(axis=1), 1.0, atol=1e-9)
        assert ((fit.responsibilities >= 0) & (fit.responsibilities <= 1)).all()

    def test_weights_simplex_and_covariances_pd(self):
        rng = np.random.default_rng(9)
        data = blobs(rng, [(0, 0), (6, 0)], 30)
        fit = fit_gmm(data, 2, CFG, seed=2)
        assert abs(fit.params.weights.sum() - 1.0) < 1e-9
        for cov in fit.params.covariances:
            np.linalg.cholesky(cov)  # raises if not PD
            eigvals = np.linalg.eigvalsh(cov)
            assert eigvals.min() >= CFG.cov_reg * 0.9

    def test_mirror_symmetry(self):
        data = np.array([[-1.0, 0.0], [1.0, 0.0]])
        fit = fit_gmm(data, 2, CFG, seed=0)
        g = fit.responsibilities
        assert abs(g[0, 0] - g[1, 1]) < 1e-9
        assert abs(g[0, 1] - g[1, 0]) < 1e-9

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            fit_gmm(np.zeros((3, 2)), 4, CFG)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(10)
        data = blobs(rng, [(0, 0), (5, 5)], 20)
        a = fit_gmm(data, 2, CFG, seed=9)
        b = fit_gmm(data, 2, CFG, seed=9)
        np.testing.assert_array_equal(a.responsibilities, b.responsibilities)
        assert a.log_likelihood == b.log_likelihood

    def test_keeps_best_of_n_init_restarts(self, monkeypatch):
        calls = []
        real = agsc.clustering._fit_restarts

        def recording(data, k, config, seeds):
            calls.append((seeds, real(data, k, config, seeds)))
            return calls[-1][1]

        monkeypatch.setattr(agsc.clustering, "_fit_restarts", recording)
        data = np.random.default_rng(17).normal(size=(60, 2))
        best = fit_gmm(data, 3, CFG, seed=3)
        assert N_INIT == 3
        [(seeds, fits)] = calls
        assert len(fits) == N_INIT
        assert len(set(seeds)) == N_INIT
        assert best.log_likelihood == max(fit.log_likelihood for fit in fits)
        # With seed 3 the middle restart wins, so keeping the first or the
        # last fit would fail here.
        assert best is fits[1]

    def test_em_stops_at_em_max_iter(self, monkeypatch):
        # Unpatched, this fit converges only after 18 EM iterations.
        data = np.random.default_rng(17).normal(size=(60, 2))
        assert EM_MAX_ITER == 200
        assert fit_gmm(data, 2, CFG, seed=0).converged
        monkeypatch.setattr(agsc.clustering, "EM_MAX_ITER", 2)
        fit = fit_gmm(data, 2, CFG, seed=0)
        assert fit.converged is False
        assert fit.n_iter == 3  # two EM iterations plus the final E-step
        assert len(fit.trace) == 3


def _reference_log_gaussian_prob(data, params):
    """The per-component loop that the stacked Cholesky replaced."""
    n, dim = data.shape
    log_prob = np.empty((n, params.n_components))
    const = dim * math.log(2.0 * math.pi)
    for j in range(params.n_components):
        chol = np.linalg.cholesky(params.covariances[j])
        dev = data - params.means[j]
        sol = solve_triangular(chol, dev.T, lower=True)
        maha = np.sum(sol * sol, axis=0)
        log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        log_prob[:, j] = -0.5 * (const + log_det + maha)
    return log_prob


def _reference_m_step(data, gamma, point_ll, cov_reg):
    """The per-component M-step that the stacked matmul replaced."""
    n, dim = data.shape
    mass = gamma.sum(axis=0)
    reg = cov_reg * np.eye(dim)
    empty = np.flatnonzero(mass < 1e-10)
    if empty.size:
        gamma = gamma.copy()
        order = np.argsort(point_ll, kind="stable")
        for rank, j in enumerate(empty):
            target = int(order[rank % n])
            gamma[target, :] = 0.0
            gamma[target, j] = 1.0
        mass = np.maximum(gamma.sum(axis=0), 1e-10)
    weights = mass / mass.sum()
    means = (gamma.T @ data) / mass[:, None]
    covariances = np.empty((gamma.shape[1], dim, dim))
    for j in range(gamma.shape[1]):
        dev = data - means[j]
        covariances[j] = (gamma[:, j, None] * dev).T @ dev / mass[j] + reg
    return GmmParams(weights=weights, means=means, covariances=covariances)


def _pipeline_like_data(seed, n=64):
    # Roughly the pipeline's regime: 64-D hashed embeddings reduced to 32-D.
    rng = np.random.default_rng(seed)
    return reduce_embeddings(rng.normal(size=(n, 64)), target_dim=32)


class TestStackedEmMatchesLoops:
    """The stacked E- and M-step arithmetic is bit-identical to the loops."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_log_gaussian_prob(self, k):
        data = _pipeline_like_data(k)
        params = fit_gmm(data, k, CFG, seed=k).params
        np.testing.assert_array_equal(
            _log_gaussian_prob(data, params), _reference_log_gaussian_prob(data, params)
        )

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_m_step_soft_and_fitted_responsibilities(self, k):
        data = _pipeline_like_data(10 + k)
        rng = np.random.default_rng(k)
        soft = rng.dirichlet(np.ones(k), size=len(data))
        fitted = fit_gmm(data, k, CFG, seed=k).responsibilities
        point_ll = rng.normal(size=len(data))
        for gamma in (soft, fitted):
            got = _m_step(data, gamma, point_ll, CFG.cov_reg)
            want = _reference_m_step(data, gamma, point_ll, CFG.cov_reg)
            np.testing.assert_array_equal(got.weights, want.weights)
            np.testing.assert_array_equal(got.means, want.means)
            np.testing.assert_array_equal(got.covariances, want.covariances)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_m_step_reseeds_empty_component(self, k):
        data = _pipeline_like_data(20 + k)
        rng = np.random.default_rng(k)
        gamma = rng.dirichlet(np.ones(k), size=len(data))
        gamma[:, 0] = 0.0
        gamma /= gamma.sum(axis=1, keepdims=True)
        point_ll = rng.normal(size=len(data))
        got = _m_step(data, gamma, point_ll, CFG.cov_reg)
        want = _reference_m_step(data, gamma, point_ll, CFG.cov_reg)
        np.testing.assert_array_equal(got.covariances, want.covariances)
        np.testing.assert_array_equal(got.means, want.means)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_e_step_log_sum_exp_matches_scipy(self, k):
        rng = np.random.default_rng(30 + k)
        data = rng.normal(scale=3.0, size=(80, 4))
        means = rng.normal(size=(k, 4))
        means[1] = means[0]  # two identical components give exact ties
        params = GmmParams(
            weights=np.full(k, 1.0 / k),
            means=means,
            covariances=np.repeat(np.eye(4)[None], k, axis=0),
        )
        weighted = _log_gaussian_prob(data, params) + np.log(params.weights)
        gamma, ll, point_ll = _e_step(data, params)
        np.testing.assert_array_equal(point_ll, logsumexp(weighted, axis=1))
        np.testing.assert_array_equal(gamma, np.exp(weighted - point_ll[:, None]))
        assert ll == float(point_ll.sum())

    def test_not_pd_error_names_the_component(self):
        data = _pipeline_like_data(0, n=10)[:, :3]
        covs = np.repeat(np.eye(3)[None], 3, axis=0)
        covs[2] = -np.eye(3)
        params = GmmParams(np.full(3, 1 / 3), np.zeros((3, 3)), covs)
        with pytest.raises(NumericalError, match="component 2 covariance not PD"):
            _log_gaussian_prob(data, params)


def _reference_fit_single(data, k, config, seed):
    """One EM restart on its own, with the per-component loops above.

    Returns the fit and how many M-steps re-seeded an empty component.
    """
    n, dim = data.shape
    centers = agsc.clustering.kmeanspp_init(data, k, seed)
    base_cov = np.cov(data.T, ddof=0).reshape(dim, dim) + config.cov_reg * np.eye(dim)
    params = GmmParams(
        weights=np.full(k, 1.0 / k),
        means=centers,
        covariances=np.repeat(base_cov[None, :, :], k, axis=0),
    )

    def e_step(params):
        weighted = _reference_log_gaussian_prob(data, params) + np.log(params.weights)
        point_ll = logsumexp(weighted, axis=1)
        return np.exp(weighted - point_ll[:, None]), float(point_ll.sum()), point_ll

    trace = []
    prev_ll = None
    converged = False
    reseeds = 0
    for _ in range(agsc.clustering.EM_MAX_ITER):
        gamma, ll, point_ll = e_step(params)
        trace.append(ll)
        if prev_ll is not None and (ll - prev_ll) / n < config.em_tol:
            converged = True
            break
        reseeds += bool((gamma.sum(axis=0) < 1e-10).any())
        params = _reference_m_step(data, gamma, point_ll, config.cov_reg)
        prev_ll = ll
    else:
        gamma, ll, _ = e_step(params)
        trace.append(ll)
    fit = GmmFit(params, gamma, trace[-1], trace, converged, len(trace))
    return fit, reseeds


class TestLockstepRestarts:
    """Restarts fitted in lockstep give each restart's own fit, bit for bit."""

    SEEDS = [1, 2, 3]

    def _assert_matches_reference(self, data, k, seeds=SEEDS):
        fits = _fit_restarts(data, k, CFG, seeds)
        assert len(fits) == len(seeds)
        reseeds = []
        for fit, seed in zip(fits, seeds):
            want, n_reseeds = _reference_fit_single(data, k, CFG, seed)
            reseeds.append(n_reseeds)
            assert fit.trace == want.trace
            assert fit.log_likelihood == want.log_likelihood
            assert (fit.n_iter, fit.converged) == (want.n_iter, want.converged)
            np.testing.assert_array_equal(fit.params.weights, want.params.weights)
            np.testing.assert_array_equal(fit.params.means, want.params.means)
            np.testing.assert_array_equal(
                fit.params.covariances, want.params.covariances
            )
            np.testing.assert_array_equal(fit.responsibilities, want.responsibilities)
        return fits, reseeds

    @pytest.mark.parametrize(
        "data, k",
        [
            (np.random.default_rng(17).normal(size=(60, 2)), 3),
            (_pipeline_like_data(2), 3),
        ],
    )
    def test_restarts_converging_at_different_iterations(self, data, k):
        fits, _ = self._assert_matches_reference(data, k)
        assert all(fit.converged for fit in fits)
        assert len({fit.n_iter for fit in fits}) > 1

    def test_one_restart_hits_em_max_iter(self, monkeypatch):
        # Unpatched, the restarts converge after 34, 32 and 23 E-steps.
        data = np.random.default_rng(17).normal(size=(60, 2))
        monkeypatch.setattr(agsc.clustering, "EM_MAX_ITER", 32)
        fits, _ = self._assert_matches_reference(data, 3)
        assert [fit.converged for fit in fits] == [False, True, True]
        assert [fit.n_iter for fit in fits] == [33, 32, 23]

    def test_empty_component_reseeded_in_one_restart_only(self, monkeypatch):
        real = agsc.clustering.kmeanspp_init

        def far_center(data, k, seed):
            # Restart 2's first center starts where no point can reach it.
            centers = real(data, k, seed)
            if seed == self.SEEDS[1]:
                centers[0] += 1e3
            return centers

        monkeypatch.setattr(agsc.clustering, "kmeanspp_init", far_center)
        data = _pipeline_like_data(3)
        _, reseeds = self._assert_matches_reference(data, 3)
        assert reseeds[0] == reseeds[2] == 0
        assert reseeds[1] >= 1

    def test_zero_dimensional_data(self, capfd):
        # Every point sits at every mean; LAPACK is not called.
        fit = fit_gmm(np.zeros((10, 0)), 2, CFG, seed=1)
        np.testing.assert_array_equal(fit.responsibilities, np.full((10, 2), 0.5))
        assert capfd.readouterr() == ("", "")

    def test_not_pd_error_names_the_component_of_a_stacked_batch(self):
        data = _pipeline_like_data(0, n=10)[:, :3]
        covs = np.tile(np.eye(3), (2, 3, 1, 1))  # two restarts, three components
        covs[1, 2] = -np.eye(3)
        devs = data - np.zeros((2, 3, 1, 3))
        with pytest.raises(NumericalError, match="component 2 covariance not PD"):
            _stacked_log_prob(devs, covs)


class TestNonFiniteData:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_gmm_and_select_k_reject(self, bad):
        data = _pipeline_like_data(0, n=12)
        data[3, 1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            fit_gmm(data, 2, CFG)
        with pytest.raises(NumericalError, match="non-finite"):
            select_k(data, CFG)


class TestBic:
    def test_worked_example(self):
        params = GmmParams(
            weights=np.ones(1),
            means=np.zeros((1, 1)),
            covariances=np.ones((1, 1, 1)),
        )
        data = np.zeros((10, 1))
        got = bic(params, data, log_likelihood=-5.0)
        assert abs(got - (2.0 * math.log(10) + 10.0)) < 1e-9

    def test_larger_n_increases_bic(self):
        params = GmmParams(
            weights=np.ones(2) / 2,
            means=np.zeros((2, 3)),
            covariances=np.repeat(np.eye(3)[None], 2, axis=0),
        )
        b_small = bic(params, np.zeros((50, 3)), -100.0)
        b_large = bic(params, np.zeros((100, 3)), -100.0)
        assert b_large > b_small

    def test_higher_likelihood_lower_bic(self):
        params = GmmParams(
            weights=np.ones(2) / 2,
            means=np.zeros((2, 3)),
            covariances=np.repeat(np.eye(3)[None], 2, axis=0),
        )
        data = np.zeros((50, 3))
        assert bic(params, data, -90.0) < bic(params, data, -100.0)


class TestSelectK:
    def test_k_max_heuristic_n10(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(10, 2))
        result = select_k(data, CFG)
        assert result.k_max == 3  # min(15, max(2, 10//3)=3, floor(log2 10)+1=4)

    def test_n2_trivial_single_cluster(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0]])
        result = select_k(data, CFG)
        assert result.fit.params.n_components == 1
        np.testing.assert_allclose(result.fit.responsibilities, 1.0)

    def test_three_separated_gaussians_single_seed(self):
        rng = np.random.default_rng(12)
        data = blobs(rng, [(0, 0), (10, 0), (0, 10)], 60)
        result = select_k(data, CFG, 0)
        assert result.fit.params.n_components == 3

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        data = blobs(rng, [(0, 0), (8, 8)], 30)
        r1 = select_k(data, CFG, 4)
        r2 = select_k(data, CFG, 4)
        np.testing.assert_array_equal(r1.fit.responsibilities, r2.fit.responsibilities)
        assert r1.bic_trace == r2.bic_trace

    def test_bic_trace_follows_acceptance_rule(self):
        rng = np.random.default_rng(14)
        data = blobs(rng, [(0, 0), (12, 0)], 45)
        result = select_k(data, CFG, 1)
        accepted_bic = math.inf
        accepted_k = None
        for k, score in result.bic_trace:
            if accepted_k is None or score < accepted_bic - CFG.bic_epsilon * abs(accepted_bic):
                accepted_k, accepted_bic = k, score
            else:
                break
        assert result.fit.params.n_components == accepted_k

    def test_search_starts_at_two(self):
        # Even unimodal data gets K=2 (soft overlap absorbs it).
        rng = np.random.default_rng(15)
        data = rng.normal(size=(60, 2))
        result = select_k(data, CFG, 2)
        assert result.fit.params.n_components >= 2


class TestKmeansHard:
    def test_k1_single_cluster(self):
        rng = np.random.default_rng(16)
        data = rng.normal(size=(12, 2))
        gamma = kmeans_hard(data, 1, seed=0)
        np.testing.assert_array_equal(gamma, np.ones((12, 1)))

    def test_two_blobs_perfect_partition(self):
        rng = np.random.default_rng(17)
        data = blobs(rng, [(0, 0), (20, 20)], 25, scale=0.5)
        gamma = kmeans_hard(data, 2, seed=3)
        labels = gamma.argmax(axis=1)
        # Nearest-center oracle: recompute centers, check every assignment.
        centers = np.stack([data[labels == j].mean(axis=0) for j in range(2)])
        d2 = ((data[:, None, :] - centers[None]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(labels, d2.argmin(axis=1))
        # And the two halves land in different clusters.
        assert len(set(labels[:25])) == 1
        assert len(set(labels[25:])) == 1
        assert labels[0] != labels[-1]

    def test_rows_one_hot(self):
        rng = np.random.default_rng(18)
        data = rng.normal(size=(15, 3))
        gamma = kmeans_hard(data, 4, seed=1)
        np.testing.assert_array_equal(gamma.sum(axis=1), np.ones(15))
        assert set(np.unique(gamma)) <= {0.0, 1.0}


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _python(code: str, **env_extra) -> str:
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    src = str(Path(agsc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_extra)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestBlasPin:
    @pytest.mark.skipif(
        not Path("/proc/self/task").exists(), reason="needs /proc/self/task"
    )
    def test_clustering_runs_on_one_os_thread(self):
        code = (
            "import os, agsc, numpy as np\n"
            "from agsc.clustering import ClusteringConfig, reduce_embeddings, select_k\n"
            "data = np.random.default_rng(0).normal(size=(64, 64))\n"
            "select_k(reduce_embeddings(data, 32), ClusteringConfig())\n"
            "print(len(os.listdir('/proc/self/task')))\n"
        )
        assert _python(code) == "1"

    def test_user_setting_wins(self):
        code = "import os, agsc; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _python(code, OPENBLAS_NUM_THREADS="2") == "2"

    def test_scipy_special_not_imported(self):
        code = "import sys, agsc.cli; print('scipy.special' in sys.modules)"
        assert _python(code) == "False"
