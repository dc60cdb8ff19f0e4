"""Mass-weighted aggregation: telescoping identity, global mode, fallbacks."""

from __future__ import annotations

import numpy as np
import pytest

from agsc.aggregation import (
    DegenerateClusteringError,
    aggregate_global,
    aggregate_literal,
    aggregate_uniform,
    all_skip_fallback,
)


def random_simplex_rows(rng, n, k):
    raw = rng.uniform(0.0, 1.0, size=(n, k)) + 1e-12
    return raw / raw.sum(axis=1, keepdims=True)


class TestLiteral:
    def test_telescoping_identity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, 6))
            gamma = random_simplex_rows(rng, n, k)
            u = rng.uniform(0.0, 1.0, size=n)
            final, _ = aggregate_literal(gamma, u)
            assert abs(final.u_final - u.mean()) < 1e-9

    def test_worked_example_two_units(self):
        rng = np.random.default_rng(1)
        gamma = random_simplex_rows(rng, 2, 3)
        final, _ = aggregate_literal(gamma, [0.2, 0.6])
        assert abs(final.u_final - 0.4) < 1e-9

    def test_single_unit(self):
        final, summaries = aggregate_literal(np.array([[1.0]]), [0.7])
        assert abs(final.u_final - 0.7) < 1e-12
        assert summaries[0].weight == 1.0

    def test_k1_collapses_to_mean(self):
        gamma = np.ones((4, 1))
        final, _ = aggregate_literal(gamma, [0.1, 0.2, 0.3, 0.8])
        assert abs(final.u_final - 0.35) < 1e-12

    def test_empty_cluster_dropped(self):
        gamma = np.array([[1.0, 0.0], [1.0, 0.0]])
        final, summaries = aggregate_literal(gamma, [0.3, 0.5])
        assert abs(final.u_final - 0.4) < 1e-12
        assert summaries[1].uncertainty is None
        assert summaries[1].weight == 0.0

    def test_empty_units_rejected(self):
        with pytest.raises(ValueError):
            aggregate_literal(np.zeros((0, 2)), [])

    def test_no_mass_raises(self):
        with pytest.raises(DegenerateClusteringError):
            aggregate_literal(np.zeros((3, 2)), [0.2, 0.4, 0.6])

    def test_is_global_over_anchor_rows_only(self):
        """Outside the band where only the two floors disagree, the literal
        score is the global core's on the anchor rows, bit for bit."""
        rng = np.random.default_rng(25)
        compared = 0
        for _ in range(2000):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(1, 7))
            gamma = rng.uniform(0.0, 1.0, size=(n, k))
            for j in range(k):
                if rng.random() < 0.4:  # a near-empty cluster, at any scale
                    gamma[:, j] *= 10.0 ** rng.uniform(-16.0, -2.0)
            if rng.random() < 0.5:
                gamma /= gamma.sum(axis=1, keepdims=True)
            mass = gamma.sum(axis=0)
            if ((mass >= 1e-12) & (mass < 1e-6)).any():
                continue
            u = rng.uniform(0.0, 1.0, size=n)
            try:
                literal = aggregate_literal(gamma, u)
            except DegenerateClusteringError:
                with pytest.raises(DegenerateClusteringError):
                    aggregate_global(gamma, [True] * n, u)
                continue
            final, summaries = aggregate_global(gamma, [True] * n, u)
            assert literal[0].u_final == final.u_final
            assert literal[1] == summaries
            compared += 1
        assert compared > 1000


class TestGlobal:
    def test_worked_example(self):
        gamma = np.array(
            [
                [0.9, 0.1],   # anchor, U = 0.2
                [0.2, 0.8],   # anchor, U = 0.6
                [1.0, 0.0],   # reference rows
                [0.9, 0.1],
                [0.8, 0.2],
            ]
        )
        mask = [True, True, False, False, False]
        final, summaries = aggregate_global(gamma, mask, [0.2, 0.6])
        # Independent arithmetic: masses over all rows, uncertainties over
        # anchor rows normalized by anchor mass.
        w0, w1 = 3.8 / 5.0, 1.2 / 5.0
        u0 = (0.9 * 0.2 + 0.2 * 0.6) / 1.1
        u1 = (0.1 * 0.2 + 0.8 * 0.6) / 0.9
        expected = w0 * u0 + w1 * u1
        assert abs(final.u_final - expected) < 1e-12
        assert abs(final.u_final - 0.3406) < 1e-4
        assert abs(summaries[0].mass - 3.8) < 1e-12
        assert abs(summaries[0].weight - 0.76) < 1e-12
        assert abs(summaries[0].uncertainty - 0.27273) < 1e-5
        assert abs(summaries[1].uncertainty - 0.55556) < 1e-5

    def test_uniform_references_balanced_anchor(self):
        gamma = np.array(
            [
                [1.0, 0.0],
                [0.0, 1.0],
                [0.5, 0.5],
                [0.5, 0.5],
                [0.5, 0.5],
            ]
        )
        mask = [True, True, False, False, False]
        final, _ = aggregate_global(gamma, mask, [0.3, 0.9])
        assert abs(final.u_final - 0.6) < 1e-12

    def test_single_cluster(self):
        gamma = np.ones((5, 1))
        mask = [True, True, False, False, False]
        final, _ = aggregate_global(gamma, mask, [0.4, 0.8])
        assert abs(final.u_final - 0.6) < 1e-12

    def test_cluster_without_anchor_mass_excluded(self):
        gamma = np.array(
            [
                [1.0, 0.0],
                [1.0, 0.0],
                [0.0, 1.0],  # reference-only cluster
                [0.0, 1.0],
            ]
        )
        mask = [True, True, False, False]
        final, summaries = aggregate_global(gamma, mask, [0.2, 0.8])
        assert abs(final.u_final - 0.5) < 1e-12
        assert summaries[1].uncertainty is None
        assert summaries[1].weight == 0.0
        # Retained weights renormalize to a simplex.
        assert abs(sum(s.weight for s in summaries) - 1.0) < 1e-9

    def test_monotone_in_unit_uncertainty(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_anchor = int(rng.integers(1, 6))
            n_ref = int(rng.integers(1, 6))
            k = int(rng.integers(1, 5))
            gamma = random_simplex_rows(rng, n_anchor + n_ref, k)
            mask = [True] * n_anchor + [False] * n_ref
            u = rng.uniform(0.0, 1.0, size=n_anchor)
            base, _ = aggregate_global(gamma, mask, u)
            j = int(rng.integers(n_anchor))
            bumped = u.copy()
            bumped[j] = min(1.0, bumped[j] + rng.uniform(0.0, 0.5))
            higher, _ = aggregate_global(gamma, mask, bumped)
            assert higher.u_final >= base.u_final - 1e-12

    def test_cluster_permutation_invariance(self):
        rng = np.random.default_rng(8)
        gamma = random_simplex_rows(rng, 6, 4)
        mask = [True, True, True, False, False, False]
        u = [0.1, 0.5, 0.9]
        base, _ = aggregate_global(gamma, mask, u)
        perm = rng.permutation(4)
        permuted, _ = aggregate_global(gamma[:, perm], mask, u)
        assert abs(base.u_final - permuted.u_final) < 1e-12

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n_anchor = int(rng.integers(1, 8))
            n_ref = int(rng.integers(0, 8))
            k = int(rng.integers(1, 6))
            gamma = random_simplex_rows(rng, n_anchor + n_ref, k)
            mask = [True] * n_anchor + [False] * n_ref
            u = rng.uniform(0.0, 1.0, size=n_anchor)
            final, _ = aggregate_global(gamma, mask, u)
            assert 0.0 <= final.u_final <= 1.0

    def test_no_anchor_mass_raises(self):
        gamma = np.array([[0.0, 1.0], [0.0, 1.0]])
        gamma[:, 1] = 1e-9  # rows deliberately not a valid simplex
        gamma[:, 0] = 0.0
        with pytest.raises(DegenerateClusteringError):
            aggregate_global(gamma, [True, True], [0.5, 0.5])


class TestUniformAndFallback:
    def test_uniform_examples(self):
        assert aggregate_uniform([0.0, 1.0]).u_final == 0.5
        assert aggregate_uniform([0.25]).u_final == 0.25

    def test_uniform_matches_literal_everywhere(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(1, 5))
            gamma = random_simplex_rows(rng, n, k)
            u = rng.uniform(0.0, 1.0, size=n)
            lit, _ = aggregate_literal(gamma, u)
            uni = aggregate_uniform(list(u))
            assert abs(lit.u_final - uni.u_final) < 1e-9

    def test_uniform_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_uniform([])

    def test_fallback_mean_and_flag(self):
        final = all_skip_fallback([0.4, 0.6])
        assert final.u_final == 0.5
        assert final.fallback_used

    def test_fallback_empty_rejected(self):
        with pytest.raises(ValueError):
            all_skip_fallback([])
