"""Correlation metrics, variant mapping, and the comparison table."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from conftest import marker_providers, marker_sample
from agsc import default_config
from agsc.evaluation import (
    TABLE_HEADER,
    VARIANTS,
    UndefinedCorrelationError,
    apply_variant,
    average_ranks,
    compare,
    comparison_table,
    pearson,
    run_variant,
    run_variant_reports,
    spearman,
)


class TestPearson:
    def test_perfect_anticorrelation(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == -1.0

    def test_identity(self):
        assert pearson([1.5, 2.0, 9.0], [1.5, 2.0, 9.0]) == 1.0

    def test_quadratic_example(self):
        got = pearson([1, 2, 3], [1, 4, 9])
        assert abs(got - 0.98974) < 5e-6
        oracle = stats.pearsonr([1, 2, 3], [1, 4, 9]).statistic
        assert abs(got - oracle) < 1e-12

    def test_constant_input_is_error(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 2, 3], [5, 5, 5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_error(self, bad):
        # max(-1.0, nan) is -1.0: a clamped NaN would read as perfect anticorrelation.
        with pytest.raises(UndefinedCorrelationError):
            pearson([0.1, 0.5, 0.9], [0.2, bad, 0.3])
        with pytest.raises(UndefinedCorrelationError):
            pearson([bad, 0.5, 0.9], [0.2, 0.4, 0.3])

    def test_length_checks(self):
        with pytest.raises(ValueError):
            pearson([1], [1])
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_affine_invariance_and_sign_flip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            base = pearson(x, y)
            assert abs(pearson(3.0 * x + 7.0, y) - base) < 1e-9
            assert abs(pearson(x, 0.2 * y - 4.0) - base) < 1e-9
            assert abs(pearson(-x, y) + base) < 1e-9

    def test_matches_scipy_on_random_data(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = rng.normal(size=20)
            y = 0.4 * x + rng.normal(size=20)
            assert abs(pearson(x, y) - stats.pearsonr(x, y).statistic) < 1e-12


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman([1, 2, 3], [1, 4, 9]) == 1.0

    def test_reversed_is_minus_one(self):
        assert spearman([1, 2, 3], [9, 4, 1]) == -1.0

    def test_tied_ranks_worked_example(self):
        got = spearman([1, 1, 2], [1, 2, 3])
        assert abs(got - math.sqrt(3.0) / 2.0) < 1e-9
        oracle = stats.spearmanr([1, 1, 2], [1, 2, 3]).statistic
        assert abs(got - oracle) < 1e-12

    def test_average_ranks_match_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.integers(0, 6, size=15).astype(float)  # plenty of ties
            np.testing.assert_allclose(
                average_ranks(x), stats.rankdata(x, method="average"), atol=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        base = spearman(x, y)
        for _ in range(100):
            a = rng.uniform(0.1, 3.0)
            b = rng.uniform(0.1, 3.0)
            c = rng.uniform(-5.0, 5.0)
            fx = a * x**3 + b * x + c  # strictly increasing
            assert abs(spearman(fx, y) - base) < 1e-12

    def test_matches_scipy_on_random_data(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = rng.normal(size=18)
            y = rng.normal(size=18)
            assert abs(spearman(x, y) - stats.spearmanr(x, y).statistic) < 1e-9


class TestVariantMapping:
    def test_mapping_is_total(self):
        names = {
            "agsc", "agsc_literal", "luq_sentence", "luq_atomic",
            "ablate_no_adapt", "ablate_ng", "ablate_nw",
            "ablate_no_cluster", "ablate_kmeans",
        }
        assert set(VARIANTS) == names
        base = default_config()
        for name in names:
            cfg = apply_variant(base, name)
            assert cfg.variant == name

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            apply_variant(default_config(), "agsc_turbo")

    def test_triples(self):
        assert VARIANTS["agsc"].aggregation_mode == "global"
        assert VARIANTS["agsc_literal"].aggregation_mode == "literal"
        assert VARIANTS["luq_sentence"].granularity_mode == "off"
        assert VARIANTS["luq_atomic"].granularity_mode == "all_atomic"
        assert VARIANTS["ablate_kmeans"].clustering_mode == "kmeans"
        assert VARIANTS["ablate_no_cluster"].clustering_mode == "none"

    def test_no_clustering_exactly_when_uniform_aggregation(self):
        # Without clusters there are no theme masses to weight by, and the
        # pipeline has no uniform aggregation after clustering.
        for v in VARIANTS.values():
            assert (v.clustering_mode == "none") == (v.aggregation_mode == "uniform"), v.name


def _neutral_heavy_corpus(n=6):
    # Half the anchor sentences are irrelevance-neutral; one is ambiguous.
    kinds = ["zeta", "alpha", "zeta", "omega", "zeta", "zeta", "theta", "alpha"]
    return [
        marker_sample(f"p{i}", kinds, topic_index=i, factuality=0.5)
        for i in range(n)
    ]


class TestRunVariant:
    def test_fully_supported_corpus_scores_zero_everywhere(self, base_config):
        samples = [
            marker_sample(f"p{i}", ["alpha", "alpha", "alpha"], topic_index=i)
            for i in range(3)
        ]
        for name in VARIANTS:
            scores = run_variant(samples, name, base_config, marker_providers())
            assert len(scores) == 3
            for _, u in scores:
                assert u < 1e-3, name

    def test_decomposer_call_counts(self, base_config):
        samples = _neutral_heavy_corpus()
        providers = marker_providers()
        atomic = run_variant_reports(samples, "luq_atomic", base_config, providers)
        adaptive = run_variant_reports(samples, "agsc", base_config, providers)
        atomic_calls = sum(r.timing.decomposer_calls for r in atomic)
        adaptive_calls = sum(r.timing.decomposer_calls for r in adaptive)
        total_sentences = sum(len(r.sentences) for r in atomic)
        assert atomic_calls == total_sentences
        assert adaptive_calls < atomic_calls

    def test_no_cluster_equals_literal_telescoping(self, base_config):
        samples = _neutral_heavy_corpus()
        providers = marker_providers()
        literal = run_variant(samples, "agsc_literal", base_config, providers)
        uniform = run_variant(samples, "ablate_no_cluster", base_config, providers)
        assert [p for p, _ in literal] == [p for p, _ in uniform]
        for (_, a), (_, b) in zip(literal, uniform):
            assert abs(a - b) < 1e-9

    def test_ng_scores_differ_on_skip_heavy_corpus(self, base_config):
        samples = _neutral_heavy_corpus(3)
        providers = marker_providers()
        agsc = dict(run_variant(samples, "agsc", base_config, providers))
        ng = dict(run_variant(samples, "ablate_ng", base_config, providers))
        # Half the sentences are skip-routed; pinning them at 0.5 must move
        # the aggregate for at least one prompt.
        assert any(abs(agsc[p] - ng[p]) > 1e-6 for p in agsc)


class TestCompare:
    def test_synthetic_hallucination_correlation(self, base_config):
        samples = []
        n = 20
        for i in range(n):
            p = i / (n - 1)
            n_bad = round(p * 8)
            kinds = ["omega"] * n_bad + ["alpha"] * (8 - n_bad)
            samples.append(
                marker_sample(f"p{i}", kinds, topic_index=i, factuality=1.0 - p)
            )
        providers = marker_providers()
        reports = run_variant_reports(samples, "agsc", base_config, providers)
        labels = {s.prompt_id: s.factuality for s in samples}
        rows = compare({"agsc": reports}, labels)
        assert len(rows) == 1
        assert rows[0].scc <= -0.8
        assert rows[0].pcc <= -0.8
        assert rows[0].n_prompts == n

    def test_identical_scores_identical_correlations(self, base_config):
        samples = _neutral_heavy_corpus(4)
        providers = marker_providers()
        reports = run_variant_reports(samples, "agsc", base_config, providers)
        labels = {s.prompt_id: (0.1 + 0.2 * i) for i, s in enumerate(samples)}
        rows = compare({"v1": reports, "v2": list(reports)}, labels)
        assert rows[0].pcc == rows[1].pcc
        assert rows[0].scc == rows[1].scc

    def test_unlabeled_variant_skipped(self, base_config, caplog):
        samples = _neutral_heavy_corpus(3)
        reports = run_variant_reports(samples, "agsc", base_config, marker_providers())
        with caplog.at_level("WARNING"):
            rows = compare({"agsc": reports}, labels={})
        assert rows == []
        assert any("skipped" in r.message for r in caplog.records)

    def test_table_format(self, base_config):
        samples = _neutral_heavy_corpus(4)
        reports = run_variant_reports(samples, "agsc", base_config, marker_providers())
        labels = {s.prompt_id: 0.1 * (i + 1) for i, s in enumerate(samples)}
        table = comparison_table(compare({"agsc": reports}, labels))
        lines = table.strip().splitlines()
        assert lines[0] == ",".join(TABLE_HEADER)
        assert lines[1].startswith("agsc,")
        assert len(lines[1].split(",")) == len(TABLE_HEADER)
