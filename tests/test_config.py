"""Flat config format: defaults, overrides, validation, round trip."""

from __future__ import annotations

import pytest

from agsc.config import (
    ConfigError,
    config_to_text,
    default_config,
    load_config,
    parse_config_text,
)
from agsc.pipeline import build_providers
from agsc.providers import FixedLatencyDecomposer, RuleBasedDecomposer


class TestDefaults:
    def test_published_operating_point(self):
        cfg = default_config()
        assert cfg.granularity.tau == 0.1
        assert cfg.clustering.cov_reg == 1e-5
        assert cfg.clustering.bic_epsilon == 0.01
        assert cfg.clustering.k_limit == 15
        assert cfg.clustering.target_dim == 32
        assert cfg.scoring.chunk_budget_chars == 1000
        assert cfg.scoring.chunk_stride_chars == 500
        assert cfg.aggregation_mode == "global"
        assert cfg.clustering_mode == "gmm"

    def test_empty_text_is_valid(self):
        assert parse_config_text("") == default_config()

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# a comment\n\nseed = 9  # trailing\n")
        assert cfg.seed == 9


class TestOverrides:
    def test_nested_keys(self):
        text = (
            "clustering.k_limit = 8\n"
            "scoring.nli_direction = unit_premise\n"
            "granularity.tau = 0.2\n"
            "providers.nli.kind = http\n"
            "providers.nli.endpoint = http://example.test\n"
            "providers.nli.retry.max_attempts = 5\n"
        )
        cfg = parse_config_text(text)
        assert cfg.clustering.k_limit == 8
        assert cfg.scoring.nli_direction == "unit_premise"
        assert cfg.granularity.tau == 0.2
        assert cfg.nli.kind == "http"
        assert cfg.nli.transport.endpoint == "http://example.test"
        assert cfg.nli.transport.retry.max_attempts == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("clustering.k_limits = 8\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config_text("seed = abc\n")

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("granularity.tau = 2.0\n")
        with pytest.raises(ConfigError):
            parse_config_text("aggregation.mode = median\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_none_clustering_requires_uniform(self):
        with pytest.raises(ConfigError, match="uniform"):
            parse_config_text("clustering.mode = none\n")
        cfg = parse_config_text("clustering.mode = none\naggregation.mode = uniform\n")
        assert cfg.clustering_mode == "none"


class TestProviderKeys:
    @pytest.mark.parametrize(
        "key",
        [
            "providers.nli.mock_latency_ms",
            "providers.embed.mock_latency_ms",
            "clustering.unit_source",
        ],
    )
    def test_keys_no_code_reads_are_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(f"{key} = 5\n")

    def test_decomposer_mock_latency_wraps_decomposer(self):
        plain = build_providers(default_config())
        assert isinstance(plain.decomposer, RuleBasedDecomposer)
        cfg = parse_config_text("providers.decompose.mock_latency_ms = 5\n")
        decomposer = build_providers(cfg).decomposer
        assert isinstance(decomposer, FixedLatencyDecomposer)
        assert decomposer.latency_ms == 5.0


class TestRoundTrip:
    def test_render_and_reparse(self):
        cfg = parse_config_text(
            "seed = 3\ntiming = off\ngranularity.collapse_decomposed = true\n"
        )
        again = parse_config_text(config_to_text(cfg))
        assert again == cfg

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 12\nworkers = 2\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.seed == 12
        assert cfg.workers == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")
