"""Flat config format: defaults, overrides, validation, round trip."""

from __future__ import annotations

import dataclasses
import random

import pytest

from agsc.config import (
    _KEYS,
    VARIANTS,
    ConfigError,
    PipelineConfig,
    config_to_text,
    default_config,
    load_config,
    parse_config_text,
)
from agsc.pipeline import build_providers
from agsc.providers import FixedLatencyDecomposer, HashNliProvider, RuleBasedDecomposer


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
        assert cfg.variant == "agsc"
        assert cfg.method.aggregation_mode == "global"
        assert cfg.method.clustering_mode == "gmm"

    def test_empty_text_is_valid(self):
        assert parse_config_text("") == default_config()

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# a comment\n\nseed = 9  # trailing\n")
        assert cfg.seed == 9


def test_config_keys_are_pinned():
    """The whole knob set. A key added or removed fails here and has to be
    justified: each key must be read by code and covered by a test."""
    assert sorted(_KEYS) == [
        "cache_dir",
        "clustering.bic_epsilon",
        "clustering.cov_reg",
        "clustering.em_tol",
        "clustering.k_limit",
        "clustering.target_dim",
        "granularity.collapse_decomposed",
        "granularity.tau",
        "providers.decompose.auth_env_var",
        "providers.decompose.batch_size",
        "providers.decompose.endpoint",
        "providers.decompose.kind",
        "providers.decompose.max_in_flight",
        "providers.decompose.mock_latency_ms",
        "providers.decompose.retry.base_backoff_ms",
        "providers.decompose.retry.max_attempts",
        "providers.decompose.timeout_ms",
        "providers.embed.auth_env_var",
        "providers.embed.batch_size",
        "providers.embed.endpoint",
        "providers.embed.kind",
        "providers.embed.max_in_flight",
        "providers.embed.mock_dim",
        "providers.embed.retry.base_backoff_ms",
        "providers.embed.retry.max_attempts",
        "providers.embed.timeout_ms",
        "providers.nli.auth_env_var",
        "providers.nli.batch_size",
        "providers.nli.endpoint",
        "providers.nli.kind",
        "providers.nli.max_in_flight",
        "providers.nli.mock_seed",
        "providers.nli.retry.base_backoff_ms",
        "providers.nli.retry.max_attempts",
        "providers.nli.timeout_ms",
        "report_dir",
        "scoring.chunk_budget_chars",
        "scoring.chunk_stride_chars",
        "scoring.nli_direction",
        "scoring.routing_chunk_agg",
        "seed",
        "timing",
        "variant",
        "workers",
    ]


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
            parse_config_text("variant = median\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_none_clustering_requires_uniform(self):
        # The pairing comes with the variant; no key can set one without the other.
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("clustering.mode = none\n")
        cfg = parse_config_text("variant = ablate_no_cluster\n")
        assert cfg.method.clustering_mode == "none"
        assert cfg.method.aggregation_mode == "uniform"

    @pytest.mark.parametrize(
        "text",
        [
            "clustering.cov_reg = nan\n",
            "clustering.em_tol = nan\n",
            "clustering.bic_epsilon = inf\n",
            "granularity.tau = nan\n",
            "providers.decompose.mock_latency_ms = inf\n",
            "providers.decompose.mock_latency_ms = -inf\n",
            "providers.decompose.mock_latency_ms = -1\n",
        ],
    )
    def test_non_finite_and_negative_numbers_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text)


class TestVariant:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            parse_config_text("variant = agsc_turbo\n")
        with pytest.raises(ConfigError, match="unknown variant"):
            dataclasses.replace(default_config(), variant="agsc_turbo")

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_variant_key_selects_its_row(self, name):
        cfg = parse_config_text(f"variant = {name}\n")
        assert cfg.method is VARIANTS[name]

    def test_no_mode_fields(self):
        names = {f.name for f in dataclasses.fields(PipelineConfig)}
        assert not names & {"aggregation_mode", "clustering_mode"}
        assert "mode" not in {f.name for f in dataclasses.fields(default_config().granularity)}


class TestProviderKeys:
    @pytest.mark.parametrize(
        "key",
        [
            "providers.nli.mock_latency_ms",
            "providers.embed.mock_latency_ms",
            "clustering.unit_source",
            "providers.nli.mock_dim",
            "providers.embed.mock_seed",
            "providers.decompose.mock_seed",
            "providers.decompose.mock_dim",
            "aggregation.mode",
            "clustering.mode",
            "granularity.mode",
            "report.debug_clusters",
            "clustering.n_init",
            "clustering.em_max_iter",
        ],
    )
    def test_keys_no_code_reads_are_rejected(self, key):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(f"{key} = 5\n")

    def test_mock_keys_reach_the_mocks_that_read_them(self):
        cfg = parse_config_text("providers.nli.mock_seed = 7\nproviders.embed.mock_dim = 16\n")
        bundle = build_providers(cfg)
        pairs = [("The sky is blue.", "The sky is green.")]
        assert bundle.nli.nli_batch(pairs) == HashNliProvider(seed=7).nli_batch(pairs)
        assert bundle.nli.nli_batch(pairs) != HashNliProvider(seed=0).nli_batch(pairs)
        assert bundle.embedder.dim == 16

    @pytest.mark.parametrize(
        ("text", "accepted"),
        [
            ("providers.decompose.mock_latency_ms = 1e308\n", False),
            ("providers.decompose.mock_latency_ms = 30000\n", True),
            ("providers.decompose.mock_latency_ms = 30001\n", False),
            (
                "providers.decompose.timeout_ms = 60000\n"
                "providers.decompose.mock_latency_ms = 30001\n",
                True,
            ),
        ],
    )
    def test_mock_latency_bounded_by_transport_timeout(self, text, accepted):
        if accepted:
            assert parse_config_text(text).decompose.mock_latency_ms > 0
        else:
            with pytest.raises(ConfigError, match="timeout_ms"):
                parse_config_text(text)

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

    def test_bad_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "seed = 12\n# regularizer\nclustering.cov_reg = nan\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match=r"^.*run\.cfg:3: key 'clustering\.cov_reg'"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.cfg")


class TestParserFuzz:
    """Seeded random config texts: each parses or raises ConfigError, and
    every accepted config survives config_to_text unchanged."""

    VALUES = (
        "0", "1", "-1", "2", "3", "8", "15", "32", "1000", "0.1", "0.5", "1e-5",
        "-0.0", "1e308", "1e400", "-1e400", "nan", "NaN", "inf", "-inf",
        "Infinity", "true", "false", "Yes", "off", "on", "", "abc", "1_000",
        "0x10", "1.5e", "gmm", "none", "agsc", "luq_sentence", "ablate_kmeans",
        "wall", "http", "mock", "unit_premise", "reference_premise", "mean",
        "max_entail", "most_polarized", "x=y", "http://example.test/v1",
        "AGSC_TOKEN", "reports/run 1",
    )
    UNKNOWN = (
        "aggregation.mode", "clustering.mode", "granularity.mode",
        "clustering.k_limits", "providers.nli.mock_dim", "providers.foo.kind",
        "Seed", "seed.x", "report.debug_clusters", "clustering.n_init",
        "clustering.em_max_iter",
    )
    JUNK = (
        "", "   ", "# only a comment", "just some words", "=", " = 5",
        "[section]", "seed 5", "==", "\t",
    )

    def _line(self, rng: random.Random) -> str:
        roll = rng.random()
        if roll < 0.75:
            key = rng.choice(sorted(_KEYS))
        elif roll < 0.85:
            key = rng.choice(self.UNKNOWN)
        else:
            return rng.choice(self.JUNK)
        value = rng.choice(self.VALUES)
        if rng.random() < 0.1:
            value += " # trailing comment"
        return f"{key} = {value}"

    def test_parse_or_config_error_and_round_trip(self):
        rng = random.Random(4)
        accepted = 0
        for _ in range(3000):
            text = "\n".join(self._line(rng) for _ in range(rng.randint(0, 6)))
            try:
                cfg = parse_config_text(text)
            except ConfigError:
                continue
            accepted += 1
            assert parse_config_text(config_to_text(cfg)) == cfg, text
        # Enough texts get through for the round trip to be exercised.
        assert accepted > 300
