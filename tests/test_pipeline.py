"""Orchestration: single prompts, corpus runs, caching, determinism."""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import (
    CountingDecomposer,
    CountingEmbedder,
    CountingNli,
    marker_decomposer_rule,
    marker_nli_rule,
    marker_providers,
    marker_sample,
)
from agsc import SampleSet, default_config
import agsc.pipeline
from agsc.config import PipelineConfig
from agsc.evaluation import apply_variant
from agsc.pipeline import (
    PromptFailure,
    PromptReport,
    ProviderBundle,
    build_providers,
    report_from_dict,
    report_to_dict,
    run_corpus,
    run_many,
    run_prompt,
)
from agsc.providers import (
    CachedNli,
    EmbeddingVector,
    FixedLatencyDecomposer,
    HashEmbeddingProvider,
    ProviderError,
    ResponseCache,
    ScriptedDecomposerProvider,
    ScriptedNliProvider,
)
from agsc.providers.base import taking_turn, waiting_on

DATA = Path(__file__).parent / "data"


def golden_inputs():
    sample = marker_sample(
        "golden-1",
        ["alpha", "omega", "zeta", "theta", "alpha"],
        topic_index=2,
        n_references=3,
    )
    config = dataclasses.replace(
        apply_variant(default_config(), "agsc"), timing="off", seed=11
    )
    return sample, config


class TestRunPrompt:
    def test_golden_report_stable(self):
        sample, config = golden_inputs()
        report = run_prompt(sample, config, marker_providers())
        got = report_to_dict(report, sample)
        want = json.loads((DATA / "golden_report.json").read_text())
        assert got == want

    def test_minimum_two_responses(self, agsc_config):
        sample = SampleSet(
            prompt_id="n2",
            prompt="Tell me.",
            responses=(
                "The castle detail 0 is alpha here.",
                "The castle report 0 covers it.",
            ),
        )
        report = run_prompt(sample, agsc_config, marker_providers())
        assert 0.0 <= report.final.u_final <= 1.0
        assert len(report.sentences) == 1

    def test_failed_decomposer_uses_fallback_and_succeeds(self, agsc_config):
        class Failing:
            def decompose(self, sentence, prompt_context):
                raise ProviderError("endpoint down", attempts=3)

        providers = ProviderBundle(
            nli=ScriptedNliProvider(default=marker_nli_rule),
            embedder=HashEmbeddingProvider(dim=32),
            decomposer=Failing(),
        )
        sample = marker_sample("fb", ["alpha", "theta"], topic_index=1)
        report = run_prompt(sample, agsc_config, providers)
        assert report.decomposer_fallback
        assert not report.fallback_used

    def test_all_skip_fallback_flag(self, agsc_config):
        sample = marker_sample("skips", ["zeta", "zeta", "zeta"], topic_index=3)
        report = run_prompt(sample, agsc_config, marker_providers())
        assert report.fallback_used
        assert 0.0 <= report.final.u_final <= 1.0
        assert report.units == ()
        assert report.selected_k == 0

    def test_round_trip_serialization(self):
        sample, config = golden_inputs()
        report = run_prompt(sample, config, marker_providers())
        line = json.loads(json.dumps(report_to_dict(report, sample)))
        assert report_from_dict(line) == report

    def test_wall_timing_totals_dominate_components(self):
        sample, config = golden_inputs()
        config = dataclasses.replace(config, timing="wall")
        report = run_prompt(sample, config, marker_providers())
        t = report.timing
        assert t.t_total_ms >= t.t_nli_ms
        assert t.t_total_ms >= t.t_atom_ms
        assert t.t_total_ms >= t.t_embed_ms
        assert t.t_total_ms >= t.t_cluster_ms
        assert t.t_total_ms > 0.0

    def test_counts_recorded(self):
        sample, config = golden_inputs()
        report = run_prompt(sample, config, marker_providers())
        # 5 sentences x 3 refs + 2 theta facts x 3 refs, one chunk each.
        assert report.timing.nli_pairs == 21
        assert report.timing.decomposer_calls == 1
        # 5 anchor units (3 keeps + 2 facts) + 2 sentences x 3 references.
        assert report.timing.embed_calls == 11

    def test_unit_memberships_row_lengths(self):
        sample, config = golden_inputs()
        report = run_prompt(sample, config, marker_providers())
        assert all(len(u.memberships) == report.selected_k for u in report.units)

    def test_variant_field_alone_selects_the_method(self):
        # No apply_variant: the variant field is read where the method runs.
        sample, config = golden_inputs()
        config = dataclasses.replace(config, variant="luq_sentence")
        report = run_prompt(sample, config, marker_providers())
        line = report_to_dict(report, sample)
        assert line["variant"] == "luq_sentence"
        assert line["aggregation_mode"] == "uniform"
        assert report.selected_k == 0
        assert report.clusters == ()
        assert all(u.memberships == () for u in report.units)
        assert [s.decision for s in report.sentences] == ["keep"] * 5
        assert report.timing.embed_calls == 0
        assert report.timing.decomposer_calls == 0
        assert report == run_prompt(
            sample, apply_variant(config, "luq_sentence"), marker_providers()
        )

    def test_literal_variant_matches_mean_of_units(self):
        sample, _ = golden_inputs()
        config = dataclasses.replace(
            apply_variant(default_config(), "agsc_literal"), timing="off", seed=11
        )
        report = run_prompt(sample, config, marker_providers())
        us = [u.uncertainty for u in report.units]
        assert abs(report.final.u_final - sum(us) / len(us)) < 1e-9

    def test_identical_responses_complete(self, agsc_config):
        text = "The garden detail 0 is alpha here. The garden is lovely."
        sample = SampleSet(
            prompt_id="same", prompt="q", responses=(text, text, text)
        )
        report = run_prompt(sample, agsc_config, marker_providers())
        assert 0.0 <= report.final.u_final <= 1.0


class TestRunCorpus:
    def _samples(self, n=3):
        kinds = [["alpha", "omega"], ["alpha", "zeta", "theta"], ["omega", "omega"]]
        return [
            marker_sample(f"p{i}", kinds[i % len(kinds)], topic_index=i)
            for i in range(n)
        ]

    def test_three_prompt_fixture(self, agsc_config, tmp_path):
        config = dataclasses.replace(agsc_config, report_dir=str(tmp_path / "out"))
        reports, summary = run_corpus(self._samples(), config, marker_providers())
        assert len(reports) == 3
        assert summary.n_prompts == 3
        assert summary.n_failed == 0
        lines = (tmp_path / "out" / "reports.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert (tmp_path / "out" / "summary.json").exists()
        parsed = [json.loads(line) for line in lines]
        assert [p["prompt_id"] for p in parsed] == ["p0", "p1", "p2"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_extreme_embeddings_fail_one_prompt_only(self, agsc_config, tmp_path):
        class HugeForHarbor:
            """Finite but extreme vectors (+-1e300) for prompt p1's texts."""

            def __init__(self, inner):
                self.inner = inner

            def embed_batch(self, texts):
                vectors = self.inner.embed_batch(texts)
                if not any("harbor" in t for t in texts):
                    return vectors
                return [
                    EmbeddingVector(tuple(1e300 if x > 0 else -1e300 for x in v.values))
                    for v in vectors
                ]

        providers = marker_providers()
        providers.embedder = HugeForHarbor(providers.embedder)
        config = dataclasses.replace(agsc_config, report_dir=str(tmp_path / "out"))
        reports, summary = run_corpus(self._samples(), config, providers)
        assert [f.prompt_id for f in summary.failures] == ["p1"]
        assert "non-finite" in summary.failures[0].error
        lines = (tmp_path / "out" / "reports.jsonl").read_text().splitlines()
        assert [json.loads(line)["prompt_id"] for line in lines] == ["p0", "p2"]

    def test_pipeline_error_fails_one_prompt_only(self, agsc_config, monkeypatch):
        # A valid SampleSet always segments into sentences, so stub the
        # segmenter to find none in p0's anchor.
        import agsc.pipeline as pipeline

        real = pipeline.segment_sentences

        def segment(text, response_index=0):
            return [] if "river" in text and response_index == 0 else real(text, response_index)

        monkeypatch.setattr(pipeline, "segment_sentences", segment)
        results = run_many(self._samples(2), agsc_config, marker_providers())
        assert isinstance(results[0], PromptFailure)
        assert "no sentences" in results[0].error
        assert isinstance(results[1], PromptReport)

    def test_close_releases_cache_handles(self, agsc_config, tmp_path, monkeypatch):
        from agsc.providers import ResponseCache

        closed = []
        real_close = ResponseCache.close

        def close(cache):
            closed.append(cache)
            real_close(cache)

        monkeypatch.setattr(ResponseCache, "close", close)
        config = dataclasses.replace(
            agsc_config, cache_dir=str(tmp_path / "cache"), report_dir=str(tmp_path / "out")
        )
        providers = build_providers(config)
        run_corpus(self._samples(1), config, providers)
        providers.close()
        assert len({id(cache) for cache in closed}) == len(closed) == 3
        marker_providers().close()  # providers without handles close as a no-op

    def test_empty_corpus(self, agsc_config, tmp_path):
        config = dataclasses.replace(agsc_config, report_dir=str(tmp_path / "out"))
        reports, summary = run_corpus([], config, marker_providers())
        assert reports == []
        assert summary.n_prompts == 0
        assert (tmp_path / "out" / "reports.jsonl").read_text() == ""

    def test_provider_failure_marks_prompt_failed(self, agsc_config, tmp_path):
        class FlakyNli:
            def __init__(self):
                self.inner = ScriptedNliProvider(default=marker_nli_rule)

            def nli_batch(self, pairs):
                if any("harbor" in p or "harbor" in h for p, h in pairs):
                    raise ProviderError("no harbor service", attempts=3)
                return self.inner.nli_batch(pairs)

        providers = ProviderBundle(
            nli=FlakyNli(),
            embedder=HashEmbeddingProvider(dim=32),
            decomposer=ScriptedDecomposerProvider(default=marker_decomposer_rule),
        )
        config = dataclasses.replace(agsc_config, report_dir=str(tmp_path / "out"))
        samples = self._samples()  # p1 uses topic_index=1 -> "harbor"
        reports, summary = run_corpus(samples, config, providers)
        assert summary.n_failed == 1
        assert summary.failures[0].prompt_id == "p1"
        assert [r.prompt_id for r in reports] == ["p0", "p2"]
        lines = (tmp_path / "out" / "reports.jsonl").read_text().splitlines()
        assert len(lines) == 2

    def test_determinism_byte_identical_directories(self, tmp_path):
        config_a = self._mock_config(tmp_path / "a")
        config_b = self._mock_config(tmp_path / "b")
        samples = self._samples()
        run_corpus(samples, config_a, build_providers(config_a))
        run_corpus(samples, config_b, build_providers(config_b))
        for name in ("reports.jsonl", "summary.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def _mock_config(self, out_dir) -> PipelineConfig:
        return dataclasses.replace(
            apply_variant(default_config(), "agsc"),
            timing="off",
            seed=5,
            workers=2,
            report_dir=str(out_dir),
        )

    def test_warm_cache_zero_provider_calls_and_identical_output(self, tmp_path):
        samples = self._samples()
        outputs = []
        counters = []
        for run in ("first", "second"):
            inner_nli = CountingNli(ScriptedNliProvider(default=marker_nli_rule))
            inner_emb = CountingEmbedder(HashEmbeddingProvider(dim=32))
            inner_dec = CountingDecomposer(
                ScriptedDecomposerProvider(default=marker_decomposer_rule)
            )
            config = dataclasses.replace(
                apply_variant(default_config(), "agsc"),
                timing="off",
                seed=5,
                workers=1,
                cache_dir=str(tmp_path / "cache"),
                report_dir=str(tmp_path / run),
            )
            # Wrap the cache around counting mocks so calls that reach the
            # network layer are observable.
            from agsc.providers import CachedDecomposer, CachedEmbedding, CachedNli, ResponseCache

            providers = ProviderBundle(
                nli=CachedNli(inner_nli, ResponseCache(tmp_path / "cache" / "nli.jsonl")),
                embedder=CachedEmbedding(
                    inner_emb, ResponseCache(tmp_path / "cache" / "embed.jsonl")
                ),
                decomposer=CachedDecomposer(
                    inner_dec, ResponseCache(tmp_path / "cache" / "decompose.jsonl")
                ),
            )
            run_corpus(samples, config, providers)
            providers.close()
            outputs.append((tmp_path / run / "reports.jsonl").read_bytes())
            counters.append((inner_nli.pairs_seen, inner_emb.texts_seen, inner_dec.calls))
        assert counters[0][0] > 0
        assert counters[1] == (0, 0, 0)
        assert outputs[0] == outputs[1]

    def test_reports_are_reingestible(self, agsc_config, tmp_path):
        from agsc.corpus import load_dataset

        config = dataclasses.replace(agsc_config, report_dir=str(tmp_path / "out"))
        samples = [
            marker_sample("r0", ["alpha", "omega"], factuality=0.4),
            marker_sample("r1", ["alpha"], topic_index=1, factuality=0.9),
        ]
        run_corpus(samples, config, marker_providers())
        reloaded = load_dataset(tmp_path / "out" / "reports.jsonl")
        assert [s.prompt_id for s in reloaded] == ["r0", "r1"]
        assert reloaded[0].responses == samples[0].responses
        assert reloaded[0].factuality == 0.4

    def test_run_many_preserves_order_with_workers(self, agsc_config):
        samples = self._samples()
        config = dataclasses.replace(agsc_config, workers=3)
        results = run_many(samples, config, marker_providers())
        assert [r.prompt_id for r in results] == ["p0", "p1", "p2"]
        assert not any(isinstance(r, PromptFailure) for r in results)


class _Overlap:
    """Counts the threads inside a block at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self._now = 0
        self.peak = 0

    @contextmanager
    def inside(self):
        with self._lock:
            self._now += 1
            self.peak = max(self.peak, self._now)
        try:
            yield
        finally:
            with self._lock:
                self._now -= 1


class TestTurn:
    """run_many keeps many prompts in flight but computes one at a time."""

    @staticmethod
    def _samples(n: int, kinds=("alpha", "theta", "omega", "zeta", "alpha")):
        return [marker_sample(f"t{i}", list(kinds), topic_index=i) for i in range(n)]

    def test_provider_waits_overlap_and_clustering_stays_serial(
        self, agsc_config, monkeypatch
    ):
        nli_overlap, cluster_overlap = _Overlap(), _Overlap()

        class SlowNli:
            inner = ScriptedNliProvider(default=marker_nli_rule)

            def nli_batch(self, pairs):
                with nli_overlap.inside():
                    time.sleep(0.02)
                    return self.inner.nli_batch(pairs)

        select_k = agsc.pipeline.select_k

        def recording_select_k(*args, **kwargs):
            with cluster_overlap.inside():
                time.sleep(0.005)  # would let another prompt in without the turn
                return select_k(*args, **kwargs)

        monkeypatch.setattr(agsc.pipeline, "select_k", recording_select_k)
        providers = marker_providers()
        providers.nli = SlowNli()
        config = dataclasses.replace(agsc_config, workers=4)
        results = run_many(self._samples(8), config, providers)
        assert all(isinstance(r, PromptReport) for r in results)
        assert nli_overlap.peak > 1
        assert cluster_overlap.peak == 1

    @pytest.mark.parametrize("wrapped", [False, True])
    def test_warm_cache_lookups_hold_the_turn(
        self, agsc_config, tmp_path, monkeypatch, wrapped
    ):
        overlap = _Overlap()
        get = ResponseCache.get

        def recording_get(self, key):
            with overlap.inside():
                time.sleep(0.001)
                return get(self, key)

        providers = marker_providers()
        cached = CachedNli(providers.nli, ResponseCache(tmp_path / "nli.jsonl"))
        # Wrapped, the meter gives the turn up and the cache takes it back.
        providers.nli = CountingNli(cached) if wrapped else cached
        samples = self._samples(6)
        config = dataclasses.replace(agsc_config, workers=4)
        try:
            cold = run_many(samples, config, providers)
            monkeypatch.setattr(ResponseCache, "get", recording_get)
            warm = run_many(samples, config, providers)
        finally:
            cached.close()
        assert overlap.peak == 1
        assert warm == cold

    def test_only_a_provider_that_waits_gets_the_turn_given_up(self, tmp_path):
        turn = threading.Lock()
        plain = ScriptedNliProvider(default=marker_nli_rule)
        cached = CachedNli(plain, ResponseCache(tmp_path / "nli.jsonl"))
        try:
            with taking_turn(turn):
                with waiting_on(plain):
                    assert not turn.locked()
                with waiting_on(cached):
                    assert turn.locked()  # a hit must not hand the turn over
                assert turn.locked()
            assert not turn.locked()
        finally:
            cached.close()

    @pytest.mark.parametrize(("cpus", "want"), [(1, 5), (2, 6), (28, 32), (64, 32), (None, 5)])
    def test_zero_workers_is_the_io_pool_default(self, monkeypatch, cpus, want):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert default_config().effective_workers() == want
        assert dataclasses.replace(default_config(), workers=3).effective_workers() == 3

    def test_untimed_reports_identical_for_any_worker_count(self, agsc_config):
        samples = self._samples(7) + [marker_sample("skip", ["zeta", "zeta"])]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads as often as possible
        try:
            runs = [
                [
                    report_to_dict(r, s)
                    for r, s in zip(
                        run_many(
                            samples,
                            dataclasses.replace(agsc_config, workers=w),
                            marker_providers(),
                        ),
                        samples,
                    )
                ]
                for w in (1, 2, 0)
            ]
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1] == runs[2]

    def test_turn_waits_are_not_billed_to_a_stage(self, agsc_config):
        providers = marker_providers()
        providers.decomposer = FixedLatencyDecomposer(providers.decomposer, latency_ms=20.0)
        config = dataclasses.replace(agsc_config, workers=8, timing="wall")
        # A thread back from the provider needs the interpreter lock to stop
        # its stopwatch; a short switch interval keeps that wait out of the
        # measurement, so only turn waits could break the bound.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            reports = run_many(self._samples(16), config, providers)
        finally:
            sys.setswitchinterval(interval)
        for r in reports:
            assert r.timing.decomposer_calls >= 1
            assert r.timing.t_atom_ms < r.timing.decomposer_calls * 20.0 + 15.0, r.timing
