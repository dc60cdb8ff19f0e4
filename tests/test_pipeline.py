"""Orchestration: single prompts, corpus runs, caching, determinism."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import signal
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import (
    CountingDecomposer,
    Overlap,
    CountingEmbedder,
    CountingNli,
    marker_decomposer_rule,
    marker_nli_rule,
    marker_providers,
    marker_sample,
    segmented,
)
from agsc import SampleSet, default_config
import agsc.corpus
import agsc.pipeline
import agsc.providers.base
import agsc.scoring
from agsc.config import PipelineConfig
from agsc.corpus import segment_sentences
from agsc.evaluation import apply_variant
from agsc.pipeline import (
    CorpusSummary,
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
    CachedDecomposer,
    CachedEmbedding,
    CachedNli,
    EmbeddingVector,
    FixedLatencyDecomposer,
    HashEmbeddingProvider,
    ProtocolError,
    ProviderError,
    ResponseCache,
    ScriptedDecomposerProvider,
    ScriptedNliProvider,
    content_key,
)
from agsc.providers.base import _turn, taking_turn, waiting_on
from agsc.scoring import ScoringConfig, make_chunks

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

    @pytest.mark.parametrize(
        "key, field, value",
        [
            (None, "u_final", True),
            (None, "u_final", "0.5"),
            ("timing", "decomposer_calls", [1]),
            ("timing", "nli_pairs", 1.5),
            ("timing", "embed_calls", False),
        ],
    )
    def test_report_from_dict_rejects_wrong_types(self, key, field, value):
        sample, config = golden_inputs()
        report = run_prompt(sample, config, marker_providers())
        line = json.loads(json.dumps(report_to_dict(report, sample)))
        (line[key] if key else line)[field] = value
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            report_from_dict(line)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda line: line.update(units="r0.s2"), "field 'units' must be an array"),
            (
                lambda line: line["sentences"][0].update(units="r0.s2"),
                "field 'units' must be an array",
            ),
            (
                lambda line: line["sentences"][0].update(units=[7]),
                "items of field 'units' must be str",
            ),
            (
                lambda line: line["units"][0].update(memberships=["x", True]),
                "items of field 'memberships' must be float",
            ),
            (
                lambda line: line["units"][0].update(memberships=[0.5, True]),
                "items of field 'memberships' must be float",
            ),
            (lambda line: line.update(timing=[1]), r"field 'timing' must be an object, got \[1\]"),
            (lambda line: line.update(meta=[1]), r"field 'meta' must be an object, got \[1\]"),
            (lambda line: line.update(sentences=[1]), "items of field 'sentences' must be an object"),
            (lambda line: line.update(units=["r0.s0"]), "items of field 'units' must be an object"),
            (lambda line: line.update(clusters=[[]]), "items of field 'clusters' must be an object"),
            (lambda line: line.pop("timing"), "field 'timing' is missing"),
            (lambda line: line.pop("meta"), "field 'meta' is missing"),
            (lambda line: line["timing"].pop("t_nli_ms"), "field 't_nli_ms' is missing"),
            (lambda line: line["units"][0].pop("text"), "field 'text' is missing"),
        ],
        ids=[
            "units", "sentence_units", "sentence_unit_item", "membership_str", "membership_bool",
            "timing_list", "meta_list", "sentence_item", "unit_item", "cluster_item",
            "no_timing", "no_meta", "no_timing_field", "no_unit_field",
        ],
    )
    def test_report_from_dict_rejects_wrong_shaped_sequences(self, edit, message):
        sample, config = golden_inputs()
        report = run_prompt(sample, config, marker_providers())
        line = json.loads(json.dumps(report_to_dict(report, sample)))
        edit(line)
        with pytest.raises(ValueError, match=message):
            report_from_dict(line)

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

    def test_each_response_is_split_once(self, agsc_config, monkeypatch):
        # Budget 30 puts each reference sentence in its own chunk.
        config = dataclasses.replace(
            agsc_config, scoring=ScoringConfig(chunk_budget_chars=30, chunk_stride_chars=10)
        )
        sample = marker_sample("p", ["alpha", "theta", "omega", "zeta", "theta"])
        n_chunks = sum(
            len(make_chunks(segment_sentences(r, response_index=1), config.scoring))
            for r in sample.references
        )
        assert n_chunks > len(sample.references)
        real = agsc.corpus.split_sentences
        split = []

        def counting(text):
            split.append(text)
            return real(text)

        # Every agsc module that binds the splitter, wherever it is called from.
        for name, module in list(sys.modules.items()):
            if name.startswith("agsc") and getattr(module, "split_sentences", None) is real:
                monkeypatch.setattr(module, "split_sentences", counting)
        run_prompt(sample, config, marker_providers())
        assert sorted(split) == sorted(sample.responses)

    def test_only_anchor_sentences_get_routing_distributions(
        self, agsc_config, monkeypatch
    ):
        softmax = agsc.scoring.three_class_softmax
        calls = []

        def counting(logits):
            calls.append(logits)
            return softmax(logits)

        monkeypatch.setattr(agsc.scoring, "three_class_softmax", counting)
        # Budget 30 puts each reference sentence in its own chunk.
        config = dataclasses.replace(
            agsc_config, scoring=ScoringConfig(chunk_budget_chars=30, chunk_stride_chars=10)
        )
        sample = marker_sample("p", ["alpha", "theta", "omega", "zeta", "theta"])
        report = run_prompt(sample, config, marker_providers())
        assert [s.decision for s in report.sentences].count("decompose") == 2
        n_chunks = sum(
            len(make_chunks(segment_sentences(r, response_index=1), config.scoring))
            for r in sample.references
        )
        assert n_chunks == 2 * len(sample.references)
        # One softmax per anchor sentence and chunk; the four facts add none.
        assert len(calls) == len(report.sentences) * n_chunks

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

    def test_summary_json_is_the_corpus_summary_in_field_order(self, agsc_config, tmp_path):
        class DownForHarbor:
            def __init__(self, inner):
                self.inner = inner

            def embed_batch(self, texts):
                if any("harbor" in t for t in texts):
                    raise ProviderError("embedder down", attempts=2)
                return self.inner.embed_batch(texts)

        providers = ProviderBundle(
            nli=ScriptedNliProvider(default=marker_nli_rule),
            embedder=DownForHarbor(HashEmbeddingProvider(dim=32)),
            decomposer=ScriptedDecomposerProvider(default=marker_decomposer_rule),
        )
        config = dataclasses.replace(agsc_config, report_dir=str(tmp_path / "out"))
        _, summary = run_corpus(self._samples(), config, providers)  # p1 is "harbor"
        data = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
        assert list(data) == [f.name for f in dataclasses.fields(CorpusSummary)]
        assert data["failures"] == [{"prompt_id": "p1", "error": "embedder down"}]
        assert data["variant"] == "agsc"
        assert data == dataclasses.asdict(summary)

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


class TestTurn:
    """run_many keeps many prompts in flight but computes one at a time."""

    @staticmethod
    def _samples(n: int, kinds=("alpha", "theta", "omega", "zeta", "alpha")):
        return [marker_sample(f"t{i}", list(kinds), topic_index=i) for i in range(n)]

    def test_provider_waits_overlap_and_clustering_stays_serial(
        self, agsc_config, monkeypatch
    ):
        nli_overlap, cluster_overlap = Overlap(), Overlap()

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

    def test_fact_scores_are_computed_under_the_turn(self, agsc_config, monkeypatch):
        # A prompt's facts are scored while its units are clustered, on
        # two threads of the prompt's turn; the scoring arithmetic must
        # hold the turn like the clustering does.
        spy_lock = threading.Lock()
        calls, unheld = [0], [0]
        entail = agsc.scoring.binary_entail

        def spying_entail(logits):
            with spy_lock:
                calls[0] += 1
                unheld[0] += _turn.lock is not None and not _turn.held
            return entail(logits)

        monkeypatch.setattr(agsc.scoring, "binary_entail", spying_entail)
        config = dataclasses.replace(agsc_config, workers=4)
        samples = self._samples(8, ("alpha", "theta", "omega", "zeta", "theta"))
        results = run_many(samples, config, marker_providers())
        assert all(isinstance(r, PromptReport) for r in results)
        assert calls[0] > 0
        assert unheld[0] == 0

    # Three decompose-routed sentences per prompt: a round that may start threads.
    THREE_THETA = ("theta", "alpha", "theta", "zeta", "theta")
    # One: a round run in the prompt's own thread.
    ONE_THETA = ("alpha", "theta", "omega", "zeta", "alpha")

    @staticmethod
    def _finishing(fn, timeout_s: float = 60.0):
        """fn() in a helper thread; fails if it has not returned by the timeout."""
        out = []
        t = threading.Thread(target=lambda: out.append(fn()), daemon=True)
        t.start()
        t.join(timeout_s)
        assert not t.is_alive(), f"still running after {timeout_s} s"
        return out[0]

    @pytest.mark.parametrize(
        ("provider", "wrapped", "kinds"),
        [
            ("nli", False, ONE_THETA),
            ("nli", True, ONE_THETA),
            ("decomposer", False, THREE_THETA),
            ("decomposer", True, THREE_THETA),
            ("decomposer", False, ONE_THETA),
            ("decomposer", True, ONE_THETA),
        ],
        ids=[
            "False",
            "True",
            "decomposer-False",
            "decomposer-True",
            "decomposer-one-theta-False",
            "decomposer-one-theta-True",
        ],
    )
    def test_warm_cache_lookups_hold_the_turn(
        self, agsc_config, tmp_path, monkeypatch, provider, wrapped, kinds
    ):
        overlap = Overlap()
        get = ResponseCache.get

        def recording_get(self, key):
            with overlap.inside():
                time.sleep(0.001)
                return get(self, key)

        providers = marker_providers()
        if provider == "nli":
            cached = CachedNli(providers.nli, ResponseCache(tmp_path / "nli.jsonl"))
            # Wrapped, the meter gives the turn up and the cache takes it back.
            providers.nli = CountingNli(cached) if wrapped else cached
        else:
            cached = CachedDecomposer(
                providers.decomposer, ResponseCache(tmp_path / "decompose.jsonl")
            )
            # Wrapped, each decomposer call gives the turn up and the cache
            # takes it back for its lookups, in threads the round started
            # with three thetas and in the prompt's own thread with one.
            providers.decomposer = CountingDecomposer(cached) if wrapped else cached
        samples = self._samples(6, kinds)
        config = dataclasses.replace(agsc_config, workers=4)
        try:
            cold = self._finishing(lambda: run_many(samples, config, providers))
            monkeypatch.setattr(ResponseCache, "get", recording_get)
            warm = self._finishing(lambda: run_many(samples, config, providers))
        finally:
            cached.close()
        assert overlap.peak == 1
        assert warm == cold
        assert all(isinstance(r, PromptReport) for r in warm)

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

    @pytest.mark.parametrize(("cpus", "want"), [(1, 24), (2, 24), (28, 24), (64, 24), (None, 24)])
    def test_zero_workers_is_the_io_pool_default(self, monkeypatch, cpus, want):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert default_config().effective_workers() == want
        assert dataclasses.replace(default_config(), workers=3).effective_workers() == 3

    def test_zero_workers_keeps_24_prompts_in_flight(self, agsc_config):
        # The first 24 NLI calls each wait until all 24 are inside at once.
        # A prompt makes one call at a time, so they come from 24 prompts;
        # with fewer in flight the barrier times out and the run raises.
        barrier = threading.Barrier(24, timeout=10.0)
        lock = threading.Lock()
        calls = [0]

        class GatheringNli:
            inner = ScriptedNliProvider(default=marker_nli_rule)

            def nli_batch(self, pairs):
                with lock:
                    calls[0] += 1
                    gather = calls[0] <= 24
                if gather:
                    barrier.wait()
                return self.inner.nli_batch(pairs)

        providers = marker_providers()
        providers.nli = GatheringNli()
        config = dataclasses.replace(agsc_config, workers=0)
        results = run_many(self._samples(24), config, providers)
        assert all(isinstance(r, PromptReport) for r in results)

    def test_untimed_reports_identical_for_any_worker_count(self, base_config):
        samples = self._samples(7) + [
            marker_sample("skip", ["zeta", "zeta"]),
            marker_sample("three-theta", list(self.THREE_THETA), topic_index=3),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads as often as possible
        configs = [
            apply_variant(base_config, v)
            for v in ("agsc", "luq_atomic", "ablate_kmeans", "agsc_literal")
        ]
        try:
            for config in configs:
                runs = [
                    [
                        report_to_dict(r, s)
                        for r, s in zip(
                            run_many(
                                samples,
                                dataclasses.replace(config, workers=w),
                                marker_providers(),
                            ),
                            samples,
                        )
                    ]
                    for w in (1, 2, 0)
                ]
                assert runs[0] == runs[1] == runs[2], config.variant
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
    def test_turn_waits_are_not_billed_to_a_stage(self, agsc_config, tmp_path, cached):
        providers = marker_providers()
        providers.decomposer = FixedLatencyDecomposer(providers.decomposer, latency_ms=20.0)
        if cached:
            # A fresh cache takes the turn for its lookup and back after
            # the fetch, inside the atom stage.
            providers.decomposer = CachedDecomposer(
                providers.decomposer, ResponseCache(tmp_path / "decompose.jsonl")
            )
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
            providers.close()
        for r in reports:
            assert r.timing.decomposer_calls >= 1
            assert r.timing.t_atom_ms < r.timing.decomposer_calls * 20.0 + 15.0, r.timing

    def test_decomposition_round_is_billed_once(self, agsc_config):
        # Three 20 ms calls at once (max_in_flight 4): the atom stage is the
        # round's wall time, not the 60 ms sum of its calls.
        providers = marker_providers()
        providers.decomposer = FixedLatencyDecomposer(providers.decomposer, latency_ms=20.0)
        config = dataclasses.replace(agsc_config, timing="wall")
        assert config.decompose.transport.max_in_flight == 4
        sample = marker_sample("round", list(self.THREE_THETA))
        report = run_prompt(sample, config, providers)
        assert report.timing.decomposer_calls == 3
        assert 20.0 <= report.timing.t_atom_ms < 20.0 + 15.0, report.timing
        # One call, made inline, is a round too.
        report = run_prompt(marker_sample("one", list(self.ONE_THETA)), config, providers)
        assert report.timing.decomposer_calls == 1
        assert 20.0 <= report.timing.t_atom_ms < 20.0 + 15.0, report.timing

    def test_a_round_the_cache_answers_keeps_the_turn(
        self, agsc_config, tmp_path, monkeypatch
    ):
        sentences = ["The theta one sat.", "A theta two ran.", "Theta three hid."]
        cached = CachedDecomposer(
            ScriptedDecomposerProvider(default=marker_decomposer_rule),
            ResponseCache(tmp_path / "decompose.jsonl"),
        )
        providers = marker_providers()
        providers.decomposer = cached
        config = dataclasses.replace(agsc_config, timing="wall")
        meter = agsc.pipeline._Meter(providers, config)
        try:
            cold = meter.decompose_all(sentences, "ctx")
            held, started = [], []
            get, start = ResponseCache.get, threading.Thread.start

            def recording_get(self, key):
                held.append(_turn.held)
                return get(self, key)

            def counting_start(thread):
                started.append(thread)
                start(thread)

            monkeypatch.setattr(ResponseCache, "get", recording_get)
            monkeypatch.setattr(threading.Thread, "start", counting_start)
            turn = threading.Lock()
            with taking_turn(turn):
                assert meter.decompose_all(sentences, "ctx") == cold
                assert _turn.held
        finally:
            cached.close()
        assert held == [True] * 3
        assert started == []
        assert list(meter.stage_ms) == ["atom"]

    def test_a_plain_round_gives_the_turn_up_around_each_call(self, agsc_config):
        turn = threading.Lock()
        lock, seen = threading.Lock(), []

        class Recording:
            inner = ScriptedDecomposerProvider(default=marker_decomposer_rule)

            def decompose(self, sentence, prompt_context):
                with lock:
                    seen.append((sentence, _turn.lock is turn, _turn.held))
                return self.inner.decompose(sentence, prompt_context)

        providers = marker_providers()
        providers.decomposer = Recording()
        config = dataclasses.replace(agsc_config, timing="wall")
        meter = agsc.pipeline._Meter(providers, config)
        sentences = ["The theta one sat.", "A theta two ran.", "Theta three hid."]
        with taking_turn(turn):
            assert meter.decompose_all([], "ctx") == []
            assert (seen, meter.stage_ms) == ([], {})
            facts = meter.decompose_all(sentences, "ctx")
            assert _turn.held
        assert [f for f, _ in facts] == [marker_decomposer_rule(s, "ctx") for s in sentences]
        # Each call, in the prompt's thread or one the round started, has the
        # prompt's turn and does not hold it.
        assert sorted(seen) == [(s, True, False) for s in sorted(sentences)]
        assert list(meter.stage_ms) == ["atom"]

    @pytest.mark.parametrize("workers", [0, 1, 4])
    def test_no_thread_outlives_the_run(self, agsc_config, workers):
        providers = marker_providers()
        providers.decomposer = FixedLatencyDecomposer(providers.decomposer, latency_ms=2.0)
        config = dataclasses.replace(agsc_config, workers=workers)
        before = threading.active_count()
        results = run_many(self._samples(4, self.THREE_THETA), config, providers)
        assert all(isinstance(r, PromptReport) for r in results)
        assert threading.active_count() == before

    @pytest.mark.parametrize("variant", ["luq_sentence", "agsc"])
    def test_a_warm_run_scores_on_one_thread(self, base_config, tmp_path, monkeypatch, variant):
        # Every lookup hits, so no prompt ever gives the turn up and the
        # run has no reason to start a second prompt thread. Under agsc the
        # theta sentences make decomposition rounds and a fact/cluster split.
        config = dataclasses.replace(
            apply_variant(base_config, variant),
            workers=24,
            cache_dir=str(tmp_path / "cache"),
            report_dir=str(tmp_path / "out"),
        )
        samples = self._samples(30, self.THREE_THETA)
        bundle = build_providers(config)
        try:
            run_corpus(samples, config, bundle)
        finally:
            bundle.close()
        nli_cache = tmp_path / "cache" / "nli.jsonl"
        warmed = nli_cache.read_bytes()

        threads, peak = set(), [0]
        real_run_prompt = agsc.pipeline.run_prompt

        def spying_run_prompt(sample, config, providers):
            threads.add(threading.get_ident())
            peak[0] = max(peak[0], threading.active_count())
            return real_run_prompt(sample, config, providers)

        real_taking_turn = agsc.providers.base.taking_turn

        def slow_taking_turn(lock):
            # A new thread slow to take the turn must not leave the run
            # seeing it free and starting another thread meanwhile.
            time.sleep(0.02)
            return real_taking_turn(lock)

        monkeypatch.setattr(agsc.pipeline, "run_prompt", spying_run_prompt)
        monkeypatch.setattr(agsc.providers.base, "taking_turn", slow_taking_turn)
        before = threading.active_count()
        bundle = build_providers(config)
        try:
            _, summary = run_corpus(samples, config, bundle)
        finally:
            bundle.close()
        assert summary.n_failed == 0
        assert nli_cache.read_bytes() == warmed  # no miss: nothing was stored
        assert len(threads) == 1
        assert threading.get_ident() not in threads
        assert peak[0] == before + 1

    def test_waiting_prompts_reach_workers_in_flight_and_no_more(
        self, agsc_config, monkeypatch
    ):
        # Each prompt's first NLI call waits until four prompts wait at
        # once, so the run completes only if it keeps 4 prompts in flight.
        barrier = threading.Barrier(4, timeout=5.0)
        prompt = threading.local()
        in_flight = Overlap()
        real_run_prompt = agsc.pipeline.run_prompt

        def spying_run_prompt(sample, config, providers):
            with in_flight.inside():
                prompt.first_call = True
                return real_run_prompt(sample, config, providers)

        class GatheringNli:
            inner = ScriptedNliProvider(default=marker_nli_rule)

            def nli_batch(self, pairs):
                # Fact batches run in a helper thread, where first_call is unset.
                if getattr(prompt, "first_call", False):
                    prompt.first_call = False
                    barrier.wait()
                return self.inner.nli_batch(pairs)

        monkeypatch.setattr(agsc.pipeline, "run_prompt", spying_run_prompt)
        providers = marker_providers()
        providers.nli = GatheringNli()
        config = dataclasses.replace(agsc_config, workers=4)
        results = run_many(self._samples(8), config, providers)
        assert all(isinstance(r, PromptReport) for r in results)
        assert in_flight.peak == 4

    # The signal comes from prompt t2's NLI call, while the run is still
    # starting prompts, or from its embedding call, once all four run.
    # prompt.id is set on prompt threads only, so the embedding call that
    # signals is the units' one, which a prompt with no facts makes on its
    # own thread; its reference call runs on a helper thread.
    @pytest.mark.parametrize("call", ["nli_batch", "embed_batch"])
    def test_an_interrupt_lets_the_running_prompts_finish(
        self, agsc_config, tmp_path, monkeypatch, call
    ):
        events, lock, prompt = [], threading.Lock(), threading.local()
        real_run_prompt = agsc.pipeline.run_prompt

        def spying_run_prompt(sample, config, providers):
            with lock:
                events.append(("start", sample.prompt_id))
            prompt.id = sample.prompt_id
            report = real_run_prompt(sample, config, providers)
            with lock:
                events.append(("end", sample.prompt_id))
            return report

        def slowly(name, inner_call, items):
            with lock:
                interrupt = (
                    name == call
                    and getattr(prompt, "id", None) == "t2"
                    and ("signal", "t2") not in events
                )
                if interrupt:
                    events.append(("signal", "t2"))
            if interrupt:
                os.kill(os.getpid(), signal.SIGINT)
            # Every call waits, so prompts are in flight when the signal lands.
            time.sleep(0.05)
            return inner_call(items)

        class Interrupting:
            def __init__(self, inner):
                self.inner = inner

            def nli_batch(self, pairs):
                return slowly("nli_batch", self.inner.nli_batch, pairs)

            def embed_batch(self, texts):
                return slowly("embed_batch", self.inner.embed_batch, texts)

        monkeypatch.setattr(agsc.pipeline, "run_prompt", spying_run_prompt)
        providers = marker_providers()
        providers.nli = Interrupting(providers.nli)
        providers.embedder = Interrupting(providers.embedder)
        config = dataclasses.replace(agsc_config, workers=4, report_dir=str(tmp_path))
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            run_corpus(self._samples(8, ("alpha", "omega", "zeta")), config, providers)
        assert threading.active_count() == before, threading.enumerate()
        signalled = events.index(("signal", "t2"))
        started = [p for kind, p in events if kind == "start"]
        assert [e for e in events[signalled:] if e[0] == "start"] == [], events
        # Every prompt that started had finished when run_corpus raised.
        assert sorted(p for kind, p in events if kind == "end") == sorted(started), events


class _FactNli:
    """Scripted NLI whose fact batch (the one without the theta sentence)
    takes `fact_ms` and may fail; `open` is set while that call runs."""

    inner = ScriptedNliProvider(default=marker_nli_rule)

    def __init__(self, fact_ms: float = 0.0, error: str | None = None):
        self.fact_ms = fact_ms
        self.error = error
        self.open = threading.Event()

    def nli_batch(self, pairs):
        if any("theta" in hypothesis for _, hypothesis in pairs):
            return self.inner.nli_batch(pairs)
        self.open.set()
        try:
            time.sleep(self.fact_ms / 1000.0)
            if self.error:
                raise ProviderError(self.error)
            return self.inner.nli_batch(pairs)
        finally:
            self.open.clear()


class TestFactsScoredWhileClustering:
    """run_prompt scores a prompt's facts alongside its embed-and-cluster step."""

    @staticmethod
    def _providers(nli, embed_ms: float = 0.0, embed_error: str | None = None, seen=None):
        inner = HashEmbeddingProvider(dim=32)

        class Embedder:
            def embed_batch(self, texts):
                # Units, not references, are marker sentences: "... detail j ...".
                if seen is not None and all("detail" in t for t in texts):
                    nli.open.wait(1.0)  # the latch: wait for the fact call
                    seen.append(("embed", nli.open.is_set()))
                time.sleep(embed_ms / 1000.0)
                if embed_error:
                    raise ProviderError(embed_error)
                return inner.embed_batch(texts)

        providers = marker_providers()
        providers.nli, providers.embedder = nli, Embedder()
        return providers

    def test_embed_and_select_k_run_while_the_fact_call_is_open(
        self, agsc_config, monkeypatch
    ):
        nli, seen = _FactNli(fact_ms=30.0), []
        select_k = agsc.pipeline.select_k

        def recording_select_k(*args, **kwargs):
            seen.append(("select_k", nli.open.is_set()))
            return select_k(*args, **kwargs)

        monkeypatch.setattr(agsc.pipeline, "select_k", recording_select_k)
        providers = self._providers(nli, embed_ms=10.0, seen=seen)
        sample = marker_sample("o", list(TestTurn.ONE_THETA))
        report = run_prompt(sample, agsc_config, providers)
        assert report.timing.decomposer_calls == 1
        assert seen == [("embed", True), ("select_k", True)]

    def test_total_time_is_below_the_sum_of_the_stages(self, agsc_config):
        config = dataclasses.replace(agsc_config, timing="wall")
        providers = self._providers(_FactNli(fact_ms=30.0), embed_ms=10.0)
        t = run_prompt(marker_sample("o", list(TestTurn.ONE_THETA)), config, providers).timing
        assert t.t_nli_ms >= 30.0 and t.t_embed_ms >= 10.0, t
        assert t.t_total_ms < t.t_nli_ms + t.t_atom_ms + t.t_embed_ms + t.t_cluster_ms, t

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("embed_fails", [False, True])
    def test_a_failing_fact_call_fails_its_prompt(self, agsc_config, workers, embed_fails):
        # When both branches fail, the fact call's error is the one reported,
        # as it would be with the branches run one after the other.
        providers = self._providers(
            _FactNli(fact_ms=5.0, error="fact scoring down"),
            embed_error="embedder down" if embed_fails else None,
        )
        config = dataclasses.replace(agsc_config, workers=workers)
        samples = [
            marker_sample(f"f{i}", list(TestTurn.ONE_THETA), topic_index=i) for i in range(3)
        ]
        results = run_many(samples, config, providers)
        assert [(r.prompt_id, r.error) for r in results] == [
            (s.prompt_id, "fact scoring down") for s in samples
        ]

    @pytest.mark.parametrize(
        ("variant", "kinds", "threads"),
        [
            ("agsc", ("alpha", "omega", "zeta", "alpha"), 1),
            ("ablate_no_cluster", TestTurn.ONE_THETA, 0),
            ("agsc", TestTurn.ONE_THETA, 2),
        ],
        ids=["no-facts", "no-clustering", "facts-and-clustering"],
    )
    def test_clustering_starts_a_thread_for_the_references_and_facts_one_more(
        self, base_config, monkeypatch, variant, kinds, threads
    ):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        config = apply_variant(base_config, variant)
        report = run_prompt(marker_sample("t", list(kinds)), config, marker_providers())
        assert isinstance(report, PromptReport)
        assert len(started) == threads, started


class _SentenceNli:
    """Scripted NLI whose sentence batch (the one with the theta sentence)
    takes `sentence_ms`; `open` is set while that call runs."""

    inner = ScriptedNliProvider(default=marker_nli_rule)

    def __init__(self, sentence_ms: float = 0.0):
        self.sentence_ms = sentence_ms
        self.open = threading.Event()

    def nli_batch(self, pairs):
        if not any("theta" in hypothesis for _, hypothesis in pairs):
            return self.inner.nli_batch(pairs)
        self.open.set()
        try:
            time.sleep(self.sentence_ms / 1000.0)
            return self.inner.nli_batch(pairs)
        finally:
            self.open.clear()


class TestReferencesEmbeddedWhileRouting:
    """A clustering variant embeds a prompt's reference sentences while its
    anchor sentences are scored, and its units once they are final."""

    @staticmethod
    def _embedder(calls, references_fail: BaseException | None = None, latch=None):
        """Records each call's texts and, given a latch, whether its call
        was open when the embedder was called; the reference call (no
        text is a marker sentence, "... detail j ...") waits for the latch
        and may raise `references_fail`."""
        inner = HashEmbeddingProvider(dim=32)
        lock = threading.Lock()

        class Recording:
            def embed_batch(self, texts):
                references = not any("detail" in t for t in texts)
                if references and latch is not None:
                    latch.open.wait(1.0)
                with lock:
                    calls.append((list(texts), latch is not None and latch.open.is_set()))
                if references and references_fail is not None:
                    raise references_fail
                return inner.embed_batch(texts)

        return Recording()

    def test_the_reference_call_is_made_while_the_sentence_call_is_open(self, agsc_config):
        nli, calls = _SentenceNli(sentence_ms=30.0), []
        providers = marker_providers()
        providers.nli, providers.embedder = nli, self._embedder(calls, latch=nli)
        report = run_prompt(marker_sample("r", list(TestTurn.ONE_THETA)), agsc_config, providers)
        assert report.timing.decomposer_calls == 1
        assert [was_open for _, was_open in calls] == [True, False]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_references_then_units_are_embedded(self, agsc_config, workers):
        calls = []
        providers = marker_providers()
        providers.embedder = self._embedder(calls)
        sample = marker_sample("o", list(TestTurn.ONE_THETA), topic_index=2)
        config = dataclasses.replace(agsc_config, workers=workers)
        (report,) = run_many([sample], config, providers)
        references = [s.text for sents in segmented(sample.responses[1:]) for s in sents]
        assert [texts for texts, _ in calls] == [references, [u.text for u in report.units]]
        assert report.timing.embed_calls == len(references) + len(report.units)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_failed_reference_call_fails_only_a_prompt_with_units(
        self, agsc_config, workers
    ):
        calls = []
        providers = marker_providers()
        providers.embedder = self._embedder(calls, ProviderError("embedder down"))
        samples = [
            marker_sample("units", list(TestTurn.ONE_THETA)),
            marker_sample("all-skip", ["zeta", "zeta"], topic_index=1),
        ]
        config = dataclasses.replace(agsc_config, workers=workers)
        failed, skipped = run_many(samples, config, providers)
        assert failed == PromptFailure(prompt_id="units", error="embedder down")
        # The all-skip prompt's fallback report does not need the references.
        assert skipped.fallback_used
        assert skipped == run_prompt(samples[1], agsc_config, marker_providers())
        # The failed prompt's units were never embedded.
        assert all(not any("detail" in t for t in texts) for texts, _ in calls)

    # A malformed answer to the reference call is the case of
    # TestMalformedAnswers::test_embedding_answer_malformed, whose fault
    # reaches that call first.
    @pytest.mark.parametrize(
        ("fault", "message"),
        [("one-short", "vectors for"), ("other-dimension", "dimensions [16, 32]")],
        ids=["one-short", "other-dimension"],
    )
    def test_a_malformed_answer_of_the_unit_call_fails_the_prompt(
        self, agsc_config, fault, message
    ):
        inner, other = HashEmbeddingProvider(dim=32), HashEmbeddingProvider(dim=16)

        class Malformed:
            def embed_batch(self, texts):
                if not any("detail" in t for t in texts):
                    return inner.embed_batch(texts)
                if fault == "one-short":
                    return inner.embed_batch(texts)[:-1]
                return other.embed_batch(texts)

        providers = marker_providers()
        providers.embedder = Malformed()
        with pytest.raises(ProtocolError, match=re.escape(message)):
            run_prompt(marker_sample("m", list(TestTurn.ONE_THETA)), agsc_config, providers)

    def test_an_interrupt_of_the_reference_call_is_not_held(self, agsc_config):
        providers = marker_providers()
        providers.embedder = self._embedder([], KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run_prompt(marker_sample("s", ["zeta", "zeta"]), agsc_config, providers)

    @pytest.mark.parametrize("variant", ["luq_sentence", "luq_atomic", "ablate_no_cluster"])
    def test_a_variant_without_clustering_makes_no_embedding_call(self, base_config, variant):
        calls = []
        providers = marker_providers()
        providers.embedder = self._embedder(calls)
        config = apply_variant(base_config, variant)
        report = run_prompt(marker_sample("n", list(TestTurn.ONE_THETA)), config, providers)
        assert (calls, report.timing.embed_calls) == ([], 0)


class TestMalformedAnswers:
    """A provider answer of the wrong shape fails its prompt, not the run."""

    @staticmethod
    def _samples(kinds):
        # p1's texts, and only p1's, mention the harbor.
        return [marker_sample(f"p{i}", list(kinds), topic_index=i) for i in range(3)]

    @staticmethod
    def _assert_only_p1_failed(results, message):
        assert [type(r).__name__ for r in results] == [
            "PromptReport", "PromptFailure", "PromptReport"
        ]
        assert message in results[1].error

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("answer", [["fine fact", 2], ["fine fact", " "]],
                             ids=["non-string", "blank"])
    def test_unusable_fact_falls_back(self, agsc_config, workers, answer):
        class Unusable:
            def decompose(self, sentence, prompt_context):
                return answer

        providers = marker_providers()
        providers.decomposer = Unusable()
        config = dataclasses.replace(agsc_config, workers=workers)
        samples = [
            marker_sample(f"d{i}", list(TestTurn.ONE_THETA), topic_index=i) for i in range(2)
        ]
        results = run_many(samples, config, providers)
        assert [type(r).__name__ for r in results] == ["PromptReport", "PromptReport"]
        assert all(r.decomposer_fallback for r in results)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("batch", ["sentences", "facts"])
    def test_nli_answer_one_short(self, agsc_config, workers, batch):
        class ShortForHarbor:
            inner = ScriptedNliProvider(default=marker_nli_rule)

            def nli_batch(self, pairs):
                logits = self.inner.nli_batch(pairs)
                hypotheses = [h for _, h in pairs]
                facts = not any("theta" in h for h in hypotheses)
                if any("harbor" in h for h in hypotheses) and facts == (batch == "facts"):
                    return logits[:-1]
                return logits

        providers = marker_providers()
        providers.nli = ShortForHarbor()
        config = dataclasses.replace(agsc_config, workers=workers)
        results = run_many(self._samples(TestTurn.ONE_THETA), config, providers)
        self._assert_only_p1_failed(results, "NLI provider returned")

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize(
        "kinds",
        [TestTurn.ONE_THETA, ("alpha", "omega", "alpha")],
        ids=["overlapped", "inline"],
    )
    @pytest.mark.parametrize(
        ("fault", "message"),
        [("one-short", "vectors for"), ("one-length-1", "dimensions [1, 32]")],
        ids=["one-short", "one-length-1"],
    )
    def test_embedding_answer_malformed(self, agsc_config, workers, kinds, fault, message):
        inner = HashEmbeddingProvider(dim=32)

        class MalformedForHarbor:
            def embed_batch(self, texts):
                vectors = inner.embed_batch(texts)
                if not any("harbor" in t for t in texts):
                    return vectors
                if fault == "one-short":
                    return vectors[:-1]
                return [EmbeddingVector((1.0,))] + vectors[1:]

        providers = marker_providers()
        providers.embedder = MalformedForHarbor()
        config = dataclasses.replace(agsc_config, workers=workers)
        results = run_many(self._samples(kinds), config, providers)
        self._assert_only_p1_failed(results, message)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("service", ["nli", "embed"])
    @pytest.mark.parametrize("fault", ["one-short", "one-long"])
    def test_wrong_length_answer_behind_a_cache(
        self, agsc_config, tmp_path, workers, service, fault
    ):
        bad_keys = []  # cache keys of the batch answered with the wrong length

        def wrong_length_for_harbor(batch, key):
            def answer(items):
                results = batch(items)
                if not any("harbor" in str(item) for item in items):
                    return results
                bad_keys.extend(key(item) for item in items)
                return results[:-1] if fault == "one-short" else results + results[:1]

            return answer

        providers = marker_providers()
        cache = ResponseCache(tmp_path / f"{service}.jsonl")
        if service == "nli":
            inner = SimpleNamespace(nli_batch=wrong_length_for_harbor(
                providers.nli.nli_batch, lambda pair: content_key("nli", *pair).hex()
            ))
            providers.nli = CachedNli(inner, cache)
        else:
            inner = SimpleNamespace(embed_batch=wrong_length_for_harbor(
                providers.embedder.embed_batch, lambda text: content_key("embed", text).hex()
            ))
            providers.embedder = CachedEmbedding(inner, cache)
        config = dataclasses.replace(agsc_config, workers=workers)
        results = run_many(self._samples(TestTurn.ONE_THETA), config, providers)
        providers.close()

        self._assert_only_p1_failed(results, f"{service}.jsonl returned")
        lines = (tmp_path / f"{service}.jsonl").read_text(encoding="utf-8").splitlines()
        stored = {json.loads(line)["k"] for line in lines}
        assert bad_keys
        assert stored  # the other prompts' answers were stored
        assert not stored & set(bad_keys)
