"""Mocks, the response cache, and decomposition parsing/fallback."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import sys
import threading
import time
import tracemalloc
import unicodedata
from array import array
from pathlib import Path

import pytest

from conftest import CountingDecomposer, CountingEmbedder, CountingNli, Overlap, marker_sample
import agsc.pipeline as pipeline
import agsc.providers.cache as cache_module
from agsc.cli import main
from agsc.evaluation import apply_variant
from agsc.pipeline import build_providers, run_corpus
from agsc.providers import (
    CacheCorruptError,
    CachedDecomposer,
    CachedEmbedding,
    CachedNli,
    EmbeddingVector,
    HashEmbeddingProvider,
    HashNliProvider,
    NliLogits,
    ProtocolError,
    ProviderConfig,
    ProviderError,
    ResilientDecomposer,
    ResponseCache,
    RetryPolicy,
    RuleBasedDecomposer,
    ScriptedDecomposerProvider,
    ScriptedNliProvider,
    parse_fact_lines,
    split_facts_rule_based,
)
from agsc.providers.base import share_turn, taking_turn, waiting
from agsc.providers.decompose import checked_facts
from agsc.providers.mocks import _token_bucket


class TestTypes:
    def test_logits_must_be_finite(self):
        with pytest.raises(ValueError):
            NliLogits(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            NliLogits(0.0, float("inf"), 0.0)

    def test_embedding_nonempty_finite(self):
        with pytest.raises(ValueError):
            EmbeddingVector(())
        with pytest.raises(ValueError):
            EmbeddingVector((1.0, float("nan")))
        assert EmbeddingVector((1.0, 2.0)).dim == 2

    def test_provider_config_validation(self):
        with pytest.raises(ValueError):
            ProviderConfig(batch_size=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestScriptedNli:
    def test_scripted_pair(self):
        mock = ScriptedNliProvider(script={("A", "A"): (5.0, -5.0, -5.0)})
        (out,) = mock.nli_batch([("A", "A")])
        assert out.as_tuple() == (5.0, -5.0, -5.0)

    def test_batch_alignment(self):
        mock = ScriptedNliProvider(
            script={("p1", "h1"): (1.0, 0.0, 0.0), ("p2", "h2"): (0.0, 1.0, 0.0)},
            default=(0.0, 0.0, 9.0),
        )
        out = mock.nli_batch([("p1", "h1"), ("px", "hx"), ("p2", "h2")])
        assert [o.as_tuple() for o in out] == [
            (1.0, 0.0, 0.0),
            (0.0, 0.0, 9.0),
            (0.0, 1.0, 0.0),
        ]

    def test_batching_invariance(self):
        mock = ScriptedNliProvider(default=lambda p, h: (len(p), len(h), 0.0))
        pairs = [(f"p{i}", f"hyp{i}") for i in range(7)]
        whole = mock.nli_batch(pairs)
        parts = mock.nli_batch(pairs[:3]) + mock.nli_batch(pairs[3:5]) + mock.nli_batch(pairs[5:])
        assert whole == parts

    def test_hash_nli_deterministic_and_bounded(self):
        a = HashNliProvider(seed=3)
        b = HashNliProvider(seed=3)
        other = HashNliProvider(seed=4)
        pairs = [("premise one", "hypo one"), ("premise two", "hypo two")]
        assert a.nli_batch(pairs) == b.nli_batch(pairs)
        assert a.nli_batch(pairs) != other.nli_batch(pairs)
        for logits in a.nli_batch(pairs):
            for v in logits.as_tuple():
                assert -4.0 <= v <= 4.0


class TestHashEmbedder:
    def test_same_text_same_vector(self):
        emb = HashEmbeddingProvider(dim=16)
        v1, v2 = emb.embed_batch(["a curious fox", "a curious fox"])
        assert v1 == v2

    def test_disjoint_vocab_orthogonal(self):
        # Oracle: apply the bucketing rule by hand and confirm the two
        # token sets touch disjoint buckets, which forces cosine 0.
        dim = 64
        t1, t2 = "alpha beta gamma", "delta epsilon"
        b1 = {_token_bucket(tok, dim) for tok in t1.split()}
        b2 = {_token_bucket(tok, dim) for tok in t2.split()}
        assert not (b1 & b2), "fixture bucket collision; pick other tokens"
        emb = HashEmbeddingProvider(dim=dim)
        v1, v2 = emb.embed_batch([t1, t2])
        dot = sum(x * y for x, y in zip(v1.values, v2.values))
        assert dot == 0.0

    def test_unit_norm(self):
        emb = HashEmbeddingProvider(dim=32)
        (v,) = emb.embed_batch(["some words repeated words"])
        assert math.isclose(sum(x * x for x in v.values), 1.0, abs_tol=1e-12)

    def test_empty_batch(self):
        assert HashEmbeddingProvider(dim=8).embed_batch([]) == []

    def test_constant_dimension(self):
        emb = HashEmbeddingProvider(dim=24)
        vecs = emb.embed_batch(["one", "two words", "three whole words"])
        assert {v.dim for v in vecs} == {24}


@pytest.fixture
def new_cache(tmp_path):
    """ResponseCache factory over tmp_path; closes what it made at teardown."""
    made: list[ResponseCache] = []

    def make(name: str) -> ResponseCache:
        made.append(ResponseCache(tmp_path / name))
        return made[-1]

    yield make
    for cache in made:
        cache.close()


def key_of(name: str) -> bytes:
    """A cache key as the wrappers make them: the digest of one text."""
    return cache_module.content_key(name)


class TestCache:
    def test_nli_cache_hit_skips_inner(self, new_cache):
        inner = CountingNli(ScriptedNliProvider(default=(1.0, 2.0, 3.0)))
        cached = CachedNli(inner, new_cache("nli.jsonl"))
        first = cached.nli_batch([("p", "h")])
        second = cached.nli_batch([("p", "h")])
        assert first == second
        assert inner.pairs_seen == 1

    def test_cache_persists_across_instances(self, new_cache):
        inner1 = CountingNli(ScriptedNliProvider(default=(1.0, 0.0, 0.0)))
        CachedNli(inner1, new_cache("nli.jsonl")).nli_batch([("p", "h"), ("q", "h")])
        inner2 = CountingNli(ScriptedNliProvider(default=(9.0, 9.0, 9.0)))
        out = CachedNli(inner2, new_cache("nli.jsonl")).nli_batch([("p", "h"), ("q", "h")])
        assert inner2.pairs_seen == 0
        assert all(o.as_tuple() == (1.0, 0.0, 0.0) for o in out)

    def test_cache_transparency(self, new_cache):
        mock = ScriptedNliProvider(default=lambda p, h: (len(p), len(h), 1.0))
        cached = CachedNli(mock, new_cache("nli.jsonl"))
        pairs = [("aa", "b"), ("c", "dd"), ("aa", "b")]
        assert cached.nli_batch(pairs) == mock.nli_batch(pairs)

    def test_partial_hit_keeps_order(self, new_cache):
        inner = CountingNli(ScriptedNliProvider(default=lambda p, h: (len(p), 0.0, 0.0)))
        cached = CachedNli(inner, new_cache("nli.jsonl"))
        cached.nli_batch([("aa", "h")])
        out = cached.nli_batch([("b", "h"), ("aa", "h"), ("cccc", "h")])
        assert [o.entail for o in out] == [1.0, 2.0, 4.0]
        assert inner.pairs_seen == 3  # 1 warm-up + 2 misses

    def test_embedding_cache(self, new_cache):
        inner = CountingEmbedder(HashEmbeddingProvider(dim=8))
        cached = CachedEmbedding(inner, new_cache("embed.jsonl"))
        v1 = cached.embed_batch(["hello there"])
        v2 = cached.embed_batch(["hello there"])
        assert v1 == v2
        assert inner.texts_seen == 1

    def test_decomposer_cache(self, new_cache):
        inner = CountingDecomposer(ScriptedDecomposerProvider(script={"s": ["f1", "f2"]}))
        cached = CachedDecomposer(inner, new_cache("dec.jsonl"))
        assert cached.decompose("s", "ctx") == ["f1", "f2"]
        assert cached.decompose("s", "ctx") == ["f1", "f2"]
        assert inner.calls == 1

    def test_cache_key_canonicalizes_unicode(self, new_cache):
        inner = CountingNli(ScriptedNliProvider(default=(1.0, 0.0, 0.0)))
        cached = CachedNli(inner, new_cache("nli.jsonl"))
        cached.nli_batch([("Café", "h")])
        cached.nli_batch([("Café", "h")])
        assert inner.pairs_seen == 1

    PAIR_BATCHES = {
        "repeats": [("p1", "h1"), ("p2", "h1"), ("p1", "h2"), ("p1", "h1"), ("p2", "h2")],
        "nfd": [("Cafe\u0301", "e\u0301"), ("Caf\u00e9", "\u00e9"), ("e\u0301", "Cafe\u0301")],
        "non_ascii": [("Ελλάδα", "日本語"), ("emoji \U0001f642", "Ελλάδα"), ("", "")],
        "separator": [("a\x1fb", "c"), ("a", "b\x1fc"), ("\x1f", "\x1f\x1f"), ("", "\x1f")],
    }

    @pytest.mark.parametrize("name", sorted(PAIR_BATCHES))
    def test_pair_keys_are_content_keys(self, name):
        pairs = self.PAIR_BATCHES[name]
        assert cache_module.pair_keys("nli", pairs) == [
            cache_module.content_key("nli", p, h) for p, h in pairs
        ]

    def test_content_key_records_serve_a_whole_batch(self, tmp_path, new_cache):
        pairs = [pair for batch in self.PAIR_BATCHES.values() for pair in batch]
        writer = ResponseCache(tmp_path / "nli.jsonl")
        for i, (p, h) in enumerate(pairs):
            writer.put(cache_module.content_key("nli", p, h), [float(i), 0.0, 0.0])
        writer.close()
        expected = [
            NliLogits(*writer.get(cache_module.content_key("nli", p, h))) for p, h in pairs
        ]
        inner = CountingNli(ScriptedNliProvider(default=(9.0, 9.0, 9.0)))
        cached = CachedNli(inner, new_cache("nli.jsonl"))
        assert cached.nli_batch(pairs) == expected
        assert inner.calls == 0

    def test_cached_batching_invariance(self, new_cache):
        mock = ScriptedNliProvider(default=lambda p, h: (len(p), len(h), 0.0))
        cached = CachedNli(mock, new_cache("nli.jsonl"))
        pairs = [(f"pp{i}", f"hh{i}") for i in range(6)] + [("pp0", "hh0")]
        whole = cached.nli_batch(pairs)
        parts = (
            cached.nli_batch(pairs[:2])
            + cached.nli_batch(pairs[2:5])
            + cached.nli_batch(pairs[5:])
        )
        assert whole == parts == mock.nli_batch(pairs)

    def test_each_distinct_miss_is_fetched_once(self, new_cache):
        nli = CountingNli(ScriptedNliProvider(default=lambda p, h: (len(p), 0.0, 0.0)))
        cached = CachedNli(nli, new_cache("nli.jsonl"))
        out = cached.nli_batch([("p", "h"), ("p", "h"), ("qq", "h")])
        assert (nli.calls, nli.pairs_seen) == (1, 2)
        assert [o.entail for o in out] == [1.0, 1.0, 2.0]
        embedder = CountingEmbedder(HashEmbeddingProvider(dim=8))
        vectors = CachedEmbedding(embedder, new_cache("embed.jsonl")).embed_batch(["a", "b", "a"])
        assert embedder.texts_seen == 2
        assert vectors[0] == vectors[2] != vectors[1]

    def test_a_cold_batch_equals_its_warm_rerun(self, new_cache):
        class Drifting:
            """Answers each pair differently every time it is asked."""

            asked = 0

            def nli_batch(self, pairs):
                self.asked += len(pairs)
                return [NliLogits(float(self.asked + i), 0.0, 0.0) for i in range(len(pairs))]

        pairs = [("p", "h"), ("q", "h"), ("p", "h"), ("p", "h")]
        cold = CachedNli(Drifting(), new_cache("nli.jsonl"))
        first = cold.nli_batch(pairs)
        cold.close()
        warm = CachedNli(Drifting(), new_cache("nli.jsonl")).nli_batch(pairs)
        assert first == warm
        assert first[0] == first[2] == first[3] != first[1]

    def test_torn_last_line_skipped_then_cut_before_next_put(
        self, tmp_path, new_cache, caplog
    ):
        path = tmp_path / "nli.jsonl"
        writer = new_cache("nli.jsonl")
        writer.put(key_of("old"), [1.0, 2.0, 3.0])
        writer.close()
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"k": "%s", "v": [4.0, 5' % key_of("torn").hex())  # killed mid-append
        cache = new_cache("nli.jsonl")
        with caplog.at_level("WARNING"):
            assert cache.get(key_of("old")) == [1.0, 2.0, 3.0]
        assert "unparsable last line" in caplog.text
        assert cache.get(key_of("torn")) is None
        cache.put(key_of("new"), [6.0])
        reopened = new_cache("nli.jsonl")
        assert reopened.get(key_of("old")) == [1.0, 2.0, 3.0]
        assert reopened.get(key_of("new")) == [6.0]
        assert [json.loads(l)["k"] for l in path.read_text().splitlines()] == [
            key_of("old").hex(), key_of("new").hex()
        ]

    def test_unterminated_last_record_kept(self, tmp_path, new_cache):
        path = tmp_path / "nli.jsonl"
        path.write_text('{"k": "%s", "v": 1}' % key_of("old").hex(),  # newline never written
                        encoding="utf-8")
        cache = new_cache("nli.jsonl")
        assert cache.get(key_of("old")) == 1
        cache.put(key_of("new"), 2)
        reopened = new_cache("nli.jsonl")
        assert (reopened.get(key_of("old")), reopened.get(key_of("new"))) == (1, 2)

    def test_unparsable_middle_line_raises(self, tmp_path):
        path = tmp_path / "nli.jsonl"
        path.write_text('{"k": "a", "v": 1}\nnot json\n{"k": "b", "v": 2}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            ResponseCache(path).get("a")

    def test_unparsable_middle_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "nli.jsonl"
        path.write_text('{"k": "a", "v": 1}\n\nnot json\n{"k": "b", "v": 2}\n', encoding="utf-8")
        with pytest.raises(CacheCorruptError, match=r"nli\.jsonl:3: unparsable"):
            ResponseCache(path).get("a")

    @pytest.mark.parametrize(
        "line", ['{"x": 1}', "[1, 2]", '"k"', "7", "null", '{"k": 3, "v": 1}', '{"k": "b"}']
    )
    @pytest.mark.parametrize("last", [False, True])
    def test_parsable_non_record_names_file_and_line(self, tmp_path, line, last):
        # No torn append parses, so a wrong-shaped line is corruption even
        # as the last line.
        path = tmp_path / "nli.jsonl"
        lines = ['{"k": "a", "v": 1}', line] + ([] if last else ['{"k": "c", "v": 3}'])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CacheCorruptError, match=r"nli\.jsonl:2: not a cache record"):
            ResponseCache(path).get("a")

    def test_one_append_handle_per_cache(self, tmp_path, monkeypatch):
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[1] if len(args) > 1 else kwargs.get("mode", "r"))
            return open(*args, **kwargs)

        monkeypatch.setattr(cache_module, "open", counting_open, raising=False)
        cache = ResponseCache(tmp_path / "nli.jsonl")
        assert opened == []  # nothing to load, and no handle before a put
        for i in range(5):
            cache.put(key_of(f"k{i}"), [float(i)])
        assert opened == ["a"]
        cache.close()
        cache.close()
        cache.put(key_of("k5"), [5.0])  # a put after close() opens the handle again
        assert opened == ["a", "a"]
        cache.close()
        reopened = ResponseCache(tmp_path / "nli.jsonl")
        assert [reopened.get(key_of(f"k{i}")) for i in range(6)] == [[float(i)] for i in range(6)]

    def test_fetched_batch_is_on_disk_when_returned(self, tmp_path, new_cache):
        cached = CachedNli(ScriptedNliProvider(default=(1.0, 0.0, 0.5)), new_cache("nli.jsonl"))
        cached.nli_batch([("p1", "h"), ("p2", "h"), ("p1", "h")])
        # Read through another handle without closing the cache's own.
        lines = (tmp_path / "nli.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        keys = [cache_module.content_key("nli", p, "h").hex() for p in ("p1", "p2")]
        assert lines == [
            json.dumps({"k": k, "v": [1.0, 0.0, 0.5]}, ensure_ascii=False) + "\n"
            for k in keys
        ]

    def test_no_record_is_served_before_it_is_on_disk(self, tmp_path, new_cache):
        # Thread A stores a fetched batch of two records; after its first
        # put() it waits while thread B fetches. Every record B's lookups
        # can be served must already be in the file.
        path = tmp_path / "nli.jsonl"
        cache = new_cache("nli.jsonl")
        keys = [cache_module.content_key("nli", p, "h") for p in ("a1", "a2", "b")]
        first_put, b_checked = threading.Event(), threading.Event()
        real_put = cache.put

        def put(key, value, held=None):
            real_put(key, value, held)
            if not first_put.is_set():
                first_put.set()
                b_checked.wait(timeout=10)

        cache.put = put
        seen = []

        class Checking:
            def nli_batch(self, pairs):
                served = [k for k in keys if cache.get(k) is not None]
                on_disk = path.read_text(encoding="utf-8") if path.exists() else ""
                seen.append((served, [k for k in served if k.hex() not in on_disk]))
                return [NliLogits(1.0, 0.0, 0.0)] * len(pairs)

        cached = CachedNli(Checking(), cache)

        def fetch_b():
            first_put.wait(timeout=10)
            cached.nli_batch([("b", "h")])
            b_checked.set()

        b = threading.Thread(target=fetch_b)
        b.start()
        cached.nli_batch([("a1", "h"), ("a2", "h")])
        b.join()
        assert seen[1] == ([keys[0]], [])  # B saw A's first record, on disk
        reopened = ResponseCache(path)
        assert all(reopened.get(k) == [1.0, 0.0, 0.0] for k in keys)


    @pytest.mark.parametrize(
        "value",
        [[1.0, 2.0], "abc", 5, [1.0, "x", 2.0], [True, False, True], ["8", 0.0, 0.0]],
    )
    def test_wrong_shaped_nli_record_is_a_protocol_error(self, new_cache, value):
        cache = new_cache("nli.jsonl")
        cache.put(cache_module.content_key("nli", "p", "h"), value)
        cached = CachedNli(ScriptedNliProvider(default=(1.0, 0.0, 0.0)), cache)
        with pytest.raises(ProtocolError, match=r"nli\.jsonl: cache record malformed"):
            cached.nli_batch([("p", "h")])

    @pytest.mark.parametrize("value", ["ab", [], ["f", 2], 5, {"f": "g"}, ["f", " "]])
    def test_wrong_shaped_decomposer_record_falls_back(self, new_cache, value):
        cache = new_cache("dec.jsonl")
        cache.put(cache_module.content_key("decompose", "a and b", "ctx"), value)
        inner = CountingDecomposer(ScriptedDecomposerProvider(script={"a and b": ["f1"]}))
        cached = CachedDecomposer(inner, cache)
        with pytest.raises(ProtocolError, match=r"dec\.jsonl: cache record malformed"):
            cached.decompose("a and b", "ctx")
        facts, fallback = ResilientDecomposer(cached).decompose("a and b", "ctx")
        assert (facts, fallback) == (["a", "b"], True)
        assert inner.calls == 0

    def test_empty_decomposer_answer_is_not_stored(self, tmp_path, new_cache, caplog):
        class Empty:
            calls = 0

            def decompose(self, sentence, prompt_context):
                self.calls += 1
                return []

        inner = Empty()
        runs = []
        with caplog.at_level("WARNING"):
            for _ in range(2):
                cached = CachedDecomposer(inner, new_cache("dec.jsonl"))
                runs.append(ResilientDecomposer(cached).decompose("a and b", "ctx"))
                cached.close()
        assert runs == [(["a", "b"], True)] * 2
        assert inner.calls == 2  # the warm run asks again
        assert not (tmp_path / "dec.jsonl").exists()
        assert "malformed" not in caplog.text
        assert "returned no facts" in caplog.text


class FixedEmbedder:
    """Embeds every text as the same vector."""

    def __init__(self, values):
        self.values = tuple(values)

    def embed_batch(self, texts):
        return [EmbeddingVector(self.values) for _ in texts]


def bits(values) -> bytes:
    return array("d", values).tobytes()


class TestPackedEmbeddings:
    """CachedEmbedding's cache holds each vector as a packed float64 array;
    the file keeps the JSON list."""

    VECTORS = {
        "signed_zero": (-0.0, 0.0, 1.0),
        "subnormal": (5e-324, -5e-324),
        "huge": (1e308, -1e308, 0.5),
        "tenth": (0.1, 0.2, 0.30000000000000004),
        "int_component": (1, 0.25, -3),
    }

    def test_a_fresh_store_holds_an_array(self, new_cache):
        cache = new_cache("embed.jsonl")
        (vec,) = CachedEmbedding(HashEmbeddingProvider(dim=8), cache).embed_batch(["hi"])
        held = cache.get(cache_module.content_key("embed", "hi"))
        assert type(held) is array and held.typecode == "d"
        assert bits(held) == bits(vec.values)

    @pytest.mark.parametrize("name", sorted(VECTORS))
    def test_a_stored_line_is_the_list_encoding(self, tmp_path, new_cache, name):
        values = self.VECTORS[name]
        cached = CachedEmbedding(FixedEmbedder(values), new_cache("embed.jsonl"))
        (first,) = cached.embed_batch(["t"])
        (hit,) = cached.embed_batch(["t"])
        key = cache_module.content_key("embed", "t").hex()
        line = json.dumps({"k": key, "v": list(values)}, ensure_ascii=False) + "\n"
        assert (tmp_path / "embed.jsonl").read_text(encoding="utf-8") == line
        assert hit == first == EmbeddingVector(values)
        assert bits(hit.values) == bits(values)

    def test_a_warm_file_is_held_packed_and_served_bit_for_bit(self, new_cache):
        texts = sorted(self.VECTORS)
        stored = {}
        for text in texts:
            cached = CachedEmbedding(FixedEmbedder(self.VECTORS[text]), new_cache("embed.jsonl"))
            (stored[text],) = cached.embed_batch([text])
            cached.close()
        cache = new_cache("embed.jsonl")
        inner = CountingEmbedder(HashEmbeddingProvider(dim=3))
        hits = CachedEmbedding(inner, cache).embed_batch(texts)
        assert inner.texts_seen == 0
        assert hits == [stored[t] for t in texts]
        assert [bits(h.values) for h in hits] == [bits(stored[t].values) for t in texts]
        for text in texts:
            assert type(cache.get(cache_module.content_key("embed", text))) is array

    @pytest.mark.parametrize(
        "value",
        [[1.0, None], [1.0, "x"], [[1.0, 2.0]], [], {"v": [1.0]}, "1.0", 5, [1.0, 10**400],
         [True, False], ["0.5", 1.0]],
    )
    @pytest.mark.parametrize("warm", [False, True])
    def test_malformed_embedding_record_is_a_protocol_error(self, new_cache, value, warm):
        key = cache_module.content_key("embed", "t")
        if warm:
            writer = new_cache("embed.jsonl")
            writer.put(key, value)
            writer.close()
            cache = new_cache("embed.jsonl")
            cached = CachedEmbedding(HashEmbeddingProvider(dim=2), cache)
        else:
            cache = new_cache("embed.jsonl")
            cached = CachedEmbedding(HashEmbeddingProvider(dim=2), cache)
            cache.put(key, value)
        with pytest.raises(ProtocolError, match=r"embed\.jsonl: cache record malformed"):
            cached.embed_batch(["t"])

    def test_stored_vectors_take_under_4_kb_each(self, new_cache):
        # 256 dimensions: about 2.3 KB a record packed, 8.4 KB as a list of floats.
        cached = CachedEmbedding(HashEmbeddingProvider(dim=256), new_cache("embed.jsonl"))
        texts = [f"text number {i} word{i % 7}" for i in range(500)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for start in range(0, len(texts), 50):
                cached.embed_batch(texts[start:start + 50])
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / len(texts) < 4096


def hex_key(*parts: str) -> str:
    """The "k" of a cache line: the hex SHA-256 of the NFC-normalized parts
    joined by 0x1f, computed here independently of content_key."""
    joined = "\x1f".join(unicodedata.normalize("NFC", p) for p in parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def hex_line(parts: tuple, value) -> str:
    """A cache line as json.dumps writes a {"k": hex key, "v": list} record."""
    return json.dumps({"k": hex_key(*parts), "v": value}, ensure_ascii=False) + "\n"


class TestHeldRecords:
    """Caches are keyed by digests in memory and by their hex on disk; NLI
    records are held as the NliLogits a hit returns."""

    LOGITS = {
        ("nli", "Caf\u00e9 premise", "h"): [0.1, -0.0, 0.30000000000000004],
        ("nli", "p", "Cafe\u0301 \U0001f642"): [5e-324, -5e-324, 1e308],
        ("nli", "q\x1fr", "h"): [1, -2, 3],
    }
    FACTS = {("decompose", "a and b", "ctx"): ["a", "b"]}

    def write_hex_keyed(self, path: Path, records: dict) -> None:
        path.write_text("".join(hex_line(k, v) for k, v in records.items()), encoding="utf-8")

    def test_hex_keyed_files_serve_the_same_bits(self, tmp_path, new_cache):
        self.write_hex_keyed(tmp_path / "nli.jsonl", self.LOGITS)
        vectors = {("embed", name): list(v) for name, v in TestPackedEmbeddings.VECTORS.items()}
        self.write_hex_keyed(tmp_path / "embed.jsonl", vectors)
        self.write_hex_keyed(tmp_path / "dec.jsonl", self.FACTS)
        nli = CountingNli(ScriptedNliProvider(default=(9.0, 9.0, 9.0)))
        logits = CachedNli(nli, new_cache("nli.jsonl")).nli_batch([k[1:] for k in self.LOGITS])
        embedder = CountingEmbedder(HashEmbeddingProvider(dim=3))
        vecs = CachedEmbedding(embedder, new_cache("embed.jsonl")).embed_batch(
            [k[1] for k in vectors]
        )
        decomposer = CountingDecomposer(ScriptedDecomposerProvider(script={}))
        facts = CachedDecomposer(decomposer, new_cache("dec.jsonl")).decompose("a and b", "ctx")
        assert (nli.calls, embedder.texts_seen, decomposer.calls) == (0, 0, 0)
        assert [bits(l.as_tuple()) for l in logits] == [bits(v) for v in self.LOGITS.values()]
        assert [bits(v.values) for v in vecs] == [bits(v) for v in vectors.values()]
        assert facts == ["a", "b"]

    def test_stored_lines_are_the_hex_keyed_lines(self, tmp_path, new_cache):
        script = {k[1:]: tuple(v) for k, v in self.LOGITS.items()}
        nli = CachedNli(ScriptedNliProvider(script=script), new_cache("nli.jsonl"))
        nli.nli_batch(list(script))
        values = TestPackedEmbeddings.VECTORS
        embedder = CachedEmbedding(FixedEmbedder(values["tenth"]), new_cache("embed.jsonl"))
        embedder.embed_batch(["x \U0001f642"])
        decomposer = CachedDecomposer(
            ScriptedDecomposerProvider(script={"a and b": ["a", "b"]}), new_cache("dec.jsonl")
        )
        decomposer.decompose("a and b", "ctx")
        assert (tmp_path / "nli.jsonl").read_bytes() == "".join(
            hex_line(k, v) for k, v in self.LOGITS.items()
        ).encode("utf-8")
        assert (tmp_path / "embed.jsonl").read_bytes() == hex_line(
            ("embed", "x \U0001f642"), list(values["tenth"])
        ).encode("utf-8")
        assert (tmp_path / "dec.jsonl").read_bytes() == hex_line(
            ("decompose", "a and b", "ctx"), ["a", "b"]
        ).encode("utf-8")

    @pytest.mark.parametrize("warm", [False, True])
    def test_an_nli_hit_returns_the_held_object(self, new_cache, warm):
        cached = CachedNli(ScriptedNliProvider(default=(1.0, 0.0, 0.5)), new_cache("nli.jsonl"))
        (fetched,) = cached.nli_batch([("p", "h")])
        if warm:
            cached.close()
            cached = CachedNli(None, new_cache("nli.jsonl"))
        held = cached._cache.get(cache_module.content_key("nli", "p", "h"))
        assert type(held) is NliLogits and held == NliLogits(1.0, 0.0, 0.5)
        assert (held is fetched) is not warm
        (hit,) = cached.nli_batch([("p", "h")])
        assert hit is held

    @pytest.mark.parametrize("warm", [False, True])
    def test_decomposer_records_are_held_as_parsed(self, new_cache, warm):
        dec = CachedDecomposer(
            ScriptedDecomposerProvider(script={"s": ["f1", "f2"]}), new_cache("dec.jsonl")
        )
        dec.decompose("s", "ctx")
        if warm:
            dec.close()
            dec = CachedDecomposer(None, new_cache("dec.jsonl"))
        held = dec._cache.get(cache_module.content_key("decompose", "s", "ctx"))
        assert type(held) is list and held == ["f1", "f2"]
        served = dec.decompose("s", "ctx")
        assert served == held and served is not held  # a caller cannot change the record

    @pytest.mark.parametrize(
        "value", [[1.0, 2.0], [True, False, True], ["8", 0.0, 0.0], [1.0, 0.0, 10**400]]
    )
    def test_a_malformed_nli_record_fails_only_the_lookups_that_find_it(
        self, tmp_path, new_cache, value
    ):
        good, bad = ("nli", "p", "h"), ("nli", "q", "h")
        self.write_hex_keyed(tmp_path / "nli.jsonl", {good: [1.0, 0.0, 0.5], bad: value})
        inner = CountingNli(ScriptedNliProvider(default=(9.0, 9.0, 9.0)))
        cache = new_cache("nli.jsonl")
        cached = CachedNli(inner, cache)
        assert cached.nli_batch([good[1:]]) == [NliLogits(1.0, 0.0, 0.5)]
        assert cache.get(cache_module.content_key(*bad)) == value  # kept as parsed
        with pytest.raises(ProtocolError, match=r"nli\.jsonl: cache record malformed"):
            cached.nli_batch([good[1:], bad[1:]])
        assert cached.nli_batch([good[1:]]) == [NliLogits(1.0, 0.0, 0.5)]
        assert inner.calls == 0

    def test_a_line_whose_key_is_not_hex_is_kept_but_never_found(self, tmp_path, new_cache):
        path = tmp_path / "nli.jsonl"
        path.write_text('{"k": "plain", "v": [1.0, 0.0, 0.0]}\n', encoding="utf-8")
        cache = new_cache("nli.jsonl")
        inner = CountingNli(ScriptedNliProvider(default=(2.0, 0.0, 0.0)))
        (out,) = CachedNli(inner, cache).nli_batch([("p", "h")])
        assert (out, inner.calls) == (NliLogits(2.0, 0.0, 0.0), 1)
        assert cache.get("plain") == NliLogits(1.0, 0.0, 0.0)


def corpus(n: int = 4) -> list:
    return [
        marker_sample(f"p{i}", ["alpha", "theta", "zeta", "omega"], topic_index=i)
        for i in range(n)
    ]


def spy_on_reads(monkeypatch) -> list[str]:
    """The names of the files agsc.providers.cache opens for reading, in order."""
    read = []

    def spying_open(file, mode="r", *args, **kwargs):
        if mode == "rb":
            read.append(Path(file).name)
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cache_module, "open", spying_open, raising=False)
    return read


def old_rule(path: Path, raw: bytes, lineno: int, last: bool) -> tuple:
    """What a load makes of one line: json.loads(raw) plus the record check."""
    if not raw.strip():
        return ("blank",)
    try:
        rec = json.loads(raw)
    except ValueError as e:
        if last:
            return ("torn", f"{path}: skipped unparsable last line ({e})")
        return ("corrupt", f"{path}:{lineno}: unparsable cache record ({e})")
    if not (isinstance(rec, dict) and isinstance(rec.get("k"), str) and "v" in rec):
        return ("corrupt", f"{path}:{lineno}: not a cache record"
                           " (expected an object with a string 'k' and a 'v')")
    return ("record", rec["k"], rec["v"])


class TestCacheFirstUse:
    """Each cache file is parsed at its first get() or put()."""

    LINES = {
        "empty": b"",
        "spaces": b"  \t ",
        "form_feed": b"\x0c",
        "no_break_space": " ".encode(),
        "crlf": b'{"k": "crlf", "v": 1}\r',
        "padded": b' {"k": "padded", "v": [1.5, -2e3]} ',
        "trailing_garbage": b'{"k": "a", "v": 1} x',
        "non_ascii": '{"k": "Ελλάδα", "v": "日本語 \U0001f642"}'.encode(),
        "escaped": b'{"k": "caf\\u00e9", "v": "\\ud83d\\ude42"}',
        "cut_utf8": '{"k": "é'.encode()[:-1],
        "lone_surrogate": '{"k": "s", "v": "\udc80"}'.encode("utf-8", "surrogatepass"),
        "utf8_bom": b'\xef\xbb\xbf{"k": "bom", "v": 1}',
        "utf16": '{"k": "u16", "v": 1}'.encode("utf-16-le"),
        "nul_second": b'{\x00"k": "nul", "v": 1}',
        "infinity": b'{"k": "inf", "v": -Infinity}',
        "not_json": b"not json",
        **{f"non_record_{i}": line.encode() for i, line in enumerate(
            ['{"x": 1}', "[1, 2]", '"k"', "7", "null", '{"k": 3, "v": 1}', '{"k": "b"}']
        )},
    }

    @pytest.mark.parametrize("name", sorted(LINES))
    @pytest.mark.parametrize("last", [False, True])
    def test_each_line_is_judged_as_json_loads_judges_it(self, tmp_path, caplog, name, last):
        path = tmp_path / "nli.jsonl"
        raw = self.LINES[name] + (b"" if last else b"\n")
        path.write_bytes(b'{"k": "first", "v": 0}\n' + raw
                         + (b"" if last else b'{"k": "third", "v": 3}\n'))
        expected = old_rule(path, raw, 2, last)
        cache = ResponseCache(path)
        with caplog.at_level("WARNING", logger=cache_module.__name__):
            try:
                first = cache.get("first")
            except CacheCorruptError as e:
                assert expected == ("corrupt", str(e))
                return
        assert first == 0
        warnings = [r.getMessage() for r in caplog.records]
        if expected[0] == "torn":
            assert warnings == [expected[1]]
        else:
            assert warnings == []
        if expected[0] == "record":
            assert cache.get(expected[1]) == expected[2]
        assert cache.get("third") == (None if last else 3)

    @pytest.mark.parametrize("blocker", ["directory", "unreadable"])
    def test_an_unusable_path_fails_when_the_cache_is_made(self, tmp_path, monkeypatch, blocker):
        path = tmp_path / "nli.jsonl"
        if blocker == "directory":
            path.mkdir()
        else:
            path.write_text('{"k": "a", "v": 1}\n', encoding="utf-8")
            monkeypatch.setattr(cache_module.os, "access", lambda p, mode: False)
        read = spy_on_reads(monkeypatch)
        with pytest.raises(OSError, match=r"nli\.jsonl: not a readable regular file"):
            ResponseCache(path)
        assert read == []

    @pytest.mark.parametrize("tail", ["", '{"k": "torn", "v": [1.0, 2'])
    def test_a_failed_load_is_sticky(self, tmp_path, monkeypatch, tail):
        path = tmp_path / "nli.jsonl"
        path.write_text('{"k": "a", "v": 1}\nnot json\n{"k": "b", "v": 2}\n' + tail,
                        encoding="utf-8")
        before = path.read_bytes()
        read = spy_on_reads(monkeypatch)
        cache = ResponseCache(path)
        for call in (lambda: cache.get("a"), lambda: cache.get("b"), lambda: cache.put(key_of("c"), 3)):
            with pytest.raises(CacheCorruptError) as caught:
                call()
            assert str(caught.value).startswith(f"{path}:2: unparsable cache record (")
        cache.close()
        assert path.read_bytes() == before  # nothing appended, nothing cut
        assert read == ["nli.jsonl"]  # the failure is kept, not parsed again

    def test_a_variant_that_never_embeds_never_reads_embed_jsonl(
        self, tmp_path, monkeypatch, base_config
    ):
        samples = corpus()
        config = dataclasses.replace(
            base_config, cache_dir=str(tmp_path / "cache"), report_dir=str(tmp_path / "out")
        )
        warm = build_providers(apply_variant(config, "agsc"))
        run_corpus(samples, apply_variant(config, "agsc"), warm)
        warm.close()
        assert (tmp_path / "cache" / "embed.jsonl").stat().st_size > 0
        read = spy_on_reads(monkeypatch)
        luq = apply_variant(config, "luq_sentence")
        bundle = build_providers(luq)
        reports, summary = run_corpus(samples, luq, bundle)
        bundle.close()
        assert summary.n_failed == 0
        assert read == ["nli.jsonl"]

    def test_each_file_is_read_at_most_once(self, tmp_path, monkeypatch, base_config):
        samples = corpus(8)
        config = apply_variant(dataclasses.replace(
            base_config, cache_dir=str(tmp_path / "cache"), report_dir=str(tmp_path / "out")
        ), "agsc")
        warm = build_providers(config)
        run_corpus(samples, config, warm)
        warm.close()
        read = spy_on_reads(monkeypatch)
        config = dataclasses.replace(config, workers=4)
        bundle = build_providers(config)
        reports, summary = run_corpus(samples, config, bundle)
        bundle.close()
        assert len(reports) == len(samples)
        assert sorted(read) == sorted(set(read))
        assert {"nli.jsonl", "embed.jsonl"} <= set(read)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_a_corrupt_line_found_mid_run_ends_it(self, tmp_path, capsys, workers):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text("".join(
            json.dumps({"prompt_id": s.prompt_id, "prompt": s.prompt,
                        "responses": list(s.responses)}) + "\n"
            for s in corpus()
        ), encoding="utf-8")
        cache = tmp_path / "cache"
        config = tmp_path / "run.cfg"
        config.write_text(f"timing = off\nworkers = {workers}\ncache_dir = {cache}\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        args = ["score", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]
        assert main(args) == 0
        earlier = {name: (out / name).read_bytes() for name in ("reports.jsonl", "summary.json")}
        nli = cache / "nli.jsonl"
        lines = nli.read_text(encoding="utf-8").splitlines(keepends=True)
        middle = len(lines) // 2
        nli.write_text("".join(lines[:middle] + ["garbage\n"] + lines[middle + 1:]),
                       encoding="utf-8")
        capsys.readouterr()
        assert main(args) == 3
        assert f"cache error: {nli}:{middle + 1}: " in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in earlier} == earlier

    def test_a_read_error_found_mid_run_is_a_cache_error(self, tmp_path, monkeypatch, capsys):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text("".join(
            json.dumps({"prompt_id": s.prompt_id, "prompt": s.prompt,
                        "responses": list(s.responses)}) + "\n"
            for s in corpus(2)
        ), encoding="utf-8")
        cache = tmp_path / "cache"
        cache.mkdir()
        nli = cache / "nli.jsonl"
        nli.write_text('{"k": "a", "v": [0.0, 0.0, 0.0]}\n', encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text(f"timing = off\ncache_dir = {cache}\n", encoding="utf-8")

        def failing_open(file, mode="r", *args, **kwargs):
            if mode == "rb":
                raise OSError(5, "Input/output error", str(file))
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(cache_module, "open", failing_open, raising=False)
        args = ["score", "--dataset", str(dataset), "--config", str(config),
                "--out", str(tmp_path / "out")]
        assert main(args) == 3
        assert f"cache error: {nli}: unreadable (" in capsys.readouterr().err
        assert nli.read_text(encoding="utf-8") == '{"k": "a", "v": [0.0, 0.0, 0.0]}\n'

    def test_a_raise_starts_no_more_prompts(self, tmp_path, monkeypatch, base_config):
        """Prompts queued behind a raise never start, even while an earlier
        prompt is still waiting on a provider."""
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "embed.jsonl").write_text(
            '{"k": "a", "v": [1.0]}\ngarbage\n{"k": "b", "v": [1.0]}\n', encoding="utf-8"
        )
        workers, started, prompt = 4, [], threading.local()
        run_prompt = pipeline.run_prompt

        def spying_run_prompt(sample, config, providers):
            started.append(sample.prompt_id)
            prompt.id = sample.prompt_id
            return run_prompt(sample, config, providers)

        class FirstPromptWaits:
            """Holds the first prompt's NLI calls while the others run on."""

            def __init__(self, inner):
                self.inner = inner

            def nli_batch(self, pairs):
                if getattr(prompt, "id", None) == "p0":
                    threading.Event().wait(0.5)
                return self.inner.nli_batch(pairs)

        build_nli = pipeline._build_nli
        monkeypatch.setattr(pipeline, "run_prompt", spying_run_prompt)
        monkeypatch.setattr(pipeline, "_build_nli", lambda spec: FirstPromptWaits(build_nli(spec)))
        config = apply_variant(dataclasses.replace(
            base_config, workers=workers, cache_dir=str(cache), report_dir=str(tmp_path / "out")
        ), "agsc")
        bundle = build_providers(config)
        with pytest.raises(CacheCorruptError, match=r"embed\.jsonl:2: unparsable cache record"):
            run_corpus(corpus(40), config, bundle)
        bundle.close()
        assert started[0] == "p0"
        assert len(started) <= workers  # only those already running


class TestDecomposition:
    def test_parse_fact_lines_strips_bullets(self):
        text = (
            "- Directed by Darren Aronofsky\n"
            "- Co-written by Darren Aronofsky\n"
            "- Co-written by Mark Heyman"
        )
        assert parse_fact_lines(text) == [
            "Directed by Darren Aronofsky",
            "Co-written by Darren Aronofsky",
            "Co-written by Mark Heyman",
        ]

    def test_parse_fact_lines_tolerates_numbering_and_blanks(self):
        assert parse_fact_lines("1. First fact\n\n2) Second fact\n* Third") == [
            "First fact",
            "Second fact",
            "Third",
        ]

    def test_rule_based_single_clause(self):
        assert split_facts_rule_based("He was born in 1879.") == ["He was born in 1879."]

    def test_rule_based_conjunction(self):
        assert split_facts_rule_based("X won A and received B.") == [
            "X won A",
            "received B.",
        ]

    def test_rule_based_relative_clause(self):
        # Split happens at the connective only; the clause keeps its tail.
        got = split_facts_rule_based("The bridge, which opened in 1937, is long.")
        assert got == ["The bridge", "opened in 1937, is long."]

    def test_rule_based_never_empty(self):
        assert split_facts_rule_based("--- and ---") == ["--- and ---"]

    def test_resilient_uses_primary(self):
        primary = ScriptedDecomposerProvider(script={"s": ["a", "b"]})
        facts, fallback = ResilientDecomposer(primary).decompose("s", "ctx")
        assert facts == ["a", "b"]
        assert fallback is False

    def test_resilient_falls_back_on_provider_error(self):
        class Failing:
            def decompose(self, sentence, prompt_context):
                raise ProviderError("boom", attempts=3)

        facts, fallback = ResilientDecomposer(Failing()).decompose(
            "X won A and received B.", "ctx"
        )
        assert fallback is True
        assert facts == ["X won A", "received B."]

    def test_resilient_falls_back_on_empty(self):
        class Empty:
            def decompose(self, sentence, prompt_context):
                return []

        facts, fallback = ResilientDecomposer(Empty()).decompose("Solo fact.", "ctx")
        assert fallback is True
        assert facts == ["Solo fact."]

    @pytest.mark.parametrize(
        "answer",
        [[], "a fact", ["a fact", 2], ["a fact", " "], ["a fact", "lone \ud800 half"]],
        ids=["empty", "not-a-list", "non-string", "blank", "lone-surrogate"],
    )
    def test_checked_facts_rejects(self, answer):
        with pytest.raises(ValueError):
            checked_facts(answer)

    def test_rule_based_decomposer_provider(self):
        assert RuleBasedDecomposer().decompose("A and B ran.", "ctx") == ["A", "B ran."]


class TestShareTurn:
    """share_turn runs items on the caller's thread and starts another
    thread only when a running item is about to give the turn up."""

    @staticmethod
    def _turn(with_turn: bool):
        return taking_turn(threading.Lock()) if with_turn else contextlib.nullcontext()

    @pytest.mark.parametrize("with_turn", [True, False], ids=["turn", "no-turn"])
    def test_items_that_never_wait_start_no_thread(self, monkeypatch, with_turn):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        with self._turn(with_turn):
            ran = share_turn(lambda i: (i, threading.get_ident()), range(6), 4)
        assert ran == [(i, threading.get_ident()) for i in range(6)]
        assert started == []

    # With no turn, as in a direct run_prompt, items that wait still overlap.
    @pytest.mark.parametrize("with_turn", [True, False], ids=["turn", "no-turn"])
    def test_items_that_wait_reach_workers_at_once_and_no_more(self, with_turn):
        # Each item waits until three wait at once, so the call returns only
        # if three items run together.
        barrier, overlap = threading.Barrier(3, timeout=5.0), Overlap()

        def item(i):
            with overlap.inside(), waiting():
                barrier.wait()
            return i * i

        before = threading.active_count()
        with self._turn(with_turn):
            assert share_turn(item, list(range(9)), 3) == [i * i for i in range(9)]
        assert overlap.peak == 3
        assert threading.active_count() == before

    def test_given_a_turn_the_caller_starts_every_thread(self, monkeypatch):
        # An item about to wait asks the caller, which runs no item, for the
        # next thread, so an interrupt reaching the caller stops the starts.
        starters, barrier = [], threading.Barrier(3, timeout=5.0)
        start = threading.Thread.start

        def recording_start(thread):
            starters.append(threading.current_thread())
            start(thread)

        def item(i):
            with waiting():
                barrier.wait()
            return threading.current_thread()

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        ran_on = share_turn(item, list(range(6)), 3, turn=threading.Lock())
        assert starters == [threading.current_thread()] * 3
        assert threading.current_thread() not in ran_on
        assert len(set(ran_on)) == 3

    def test_an_error_stops_later_items_and_the_earliest_is_raised(self):
        started, failed = [], threading.Event()

        def item(i):
            started.append(i)
            if i == 0:
                with waiting():  # starts a thread, which runs item 1
                    assert failed.wait(5.0)
                raise ValueError("item 0")
            failed.set()
            raise ValueError(f"item {i}")

        before = threading.active_count()
        with taking_turn(threading.Lock()), pytest.raises(ValueError, match="item 0"):
            share_turn(item, list(range(6)), 3)
        assert started == [0, 1]
        assert threading.active_count() == before

    @pytest.mark.parametrize("mode", ["turn", "no-turn", "caller-starts"])
    def test_every_item_runs_once_under_many_threads(self, mode):
        # Items that wait, each with a nested share_turn whose waits may
        # start threads for the outer items too; a lost update to the
        # pending index would run an item twice or never. Given a turn, the
        # caller starts the outer threads.
        lock, runs = threading.Lock(), [0] * 200

        def sub(j):
            with waiting():
                time.sleep(0)
            return j

        def item(i):
            with lock:
                runs[i] += 1
            with waiting():
                time.sleep(0)
            return share_turn(sub, [i, -i, i], 2)

        out = []

        def main():
            if mode == "caller-starts":
                out.append(share_turn(item, range(200), 16, turn=threading.Lock()))
                return
            with self._turn(mode == "turn"):
                out.append(share_turn(item, range(200), 16))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            before = threading.active_count()
            thread = threading.Thread(target=main, daemon=True)
            thread.start()
            thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert out == [[[i, -i, i] for i in range(200)]]
        assert runs == [1] * 200
        assert threading.active_count() == before
