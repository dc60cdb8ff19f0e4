"""Mocks, the response cache, and decomposition parsing/fallback."""

from __future__ import annotations

import json
import math
import threading

import pytest

from conftest import CountingDecomposer, CountingEmbedder, CountingNli
import agsc.providers.cache as cache_module
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

    def test_torn_last_line_skipped_then_cut_before_next_put(
        self, tmp_path, new_cache, caplog
    ):
        path = tmp_path / "nli.jsonl"
        writer = new_cache("nli.jsonl")
        writer.put("old", [1.0, 2.0, 3.0])
        writer.close()
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"k": "torn", "v": [4.0, 5')  # killed mid-append
        with caplog.at_level("WARNING"):
            cache = new_cache("nli.jsonl")
        assert "unparsable last line" in caplog.text
        assert cache.get("old") == [1.0, 2.0, 3.0]
        assert cache.get("torn") is None
        cache.put("new", [6.0])
        reopened = new_cache("nli.jsonl")
        assert reopened.get("old") == [1.0, 2.0, 3.0]
        assert reopened.get("new") == [6.0]
        assert [json.loads(l)["k"] for l in path.read_text().splitlines()] == ["old", "new"]

    def test_unterminated_last_record_kept(self, tmp_path, new_cache):
        path = tmp_path / "nli.jsonl"
        path.write_text('{"k": "old", "v": 1}', encoding="utf-8")  # newline never written
        cache = new_cache("nli.jsonl")
        assert cache.get("old") == 1
        cache.put("new", 2)
        reopened = new_cache("nli.jsonl")
        assert (reopened.get("old"), reopened.get("new")) == (1, 2)

    def test_unparsable_middle_line_raises(self, tmp_path):
        path = tmp_path / "nli.jsonl"
        path.write_text('{"k": "a", "v": 1}\nnot json\n{"k": "b", "v": 2}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            ResponseCache(path)

    def test_unparsable_middle_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "nli.jsonl"
        path.write_text('{"k": "a", "v": 1}\n\nnot json\n{"k": "b", "v": 2}\n', encoding="utf-8")
        with pytest.raises(CacheCorruptError, match=r"nli\.jsonl:3: unparsable"):
            ResponseCache(path)

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
            ResponseCache(path)

    def test_one_append_handle_per_cache(self, tmp_path, monkeypatch):
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[1] if len(args) > 1 else kwargs.get("mode", "r"))
            return open(*args, **kwargs)

        monkeypatch.setattr(cache_module, "open", counting_open, raising=False)
        cache = ResponseCache(tmp_path / "nli.jsonl")
        assert opened == []  # nothing to load, and no handle before a put
        for i in range(5):
            cache.put(f"k{i}", [float(i)])
        assert opened == ["a"]
        cache.close()
        cache.close()
        cache.put("k5", [5.0])  # a put after close() opens the handle again
        assert opened == ["a", "a"]
        cache.close()
        reopened = ResponseCache(tmp_path / "nli.jsonl")
        assert [reopened.get(f"k{i}") for i in range(6)] == [[float(i)] for i in range(6)]

    def test_fetched_batch_is_on_disk_when_returned(self, tmp_path, new_cache):
        cached = CachedNli(ScriptedNliProvider(default=(1.0, 0.0, 0.5)), new_cache("nli.jsonl"))
        cached.nli_batch([("p1", "h"), ("p2", "h"), ("p1", "h")])
        # Read through another handle without closing the cache's own.
        lines = (tmp_path / "nli.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        keys = [cache_module.content_key("nli", p, "h") for p in ("p1", "p2")]
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

        def put(key, value):
            real_put(key, value)
            if not first_put.is_set():
                first_put.set()
                b_checked.wait(timeout=10)

        cache.put = put
        seen = []

        class Checking:
            def nli_batch(self, pairs):
                served = [k for k in keys if cache.get(k) is not None]
                on_disk = path.read_text(encoding="utf-8") if path.exists() else ""
                seen.append((served, [k for k in served if k not in on_disk]))
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


    @pytest.mark.parametrize("value", [[1.0, 2.0], "abc", 5, [1.0, "x", 2.0]])
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

    def test_rule_based_decomposer_provider(self):
        assert RuleBasedDecomposer().decompose("A and B ran.", "ctx") == ["A", "B ran."]
