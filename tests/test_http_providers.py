"""Wire-protocol tests against a local HTTP server."""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from conftest import marker_nli_rule, marker_providers, marker_sample
from agsc import default_config
from agsc.config import parse_config_text
from agsc.corpus import segment_sentences
from agsc.evaluation import apply_variant
from agsc.pipeline import PromptFailure, PromptReport, build_providers, run_corpus, run_many
from agsc.providers import (
    CachedDecomposer,
    HashEmbeddingProvider,
    HttpDecomposerProvider,
    HttpEmbeddingProvider,
    HttpNliProvider,
    ProtocolError,
    ProviderConfig,
    ProviderError,
    ResponseCache,
    RetryPolicy,
    content_key,
)


class _Handler(BaseHTTPRequestHandler):
    server_version = "TestProvider/1.0"

    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        state = self.server.state
        # A request counts as open until its answer starts: once the answer
        # is out, the client may post again before this thread moves on.
        with state["lock"]:
            state["open"] += 1
            state["open_peak"] = max(state["open_peak"], state["open"])
        time.sleep(state["delay_s"])
        with state["lock"]:
            state["open"] -= 1
        self._answer(state)

    def _answer(self, state):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else {}
        with state["lock"]:
            state["requests"].append(
                {
                    "path": self.path,
                    "body": body,
                    "auth": self.headers.get("Authorization"),
                }
            )
            if state["fail_next"] > 0:
                state["fail_next"] -= 1
                self.send_response(state["fail_status"])
                self.end_headers()
                return
            response = state["respond"](self.path, body)
        payload = response if isinstance(response, bytes) else json.dumps(response).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def _echo_nli(path, body):
    if path.endswith("/nli"):
        return {
            "logits": [
                [float(len(p["premise"])), float(len(p["hypothesis"])), 0.0]
                for p in body["pairs"]
            ]
        }
    if path.endswith("/embed"):
        return {
            "vectors": [[float(len(t)), 1.0, 0.0] for t in body["texts"]],
            "dim": 3,
        }
    if path.endswith("/chat"):
        return {"text": "- fact one\n- fact two"}
    raise AssertionError(f"unexpected path {path}")


@pytest.fixture
def server():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    srv.state = {
        "lock": threading.Lock(),
        "requests": [],
        "fail_next": 0,
        "fail_status": 500,
        "respond": _echo_nli,
        "delay_s": 0.0,
        "open": 0,
        "open_peak": 0,
    }
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()


@pytest.fixture
def closing():
    """closing(client) returns the client and closes it after the test,
    stopping its posting-pool threads."""
    clients = []

    def register(client):
        clients.append(client)
        return client

    yield register
    for client in clients:
        client.close()


def _config(server, **kwargs) -> ProviderConfig:
    host, port = server.server_address
    defaults = dict(
        endpoint=f"http://{host}:{port}",
        retry=RetryPolicy(max_attempts=3, base_backoff_ms=1),
        timeout_ms=5000,
    )
    defaults.update(kwargs)
    return ProviderConfig(**defaults)


class TestHttpNli:
    def test_roundtrip_order_aligned(self, server, closing):
        client = closing(HttpNliProvider(_config(server)))
        out = client.nli_batch([("aa", "b"), ("c", "dddd"), ("ee", "ff")])
        assert [o.as_tuple() for o in out] == [
            (2.0, 1.0, 0.0),
            (1.0, 4.0, 0.0),
            (2.0, 2.0, 0.0),
        ]
        sent = server.state["requests"][0]["body"]
        assert sent == {
            "pairs": [
                {"premise": "aa", "hypothesis": "b"},
                {"premise": "c", "hypothesis": "dddd"},
                {"premise": "ee", "hypothesis": "ff"},
            ]
        }

    def test_retry_then_success(self, server, closing):
        server.state["fail_next"] = 2
        client = closing(HttpNliProvider(_config(server)))
        out = client.nli_batch([("aa", "b")])
        assert out[0].entail == 2.0
        assert len(server.state["requests"]) == 3

    def test_failure_carries_attempt_count(self, server, closing):
        server.state["fail_next"] = 99
        client = closing(HttpNliProvider(_config(server)))
        with pytest.raises(ProviderError) as exc:
            client.nli_batch([("aa", "b")])
        assert exc.value.attempts == 3
        assert not isinstance(exc.value, ProtocolError)

    def test_transport_failure_is_retried_then_raised(self, closing):
        # Nothing listens on a port just released, so every attempt fails
        # in the transport, before any HTTP status.
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            host, port = sock.getsockname()
        config = ProviderConfig(
            endpoint=f"http://{host}:{port}",
            retry=RetryPolicy(max_attempts=3, base_backoff_ms=0),
            timeout_ms=5000,
        )
        client = closing(HttpNliProvider(config))
        with pytest.raises(ProviderError, match="after 3 attempts") as exc:
            client.nli_batch([("aa", "b")])
        assert exc.value.attempts == config.retry.max_attempts
        assert not isinstance(exc.value, ProtocolError)

    def test_unfixable_4xx_fails_fast(self, server, closing):
        server.state["fail_next"] = 99
        server.state["fail_status"] = 401
        client = closing(HttpNliProvider(_config(server)))
        with pytest.raises(ProviderError, match="HTTP 401") as exc:
            client.nli_batch([("aa", "b")])
        assert exc.value.attempts == 1
        assert len(server.state["requests"]) == 1

    def test_rate_limit_is_retried(self, server, closing):
        server.state["fail_next"] = 1
        server.state["fail_status"] = 429
        client = closing(HttpNliProvider(_config(server)))
        assert client.nli_batch([("aa", "b")])[0].entail == 2.0
        assert len(server.state["requests"]) == 2

    @pytest.mark.parametrize(
        "body",
        [
            b"<html>upstream error</html>",  # not JSON
            b"[1, 2, 3]",  # JSON, not an object
            b'{"logits": [[NaN, 0.0, 0.0]]}',
            b'{"logits": [["high", 0.0, 0.0]]}',
            b'{"logits": [[null, 0.0, 0.0]]}',
            b'{"logits": [["8", 0.0, 0.0]]}',  # a numeric string is not a number
            b'{"logits": [[true, 0.0, 0.0]]}',  # nor is a boolean
            pytest.param(b'{"logits": [[1' + b"0" * 400 + b', 0.0, 0.0]]}', id="huge_int"),
        ],
    )
    def test_bad_payload_is_protocol_error(self, server, closing, body):
        server.state["respond"] = lambda path, req: body
        client = closing(HttpNliProvider(_config(server)))
        with pytest.raises(ProtocolError):
            client.nli_batch([("a", "b")])
        assert len(server.state["requests"]) == 1

    def test_arity_mismatch_is_protocol_error(self, server, closing):
        server.state["respond"] = lambda path, body: {"logits": [[1.0, 0.0, 0.0]]}
        client = closing(HttpNliProvider(_config(server)))
        with pytest.raises(ProtocolError, match="arity"):
            client.nli_batch([("a", "b"), ("c", "d")])

    def test_batching_splits_requests(self, server, closing):
        client = closing(HttpNliProvider(_config(server, batch_size=2, max_in_flight=2)))
        pairs = [(f"p{i}", f"h{i}") for i in range(5)]
        out = client.nli_batch(pairs)
        assert len(out) == 5
        assert len(server.state["requests"]) == 3
        # Order-aligned despite concurrent chunks.
        assert [o.entail for o in out] == [2.0, 2.0, 2.0, 2.0, 2.0]
        assert [o.contradict for o in out] == [2.0, 2.0, 2.0, 2.0, 2.0]

    def test_auth_header_from_env(self, server, closing, monkeypatch):
        monkeypatch.setenv("TEST_NLI_TOKEN", "sekrit")
        client = closing(HttpNliProvider(_config(server, auth_env_var="TEST_NLI_TOKEN")))
        client.nli_batch([("a", "b")])
        assert server.state["requests"][0]["auth"] == "Bearer sekrit"

    def test_empty_batch_no_network(self, server, closing):
        client = closing(HttpNliProvider(_config(server)))
        assert client.nli_batch([]) == []
        assert server.state["requests"] == []


class TestPostingPool:
    """Each client posts through one pool of max_in_flight threads."""

    @staticmethod
    def _pool_threads(cls, before: set) -> list:
        """Threads started since `before` by clients of class `cls`."""
        return [
            t for t in threading.enumerate()
            if t not in before and t.name.startswith(cls.__name__)
        ]

    def test_concurrent_callers_share_max_in_flight(self, server):
        server.state["delay_s"] = 0.02
        client = HttpNliProvider(_config(server, batch_size=1, max_in_flight=2))
        pairs = [(f"premise {i}", "h") for i in range(6)]
        results = []

        def call():
            results.append(client.nli_batch(pairs))

        callers = [threading.Thread(target=call) for _ in range(2)]
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in callers)
            assert len(results) == 2
            assert [o.entail for o in results[0]] == [float(len(p)) for p, _ in pairs]
            assert server.state["open_peak"] == 2
        finally:
            client.close()

    def test_decompose_posts_through_the_pool(self, server):
        server.state["delay_s"] = 0.02
        client = HttpDecomposerProvider(_config(server, max_in_flight=1))
        callers = [
            threading.Thread(target=client.decompose, args=(f"Sentence {i}.", "topic"))
            for i in range(3)
        ]
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in callers)
            assert len(server.state["requests"]) == 3
            assert server.state["open_peak"] == 1
        finally:
            client.close()

    def test_threads_reused_and_stopped_by_close(self, server):
        client = HttpEmbeddingProvider(_config(server, batch_size=2, max_in_flight=3))
        texts = [f"text {i}" for i in range(7)]
        before = set(threading.enumerate())
        for _ in range(50):
            assert len(client.embed_batch(texts)) == 7
            assert len(self._pool_threads(HttpEmbeddingProvider, before)) <= 3
        client.close()
        assert self._pool_threads(HttpEmbeddingProvider, before) == []
        assert len(client.embed_batch(texts)) == 7  # usable again after close
        client.close()

    def test_closing_a_cached_bundle_stops_its_threads(self, server, tmp_path):
        host, port = server.server_address
        config = parse_config_text(
            f"providers.nli.kind = http\nproviders.nli.endpoint = http://{host}:{port}\n"
            f"cache_dir = {tmp_path / 'cache'}\n"
        )
        providers = build_providers(config)
        before = set(threading.enumerate())
        assert providers.nli.nli_batch([("aa", "b")])[0].entail == 2.0
        assert len(self._pool_threads(HttpNliProvider, before)) == 1
        providers.close()
        assert self._pool_threads(HttpNliProvider, before) == []


class TestHttpEmbedding:
    def test_roundtrip(self, server, closing):
        client = closing(HttpEmbeddingProvider(_config(server)))
        out = client.embed_batch(["abc", "de"])
        assert [v.values for v in out] == [(3.0, 1.0, 0.0), (2.0, 1.0, 0.0)]

    def test_dimension_drift_rejected(self, server, closing):
        client = closing(HttpEmbeddingProvider(_config(server)))
        client.embed_batch(["abc"])
        server.state["respond"] = lambda path, body: {
            "vectors": [[1.0, 2.0]],
            "dim": 2,
        }
        with pytest.raises(ProtocolError, match="drift"):
            client.embed_batch(["xy"])

    def test_vector_length_must_match_dim(self, server, closing):
        server.state["respond"] = lambda path, body: {
            "vectors": [[1.0, 2.0, 3.0]],
            "dim": 4,
        }
        client = closing(HttpEmbeddingProvider(_config(server)))
        with pytest.raises(ProtocolError):
            client.embed_batch(["abc"])

    def test_bad_answer_leaves_the_dimension_unset(self, server, closing):
        client = closing(HttpEmbeddingProvider(_config(server)))
        server.state["respond"] = lambda path, body: {"vectors": [[1.0, 2.0, 3.0]], "dim": 5}
        with pytest.raises(ProtocolError, match="!= reported dim 5"):
            client.embed_batch(["abc"])
        server.state["respond"] = _echo_nli  # a correct answer of dimension 3
        assert [v.values for v in client.embed_batch(["abc"])] == [(3.0, 1.0, 0.0)]
        assert [v.values for v in client.embed_batch(["de"])] == [(2.0, 1.0, 0.0)]

    @pytest.mark.parametrize(
        "body",
        [
            b'{"vectors": [[1.0, NaN, 0.0]], "dim": 3}',
            b'{"vectors": [[1.0, "x", 0.0]], "dim": 3}',
            b'{"vectors": [[1.0, "0.5", 0.0]], "dim": 3}',
            b'{"vectors": [[1.0, true, 0.0]], "dim": 3}',
            b'{"vectors": [7], "dim": 1}',
            pytest.param(b'{"vectors": [[1' + b"0" * 400 + b', 0.0]], "dim": 2}', id="huge_int"),
        ],
    )
    def test_bad_vector_is_protocol_error(self, server, closing, body):
        server.state["respond"] = lambda path, req: body
        client = closing(HttpEmbeddingProvider(_config(server)))
        with pytest.raises(ProtocolError):
            client.embed_batch(["abc"])


class TestHttpDecomposer:
    def test_parses_fact_lines(self, server, closing):
        client = closing(HttpDecomposerProvider(_config(server)))
        facts = client.decompose("A long sentence here.", "topic")
        assert facts == ["fact one", "fact two"]
        body = server.state["requests"][0]["body"]
        roles = [m["role"] for m in body["messages"]]
        assert roles[0] == "system"
        assert roles[-1] == "user"
        assert "A long sentence here." in body["messages"][-1]["content"]

    def test_empty_text_is_protocol_error(self, server, closing):
        server.state["respond"] = lambda path, body: {"text": "\n\n"}
        client = closing(HttpDecomposerProvider(_config(server)))
        with pytest.raises(ProtocolError):
            client.decompose("Sentence.", "topic")


@pytest.mark.parametrize(
    "service,poison",
    [("nli", float("nan")), ("nli", 10**400), ("nli", "-1e1"), ("nli", True),
     ("embed", 10**400), ("embed", "0.5"), ("embed", True)],
    ids=["nan_logit", "huge_logit", "string_logit", "bool_logit",
         "huge_vector", "string_vector", "bool_vector"],
)
def test_bad_response_fails_one_prompt_not_the_run(server, closing, service, poison):
    """A NaN, an integer too large for a float, a string or a boolean in
    the answer for one prompt's texts yields a PromptFailure for that
    prompt only; the other prompt is still scored."""
    hashed = HashEmbeddingProvider(dim=8)

    def respond(path, body):
        if path.endswith("/nli"):
            return {"logits": [
                [poison, 0.0, 0.0] if "poisoned" in pair["premise"] + pair["hypothesis"]
                else list(marker_nli_rule(pair["premise"], pair["hypothesis"]))
                for pair in body["pairs"]
            ]}
        return {"vectors": [
            [poison] * 8 if "poisoned" in text else list(vector.values)
            for text, vector in zip(body["texts"], hashed.embed_batch(body["texts"]))
        ]}

    server.state["respond"] = respond
    good = marker_sample("good", ["alpha", "omega"])
    bad = marker_sample("bad", ["alpha", "poisoned alpha"], topic_index=1)
    providers = marker_providers()
    if service == "nli":
        providers.nli = closing(HttpNliProvider(_config(server)))
    else:
        providers.embedder = closing(HttpEmbeddingProvider(_config(server)))
    results = run_many([good, bad], apply_variant(default_config(), "agsc"), providers)
    assert isinstance(results[0], PromptReport)
    assert isinstance(results[1], PromptFailure)
    assert results[1].prompt_id == "bad"
    assert "malformed" in results[1].error


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
def test_a_lone_surrogate_in_a_fact_falls_back_and_the_run_finishes(
    server, closing, tmp_path, cached
):
    """A /chat answer whose fact holds a lone surrogate (a JSON escape no
    UTF-8 line can carry) gets the rule-based fallback: the run writes its
    reports, and the answer is not cached."""

    def respond(path, body):
        sentence = body["messages"][-1]["content"]
        return {"text": "- fact \ud800" if "harbor" in sentence else "- fact one\n- fact two"}

    server.state["respond"] = respond
    cache_path = tmp_path / "cache" / "decompose.jsonl"
    decomposer = closing(HttpDecomposerProvider(_config(server)))
    providers = marker_providers()
    providers.decomposer = (
        CachedDecomposer(decomposer, ResponseCache(cache_path)) if cached else decomposer
    )
    samples = [
        marker_sample("good", ["alpha", "theta"]),
        marker_sample("bad", ["alpha", "theta"], topic_index=1),
    ]
    config = dataclasses.replace(
        apply_variant(default_config(), "agsc"), report_dir=str(tmp_path / "out")
    )
    try:
        reports, summary = run_corpus(samples, config, providers)
    finally:
        providers.close()
    assert summary.n_failed == 0
    assert [(r.prompt_id, r.decomposer_fallback) for r in reports] == [
        ("good", False), ("bad", True)
    ]
    lines = (tmp_path / "out" / "reports.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["decomposer_fallback"] for line in lines] == [False, True]
    if cached:
        keys = {
            json.loads(line)["k"]
            for line in cache_path.read_text(encoding="utf-8").splitlines()
        }

        def key(sample):
            theta = segment_sentences(sample.responses[0])[1].text
            return content_key("decompose", theta, sample.prompt).hex()

        assert keys == {key(samples[0])}
