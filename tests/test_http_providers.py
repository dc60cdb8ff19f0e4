"""Wire-protocol tests against a local HTTP server."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from conftest import marker_nli_rule, marker_providers, marker_sample
from agsc import default_config
from agsc.config import parse_config_text
from agsc.evaluation import apply_variant
from agsc.pipeline import PromptFailure, PromptReport, build_providers, run_many
from agsc.providers import (
    HttpDecomposerProvider,
    HttpEmbeddingProvider,
    HttpNliProvider,
    ProtocolError,
    ProviderConfig,
    ProviderError,
    RetryPolicy,
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
    def test_roundtrip_order_aligned(self, server):
        client = HttpNliProvider(_config(server))
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

    def test_retry_then_success(self, server):
        server.state["fail_next"] = 2
        client = HttpNliProvider(_config(server))
        out = client.nli_batch([("aa", "b")])
        assert out[0].entail == 2.0
        assert len(server.state["requests"]) == 3

    def test_failure_carries_attempt_count(self, server):
        server.state["fail_next"] = 99
        client = HttpNliProvider(_config(server))
        with pytest.raises(ProviderError) as exc:
            client.nli_batch([("aa", "b")])
        assert exc.value.attempts == 3
        assert not isinstance(exc.value, ProtocolError)

    def test_unfixable_4xx_fails_fast(self, server):
        server.state["fail_next"] = 99
        server.state["fail_status"] = 401
        client = HttpNliProvider(_config(server))
        with pytest.raises(ProviderError, match="HTTP 401") as exc:
            client.nli_batch([("aa", "b")])
        assert exc.value.attempts == 1
        assert len(server.state["requests"]) == 1

    def test_rate_limit_is_retried(self, server):
        server.state["fail_next"] = 1
        server.state["fail_status"] = 429
        client = HttpNliProvider(_config(server))
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
        ],
    )
    def test_bad_payload_is_protocol_error(self, server, body):
        server.state["respond"] = lambda path, req: body
        client = HttpNliProvider(_config(server))
        with pytest.raises(ProtocolError):
            client.nli_batch([("a", "b")])
        assert len(server.state["requests"]) == 1

    def test_arity_mismatch_is_protocol_error(self, server):
        server.state["respond"] = lambda path, body: {"logits": [[1.0, 0.0, 0.0]]}
        client = HttpNliProvider(_config(server))
        with pytest.raises(ProtocolError, match="arity"):
            client.nli_batch([("a", "b"), ("c", "d")])

    def test_batching_splits_requests(self, server):
        client = HttpNliProvider(_config(server, batch_size=2, max_in_flight=2))
        pairs = [(f"p{i}", f"h{i}") for i in range(5)]
        out = client.nli_batch(pairs)
        assert len(out) == 5
        assert len(server.state["requests"]) == 3
        # Order-aligned despite concurrent chunks.
        assert [o.entail for o in out] == [2.0, 2.0, 2.0, 2.0, 2.0]
        assert [o.contradict for o in out] == [2.0, 2.0, 2.0, 2.0, 2.0]

    def test_auth_header_from_env(self, server, monkeypatch):
        monkeypatch.setenv("TEST_NLI_TOKEN", "sekrit")
        client = HttpNliProvider(_config(server, auth_env_var="TEST_NLI_TOKEN"))
        client.nli_batch([("a", "b")])
        assert server.state["requests"][0]["auth"] == "Bearer sekrit"

    def test_empty_batch_no_network(self, server):
        client = HttpNliProvider(_config(server))
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
    def test_roundtrip(self, server):
        client = HttpEmbeddingProvider(_config(server))
        out = client.embed_batch(["abc", "de"])
        assert [v.values for v in out] == [(3.0, 1.0, 0.0), (2.0, 1.0, 0.0)]

    def test_dimension_drift_rejected(self, server):
        client = HttpEmbeddingProvider(_config(server))
        client.embed_batch(["abc"])
        server.state["respond"] = lambda path, body: {
            "vectors": [[1.0, 2.0]],
            "dim": 2,
        }
        with pytest.raises(ProtocolError, match="drift"):
            client.embed_batch(["xy"])

    def test_vector_length_must_match_dim(self, server):
        server.state["respond"] = lambda path, body: {
            "vectors": [[1.0, 2.0, 3.0]],
            "dim": 4,
        }
        client = HttpEmbeddingProvider(_config(server))
        with pytest.raises(ProtocolError):
            client.embed_batch(["abc"])


    @pytest.mark.parametrize(
        "body",
        [
            b'{"vectors": [[1.0, NaN, 0.0]], "dim": 3}',
            b'{"vectors": [[1.0, "x", 0.0]], "dim": 3}',
            b'{"vectors": [7], "dim": 1}',
        ],
    )
    def test_bad_vector_is_protocol_error(self, server, body):
        server.state["respond"] = lambda path, req: body
        client = HttpEmbeddingProvider(_config(server))
        with pytest.raises(ProtocolError):
            client.embed_batch(["abc"])


class TestHttpDecomposer:
    def test_parses_fact_lines(self, server):
        client = HttpDecomposerProvider(_config(server))
        facts = client.decompose("A long sentence here.", "topic")
        assert facts == ["fact one", "fact two"]
        body = server.state["requests"][0]["body"]
        roles = [m["role"] for m in body["messages"]]
        assert roles[0] == "system"
        assert roles[-1] == "user"
        assert "A long sentence here." in body["messages"][-1]["content"]

    def test_empty_text_is_protocol_error(self, server):
        server.state["respond"] = lambda path, body: {"text": "\n\n"}
        client = HttpDecomposerProvider(_config(server))
        with pytest.raises(ProtocolError):
            client.decompose("Sentence.", "topic")


def test_bad_response_fails_one_prompt_not_the_run(server):
    """A NaN logit for one prompt's pairs yields a PromptFailure for that
    prompt only; the other prompt is still scored."""

    def respond(path, body):
        rows = []
        for pair in body["pairs"]:
            if "poisoned" in pair["premise"] + pair["hypothesis"]:
                rows.append([float("nan"), 0.0, 0.0])
            else:
                rows.append(list(marker_nli_rule(pair["premise"], pair["hypothesis"])))
        return {"logits": rows}

    server.state["respond"] = respond
    good = marker_sample("good", ["alpha", "omega"])
    bad = marker_sample("bad", ["alpha", "poisoned alpha"], topic_index=1)
    providers = marker_providers()
    providers.nli = HttpNliProvider(_config(server))
    config = apply_variant(default_config(), "luq_sentence")
    results = run_many([good, bad], config, providers)
    assert isinstance(results[0], PromptReport)
    assert isinstance(results[1], PromptFailure)
    assert results[1].prompt_id == "bad"
    assert "malformed" in results[1].error
