"""HTTP clients for the NLI, embedding, and decomposer services.

Wire contract (all bodies UTF-8 JSON):

    POST {endpoint}/nli    {"pairs": [{"premise": s, "hypothesis": s}, ...]}
                        -> {"logits": [[entail, contradict, neutral], ...]}
    POST {endpoint}/embed  {"texts": [s, ...]}
                        -> {"vectors": [[...], ...], "dim": D}
    POST {endpoint}/chat   {"messages": [{"role": r, "content": s}, ...]}
                        -> {"text": s}   # one fact per line, "- " bullets

Transport failures and 5xx, 408 and 429 responses are retried with
exponential backoff; after max_attempts the call raises ProviderError
carrying the attempt count. Any other 4xx fails at once, since a retry
cannot fix it. A 2xx body that is not a JSON object, or whose fields are
not finite JSON numbers of the right shape (a string or a boolean is not a
number), raises ProtocolError,
so one bad response fails one prompt, never a corpus run. Requests are
chunked to batch_size and at most max_in_flight chunks are posted
concurrently; outputs are reassembled in request order.

Each client posts through its own pool of max_in_flight threads, however
many callers share it, and each pool thread keeps its own
requests.Session. close() shuts the pool down and closes the sessions.
requests is imported when the first client is made, not with this
module, so runs without an HTTP client never load it.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import TYPE_CHECKING, Sequence

from .base import (
    EmbeddingVector,
    NliLogits,
    ProtocolError,
    ProviderConfig,
    ProviderError,
)
from .decompose import build_decompose_messages, parse_fact_lines

if TYPE_CHECKING:
    import requests

_RETRYABLE_4XX = (408, 429)


@contextmanager
def _malformed(what: str):
    """Turn a parse or validation failure of a response, or a number too
    large for a float, into ProtocolError."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as e:
        raise ProtocolError(f"{what} response malformed: {e}") from e


def _number(value) -> float:
    """A JSON number in an answer as a float; any other value, a string
    or a boolean included, raises TypeError."""
    if type(value) is not float and type(value) is not int:
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


class _HttpClient:
    def __init__(self, config: ProviderConfig):
        if not config.endpoint:
            raise ValueError("http provider requires an endpoint")
        import requests  # here, so that set-up rather than a pool thread pays for it

        self._requests = requests
        self._config = config
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None  # created at the first post
        self._local = threading.local()  # the pool thread's session
        self._sessions: list[requests.Session] = []

    def _session(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = self._requests.Session()
            with self._lock:
                self._sessions.append(session)
        return session

    def _submit(self, fn, *args):
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._config.max_in_flight,
                    thread_name_prefix=type(self).__name__,
                )
            return self._pool.submit(fn, *args)

    def close(self) -> None:
        """Stop the posting threads and close their sessions; a later call
        starts them again."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        with self._lock:
            sessions, self._sessions = self._sessions, []
        for session in sessions:
            session.close()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self._config.auth_env_var:
            token = os.environ.get(self._config.auth_env_var, "")
            if token:
                headers["Authorization"] = f"Bearer {token}"
        return headers

    def _post(self, path: str, body: dict) -> dict:
        url = self._config.endpoint.rstrip("/") + path
        retry = self._config.retry
        timeout_s = self._config.timeout_ms / 1000.0
        last_error = "no attempt made"
        for attempt in range(1, retry.max_attempts + 1):
            try:
                resp = self._session().post(
                    url, json=body, headers=self._headers(), timeout=timeout_s
                )
            except self._requests.RequestException as e:
                last_error = str(e)
            else:
                status = resp.status_code
                if 200 <= status < 300:
                    with _malformed(f"POST {url}"):
                        data = resp.json()
                    if not isinstance(data, dict):
                        raise ProtocolError(f"POST {url}: response is not a JSON object")
                    return data
                last_error = f"HTTP {status}"
                if 400 <= status < 500 and status not in _RETRYABLE_4XX:
                    raise ProviderError(
                        f"POST {url} failed: {last_error}", attempts=attempt
                    )
            if attempt < retry.max_attempts:
                time.sleep(retry.base_backoff_ms * (2 ** (attempt - 1)) / 1000.0)
        raise ProviderError(
            f"POST {url} failed after {retry.max_attempts} attempts: {last_error}",
            attempts=retry.max_attempts,
        )

    def _batched(self, items: list, worker) -> list:
        """Run `worker` over batch_size chunks on the client's pool."""
        size = self._config.batch_size
        futures = [
            self._submit(worker, items[i : i + size]) for i in range(0, len(items), size)
        ]
        out = []
        for future in futures:
            out.extend(future.result())
        return out


class HttpNliProvider(_HttpClient):
    def nli_batch(self, pairs: Sequence[tuple[str, str]]) -> list[NliLogits]:
        for premise, hypothesis in pairs:
            if not premise or not hypothesis:
                raise ValueError("NLI pair texts must be non-empty")
        return self._batched(list(pairs), self._score_chunk)

    def _score_chunk(self, chunk: list[tuple[str, str]]) -> list[NliLogits]:
        body = {
            "pairs": [{"premise": p, "hypothesis": h} for p, h in chunk]
        }
        data = self._post("/nli", body)
        logits = data.get("logits")
        if not isinstance(logits, list) or len(logits) != len(chunk):
            got = len(logits) if isinstance(logits, list) else "none"
            raise ProtocolError(
                f"NLI response arity mismatch: sent {len(chunk)} pairs, got {got}"
            )
        out = []
        for row in logits:
            if not isinstance(row, list) or len(row) != 3:
                raise ProtocolError(f"NLI logits row malformed: {row!r}")
            with _malformed("NLI"):
                out.append(NliLogits(*map(_number, row)))
        return out


class HttpEmbeddingProvider(_HttpClient):
    def __init__(self, config: ProviderConfig):
        super().__init__(config)
        self._dim: int | None = None
        self._dim_lock = threading.Lock()

    def embed_batch(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        for t in texts:
            if not t:
                raise ValueError("embedding texts must be non-empty")
        return self._batched(list(texts), self._embed_chunk)

    def _embed_chunk(self, chunk: list[str]) -> list[EmbeddingVector]:
        data = self._post("/embed", {"texts": chunk})
        vectors = data.get("vectors")
        if not isinstance(vectors, list) or len(vectors) != len(chunk):
            got = len(vectors) if isinstance(vectors, list) else "none"
            raise ProtocolError(
                f"embed response arity mismatch: sent {len(chunk)} texts, got {got}"
            )
        with _malformed("embed"):
            dim = data.get("dim", len(vectors[0]) if vectors else 0)
            out = []
            for vec in vectors:
                if len(vec) != dim:
                    raise ProtocolError(
                        f"embedding vector length {len(vec)} != reported dim {dim}"
                    )
                out.append(EmbeddingVector(tuple(map(_number, vec))))
        # Only a valid answer sets the dimension the later ones must match.
        with self._dim_lock:
            if self._dim is None:
                self._dim = dim
            elif dim != self._dim:
                raise ProtocolError(
                    f"embedding dimension drift: expected {self._dim}, got {dim}"
                )
        return out


class HttpDecomposerProvider(_HttpClient):
    def decompose(self, sentence: str, prompt_context: str) -> list[str]:
        if not sentence:
            raise ValueError("sentence must be non-empty")
        body = {"messages": build_decompose_messages(sentence, prompt_context)}
        data = self._submit(self._post, "/chat", body).result()
        text = data.get("text")
        if not isinstance(text, str):
            raise ProtocolError("chat response missing 'text' field")
        facts = parse_fact_lines(text)
        if not facts:
            raise ProtocolError("chat response contained no fact lines")
        return facts
