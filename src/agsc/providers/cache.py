"""Append-only response caches keyed on content hashes.

One cache file per provider, line-delimited JSON, loaded fully at open.
Caching is transparent: wrapped providers return exactly what the inner
provider would, they just skip repeated calls. A file whose last line was
torn by a kill mid-append still opens: the fragment is skipped, logged,
and cut off before the next record is appended.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import unicodedata
from pathlib import Path
from typing import Sequence

from .base import EmbeddingVector, NliLogits, computing, waiting

logger = logging.getLogger(__name__)

_SEP = "\x1f"


class CacheCorruptError(ValueError):
    """A cache file holds an unparsable record before its last line."""


def content_key(*parts: str) -> str:
    """Hash of NFC-canonicalized text parts; the cache lookup key."""
    joined = _SEP.join(unicodedata.normalize("NFC", p) for p in parts)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


class ResponseCache:
    """Persistent key -> JSON value store with an append-only file backend.

    A kill during put() can leave the file ending in a partial line. An
    unparsable last line is skipped with a warning and cut off before the
    next put(), so the new record starts on a fresh line; an unparsable
    line anywhere else raises CacheCorruptError naming the file and line.

    Records go through one append handle, opened at the first put() and
    released by close(); a put() after close() opens it again.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._lock = threading.Lock()
        self._data: dict[str, object] = {}
        self._file = None  # the append handle, once a record is written
        self._torn_at: int | None = None  # byte offset of a torn last line
        self._unterminated = False  # the last line parsed but lacks its newline
        if self._path.exists():
            bad: tuple[int, ValueError] | None = None
            line, end = b"\n", 0
            with open(self._path, "rb") as f:
                for lineno, line in enumerate(f, start=1):
                    start, end = end, end + len(line)
                    if not line.strip():
                        continue
                    if bad is not None:
                        raise CacheCorruptError(
                            f"{self._path}:{bad[0]}: unparsable cache record ({bad[1]})"
                        )
                    try:
                        rec = json.loads(line)
                    except ValueError as e:  # bad JSON or a cut UTF-8 sequence
                        bad, self._torn_at = (lineno, e), start
                        continue
                    self._data[rec["k"]] = rec["v"]
            if bad is not None:
                logger.warning("%s: skipped unparsable last line (%s)", self._path, bad[1])
            else:
                self._unterminated = not line.endswith(b"\n")
        else:
            self._path.parent.mkdir(parents=True, exist_ok=True)

    def get(self, key: str):
        with self._lock:
            return self._data.get(key)

    def put(self, key: str, value) -> None:
        """Store a record; it is flushed to the file before put() returns."""
        line = json.dumps({"k": key, "v": value}, ensure_ascii=False)
        with self._lock:
            if key in self._data:
                return
            if self._file is None:
                if self._torn_at is not None:
                    os.truncate(self._path, self._torn_at)
                self._file = open(self._path, "a", encoding="utf-8")
                if self._unterminated:
                    self._file.write("\n")
                self._torn_at, self._unterminated = None, False
            self._file.write(line + "\n")
            self._file.flush()
            self._data[key] = value

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class _CachedProvider:
    """Base of the caching wrappers: serves hits from the cache and sends
    only the misses to the inner provider."""

    # Lookups and stores are computation and hold the caller's turn (taken
    # back if a wrapper in between gave it up); only the fetch of misses
    # gives it up. See waiting_on.
    gives_up_turn = True

    def __init__(self, inner, cache: ResponseCache):
        self._inner = inner
        self._cache = cache

    def _through(self, keys: Sequence[str], fetch, encode, decode) -> list:
        """Results for `keys`, in order.

        Each key is looked up once; fetch(indices) returns the inner
        provider's results for the missed indices in one call, and each is
        stored as encode(result). Hits are rebuilt with decode(value).
        """
        results: list = [None] * len(keys)
        missing: list[int] = []
        with computing():
            for i, key in enumerate(keys):
                hit = self._cache.get(key)
                if hit is None:
                    missing.append(i)
                else:
                    results[i] = decode(hit)
            if missing:
                with waiting():
                    fetched = fetch(missing)
                for i, value in zip(missing, fetched):
                    self._cache.put(keys[i], encode(value))
                    results[i] = value
        return results

    def close(self) -> None:
        """Release the cache's append handle and what the inner provider holds."""
        self._cache.close()
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


class CachedNli(_CachedProvider):
    """NLI provider wrapper that serves repeated pairs from the cache."""

    def nli_batch(self, pairs: Sequence[tuple[str, str]]) -> list[NliLogits]:
        return self._through(
            [content_key("nli", p, h) for p, h in pairs],
            lambda missing: self._inner.nli_batch([pairs[i] for i in missing]),
            lambda logits: list(logits.as_tuple()),
            lambda hit: NliLogits(*hit),
        )


class CachedEmbedding(_CachedProvider):
    """Embedding provider wrapper that serves repeated texts from the cache."""

    def embed_batch(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return self._through(
            [content_key("embed", t) for t in texts],
            lambda missing: self._inner.embed_batch([texts[i] for i in missing]),
            lambda vec: list(vec.values),
            lambda hit: EmbeddingVector(tuple(hit)),
        )


class CachedDecomposer(_CachedProvider):
    """Decomposer wrapper that serves repeated sentences from the cache."""

    def decompose(self, sentence: str, prompt_context: str) -> list[str]:
        (facts,) = self._through(
            [content_key("decompose", sentence, prompt_context)],
            lambda missing: [self._inner.decompose(sentence, prompt_context)],
            list,
            list,
        )
        return facts
