"""Append-only response caches keyed on content hashes.

One cache file per provider, line-delimited JSON, parsed at first use.
Caching is transparent: wrapped providers return exactly what the inner
provider would, they just skip repeated calls. A file whose last line was
torn by a kill mid-append still loads: the fragment is skipped, logged,
and cut off before the next record is appended.

In memory a cache is keyed by the raw 32-byte SHA-256 digest of a
request's content (content_key, pair_keys); on disk each line's "k" is
that digest's hex string. Each wrapper sets how its cache holds records,
in the form a hit needs: CachedNli holds the validated NliLogits it
serves, CachedEmbedding a packed float64 array per vector, and
CachedDecomposer the list as parsed. A record that fails validation is
held as parsed and fails only the lookups that find it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import unicodedata
from array import array
from pathlib import Path
from typing import Sequence

from .base import EmbeddingVector, NliLogits, ProtocolError, computing, waiting
from .decompose import checked_facts

logger = logging.getLogger(__name__)

_SEP = "\x1f"
_DECODER = json.JSONDecoder()


class CacheCorruptError(ValueError):
    """A cache file is unreadable or holds a line that is not {"k": str, "v": ...}."""


def content_key(*parts: str) -> bytes:
    """SHA-256 digest of NFC-canonicalized text parts; the cache lookup key."""
    joined = _SEP.join(unicodedata.normalize("NFC", p) for p in parts)
    return hashlib.sha256(joined.encode("utf-8")).digest()


def pair_keys(kind: str, pairs: Sequence[tuple[str, str]]) -> list[bytes]:
    """[content_key(kind, a, b) for a, b in pairs], key for key.

    Each distinct text is normalized once, and the hash of each distinct
    first part's prefix "kind SEP a SEP" is computed once and copied for
    every pair that shares it.
    """
    kind = unicodedata.normalize("NFC", kind)
    prefixes = {}  # a -> the hash state of its prefix
    seconds = {}  # b -> its normalized UTF-8 bytes
    keys = []
    for a, b in pairs:
        prefix = prefixes.get(a)
        if prefix is None:
            text = _SEP.join((kind, unicodedata.normalize("NFC", a), ""))
            prefix = prefixes[a] = hashlib.sha256(text.encode("utf-8"))
        tail = seconds.get(b)
        if tail is None:
            tail = seconds[b] = unicodedata.normalize("NFC", b).encode("utf-8")
        h = prefix.copy()
        h.update(tail)
        keys.append(h.digest())
    return keys


def _json_text(line: bytes) -> str:
    """line decoded as json.loads(line) decodes it.

    A line that starts with "{" and a non-NUL byte, as every record does,
    is UTF-8 to json.loads's encoding detection, so only other lines run it.
    """
    if line[:1] == b"{" and line[1:2] != b"\0":
        return line.decode("utf-8", "surrogatepass")
    return line.decode(json.detect_encoding(line), "surrogatepass")


def packed_floats(value) -> array:
    """A record's list of numbers as one packed float64 array('d').

    Held in memory, a list of n floats costs 56 + 32n bytes (the list and
    its float objects) and the array 64 + 8n. A value that is not a list
    of numbers raises TypeError, or OverflowError for a number too large
    for a float; a boolean is not a number, though array('d') would take it.
    """
    if type(value) is not list or bool in map(type, value):
        raise TypeError("embedding record is not a list of numbers")
    return array("d", value)


def _vector(held) -> EmbeddingVector:
    """The vector a held embedding record serves. A record held as parsed
    (one packed_floats rejected) is packed here, which raises for it."""
    return EmbeddingVector(tuple(held if type(held) is array else packed_floats(held)))


def _logits(value) -> NliLogits:
    """An NLI record's three numbers as the NliLogits it serves."""
    return NliLogits(*value)


class ResponseCache:
    """Persistent key -> value store backed by an append-only JSON-lines file.

    Keys are bytes, the digests content_key and pair_keys make. Each record
    is one line {"k": key.hex(), "v": value}, written from the value put()
    was given. In memory the store is keyed by the bytes again: a line's
    "k" is read back with bytes.fromhex, and one that is not hex is kept
    as read, which no lookup matches. get() returns a record's held form.
    put() holds the `held` form its caller passes, else the value itself.
    The parse holds each value as hold(value) when `hold` is set before
    the first get() or put(); a value hold rejects (TypeError, ValueError
    or OverflowError), or every value when hold is None, is held as
    parsed, so that a malformed record fails only the lookups that find it.

    The path is checked when the cache is made; the file is parsed at the
    first get() or put(). A kill during put() can leave the file ending in
    a partial line. An unparsable last line is skipped with a warning and
    cut off before the next put(), so the new record starts on a fresh
    line; an unparsable line anywhere else raises CacheCorruptError naming
    the file and line. So does a line that parses but is not a record: no
    torn append can leave one. A file that fails to read or parse raises
    CacheCorruptError from every get() and put(), and is never written to.

    Records go through one append handle, opened at the first put() and
    released by close(); a put() after close() opens it again.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self.hold = None  # how parsed values are held in memory; None holds them as parsed
        self._lock = threading.Lock()
        self._data: dict[bytes, object] | None = None  # the records, once parsed
        self._failed: str | None = None  # why parsing failed, if it did
        self._file = None  # the append handle, once a record is written
        self._torn_at: int | None = None  # byte offset of a torn last line
        self._unterminated = False  # the last line parsed but lacks its newline
        if self._path.exists():
            if not (self._path.is_file() and os.access(self._path, os.R_OK)):
                raise OSError(f"{self._path}: not a readable regular file")
        else:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._data = {}

    def _load(self) -> None:
        """Parse the file into self._data; the caller holds the lock."""
        if self._failed is not None:
            raise CacheCorruptError(self._failed)
        try:
            self._data = self._parse()
        except CacheCorruptError as e:
            self._failed = str(e)
            raise
        except OSError as e:  # the file went bad after the path check
            self._failed = f"{self._path}: unreadable ({e})"
            raise CacheCorruptError(self._failed) from e

    def _parse(self) -> dict[bytes, object]:
        """The file's records; also sets the torn-line state put() reads."""
        data: dict[bytes, object] = {}
        hold = self.hold
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
                    rec = _DECODER.decode(_json_text(line))
                except ValueError as e:  # bad JSON or a cut UTF-8 sequence
                    bad, self._torn_at = (lineno, e), start
                    continue
                if not (isinstance(rec, dict) and isinstance(rec.get("k"), str)
                        and "v" in rec):
                    raise CacheCorruptError(
                        f"{self._path}:{lineno}: not a cache record"
                        " (expected an object with a string 'k' and a 'v')"
                    )
                key, value = rec["k"], rec["v"]
                try:
                    key = bytes.fromhex(key)
                except ValueError:
                    pass
                if hold is not None:
                    try:
                        value = hold(value)
                    except (TypeError, ValueError, OverflowError):
                        pass
                data[key] = value
        if bad is not None:
            logger.warning("%s: skipped unparsable last line (%s)", self._path, bad[1])
        else:
            self._unterminated = not line.endswith(b"\n")
        return data

    def get(self, key: bytes):
        # Once parsed, a lookup takes no lock: put() adds a record to the
        # dict only after flushing its line, and a dict lookup is atomic.
        data = self._data
        if data is None:
            with self._lock:
                if self._data is None:
                    self._load()
                data = self._data
        return data.get(key)

    def put(self, key: bytes, value, held=None) -> None:
        """Store a record, held in memory as `held` if given, else as
        `value`; it is flushed to the file before put() returns."""
        line = json.dumps({"k": key.hex(), "v": value}, ensure_ascii=False)
        with self._lock:
            if self._data is None:
                self._load()
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
            self._data[key] = value if held is None else held

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


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

    def _through(self, keys: Sequence[bytes], fetch, encode, decode, served=None) -> list:
        """Results for `keys`, in order.

        Each position is looked up once. A hit held as a `served` instance
        is returned as held; any other hit is rebuilt with decode(hit), and
        a record that decode rejects (TypeError, ValueError, or
        OverflowError for an integer too large for a float) raises
        ProtocolError naming the cache file. fetch(indices) returns the
        inner provider's results for the first position of each distinct
        missed key, in one call, and each result fills every position of
        its key. An answer of the wrong length raises ProtocolError before
        anything is stored. Each result is stored as encode(result), a
        (record, held) pair for put(); a result that encode rejects
        (ValueError) is returned but not stored, so a later call asks again.
        """
        results: list = [None] * len(keys)
        missing: dict[bytes, list[int]] = {}  # missed key -> its positions
        get = self._cache.get
        with computing():
            for i, key in enumerate(keys):
                hit = get(key)
                if hit is None:
                    missing.setdefault(key, []).append(i)
                elif type(hit) is served:
                    results[i] = hit
                else:
                    try:
                        results[i] = decode(hit)
                    except (TypeError, ValueError, OverflowError) as e:
                        raise ProtocolError(
                            f"{self._cache._path}: cache record malformed: {e}"
                        ) from e
            if missing:
                firsts = [positions[0] for positions in missing.values()]
                with waiting():
                    fetched = fetch(firsts)
                if len(fetched) != len(firsts):
                    raise ProtocolError(
                        f"provider behind {self._cache._path} returned"
                        f" {len(fetched)} results for {len(firsts)} requests"
                    )
                for (key, positions), value in zip(missing.items(), fetched):
                    for i in positions:
                        results[i] = value
                    try:
                        record, held = encode(value)
                    except ValueError:
                        continue
                    self._cache.put(key, record, held)
        return results

    def close(self) -> None:
        """Release the cache's append handle and what the inner provider holds."""
        self._cache.close()
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


class CachedNli(_CachedProvider):
    """NLI provider wrapper that serves repeated pairs from the cache.

    Its cache holds each record as the NliLogits a hit returns, built once
    when its line is parsed or taken as fetched.
    """

    def __init__(self, inner, cache: ResponseCache):
        super().__init__(inner, cache)
        cache.hold = _logits

    def nli_batch(self, pairs: Sequence[tuple[str, str]]) -> list[NliLogits]:
        return self._through(
            pair_keys("nli", pairs),
            lambda missing: self._inner.nli_batch([pairs[i] for i in missing]),
            lambda logits: (list(logits.as_tuple()), logits),
            _logits,
            NliLogits,
        )


class CachedEmbedding(_CachedProvider):
    """Embedding provider wrapper that serves repeated texts from the cache.

    Its cache holds each vector as a packed float64 array (packed_floats);
    the file keeps the JSON list.
    """

    def __init__(self, inner, cache: ResponseCache):
        super().__init__(inner, cache)
        cache.hold = packed_floats

    def embed_batch(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return self._through(
            [content_key("embed", t) for t in texts],
            lambda missing: self._inner.embed_batch([texts[i] for i in missing]),
            lambda vec: (list(vec.values), array("d", vec.values)),
            _vector,
        )


class CachedDecomposer(_CachedProvider):
    """Decomposer wrapper that serves repeated sentences from the cache.

    An answer that checked_facts rejects, which the caller replaces with
    the rule-based fallback, is not stored.
    """

    def decompose(self, sentence: str, prompt_context: str) -> list[str]:
        (facts,) = self._through(
            [content_key("decompose", sentence, prompt_context)],
            lambda missing: [self._inner.decompose(sentence, prompt_context)],
            lambda answer: (checked_facts(answer), None),
            checked_facts,
        )
        return facts
