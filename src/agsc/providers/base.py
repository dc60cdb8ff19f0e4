"""Provider-facing types, configuration, and error contracts.

Providers are external services the pipeline talks to: a three-class NLI
scorer, a sentence embedder, and an atomic-fact decomposer. Only the wire
clients in http.py do I/O; the mocks in mocks.py are pure functions of
their inputs.

The turn helpers at the end let several prompt threads overlap their
provider waits while only one of them computes at a time.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable


class ProviderError(Exception):
    """A provider call failed after exhausting its retry budget."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class ProtocolError(ProviderError):
    """The provider answered, but the response violates the wire contract."""


@dataclass(frozen=True)
class NliLogits:
    """Raw three-class NLI scores: entailment, contradiction, neutral."""

    entail: float
    contradict: float
    neutral: float

    def __post_init__(self) -> None:
        for v in (self.entail, self.contradict, self.neutral):
            if not math.isfinite(v):
                raise ValueError(f"NLI logits must be finite, got {v!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.entail, self.contradict, self.neutral)


@dataclass(frozen=True)
class EmbeddingVector:
    """A dense sentence embedding of provider-reported dimension."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("embedding must be non-empty")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("embedding entries must be finite")

    @property
    def dim(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    base_backoff_ms: int = 50

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_ms < 0:
            raise ValueError("base_backoff_ms must be >= 0")


@dataclass(frozen=True)
class ProviderConfig:
    """Transport settings for one provider endpoint.

    Auth tokens are read from the environment variable named by
    auth_env_var, never from configuration files.
    """

    endpoint: str = ""
    auth_env_var: str = ""
    batch_size: int = 32
    max_in_flight: int = 4
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    timeout_ms: int = 30000

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.timeout_ms < 1:
            raise ValueError("timeout_ms must be >= 1")


@runtime_checkable
class NliProvider(Protocol):
    def nli_batch(self, pairs: Sequence[tuple[str, str]]) -> list[NliLogits]:
        """Score (premise, hypothesis) pairs; output is order-aligned."""
        ...


@runtime_checkable
class EmbeddingProvider(Protocol):
    def embed_batch(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        """Embed texts; output is order-aligned with a constant dimension."""
        ...


@runtime_checkable
class DecomposerProvider(Protocol):
    def decompose(self, sentence: str, prompt_context: str) -> list[str]:
        """Split one sentence into at least one atomic fact string."""
        ...


# -- the compute turn --
#
# Python threads overlap waits, not computation: two threads running
# Python code only take the interpreter lock from each other. A corpus
# run therefore keeps many prompts in flight, but lets a prompt's thread
# compute only while it holds the run's turn (a lock), and give the turn
# up only while it waits on a provider. The turn a thread has, if any, is
# thread-local, so code between the pipeline and a provider (a cache) can
# give it up or take it back without being handed it. A free turn means
# that no prompt computes; a corpus run (pipeline.run_many) starts its
# next prompt thread only then, so prompts that never wait share one
# thread.


class _TurnState(threading.local):
    lock: threading.Lock | None = None
    held = False


_turn = _TurnState()


@contextmanager
def taking_turn(lock: threading.Lock):
    """Hold `lock` as this thread's turn for the block.

    Inside, waiting() gives the turn up and computing() takes it back.
    """
    _turn.lock = lock
    try:
        with computing():
            yield
    finally:
        _turn.lock = None


def map_in_pool(fn, items: Sequence, workers: int) -> list:
    """[fn(item) for item in items], at most `workers` (>= 2) at once.

    The caller gives its turn up, runs the first item itself and waits for
    a short-lived pool of workers - 1 threads to run the rest. Every one
    of these threads shares the caller's turn without holding it: inside
    fn, computing() takes the shared turn, so they compute one at a time
    with the other threads. A caller that kept its turn would deadlock a
    pool thread that takes the turn in computing(), as a cache lookup
    does. An error of the first item wins over the others' errors.
    """
    lock = _turn.lock

    def joined(item):
        _turn.lock, _turn.held = lock, False
        try:
            return fn(item)
        finally:
            _turn.lock = None

    with waiting(), ThreadPoolExecutor(max_workers=workers - 1) as pool:
        rest = pool.map(joined, items[1:])
        return [fn(items[0]), *rest]


@contextmanager
def _holding(want: bool):
    lock = _turn.lock
    if lock is None or _turn.held == want:
        yield
        return
    enter, leave = (lock.acquire, lock.release) if want else (lock.release, lock.acquire)
    enter()
    _turn.held = want
    try:
        yield
    finally:
        leave()
        _turn.held = not want


def waiting():
    """Give up this thread's turn for the block, if it holds one."""
    return _holding(False)


def computing():
    """Take this thread's turn back for the block, if it has one."""
    return _holding(True)


def waiting_on(provider):
    """waiting() around a call to `provider`, unless the provider sets
    `gives_up_turn`: it then gives the turn up itself around its real
    waits only. Giving the turn up around a call that does not wait, such
    as a cache hit, hands it to another thread for nothing."""
    return nullcontext() if getattr(provider, "gives_up_turn", False) else waiting()
