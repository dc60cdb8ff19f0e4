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
import queue
import threading
import time
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


@dataclass(frozen=True, slots=True)
class NliLogits:
    """Raw three-class NLI scores: entailment, contradiction, neutral.

    Each must be a finite number; a boolean is not one.
    """

    entail: float
    contradict: float
    neutral: float

    def __post_init__(self) -> None:
        for v in (self.entail, self.contradict, self.neutral):
            if type(v) is bool or not math.isfinite(v):
                raise ValueError(f"NLI logits must be finite numbers, got {v!r}")

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
# give it up or take it back without being handed it. Threads start only
# as work is about to wait (share_turn).


class _TurnState(threading.local):
    lock: threading.Lock | None = None
    held = False
    group: _Group | None = None  # the innermost share_turn this thread runs items of
    waited = 0.0  # seconds spent taking the turn


_turn = _TurnState()


def turn_waits() -> float:
    """Seconds this thread has waited so far to take its turn."""
    return _turn.waited


@contextmanager
def taking_turn(lock: threading.Lock | None):
    """Hold `lock` as this thread's turn for the block.

    Inside, waiting() gives the turn up and computing() takes it back.
    """
    _turn.lock = lock
    try:
        with computing():
            yield
    finally:
        _turn.lock = None


class _Group:
    """One share_turn call: its items, their results and the threads it started."""

    def __init__(self, fn, items: Sequence, workers: int, turn: threading.Lock | None):
        self.fn, self.items, self.parent = fn, items, _turn.group
        self.lock, self.max_threads = (turn, workers) if turn else (_turn.lock, workers - 1)
        self.asks = queue.SimpleQueue() if turn else None
        self.results: list = [None] * len(items)
        self.errors: list[tuple[int, BaseException]] = []
        self.threads: list[threading.Thread] = []
        self.next, self.stopped, self.mutex = 0, False, threading.Lock()

    def run(self) -> None:
        """Run pending items until none is left; an error stops the rest."""
        while True:
            with self.mutex:
                if self.stopped or self.next == len(self.items):
                    return
                i, self.next = self.next, self.next + 1
            try:
                self.results[i] = self.fn(self.items[i])
            except BaseException as e:
                self.errors.append((i, e))
                self.stopped = True

    def start(self) -> bool:
        """Start (or ask the caller to) a thread that takes the turn and runs
        pending items, if any are pending and fewer than max_threads run."""
        with self.mutex:
            if self.stopped or self.next == len(self.items) or len(self.threads) >= self.max_threads:
                return False
            self.threads.append(threading.Thread(target=self._thread))
            if self.asks:
                self.asks.put(self.threads[-1])
            else:
                self.threads[-1].start()  # listed first: see join()
            return True

    def _thread(self) -> None:
        _turn.group = self
        try:
            with taking_turn(self.lock):
                self.run()
        finally:
            if self.asks:
                self.asks.put(None)

    def serve(self) -> None:
        """Start the first thread and then each one asked for, here, so that
        none starts after an interrupt reaches the caller; return once all have ended."""
        self.start()
        live = 0
        while live or not self.asks.empty():
            thread = self.asks.get()
            if thread is None:
                live -= 1
            elif not self.stopped:
                thread.start()
                live += 1

    def join(self) -> None:
        with waiting():
            for thread in self.threads:  # also reaches threads appended meanwhile
                if thread.is_alive():  # not if its start() was interrupted or skipped
                    thread.join()


def share_turn(fn, items: Sequence, workers: int, turn: threading.Lock | None = None) -> list:
    """[fn(item) for item in items], running at most `workers` items at once.

    The caller runs the items in order, under its turn if it has one. A
    thread running an item that is about to give the turn up (waiting(),
    even with no turn) first starts a thread for the next pending item of
    the innermost share_turn that has one, which takes the turn in its
    place and runs pending items until none is left. Given `turn`, a free
    lock, the caller runs no item and starts each such thread itself. An
    error stops further items from starting; once the started threads end,
    the caller's error (an interrupt), else the earliest item's, is raised.
    """
    group = _Group(fn, items, workers, turn)
    try:
        if turn:
            group.serve()
        else:
            _turn.group = group
            group.run()
    except BaseException:
        group.stopped = True
        raise
    finally:
        _turn.group = group.parent
        if group.threads:
            group.join()
    if group.errors:
        raise min(group.errors, key=lambda error: error[0])[1]
    return group.results


@contextmanager
def _holding(want: bool):
    lock = _turn.lock
    if not want and (lock is None or _turn.held):
        group = _turn.group  # start a thread for the innermost pending item
        while group and not group.start():
            group = group.parent
    if lock is None or _turn.held == want:
        yield
        return
    _hold(lock, want)
    try:
        yield
    finally:
        _hold(lock, not want)


def _hold(lock: threading.Lock, take: bool) -> None:
    if take:
        t0 = time.perf_counter()
        lock.acquire()
        _turn.waited += time.perf_counter() - t0
    else:
        lock.release()
    _turn.held = take


def waiting():
    """Give up this thread's turn for the block, if it holds one (see
    share_turn for the thread this may start first)."""
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
