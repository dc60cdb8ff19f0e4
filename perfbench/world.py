"""Scripted providers and the benchmark-owned simulated services.

The scripted NLI and decomposer rules read the marker words that gen.py
plants. Each provider sits behind a ServiceProvider wrapper that stands
for the remote service: it counts the calls and items that reach it,
tracks how many calls are in flight, and, in service mode, sleeps in the
caller's thread for the round trips a real client would wait.

Latency lives here rather than in `providers.*.mock_latency_ms` because
the pipeline ignores that key for NLI and embedding (only the decomposer
honours it), and because the cache must sit in front of the latency.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from agsc.pipeline import ProviderBundle
from agsc.providers import (
    CachedDecomposer,
    CachedEmbedding,
    CachedNli,
    HashEmbeddingProvider,
    ResponseCache,
    ScriptedDecomposerProvider,
    ScriptedNliProvider,
)

ENTAIL_LOGITS = (8.0, -8.0, -8.0)
CONTRA_LOGITS = (-8.0, 8.0, -8.0)
NEUTRAL_LOGITS = (-2.0, -2.0, 4.0)
AMBIG_LOGITS = (1.2, -1.2, 3.0)  # neutral-dominant, gap ~ 0.127 > tau = 0.1

EMBED_DIM = 64
CACHE_FILES = ("nli.jsonl", "embed.jsonl", "decompose.jsonl")


def marker_nli_rule(premise: str, hypothesis: str):
    if "omega" in hypothesis:
        return CONTRA_LOGITS
    if "zeta" in hypothesis:
        return NEUTRAL_LOGITS
    if "theta" in hypothesis:
        return AMBIG_LOGITS
    return ENTAIL_LOGITS


def marker_decomposer_rule(sentence: str, prompt_context: str) -> list[str]:
    if "theta" in sentence:
        return [sentence.replace("theta", "alpha"), sentence.replace("theta", "omega")]
    return [sentence]


@dataclass(frozen=True)
class Latency:
    """Simulated round-trip costs.

    A batched call of n items needs ceil(n / batch_size) requests, sent
    max_in_flight at a time, so it waits ceil(ceil(n / 32) / 4) rounds at
    the defaults of ProviderConfig.
    """

    nli_round_ms: float = 0.0
    embed_round_ms: float = 0.0
    decompose_call_ms: float = 0.0
    batch_size: int = 32
    max_in_flight: int = 4

    def rounds(self, n: int) -> int:
        return math.ceil(math.ceil(n / self.batch_size) / self.max_in_flight)


ZERO_LATENCY = Latency()
SERVICE_LATENCY = Latency(nli_round_ms=20.0, embed_round_ms=10.0, decompose_call_ms=50.0)


class ServiceStats:
    """Thread-safe tallies of what reached the simulated services."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = {"nli": 0, "embed": 0, "decompose": 0}
        self.items = {"nli": 0, "embed": 0, "decompose": 0}
        self.wait_s = {"nli": 0.0, "embed": 0.0, "decompose": 0.0}
        self.in_flight = 0
        self.in_flight_peak = 0

    def enter(self, name: str, items: int) -> None:
        with self._lock:
            self.calls[name] += 1
            self.items[name] += items
            self.in_flight += 1
            self.in_flight_peak = max(self.in_flight_peak, self.in_flight)

    def leave(self, name: str, waited_s: float) -> None:
        with self._lock:
            self.in_flight -= 1
            self.wait_s[name] += waited_s

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "items": dict(self.items),
                "wait_s": dict(self.wait_s),
                "in_flight_peak": self.in_flight_peak,
            }


class ServiceProvider:
    """One simulated service: counts, then sleeps, then asks the scripted mock."""

    def __init__(self, name: str, inner, stats: ServiceStats, latency: Latency):
        self._name = name
        self._inner = inner
        self._stats = stats
        self._latency = latency

    def _wait_s(self, items: int) -> float:
        lat = self._latency
        if self._name == "decompose":
            return lat.decompose_call_ms / 1000.0
        per_round = lat.nli_round_ms if self._name == "nli" else lat.embed_round_ms
        return lat.rounds(items) * per_round / 1000.0

    def _call(self, items: int, fn, *args):
        self._stats.enter(self._name, items)
        waited = 0.0
        try:
            wait = self._wait_s(items)
            if wait > 0.0:
                t0 = time.perf_counter()
                time.sleep(wait)
                waited = time.perf_counter() - t0
            return fn(*args)
        finally:
            self._stats.leave(self._name, waited)

    def nli_batch(self, pairs):
        return self._call(len(pairs), self._inner.nli_batch, pairs)

    def embed_batch(self, texts):
        return self._call(len(texts), self._inner.embed_batch, texts)

    def decompose(self, sentence, prompt_context):
        return self._call(1, self._inner.decompose, sentence, prompt_context)


def build_bundle(
    stats: ServiceStats, latency: Latency, cache_dir: Path | None
) -> ProviderBundle:
    """Scripted providers behind simulated services, optionally behind a cache.

    The cache layout matches what `build_providers` makes from `cache_dir`.
    """
    nli = ServiceProvider("nli", ScriptedNliProvider(default=marker_nli_rule), stats, latency)
    embed = ServiceProvider("embed", HashEmbeddingProvider(EMBED_DIM), stats, latency)
    decompose = ServiceProvider(
        "decompose", ScriptedDecomposerProvider(default=marker_decomposer_rule), stats, latency
    )
    if cache_dir is None:
        return ProviderBundle(nli=nli, embedder=embed, decomposer=decompose)
    return ProviderBundle(
        nli=CachedNli(nli, ResponseCache(cache_dir / CACHE_FILES[0])),
        embedder=CachedEmbedding(embed, ResponseCache(cache_dir / CACHE_FILES[1])),
        decomposer=CachedDecomposer(decompose, ResponseCache(cache_dir / CACHE_FILES[2])),
    )


@dataclass(frozen=True)
class Workload:
    """What one workload runs: variant, latency, cache and pass costs.

    cache is "none", "fresh" (an empty cache directory for every pass, so
    every lookup misses and every result is written) or "warm" (a
    directory filled beforehand by an agsc run over the same corpus).

    pass_s holds the nominal wall time of one batch pass and one single
    pass over the corpus on a 2-vCPU x86 VM. It turns a phase's budget into
    a fixed number of passes, so how many passes a run makes, and with it
    the statistic a metric reports, never depends on measured speed: a
    faster program finishes sooner instead of running more passes. The
    corpus shape is gen.WORKLOAD_CORPUS[name].
    """

    name: str
    variant: str
    latency: Latency
    cache: str
    pass_s: tuple[float, float]

    def passes(self, phase: str, budget_s: float) -> int:
        nominal = self.pass_s[0 if phase == "batch" else 1]
        return max(1, int(budget_s / nominal))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compute", "agsc", ZERO_LATENCY, "none", (8.0, 11.0)),
        Workload("service", "agsc", SERVICE_LATENCY, "fresh", (15.0, 20.0)),
        Workload("cached_rerun", "luq_sentence", SERVICE_LATENCY, "warm", (1.5, 0.75)),
    )
}
