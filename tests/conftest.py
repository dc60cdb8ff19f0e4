"""Shared fixtures: scripted provider worlds and synthetic corpora.

The marker world drives the scripted NLI mock by substrings of the unit
text (the hypothesis under the default pair direction):

    alpha  -> strongly entailed        (keep, uncertainty ~ 0)
    omega  -> strongly contradicted    (keep, uncertainty ~ 1)
    zeta   -> neutral, zero gap        (skip)
    theta  -> neutral, gap > 0.1       (decompose into alpha + omega facts)
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from typing import Sequence

import pytest

from agsc import SampleSet, default_config
from agsc.corpus import segment_sentences
from agsc.evaluation import apply_variant
from agsc.pipeline import ProviderBundle
from agsc.providers import (
    HashEmbeddingProvider,
    NliLogits,
    ScriptedDecomposerProvider,
    ScriptedNliProvider,
)

ENTAIL_LOGITS = (8.0, -8.0, -8.0)
CONTRA_LOGITS = (-8.0, 8.0, -8.0)
NEUTRAL_LOGITS = (-2.0, -2.0, 4.0)
AMBIG_LOGITS = (1.2, -1.2, 3.0)  # neutral-dominant, gap ~ 0.127 > 0.1


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
        return [
            sentence.replace("theta", "alpha"),
            sentence.replace("theta", "omega"),
        ]
    return [sentence]


class CountingNli:
    """Wraps an NLI provider, counting pairs that reach it."""

    def __init__(self, inner):
        self.inner = inner
        self.pairs_seen = 0
        self.calls = 0

    def nli_batch(self, pairs):
        self.calls += 1
        self.pairs_seen += len(pairs)
        return self.inner.nli_batch(pairs)


class CountingEmbedder:
    def __init__(self, inner):
        self.inner = inner
        self.texts_seen = 0

    def embed_batch(self, texts):
        self.texts_seen += len(texts)
        return self.inner.embed_batch(texts)


class CountingDecomposer:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def decompose(self, sentence, prompt_context):
        self.calls += 1
        return self.inner.decompose(sentence, prompt_context)


class Overlap:
    """Counts the threads inside a block at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self._now = 0
        self.peak = 0

    @contextmanager
    def inside(self):
        with self._lock:
            self._now += 1
            self.peak = max(self.peak, self._now)
        try:
            yield
        finally:
            with self._lock:
                self._now -= 1


def marker_providers(embed_dim: int = 32) -> ProviderBundle:
    return ProviderBundle(
        nli=ScriptedNliProvider(default=marker_nli_rule),
        embedder=HashEmbeddingProvider(dim=embed_dim),
        decomposer=ScriptedDecomposerProvider(default=marker_decomposer_rule),
    )


# Distinct filler vocabularies keep the hashed embeddings spread out.
_TOPICS = (
    "river", "harbor", "meadow", "castle", "garden", "market",
    "bridge", "forest", "island", "temple",
)


def marker_sentence(kind: str, topic_index: int, j: int) -> str:
    topic = _TOPICS[topic_index % len(_TOPICS)]
    return f"The {topic} detail {j} is {kind} here."


def marker_sample(
    prompt_id: str,
    kinds: Sequence[str],
    topic_index: int = 0,
    n_references: int = 3,
    factuality: float | None = None,
) -> SampleSet:
    """Anchor built from marker kinds; references are plain entail text."""
    anchor = " ".join(
        marker_sentence(kind, topic_index, j) for j, kind in enumerate(kinds)
    )
    topic = _TOPICS[topic_index % len(_TOPICS)]
    references = tuple(
        f"The {topic} report {r} covers it. Everything about the {topic} matches."
        for r in range(n_references)
    )
    return SampleSet(
        prompt_id=prompt_id,
        prompt=f"Tell me about the {topic}.",
        responses=(anchor,) + references,
        factuality=factuality,
    )


def segmented(references: Sequence[str]):
    """Each reference's Sentence records, numbered from 1 as run_prompt does."""
    return [segment_sentences(r, response_index=i + 1) for i, r in enumerate(references)]


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread running which was not there before it."""
    before = set(threading.enumerate())
    yield
    new = [t for t in threading.enumerate() if t not in before]
    for thread in new:
        thread.join(timeout=1.0)  # one on its way out may still be finishing
    running = [t.name for t in new if t.is_alive()]
    if running:
        pytest.fail(f"threads left running: {running}", pytrace=False)


@pytest.fixture
def base_config():
    return dataclasses.replace(default_config(), timing="off", workers=1)


@pytest.fixture
def agsc_config(base_config):
    return apply_variant(base_config, "agsc")


@pytest.fixture
def providers():
    return marker_providers()
