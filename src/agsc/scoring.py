"""Consistency scoring of anchor units against reference responses.

A unit (sentence or atomic fact) is checked against each whole reference
response. References longer than the NLI context budget are cut into
overlapping, sentence-aligned chunks; the best-supporting chunk wins. The
entailment probability is binary-normalized (the neutral class is
discarded), support is the mean over references, and the unit's
uncertainty is one minus its support.

Only the anchor sentences are routed, and only for them is the routing
distribution computed: the three-class softmax of each reference's most
polarized chunk, averaged across references (UnitScores.distribution).
Atomic facts keep their chunk logits but never pay for it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .corpus import Sentence
from .providers import NliLogits, NliProvider, ProtocolError


@dataclass(frozen=True)
class ScoringConfig:
    """Chunking settings."""

    chunk_budget_chars: int = 1000
    chunk_stride_chars: int = 500

    def __post_init__(self) -> None:
        if self.chunk_budget_chars < 1 or self.chunk_stride_chars < 1:
            raise ValueError("chunk budget and stride must be >= 1")
        if self.chunk_stride_chars > self.chunk_budget_chars:
            raise ValueError("chunk_stride_chars must be <= chunk_budget_chars")


@dataclass(frozen=True)
class Chunk:
    """A sentence-aligned window of one reference response.

    sentence_span is a half-open [start, end) range of sentence indices
    within the reference.
    """

    reference_index: int
    chunk_index: int
    text: str
    sentence_span: tuple[int, int]


@dataclass(frozen=True)
class NliDistribution:
    """A normalized three-class NLI distribution."""

    p_entail: float
    p_contradict: float
    p_neutral: float

    def __post_init__(self) -> None:
        total = self.p_entail + self.p_contradict + self.p_neutral
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"distribution sums to {total}, not 1")
        for p in self.as_tuple():
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError(f"probability {p} outside [0, 1]")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_entail, self.p_contradict, self.p_neutral)


def make_chunks(reference: Sequence[Sentence], config: ScoringConfig) -> list[Chunk]:
    """Cut one segmented reference into greedy sentence-aligned windows.

    The chunks carry the sentences' response_index as their
    reference_index. Each window holds as many whole sentences as fit in
    chunk_budget_chars (joined with single spaces); the start then
    advances by the smallest sentence count whose cumulative text length
    reaches chunk_stride_chars. The final window always ends at the last
    sentence. A lone sentence longer than the budget becomes its own
    chunk, unsplit. A reference without sentences yields no chunks.
    """
    if not reference:
        return []
    reference_index = reference[0].response_index
    sentences = [s.text for s in reference]
    chunks: list[Chunk] = []
    start = 0
    n = len(sentences)
    while True:
        end = start + 1
        length = len(sentences[start])
        while end < n and length + 1 + len(sentences[end]) <= config.chunk_budget_chars:
            length += 1 + len(sentences[end])
            end += 1
        chunks.append(
            Chunk(
                reference_index=reference_index,
                chunk_index=len(chunks),
                text=" ".join(sentences[start:end]),
                sentence_span=(start, end),
            )
        )
        if end >= n:
            return chunks
        advance = 0
        covered = 0
        while advance < end - start and covered < config.chunk_stride_chars:
            covered += len(sentences[start + advance])
            advance += 1
        start += max(1, advance)


def binary_entail(logits: NliLogits) -> float:
    """Entailment probability with the neutral class discarded.

    exp(entail) / (exp(entail) + exp(contradict)), evaluated stably by
    subtracting the larger of the two logits first.
    """
    m = max(logits.entail, logits.contradict)
    ee = math.exp(logits.entail - m)
    ec = math.exp(logits.contradict - m)
    return ee / (ee + ec)


def weighted_neutral_entail(logits: NliLogits, neutral_weight: float = 0.5) -> float:
    """Entailment probability with the neutral mass kept at reduced weight.

    exp(entail) / (exp(entail) + exp(contradict) + w * exp(neutral)).
    """
    m = max(logits.entail, logits.contradict, logits.neutral)
    ee = math.exp(logits.entail - m)
    ec = math.exp(logits.contradict - m)
    en = math.exp(logits.neutral - m)
    return ee / (ee + ec + neutral_weight * en)


def three_class_softmax(logits: NliLogits) -> tuple[float, float, float]:
    """Softmax over (entail, contradict, neutral), max-subtracted, as
    plain floats in that order."""
    m = max(logits.entail, logits.contradict, logits.neutral)
    ee = math.exp(logits.entail - m)
    ec = math.exp(logits.contradict - m)
    en = math.exp(logits.neutral - m)
    z = ee + ec + en
    return (ee / z, ec / z, en / z)


def mean_distribution(distributions: Sequence[NliDistribution]) -> NliDistribution:
    if not distributions:
        raise ValueError("cannot average zero distributions")
    n = len(distributions)
    e = math.fsum(d.p_entail for d in distributions) / n
    c = math.fsum(d.p_contradict for d in distributions) / n
    u = math.fsum(d.p_neutral for d in distributions) / n
    # Remove the last few ulps of drift so downstream validation holds.
    z = e + c + u
    return NliDistribution(e / z, c / z, u / z)


def routing_distribution(logits_per_chunk: Sequence[NliLogits]) -> NliDistribution:
    """A reference's routing distribution: the three-class softmax of its
    most polarized chunk, the one with the largest entail+contradict mass
    (ties go to the earliest chunk)."""
    if not logits_per_chunk:
        raise ValueError("reference has no chunks")
    # max keeps the first of equal maxima.
    return NliDistribution(
        *max(map(three_class_softmax, logits_per_chunk), key=lambda p: p[0] + p[1])
    )


@dataclass(frozen=True)
class UnitScores:
    """What scoring produces for one unit in one pass.

    chunk_logits holds, per reference, the NLI logits of the unit against
    each of that reference's chunks.
    """

    uncertainty: float
    chunk_logits: tuple[Sequence[NliLogits], ...]

    def distribution(self) -> NliDistribution:
        """The routing distribution, averaged across references."""
        return mean_distribution([routing_distribution(l) for l in self.chunk_logits])


class ReferenceSet:
    """Pre-chunked references with batched scoring of many units at once.

    Each reference arrives as its Sentence records, segmented once by the
    caller. Every (unit, reference, chunk) NLI pair of one call is
    submitted, chunk as premise and unit as hypothesis, in a single batch
    in a fixed order, so results are deterministic and providers see
    maximal batches.
    """

    def __init__(
        self,
        references: Sequence[Sequence[Sentence]],
        config: ScoringConfig,
        nli: NliProvider,
    ):
        if not references:
            raise ValueError("at least one reference is required")
        self._nli = nli
        self.chunks: list[list[Chunk]] = [make_chunks(r, config) for r in references]
        for i, chunks in enumerate(self.chunks):
            if not chunks:
                raise ValueError(f"reference {i} has no sentence content")

    def score_units(
        self, texts: Sequence[str], neutral_weight: float | None = None
    ) -> list[UnitScores]:
        """Score units against every reference in one NLI batch.

        With neutral_weight set, per-reference entailment uses the
        weighted-neutral form instead of the binary normalization (the
        routing distribution is unaffected). An NLI answer with the
        wrong number of results raises ProtocolError.
        """
        if not texts:
            return []
        pairs = [
            (chunk.text, text)
            for text in texts
            for chunks in self.chunks
            for chunk in chunks
        ]
        logits = self._nli.nli_batch(pairs)
        if len(logits) != len(pairs):
            raise ProtocolError(
                f"NLI provider returned {len(logits)} results for {len(pairs)} pairs"
            )
        if neutral_weight is None:
            entail = binary_entail
        else:
            entail = functools.partial(weighted_neutral_entail, neutral_weight=neutral_weight)
        out = []
        pos = 0
        for _ in texts:
            per_ref_logits = []
            for chunks in self.chunks:
                per_ref_logits.append(logits[pos : pos + len(chunks)])
                pos += len(chunks)
            s = math.fsum(max(map(entail, l)) for l in per_ref_logits) / len(self.chunks)
            out.append(UnitScores(1.0 - s, tuple(per_ref_logits)))
        return out
