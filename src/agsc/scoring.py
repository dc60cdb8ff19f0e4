"""Consistency scoring of anchor units against reference responses.

A unit (sentence or atomic fact) is checked against each whole reference
response. References longer than the NLI context budget are cut into
overlapping, sentence-aligned chunks; the best-supporting chunk wins. The
entailment probability is binary-normalized (the neutral class is
discarded), support is the mean over references, and the unit's
uncertainty is one minus its support.

For granularity routing, each sentence also gets a full three-class
distribution per reference (softmax of the most polarized chunk), averaged
across references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .corpus import split_sentences
from .providers import NliLogits, NliProvider

REFERENCE_PREMISE = "reference_premise"
UNIT_PREMISE = "unit_premise"

AGG_MOST_POLARIZED = "most_polarized"
AGG_MEAN = "mean"
AGG_MAX_ENTAIL = "max_entail"


@dataclass(frozen=True)
class ScoringConfig:
    """Chunking and NLI-orientation settings.

    nli_direction picks which side of the NLI pair the reference chunk
    takes: "reference_premise" asks whether the evidence supports the
    claim; "unit_premise" reverses the roles. routing_chunk_agg selects
    how per-chunk distributions collapse into one per reference when
    building routing signals.
    """

    chunk_budget_chars: int = 1000
    chunk_stride_chars: int = 500
    nli_direction: str = REFERENCE_PREMISE
    routing_chunk_agg: str = AGG_MOST_POLARIZED

    def __post_init__(self) -> None:
        if self.chunk_budget_chars < 1 or self.chunk_stride_chars < 1:
            raise ValueError("chunk budget and stride must be >= 1")
        if self.chunk_stride_chars > self.chunk_budget_chars:
            raise ValueError("chunk_stride_chars must be <= chunk_budget_chars")
        if self.nli_direction not in (REFERENCE_PREMISE, UNIT_PREMISE):
            raise ValueError(f"unknown nli_direction {self.nli_direction!r}")
        if self.routing_chunk_agg not in (AGG_MOST_POLARIZED, AGG_MEAN, AGG_MAX_ENTAIL):
            raise ValueError(f"unknown routing_chunk_agg {self.routing_chunk_agg!r}")


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


def make_chunks(
    reference: str, config: ScoringConfig, reference_index: int = 0
) -> list[Chunk]:
    """Cut one reference into greedy sentence-aligned windows.

    Each window holds as many whole sentences as fit in
    chunk_budget_chars (joined with single spaces); the start then
    advances by the smallest sentence count whose cumulative text length
    reaches chunk_stride_chars. The final window always ends at the last
    sentence. A lone sentence longer than the budget becomes its own
    chunk, unsplit. An empty reference yields no chunks.
    """
    sentences = split_sentences(reference)
    if not sentences:
        return []
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


def three_class_softmax(logits: NliLogits) -> NliDistribution:
    """Softmax over (entail, contradict, neutral), max-subtracted."""
    m = max(logits.entail, logits.contradict, logits.neutral)
    ee = math.exp(logits.entail - m)
    ec = math.exp(logits.contradict - m)
    en = math.exp(logits.neutral - m)
    z = ee + ec + en
    return NliDistribution(ee / z, ec / z, en / z)


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


def _pair(unit_text: str, chunk_text: str, direction: str) -> tuple[str, str]:
    if direction == REFERENCE_PREMISE:
        return (chunk_text, unit_text)
    return (unit_text, chunk_text)


def max_binary_entail(logits_per_chunk: Sequence[NliLogits]) -> float:
    """Best binary-normalized entailment across a reference's chunks."""
    if not logits_per_chunk:
        raise ValueError("reference has no chunks")
    return max(binary_entail(l) for l in logits_per_chunk)


def routing_distribution(
    logits_per_chunk: Sequence[NliLogits], agg: str = AGG_MOST_POLARIZED
) -> NliDistribution:
    """Collapse per-chunk three-class distributions into one per reference.

    "most_polarized" keeps the chunk with the largest entail+contradict
    mass (ties go to the earliest chunk), "max_entail" the chunk with the
    largest entail probability, "mean" averages across chunks.
    """
    if not logits_per_chunk:
        raise ValueError("reference has no chunks")
    dists = [three_class_softmax(l) for l in logits_per_chunk]
    if agg == AGG_MEAN:
        return mean_distribution(dists)
    if agg == AGG_MAX_ENTAIL:
        key = lambda d: d.p_entail
    else:
        key = lambda d: d.p_entail + d.p_contradict
    best = dists[0]
    for d in dists[1:]:
        if key(d) > key(best):
            best = d
    return best


@dataclass(frozen=True)
class UnitScores:
    """Everything scoring produces for one unit in one pass."""

    support: float
    uncertainty: float
    per_reference: tuple[float, ...]
    distribution: NliDistribution


class ReferenceSet:
    """Pre-chunked references with batched scoring of many units at once.

    All (unit, reference, chunk) NLI pairs of one call are submitted as a
    single batch in a fixed order, so results are deterministic and
    providers see maximal batches.
    """

    def __init__(
        self,
        references: Sequence[str],
        config: ScoringConfig,
        nli: NliProvider,
        first_reference_index: int = 1,
    ):
        if not references:
            raise ValueError("at least one reference is required")
        self.config = config
        self._nli = nli
        self.chunks: list[list[Chunk]] = [
            make_chunks(r, config, first_reference_index + i)
            for i, r in enumerate(references)
        ]
        for i, chunks in enumerate(self.chunks):
            if not chunks:
                raise ValueError(f"reference {i} has no sentence content")

    def score_units(
        self, texts: Sequence[str], neutral_weight: float | None = None
    ) -> list[UnitScores]:
        """Score units against every reference in one NLI batch.

        With neutral_weight set, per-reference entailment uses the
        weighted-neutral form instead of the binary normalization (the
        routing distributions are unaffected).
        """
        if not texts:
            return []
        pairs = []
        for text in texts:
            for chunks in self.chunks:
                for chunk in chunks:
                    pairs.append(_pair(text, chunk.text, self.config.nli_direction))
        logits = self._nli.nli_batch(pairs)
        if len(logits) != len(pairs):
            raise ValueError(
                f"NLI provider returned {len(logits)} results for {len(pairs)} pairs"
            )
        out = []
        pos = 0
        for _ in texts:
            per_ref_entail = []
            per_ref_dist = []
            for chunks in self.chunks:
                chunk_l = logits[pos : pos + len(chunks)]
                pos += len(chunks)
                if neutral_weight is None:
                    per_ref_entail.append(max_binary_entail(chunk_l))
                else:
                    per_ref_entail.append(
                        max(weighted_neutral_entail(l, neutral_weight) for l in chunk_l)
                    )
                per_ref_dist.append(
                    routing_distribution(chunk_l, self.config.routing_chunk_agg)
                )
            s = math.fsum(per_ref_entail) / len(per_ref_entail)
            out.append(
                UnitScores(
                    support=s,
                    uncertainty=1.0 - s,
                    per_reference=tuple(per_ref_entail),
                    distribution=mean_distribution(per_ref_dist),
                )
            )
        return out
