"""Adaptive granularity: keep, skip, or decompose each anchor sentence.

A sentence whose averaged NLI distribution is dominated by entailment or
contradiction is scored as-is. A neutral-dominated sentence is either
irrelevance noise (small entailment-contradiction gap: skipped) or mixed
content worth a closer look (large gap: decomposed into atomic facts that
are scored individually). Only anchor sentences are routed; reference
responses always contribute sentence-level units.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import Sentence, TextUnit
from .providers.decompose import ResilientDecomposer
from .scoring import NliDistribution, ReferenceSet

KEEP = "keep"
SKIP = "skip"
DECOMPOSE = "decompose"

MODE_ADAPTIVE = "adaptive"
MODE_OFF = "off"
MODE_NEUTRAL_GUESS = "neutral_guess"
MODE_NEUTRAL_WEIGHT = "neutral_weight"
MODE_ALL_ATOMIC = "all_atomic"

NEUTRAL_GUESS_UNCERTAINTY = 0.5
NEUTRAL_WEIGHT = 0.5


@dataclass(frozen=True)
class GranularityConfig:
    """Routing threshold.

    tau is the entailment-contradiction gap threshold separating
    irrelevance (skip) from uncertainty (decompose) among
    neutral-dominated sentences. With collapse_decomposed, a decomposed
    sentence enters aggregation as one unit carrying its facts' mean
    uncertainty instead of the individual facts.

    The routing mode is not a setting: it belongs to the method variant
    (agsc.config.VARIANTS) and is an argument of route_sentences.
    """

    tau: float = 0.1
    collapse_decomposed: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")


@dataclass(frozen=True)
class RoutingSignal:
    """The routing inputs for one sentence: distribution, dominant label, gap."""

    sentence: Sentence
    distribution: NliDistribution
    dominant: str
    gap: float

    @classmethod
    def from_distribution(
        cls, sentence: Sentence, distribution: NliDistribution
    ) -> "RoutingSignal":
        return cls(
            sentence=sentence,
            distribution=distribution,
            dominant=dominant_label(distribution),
            gap=abs(distribution.p_entail - distribution.p_contradict),
        )


def dominant_label(distribution: NliDistribution) -> str:
    """Argmax label; ties resolve entail > contradict > neutral."""
    best_label = "entail"
    best_p = distribution.p_entail
    for label, p in (
        ("contradict", distribution.p_contradict),
        ("neutral", distribution.p_neutral),
    ):
        if p > best_p:
            best_label, best_p = label, p
    return best_label


def route(
    signal: RoutingSignal, config: GranularityConfig, mode: str = MODE_ADAPTIVE
) -> tuple[str, float | None]:
    """Route one sentence under the variant's granularity mode.

    Returns (decision kind, fixed uncertainty or None). "off" and
    "neutral_weight" keep everything at sentence granularity; "all_atomic"
    decomposes unconditionally. Otherwise the adaptive rule applies:
    non-neutral dominant -> keep; neutral dominant with gap <= tau -> skip
    (gap exactly at the threshold skips); neutral dominant with gap > tau
    -> decompose. Under "neutral_guess" a would-be skip becomes a keep
    pinned at 0.5.
    """
    if mode in (MODE_OFF, MODE_NEUTRAL_WEIGHT):
        return KEEP, None
    if mode == MODE_ALL_ATOMIC:
        return DECOMPOSE, None
    if signal.dominant != "neutral":
        return KEEP, None
    if signal.gap > config.tau:
        return DECOMPOSE, None
    if mode == MODE_NEUTRAL_GUESS:
        return KEEP, NEUTRAL_GUESS_UNCERTAINTY
    return SKIP, None


@dataclass(frozen=True)
class ScoredUnit:
    """A text unit together with its consistency uncertainty."""

    unit: TextUnit
    uncertainty: float


@dataclass
class GranularityResult:
    """All units surviving granularity plus per-sentence bookkeeping."""

    units: list[ScoredUnit] = field(default_factory=list)
    decisions: list[RoutedSentence] = field(default_factory=list)
    sentence_uncertainties: list[float] = field(default_factory=list)
    decomposer_calls: int = 0
    decomposer_fallback: bool = False

    @property
    def all_skipped(self) -> bool:
        return not self.units


@dataclass(frozen=True)
class RoutedSentence:
    """One anchor sentence routed, and decomposed if so routed.

    `units` are what the sentence brings to aggregation: none when
    skipped, the sentence when kept or collapsed, else one per fact.
    `uncertainty` is a kept sentence's; a decomposed sentence's is the mean
    over its facts, filled in by apply_granularity; a skipped one has none.
    """

    signal: RoutingSignal
    kind: str
    units: tuple[TextUnit, ...]
    uncertainty: float | None = None
    facts: tuple[str, ...] = ()
    used_fallback: bool = False


@dataclass(frozen=True)
class Routing:
    """What route_sentences hands to apply_granularity: the final units, in
    order, before the decomposed sentences' facts are scored."""

    sentences: tuple[RoutedSentence, ...]
    sentence_uncertainties: tuple[float, ...]
    neutral_weight: float | None
    collapse_decomposed: bool

    @property
    def units(self) -> list[TextUnit]:
        return [unit for s in self.sentences for unit in s.units]

    @property
    def facts(self) -> list[str]:
        return [fact for s in self.sentences for fact in s.facts]


def route_sentences(
    anchor_sentences: Sequence[Sentence],
    refset: ReferenceSet,
    decomposer: ResilientDecomposer,
    config: GranularityConfig,
    mode: str = MODE_ADAPTIVE,
    prompt_context: str = "",
) -> Routing:
    """Score and route every anchor sentence, then decompose the
    decompose-routed ones in one round (decompose_all).

    `decomposer` is a ResilientDecomposer or anything with its
    decompose_all, such as the pipeline's per-prompt meter, which also
    bills the round. `mode` is the variant's granularity mode, which
    `route` applies; "neutral_weight" also folds the neutral probability
    into unit scoring at half weight.
    """
    neutral_weight = NEUTRAL_WEIGHT if mode == MODE_NEUTRAL_WEIGHT else None
    scores = refset.score_units(
        [s.text for s in anchor_sentences], neutral_weight=neutral_weight
    )
    routed = []
    for sentence, score in zip(anchor_sentences, scores):
        signal = RoutingSignal.from_distribution(sentence, score.distribution())
        kind, fixed_u = route(signal, config, mode)
        routed.append((signal, kind, score.uncertainty if fixed_u is None else fixed_u))

    decompositions = iter(
        decomposer.decompose_all(
            [signal.sentence.text for signal, kind, _ in routed if kind == DECOMPOSE],
            prompt_context,
        )
    )
    sentences = []
    for signal, kind, u in routed:
        if kind == KEEP:
            routed_sentence = RoutedSentence(
                signal, KEEP, (_sentence_unit(signal.sentence),), u
            )
        elif kind == SKIP:
            routed_sentence = RoutedSentence(signal, SKIP, ())
        else:
            facts, used_fallback = next(decompositions)
            routed_sentence = RoutedSentence(
                signal,
                DECOMPOSE,
                _decomposed_units(signal.sentence, facts, config),
                facts=tuple(facts),
                used_fallback=used_fallback,
            )
        sentences.append(routed_sentence)
    return Routing(
        sentences=tuple(sentences),
        sentence_uncertainties=tuple(score.uncertainty for score in scores),
        neutral_weight=neutral_weight,
        collapse_decomposed=config.collapse_decomposed,
    )


def apply_granularity(routing: Routing, refset: ReferenceSet) -> GranularityResult:
    """Score all of routing's facts in one score_units call and fill in
    every unit's uncertainty.

    Kept sentences become single units carrying their sentence-level
    uncertainty. Decomposed sentences contribute one scored unit per
    atomic fact (or one collapsed unit if configured), and their
    uncertainty becomes the mean over their facts. Skipped sentences
    contribute nothing. Sentence-level uncertainties are retained for all
    sentences so a fully-skipped anchor still has a defined fallback
    score.
    """
    fact_scores = refset.score_units(
        routing.facts, neutral_weight=routing.neutral_weight
    )
    fact_us = iter([s.uncertainty for s in fact_scores])
    result = GranularityResult(
        sentence_uncertainties=list(routing.sentence_uncertainties)
    )
    for s in routing.sentences:
        unit_us = [s.uncertainty] * len(s.units)
        if s.kind == DECOMPOSE:
            unit_us = [next(fact_us) for _ in s.facts]
            s = dataclasses.replace(s, uncertainty=math.fsum(unit_us) / len(unit_us))
            result.decomposer_calls += 1
            result.decomposer_fallback |= s.used_fallback
            if routing.collapse_decomposed:
                unit_us = [s.uncertainty]
        result.units.extend(
            ScoredUnit(unit, unit_u) for unit, unit_u in zip(s.units, unit_us)
        )
        result.decisions.append(s)
    return result


def _sentence_unit(sentence: Sentence) -> TextUnit:
    return TextUnit(
        unit_id=f"r{sentence.response_index}.s{sentence.sentence_index}",
        origin=sentence,
        role="sentence",
        text=sentence.text,
    )


def _decomposed_units(
    sentence: Sentence, facts: list[str], config: GranularityConfig
) -> tuple[TextUnit, ...]:
    if config.collapse_decomposed:
        return (_sentence_unit(sentence),)
    return tuple(
        TextUnit(
            unit_id=(
                f"r{sentence.response_index}.s{sentence.sentence_index}.f{j}"
            ),
            origin=sentence,
            role="atomic_fact",
            text=fact,
        )
        for j, fact in enumerate(facts)
    )
