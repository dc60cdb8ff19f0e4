"""Adaptive granularity: keep, skip, or decompose each anchor sentence.

A sentence whose averaged NLI distribution is dominated by entailment or
contradiction is scored as-is. A neutral-dominated sentence is either
irrelevance noise (small entailment-contradiction gap: skipped) or mixed
content worth a closer look (large gap: decomposed into atomic facts that
are scored individually). Only anchor sentences are routed; reference
responses always contribute sentence-level units.
"""

from __future__ import annotations

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
    (agsc.config.VARIANTS) and is an argument of apply_granularity.
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


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of routing one anchor sentence."""

    signal: RoutingSignal
    kind: str
    resulting_units: tuple[TextUnit, ...]
    adaptive_uncertainty: float | None  # None for a skipped sentence
    used_fallback_decomposer: bool = False


@dataclass
class GranularityResult:
    """All units surviving granularity plus per-sentence bookkeeping."""

    units: list[ScoredUnit] = field(default_factory=list)
    decisions: list[RoutingDecision] = field(default_factory=list)
    sentence_uncertainties: list[float] = field(default_factory=list)
    decomposer_calls: int = 0
    decomposer_fallback: bool = False

    @property
    def all_skipped(self) -> bool:
        return not self.units


def apply_granularity(
    anchor_sentences: Sequence[Sentence],
    refset: ReferenceSet,
    decomposer: ResilientDecomposer,
    config: GranularityConfig,
    mode: str = MODE_ADAPTIVE,
    prompt_context: str = "",
) -> GranularityResult:
    """Route every anchor sentence under `mode` and score the surviving units.

    Kept sentences become single units carrying their sentence-level
    uncertainty. Decomposed sentences contribute one scored unit per
    atomic fact (or one collapsed unit if configured); their diagnostic
    adaptive uncertainty is the mean over facts. Skipped sentences
    contribute nothing. Sentence-level uncertainties are retained for all
    sentences so a fully-skipped anchor still has a defined fallback
    score.

    `mode` is the variant's granularity mode, which `route` applies;
    "neutral_weight" also folds the neutral probability into unit scoring
    at half weight.
    """
    result = GranularityResult()
    if not anchor_sentences:
        return result
    neutral_weight = NEUTRAL_WEIGHT if mode == MODE_NEUTRAL_WEIGHT else None
    texts = [s.text for s in anchor_sentences]
    scores = refset.score_units(texts, neutral_weight=neutral_weight)

    for sentence, score in zip(anchor_sentences, scores):
        signal = RoutingSignal.from_distribution(sentence, score.distribution)
        kind, fixed_u = route(signal, config, mode)
        result.sentence_uncertainties.append(score.uncertainty)

        if kind == KEEP:
            u = fixed_u if fixed_u is not None else score.uncertainty
            unit = _sentence_unit(sentence)
            result.units.append(ScoredUnit(unit, u))
            result.decisions.append(
                RoutingDecision(signal, KEEP, (unit,), u)
            )
        elif kind == SKIP:
            result.decisions.append(RoutingDecision(signal, SKIP, (), None))
        else:
            decision = _decompose_sentence(
                sentence, signal, refset, decomposer, config,
                prompt_context, neutral_weight, result,
            )
            result.decisions.append(decision)
    return result


def _sentence_unit(sentence: Sentence) -> TextUnit:
    return TextUnit(
        unit_id=f"r{sentence.response_index}.s{sentence.sentence_index}",
        origin=sentence,
        role="sentence",
        text=sentence.text,
    )


def _decompose_sentence(
    sentence: Sentence,
    signal: RoutingSignal,
    refset: ReferenceSet,
    decomposer: ResilientDecomposer,
    config: GranularityConfig,
    prompt_context: str,
    neutral_weight: float | None,
    result: GranularityResult,
) -> RoutingDecision:
    facts, used_fallback = decomposer.decompose(sentence.text, prompt_context)
    result.decomposer_calls += 1
    result.decomposer_fallback = result.decomposer_fallback or used_fallback
    fact_scores = refset.score_units(facts, neutral_weight=neutral_weight)
    fact_us = [s.uncertainty for s in fact_scores]
    u_adaptive = math.fsum(fact_us) / len(fact_us)

    units = tuple(
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
    if config.collapse_decomposed:
        collapsed = _sentence_unit(sentence)
        result.units.append(ScoredUnit(collapsed, u_adaptive))
        return RoutingDecision(
            signal, DECOMPOSE, (collapsed,), u_adaptive, used_fallback
        )
    for unit, u in zip(units, fact_us):
        result.units.append(ScoredUnit(unit, u))
    return RoutingDecision(signal, DECOMPOSE, units, u_adaptive, used_fallback)
