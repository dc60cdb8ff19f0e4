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
from dataclasses import dataclass
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
    neutral-dominated sentences.

    The routing mode is not a setting: it belongs to the method variant
    (agsc.config.VARIANTS) and is an argument of route_sentences.
    """

    tau: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")


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
    dominant: str, gap: float, config: GranularityConfig, mode: str = MODE_ADAPTIVE
) -> tuple[str, float | None]:
    """Route one sentence by its dominant label and its
    entailment-contradiction gap, under the variant's granularity mode.

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
    if dominant != "neutral":
        return KEEP, None
    if gap > config.tau:
        return DECOMPOSE, None
    if mode == MODE_NEUTRAL_GUESS:
        return KEEP, NEUTRAL_GUESS_UNCERTAINTY
    return SKIP, None


@dataclass(frozen=True)
class RoutedSentence:
    """One anchor sentence routed, and decomposed if so routed.

    `dominant` and `gap` are what `route` read. `units` are what the
    sentence brings to aggregation: none when skipped, the sentence when
    kept, else one per fact; `unit_uncertainties` holds one uncertainty per
    unit. `uncertainty` is a kept sentence's; a decomposed
    sentence's is the mean over its facts. apply_granularity fills in both
    for a decomposed sentence; a skipped one has neither.
    """

    sentence: Sentence
    dominant: str
    gap: float
    kind: str
    units: tuple[TextUnit, ...] = ()
    uncertainty: float | None = None
    unit_uncertainties: tuple[float, ...] = ()
    facts: tuple[str, ...] = ()
    used_fallback: bool = False


@dataclass(frozen=True)
class Routing:
    """One prompt's routing: the anchor sentences' decisions, in order, and
    every sentence's own uncertainty (the fallback when all are skipped).

    route_sentences returns it before the decomposed sentences' facts are
    scored, apply_granularity after.
    """

    decisions: tuple[RoutedSentence, ...]
    sentence_uncertainties: tuple[float, ...]
    neutral_weight: float | None

    @property
    def units(self) -> list[TextUnit]:
        return [unit for d in self.decisions for unit in d.units]

    @property
    def facts(self) -> list[str]:
        return [fact for d in self.decisions for fact in d.facts]


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
        distribution = score.distribution()
        dominant = dominant_label(distribution)
        gap = abs(distribution.p_entail - distribution.p_contradict)
        kind, fixed_u = route(dominant, gap, config, mode)
        if kind == KEEP:
            u = score.uncertainty if fixed_u is None else fixed_u
            routed.append(RoutedSentence(
                sentence, dominant, gap, KEEP, (_sentence_unit(sentence),), u, (u,)
            ))
        else:
            routed.append(RoutedSentence(sentence, dominant, gap, kind))

    decompositions = iter(
        decomposer.decompose_all(
            [d.sentence.text for d in routed if d.kind == DECOMPOSE],
            prompt_context,
        )
    )
    decisions = []
    for d in routed:
        if d.kind == DECOMPOSE:
            facts, used_fallback = next(decompositions)
            d = dataclasses.replace(
                d,
                units=_decomposed_units(d.sentence, facts),
                facts=tuple(facts),
                used_fallback=used_fallback,
            )
        decisions.append(d)
    return Routing(
        decisions=tuple(decisions),
        sentence_uncertainties=tuple(score.uncertainty for score in scores),
        neutral_weight=neutral_weight,
    )


def apply_granularity(routing: Routing, refset: ReferenceSet) -> Routing:
    """Score all of routing's facts in one score_units call and fill in
    the decomposed sentences' uncertainties.

    A decomposed sentence's unit uncertainties are its facts', and its own
    uncertainty is their mean. Kept and skipped sentences come back as they
    went in.
    """
    fact_scores = refset.score_units(
        routing.facts, neutral_weight=routing.neutral_weight
    )
    fact_us = iter([s.uncertainty for s in fact_scores])
    decisions = []
    for d in routing.decisions:
        if d.kind == DECOMPOSE:
            unit_us = tuple(next(fact_us) for _ in d.facts)
            mean = math.fsum(unit_us) / len(unit_us)
            d = dataclasses.replace(d, uncertainty=mean, unit_uncertainties=unit_us)
        decisions.append(d)
    return dataclasses.replace(routing, decisions=tuple(decisions))


def _sentence_unit(sentence: Sentence) -> TextUnit:
    return TextUnit(
        unit_id=f"r{sentence.response_index}.s{sentence.sentence_index}",
        origin=sentence,
        role="sentence",
        text=sentence.text,
    )


def _decomposed_units(sentence: Sentence, facts: list[str]) -> tuple[TextUnit, ...]:
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
