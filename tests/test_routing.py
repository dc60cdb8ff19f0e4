"""Routing truth table, ablation modes, and granularity application."""

from __future__ import annotations

import math
import random

import pytest

from conftest import (
    AMBIG_LOGITS,
    CountingDecomposer,
    marker_decomposer_rule,
    marker_nli_rule,
)
from agsc.corpus import Sentence, segment_sentences
from agsc.providers import (
    ProviderError,
    ResilientDecomposer,
    ScriptedDecomposerProvider,
    ScriptedNliProvider,
)
from agsc.routing import (
    DECOMPOSE,
    KEEP,
    SKIP,
    GranularityConfig,
    RoutingSignal,
    apply_granularity,
    dominant_label,
    route,
)
from agsc.scoring import NliDistribution, ReferenceSet, ScoringConfig


def sig(p_entail: float, p_contradict: float, p_neutral: float) -> RoutingSignal:
    sent = Sentence(response_index=0, sentence_index=0, text="A sentence.")
    return RoutingSignal.from_distribution(
        sent, NliDistribution(p_entail, p_contradict, p_neutral)
    )


CFG = GranularityConfig(tau=0.1)

# The four canonical routing fixtures: the three rule branches plus the
# exact gap == tau boundary (0.225 - 0.125 == 0.1 in float64).
CANONICAL = [
    ((0.60, 0.10, 0.30), KEEP),
    ((0.20, 0.15, 0.65), SKIP),
    ((0.40, 0.10, 0.50), DECOMPOSE),
    ((0.225, 0.125, 0.65), SKIP),
]


class TestRoute:
    @pytest.mark.parametrize("dist,expected", CANONICAL)
    def test_truth_table(self, dist, expected):
        assert route(sig(*dist), CFG) == (expected, None)

    def test_boundary_is_exact(self):
        s = sig(0.225, 0.125, 0.65)
        assert s.gap == CFG.tau
        assert route(s, CFG) == (SKIP, None)

    def test_dominant_tie_precedence(self):
        # entail > contradict > neutral on exact ties
        assert dominant_label(NliDistribution(0.4, 0.4, 0.2)) == "entail"
        assert dominant_label(NliDistribution(0.2, 0.4, 0.4)) == "contradict"
        assert dominant_label(NliDistribution(1 / 3, 1 / 3, 1 / 3)) == "entail"

    def test_decompose_requires_neutral_dominant(self):
        rng = random.Random(9)
        for _ in range(300):
            raw = [rng.random() for _ in range(3)]
            total = sum(raw)
            p = [x / total for x in raw]
            z = 1.0 - p[0] - p[1]
            s = sig(p[0], p[1], z)
            decision = route(s, CFG)
            if s.dominant != "neutral":
                assert decision == (KEEP, None)
            elif decision == (DECOMPOSE, None):
                assert s.gap > CFG.tau

    def test_renormalization_round_trip(self):
        rng = random.Random(13)
        for _ in range(200):
            raw = [rng.random() + 1e-9 for _ in range(3)]
            total = sum(raw)
            p = (raw[0] / total, raw[1] / total, raw[2] / total)
            p = (p[0], p[1], 1.0 - p[0] - p[1])
            base = route(sig(*p), CFG)
            scaled = [x * 3.7 for x in p]
            total2 = sum(scaled)
            q = (scaled[0] / total2, scaled[1] / total2, scaled[2] / total2)
            q = (q[0], q[1], 1.0 - q[0] - q[1])
            assert route(sig(*q), CFG) == base


class TestRouteAblation:
    def test_adaptive_is_the_default(self):
        for dist, _ in CANONICAL:
            assert route(sig(*dist), CFG, "adaptive") == route(sig(*dist), CFG)

    def test_off_keeps_everything(self):
        for dist, _ in CANONICAL:
            kind, fixed = route(sig(*dist), CFG, "off")
            assert (kind, fixed) == (KEEP, None)

    def test_neutral_guess_pins_skips_at_half(self):
        kind, fixed = route(sig(0.20, 0.15, 0.65), CFG, "neutral_guess")
        assert (kind, fixed) == (KEEP, 0.5)
        kind, fixed = route(sig(0.40, 0.10, 0.50), CFG, "neutral_guess")
        assert (kind, fixed) == (DECOMPOSE, None)
        kind, fixed = route(sig(0.60, 0.10, 0.30), CFG, "neutral_guess")
        assert (kind, fixed) == (KEEP, None)

    def test_neutral_weight_keeps_everything(self):
        for dist, _ in CANONICAL:
            assert route(sig(*dist), CFG, "neutral_weight") == (KEEP, None)

    def test_all_atomic_always_decomposes(self):
        for dist, _ in CANONICAL:
            assert route(sig(*dist), CFG, "all_atomic") == (DECOMPOSE, None)


def _world(anchor_kinds, n_refs=2):
    """Anchor sentences by marker kind plus a scripted provider world."""
    anchor = " ".join(
        f"The valley detail {j} is {kind} here." for j, kind in enumerate(anchor_kinds)
    )
    refs = [f"The valley report {r} covers it." for r in range(n_refs)]
    sentences = segment_sentences(anchor, response_index=0)
    nli = ScriptedNliProvider(default=marker_nli_rule)
    refset = ReferenceSet(refs, ScoringConfig(), nli)
    decomposer = ResilientDecomposer(
        ScriptedDecomposerProvider(default=marker_decomposer_rule)
    )
    return sentences, refset, decomposer


class TestApplyGranularity:
    def test_all_entail_keeps_sentences_without_decomposer(self):
        sentences, refset, _ = _world(["alpha", "alpha", "alpha"])
        counting = CountingDecomposer(ScriptedDecomposerProvider())
        result = apply_granularity(
            sentences, refset, ResilientDecomposer(counting), GranularityConfig()
        )
        assert [su.unit.text for su in result.units] == [s.text for s in sentences]
        assert all(su.unit.role == "sentence" for su in result.units)
        assert counting.calls == 0
        assert result.decomposer_calls == 0

    def test_decomposed_sentence_mean_uncertainty(self):
        sentences, refset, decomposer = _world(["theta"])
        result = apply_granularity(sentences, refset, decomposer, GranularityConfig())
        (decision,) = result.decisions
        assert decision.kind == DECOMPOSE
        # facts: one alpha (U ~ 0) and one omega (U ~ 1)
        us = [su.uncertainty for su in result.units]
        assert len(us) == 2
        assert abs(decision.adaptive_uncertainty - sum(us) / 2) < 1e-12
        assert abs(decision.adaptive_uncertainty - 0.5) < 1e-3
        assert all(su.unit.role == "atomic_fact" for su in result.units)

    def test_all_skip_raises_flag(self):
        sentences, refset, decomposer = _world(["zeta", "zeta"])
        result = apply_granularity(sentences, refset, decomposer, GranularityConfig())
        assert result.all_skipped
        assert result.units == []
        assert all(d.kind == SKIP for d in result.decisions)
        assert all(d.adaptive_uncertainty is None for d in result.decisions)
        assert len(result.sentence_uncertainties) == 2

    def test_skip_never_yields_units(self):
        sentences, refset, decomposer = _world(["zeta", "alpha", "zeta"])
        result = apply_granularity(sentences, refset, decomposer, GranularityConfig())
        for d in result.decisions:
            if d.kind == SKIP:
                assert d.resulting_units == ()
        assert len(result.units) == 1

    def test_decomposer_calls_bounded_by_sentences(self):
        kinds = ["theta", "alpha", "theta", "zeta", "omega", "theta"]
        sentences, refset, decomposer = _world(kinds)
        result = apply_granularity(sentences, refset, decomposer, GranularityConfig())
        assert result.decomposer_calls == 3
        assert result.decomposer_calls <= len(sentences)

    def test_mode_off_keeps_skip_fixture_with_own_uncertainty(self):
        sentences, refset, decomposer = _world(["zeta"])
        adaptive = apply_granularity(sentences, refset, decomposer, GranularityConfig())
        off = apply_granularity(
            sentences, refset, decomposer, GranularityConfig(), "off"
        )
        assert adaptive.all_skipped
        (kept,) = off.units
        assert abs(kept.uncertainty - adaptive.sentence_uncertainties[0]) < 1e-12

    def test_mode_neutral_guess_fixed_half(self):
        sentences, refset, decomposer = _world(["zeta", "alpha"])
        result = apply_granularity(
            sentences, refset, decomposer, GranularityConfig(), "neutral_guess"
        )
        us = {su.unit.unit_id: su.uncertainty for su in result.units}
        assert us["r0.s0"] == 0.5
        assert us["r0.s1"] < 0.01

    def test_mode_neutral_weight_scoring(self):
        # Flat logits everywhere: weighted entailment = 1/2.5, U = 0.6.
        anchor = "The valley is plain here."
        sentences = segment_sentences(anchor, response_index=0)
        nli = ScriptedNliProvider(default=(0.0, 0.0, 0.0))
        refset = ReferenceSet(["One reference sentence."], ScoringConfig(), nli)
        decomposer = ResilientDecomposer(ScriptedDecomposerProvider())
        result = apply_granularity(
            sentences, refset, decomposer, GranularityConfig(), "neutral_weight"
        )
        (kept,) = result.units
        assert abs(kept.uncertainty - 0.6) < 1e-12

    def test_mode_all_atomic_decomposes_everything(self):
        kinds = ["alpha", "omega", "zeta"]
        sentences, refset, decomposer = _world(kinds)
        result = apply_granularity(
            sentences, refset, decomposer, GranularityConfig(), "all_atomic"
        )
        assert result.decomposer_calls == 3
        assert all(su.unit.role == "atomic_fact" for su in result.units)

    def test_collapse_decomposed_mode(self):
        sentences, refset, decomposer = _world(["theta", "alpha"])
        result = apply_granularity(
            sentences, refset, decomposer,
            GranularityConfig(collapse_decomposed=True),
        )
        assert len(result.units) == 2
        collapsed = result.units[0]
        assert collapsed.unit.role == "sentence"
        assert abs(collapsed.uncertainty - 0.5) < 1e-3

    def test_fallback_recorded(self):
        class Failing:
            def decompose(self, sentence, prompt_context):
                raise ProviderError("down", attempts=2)

        sentences, refset, _ = _world(["theta"])
        result = apply_granularity(
            sentences, refset, ResilientDecomposer(Failing()), GranularityConfig()
        )
        assert result.decomposer_fallback
        assert result.decisions[0].used_fallback_decomposer

    def test_unit_ids_are_stable_and_unique(self):
        kinds = ["alpha", "theta", "omega"]
        sentences, refset, decomposer = _world(kinds)
        result = apply_granularity(sentences, refset, decomposer, GranularityConfig())
        ids = [su.unit.unit_id for su in result.units]
        assert len(ids) == len(set(ids))
        assert ids[0] == "r0.s0"
        assert ids[1].startswith("r0.s1.f")
