"""Routing truth table, ablation modes, and granularity application."""

from __future__ import annotations

import math
import random
import threading

import pytest

from conftest import (
    AMBIG_LOGITS,
    CountingDecomposer,
    CountingNli,
    Overlap,
    marker_decomposer_rule,
    marker_nli_rule,
    segmented,
)
from agsc.corpus import segment_sentences
from agsc.providers import (
    FixedLatencyDecomposer,
    ProviderError,
    ResilientDecomposer,
    ScriptedDecomposerProvider,
    ScriptedNliProvider,
)
from agsc.providers.decompose import split_facts_rule_based
from agsc.routing import (
    DECOMPOSE,
    KEEP,
    SKIP,
    GranularityConfig,
    apply_granularity,
    dominant_label,
    route,
    route_sentences,
)
from agsc.scoring import NliDistribution, ReferenceSet, ScoringConfig


def sig(p_entail: float, p_contradict: float, p_neutral: float) -> tuple[str, float]:
    """route's inputs for a distribution: its dominant label and its gap."""
    d = NliDistribution(p_entail, p_contradict, p_neutral)
    return dominant_label(d), abs(d.p_entail - d.p_contradict)


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
        assert route(*sig(*dist), CFG) == (expected, None)

    def test_boundary_is_exact(self):
        dominant, gap = sig(0.225, 0.125, 0.65)
        assert gap == CFG.tau
        assert route(dominant, gap, CFG) == (SKIP, None)

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
            dominant, gap = sig(p[0], p[1], z)
            decision = route(dominant, gap, CFG)
            if dominant != "neutral":
                assert decision == (KEEP, None)
            elif decision == (DECOMPOSE, None):
                assert gap > CFG.tau

    def test_renormalization_round_trip(self):
        rng = random.Random(13)
        for _ in range(200):
            raw = [rng.random() + 1e-9 for _ in range(3)]
            total = sum(raw)
            p = (raw[0] / total, raw[1] / total, raw[2] / total)
            p = (p[0], p[1], 1.0 - p[0] - p[1])
            base = route(*sig(*p), CFG)
            scaled = [x * 3.7 for x in p]
            total2 = sum(scaled)
            q = (scaled[0] / total2, scaled[1] / total2, scaled[2] / total2)
            q = (q[0], q[1], 1.0 - q[0] - q[1])
            assert route(*sig(*q), CFG) == base


class TestRouteAblation:
    def test_adaptive_is_the_default(self):
        for dist, _ in CANONICAL:
            assert route(*sig(*dist), CFG, "adaptive") == route(*sig(*dist), CFG)

    def test_off_keeps_everything(self):
        for dist, _ in CANONICAL:
            kind, fixed = route(*sig(*dist), CFG, "off")
            assert (kind, fixed) == (KEEP, None)

    def test_neutral_guess_pins_skips_at_half(self):
        kind, fixed = route(*sig(0.20, 0.15, 0.65), CFG, "neutral_guess")
        assert (kind, fixed) == (KEEP, 0.5)
        kind, fixed = route(*sig(0.40, 0.10, 0.50), CFG, "neutral_guess")
        assert (kind, fixed) == (DECOMPOSE, None)
        kind, fixed = route(*sig(0.60, 0.10, 0.30), CFG, "neutral_guess")
        assert (kind, fixed) == (KEEP, None)

    def test_neutral_weight_keeps_everything(self):
        for dist, _ in CANONICAL:
            assert route(*sig(*dist), CFG, "neutral_weight") == (KEEP, None)

    def test_all_atomic_always_decomposes(self):
        for dist, _ in CANONICAL:
            assert route(*sig(*dist), CFG, "all_atomic") == (DECOMPOSE, None)


def _world(anchor_kinds, n_refs=2):
    """Anchor sentences by marker kind plus a scripted provider world."""
    anchor = " ".join(
        f"The valley detail {j} is {kind} here." for j, kind in enumerate(anchor_kinds)
    )
    refs = [f"The valley report {r} covers it." for r in range(n_refs)]
    sentences = segment_sentences(anchor, response_index=0)
    nli = ScriptedNliProvider(default=marker_nli_rule)
    refset = ReferenceSet(segmented(refs), ScoringConfig(), nli)
    decomposer = ResilientDecomposer(
        ScriptedDecomposerProvider(default=marker_decomposer_rule)
    )
    return sentences, refset, decomposer


def granularity(sentences, refset, decomposer, config, mode="adaptive"):
    """One prompt's routing: route_sentences, then apply_granularity."""
    return apply_granularity(
        route_sentences(sentences, refset, decomposer, config, mode), refset
    )


def scored(result):
    """(unit, uncertainty) for each unit surviving granularity, in order."""
    return [pair for d in result.decisions for pair in zip(d.units, d.unit_uncertainties)]


def decomposer_calls(result) -> int:
    return sum(d.kind == DECOMPOSE for d in result.decisions)


class TestApplyGranularity:
    def test_all_entail_keeps_sentences_without_decomposer(self):
        sentences, refset, _ = _world(["alpha", "alpha", "alpha"])
        counting = CountingDecomposer(ScriptedDecomposerProvider())
        result = granularity(
            sentences, refset, ResilientDecomposer(counting), GranularityConfig()
        )
        assert [unit.text for unit in result.units] == [s.text for s in sentences]
        assert all(unit.role == "sentence" for unit in result.units)
        assert counting.calls == 0
        assert decomposer_calls(result) == 0

    def test_decomposed_sentence_mean_uncertainty(self):
        sentences, refset, decomposer = _world(["theta"])
        result = granularity(sentences, refset, decomposer, GranularityConfig())
        (decision,) = result.decisions
        assert decision.kind == DECOMPOSE
        # facts: one alpha (U ~ 0) and one omega (U ~ 1)
        us = [u for _, u in scored(result)]
        assert len(us) == 2
        assert abs(decision.uncertainty - sum(us) / 2) < 1e-12
        assert abs(decision.uncertainty - 0.5) < 1e-3
        assert all(unit.role == "atomic_fact" for unit in result.units)

    def test_all_skip_raises_flag(self):
        sentences, refset, decomposer = _world(["zeta", "zeta"])
        result = granularity(sentences, refset, decomposer, GranularityConfig())
        assert not result.units
        assert scored(result) == []
        assert all(d.kind == SKIP for d in result.decisions)
        assert all(d.uncertainty is None for d in result.decisions)
        assert len(result.sentence_uncertainties) == 2

    def test_skip_never_yields_units(self):
        sentences, refset, decomposer = _world(["zeta", "alpha", "zeta"])
        result = granularity(sentences, refset, decomposer, GranularityConfig())
        for d in result.decisions:
            if d.kind == SKIP:
                assert d.units == ()
        assert len(result.units) == 1

    def test_decomposer_calls_bounded_by_sentences(self):
        kinds = ["theta", "alpha", "theta", "zeta", "omega", "theta"]
        sentences, refset, decomposer = _world(kinds)
        result = granularity(sentences, refset, decomposer, GranularityConfig())
        assert decomposer_calls(result) == 3
        assert decomposer_calls(result) <= len(sentences)

    def test_mode_off_keeps_skip_fixture_with_own_uncertainty(self):
        sentences, refset, decomposer = _world(["zeta"])
        adaptive = granularity(sentences, refset, decomposer, GranularityConfig())
        off = granularity(
            sentences, refset, decomposer, GranularityConfig(), "off"
        )
        assert not adaptive.units
        ((_, kept_u),) = scored(off)
        assert abs(kept_u - adaptive.sentence_uncertainties[0]) < 1e-12

    def test_mode_neutral_guess_fixed_half(self):
        sentences, refset, decomposer = _world(["zeta", "alpha"])
        result = granularity(
            sentences, refset, decomposer, GranularityConfig(), "neutral_guess"
        )
        us = {unit.unit_id: u for unit, u in scored(result)}
        assert us["r0.s0"] == 0.5
        assert us["r0.s1"] < 0.01

    def test_mode_neutral_weight_scoring(self):
        # Flat logits everywhere: weighted entailment = 1/2.5, U = 0.6.
        anchor = "The valley is plain here."
        sentences = segment_sentences(anchor, response_index=0)
        nli = ScriptedNliProvider(default=(0.0, 0.0, 0.0))
        refset = ReferenceSet(segmented(["One reference sentence."]), ScoringConfig(), nli)
        decomposer = ResilientDecomposer(ScriptedDecomposerProvider())
        result = granularity(
            sentences, refset, decomposer, GranularityConfig(), "neutral_weight"
        )
        ((_, kept_u),) = scored(result)
        assert abs(kept_u - 0.6) < 1e-12

    def test_mode_all_atomic_decomposes_everything(self):
        kinds = ["alpha", "omega", "zeta"]
        sentences, refset, decomposer = _world(kinds)
        result = granularity(
            sentences, refset, decomposer, GranularityConfig(), "all_atomic"
        )
        assert decomposer_calls(result) == 3
        assert all(unit.role == "atomic_fact" for unit in result.units)

    def test_fallback_recorded(self):
        class Failing:
            def decompose(self, sentence, prompt_context):
                raise ProviderError("down", attempts=2)

        sentences, refset, _ = _world(["theta"])
        result = granularity(
            sentences, refset, ResilientDecomposer(Failing()), GranularityConfig()
        )
        assert any(d.used_fallback for d in result.decisions)
        assert result.decisions[0].used_fallback

    def test_unit_ids_are_stable_and_unique(self):
        kinds = ["alpha", "theta", "omega"]
        sentences, refset, decomposer = _world(kinds)
        result = granularity(sentences, refset, decomposer, GranularityConfig())
        ids = [unit.unit_id for unit in result.units]
        assert len(ids) == len(set(ids))
        assert ids[0] == "r0.s0"
        assert ids[1].startswith("r0.s1.f")


class TestDecompositionRound:
    """A prompt's decompose-routed sentences go out together, then one NLI batch."""

    KINDS = ["theta", "alpha", "theta", "zeta", "theta"]

    @staticmethod
    def _recording(overlap, latency_ms=20.0):
        slow = FixedLatencyDecomposer(
            ScriptedDecomposerProvider(default=marker_decomposer_rule), latency_ms
        )

        class Recording:
            def decompose(self, sentence, prompt_context):
                with overlap.inside():
                    return slow.decompose(sentence, prompt_context)

        return Recording()

    def test_calls_overlap_up_to_max_in_flight(self):
        sentences, refset, _ = _world(self.KINDS)
        overlap = Overlap()
        decomposer = ResilientDecomposer(self._recording(overlap), max_in_flight=2)
        result = granularity(sentences, refset, decomposer, GranularityConfig())
        assert decomposer_calls(result) == 3
        assert overlap.peak == 2

    def test_round_matches_one_call_at_a_time(self):
        sentences, refset, _ = _world(self.KINDS)
        config = GranularityConfig()
        primary = ScriptedDecomposerProvider(default=marker_decomposer_rule)
        serial = granularity(
            sentences, refset, ResilientDecomposer(primary, max_in_flight=1), config
        )
        together = granularity(
            sentences, refset, ResilientDecomposer(primary, max_in_flight=4), config
        )
        assert together == serial
        assert [d.kind for d in together.decisions] == [
            DECOMPOSE, KEEP, DECOMPOSE, SKIP, DECOMPOSE
        ]

    def test_a_failing_sentence_falls_back_alone(self):
        class FailsOnSecond:
            inner = ScriptedDecomposerProvider(default=marker_decomposer_rule)

            def decompose(self, sentence, prompt_context):
                if "detail 2 " in sentence:
                    raise ProviderError("down", attempts=3)
                return self.inner.decompose(sentence, prompt_context)

        sentences, refset, _ = _world(self.KINDS)
        decomposer = ResilientDecomposer(FailsOnSecond(), max_in_flight=4)
        result = granularity(sentences, refset, decomposer, GranularityConfig())
        decomposed = [d for d in result.decisions if d.kind == DECOMPOSE]
        assert [d.used_fallback for d in decomposed] == [False, True, False]
        assert any(d.used_fallback for d in result.decisions)
        failed = decomposed[1]
        assert [u.text for u in failed.units] == split_facts_rule_based(
            failed.sentence.text
        )
        assert all(len(d.units) == 2 for d in (decomposed[0], decomposed[2]))

    def test_all_facts_reach_nli_in_one_batch(self):
        sentences, _, _ = _world(self.KINDS)
        nli = CountingNli(ScriptedNliProvider(default=marker_nli_rule))
        refs = ["The valley report 0 covers it.", "The valley report 1 covers it."]
        refset = ReferenceSet(segmented(refs), ScoringConfig(), nli)
        decomposer = ResilientDecomposer(
            ScriptedDecomposerProvider(default=marker_decomposer_rule), max_in_flight=4
        )
        result = granularity(sentences, refset, decomposer, GranularityConfig())
        facts = [unit for unit in result.units if unit.role == "atomic_fact"]
        assert len(facts) == 6
        assert nli.calls == 2  # the sentences, then every fact
        assert nli.pairs_seen == (len(sentences) + len(facts)) * len(refs)

    def test_no_pool_thread_outlives_the_round(self):
        sentences, refset, _ = _world(self.KINDS)
        decomposer = ResilientDecomposer(self._recording(Overlap(), 5.0), max_in_flight=4)
        before = threading.active_count()
        granularity(sentences, refset, decomposer, GranularityConfig())
        assert threading.active_count() == before
