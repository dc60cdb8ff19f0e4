"""Chunking, binary entailment, support, and distribution scoring."""

from __future__ import annotations

import math
import random

import pytest

from agsc.providers import NliLogits, ScriptedNliProvider
from agsc.scoring import (
    ReferenceSet,
    ScoringConfig,
    binary_entail,
    make_chunks,
    mean_distribution,
    routing_distribution,
    three_class_softmax,
    weighted_neutral_entail,
)


def score_one(text: str, references: list[str], config: ScoringConfig, nli):
    """Scores of one unit against `references`, through ReferenceSet."""
    (scores,) = ReferenceSet(references, config, nli).score_units([text])
    return scores


def chunk_logits(text: str, reference: str, config: ScoringConfig, nli) -> list[NliLogits]:
    """Logits of one unit against each chunk of `reference` (chunk as premise)."""
    return nli.nli_batch([(c.text, text) for c in make_chunks(reference, config)])


def logits_for_binary(score: float) -> tuple[float, float, float]:
    """Logits whose binary-normalized entailment is exactly `score`."""
    if score >= 1.0:
        return (1000.0, -1000.0, 0.0)
    if score <= 0.0:
        return (-1000.0, 1000.0, 0.0)
    return (math.log(score), math.log(1.0 - score), 0.0)


class TestBinaryEntail:
    def test_neutral_ignored(self):
        for c in (-50.0, 0.0, 10.0, 999.0):
            assert binary_entail(NliLogits(0.0, 0.0, c)) == 0.5

    def test_logistic_value(self):
        # Independent oracle: the logistic function at the logit difference.
        got = binary_entail(NliLogits(2.0, 0.0, 0.0))
        assert abs(got - 1.0 / (1.0 + math.exp(-2.0))) < 1e-12
        assert abs(got - 0.8808) < 5e-5

    def test_no_overflow_at_extreme_logits(self):
        assert binary_entail(NliLogits(1000.0, 0.0, 0.0)) == 1.0
        assert binary_entail(NliLogits(-1000.0, 0.0, 0.0)) == 0.0
        assert binary_entail(NliLogits(1000.0, -1000.0, 1000.0)) == 1.0

    def test_complement_identity(self):
        rng = random.Random(7)
        for _ in range(500):
            le, lc, ln = (rng.uniform(-30, 30) for _ in range(3))
            s = binary_entail(NliLogits(le, lc, ln))
            t = binary_entail(NliLogits(lc, le, ln))
            assert abs(s + t - 1.0) < 1e-12

    def test_monotonicity(self):
        rng = random.Random(11)
        for _ in range(200):
            le, lc, ln = (rng.uniform(-10, 10) for _ in range(3))
            base = binary_entail(NliLogits(le, lc, ln))
            assert binary_entail(NliLogits(le + 0.5, lc, ln)) > base
            assert binary_entail(NliLogits(le, lc + 0.5, ln)) < base
            assert binary_entail(NliLogits(le, lc, ln - 3.0)) == base


class TestWeightedNeutral:
    def test_flat_logits(self):
        assert abs(weighted_neutral_entail(NliLogits(0.0, 0.0, 0.0)) - 0.4) < 1e-12

    def test_reduces_to_binary_when_neutral_tiny(self):
        got = weighted_neutral_entail(NliLogits(2.0, 1.0, -1000.0))
        assert abs(got - binary_entail(NliLogits(2.0, 1.0, 0.0))) < 1e-12


class TestSoftmax:
    def test_symmetric(self):
        d = three_class_softmax(NliLogits(1.0, 1.0, 1.0))
        assert abs(d.p_entail - 1 / 3) < 1e-12
        assert abs(d.p_contradict - 1 / 3) < 1e-12

    def test_value(self):
        d = three_class_softmax(NliLogits(2.0, 0.0, 0.0))
        z = math.exp(2.0) + 2.0
        assert abs(d.p_entail - math.exp(2.0) / z) < 1e-12
        assert abs(d.p_contradict - 1.0 / z) < 1e-12
        assert abs(d.p_entail - 0.7870) < 5e-5

    def test_sums_to_one_random(self):
        rng = random.Random(3)
        for _ in range(300):
            d = three_class_softmax(
                NliLogits(*(rng.uniform(-200, 200) for _ in range(3)))
            )
            assert abs(sum(d.as_tuple()) - 1.0) < 1e-9
            assert all(0.0 <= p <= 1.0 for p in d.as_tuple())

    def test_invalid_distribution_rejected(self):
        from agsc.scoring import NliDistribution

        with pytest.raises(ValueError):
            NliDistribution(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            NliDistribution(1.2, -0.2, 0.0)


def _sent(i: int, length: int) -> str:
    body = f"Sentence number {i} "
    return (body + "a" * (length - len(body) - 1) + ".")[:length]


class TestMakeChunks:
    def test_short_reference_single_chunk(self):
        text = "A first short fact. A second short fact. A third one."
        chunks = make_chunks(text, ScoringConfig())
        assert len(chunks) == 1
        assert chunks[0].text == text
        assert chunks[0].sentence_span == (0, 3)

    def test_five_sentences_of_300_chars(self):
        sents = [_sent(i, 300) for i in range(5)]
        assert all(len(s) == 300 for s in sents)
        text = " ".join(sents)
        chunks = make_chunks(
            text, ScoringConfig(chunk_budget_chars=1000, chunk_stride_chars=500)
        )
        assert [c.sentence_span for c in chunks] == [(0, 3), (2, 5)]
        assert chunks[0].text == " ".join(sents[0:3])
        assert chunks[1].text == " ".join(sents[2:5])

    def test_empty_reference(self):
        assert make_chunks("", ScoringConfig()) == []
        assert make_chunks("   \n ", ScoringConfig()) == []

    def test_overlong_sentence_is_own_chunk(self):
        long_sent = _sent(0, 1500)
        text = long_sent + " " + _sent(1, 100)
        chunks = make_chunks(
            text, ScoringConfig(chunk_budget_chars=1000, chunk_stride_chars=500)
        )
        assert chunks[0].text == long_sent
        assert chunks[-1].sentence_span[1] == 2

    def test_coverage_and_final_window(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 12)
            sents = [_sent(i, rng.randint(40, 400)) for i in range(n)]
            text = " ".join(sents)
            cfg = ScoringConfig(chunk_budget_chars=600, chunk_stride_chars=300)
            chunks = make_chunks(text, cfg)
            assert chunks[0].sentence_span[0] == 0
            assert chunks[-1].sentence_span[1] == n
            for a, b in zip(chunks, chunks[1:]):
                assert b.sentence_span[0] <= a.sentence_span[1]  # no gaps
                assert b.sentence_span[0] > a.sentence_span[0]   # progress

    def test_stride_must_not_exceed_budget(self):
        with pytest.raises(ValueError):
            ScoringConfig(chunk_budget_chars=100, chunk_stride_chars=200)


def scripted_for_chunks(
    unit_text: str, chunk_texts: list[str], logits: list[tuple[float, float, float]]
) -> ScriptedNliProvider:
    """Script (chunk premise, unit hypothesis) pairs, one triple per chunk."""
    return ScriptedNliProvider(
        script={(c, unit_text): l for c, l in zip(chunk_texts, logits)}
    )


class TestPairEntail:
    # Three sentences short enough that budget 30 puts each in its own chunk.
    SENTS = ["First chunk fact here.", "Second chunk fact here.", "Third chunk fact."]
    CFG = ScoringConfig(chunk_budget_chars=30, chunk_stride_chars=10)

    def entail(self, ref, config, nli) -> float:
        return score_one("The claim.", [ref], config, nli).per_reference[0]

    def test_max_over_chunks(self):
        ref = " ".join(self.SENTS)
        chunks = make_chunks(ref, self.CFG)
        assert len(chunks) == 3
        nli = scripted_for_chunks(
            "The claim.",
            [c.text for c in chunks],
            [logits_for_binary(0.3), logits_for_binary(0.9), logits_for_binary(0.5)],
        )
        assert abs(self.entail(ref, self.CFG, nli) - 0.9) < 1e-12

    def test_single_chunk_identity(self):
        ref = "Only one sentence here."
        nli = ScriptedNliProvider(script={(ref, "The claim."): (1.5, -0.5, 0.2)})
        got = self.entail(ref, ScoringConfig(), nli)
        assert got == binary_entail(NliLogits(1.5, -0.5, 0.2))

    def test_specific_chunk_supports(self):
        ref = " ".join(self.SENTS)
        chunks = make_chunks(ref, self.CFG)
        nli = scripted_for_chunks(
            "The claim.",
            [c.text for c in chunks],
            [logits_for_binary(0.1), logits_for_binary(0.97), logits_for_binary(0.2)],
        )
        got = self.entail(ref, self.CFG, nli)
        assert abs(got - 0.97) < 1e-12

    def test_direction_switch(self):
        ref = "Only one sentence here."
        nli = ScriptedNliProvider(
            script={
                (ref, "The claim."): logits_for_binary(0.9),
                ("The claim.", ref): logits_for_binary(0.2),
            },
            default=(0.0, 0.0, 0.0),
        )
        fwd = self.entail(ref, ScoringConfig(nli_direction="reference_premise"), nli)
        rev = self.entail(ref, ScoringConfig(nli_direction="unit_premise"), nli)
        assert abs(fwd - 0.9) < 1e-12
        assert abs(rev - 0.2) < 1e-12

    def test_monotone_in_any_chunk_entail_logit(self):
        ref = " ".join(self.SENTS)
        chunks = make_chunks(ref, self.CFG)
        rng = random.Random(21)
        for _ in range(50):
            triples = [
                tuple(rng.uniform(-4, 4) for _ in range(3)) for _ in chunks
            ]
            base = self.entail(
                ref, self.CFG,
                scripted_for_chunks("The claim.", [c.text for c in chunks], triples),
            )
            j = rng.randrange(len(chunks))
            bumped = list(triples)
            le, lc, ln = bumped[j]
            bumped[j] = (le + rng.uniform(0.1, 2.0), lc, ln)
            higher = self.entail(
                ref, self.CFG,
                scripted_for_chunks("The claim.", [c.text for c in chunks], bumped),
            )
            assert higher >= base - 1e-15


class TestSupport:
    def _nli_per_reference(self, unit_text, refs, scores):
        return ScriptedNliProvider(
            script={(r, unit_text): logits_for_binary(s) for r, s in zip(refs, scores)}
        )

    def test_all_supported(self):
        refs = [f"Ref number {i} sentence." for i in range(4)]
        nli = self._nli_per_reference("Claim.", refs, [1.0, 1.0, 1.0, 1.0])
        s = score_one("Claim.", refs, ScoringConfig(), nli)
        assert s.support == 1.0
        assert s.uncertainty == 0.0

    def test_mixed_scores(self):
        refs = [f"Ref number {i} sentence." for i in range(4)]
        nli = self._nli_per_reference("Claim.", refs, [0.8, 0.6, 1.0, 0.6])
        s = score_one("Claim.", refs, ScoringConfig(), nli)
        assert abs(s.support - 0.75) < 1e-12
        assert abs(s.uncertainty - 0.25) < 1e-12
        assert len(s.per_reference) == 4

    def test_fully_contradicted(self):
        refs = ["Ref zero sentence.", "Ref one sentence."]
        nli = self._nli_per_reference("Claim.", refs, [0.0, 0.0])
        s = score_one("Claim.", refs, ScoringConfig(), nli)
        assert s.support == 0.0
        assert s.uncertainty == 1.0

    def test_permutation_invariance(self):
        refs = [f"Ref number {i} sentence." for i in range(5)]
        scores = [0.1, 0.9, 0.4, 0.7, 0.3]
        nli = self._nli_per_reference("Claim.", refs, scores)
        s1 = score_one("Claim.", refs, ScoringConfig(), nli)
        shuffled = [refs[i] for i in (3, 0, 4, 1, 2)]
        s2 = score_one("Claim.", shuffled, ScoringConfig(), nli)
        assert abs(s1.support - s2.support) < 1e-12

    def test_zero_references_rejected(self):
        with pytest.raises(ValueError):
            ReferenceSet([], ScoringConfig(), ScriptedNliProvider())


class TestReferenceDistribution:
    def test_flat_logits(self):
        ref = "Only one sentence here."
        nli = ScriptedNliProvider(script={(ref, "Claim."): (1.0, 1.0, 1.0)})
        d = score_one("Claim.", [ref], ScoringConfig(), nli).distribution
        assert abs(d.p_entail - 1 / 3) < 1e-12

    def test_most_polarized_chunk_wins(self):
        cfg = ScoringConfig(chunk_budget_chars=30, chunk_stride_chars=10)
        ref = "First chunk fact here. Second chunk fact here."
        chunks = make_chunks(ref, cfg)
        assert len(chunks) == 2
        # chunk 0 mostly neutral, chunk 1 polarized toward contradiction
        nli = scripted_for_chunks(
            "Claim.", [c.text for c in chunks], [(0.0, 0.0, 3.0), (0.0, 3.0, 0.0)]
        )
        d = routing_distribution(chunk_logits("Claim.", ref, cfg, nli), cfg.routing_chunk_agg)
        expected = three_class_softmax(NliLogits(0.0, 3.0, 0.0))
        assert d == expected

    def test_tie_prefers_earliest(self):
        cfg = ScoringConfig(chunk_budget_chars=30, chunk_stride_chars=10)
        ref = "First chunk fact here. Second chunk fact here."
        chunks = make_chunks(ref, cfg)
        nli = scripted_for_chunks(
            "Claim.", [c.text for c in chunks], [(3.0, 0.0, 0.0), (0.0, 3.0, 0.0)]
        )
        d = routing_distribution(chunk_logits("Claim.", ref, cfg, nli), cfg.routing_chunk_agg)
        assert d == three_class_softmax(NliLogits(3.0, 0.0, 0.0))

    def test_softmax_example(self):
        ref = "Only one sentence here."
        nli = ScriptedNliProvider(script={(ref, "Claim."): (2.0, 0.0, 0.0)})
        d = score_one("Claim.", [ref], ScoringConfig(), nli).distribution
        assert abs(d.p_entail - 0.7870) < 5e-5
        assert abs(d.p_contradict - 0.1065) < 5e-5

    def test_mean_aggregation_mode(self):
        cfg = ScoringConfig(
            chunk_budget_chars=30, chunk_stride_chars=10, routing_chunk_agg="mean"
        )
        ref = "First chunk fact here. Second chunk fact here."
        chunks = make_chunks(ref, cfg)
        nli = scripted_for_chunks(
            "Claim.", [c.text for c in chunks], [(1000.0, 0.0, 0.0), (0.0, 1000.0, 0.0)]
        )
        d = score_one("Claim.", [ref], cfg, nli).distribution
        assert abs(d.p_entail - 0.5) < 1e-9
        assert abs(d.p_contradict - 0.5) < 1e-9


class TestAvgDistribution:
    def test_two_references(self):
        refs = ["Ref zero sentence.", "Ref one sentence."]
        nli = ScriptedNliProvider(
            script={
                (refs[0], "Claim."): (1000.0, 0.0, 0.0),
                (refs[1], "Claim."): (0.0, 0.0, 1000.0),
            }
        )
        d = score_one("Claim.", refs, ScoringConfig(), nli).distribution
        assert abs(d.p_entail - 0.5) < 1e-9
        assert d.p_contradict < 1e-12
        assert abs(d.p_neutral - 0.5) < 1e-9

    def test_single_reference_identity(self):
        # The mean over one reference reproduces that reference's routing
        # distribution exactly for this triple (not for every triple: the
        # renormalization in mean_distribution can move the last ulp).
        ref = "Ref zero sentence."
        cfg = ScoringConfig()
        nli = ScriptedNliProvider(script={(ref, "Claim."): (0.3, -0.8, 1.1)})
        d1 = score_one("Claim.", [ref], cfg, nli).distribution
        d2 = routing_distribution(chunk_logits("Claim.", ref, cfg, nli), cfg.routing_chunk_agg)
        assert d1 == d2

    def test_four_reference_mean(self):
        refs = [f"Ref number {i} sentence." for i in range(4)]
        triples = [(2.0, 0.0, 0.0), (0.0, 1.0, 0.5), (-1.0, -1.0, 2.0), (0.2, 0.1, 0.3)]
        nli = ScriptedNliProvider(
            script={(r, "Claim."): t for r, t in zip(refs, triples)}
        )
        d = score_one("Claim.", refs, ScoringConfig(), nli).distribution
        per_ref = [three_class_softmax(NliLogits(*t)) for t in triples]
        for got, idx in zip(d.as_tuple(), range(3)):
            expected = sum(p.as_tuple()[idx] for p in per_ref) / 4.0
            assert abs(got - expected) < 1e-12
        assert abs(sum(d.as_tuple()) - 1.0) < 1e-9


class TestReferenceSet:
    def test_matches_spec_level_ops(self):
        refs = ["Ref zero sentence.", "Ref one sentence has more words."]
        texts = ["Claim one.", "Claim two."]
        nli = ScriptedNliProvider(
            default=lambda p, h: (0.3 * len(p) % 3.0, 0.1 * len(h) % 2.0, 0.5)
        )
        cfg = ScoringConfig()
        refset = ReferenceSet(refs, cfg, nli)
        batch = refset.score_units(texts)
        for text, scores in zip(texts, batch):
            # Independent reference: best chunk per reference, mean over
            # references; the most polarized chunk (earliest on ties) per
            # reference, averaged.
            per_ref, dists = [], []
            for r in refs:
                logits = chunk_logits(text, r, cfg, nli)
                per_ref.append(max(binary_entail(l) for l in logits))
                soft = [three_class_softmax(l) for l in logits]
                dists.append(max(soft, key=lambda d: d.p_entail + d.p_contradict))
            assert abs(scores.support - math.fsum(per_ref) / len(per_ref)) < 1e-12
            assert scores.per_reference == tuple(per_ref)
            assert scores.distribution == mean_distribution(dists)

    def test_empty_unit_list(self):
        refs = ["Ref zero sentence."]
        refset = ReferenceSet(refs, ScoringConfig(), ScriptedNliProvider())
        assert refset.score_units([]) == []
