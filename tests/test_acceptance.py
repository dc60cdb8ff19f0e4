"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one pass/fail line; run with `pytest
tests/test_acceptance.py -v -s` to see them inline. Everything here uses
the deterministic mock providers only.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from conftest import marker_providers, marker_sample
from agsc import default_config
from agsc.aggregation import aggregate_literal
from agsc.cli import main
from agsc.clustering import ClusteringConfig, select_k
from agsc.corpus import SampleSet
from agsc.evaluation import (
    apply_variant,
    pearson,
    run_variant,
    run_variant_reports,
    spearman,
)
from agsc.pipeline import ProviderBundle, run_prompt
from agsc.providers import (
    FixedLatencyDecomposer,
    HashEmbeddingProvider,
    NliLogits,
    ScriptedDecomposerProvider,
    ScriptedNliProvider,
)
from agsc.routing import GranularityConfig, dominant_label, route
from agsc.scoring import NliDistribution, binary_entail
from conftest import marker_decomposer_rule, marker_nli_rule


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({title}): PASS")


def random_simplex_rows(rng, n, k):
    raw = rng.uniform(0.0, 1.0, size=(n, k)) + 1e-12
    return raw / raw.sum(axis=1, keepdims=True)


def test_c1_telescoping_identity(base_config):
    with criterion(1, "telescoping identity"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            k = int(rng.integers(1, 6))
            gamma = random_simplex_rows(rng, n, k)
            u = rng.uniform(0.0, 1.0, size=n)
            final, _ = aggregate_literal(gamma, u)
            assert abs(final.u_final - u.mean()) <= 1e-9

        kinds = ["alpha", "zeta", "theta", "omega", "alpha"]
        samples = [
            marker_sample(f"t{i}", kinds, topic_index=i, n_references=2)
            for i in range(5)
        ]
        providers = marker_providers()
        literal = run_variant(samples, "agsc_literal", base_config, providers)
        uniform = run_variant(samples, "ablate_no_cluster", base_config, providers)
        assert len(literal) == len(uniform) == 5
        for (pa, a), (pb, b) in zip(literal, uniform):
            assert pa == pb
            assert abs(a - b) <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"


def test_c2_gmm_oracle_suite():
    with criterion(2, "GMM oracle suite"):
        t0 = time.perf_counter()
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            data = np.vstack(
                [
                    rng.normal(loc=m, scale=1.0, size=(60, 2))
                    for m in ((0.0, 0.0), (10.0, 0.0), (0.0, 10.0))
                ]
            )
            result = select_k(data, ClusteringConfig(), seed)
            fit = result.fit
            if fit.params.n_components == 3:
                hits += 1
            diffs = np.diff(fit.trace)
            assert (diffs >= -1e-8).all(), f"seed {seed}: EM likelihood decreased"
            rows = fit.responsibilities.sum(axis=1)
            assert np.abs(rows - 1.0).max() <= 1e-9
        assert hits >= 95, f"K=3 selected in only {hits}/100 seeds"
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s (budget 30s)"


def test_c3_routing_truth_table():
    with criterion(3, "routing truth table"):
        config = GranularityConfig(tau=0.1)
        fixtures = [
            (0.60, 0.10, 0.30),
            (0.20, 0.15, 0.65),
            (0.40, 0.10, 0.50),
            (0.225, 0.125, 0.65),  # gap == tau exactly in float64
        ]
        dists = [NliDistribution(*f) for f in fixtures]
        decisions = [
            route(dominant_label(d), abs(d.p_entail - d.p_contradict), config)[0]
            for d in dists
        ]
        boundary = dists[3]
        assert abs(boundary.p_entail - boundary.p_contradict) == config.tau
        assert decisions == ["keep", "skip", "decompose", "skip"]


def test_c4_binary_entail_properties():
    with criterion(4, "binary entailment properties"):
        for c in (-1000.0, -3.5, 0.0, 7.0, 1000.0):
            assert binary_entail(NliLogits(0.0, 0.0, c)) == 0.5
        rng = np.random.default_rng(7)
        # Strictness is checked where float64 can still represent it: the
        # score saturates to exactly 1.0 once the logit gap passes ~36.
        for _ in range(1000):
            le, lc = rng.uniform(-16.0, 16.0, size=2)
            ln = rng.uniform(-1000.0, 1000.0)
            lo = binary_entail(NliLogits(le, lc, ln))
            hi = binary_entail(NliLogits(le + 0.25, lc, ln))
            assert hi > lo
            assert binary_entail(NliLogits(le, lc, ln + 5.0)) == lo
        for le in (-1000.0, 1000.0):
            for lc in (-1000.0, 1000.0):
                v = binary_entail(NliLogits(le, lc, 1000.0))
                assert math.isfinite(v)
                assert 0.0 <= v <= 1.0
        assert binary_entail(NliLogits(1000.0, -1000.0, 0.0)) == 1.0


def test_c5_end_to_end_synthetic_correlation(base_config):
    with criterion(5, "end-to-end synthetic correlation"):
        t0 = time.perf_counter()
        n = 50
        samples = []
        for i in range(n):
            p = i / (n - 1)
            n_bad = round(p * 8)
            kinds = ["omega"] * n_bad + ["alpha"] * (8 - n_bad)
            samples.append(
                marker_sample(
                    f"syn{i}", kinds, topic_index=i, factuality=1.0 - p
                )
            )
        scores = run_variant(samples, "agsc", base_config, marker_providers())
        u_final = [u for _, u in scores]
        factuality = [s.factuality for s in samples]
        scc = spearman(u_final, factuality)
        assert scc <= -0.8, f"spearman {scc:.3f} > -0.8"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"criterion 5 took {elapsed:.1f}s (budget 60s)"


def test_c6_efficiency_property(base_config):
    with criterion(6, "adaptive decomposition efficiency"):
        # Half the anchor sentences are irrelevance-neutral, one in eight is
        # ambiguous (decompose-routed); the decomposer costs 3 ms per call.
        kinds = ["zeta", "alpha", "zeta", "omega", "zeta", "theta", "zeta", "alpha"]
        samples = [
            marker_sample(f"eff{i}", kinds, topic_index=i, factuality=0.5)
            for i in range(10)
        ]
        neutral = sum(1 for k in kinds if k == "zeta")
        assert neutral / len(kinds) == 0.5

        def providers():
            return ProviderBundle(
                nli=ScriptedNliProvider(default=marker_nli_rule),
                embedder=HashEmbeddingProvider(dim=32),
                decomposer=FixedLatencyDecomposer(
                    ScriptedDecomposerProvider(default=marker_decomposer_rule),
                    latency_ms=3.0,
                ),
            )

        # One decomposer call in flight: luq_atomic's eight calls per prompt
        # then take eight waits against agsc's one, as the call counts say.
        # At the default four in flight they take two waits, which puts the
        # time ratio at the 0.5 bound by construction.
        decompose = dataclasses.replace(
            base_config.decompose,
            transport=dataclasses.replace(base_config.decompose.transport, max_in_flight=1),
        )
        timed = dataclasses.replace(base_config, timing="wall", decompose=decompose)
        atomic = run_variant_reports(samples, "luq_atomic", timed, providers())
        adaptive = run_variant_reports(samples, "agsc", timed, providers())

        atomic_calls = sum(r.timing.decomposer_calls for r in atomic)
        adaptive_calls = sum(r.timing.decomposer_calls for r in adaptive)
        assert atomic_calls == len(kinds) * len(samples)
        assert adaptive_calls <= 0.5 * atomic_calls, (
            f"{adaptive_calls} vs {atomic_calls} decomposer calls"
        )

        atomic_t = sum(r.timing.t_atom_ms for r in atomic) / len(atomic)
        adaptive_t = sum(r.timing.t_atom_ms for r in adaptive) / len(adaptive)
        assert adaptive_t <= 0.5 * atomic_t, (
            f"mean t_atom {adaptive_t:.1f}ms vs {atomic_t:.1f}ms"
        )


def test_c7_correlation_module():
    with criterion(7, "correlation module"):
        assert pearson([1, 2, 3], [3, 2, 1]) == -1.0
        got = spearman([1, 1, 2], [1, 2, 3])
        assert abs(got - math.sqrt(3.0) / 2.0) <= 1e-9
        rng = np.random.default_rng(11)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        base = spearman(x, y)
        for _ in range(100):
            a = rng.uniform(0.05, 4.0)
            b = rng.uniform(0.05, 4.0)
            c = rng.uniform(-10.0, 10.0)
            assert abs(spearman(a * x**3 + b * x + c, y) - base) <= 1e-12


def test_c8_cli_determinism(tmp_path):
    with criterion(8, "byte-identical score runs"):
        dataset = tmp_path / "data.jsonl"
        lines = []
        for i in range(4):
            lines.append(
                json.dumps(
                    {
                        "prompt_id": f"d{i}",
                        "prompt": f"Describe item {i}.",
                        "responses": [
                            f"Item {i} sits in a hall. It was made of oak. Nobody recalls why.",
                            f"Item {i} stands in a hall. Oak was the material.",
                            f"Item {i} is in the hall. It is oak.",
                        ],
                        "factuality": 0.5,
                    }
                )
            )
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text(
            "seed = 17\nworkers = 2\ntiming = off\nvariant = agsc\n"
            "providers.nli.kind = mock\nproviders.embed.kind = mock\n"
            "providers.decompose.kind = mock\n",
            encoding="utf-8",
        )
        dirs = [tmp_path / "run_a", tmp_path / "run_b"]
        for out in dirs:
            code = main(
                ["score", "--dataset", str(dataset), "--config", str(config), "--out", str(out)]
            )
            assert code == 0
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_c9_degenerate_inputs(base_config):
    with criterion(9, "degenerate-input suite"):
        providers = marker_providers()
        config = apply_variant(base_config, "agsc")

        # n = 2: a single reference.
        minimal = SampleSet(
            prompt_id="deg-n2",
            prompt="q",
            responses=(
                "The forest detail 0 is alpha here.",
                "The forest report 0 covers it.",
            ),
        )
        report = run_prompt(minimal, config, providers)
        assert 0.0 <= report.final.u_final <= 1.0
        # N = 2 clustering input (1 anchor unit + 1 reference sentence):
        # the trivial single cluster.
        assert report.selected_k == 1

        # Single-sentence anchor with several references.
        single = marker_sample("deg-single", ["alpha"], topic_index=4)
        report = run_prompt(single, config, providers)
        assert len(report.sentences) == 1
        assert 0.0 <= report.final.u_final <= 1.0

        # All-skip anchor: fallback flag set and the score still defined.
        skippy = marker_sample("deg-skip", ["zeta", "zeta", "zeta"], topic_index=5)
        report = run_prompt(skippy, config, providers)
        assert report.fallback_used
        assert 0.0 <= report.final.u_final <= 1.0
        assert math.isfinite(report.final.u_final)
