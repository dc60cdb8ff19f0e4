"""Names that code outside the package binds to.

The traced benchmark run (perfbench/tracing.py) replaces the functions
below where their callers look them up, and perfbench reads the report
attributes below. A refactor that renames one, or calls around the name
it is looked up by, would leave those metrics silently empty; these tests
fail instead.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import Counter

import agsc
from conftest import (
    marker_decomposer_rule,
    marker_nli_rule,
    marker_providers,
    marker_sample,
)
from agsc import default_config
from agsc.evaluation import apply_variant
from agsc.pipeline import ProviderBundle, run_corpus, run_prompt
from agsc.providers import (
    CachedDecomposer,
    CachedEmbedding,
    CachedNli,
    HashEmbeddingProvider,
    ResponseCache,
    ScriptedDecomposerProvider,
    ScriptedNliProvider,
)

HOOK_TARGETS = (
    "agsc.pipeline:run_prompt",
    "agsc.pipeline:segment_sentences",
    "agsc.pipeline:apply_granularity",
    "agsc.pipeline:reduce_embeddings",
    "agsc.pipeline:select_k",
    "agsc.pipeline:aggregate_global",
    "agsc.pipeline:aggregate_literal",
    "agsc.pipeline:aggregate_uniform",
    "agsc.pipeline:all_skip_fallback",
    "agsc.pipeline:report_to_dict",
    "agsc.scoring:make_chunks",
    "agsc.scoring:ReferenceSet.score_units",
    "agsc.providers.decompose:ResilientDecomposer.decompose",
    "agsc.providers.cache:ResponseCache.__init__",
    "agsc.providers.cache:ResponseCache.get",
    "agsc.providers.cache:ResponseCache.put",
)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


def _counting(fn, target: str, calls: Counter):
    def wrapper(*args, **kwargs):
        calls[target] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_hook_targets_are_called_through_their_names(monkeypatch, tmp_path):
    calls: Counter = Counter()
    for target in HOOK_TARGETS:
        owner, attr = _resolve(target)
        monkeypatch.setattr(owner, attr, _counting(getattr(owner, attr), target, calls))

    cache = tmp_path / "cache"
    providers = ProviderBundle(
        nli=CachedNli(
            ScriptedNliProvider(default=marker_nli_rule), ResponseCache(cache / "nli.jsonl")
        ),
        embedder=CachedEmbedding(
            HashEmbeddingProvider(dim=32), ResponseCache(cache / "embed.jsonl")
        ),
        decomposer=CachedDecomposer(
            ScriptedDecomposerProvider(default=marker_decomposer_rule),
            ResponseCache(cache / "decompose.jsonl"),
        ),
    )
    samples = [
        marker_sample("mixed", ["alpha", "omega", "zeta", "theta", "alpha"]),
        marker_sample("all-skip", ["zeta", "zeta"], topic_index=1),
    ]
    for variant in ("agsc", "agsc_literal", "luq_sentence"):
        config = dataclasses.replace(
            apply_variant(default_config(), variant),
            timing="off",
            workers=1,
            report_dir=str(tmp_path / variant),
        )
        run_corpus(samples, config, providers)
    providers.close()

    assert [t for t in HOOK_TARGETS if calls[t] == 0] == []


def test_report_attributes_read_by_the_benchmark():
    sample = marker_sample("p", ["alpha", "omega", "zeta", "theta"])
    config = dataclasses.replace(
        apply_variant(default_config(), "agsc"), timing="off", workers=1
    )
    report = run_prompt(sample, config, marker_providers())
    assert report.prompt_id == "p"
    assert isinstance(report.u_final, float)
    assert isinstance(report.selected_k, int)
    assert [s.decision for s in report.sentences] == ["keep", "keep", "skip", "decompose"]
    assert all(isinstance(s.text, str) for s in report.sentences)
    for unit in report.units:
        assert isinstance(unit.uncertainty, float)
        assert isinstance(unit.sentence_index, int)
        assert isinstance(unit.text, str)


def test_config_methods_called_by_the_benchmark():
    # perfbench/workload.py records the worker count it ran with.
    config = dataclasses.replace(default_config(), workers=3)
    assert config.effective_workers() == 3
    assert default_config().effective_workers() >= 1


def test_package_root_exports():
    assert sorted(agsc.__all__) == [
        "SampleSet",
        "apply_variant",
        "default_config",
        "load_dataset",
    ]
    for name in agsc.__all__:
        assert getattr(agsc, name) is not None
