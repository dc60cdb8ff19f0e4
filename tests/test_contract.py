"""Names that code outside the package binds to.

The traced benchmark run (perfbench/tracing.py) replaces the functions
below where their callers look them up, perfbench imports names from the
package, and it reads the report and summary attributes below. A refactor
that renames one, or calls around the name it is looked up by, would leave
those metrics silently empty or the benchmark broken; these tests fail
instead.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import threading
from collections import Counter
from pathlib import Path

import agsc
import agsc.pipeline
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
from agsc.scoring import ReferenceSet

HOOK_TARGETS = (
    "agsc.pipeline:run_prompt",
    "agsc.pipeline:segment_sentences",
    "agsc.pipeline:apply_granularity",
    "agsc.pipeline:reduce_embeddings",
    "agsc.pipeline:select_k",
    "agsc.clustering:fit_gmm",
    "agsc.clustering:kmeanspp_init",
    "agsc.clustering:bic",
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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    # Loaded by path, not installed as a module: perfbench is not a package.
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_hook_targets_match_the_benchmark_hooks():
    tracing = _tracing()
    assert {target for target, *_ in tracing.HOOKS} == set(HOOK_TARGETS)
    assert len(set(HOOK_TARGETS)) == len(HOOK_TARGETS)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


_COUNT_LOCK = threading.Lock()  # decompositions are counted from pool threads


def _counting(fn, target: str, calls: Counter):
    def wrapper(*args, **kwargs):
        with _COUNT_LOCK:
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
        # Two decompose-routed sentences: their decompositions run on a pool.
        marker_sample("two-theta", ["theta", "alpha", "theta"], topic_index=2),
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
    # One call per theta sentence (1 + 2) in each of the two decomposing variants.
    assert calls["agsc.providers.decompose:ResilientDecomposer.decompose"] == 6


def test_benchmark_routing_and_scoring_counts_match_the_report(monkeypatch):
    tracing = _tracing()

    class Tracer:
        def __init__(self):
            self.counts = Counter()

        def count(self, name, n=1):
            self.counts[name] += n

    tracer = Tracer()

    def feeding(fn, after):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(tracer, args, kwargs, out)
            return out

        return wrapper

    monkeypatch.setattr(
        agsc.pipeline,
        "apply_granularity",
        feeding(agsc.pipeline.apply_granularity, tracing._after_granularity),
    )
    monkeypatch.setattr(
        ReferenceSet,
        "score_units",
        feeding(ReferenceSet.score_units, tracing._after_score_units),
    )
    sample = marker_sample("p", ["alpha", "omega", "zeta", "theta", "alpha", "theta"])
    config = dataclasses.replace(
        apply_variant(default_config(), "agsc"), timing="off", workers=1
    )
    report = run_prompt(sample, config, marker_providers())

    tally = Counter(s.decision for s in report.sentences)
    assert tally == {"keep": 3, "skip": 1, "decompose": 2}
    assert {kind: tracer.counts[f"routing.{kind}"] for kind in tally} == tally
    # The sentences, then the facts.
    assert tracer.counts["scoring.score_units_calls"] == 2
    assert tracer.counts["scoring.nli_pairs"] == report.timing.nli_pairs


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


def test_summary_attributes_read_by_the_benchmark(tmp_path):
    # perfbench/workload.py counts the failed prompts of each run_corpus pass.
    config = dataclasses.replace(
        apply_variant(default_config(), "agsc"),
        timing="off",
        workers=1,
        report_dir=str(tmp_path),
    )
    samples = [marker_sample("p", ["alpha", "theta"])]
    reports, summary = run_corpus(samples, config, marker_providers())
    assert [r.prompt_id for r in reports] == ["p"]
    assert summary.n_failed == 0


def _benchmark_imports() -> list[tuple[str, str | None]]:
    """(module, imported name or None) for each agsc import in perfbench/*.py."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "agsc":
                found += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "agsc"]
    return found


def test_names_the_benchmark_imports_resolve():
    imports = _benchmark_imports()
    assert {"agsc", "agsc.pipeline", "agsc.providers"} <= {module for module, _ in imports}
    for module, name in imports:
        owner = importlib.import_module(module)
        assert name is None or hasattr(owner, name), f"{module} has no {name}"


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
