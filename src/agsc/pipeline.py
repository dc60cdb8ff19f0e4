"""End-to-end orchestration: score one prompt or a whole corpus.

Stages per prompt: segment -> NLI-score sentences -> route granularity
(keep / skip / decompose) -> score surviving units -> embed -> cluster ->
aggregate. Per-stage wall time is attributed to the stage issuing the
provider call; with timing disabled all durations are zero and reports
become byte-reproducible given the same seed, config, and providers.

Corpus runs fan prompts out over a bounded worker pool (one prompt
computes at a time while the others wait on providers), write one report
line per prompt (mirroring the ingestion schema plus result fields, so
report files can be re-ingested), and collect failures without stopping.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import operator
import threading
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .aggregation import (
    MODE_LITERAL,
    ClusterSummary,
    DegenerateClusteringError,
    FinalScore,
    aggregate_global,
    aggregate_literal,
    aggregate_uniform,
    all_skip_fallback,
)
from .clustering import NumericalError, kmeans_hard, reduce_embeddings, select_k
from .config import (
    CLUSTER_KMEANS,
    CLUSTER_NONE,
    TIMING_WALL,
    PipelineConfig,
    ProviderSpec,
)
from .corpus import SampleSet, segment_sentences
from .providers import (
    CachedDecomposer,
    CachedEmbedding,
    CachedNli,
    DecomposerProvider,
    EmbeddingProvider,
    FixedLatencyDecomposer,
    HashEmbeddingProvider,
    HashNliProvider,
    HttpDecomposerProvider,
    HttpEmbeddingProvider,
    HttpNliProvider,
    NliProvider,
    ProviderError,
    ResilientDecomposer,
    ResponseCache,
    RuleBasedDecomposer,
)
from .providers.base import taking_turn, waiting_on
from .routing import apply_granularity
from .scoring import ReferenceSet

logger = logging.getLogger(__name__)


class PipelineError(Exception):
    """A prompt could not be processed for a non-provider reason."""


@dataclass(frozen=True)
class TimingBreakdown:
    """Per-stage durations (ms) and logical workload counts.

    Counts reflect requested work, not network traffic, so a warm cache
    changes wall time but never the recorded counts.
    """

    t_nli_ms: float = 0.0
    t_atom_ms: float = 0.0
    t_embed_ms: float = 0.0
    t_cluster_ms: float = 0.0
    t_total_ms: float = 0.0
    decomposer_calls: int = 0
    nli_pairs: int = 0
    embed_calls: int = 0


@dataclass(frozen=True)
class SentenceRecord:
    """Routing outcome for one anchor sentence; u_adaptive None == skipped."""

    sentence_index: int
    text: str
    dominant: str
    gap: float
    decision: str
    units: tuple[str, ...]
    u_adaptive: float | None


@dataclass(frozen=True)
class UnitRecord:
    unit_id: str
    text: str
    role: str
    sentence_index: int
    uncertainty: float
    memberships: tuple[float, ...]


@dataclass(frozen=True)
class PromptReport:
    """The result of one prompt; field order is the key order of its report line."""

    prompt_id: str
    variant: str
    final: FinalScore
    decomposer_fallback: bool
    selected_k: int
    sentences: tuple[SentenceRecord, ...]
    units: tuple[UnitRecord, ...]
    clusters: tuple[ClusterSummary, ...]
    timing: TimingBreakdown
    meta: tuple[tuple[str, object], ...] = (("generation_time_included", False),)

    @property
    def fallback_used(self) -> bool:
        return self.final.fallback_used

    @property
    def u_final(self) -> float:
        return self.final.u_final


@dataclass(frozen=True)
class PromptFailure:
    prompt_id: str
    error: str


@dataclass
class ProviderBundle:
    nli: NliProvider
    embedder: EmbeddingProvider
    decomposer: DecomposerProvider

    def close(self) -> None:
        """Release what the providers hold open, such as cache handles."""
        for provider in (self.nli, self.embedder, self.decomposer):
            close = getattr(provider, "close", None)
            if close is not None:
                close()


class _Meter:
    """Per-prompt provider facade: bills each call to its stage and counts
    the work requested.

    It offers all three provider methods, so scoring, routing and
    clustering call it in place of the bundle. Stage totals stay zero when
    timing is off; the counts are kept either way.
    """

    def __init__(self, providers: ProviderBundle, timed: bool):
        self._providers = providers
        self.timed = timed
        self.stage_ms: dict[str, float] = {}
        self.nli_pairs = 0
        self.embed_calls = 0

    @contextmanager
    def stage(self, name: str):
        if not self.timed:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = (time.perf_counter() - t0) * 1000.0
            self.stage_ms[name] = self.stage_ms.get(name, 0.0) + elapsed

    # Each call gives up the thread's turn while the provider works. The
    # stage is entered after the turn is given up and left before it is
    # taken back, so a stage time never includes waiting for another
    # prompt's computation. A cache wrapper keeps the turn for its lookups
    # and stores, so there the stage also covers them and the wait to take
    # the turn back after fetching misses.

    def nli_batch(self, pairs):
        self.nli_pairs += len(pairs)
        nli = self._providers.nli
        with waiting_on(nli), self.stage("nli"):
            return nli.nli_batch(pairs)

    def embed_batch(self, texts):
        self.embed_calls += len(texts)
        embedder = self._providers.embedder
        with waiting_on(embedder), self.stage("embed"):
            return embedder.embed_batch(texts)

    def decompose(self, sentence: str, prompt_context: str):
        decomposer = self._providers.decomposer
        with waiting_on(decomposer), self.stage("atom"):
            return decomposer.decompose(sentence, prompt_context)


def build_providers(config: PipelineConfig) -> ProviderBundle:
    """Construct providers from config, with optional persistent caching."""
    nli = _build_nli(config.nli)
    embedder = _build_embedder(config.embed)
    decomposer = _build_decomposer(config.decompose)
    if config.cache_dir:
        cache_dir = Path(config.cache_dir)
        nli = CachedNli(nli, ResponseCache(cache_dir / "nli.jsonl"))
        embedder = CachedEmbedding(embedder, ResponseCache(cache_dir / "embed.jsonl"))
        decomposer = CachedDecomposer(
            decomposer, ResponseCache(cache_dir / "decompose.jsonl")
        )
    return ProviderBundle(nli=nli, embedder=embedder, decomposer=decomposer)


def _build_nli(spec: ProviderSpec) -> NliProvider:
    if spec.kind == "http":
        return HttpNliProvider(spec.transport)
    return HashNliProvider(seed=spec.mock_seed)


def _build_embedder(spec: ProviderSpec) -> EmbeddingProvider:
    if spec.kind == "http":
        return HttpEmbeddingProvider(spec.transport)
    return HashEmbeddingProvider(dim=spec.mock_dim)


def _build_decomposer(spec: ProviderSpec) -> DecomposerProvider:
    if spec.kind == "http":
        return HttpDecomposerProvider(spec.transport)
    inner: DecomposerProvider = RuleBasedDecomposer()
    if spec.mock_latency_ms > 0:
        inner = FixedLatencyDecomposer(inner, spec.mock_latency_ms)
    return inner


def prompt_seed(seed: int, prompt_id: str) -> int:
    """Stable per-prompt seed, independent of corpus order and worker count."""
    digest = hashlib.sha256(f"{seed}\x1f{prompt_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def run_prompt(
    sample: SampleSet,
    config: PipelineConfig,
    providers: ProviderBundle,
) -> PromptReport:
    """Score one sample set end to end.

    With identical config, seed, and provider outputs the report is
    bit-identical across runs. Failures propagate as ProviderError,
    PipelineError or NumericalError; run_many turns them into failure
    records.
    """
    method = config.method
    meter = _Meter(providers, timed=config.timing == TIMING_WALL)
    t0 = time.perf_counter() if meter.timed else 0.0

    anchor_sentences = segment_sentences(sample.anchor, response_index=0)
    if not anchor_sentences:
        raise PipelineError(f"prompt {sample.prompt_id!r}: anchor has no sentences")
    ref_sentences = [
        segment_sentences(text, response_index=i + 1)
        for i, text in enumerate(sample.references)
    ]
    refset = ReferenceSet(
        sample.references, config.scoring, meter, first_reference_index=1
    )
    gran = apply_granularity(
        anchor_sentences,
        refset,
        ResilientDecomposer(meter),
        config.granularity,
        method.granularity_mode,
        prompt_context=sample.prompt,
    )

    memberships: list[tuple[float, ...]] = [() for _ in gran.units]
    summaries: list[ClusterSummary] = []
    selected_k = 0

    if gran.all_skipped:
        final = all_skip_fallback(gran.sentence_uncertainties)
    elif method.clustering_mode == CLUSTER_NONE:
        final = aggregate_uniform([su.uncertainty for su in gran.units])
    else:
        final, summaries, memberships, selected_k = _cluster_and_aggregate(
            sample, config, method, meter, gran, ref_sentences
        )

    total_ms = (time.perf_counter() - t0) * 1000.0 if meter.timed else 0.0
    timing = TimingBreakdown(
        t_nli_ms=meter.stage_ms.get("nli", 0.0),
        t_atom_ms=meter.stage_ms.get("atom", 0.0),
        t_embed_ms=meter.stage_ms.get("embed", 0.0),
        t_cluster_ms=meter.stage_ms.get("cluster", 0.0),
        t_total_ms=total_ms,
        decomposer_calls=gran.decomposer_calls,
        nli_pairs=meter.nli_pairs,
        embed_calls=meter.embed_calls,
    )
    return PromptReport(
        prompt_id=sample.prompt_id,
        variant=config.variant,
        final=final,
        sentences=tuple(_sentence_record(d) for d in gran.decisions),
        units=tuple(
            UnitRecord(
                unit_id=su.unit.unit_id,
                text=su.unit.text,
                role=su.unit.role,
                sentence_index=su.unit.origin.sentence_index,
                uncertainty=su.uncertainty,
                memberships=memberships[i],
            )
            for i, su in enumerate(gran.units)
        ),
        clusters=tuple(summaries),
        selected_k=selected_k,
        timing=timing,
        decomposer_fallback=gran.decomposer_fallback,
    )


def _cluster_and_aggregate(sample, config, method, meter, gran, ref_sentences):
    anchor_texts = [su.unit.text for su in gran.units]
    ref_texts = [s.text for sents in ref_sentences for s in sents]
    vectors = meter.embed_batch(anchor_texts + ref_texts)
    data = np.array([v.values for v in vectors], dtype=np.float64)

    seed = prompt_seed(config.seed, sample.prompt_id)
    with meter.stage("cluster"):
        reduced = reduce_embeddings(data, config.clustering.target_dim)
        selection = select_k(reduced, config.clustering, seed)
        k = selection.fit.params.n_components
        if method.clustering_mode == CLUSTER_KMEANS:
            gamma = kmeans_hard(reduced, k, seed)
        else:
            gamma = selection.fit.responsibilities

    n_anchor = len(gran.units)
    uncertainties = [su.uncertainty for su in gran.units]
    anchor_mask = [True] * n_anchor + [False] * len(ref_texts)
    if method.aggregation_mode == MODE_LITERAL:
        final, summaries = aggregate_literal(gamma[:n_anchor], uncertainties)
    else:
        try:
            final, summaries = aggregate_global(gamma, anchor_mask, uncertainties)
        except DegenerateClusteringError:
            final = all_skip_fallback(gran.sentence_uncertainties)
            summaries = []

    memberships = [tuple(float(g) for g in row) for row in gamma[:n_anchor]]
    return final, summaries, memberships, k


def _sentence_record(decision) -> SentenceRecord:
    return SentenceRecord(
        sentence_index=decision.signal.sentence.sentence_index,
        text=decision.signal.sentence.text,
        dominant=decision.signal.dominant,
        gap=decision.signal.gap,
        decision=decision.kind,
        units=tuple(unit.unit_id for unit in decision.resulting_units),
        u_adaptive=decision.adaptive_uncertainty,
    )


# -- report (de)serialization --

# Report-line keys that hold the flattened FinalScore, with its attribute names.
_FINAL_KEYS = (
    ("u_final", "u_final"),
    ("aggregation_mode", "mode"),
    ("fallback_used", "fallback_used"),
)


@functools.cache
def _fields(cls: type):
    """How to walk a report dataclass, worked out once per class.

    Returns the field names in order, a getter for all of them, the
    tuple-typed fields and the dataclass-typed fields. Each of the last two
    is a list of (name, nested dataclass or None for plain items).
    """
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in dataclasses.fields(cls))
    tuples, records = [], []
    for name in names:
        tp = hints[name]
        if typing.get_origin(tp) is tuple:
            item = typing.get_args(tp)[0]
            tuples.append((name, item if dataclasses.is_dataclass(item) else None))
        elif dataclasses.is_dataclass(tp):
            records.append((name, tp))
    return names, operator.attrgetter(*names), tuples, records


def _to_json(record) -> dict:
    """A dataclass as a dict in field order; tuples become lists."""
    names, get, tuples, records = _fields(type(record))
    out = dict(zip(names, get(record)))
    for name, sub in tuples:
        out[name] = [_to_json(v) for v in out[name]] if sub else list(out[name])
    for name, _ in records:
        out[name] = _to_json(out[name])
    return out


def _from_json(cls: type, data: dict):
    """Inverse of _to_json."""
    names, _, tuples, records = _fields(cls)
    kwargs = {name: data[name] for name in names}
    for name, sub in tuples:
        items = kwargs[name]
        kwargs[name] = tuple(_from_json(sub, v) for v in items) if sub else tuple(items)
    for name, sub in records:
        kwargs[name] = _from_json(sub, kwargs[name])
    return cls(**kwargs)


def report_to_dict(report: PromptReport, sample: SampleSet) -> dict:
    """One report line: the ingestion fields plus all result fields."""
    line: dict = {
        "prompt_id": sample.prompt_id,
        "prompt": sample.prompt,
        "responses": list(sample.responses),
    }
    if sample.factuality is not None:
        line["factuality"] = sample.factuality
    for name, value in _to_json(report).items():
        if name == "final":
            line.update((key, value[attr]) for key, attr in _FINAL_KEYS)
        elif name == "meta":
            line[name] = dict(value)
        elif name != "prompt_id":  # already written from the sample
            line[name] = value
    return line


def report_from_dict(line: dict) -> PromptReport:
    """Inverse of report_to_dict (the sample fields ride along untouched)."""
    final = {attr: line[key] for key, attr in _FINAL_KEYS}
    return _from_json(
        PromptReport, dict(line, final=final, meta=list(line["meta"].items()))
    )


# -- corpus runs --


@dataclass
class CorpusSummary:
    n_prompts: int
    n_failed: int
    failures: list[PromptFailure] = field(default_factory=list)
    scores: dict[str, float] = field(default_factory=dict)
    timing_totals: TimingBreakdown = field(default_factory=TimingBreakdown)


def run_many(
    samples: Sequence[SampleSet],
    config: PipelineConfig,
    providers: ProviderBundle,
) -> list[PromptReport | PromptFailure]:
    """Score prompts over a bounded worker pool, preserving dataset order.

    With more than one worker, the prompts share one turn: a prompt's
    thread computes only while it holds the turn and gives it up while it
    waits on a provider, so provider waits overlap and computation stays
    serial (Python threads would only contend for the interpreter lock).

    A prompt that fails with a provider, pipeline or numerical error
    becomes a PromptFailure; the other prompts still run.
    """

    def one(sample: SampleSet):
        try:
            return run_prompt(sample, config, providers)
        except (ProviderError, PipelineError, NumericalError) as e:
            logger.warning("prompt %s failed: %s", sample.prompt_id, e)
            return PromptFailure(prompt_id=sample.prompt_id, error=str(e))

    workers = min(config.effective_workers(), max(len(samples), 1))
    if workers <= 1:
        return [one(s) for s in samples]
    turn = threading.Lock()

    def one_in_turn(sample: SampleSet):
        with taking_turn(turn):
            return one(sample)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one_in_turn, samples))


def _sum_timing(reports: Sequence[PromptReport]) -> TimingBreakdown:
    return TimingBreakdown(
        **{
            name: sum(getattr(r.timing, name) for r in reports)
            for name in _fields(TimingBreakdown)[0]
        }
    )


def run_corpus(
    samples: Sequence[SampleSet],
    config: PipelineConfig,
    providers: ProviderBundle,
) -> tuple[list[PromptReport], CorpusSummary]:
    """Score a corpus and write reports.jsonl plus summary.json.

    Failed prompts are listed in the summary and omitted from the report
    file; the run keeps going. An empty corpus yields an empty summary.
    """
    report_dir = Path(config.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    results = run_many(samples, config, providers)
    reports: list[PromptReport] = []
    failures: list[PromptFailure] = []
    with open(report_dir / "reports.jsonl", "w", encoding="utf-8") as f:
        for sample, result in zip(samples, results):
            if isinstance(result, PromptFailure):
                failures.append(result)
                continue
            reports.append(result)
            f.write(json.dumps(report_to_dict(result, sample), ensure_ascii=False))
            f.write("\n")

    summary = CorpusSummary(
        n_prompts=len(samples),
        n_failed=len(failures),
        failures=failures,
        scores={r.prompt_id: r.final.u_final for r in reports},
        timing_totals=_sum_timing(reports),
    )
    summary_dict = {
        "n_prompts": summary.n_prompts,
        "n_failed": summary.n_failed,
        "failures": [_to_json(x) for x in failures],
        "scores": summary.scores,
        "timing_totals": _to_json(summary.timing_totals),
        "variant": config.variant,
    }
    (report_dir / "summary.json").write_text(
        json.dumps(summary_dict, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )
    return reports, summary
