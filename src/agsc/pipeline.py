"""End-to-end orchestration: score one prompt or a whole corpus.

Stages per prompt: segment -> NLI-score sentences (and meanwhile, for a
variant that clusters, embed the reference sentences) -> route granularity
(keep / skip / decompose) -> decompose -> NLI-score the atomic facts, and
meanwhile embed the units and cluster them with the references ->
aggregate. Per-stage wall time is attributed to the stage issuing the
provider call, so the embed time overlaps the NLI and atom times and the
cluster time the facts' NLI time; with timing disabled all durations
are zero and reports become byte-reproducible given the same seed,
config, and providers.

Corpus runs keep up to `workers` prompts in flight (one prompt computes
at a time while the others wait on providers; see share_turn), write one
report line per prompt (mirroring the ingestion schema plus result
fields, so report files can be re-ingested), and collect failures
without stopping.
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
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

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
    ProtocolError,
    ProviderError,
    ResilientDecomposer,
    ResponseCache,
    RuleBasedDecomposer,
)
from .providers.base import share_turn, turn_waits, waiting_on
from .routing import DECOMPOSE, apply_granularity, route_sentences
from .scoring import ReferenceSet

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)


class PipelineError(Exception):
    """A prompt could not be processed for a non-provider reason."""


@dataclass(frozen=True)
class TimingBreakdown:
    """Per-stage durations (ms) and logical workload counts.

    Counts reflect requested work, not network traffic, so a warm cache
    changes wall time but never the recorded counts. A stage never
    includes its own thread's waits to take the turn; t_total_ms does. The
    stages need not add up to t_total_ms either: a prompt's facts are
    scored while its units are embedded and clustered.
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

    Scoring, clustering and routing call its nli_batch, embed_batch and
    decompose_all in place of the bundle. Stage totals stay zero when
    timing is off; the counts are kept either way.

    Two threads use the meter at once in a prompt that clusters: while
    its anchor sentences are routed, the reference sentences are
    embedded, and while its facts are scored, its units are embedded and
    clustered. Routing touches only the "nli" and "atom" stages and
    nli_pairs, and so does fact scoring; the reference call and the
    clustering branch touch only the "embed" and "cluster" stages and
    embed_calls. So neither thread of a pair updates what the other does,
    and no lock is needed.
    """

    def __init__(self, providers: ProviderBundle, config: PipelineConfig):
        self._providers = providers
        self._decomposer = ResilientDecomposer(
            providers.decomposer, config.decompose.transport.max_in_flight
        )
        self.timed = config.timing == TIMING_WALL
        self.stage_ms: dict[str, float] = {}
        self.nli_pairs = 0
        self.embed_calls = 0

    @contextmanager
    def stage(self, name: str):
        """Bill the block's wall time, less this thread's turn waits, to `name`."""
        if not self.timed:
            yield
            return
        t0, waited = time.perf_counter(), turn_waits()
        try:
            yield
        finally:
            elapsed = (time.perf_counter() - t0 - (turn_waits() - waited)) * 1000.0
            self.stage_ms[name] = self.stage_ms.get(name, 0.0) + elapsed

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

    def decompose_all(self, sentences: Sequence[str], prompt_context: str):
        """The prompt's decomposition round (ResilientDecomposer.decompose_all),
        billed once to the atom stage, its calls and their fallbacks
        included. With no sentences there is no round.
        """
        if not sentences:
            return []
        with self.stage("atom"):
            return self._decomposer.decompose_all(sentences, prompt_context)


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
    meter = _Meter(providers, config)
    t0 = time.perf_counter() if meter.timed else 0.0

    # Each response is segmented once; chunking and clustering share it.
    # Response 0 is the anchor, so references are numbered from 1.
    anchor_sentences, *ref_sentences = [
        segment_sentences(text, response_index=i)
        for i, text in enumerate(sample.responses)
    ]
    if not anchor_sentences:
        raise PipelineError(f"prompt {sample.prompt_id!r}: anchor has no sentences")
    refset = ReferenceSet(ref_sentences, config.scoring, meter)
    steps = [functools.partial(
        route_sentences,
        anchor_sentences,
        refset,
        meter,
        config.granularity,
        method.granularity_mode,
        sample.prompt,
    )]
    # Clustering embeds the reference sentences as well as the units. The
    # references are known now, so they are embedded while the anchor
    # sentences are scored, once that call waits. An error of that call is
    # held and raised where the units are embedded, so a prompt ends as it
    # would with the calls made one after the other. The units are final
    # once the decomposition round is back, so they are embedded and
    # clustered while the facts are scored, once the fact scoring waits.
    clusters = method.clustering_mode != CLUSTER_NONE
    ref_texts = [s.text for sents in ref_sentences for s in sents] if clusters else []
    if ref_texts:
        steps.append(functools.partial(_held, meter.embed_batch, ref_texts))
    routing, *early = share_turn(_call, steps, 2)
    ref_vectors = early[0] if early else []

    units = routing.units
    branches = [functools.partial(apply_granularity, routing, refset)]
    if units and clusters:
        branches.append(functools.partial(
            _embed_and_cluster, sample, config, method, meter, units,
            ref_texts, ref_vectors,
        ))
    routed, *clustered = share_turn(_call, branches, 2)

    unit_us = [u for d in routed.decisions for u in d.unit_uncertainties]
    memberships: list[tuple[float, ...]] = [() for _ in units]
    summaries: list[ClusterSummary] = []
    selected_k = 0

    if not units:
        final = all_skip_fallback(routed.sentence_uncertainties)
    elif not clustered:
        final = aggregate_uniform(unit_us)
    else:
        gamma, selected_k = clustered[0]
        final, summaries, memberships = _aggregate(
            method, unit_us, routed.sentence_uncertainties, gamma
        )

    total_ms = (time.perf_counter() - t0) * 1000.0 if meter.timed else 0.0
    timing = TimingBreakdown(
        t_nli_ms=meter.stage_ms.get("nli", 0.0),
        t_atom_ms=meter.stage_ms.get("atom", 0.0),
        t_embed_ms=meter.stage_ms.get("embed", 0.0),
        t_cluster_ms=meter.stage_ms.get("cluster", 0.0),
        t_total_ms=total_ms,
        decomposer_calls=sum(d.kind == DECOMPOSE for d in routed.decisions),
        nli_pairs=meter.nli_pairs,
        embed_calls=meter.embed_calls,
    )
    return PromptReport(
        prompt_id=sample.prompt_id,
        variant=config.variant,
        final=final,
        sentences=tuple(_sentence_record(d) for d in routed.decisions),
        units=tuple(
            UnitRecord(
                unit_id=unit.unit_id,
                text=unit.text,
                role=unit.role,
                sentence_index=unit.origin.sentence_index,
                uncertainty=u,
                memberships=unit_memberships,
            )
            for unit, u, unit_memberships in zip(units, unit_us, memberships)
        ),
        clusters=tuple(summaries),
        selected_k=selected_k,
        timing=timing,
        decomposer_fallback=any(d.used_fallback for d in routed.decisions),
    )


def _call(step):
    return step()


def _held(fn, *args):
    """fn(*args), or the Exception it raised, returned in its place."""
    try:
        return fn(*args)
    except Exception as e:
        return e


def _embed_and_cluster(sample, config, method, meter, units, ref_texts, ref_vectors):
    """Embed the prompt's units and cluster them with its reference
    sentences, whose vectors (or the error of their call) run_prompt got
    while routing.

    Returns the responsibilities (anchor units first, in order) and K.
    """
    if isinstance(ref_vectors, Exception):
        raise ref_vectors
    _check_count(ref_vectors, len(ref_texts))
    unit_vectors = meter.embed_batch([u.text for u in units])
    _check_count(unit_vectors, len(units))
    seed = prompt_seed(config.seed, sample.prompt_id)
    with meter.stage("cluster"):
        # The first clustering of a process imports numpy here and binds
        # numpy's own LAPACK dtrtrs in select_k, so this prompt's
        # t_cluster_ms carries both.
        data = _embedding_matrix([*unit_vectors, *ref_vectors])
        reduced = reduce_embeddings(data, config.clustering.target_dim)
        selection = select_k(reduced, config.clustering, seed)
        k = selection.fit.params.n_components
        if method.clustering_mode == CLUSTER_KMEANS:
            return kmeans_hard(reduced, k, seed), k
        return selection.fit.responsibilities, k


def _check_count(vectors, n_texts: int) -> None:
    """ProtocolError unless the embedder answered one vector per text."""
    if len(vectors) != n_texts:
        raise ProtocolError(
            f"embedding provider returned {len(vectors)} vectors for {n_texts} texts"
        )


def _embedding_matrix(vectors) -> np.ndarray:
    """The vectors as one (len(vectors), dim) array, or ProtocolError if
    their dimensions differ."""
    import numpy as np

    dims = {v.dim for v in vectors}
    if len(dims) > 1:
        raise ProtocolError(
            f"embedding provider returned vectors of dimensions {sorted(dims)}"
        )
    return np.array([v.values for v in vectors], dtype=np.float64)


def _aggregate(method, uncertainties, sentence_uncertainties, gamma):
    """The final score, cluster summaries and anchor memberships."""
    n_anchor = len(uncertainties)
    try:
        if method.aggregation_mode == MODE_LITERAL:
            final, summaries = aggregate_literal(gamma[:n_anchor], uncertainties)
        else:
            anchor_mask = [True] * n_anchor + [False] * (len(gamma) - n_anchor)
            final, summaries = aggregate_global(gamma, anchor_mask, uncertainties)
    except DegenerateClusteringError:
        final, summaries = all_skip_fallback(sentence_uncertainties), []

    memberships = [tuple(float(g) for g in row) for row in gamma[:n_anchor]]
    return final, summaries, memberships


def _sentence_record(decision) -> SentenceRecord:
    return SentenceRecord(
        sentence_index=decision.sentence.sentence_index,
        text=decision.sentence.text,
        dominant=decision.dominant,
        gap=decision.gap,
        decision=decision.kind,
        units=tuple(unit.unit_id for unit in decision.units),
        u_adaptive=decision.uncertainty,
    )


# -- report (de)serialization --

# The JSON types each scalar annotation accepts: an int is a valid float,
# but a bool is no number.
_SCALAR_TYPES = {float: (int, float), int: (int,), bool: (bool,), str: (str,),
                 type(None): (type(None),)}


def _scalar(tp):
    """(name, accepted JSON types) of a scalar annotation or a union of
    scalars; None for any other annotation."""
    union = typing.get_origin(tp) in (typing.Union, types.UnionType)
    members = typing.get_args(tp) if union else (tp,)  # float | None -> (float, None)
    if not all(m in _SCALAR_TYPES for m in members):
        return None
    accepted = tuple(t for m in members for t in _SCALAR_TYPES[m])
    return getattr(tp, "__name__", str(tp)), accepted


@functools.cache
def _fields(cls: type):
    """How to walk a report dataclass, worked out once per class.

    Returns the field names in order, a getter for all of them, the
    tuple- and list-typed fields, the dataclass-typed fields and the scalar
    fields. Each sequence field is (name, item dataclass or None, the
    item's _scalar or None); each dataclass field is (name, dataclass);
    each scalar field is (name, its _scalar).
    """
    hints = typing.get_type_hints(cls)
    names = tuple(f.name for f in dataclasses.fields(cls))
    sequences, records, scalars = [], [], []
    for name in names:
        tp = hints[name]
        if typing.get_origin(tp) in (tuple, list):
            item = typing.get_args(tp)[0]
            sub = item if dataclasses.is_dataclass(item) else None
            sequences.append((name, sub, None if sub else _scalar(item)))
        elif dataclasses.is_dataclass(tp):
            records.append((name, tp))
        elif (spec := _scalar(tp)) is not None:
            scalars.append((name, spec))
    return names, operator.attrgetter(*names), sequences, records, scalars


def _to_json(record) -> dict:
    """A dataclass as a dict in field order; tuples and lists become lists."""
    names, get, sequences, records, _ = _fields(type(record))
    out = dict(zip(names, get(record)))
    for name, sub, _ in sequences:
        out[name] = [_to_json(v) for v in out[name]] if sub else list(out[name])
    for name, _ in records:
        out[name] = _to_json(out[name])
    return out


def _check(what: str, spec, value) -> None:
    label, accepted = spec
    if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
        raise ValueError(f"{what} must be {label}, got {value!r}")


def _object(what: str, value) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {value!r}")
    return value


def _from_json(cls: type, data, what: str = "report line"):
    """Inverse of _to_json; a missing field or a value of the wrong JSON
    type raises ValueError naming the field. `what` names `data` itself."""
    names, _, sequences, records, scalars = _fields(cls)
    _object(what, data)
    for name in names:
        if name not in data:
            raise ValueError(f"field '{name}' is missing")
    kwargs = {name: data[name] for name in names}
    for name, spec in scalars:
        _check(f"field '{name}'", spec, kwargs[name])
    for name, sub, item in sequences:
        items = kwargs[name]
        if not isinstance(items, list):
            raise ValueError(f"field '{name}' must be an array, got {items!r}")
        if item is not None:
            for value in items:
                _check(f"items of field '{name}'", item, value)
        if sub:
            items = [_from_json(sub, v, f"items of field '{name}'") for v in items]
        kwargs[name] = tuple(items)
    for name, sub in records:
        kwargs[name] = _from_json(sub, kwargs[name], f"field '{name}'")
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
            line.update(value)
        elif name == "meta":
            line[name] = dict(value)
        elif name != "prompt_id":  # already written from the sample
            line[name] = value
    return line


def report_from_dict(line: dict) -> PromptReport:
    """Inverse of report_to_dict (the sample fields ride along untouched)."""
    # report_to_dict flattens the FinalScore fields into the line: read them there.
    fields = dict(line, final=line)
    if "meta" in line:
        fields["meta"] = list(_object("field 'meta'", line["meta"]).items())
    return _from_json(PromptReport, fields)


# -- corpus runs --


@dataclass
class CorpusSummary:
    """A corpus run's roll-up; field order is the key order of summary.json."""

    n_prompts: int
    n_failed: int
    failures: list[PromptFailure] = field(default_factory=list)
    scores: dict[str, float] = field(default_factory=dict)
    timing_totals: TimingBreakdown = field(default_factory=TimingBreakdown)
    variant: str = ""


def run_many(
    samples: Sequence[SampleSet],
    config: PipelineConfig,
    providers: ProviderBundle,
) -> list[PromptReport | PromptFailure]:
    """Score prompts with up to `workers` in flight, preserving dataset order.

    The prompts share one turn (share_turn): the caller starts one prompt
    thread, and another whenever a prompt is about to wait; each takes
    sample after sample, so a warm rerun scores on one thread. A prompt
    that fails with a provider, pipeline or numerical error becomes a
    PromptFailure; the others still run. Any other error, or an interrupt
    that reaches the caller, ends the run: no prompt starts after it, and
    once the running prompts finish, it (of the prompts' errors, the
    earliest sample's) is raised.
    """

    def one(sample: SampleSet):
        try:
            return run_prompt(sample, config, providers)
        except (ProviderError, PipelineError, NumericalError) as e:
            logger.warning("prompt %s failed: %s", sample.prompt_id, e)
            return PromptFailure(prompt_id=sample.prompt_id, error=str(e))

    return share_turn(one, samples, config.effective_workers(), turn=threading.Lock())


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
    The report file is opened before any prompt is scored, so an OSError
    for it comes before the run, not after it.
    """
    report_dir = Path(config.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    reports: list[PromptReport] = []
    failures: list[PromptFailure] = []
    # Appending and truncating after the run keeps an earlier run's
    # reports if this one dies before it has any to write.
    with open(report_dir / "reports.jsonl", "a", encoding="utf-8") as f:
        results = run_many(samples, config, providers)
        f.truncate(0)
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
        variant=config.variant,
    )
    (report_dir / "summary.json").write_text(
        json.dumps(_to_json(summary), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )
    return reports, summary
