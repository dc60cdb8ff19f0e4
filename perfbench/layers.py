"""The traced run: per-layer metrics from spans and counters.

Phases, each over a fixed number of whole passes of the corpus (the
workload's pass_s over half of --seconds):
  1. batch, hooks off   -> the untraced throughput, for the tracing overhead
  2. batch, hooks on    -> contention, report serialization, thread count
  3. single, hooks on   -> per-prompt layer times and shares

Counts are per pass and must repeat exactly across passes and phases;
times are per prompt, from the single phase, where no worker contends.
"""

from __future__ import annotations

from collections import Counter

import tracing
import workload

RUN = "agsc.pipeline:run_prompt"
SEG = "agsc.pipeline:segment_sentences"
CHUNKS = "agsc.scoring:make_chunks"
SCORE = "agsc.scoring:ReferenceSet.score_units"
GRAN = "agsc.pipeline:apply_granularity"
RESIL = "agsc.providers.decompose:ResilientDecomposer.decompose"
REDUCE = "agsc.pipeline:reduce_embeddings"
SELECT = "agsc.pipeline:select_k"
FIT = "agsc.clustering:fit_gmm"
KPP = "agsc.clustering:kmeanspp_init"
BIC = "agsc.clustering:bic"
AGG = tuple(f"agsc.pipeline:{f}" for f in ("aggregate_global", "aggregate_literal", "aggregate_uniform", "all_skip_fallback"))
REPORT = "agsc.pipeline:report_to_dict"
C_INIT = "agsc.providers.cache:ResponseCache.__init__"
C_GET = "agsc.providers.cache:ResponseCache.get"
C_PUT = "agsc.providers.cache:ResponseCache.put"

# The layer that should hold the largest self time on each workload.
PREDICTED = {
    "compute": ("clustering",),
    "service": ("providers",),
    "cached_rerun": ("scoring", "providers", "pipeline"),
}

# Counts that depend on which phase ran them, not on the corpus.
_PHASE_ONLY = ("pipeline.report_bytes",)


class PassCounts:
    """Counter deltas over every traced pass."""

    def __init__(self, tracer: tracing.Tracer, stats):
        self._tracer = tracer
        self._stats = stats
        self._prev = Counter()
        self.passes: dict[str, list[dict]] = {"batch": [], "single": []}

    def begin(self) -> None:
        self._prev = self._now()

    def _now(self) -> Counter:
        c = self._tracer.counts()
        c["providers.service_calls"] = sum(self._stats.snapshot()["calls"].values())
        return c

    def mark(self) -> None:
        now = self._now()
        self.passes[self._tracer.phase].append(dict(now - self._prev))
        self._prev = now

    def problems(self) -> list[str]:
        bad = []
        for phase, passes in self.passes.items():
            for p in passes[1:]:
                if p != passes[0]:
                    diff = sorted(set(p.items()) ^ set(passes[0].items()))
                    bad.append(f"{phase} passes disagree on counts: {diff[:4]}")
                    break
        b = {k: v for k, v in self.passes["batch"][0].items() if k not in _PHASE_ONLY}
        if b != self.passes["single"][0]:
            diff = sorted(set(b.items()) ^ set(self.passes["single"][0].items()))
            bad.append(f"batch and single counts differ: {diff[:4]}")
        return bad


def traced_run(session, args, tracer, hooks, batch_log, single_log) -> dict:
    half = args.seconds / 2.0

    def traced(phase: str) -> None:
        session.wrap = lambda b: type(b)(
            nli=tracing.TracedProvider(tracer, "nli", b.nli),
            embedder=tracing.TracedProvider(tracer, "embed", b.embedder),
            decomposer=tracing.TracedProvider(tracer, "decompose", b.decomposer),
        )
        hooks.install()
        tracer.phase = phase
        counts.begin()

    def untraced() -> None:
        hooks.uninstall()
        session.wrap = None
        tracer.phase = ""

    # Untraced and traced batch passes alternate, so warm-up and machine
    # noise fall on both sides of the overhead ratio alike.
    counts = PassCounts(tracer, session.stats)
    plain = {"wall_s": 0.0, "prompts": 0, "failed": 0}
    batch = dict(plain)
    for _ in range(session.spec.passes("batch", half / 2.0)):
        _add(plain, workload.batch_phase(session, 1, batch_log))
        traced("batch")
        _add(batch, workload.batch_phase(session, 1, batch_log, counts.mark))
        untraced()
    traced("single")
    wait0 = session.stats.snapshot()["wait_s"]
    single = workload.single_phase(session, session.spec.passes("single", half), single_log, counts.mark)
    wait1 = session.stats.snapshot()["wait_s"]
    untraced()
    if args.spans is not None:
        tracer.write_spans(args.spans)

    metrics, missing = _metrics(session, tracer, hooks, counts, plain, batch, single, wait0, wait1)
    problems = counts.problems()
    extra = _shares_report(session.spec.name, metrics)
    extra["prompts"] = {"untraced_batch": plain["prompts"], "batch": batch["prompts"], "single": single["prompts"]}
    extra["missing_hooks"] = sorted(hooks.missing)
    attempted = plain["prompts"] + batch["prompts"] + single["prompts"]
    failed = plain["failed"] + batch["failed"] + single["failed"]
    return {
        "metrics": metrics,
        "missing": missing,
        "extra": extra,
        "count_problems": problems,
        "attempted": attempted,
        "failed": failed,
    }


def _add(total: dict, part: dict) -> None:
    for k in total:
        total[k] += part[k]


def _metrics(session, tracer, hooks, counts, untraced, batch, single, wait0, wait1):
    S = tracer.span_totals("single")
    B = tracer.span_totals("batch")
    n1, nb = single["prompts"], batch["prompts"]
    per_pass = dict(counts.passes["single"][0])
    per_pass.update({k: v for k, v in counts.passes["batch"][0].items() if k in _PHASE_ONLY})
    out: dict[str, dict] = {}
    missing: list[str] = []

    def c(name):
        return per_pass.get(name, 0)

    def ms(spans, name, self_time=False, n=n1):
        return spans.get(name, (0.0, 0.0, 0))[1 if self_time else 0] * 1e3 / n

    def ratio(a, b):
        return a / b if b else 0.0

    def put(name, unit, requires, value):
        req = (requires,) if isinstance(requires, str) else requires
        if any(t in hooks.missing for t in req):
            missing.append(name)
        else:
            out[name] = {"value": value() if callable(value) else value, "unit": unit}

    put("corpus.load_dataset_ms", "ms", (), session.load_dataset_ms)
    put("corpus.segment_ms", "ms/prompt", SEG, lambda: ms(S, "corpus.segment"))
    put("corpus.sentences", "count/pass", SEG, lambda: c("corpus.sentences"))
    put("scoring.make_chunks_ms", "ms/prompt", CHUNKS, lambda: ms(S, "scoring.make_chunks"))
    put("scoring.chunks", "count/pass", CHUNKS, lambda: c("scoring.chunks"))
    put("scoring.chunks_per_reference", "ratio", CHUNKS,
        lambda: ratio(c("scoring.chunks"), c("scoring.make_chunks_calls")))
    put("scoring.score_units_self_ms", "ms/prompt", SCORE, lambda: ms(S, "scoring.score_units", True))
    put("scoring.score_units_calls", "count/pass", SCORE, lambda: c("scoring.score_units_calls"))
    put("scoring.nli_pairs", "count/pass", SCORE, lambda: c("scoring.nli_pairs"))
    put("routing.apply_granularity_self_ms", "ms/prompt", GRAN,
        lambda: ms(S, "routing.apply_granularity", True))
    routed = c("routing.keep") + c("routing.skip") + c("routing.decompose")
    for kind in ("keep", "skip", "decompose"):
        put(f"routing.{kind}", "count/pass", GRAN, lambda kind=kind: c(f"routing.{kind}"))
    put("routing.skip_share", "share", GRAN, lambda: ratio(c("routing.skip"), routed))
    put("routing.decompose_share", "share", GRAN, lambda: ratio(c("routing.decompose"), routed))
    for name in ("nli", "embed", "decompose"):
        put(f"providers.{name}.calls", "count/pass", (), c(f"providers.{name}.calls"))
        put(f"providers.{name}.items", "count/pass", (), c(f"providers.{name}.items"))
        put(f"providers.{name}.wait_ms", "ms/prompt", (), (wait1[name] - wait0[name]) * 1e3 / n1)
    put("providers.decompose.fallbacks", "count/pass", RESIL, lambda: c("providers.decompose.fallbacks"))
    put("providers.inflight_peak", "count", (), session.stats.snapshot()["in_flight_peak"])
    put("providers.service_calls", "count/pass", (), c("providers.service_calls"))
    lookups = c("providers.cache.hits") + c("providers.cache.misses")
    put("providers.cache.hits", "count/pass", C_GET, lambda: c("providers.cache.hits"))
    put("providers.cache.misses", "count/pass", C_GET, lambda: c("providers.cache.misses"))
    put("providers.cache.hit_ratio", "ratio", C_GET, lambda: ratio(c("providers.cache.hits"), lookups))
    put("providers.cache.get_ms", "ms/prompt", C_GET,
        lambda: tracer.timer_total("single", "providers.cache.get") * 1e3 / n1)
    put("providers.cache.puts", "count/pass", C_PUT, lambda: c("providers.cache.puts"))
    put("providers.cache.put_ms", "ms/prompt", C_PUT,
        lambda: tracer.timer_total("single", "providers.cache.put") * 1e3 / n1)
    put("providers.cache.load_ms", "ms", C_INIT,
        lambda: tracer.timer_total("setup", "providers.cache.load") * 1e3)
    put("providers.cache.file_bytes", "B", (), session.cache_bytes)
    put("clustering.reduce_ms", "ms/prompt", REDUCE, lambda: ms(S, "clustering.reduce"))
    put("clustering.select_k_self_ms", "ms/prompt", (SELECT, FIT, BIC),
        lambda: ms(S, "clustering.select_k", True))
    put("clustering.fit_gmm_calls", "count/pass", FIT, lambda: c("clustering.fit_gmm_calls"))
    put("clustering.fit_gmm_ms", "ms/prompt", FIT, lambda: ms(S, "clustering.fit_gmm"))
    put("clustering.kmeanspp_calls", "count/pass", KPP, lambda: c("clustering.kmeanspp_calls"))
    put("clustering.em_iters", "count/pass", FIT, lambda: c("clustering.em_iters"))
    put("clustering.bic_ms", "ms/prompt", BIC, lambda: ms(S, "clustering.bic"))
    put("clustering.fit_accept_ratio", "ratio", (SELECT, FIT),
        lambda: ratio(c("clustering.fits_accepted"), c("clustering.fit_gmm_calls")))
    put("clustering.k_selected_mean", "count", SELECT,
        lambda: ratio(c("clustering.k_selected"), c("clustering.select_k_calls")))
    put("clustering.points_mean", "count", REDUCE,
        lambda: ratio(c("clustering.points"), c("clustering.reduce_calls")))
    put("aggregation.ms", "ms/prompt", AGG, lambda: ms(S, "aggregation.aggregate"))
    put("pipeline.run_prompt_ms", "ms/prompt", RUN, lambda: ms(S, "pipeline.run_prompt"))
    put("pipeline.run_prompt_self_ms", "ms/prompt", RUN, lambda: ms(S, "pipeline.run_prompt", True))
    put("pipeline.report_to_dict_ms", "ms/prompt", REPORT, lambda: ms(B, "pipeline.report_to_dict", n=nb))
    put("pipeline.report_bytes", "B/pass", REPORT, lambda: c("pipeline.report_bytes"))
    put("pipeline.contention_ratio", "ratio", RUN,
        lambda: ratio(ms(B, "pipeline.run_prompt", n=nb), ms(S, "pipeline.run_prompt")))
    put("proc.threads", "count", RUN, lambda: tracer.peaks.get("proc.threads", 0))

    total = S.get("pipeline.run_prompt", (0.0, 0.0, 0))[0]
    self_by_layer = Counter()
    for name, (_, self_s, _) in S.items():
        self_by_layer[name.split(".")[0]] += self_s
    for layer in tracing.LAYERS:
        put(f"share.{layer}", "share", RUN, lambda layer=layer: ratio(self_by_layer[layer], total))
    put("share.provider_wait", "share", RUN,
        lambda: ratio(sum(wait1[k] - wait0[k] for k in wait1), total))

    thr_untraced = untraced["prompts"] / untraced["wall_s"]
    thr_traced = batch["prompts"] / batch["wall_s"]
    put("trace.throughput_untraced", "1/s", (), thr_untraced)
    put("trace.throughput_traced", "1/s", (), thr_traced)
    put("trace.overhead_ratio", "ratio", (), thr_untraced / thr_traced)
    return out, missing


def _shares_report(workload_name: str, metrics: dict) -> dict:
    shares = {
        layer: metrics[f"share.{layer}"]["value"]
        for layer in tracing.LAYERS
        if f"share.{layer}" in metrics
    }
    report: dict = {"layer_self_shares": shares}
    if not shares:
        report["prediction"] = "unverified: layer shares are missing"
        return report
    dominant = max(shares, key=shares.get)
    ok = dominant in PREDICTED[workload_name]
    if workload_name == "service":
        wait = metrics["share.provider_wait"]["value"]
        ok = ok and all(wait > v for k, v in shares.items() if k != "providers")
    if workload_name == "cached_rerun":
        ok = ok and shares.get("clustering", 0.0) == 0.0
        ok = ok and metrics.get("providers.cache.hit_ratio", {}).get("value") == 1.0
    report["dominant_layer"] = dominant
    report["prediction"] = ("confirmed" if ok else "NOT confirmed") + f": expected {'/'.join(PREDICTED[workload_name])}"
    return report
