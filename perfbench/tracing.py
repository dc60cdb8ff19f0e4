"""Spans and counters recorded from outside the program.

Hooks replace public names where their callers look them up (module
globals and class attributes) and restore them on uninstall. A span
records its name, start, end, parent span and prompt id; spans live in
per-thread lists in memory and are written out once at the end. Calls too
frequent for spans (cache gets and puts) feed per-thread timers instead.

A hook whose target no longer exists, or whose bookkeeping fails on a
changed return type, is reported as missing together with the metrics
that depend on it; the traced run goes on without it.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("pipeline", "corpus", "scoring", "routing", "providers", "clustering", "aggregation")


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        self.spans: list[list] = []  # [name, start, end, parent, prompt_id, phase]
        self.stack: list[int] = []
        self.prompt = ""
        self.counts: Counter = Counter()
        self.timers: defaultdict = defaultdict(float)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.phase = ""
        self.peaks: dict[str, int] = {}

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(st)
            self._local.st = st
        return st

    def span(self, name: str, fn, *args, **kwargs):
        st = self._state()
        rec = [name, time.perf_counter(), 0.0, st.stack[-1] if st.stack else -1, st.prompt, self.phase]
        st.stack.append(len(st.spans))
        st.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            st.stack.pop()

    def timed(self, name: str, fn, *args, **kwargs):
        st = self._state()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            st.timers[(self.phase, name)] += time.perf_counter() - t0

    def count(self, name: str, n: int = 1) -> None:
        self._state().counts[name] += n

    def peak(self, name: str, value: int) -> None:
        with self._lock:
            self.peaks[name] = max(self.peaks.get(name, 0), value)

    def set_prompt(self, prompt_id: str) -> None:
        self._state().prompt = prompt_id

    def counts(self) -> Counter:
        """Counter totals over all threads; call while no worker is running."""
        total: Counter = Counter()
        for st in self._threads:
            total.update(st.counts)
        return total

    def timer_total(self, phase: str, name: str) -> float:
        return sum(st.timers.get((phase, name), 0.0) for st in self._threads)

    def span_totals(self, phase: str) -> dict[str, tuple[float, float, int]]:
        """Per span name: (total duration s, total self time s, span count)."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for st in self._threads:
            child = [0.0] * len(st.spans)
            for rec in st.spans:
                if rec[3] >= 0:
                    child[rec[3]] += rec[2] - rec[1]
            for i, rec in enumerate(st.spans):
                if rec[5] != phase:
                    continue
                agg = out[rec[0]]
                agg[0] += rec[2] - rec[1]
                agg[1] += rec[2] - rec[1] - child[i]
                agg[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for st in self._threads:
                for i, (name, t0, t1, parent, prompt, phase) in enumerate(st.spans):
                    f.write(json.dumps({
                        "thread": st.ident, "id": i, "parent": parent, "name": name,
                        "start": t0, "end": t1, "prompt_id": prompt, "phase": phase,
                    }) + "\n")


def _read_threads() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


# Bookkeeping run after a hooked call returns: (tracer, args, kwargs, result).

def _after_segment(t, a, kw, out):
    t.count("corpus.sentences", len(out))


def _after_make_chunks(t, a, kw, out):
    t.count("scoring.make_chunks_calls")
    t.count("scoring.chunks", len(out))


def _after_score_units(t, a, kw, out):
    refset, texts = a[0], (a[1] if len(a) > 1 else kw["texts"])
    t.count("scoring.score_units_calls")
    t.count("scoring.nli_pairs", len(texts) * sum(len(c) for c in refset.chunks))


def _after_granularity(t, a, kw, out):
    for d in out.decisions:
        t.count(f"routing.{d.kind}")


def _after_resilient(t, a, kw, out):
    _, used_fallback = out
    t.count("providers.decompose.fallbacks", int(bool(used_fallback)))


def _after_reduce(t, a, kw, out):
    t.count("clustering.reduce_calls")
    t.count("clustering.points", int(a[0].shape[0]))


def _after_select_k(t, a, kw, out):
    k = out.fit.params.n_components
    t.count("clustering.select_k_calls")
    t.count("clustering.k_selected", k)
    if out.bic_trace:
        # K is scanned upward from 2 and every K up to the selected one was accepted.
        t.count("clustering.fits_accepted", k - 1)


def _after_fit_gmm(t, a, kw, out):
    t.count("clustering.fit_gmm_calls")
    t.count("clustering.em_iters", out.n_iter)


def _after_kmeanspp(t, a, kw, out):
    t.count("clustering.kmeanspp_calls")


def _after_report(t, a, kw, out):
    # The timing block is left out: its float widths vary from run to run.
    line = {k: v for k, v in out.items() if k != "timing"}
    t.count("pipeline.report_bytes", len(json.dumps(line, ensure_ascii=False).encode("utf-8")))


def _after_cache_get(t, a, kw, out):
    t.count("providers.cache.misses" if out is None else "providers.cache.hits")


def _after_cache_put(t, a, kw, out):
    t.count("providers.cache.puts")


def _after_cache_init(t, a, kw, out):
    t.count("providers.cache.opens")


# (target "module:Owner.attr", how, span or timer name, bookkeeping)
HOOKS = (
    ("agsc.pipeline:run_prompt", "prompt", "pipeline.run_prompt", None),
    ("agsc.pipeline:segment_sentences", "span", "corpus.segment", _after_segment),
    ("agsc.scoring:make_chunks", "span", "scoring.make_chunks", _after_make_chunks),
    ("agsc.scoring:ReferenceSet.score_units", "span", "scoring.score_units", _after_score_units),
    ("agsc.pipeline:apply_granularity", "span", "routing.apply_granularity", _after_granularity),
    ("agsc.providers.decompose:ResilientDecomposer.decompose", "call", "", _after_resilient),
    ("agsc.pipeline:reduce_embeddings", "span", "clustering.reduce", _after_reduce),
    ("agsc.pipeline:select_k", "span", "clustering.select_k", _after_select_k),
    ("agsc.clustering:fit_gmm", "span", "clustering.fit_gmm", _after_fit_gmm),
    ("agsc.clustering:kmeanspp_init", "span", "clustering.kmeanspp", _after_kmeanspp),
    ("agsc.clustering:bic", "span", "clustering.bic", None),
    ("agsc.pipeline:aggregate_global", "span", "aggregation.aggregate", None),
    ("agsc.pipeline:aggregate_literal", "span", "aggregation.aggregate", None),
    ("agsc.pipeline:aggregate_uniform", "span", "aggregation.aggregate", None),
    ("agsc.pipeline:all_skip_fallback", "span", "aggregation.aggregate", None),
    ("agsc.pipeline:report_to_dict", "span", "pipeline.report_to_dict", _after_report),
    ("agsc.providers.cache:ResponseCache.__init__", "timer", "providers.cache.load", _after_cache_init),
    ("agsc.providers.cache:ResponseCache.get", "timer", "providers.cache.get", _after_cache_get),
    ("agsc.providers.cache:ResponseCache.put", "timer", "providers.cache.put", _after_cache_put),
)


class Hooks:
    """Installs HOOKS around the program's public names; uninstall restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: set[str] = set()
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for target, how, name, after in HOOKS:
            if target in self.missing:
                continue
            owner, attr = _resolve(target)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.add(target)
                continue
            setattr(owner, attr, self._wrap(target, how, name, after, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, target, how, name, after, fn):
        tracer = self.tracer
        missing = self.missing

        def wrapper(*args, **kwargs):
            if how == "span":
                out = tracer.span(name, fn, *args, **kwargs)
            elif how == "timer":
                out = tracer.timed(name, fn, *args, **kwargs)
            elif how == "prompt":
                tracer.set_prompt(args[0].prompt_id)
                if tracer.phase == "batch":
                    tracer.peak("proc.threads", _read_threads())
                try:
                    out = tracer.span(name, fn, *args, **kwargs)
                finally:
                    tracer.set_prompt("")
            else:
                out = fn(*args, **kwargs)
            if after is not None and target not in missing:
                try:
                    after(tracer, args, kwargs, out)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    missing.add(target)
            return out

        return wrapper


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, ""
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, ""
    return owner, attr


class TracedProvider:
    """Provider-bundle facade: one span and call/item counts per call."""

    def __init__(self, tracer: Tracer, name: str, inner):
        self._tracer = tracer
        self._name = f"providers.{name}"
        self._inner = inner

    def _call(self, items: int, fn, *args):
        self._tracer.count(f"{self._name}.calls")
        self._tracer.count(f"{self._name}.items", items)
        return self._tracer.span(self._name, fn, *args)

    def nli_batch(self, pairs):
        return self._call(len(pairs), self._inner.nli_batch, pairs)

    def embed_batch(self, texts):
        return self._call(len(texts), self._inner.embed_batch, texts)

    def decompose(self, sentence, prompt_context):
        return self._call(1, self._inner.decompose, sentence, prompt_context)
