"""Span tracing installed from outside the package.

`Tracer.install()` replaces the module-level names that `report`,
`scoring` and `genclient` call (plus two cache methods and the
`RenderedPrompt.prompt_hash` property) with wrappers that record one span
per call: (id, parent, name, start, end). Spans stay in memory until the
caller writes them out. `uninstall()` puts the original objects back, so
untraced calls run the unmodified code.

A span name is `<layer>.<operation>`; the layer is a package module.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

from toolstream import genclient, report, scoring, transform


def _count_examples(args, kwargs, blocks):
    examples = [ex for block in blocks for ex in block.examples]
    return {"examples": len(examples), "context_turns": sum(len(ex.context) for ex in examples)}


# (module or class, attribute, span name, info function). An info function
# sees (args, kwargs, result) after the traced call has finished and
# returns counts for that span.
TARGETS: tuple[tuple[object, str, str, Callable | None], ...] = (
    (report, "load_corpus", "corpus.load", lambda a, k, r: {"episodes": len(r)}),
    (report, "partition_blocks", "corpus.partition", _count_examples),
    (report, "render_prompt", "transform.render",
     lambda a, k, r: {f"chars.{r.condition.value}": len(r.text)}),
    (report, "export_rendered_jsonl", "transform.export", None),
    (report, "context_stats", "transform.context_stats", None),
    (report, "import_completions", "genclient.import", lambda a, k, r: {"records": len(r)}),
    (report, "batch_generate", "genclient.batch", lambda a, k, r: {"failures": len(r.failures)}),
    (report, "score_completions", "scoring.score",
     lambda a, k, r: {"records": len(r), "texts": [c.text for c in a[0]]}),
    (report, "write_scores_jsonl", "scoring.write", None),
    (report, "block_scores_by_stage", "scoring.aggregate", None),
    (report, "write_matrix_csv", "clmetrics.write", None),
    (report, "matrix_from_rows", "clmetrics.summarize", None),
    (report, "summarize", "clmetrics.summarize", None),
    (report, "emit_heatmap_data", "report.heatmap", None),
    (scoring, "parse_first_call", "calls.parse", None),
    (scoring, "normalize_params", "calls.normalize", None),
    (genclient, "generate_completion", "genclient.generate", None),
    (genclient.CompletionCache, "get", "genclient.cache_get",
     lambda a, k, r: {"hit": r is not None}),
    (genclient.CompletionCache, "put", "genclient.cache_put", None),
)


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "info")

    def __init__(self, id, parent, name, start, end, info):
        self.id, self.parent, self.name = id, parent, name
        self.start, self.end, self.info = start, end, info


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._pending: list[tuple[Span, Callable, tuple, dict, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, info: Callable | None):
        stack = self._stack()
        # Worker threads (batch_generate's pool) start with an empty stack;
        # their spans belong to the innermost span open on the root thread.
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = Span(span_id, parent, name, start, end, None)
        self.spans.append(span)
        if info is not None:
            self._pending.append((span, info, args, kwargs, result))
        return result

    def root(self, name: str, fn: Callable, *args, **kwargs):
        """Trace a top-level call made from the current thread."""
        self._root_stack = self._stack()
        return self.call(name, fn, args, kwargs, None)

    def finish(self) -> list[Span]:
        """Evaluate deferred span counts (outside every timed span) and
        hand over the spans recorded since the last finish."""
        for span, info, args, kwargs, result in self._pending:
            span.info = info(args, kwargs, result)
        spans, self.spans, self._pending = self.spans, [], []
        return spans

    def install(self) -> None:
        for owner, attr, name, info in TARGETS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))
        prop = transform.RenderedPrompt.__dict__["prompt_hash"]
        self._originals.append((transform.RenderedPrompt, "prompt_hash", prop))
        fget = prop.fget
        transform.RenderedPrompt.prompt_hash = property(
            lambda p: self.call("transform.prompt_hash", fget, (p,), {}, None)
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, fn: Callable, info: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        return traced


def write_spans(path: Path, spans: list[Span]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for s in spans:
            info = {k: v for k, v in (s.info or {}).items() if k != "texts"}
            fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end, info]) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


LAYERS = ("corpus", "transform", "calls", "scoring", "genclient", "clmetrics", "report")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced cycle, keyed by metric name."""
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    info: Counter = Counter()
    layer_self: dict[str, float] = defaultdict(float)
    texts: list[str] = []
    hits = 0
    missed: set[int] = set()  # generate spans whose cache lookup missed
    for s in spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        layer_self[s.name.split(".", 1)[0]] += own[s.id]
        for key, value in (s.info or {}).items():
            if key == "texts":
                texts.extend(value)
            elif key == "hit":
                hits += value
                if not value:
                    missed.add(s.parent)
            else:
                info[f"{s.name}.{key}"] += value
    misses_ms = [
        (s.end - s.start) * 1000.0
        for s in spans
        if s.name == "genclient.generate" and (s.id in missed or not calls["genclient.cache_get"])
    ]
    roots = [s for s in spans if s.parent == 0]
    m = {
        "corpus.load_s": total["corpus.load"],
        "corpus.partition_s": total["corpus.partition"],
        "corpus.episodes": info["corpus.load.episodes"],
        "corpus.examples": info["corpus.partition.examples"],
        "corpus.context_turns": info["corpus.partition.context_turns"],
        "transform.render_s": total["transform.render"],
        "transform.render_calls": calls["transform.render"],
        "transform.prompt_chars.A": info["transform.render.chars.A"],
        "transform.prompt_chars.B": info["transform.render.chars.B"],
        "transform.export_s": total["transform.export"],
        "transform.context_stats_s": total["transform.context_stats"],
        "transform.prompt_hash_calls": calls["transform.prompt_hash"],
        "transform.prompt_hash_s": total["transform.prompt_hash"],
        "calls.parse_calls": calls["calls.parse"],
        "calls.parse_s": total["calls.parse"],
        "calls.normalize_calls": calls["calls.normalize"],
        "calls.normalize_s": total["calls.normalize"],
        "scoring.score_s": total["scoring.score"],
        "scoring.self_s": sum(own[s.id] for s in spans if s.name == "scoring.score"),
        "scoring.records": info["scoring.score.records"],
        "scoring.unique_text_ratio": len(set(texts)) / len(texts) if texts else 0.0,
        "scoring.write_s": total["scoring.write"],
        "scoring.aggregate_s": total["scoring.aggregate"],
        "genclient.completions_s": total["genclient.import"] + total["genclient.batch"],
        "genclient.import_s": total["genclient.import"],
        "genclient.import_records": info["genclient.import.records"],
        "genclient.batch_s": total["genclient.batch"],
        "genclient.failures": info["genclient.batch.failures"],
        "genclient.request_ms.p50": _percentile(misses_ms, 0.50),
        "genclient.request_ms.p99": _percentile(misses_ms, 0.99),
        "genclient.cache_hits": hits,
        "genclient.cache_misses": calls["genclient.cache_get"] - hits,
        "genclient.cache_get_s": total["genclient.cache_get"],
        "genclient.cache_put_s": total["genclient.cache_put"],
        "clmetrics.summarize_s": total["clmetrics.summarize"],
        "clmetrics.write_s": total["clmetrics.write"],
        "trace.report_s": sum(s.end - s.start for s in roots),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = layer_self[layer]
    m["report.self_s"] = layer_self["report"]
    m["trace.layer_sum_s"] = sum(layer_self[layer] for layer in LAYERS)
    return m
