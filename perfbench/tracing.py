"""Traced mode: spans around calls into crowdrank's public functions.

Nothing inside the package changes. `Tracer.install` replaces each target
function, in every crowdrank module that holds it (so the names `pipeline`,
`artifacts` and `evaluation` import are covered too), with a wrapper that
records a span: name, start, end, parent span, search id and funnel phase.
Spans stay in memory until `write` is called at the end of the run.

The scalar `cosine` is not wrapped: it runs about half a million times per
search, and a span around it would cost more than the call. A target that no
longer exists is reported in `missing` and does not stop the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# (span name, module, attribute path); a dotted path names a method.
TARGETS = (
    ("corpus.load_dump", "crowdrank.corpus", "load_dump"),
    ("corpus.build_threads", "crowdrank.corpus", "build_threads"),
    ("corpus.save_threads", "crowdrank.corpus", "save_threads"),
    ("corpus.load_threads", "crowdrank.corpus", "load_threads"),
    ("index.build_thread_index", "crowdrank.index", "build_thread_index"),
    ("index.save_index", "crowdrank.index", "save_index"),
    ("index.load_index", "crowdrank.index", "load_index"),
    ("index.bm25", "crowdrank.index", "bm25_search"),
    ("index.answer_index", "crowdrank.index", "build_ephemeral_answer_index"),
    ("artifacts.build_artifacts", "crowdrank.artifacts", "build_artifacts"),
    ("artifacts.build_idf", "crowdrank.artifacts", "build_idf"),
    ("artifacts.load_idf", "crowdrank.artifacts", "load_idf"),
    ("artifacts.load_engine", "crowdrank.artifacts", "load_engine"),
    ("embeddings.asym_score", "crowdrank.embeddings", "asym_score"),
    ("embeddings.fallback_embed", "crowdrank.embeddings", "fallback_embed"),
    ("features.tf_score", "crowdrank.features", "tf_score"),
    ("features.tfidf_score", "crowdrank.features", "tfidf_score"),
    ("features.top_method", "crowdrank.features", "top_method_score"),
    ("features.fuse", "crowdrank.features", "normalize_and_fuse"),
    ("antonyms.context", "crowdrank.antonyms", "AntonymDictionary.context"),
    ("antonyms.filter", "crowdrank.antonyms", "AntonymQueryContext.score"),
    ("pipeline.engine_init", "crowdrank.pipeline", "SearchEngine.__init__"),
    ("pipeline.query_context", "crowdrank.pipeline", "SearchEngine.make_query_context"),
    ("pipeline.search", "crowdrank.pipeline", "SearchEngine.search"),
    ("evaluation.evaluate", "crowdrank.evaluation", "evaluate"),
    ("evaluation.grid", "crowdrank.evaluation", "run_ablation_grid"),
)

# Spans that are only counted, and only inside searches: they nest inside
# asym_score, which is timed.
COUNT_ONLY = frozenset({"embeddings.fallback_embed"})
# Phases of one search, in funnel order; "setup" covers builds and loads and
# "between" the rest of the query phase.
SEARCH_PHASES = ("query", "stage1", "stage2", "answers")

# Per-layer metrics, in report order, with their units.
PER_LAYER = (
    ("corpus.load_dump_s", "s"), ("corpus.build_threads_s", "s"),
    ("corpus.save_threads_s", "s"), ("corpus.load_threads_s", "s"),
    ("index.build_thread_index_s", "s"), ("index.save_index_s", "s"),
    ("index.load_index_s", "s"), ("index.bm25_threads_ms", "ms"),
    ("index.postings_scanned", "count"), ("index.answer_index_ms", "ms"),
    ("index.bm25_answers_ms", "ms"),
    ("artifacts.build_idf_s", "s"), ("artifacts.load_idf_s", "s"),
    ("artifacts.build_self_s", "s"),
    ("embeddings.asym_score_ms", "ms"), ("embeddings.asym_stage1_ms", "ms"),
    ("embeddings.asym_stage2_ms", "ms"), ("embeddings.asym_answers_ms", "ms"),
    ("embeddings.asym_score_calls", "count"), ("embeddings.asym_pairs", "count"),
    ("embeddings.asym_repeat_share", "1"), ("embeddings.word_vector_misses", "count"),
    ("embeddings.word_cache_entries", "count"),
    ("pipeline.engine_init_s", "s"),
    ("features.tf_score_ms", "ms"), ("features.tfidf_score_ms", "ms"),
    ("features.top_method_ms", "ms"), ("features.fuse_ms", "ms"),
    ("features.zero_weight_evals", "count"),
    ("antonyms.context_ms", "ms"), ("antonyms.filter_ms", "ms"),
    ("antonyms.dropped", "count"),
    ("pipeline.query_context_ms", "ms"), ("pipeline.search_self_ms", "ms"),
    ("pipeline.bm25_threads", "count"), ("pipeline.stage2_kept", "count"),
    ("pipeline.bm25_answers", "count"), ("pipeline.returned", "count"),
    ("evaluation.evaluate_ms", "ms"), ("evaluation.grid_self_ms", "ms"),
)

# Which hook each metric needs, to name it when the hook is missing.
_NEEDS = {
    "index.bm25_threads_ms": "index.bm25", "index.postings_scanned": "index.bm25",
    "index.bm25_answers_ms": "index.bm25", "index.answer_index_ms": "index.answer_index",
    "artifacts.build_self_s": "artifacts.build_artifacts",
    "embeddings.asym_stage1_ms": "embeddings.asym_score",
    "embeddings.asym_stage2_ms": "embeddings.asym_score",
    "embeddings.asym_answers_ms": "embeddings.asym_score",
    "embeddings.asym_score_calls": "embeddings.asym_score",
    "embeddings.asym_pairs": "embeddings.asym_score",
    "embeddings.asym_repeat_share": "embeddings.asym_score",
    "embeddings.word_vector_misses": "embeddings.fallback_embed",
    "features.top_method_ms": "features.top_method",
    "features.zero_weight_evals": "features.fuse",
    "antonyms.dropped": "antonyms.filter",
    "pipeline.search_self_ms": "pipeline.search",
    "evaluation.grid_self_ms": "evaluation.grid",
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    """Records spans and counters around the wrapped calls."""

    def __init__(self):
        # (name, start, end, parent index, search id, phase)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.missing: list[str] = []
        self.counters: Counter = Counter()
        self.search_id = 0
        self.phase = "setup"
        self._bm25_calls = 0
        self._fuse_calls = 0
        self._seen_pairs: set = set()
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "crowdrank" or name.startswith("crowdrank.")]
        for span_name, module_name, path in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{span_name} ({module_name}.{path})")
                continue
            owner, attr, original = found
            wrapper = self._wrap(span_name, original)
            if "." in path:  # a method: patch the class once
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                self.counters[name] += self.phase in SEARCH_PHASES
                return fn(*args, **kwargs)
            return counted

        def wrapper(*args, **kwargs):
            span_name = before(args, kwargs) if before else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name or name, start, end, parent,
                                self.search_id, self.phase)
            if after:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks: funnel order and counters -----------------------------------

    def _before_pipeline_search(self, args, kwargs):
        self.search_id += 1
        self.phase = "query"
        self._bm25_calls = 0
        self._fuse_calls = 0
        return None

    def _after_pipeline_search(self, args, kwargs, result):
        self.phase = "between"

    def _before_evaluation_grid(self, args, kwargs):
        # asym_repeat_share counts repeats within one grid call.
        self._seen_pairs.clear()
        return None

    def _before_index_bm25(self, args, kwargs):
        if self.phase not in SEARCH_PHASES:
            return None
        self._bm25_calls += 1
        if self._bm25_calls > 1:
            return "index.bm25_answers"
        index, query = args[0], args[1]
        try:
            postings = index.postings
            self.counters["index.postings_scanned"] += sum(
                len(postings.get(t, ())) for t in set(query))
        except AttributeError:
            if "index.postings_scanned" not in self.missing:
                self.missing.append("index.postings_scanned (InvertedIndex.postings)")
        return "index.bm25_threads"

    def _after_index_bm25(self, args, kwargs, result):
        if self._bm25_calls == 1 and self.phase == "query":
            self.phase = "stage1"

    def _before_embeddings_asym_score(self, args, kwargs):
        a, b = frozenset(args[0]), frozenset(args[1])
        self.counters["embeddings.asym_score_calls"] += 1
        self.counters["embeddings.asym_pairs"] += 2 * len(a) * len(b)
        key = (a, b)
        if key in self._seen_pairs:
            self.counters["embeddings.asym_repeats"] += 1
        else:
            self._seen_pairs.add(key)
        return None

    def _before_features_fuse(self, args, kwargs):
        raws, weights = args[0], args[1]
        self.counters["features.zero_weight_evals"] += sum(
            1 for raw in raws for name in raw if weights.get(name, 0.0) == 0.0)
        return None

    def _after_features_fuse(self, args, kwargs, result):
        self._fuse_calls += 1
        if self.phase in SEARCH_PHASES[1:]:
            self.phase = ("stage2", "answers", "answers")[min(self._fuse_calls, 3) - 1]

    def _after_antonyms_filter(self, args, kwargs, result):
        self.counters["antonyms.dropped"] += result > 0

    # -- reduction ----------------------------------------------------------

    def metrics(self, n_searches: int, word_cache_entries: int) -> dict[str, float]:
        """Per-layer metrics.

        Per-search values are query-phase totals / n_searches. Spans recorded
        in the "setup" phase (builds and loads) give medians over the run's
        repeats.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        total: Counter = Counter()
        self_total: Counter = Counter()
        setup: dict[str, list[float]] = {}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, search, phase = span
            duration = end - start
            if phase == "setup":
                setup.setdefault(name, []).append(duration)
                if name == "artifacts.build_artifacts":
                    setup.setdefault("artifacts.build_self", []).append(duration - child_time[i])
            elif search > 0:
                total[name] += duration
                if name == "embeddings.asym_score":
                    total["embeddings.asym_" + phase] += duration
            if name in ("pipeline.search", "evaluation.grid"):
                self_total[name] += duration - child_time[i]

        n = max(n_searches, 1)

        def median(name):
            values = setup.get(name)
            return statistics.median(values) if values else 0.0

        calls = self.counters["embeddings.asym_score_calls"]
        out = {
            "corpus.load_dump_s": median("corpus.load_dump"),
            "corpus.build_threads_s": median("corpus.build_threads"),
            "corpus.save_threads_s": median("corpus.save_threads"),
            "corpus.load_threads_s": median("corpus.load_threads"),
            "index.build_thread_index_s": median("index.build_thread_index"),
            "index.save_index_s": median("index.save_index"),
            "index.load_index_s": median("index.load_index"),
            "index.bm25_threads_ms": 1e3 * total["index.bm25_threads"] / n,
            "index.postings_scanned": self.counters["index.postings_scanned"] / n,
            "index.answer_index_ms": 1e3 * total["index.answer_index"] / n,
            "index.bm25_answers_ms": 1e3 * total["index.bm25_answers"] / n,
            "artifacts.build_idf_s": median("artifacts.build_idf"),
            "artifacts.load_idf_s": median("artifacts.load_idf"),
            "artifacts.build_self_s": median("artifacts.build_self"),
            "embeddings.asym_score_ms": 1e3 * total["embeddings.asym_score"] / n,
            "embeddings.asym_stage1_ms": 1e3 * total["embeddings.asym_stage1"] / n,
            "embeddings.asym_stage2_ms": 1e3 * total["embeddings.asym_stage2"] / n,
            "embeddings.asym_answers_ms": 1e3 * total["embeddings.asym_answers"] / n,
            "embeddings.asym_score_calls": calls / n,
            "embeddings.asym_pairs": self.counters["embeddings.asym_pairs"] / n,
            "embeddings.asym_repeat_share": (self.counters["embeddings.asym_repeats"] / calls
                                             if calls else 0.0),
            "embeddings.word_vector_misses": self.counters["embeddings.fallback_embed"] / n,
            "embeddings.word_cache_entries": float(word_cache_entries),
            "pipeline.engine_init_s": median("pipeline.engine_init"),
            "features.tf_score_ms": 1e3 * total["features.tf_score"] / n,
            "features.tfidf_score_ms": 1e3 * total["features.tfidf_score"] / n,
            "features.top_method_ms": 1e3 * total["features.top_method"] / n,
            "features.fuse_ms": 1e3 * total["features.fuse"] / n,
            "features.zero_weight_evals": self.counters["features.zero_weight_evals"] / n,
            "antonyms.context_ms": 1e3 * total["antonyms.context"] / n,
            "antonyms.filter_ms": 1e3 * total["antonyms.filter"] / n,
            "antonyms.dropped": self.counters["antonyms.dropped"] / n,
            "pipeline.query_context_ms": 1e3 * total["pipeline.query_context"] / n,
            "pipeline.search_self_ms": 1e3 * self_total["pipeline.search"] / n,
            "evaluation.evaluate_ms": 1e3 * total["evaluation.evaluate"] / n,
            "evaluation.grid_self_ms": 1e3 * self_total["evaluation.grid"] / n,
        }
        return out

    def missing_metrics(self) -> list[str]:
        """Per-layer metrics whose hook is missing; they read 0."""
        gone = {m.split(" ")[0] for m in self.missing}
        out = []
        for name, _ in PER_LAYER:
            hook = _NEEDS.get(name, name.rsplit("_", 1)[0])
            if hook in gone or name in gone:
                out.append(name)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, search, phase = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "search": search,
                                     "phase": phase}) + "\n")
