"""End-to-end online search: query -> threads -> two-stage rank -> answers.

The funnel: BM25 over the thread index (top 500), optional thread-level
antonym filter, stage-1 fusion of the four similarity features (keep 250),
stage-2 fusion of those same values plus the three social features (keep
100), ephemeral BM25 over the surviving answers, indexed on the query's
terms only (top 150), optional answer-level antonym filter, then
four-feature answer fusion and the top-N cut. All three fusions rank the
same way (`_rank`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Iterable

import numpy as np

from . import features as ft
from .antonyms import AntonymDictionary, AntonymQueryContext
from .corpus import Thread, preprocess
from .embeddings import EmbeddingStore, IdfMap, WordMatrix, asym_scores, cosine, sentence_embed
from .index import (InvertedIndex, answer_document_bag, bm25_search,
                    build_ephemeral_answer_index, build_thread_index, gather)


@dataclass
class QueryContext:
    raw_query: str
    bag: Counter
    antonym_ctx: AntonymQueryContext
    sentence_vec: np.ndarray
    # The query words as kernel rows, and their ids in the engine vocabulary (-1: none).
    words: WordMatrix
    vocab_ids: np.ndarray
    # Query words outside the corpus vocabulary and the word cache: their
    # fallback vectors serve one search only.
    novel_words: list[str]


@dataclass
class ResultEntry:
    answer_id: int
    thread_id: int
    score: float
    answer_body: str
    thread_title: str
    features: ft.FeatureVector


@dataclass
class SearchResult:
    entries: list[ResultEntry]
    diagnostics: dict = field(default_factory=dict)

    def answer_ids(self) -> list[int]:
        return [e.answer_id for e in self.entries]


def _rank(ids: list[int], raws: list[dict[str, float]], weights: dict[str, float],
          keep: int) -> list[tuple[int, ft.FeatureVector, float]]:
    """Fuse the candidates' raw features, sort by (-score, id), keep the first `keep`."""
    fused = ft.normalize_and_fuse(raws, weights)
    ranked = sorted(zip(ids, fused), key=lambda e: (-e[1][1], e[0]))
    return [(i, fv, score) for i, (fv, score) in ranked[:keep]]


class SearchEngine:
    """Holds the immutable per-corpus state and executes searches against it."""

    def __init__(self, threads: Iterable[Thread], store: EmbeddingStore,
                 idf_map: IdfMap, antonym_dict: AntonymDictionary,
                 thread_index: InvertedIndex | None = None,
                 stopwords: frozenset[str] | None = None):
        self.threads = {t.question.id: t for t in threads}
        self.store = store
        self.idf_map = idf_map
        self.antonym_dict = antonym_dict
        self.thread_index = thread_index or build_thread_index(self.threads.values())
        self.stopwords = stopwords
        # Every thread word, sorted, so sorted ids are sorted words; the rows
        # fill as searches meet the words.
        self.vocab = WordMatrix(sorted(idf_map.df), store, idf_map)
        self._ensure_sentence_vectors()

    def _ensure_sentence_vectors(self) -> None:
        # Title vectors not supplied by a sentence-vector file come from the
        # built-in IDF-weighted-mean embedder.
        for thread_id, thread in self.threads.items():
            if thread_id not in self.store.sentence_vecs:
                self.store.sentence_vecs[thread_id] = sentence_embed(
                    thread.question.title_bag, self.store, self.idf_map)

    def make_query_context(self, query: str, config: ft.WeightConfig) -> QueryContext:
        bag = preprocess(query, "query", self.stopwords)
        novel = [w for w in bag if w not in self.idf_map.df and w not in self.store.word_vecs]
        ctx = self.antonym_dict.context(set(bag), config.antonym_pos_mode)
        vec = sentence_embed(bag, self.store, self.idf_map)
        words = WordMatrix.of(bag, self.store, self.idf_map)
        vocab_ids = np.array([self.vocab.index.get(w, -1) for w in words.words], dtype=np.intp)
        return QueryContext(raw_query=query, bag=bag, antonym_ctx=ctx, sentence_vec=vec,
                            words=words, vocab_ids=vocab_ids, novel_words=novel)

    def _asym(self, qc: QueryContext, docs: list[list[Collection[str]]],
              clamp: bool) -> list[float]:
        """`asym_score` of the query against each doc (a list of word collections)."""
        flat, ptr = self.vocab.segments(docs)
        return asym_scores(qc.words, self.vocab, qc.vocab_ids, flat, ptr, clamp)

    def _tf(self, qc: QueryContext, threads: list[Thread]) -> list[float]:
        """`tf_score` of the query against each thread's indexed document.

        The dot products come from the query terms' postings, the document
        norms from the sums of squares the thread index stores. A dot product
        is a sum of integers, exact in float64 below 2**53.
        """
        index = self.thread_index
        spans = index.spans(qc.bag)
        counts = np.repeat(np.array(list(qc.bag.values()), dtype=np.int64),
                           [hi - lo for lo, hi in spans])
        dots = np.bincount(gather(index.rows, spans), weights=gather(index.tfs, spans) * counts,
                           minlength=index.stats.n_docs)
        rows = np.searchsorted(index.doc_ids, [t.question.id for t in threads])
        sumsq_q = sum(c * c for c in qc.bag.values())
        return [ft.tf_cosine(dot, sumsq_q, sumsq)
                for dot, sumsq in zip(dots[rows].tolist(), index.doc_sumsq[rows].tolist())]

    def _similarity_features(self, qc: QueryContext, threads: list[Thread],
                             clamp: bool) -> list[dict[str, float]]:
        """The four stage-1 features of each thread; stage 2 reuses them."""
        titles = self._asym(qc, [[t.question.title_bag] for t in threads], clamp)
        bodies = self._asym(qc, [[t.question.body_bag, *(a.body_bag for a in t.answers)]
                                 for t in threads], clamp)
        return [{
            "sentence": cosine(qc.sentence_vec, self.store.sentence_vecs[t.question.id]),
            "asym_title": title,
            "asym_body": body,
            "tf": tf,
        } for t, title, body, tf in zip(threads, titles, bodies, self._tf(qc, threads))]

    def search(self, query: str, config: ft.WeightConfig | None = None,
               final_n: int | None = None) -> SearchResult:
        config = config or ft.WeightConfig()
        final_n = config.final_n if final_n is None else final_n
        qc = self.make_query_context(query, config)
        try:
            return self._funnel(qc, config, final_n)
        finally:
            # The store cached the novel words' fallback vectors for this
            # search; dropping them keeps the cache within the corpus vocabulary.
            for word in qc.novel_words:
                self.store.word_vecs.pop(word, None)

    def _funnel(self, qc: QueryContext, config: ft.WeightConfig,
                final_n: int) -> SearchResult:
        diagnostics: dict = {"stage_counts": {}}
        counts = diagnostics["stage_counts"]
        if not qc.bag:
            diagnostics["empty_query"] = True
            return SearchResult(entries=[], diagnostics=diagnostics)

        # Lexical thread retrieval, then the thread-level antonym filter
        hits = bm25_search(self.thread_index, qc.bag, config.bm25_top)
        candidates = [self.threads[t] for t, _ in hits]
        counts["bm25_threads"] = len(candidates)
        if config.filter_threads:
            candidates = [t for t in candidates if qc.antonym_ctx.score(
                t.question.title_bag.keys() | t.question.body_bag.keys()) == 0]
        counts["after_thread_filter"] = len(candidates)

        # Stage 1: the four similarity features
        clamp = config.clamp_negative_cosine
        raws = self._similarity_features(qc, candidates, clamp)
        weights = {f: config.thread_weights[f] for f in ft.THREAD_SIMILARITY_FEATURES}
        stage1 = _rank([t.question.id for t in candidates], raws, weights,
                       config.stage1_keep)
        counts["stage1_kept"] = len(stage1)

        # Stage 2: the stage-1 values plus the three social features
        raws = []
        for thread_id, fv, _ in stage1:
            thread = self.threads[thread_id]
            raws.append(dict(fv.raw, answer_count=float(thread.answer_count),
                             total_answer_score=float(thread.total_answer_score),
                             question_score=float(thread.question_score)))
        stage2 = _rank([t for t, _, _ in stage1], raws, config.thread_weights,
                       config.stage2_keep)
        counts["stage2_kept"] = len(stage2)
        diagnostics["thread_features"] = {t: fv.raw for t, fv, _ in stage2}
        thread_scores = {t: score for t, _, score in stage2}

        # Ephemeral answer index and lexical answer retrieval
        surviving = [self.threads[t] for t, _, _ in stage2]
        located = {a.id: (thread, a) for thread in surviving for a in thread.answers}
        hits = bm25_search(build_ephemeral_answer_index(surviving, qc.bag), qc.bag,
                           config.answer_k)
        answer_ids = [a for a, _ in hits]
        if not answer_ids and located:
            # Every query term the answers hold is in all of them, so its idf
            # is log10(N/N) = 0 (a single surviving answer is the usual case):
            # the answer features alone rank the surviving answers.
            answer_ids = list(located)[:config.answer_k]
            diagnostics["answer_bm25_fallback"] = True
        counts["bm25_answers"] = len(answer_ids)

        # Answer-level antonym filter
        if config.filter_answers:
            kept = []
            for a in answer_ids:
                thread, answer = located[a]
                words = (thread.question.title_bag.keys() | answer.body_bag.keys()
                         | answer.code_bag.keys())
                if qc.antonym_ctx.score(words) == 0:
                    kept.append(a)
            answer_ids = kept
        counts["after_answer_filter"] = len(answer_ids)

        # Answer features, fusion and the final cut
        method_scores = ft.top_method_score(
            [(a, located[a][1].code_text) for a in answer_ids], config.method_scale)
        asyms = self._asym(qc, [[located[a][1].body_bag, located[a][0].question.title_bag]
                                for a in answer_ids], clamp)
        raws = []
        for a, asym in zip(answer_ids, asyms):
            thread, answer = located[a]
            raws.append({
                "asym": asym,
                "tfidf": ft.tfidf_score(qc.bag, answer_document_bag(thread, answer),
                                        self.idf_map),
                "top_method": method_scores[a],
                "thread_score": thread_scores[thread.question.id],
            })
        entries = []
        for a, fv, score in _rank(answer_ids, raws, config.answer_weights, max(final_n, 0)):
            thread, answer = located[a]
            entries.append(ResultEntry(
                answer_id=a,
                thread_id=thread.question.id,
                score=score,
                answer_body=answer.original_body,
                thread_title=thread.question.original_title,
                features=fv,
            ))
        counts["returned"] = len(entries)
        return SearchResult(entries=entries, diagnostics=diagnostics)


def _canon(name: str) -> str:
    return name.strip().lower().replace(" ", "-").replace("_", "-")


def _social_only(enabled: set[str]) -> ft.WeightConfig:
    config = ft.WeightConfig()
    for feature in ft.SOCIAL_FEATURES:
        if feature not in enabled:
            config.thread_weights[feature] = 0.0
    return config


def _antonym(pos_mode: str, targets: str) -> ft.WeightConfig:
    config = ft.WeightConfig()
    config.antonym_enabled = True
    config.antonym_pos_mode = pos_mode
    config.antonym_targets = targets
    return config


def _crar() -> ft.WeightConfig:
    return _antonym("NN", "ANS")


def _crar_without(feature: str, kind: str) -> ft.WeightConfig:
    config = _crar()
    weights = config.thread_weights if kind == "thread" else config.answer_weights
    weights[feature] = 0.0
    return config


def _thread_isolated(feature: str) -> ft.WeightConfig:
    config = ft.WeightConfig()
    for name in ft.THREAD_FEATURES:
        if name != feature:
            config.thread_weights[name] = 0.0
    return config


def _answer_isolated(feature: str) -> ft.WeightConfig:
    config = ft.WeightConfig()
    for name in ft.ANSWER_FEATURES:
        if name != feature:
            config.answer_weights[name] = 0.0
    return config


_SOCIAL_CODES = {"tas": "total_answer_score", "qs": "question_score", "ac": "answer_count"}


def _baseline_builders() -> dict:
    builders = {
        "template": ft.WeightConfig,
        "template-without-sf": lambda: _social_only(set()),
        "crar": _crar,
        "crar-without-tf": lambda: _crar_without("tf", "thread"),
        "crar-without-sent2vec": lambda: _crar_without("sentence", "thread"),
        "crar-without-asym-title": lambda: _crar_without("asym_title", "thread"),
        "crar-without-asym-body": lambda: _crar_without("asym_body", "thread"),
        "crar-without-tfidf": lambda: _crar_without("tfidf", "answer"),
        "crar-without-asym": lambda: _crar_without("asym", "answer"),
        "crar-without-thread-score": lambda: _crar_without("thread_score", "answer"),
        "crar-without-top-method": lambda: _crar_without("top_method", "answer"),
        "thread-tf": lambda: _thread_isolated("tf"),
        "thread-sent2vec": lambda: _thread_isolated("sentence"),
        "thread-asym-title": lambda: _thread_isolated("asym_title"),
        "thread-asym-body": lambda: _thread_isolated("asym_body"),
        "answer-tfidf": lambda: _answer_isolated("tfidf"),
        "answer-asym": lambda: _answer_isolated("asym"),
        "answer-thread-score": lambda: _answer_isolated("thread_score"),
        "answer-top-method": lambda: _answer_isolated("top_method"),
    }
    # Template-SF-<combo>: only the named social features stay on.
    combos = ["tas", "qs", "ac", "tas-ac", "qs-tas", "qs-ac", "tas-qs", "ac-tas", "ac-qs"]
    for combo in combos:
        enabled = {_SOCIAL_CODES[c] for c in combo.split("-")}
        builders[f"template-sf-{combo}"] = (lambda e=enabled: _social_only(e))
    # Template-Ant-<POS>-<targets>
    for pos in ("nn", "vb", "nn-vb"):
        for target in ("tr", "ans", "tr-ans"):
            builders[f"template-ant-{pos}-{target}"] = (
                lambda p=pos, t=target: _antonym(p.replace("-", "_").upper(),
                                                 t.replace("-", "_").upper()))
    return builders


_BUILDERS = _baseline_builders()

BASELINE_NAMES = tuple(sorted(_BUILDERS))


def configure_ablation(name: str) -> ft.WeightConfig:
    """Return the weight configuration for a named baseline.

    Raises ValueError listing the valid names when the baseline is unknown.
    """
    builder = _BUILDERS.get(_canon(name))
    if builder is None:
        raise ValueError(f"unknown baseline {name!r}; valid names: "
                         + ", ".join(BASELINE_NAMES))
    return builder()
