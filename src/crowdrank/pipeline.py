"""End-to-end online search: query -> threads -> two-stage rank -> answers.

The funnel: BM25 over the thread index (top 500), optional thread-level
antonym filter, stage-1 fusion of the four similarity features (keep 250),
stage-2 fusion of those same values plus the three social features (keep
100), ephemeral BM25 over the surviving answers, indexed on the query's
terms only (top 150), optional answer-level antonym filter, then
four-feature answer fusion and the top-N cut. Each stage ranks one feature
table (a column per feature, rows in the order of an ids array) by `_rank`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import features as ft
from .antonyms import AntonymDictionary, AntonymQueryContext
from .corpus import Thread, preprocess
from .documents import DocumentStore, build_documents
from .embeddings import (EmbeddingStore, IdfMap, WordMatrix, asym_scores, sentence_embed,
                         sentence_vectors)
from .index import bm25_search, gather


@dataclass
class QueryContext:
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


def _rank(ids: np.ndarray, table: dict[str, np.ndarray], weights: dict[str, float],
          keep: int) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Fuse a feature table: the first `keep` positions by (-score, id), the
    normalized table and the fused scores."""
    normalized, fused = ft.normalize_and_fuse(table, weights)
    return np.lexsort((ids, -fused))[:keep], normalized, fused


def _rows(table: dict[str, np.ndarray], positions: np.ndarray) -> list[dict[str, float]]:
    """The table's rows at `positions`, as dicts of plain floats."""
    columns = {name: column[positions].tolist() for name, column in table.items()}
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


class SearchEngine:
    """Holds the immutable per-corpus state and executes searches against it."""

    def __init__(self, threads: Iterable[Thread], store: EmbeddingStore,
                 idf_map: IdfMap, antonym_dict: AntonymDictionary,
                 stopwords: frozenset[str] | None = None,
                 docs: DocumentStore | None = None):
        self.threads = {t.question.id: t for t in threads}
        self.store = store
        self.idf_map = idf_map
        self.antonym_dict = antonym_dict
        self.stopwords = stopwords
        # Every thread word, sorted, so sorted ids are sorted words; the rows
        # fill as searches meet the words.
        self.vocab = WordMatrix(sorted(idf_map.df), store, idf_map)
        # The threads' text parts as ids of those words, a row per thread by
        # ascending question id, and their BM25 index with the same rows.
        self.docs = docs or build_documents(self.threads.values(), idf_map)
        self.thread_index = self.docs.thread_index(
            self.vocab.words, np.array(sorted(self.threads), dtype=np.int64))
        self.title_vecs = self._title_vectors()
        self.title_norms = np.sqrt(np.einsum("ij,ij->i", self.title_vecs, self.title_vecs))

    def _title_vectors(self) -> np.ndarray:
        """Each thread's title vector, a row per thread: the store's sentence
        vector when it holds one (from a sentence-vector file), else the
        built-in IDF-weighted mean, which then fills the store."""
        title = self.docs.parts["title"]
        vecs = sentence_vectors(self.vocab.words, self.vocab.idf, title.ptr, title.ids,
                                title.counts, self.store)
        for row, thread_id in enumerate(self.thread_index.doc_ids.tolist()):
            given = self.store.sentence_vecs.get(thread_id)
            if given is None:
                self.store.sentence_vecs[thread_id] = vecs[row]
            else:
                vecs[row] = given
        return vecs

    def make_query_context(self, query: str, config: ft.WeightConfig) -> QueryContext:
        bag = preprocess(query, "query", self.stopwords)
        novel = [w for w in bag if w not in self.idf_map.df and w not in self.store.word_vecs]
        ctx = self.antonym_dict.context(set(bag), config.antonym_pos_mode)
        vec = sentence_embed(bag, self.store, self.idf_map)
        words = WordMatrix.of(bag, self.store, self.idf_map)
        vocab_ids = np.array([self.vocab.index.get(w, -1) for w in words.words], dtype=np.intp)
        return QueryContext(bag=bag, antonym_ctx=ctx, sentence_vec=vec,
                            words=words, vocab_ids=vocab_ids, novel_words=novel)

    def _asym(self, qc: QueryContext, segments: tuple[np.ndarray, np.ndarray],
              clamp: bool) -> np.ndarray:
        """`asym_score` of the query against each segment of vocabulary ids."""
        flat, ptr = segments
        self.vocab.fill(flat)
        return np.array(asym_scores(qc.words, self.vocab, qc.vocab_ids, flat, ptr, clamp))

    def _sentence(self, qc: QueryContext, rows: np.ndarray) -> np.ndarray:
        """`cosine` of the query's sentence vector and each thread's title vector;
        0 where either has zero norm."""
        norm_q = np.linalg.norm(qc.sentence_vec)
        norms = self.title_norms[rows] * norm_q
        out = np.zeros(len(rows))
        np.divide(self.title_vecs[rows] @ qc.sentence_vec, norms, out=out, where=norms != 0.0)
        return out

    def _tf(self, qc: QueryContext, rows: np.ndarray) -> np.ndarray:
        """`tf_score` of the query against each thread row's indexed document.

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
        sumsq_q = sum(c * c for c in qc.bag.values())
        return np.array([ft.tf_cosine(dot, sumsq_q, sumsq) for dot, sumsq
                         in zip(dots[rows].tolist(), index.doc_sumsq[rows].tolist())])

    def _similarity_features(self, qc: QueryContext, rows: np.ndarray,
                             clamp: bool) -> dict[str, np.ndarray]:
        """The four stage-1 feature columns of the thread rows; stage 2 reuses them."""
        return {
            "sentence": self._sentence(qc, rows),
            "asym_title": self._asym(qc, self.docs.title_segments(rows), clamp),
            "asym_body": self._asym(qc, self.docs.body_segments(rows), clamp),
            "tf": self._tf(qc, rows),
        }

    def _tfidf(self, qc: QueryContext, counts: np.ndarray, held: np.ndarray,
               answer_rows: np.ndarray) -> np.ndarray:
        """`tfidf_score` of the query against each answer's indexed text, from
        its counts of the query words `held` in the vocabulary (a row per
        answer) and its stored norm."""
        words = qc.words
        counts_q = np.array([qc.bag[w] for w in words.words], dtype=np.int64)
        norm_q = ft.tfidf_norms(counts_q, words.idf, np.array([0, len(counts_q)]))[0]
        dots = (counts * words.idf[held]) @ (counts_q * words.idf)[held]
        return np.array([ft.tfidf_cosine(dot, norm_q, norm) for dot, norm
                         in zip(dots.tolist(), self.docs.tfidf_norm[answer_rows].tolist())])

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
        ids = np.array([t.question.id for t in candidates], dtype=np.int64)
        rows = np.searchsorted(self.thread_index.doc_ids, ids)
        table = self._similarity_features(qc, rows, clamp)
        weights = {f: config.thread_weights[f] for f in ft.THREAD_SIMILARITY_FEATURES}
        kept, _, _ = _rank(ids, table, weights, config.stage1_keep)
        counts["stage1_kept"] = len(kept)

        # Stage 2: the stage-1 values plus the three social features
        ids, rows = ids[kept], rows[kept]
        threads = [self.threads[t] for t in ids.tolist()]
        table = {name: column[kept] for name, column in table.items()}
        for name in ft.SOCIAL_FEATURES:  # each is a Thread property of that name
            table[name] = np.array([getattr(t, name) for t in threads], dtype=float)
        kept, _, fused = _rank(ids, table, config.thread_weights, config.stage2_keep)
        counts["stage2_kept"] = len(kept)
        diagnostics["thread_features"] = dict(zip(ids[kept].tolist(), _rows(table, kept)))
        thread_scores = dict(zip(ids[kept].tolist(), fused[kept].tolist()))

        # Ephemeral answer index over the query's vocabulary terms, and
        # lexical answer retrieval
        held = qc.vocab_ids >= 0
        answer_rows, term_counts, index = self.docs.answer_index(
            rows[kept], [w for w, h in zip(qc.words.words, held.tolist()) if h],
            qc.vocab_ids[held])
        pairs = [(threads[i], a) for i in kept.tolist() for a in threads[i].answers]
        # answer id -> (thread, answer, position in answer_rows)
        located = {a.id: (thread, a, i) for i, (thread, a) in enumerate(pairs)}
        hits = bm25_search(index, qc.bag, config.answer_k)
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
                thread, answer, _ = located[a]
                words = (thread.question.title_bag.keys() | answer.body_bag.keys()
                         | answer.code_bag.keys())
                if qc.antonym_ctx.score(words) == 0:
                    kept.append(a)
            answer_ids = kept
        counts["after_answer_filter"] = len(answer_ids)

        # Answer features, fusion and the final cut
        positions = np.array([located[a][2] for a in answer_ids], dtype=np.intp)
        rows = answer_rows[positions]
        table = {
            "asym": self._asym(qc, self.docs.answer_segments(rows), clamp),
            "tfidf": self._tfidf(qc, term_counts[positions], held, rows),
            "top_method": ft.top_method_scores(*self.docs.methods(rows), config.method_scale),
            "thread_score": np.array([thread_scores[located[a][0].question.id]
                                      for a in answer_ids]),
        }
        ids = np.array(answer_ids, dtype=np.int64)
        kept, normalized, fused = _rank(ids, table, config.answer_weights, max(final_n, 0))
        entries = []
        for a, score, raw, norm in zip(ids[kept].tolist(), fused[kept].tolist(),
                                       _rows(table, kept), _rows(normalized, kept)):
            thread, answer, _ = located[a]
            entries.append(ResultEntry(
                answer_id=a,
                thread_id=thread.question.id,
                score=score,
                answer_body=answer.original_body,
                thread_title=thread.question.original_title,
                features=ft.FeatureVector(raw=raw, normalized=norm),
            ))
        counts["returned"] = len(entries)
        return SearchResult(entries=entries, diagnostics=diagnostics)


def _canon(name: str) -> str:
    return name.strip().lower().replace(" ", "-").replace("_", "-")


_CRAR = ("NN", "ANS")
_SOCIAL_CODES = {"tas": "total_answer_score", "qs": "question_score", "ac": "answer_count"}
_FEATURE_CODES = {
    "thread": {"tf": "tf", "sent2vec": "sentence", "asym-title": "asym_title",
               "asym-body": "asym_body"},
    "answer": {"tfidf": "tfidf", "asym": "asym", "thread-score": "thread_score",
               "top-method": "top_method"},
}


def _preset_table() -> dict[str, tuple[frozenset[str], tuple[str, str] | None]]:
    """Each preset: the features whose weight is 0, and the antonym filter's
    (pos mode, targets), or None for no filter."""
    table = {
        "template": (frozenset(), None),
        "template-without-sf": (frozenset(ft.SOCIAL_FEATURES), None),
        "crar": (frozenset(), _CRAR),
    }
    # Template-SF-<combo>: only the named social features stay on.
    for combo in ("tas", "qs", "ac", "tas-ac", "qs-tas", "qs-ac", "tas-qs", "ac-tas", "ac-qs"):
        table[f"template-sf-{combo}"] = (
            frozenset(ft.SOCIAL_FEATURES) - {_SOCIAL_CODES[c] for c in combo.split("-")}, None)
    for pos in ("nn", "vb", "nn-vb"):
        for target in ("tr", "ans", "tr-ans"):
            table[f"template-ant-{pos}-{target}"] = (frozenset(), (
                pos.replace("-", "_").upper(), target.replace("-", "_").upper()))
    # CRAR without one feature, and one kind's features with only that one on.
    for kind, names in (("thread", ft.THREAD_FEATURES), ("answer", ft.ANSWER_FEATURES)):
        for code, feature in _FEATURE_CODES[kind].items():
            table[f"crar-without-{code}"] = (frozenset({feature}), _CRAR)
            table[f"{kind}-{code}"] = (frozenset(names) - {feature}, None)
    return table


def _preset(zero: frozenset[str], antonyms: tuple[str, str] | None) -> ft.WeightConfig:
    config = ft.WeightConfig()
    for weights in (config.thread_weights, config.answer_weights):
        for feature in weights.keys() & zero:
            weights[feature] = 0.0
    if antonyms:
        config.antonym_enabled = True
        config.antonym_pos_mode, config.antonym_targets = antonyms
    return config


_PRESETS = _preset_table()
BASELINE_NAMES = tuple(sorted(_PRESETS))


def configure_ablation(name: str) -> ft.WeightConfig:
    """Return the weight configuration for a named baseline.

    Raises ValueError listing the valid names when the baseline is unknown.
    """
    preset = _PRESETS.get(_canon(name))
    if preset is None:
        raise ValueError(f"unknown baseline {name!r}; valid names: "
                         + ", ".join(BASELINE_NAMES))
    return _preset(*preset)
