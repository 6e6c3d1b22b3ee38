"""End-to-end online search: query -> threads -> two-stage rank -> answers.

The funnel: BM25 over the thread index (top 500), optional thread-level
antonym filter, stage-1 fusion of the four similarity features (keep 250),
stage-2 fusion of those same values plus the three social features (keep
100), ephemeral BM25 over the surviving answers, indexed on the query's
terms only (top 150), optional answer-level antonym filter, then
four-feature answer fusion and the top-N cut. Each stage ranks one feature
table (a column per feature, a row per candidate) by `_rank`.

Candidates are rows of the document store from BM25 to the final cut:
thread rows, then answer rows. Every feature column and both antonym
filters are gathers over the store and over per-thread-row arrays; no
`Thread` is built, and only the returned answers' body and thread title are
decoded from the store's text.

The three asym features (asym_title and asym_body at stage 1, asym at the
answer stage) read one `SimilarityTable` per search, held by its
`QueryContext` and dropped with it: each query word's similarity with a
vocabulary word is computed once, by the first stage whose targets hold
the word, and the answer stage's targets hold only words stage 1 scored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import features as ft
from .antonyms import AntonymDictionary, AntonymQueryContext
from .corpus import Thread, preprocess
from .documents import DocumentStore, ThreadMap, build_documents
from .embeddings import (EmbeddingStore, IdfMap, SimilarityTable, WordMatrix, sentence_embed,
                         sentence_vectors)
from .index import bm25_rows, gather


@dataclass
class QueryContext:
    bag: Counter
    antonym_ctx: AntonymQueryContext
    # The vocabulary ids of the context's antonyms; empty when the query is
    # self-antonymous, as no candidate is then filtered.
    antonym_ids: np.ndarray
    sentence_vec: np.ndarray
    # The query words, and their ids in the engine vocabulary (-1: none).
    words: WordMatrix
    vocab_ids: np.ndarray
    # The query words against the engine vocabulary, clamped as the search's
    # config says; every asym target of the search reads it.
    similarities: SimilarityTable
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


def _rank(keys: np.ndarray, table: dict[str, np.ndarray], weights: dict[str, float],
          keep: int) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
    """Fuse a feature table: the first `keep` positions by (-score, key), the
    normalized table and the fused scores."""
    normalized, fused = ft.normalize_and_fuse(table, weights)
    return np.lexsort((keys, -fused))[:keep], normalized, fused


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
        """The engine of `threads`, or, when `docs` is given, of the threads
        that document store holds (`threads` is then not read)."""
        self.store = store
        self.idf_map = idf_map
        self.antonym_dict = antonym_dict
        self.stopwords = stopwords
        # Every thread word, sorted, so sorted ids are sorted words; the rows
        # fill as searches meet the words.
        self.vocab = WordMatrix(sorted(idf_map.df), store, idf_map)
        # The threads' text parts as ids of those words and their posts, a
        # row per thread by ascending question id; the threads themselves,
        # built from the store when read; and their BM25 index with the same
        # rows.
        self.docs = docs or build_documents(threads, idf_map)
        self.threads = ThreadMap(self.docs, self.vocab.words)
        posts = self.docs.posts
        self.thread_index = self.docs.thread_index(self.vocab.words)
        # The social feature columns (the Thread properties of those names), a
        # row per thread row; a sum of integer scores is exact in float64.
        self.social = {
            "answer_count": np.diff(self.docs.answer_ptr).astype(float),
            "total_answer_score": np.bincount(self.docs.answer_thread,
                                              weights=posts.answer_score,
                                              minlength=self.docs.n_threads),
            "question_score": posts.question_score.astype(float),
        }
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
        # A word outside the vocabulary is in no candidate.
        antonym_ids = np.array([] if ctx.self_antonymous else [
            self.vocab.index[w] for w in ctx.antonyms if w in self.vocab.index], dtype=np.intp)
        vec = sentence_embed(bag, self.store, self.idf_map)
        words = WordMatrix.of(bag, self.store, self.idf_map)
        vocab_ids = np.array([self.vocab.index.get(w, -1) for w in words.words], dtype=np.intp)
        similarities = SimilarityTable(words, self.vocab, vocab_ids, config.clamp_negative_cosine)
        return QueryContext(bag=bag, antonym_ctx=ctx, antonym_ids=antonym_ids, sentence_vec=vec,
                            words=words, vocab_ids=vocab_ids, similarities=similarities,
                            novel_words=novel)

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
        return ft.cosines(dots[rows], np.sqrt(sumsq_q), np.sqrt(index.doc_sumsq[rows]))

    def _similarity_features(self, qc: QueryContext, rows: np.ndarray) -> dict[str, np.ndarray]:
        """The four stage-1 feature columns of the thread rows; stage 2 reuses them."""
        return {
            "sentence": self._sentence(qc, rows),
            "asym_title": qc.similarities.scores(*self.docs.title_segments(rows)),
            "asym_body": qc.similarities.scores(*self.docs.body_segments(rows)),
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
        return ft.cosines(dots, norm_q, self.docs.tfidf_norm[answer_rows])

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

    def _antonym_free(self, qc: QueryContext, rows: np.ndarray, answers: bool) -> np.ndarray:
        """Whether each thread row, or with `answers` each answer row, holds
        none of the query's antonyms (`AntonymQueryContext.score` is 0) in
        the text its filter reads: a thread's title and question body; an
        answer's thread title, its body and its code."""
        if not len(qc.antonym_ids):
            return np.ones(len(rows), dtype=bool)
        if answers:
            parts = [("title", self.docs.answer_thread[rows]), ("answer_body", rows),
                     ("code", rows)]
        else:
            parts = [("title", rows), ("body", rows)]
        return ~self.docs.holds_any(parts, qc.antonym_ids)

    def _funnel(self, qc: QueryContext, config: ft.WeightConfig,
                final_n: int) -> SearchResult:
        diagnostics: dict = {"stage_counts": {}}
        counts = diagnostics["stage_counts"]
        if not qc.bag:
            diagnostics["empty_query"] = True
            return SearchResult(entries=[], diagnostics=diagnostics)

        # Lexical thread retrieval, then the thread-level antonym filter.
        # Thread rows ascend with question ids, so a row breaks a tie as the
        # id would.
        rows, _ = bm25_rows(self.thread_index, qc.bag, config.bm25_top)
        counts["bm25_threads"] = len(rows)
        if config.filter_threads:
            rows = rows[self._antonym_free(qc, rows, answers=False)]
        counts["after_thread_filter"] = len(rows)

        # Stage 1: the four similarity features
        table = self._similarity_features(qc, rows)
        weights = {f: config.thread_weights[f] for f in ft.THREAD_SIMILARITY_FEATURES}
        kept, _, _ = _rank(rows, table, weights, config.stage1_keep)
        counts["stage1_kept"] = len(kept)

        # Stage 2: the stage-1 values plus the three social features
        rows = rows[kept]
        table = {name: column[kept] for name, column in table.items()}
        table.update((name, column[rows]) for name, column in self.social.items())
        kept, _, fused = _rank(rows, table, config.thread_weights, config.stage2_keep)
        counts["stage2_kept"] = len(kept)
        diagnostics["thread_features"] = dict(zip(
            self.thread_index.doc_ids[rows[kept]].tolist(), _rows(table, kept)))

        # Ephemeral answer index over the query's vocabulary terms, and
        # lexical answer retrieval. The answer rows run thread after thread,
        # in stage-2 order, and each carries its thread's stage-2 score.
        rows = rows[kept]
        held = qc.vocab_ids >= 0
        answer_rows, term_counts, index = self.docs.answer_index(
            rows, [w for w, h in zip(qc.words.words, held.tolist()) if h], qc.vocab_ids[held])
        thread_score = np.repeat(fused[kept], self.docs.answer_ptr[rows + 1]
                                 - self.docs.answer_ptr[rows])
        answer_ids = self.docs.answer_ids[answer_rows]
        hits, _ = bm25_rows(index, qc.bag, config.answer_k)
        # The index's rows follow ascending answer ids; positions index answer_rows.
        positions = np.argsort(answer_ids, kind="stable")[hits]
        if not len(positions) and len(answer_rows):
            # Every query term the answers hold is in all of them, so its idf
            # is log10(N/N) = 0 (a single surviving answer is the usual case):
            # the answer features alone rank the surviving answers.
            positions = np.arange(min(len(answer_rows), config.answer_k))
            diagnostics["answer_bm25_fallback"] = True
        counts["bm25_answers"] = len(positions)

        # Answer-level antonym filter
        if config.filter_answers:
            positions = positions[self._antonym_free(qc, answer_rows[positions], answers=True)]
        counts["after_answer_filter"] = len(positions)

        # Answer features, fusion and the final cut
        rows = answer_rows[positions]
        table = {
            "asym": qc.similarities.scores(*self.docs.answer_segments(rows)),
            "tfidf": self._tfidf(qc, term_counts[positions], held, rows),
            "top_method": ft.top_method_scores(*self.docs.methods(rows), config.method_scale),
            "thread_score": thread_score[positions],
        }
        ids = answer_ids[positions]
        kept, normalized, fused = _rank(ids, table, config.answer_weights, max(final_n, 0))
        entries = []
        posts = self.docs.posts
        for row, score, raw, norm in zip(rows[kept].tolist(), fused[kept].tolist(),
                                         _rows(table, kept), _rows(normalized, kept)):
            thread_row = int(self.docs.answer_thread[row])
            entries.append(ResultEntry(
                answer_id=int(self.docs.answer_ids[row]),
                thread_id=int(posts.question_ids[thread_row]),
                score=score,
                answer_body=posts.answer_text.get(row, "original_body"),
                thread_title=posts.question_text.get(thread_row, "original_title"),
                features=ft.FeatureVector(raw=raw, normalized=norm),
            ))
        counts["returned"] = len(entries)
        return SearchResult(entries=entries, diagnostics=diagnostics)


def canonical_name(name: str) -> str:
    """A baseline name as the preset table spells it: any case, with spaces
    or underscores for hyphens."""
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
    preset = _PRESETS.get(canonical_name(name))
    if preset is None:
        raise ValueError(f"unknown baseline {name!r}; valid names: "
                         + ", ".join(BASELINE_NAMES))
    return _preset(*preset)
