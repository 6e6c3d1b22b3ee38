"""End-to-end online search: query -> threads -> two-stage rank -> answers.

The funnel: BM25 over the thread index (top 500), optional thread-level
antonym filter, stage-1 fusion of the four similarity features (keep 250),
stage-2 fusion of those same values plus the three social features (keep
100), BM25 over the surviving answers, scored on the table of their counts
of the query's terms (top 150), optional answer-level antonym filter, then
four-feature answer fusion and the top-N cut. Each stage ranks one feature
table (a column per feature, a row per candidate) by `_rank`.

Candidates are rows of the document store from BM25 to the final cut:
thread rows, then answer rows. Every feature column and both antonym
filters are gathers over the store and over per-thread-row arrays; no
`Thread` is built, and only the returned answers' body and thread title are
decoded from the store's text.

The three asym features (asym_title and asym_body at stage 1, asym at the
answer stage) read one `SimilarityTable` per search, held by its
`QueryTerms` and dropped with them: each query word's similarity with a
vocabulary word is computed once, by the first stage whose targets hold
the word, and the answer stage's targets hold only words stage 1 scored.

The thread BM25 rows and their asym_title, asym_body and tf columns depend
on the query and the clamp alone, and the thread antonym filter masks them.
So does the asym of each answer of those threads, which a search scores
when its answer stage first reaches the row (`SearchEngine._answer_asym`).
In a `SearchEngine.shared_queries` scope, which the ablation grid opens,
the searches of one query share its terms, and so its similarity table,
those columns and the answer asym scored so far, across presets. The
sentence column, and the answer stage's other features and cuts, are
computed per search.

The sentence column reads each thread's title vector, which the first search
that scores the thread's row makes (`SearchEngine._fill_titles`), so a load
embeds no word. A row's vector, its norm and its dot product with the
query's vector are each computed in one fixed order, so a thread's sentence
value does not depend on which rows are scored with it, or when it was made.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import features as ft
from .antonyms import AntonymDictionary, AntonymQueryContext
from .corpus import preprocess
from .documents import DocumentStore, ThreadMap
from .embeddings import (EmbeddingStore, IdfMap, SimilarityTable, WordMatrix, sentence_embed,
                         sentence_vectors)
from .index import bm25_rows, bm25_table, gather


@dataclass
class ThreadStage:
    """What `SearchEngine._thread_stage` makes once per query terms and
    bm25_top: every value of a row depends on the row alone."""
    # The rows of the BM25 top threads, and their asym_title, asym_body and tf
    # columns.
    rows: np.ndarray
    columns: dict[str, np.ndarray]
    # The answer rows of those threads, ascending, and their asym: NaN until
    # an answer stage first scores the row.
    answers: np.ndarray
    answer_asym: np.ndarray


@dataclass
class QueryTerms:
    """What a search computes from the query text and `clamp_negative_cosine`
    alone. Searches in a `SearchEngine.shared_queries` scope share it."""
    bag: Counter
    sentence_vec: np.ndarray
    # The query words, and their ids in the engine vocabulary (-1: none).
    words: WordMatrix
    vocab_ids: np.ndarray
    # The query words against the engine vocabulary, clamped as the search's
    # config says; every asym target of the search reads it.
    similarities: SimilarityTable
    # Query words outside the corpus vocabulary and the word cache: the store
    # holds their fallback vectors for one search only, and these terms keep
    # them in `words`.
    novel_words: list[str]
    # By bm25_top: the thread stage those terms make.
    thread_stages: dict[int, ThreadStage] = field(default_factory=dict)


@dataclass
class QueryContext:
    terms: QueryTerms
    antonym_ctx: AntonymQueryContext
    # The vocabulary ids of the context's antonyms; empty when the query is
    # self-antonymous, as no candidate is then filtered.
    antonym_ids: np.ndarray


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

    def __init__(self, docs: DocumentStore, store: EmbeddingStore, idf_map: IdfMap,
                 antonym_dict: AntonymDictionary, stopwords: frozenset[str] | None = None):
        """The engine of the threads that the document store `docs` holds."""
        self.store = store
        self.idf_map = idf_map
        self.antonym_dict = antonym_dict
        self.stopwords = stopwords
        # Inside a `shared_queries` scope, its query terms by (query, clamp).
        self._shared: dict[tuple[str, bool], QueryTerms] | None = None
        # Every thread word, sorted, so sorted ids are sorted words; the rows
        # fill as searches meet the words.
        self.vocab = WordMatrix(sorted(idf_map.df), store, idf_map)
        # The threads' text parts as ids of those words and their posts, a
        # row per thread by ascending question id; the threads themselves,
        # built from the store when read; and their BM25 index with the same
        # rows.
        self.docs = docs
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
        # Each thread's title vector and its norm, a row per thread row, zero
        # until `_fill_titles` makes the row for the first search that scores
        # it: a load embeds no word.
        self.title_vecs = np.zeros((self.docs.n_threads, store.dim))
        self.title_norms = np.zeros(self.docs.n_threads)
        self._title_filled = np.zeros(self.docs.n_threads, dtype=bool)

    def _fill_titles(self, rows: np.ndarray) -> None:
        """Make the title vectors and norms of the distinct `rows` not made yet:
        the store's sentence vector for a row's question id when it holds one
        (from a sentence-vector file), else the built-in IDF-weighted mean.
        Each row's values are the same whatever batch makes it."""
        new = rows[~self._title_filled[rows]]
        if not new.size:
            return
        ids, counts, _, ptr = self.docs.entries("thread_title", new)
        vecs = sentence_vectors(self.vocab.words, self.vocab.idf, ptr, ids, counts, self.store)
        given = self.store.sentence_vecs
        for i, thread_id in enumerate(self.docs.posts.question_ids[new].tolist()):
            if thread_id in given:
                vecs[i] = given[thread_id]
        self.title_vecs[new] = vecs
        self.title_norms[new] = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))
        self._title_filled[new] = True

    @contextmanager
    def shared_queries(self) -> Iterator[None]:
        """A scope whose searches share each query's `QueryTerms`, by query
        text and `clamp_negative_cosine`, and with them the thread stage
        (`_thread_stage`) and the answer asym it keeps. All of it is dropped
        when the scope closes."""
        outer, self._shared = self._shared, {}
        try:
            yield
        finally:
            self._shared = outer

    def make_query_context(self, query: str, config: ft.WeightConfig) -> QueryContext:
        key = (query, config.clamp_negative_cosine)
        terms = None if self._shared is None else self._shared.get(key)
        if terms is None:
            terms = self._query_terms(query, config.clamp_negative_cosine)
            if self._shared is not None:
                self._shared[key] = terms
        ctx = self.antonym_dict.context(set(terms.bag), config.antonym_pos_mode)
        # A word outside the vocabulary is in no candidate.
        antonym_ids = np.array([] if ctx.self_antonymous else [
            self.vocab.index[w] for w in ctx.antonyms if w in self.vocab.index], dtype=np.intp)
        return QueryContext(terms=terms, antonym_ctx=ctx, antonym_ids=antonym_ids)

    def _query_terms(self, query: str, clamp_negative: bool) -> QueryTerms:
        bag = preprocess(query, "query", self.stopwords)
        novel = [w for w in bag if w not in self.idf_map.df and w not in self.store.word_vecs]
        vec = sentence_embed(bag, self.store, self.idf_map)
        words = WordMatrix.of(bag, self.store, self.idf_map)
        vocab_ids = np.array([self.vocab.index.get(w, -1) for w in words.words], dtype=np.intp)
        similarities = SimilarityTable(words, self.vocab, vocab_ids, clamp_negative)
        return QueryTerms(bag=bag, sentence_vec=vec, words=words, vocab_ids=vocab_ids,
                          similarities=similarities, novel_words=novel)

    def _sentence(self, terms: QueryTerms, rows: np.ndarray) -> np.ndarray:
        """`cosine` of the query's sentence vector and each thread's title vector;
        0 where either has zero norm.

        Each row's dot product is summed by `einsum` in one fixed order, not by
        a BLAS product whose last bits depend on the other rows, so a thread's
        value is the same in every row set that holds it."""
        self._fill_titles(rows)
        norm_q = np.linalg.norm(terms.sentence_vec)
        norms = self.title_norms[rows] * norm_q
        dots = np.einsum("ij,j->i", self.title_vecs[rows], terms.sentence_vec)
        out = np.zeros(len(rows))
        np.divide(dots, norms, out=out, where=norms != 0.0)
        return out

    def _tf(self, terms: QueryTerms, rows: np.ndarray) -> np.ndarray:
        """`tf_score` of the query against each thread row's indexed document.

        The dot products come from the query terms' postings, the document
        norms from the sums of squares the thread index stores. A dot product
        is a sum of integers, exact in float64 below 2**53.
        """
        index = self.thread_index
        spans = index.spans(terms.bag)
        counts = np.repeat(np.array(list(terms.bag.values()), dtype=np.int64),
                           [hi - lo for lo, hi in spans])
        dots = np.bincount(gather(index.rows, spans), weights=gather(index.tfs, spans) * counts,
                           minlength=index.stats.n_docs)
        sumsq_q = sum(c * c for c in terms.bag.values())
        return ft.cosines(dots[rows], np.sqrt(sumsq_q), np.sqrt(index.doc_sumsq[rows]))

    def _thread_stage(self, terms: QueryTerms, bm25_top: int) -> ThreadStage:
        """The rows of the query's BM25 top `bm25_top` threads, their
        asym_title, asym_body and tf columns, and their answer rows with no
        asym yet: each row's values depend on the row alone, so an antonym
        filter masks them. Made once per terms."""
        stage = terms.thread_stages.get(bm25_top)
        if stage is None:
            rows, _ = bm25_rows(self.thread_index, terms.bag, bm25_top)
            # Ascending threads hold ascending runs of answer rows.
            answers = self.docs.answer_rows(np.sort(rows))[0]
            stage = terms.thread_stages[bm25_top] = ThreadStage(rows, {
                "asym_title": terms.similarities.scores(*self.docs.segments("thread_title", rows)),
                "asym_body": terms.similarities.scores(*self.docs.segments("thread_bodies", rows)),
                "tf": self._tf(terms, rows),
            }, answers, np.full(len(answers), np.nan))
        return stage

    def _answer_asym(self, terms: QueryTerms, stage: ThreadStage,
                     rows: np.ndarray) -> np.ndarray:
        """The asym of each of the stage's answer `rows`. The rows no search of
        these terms has scored yet are scored in one call and kept: a
        segment's score does not depend on the segments scored with it."""
        at = np.searchsorted(stage.answers, rows)
        new = at[np.isnan(stage.answer_asym[at])]
        if new.size:
            stage.answer_asym[new] = terms.similarities.scores(
                *self.docs.segments("answer_asym", stage.answers[new]))
        return stage.answer_asym[at]

    def _tfidf(self, terms: QueryTerms, counts: np.ndarray, held: np.ndarray,
               answer_rows: np.ndarray) -> np.ndarray:
        """`tfidf_score` of the query against each answer's indexed text, from
        its counts of the query words `held` in the vocabulary (a row per
        answer) and its stored norm."""
        words = terms.words
        counts_q = np.array([terms.bag[w] for w in words.words], dtype=np.int64)
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
            for word in qc.terms.novel_words:
                self.store.word_vecs.pop(word, None)

    def _antonym_free(self, qc: QueryContext, rows: np.ndarray, view: str) -> np.ndarray:
        """Whether each candidate holds none of the query's antonyms
        (`AntonymQueryContext.score` is 0) in the text of its filter's view."""
        if not len(qc.antonym_ids):
            return np.ones(len(rows), dtype=bool)
        return ~self.docs.holds_any(view, rows, qc.antonym_ids)

    def _funnel(self, qc: QueryContext, config: ft.WeightConfig,
                final_n: int) -> SearchResult:
        diagnostics: dict = {"stage_counts": {}}
        counts = diagnostics["stage_counts"]
        terms = qc.terms
        if not terms.bag:
            diagnostics["empty_query"] = True
            return SearchResult(entries=[], diagnostics=diagnostics)

        # Lexical thread retrieval and three of the four similarity features,
        # then the thread-level antonym filter. Thread rows ascend with
        # question ids, so a row breaks a tie as the id would.
        stage = self._thread_stage(terms, config.bm25_top)
        rows, columns = stage.rows, stage.columns
        counts["bm25_threads"] = len(rows)
        if config.filter_threads:
            free = self._antonym_free(qc, rows, "thread_antonym")
            rows = rows[free]
            columns = {name: column[free] for name, column in columns.items()}
        counts["after_thread_filter"] = len(rows)

        # Stage 1: the four similarity features; stage 2 reuses them.
        table = {"sentence": self._sentence(terms, rows), **columns}
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

        # Lexical answer retrieval over the surviving threads' answers, from
        # their counts of the query's vocabulary terms (a column per term, in
        # sorted order). The answer rows run thread after thread, in stage-2
        # order, and each carries its thread's stage-2 score.
        rows = rows[kept]
        held = terms.vocab_ids >= 0
        answer_rows, offsets = self.docs.answer_rows(rows)
        term_counts = self.docs.term_counts("answer_text", answer_rows, terms.vocab_ids[held])
        thread_score = np.repeat(fused[kept], np.diff(offsets))
        answer_ids = self.docs.answer_ids[answer_rows]
        # Positions index answer_rows.
        positions, _ = bm25_table(term_counts, self.docs.answer_len[answer_rows], answer_ids,
                                  config.answer_k)
        if not len(positions) and len(answer_rows):
            # Every query term the answers hold is in all of them, so its idf
            # is log10(N/N) = 0 (a single surviving answer is the usual case):
            # the answer features alone rank the surviving answers.
            positions = np.arange(min(len(answer_rows), config.answer_k))
            diagnostics["answer_bm25_fallback"] = True
        counts["bm25_answers"] = len(positions)

        # Answer-level antonym filter
        if config.filter_answers:
            positions = positions[self._antonym_free(qc, answer_rows[positions],
                                                      "answer_antonym")]
        counts["after_answer_filter"] = len(positions)

        # Answer features, fusion and the final cut
        rows = answer_rows[positions]
        table = {
            "asym": self._answer_asym(terms, stage, rows),
            "tfidf": self._tfidf(terms, term_counts[positions], held, rows),
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
