"""From-scratch inverted index with BM25 scoring.

The thread index is built offline and persisted with a versioned header;
`index.json` version 2 also stores each document's sum of squared term
frequencies, the norm of the `tf` feature. The answer index is rebuilt per
query over the surviving threads' answers, holds only the query's terms and
never touches disk. IDF inside BM25 is log10(N/df), the same definition the
rest of the scoring stack uses.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .corpus import ProcessedPost, Thread

INDEX_FORMAT = "crowdrank-index"
INDEX_VERSION = 2

DEFAULT_K = 1.2
DEFAULT_B = 0.9


@dataclass
class IndexStats:
    n_docs: int = 0
    df: dict[str, int] = field(default_factory=dict)
    avgdl: float = 0.0
    k: float = DEFAULT_K
    b: float = DEFAULT_B


class InvertedIndex:
    """postings: term -> [(doc_id, tf)] in the order documents were added
    (`build_index` adds them by ascending doc_id); doc_len: id -> |T|;
    doc_sumsq: id -> sum of tf**2 over the document's terms (`add_document`
    fills it; the query-term answer index leaves it empty)."""

    def __init__(self, k: float = DEFAULT_K, b: float = DEFAULT_B):
        self.postings: dict[str, list[tuple[int, int]]] = {}
        self.doc_len: dict[int, int] = {}
        self.doc_sumsq: dict[int, int] = {}
        self.stats = IndexStats(k=k, b=b)
        self._total_len = 0

    def add_document(self, doc_id: int, bag: Mapping[str, int]) -> None:
        if doc_id in self.doc_len:
            raise ValueError(f"duplicate doc_id {doc_id}")
        length = sum(bag.values())
        self.doc_len[doc_id] = length
        sumsq = 0
        for term, tf in bag.items():
            plist = self.postings.setdefault(term, [])
            plist.append((doc_id, tf))
            self.stats.df[term] = len(plist)
            sumsq += tf * tf
        self.doc_sumsq[doc_id] = sumsq
        self.stats.n_docs += 1
        self._total_len += length
        self.stats.avgdl = self._total_len / self.stats.n_docs

    def _count_stats(self) -> None:
        """N, df and avgdl from `doc_len` and `postings` filled directly."""
        self.stats.n_docs = len(self.doc_len)
        self.stats.df = {t: len(p) for t, p in self.postings.items()}
        self._total_len = sum(self.doc_len.values())
        if self.stats.n_docs:
            self.stats.avgdl = self._total_len / self.stats.n_docs


def build_index(docs: Mapping[int, Mapping[str, int]], k: float = DEFAULT_K,
                b: float = DEFAULT_B) -> InvertedIndex:
    """Index a doc_id -> bag mapping. An empty mapping yields a valid empty index."""
    index = InvertedIndex(k=k, b=b)
    for doc_id in sorted(docs):
        index.add_document(doc_id, docs[doc_id])
    return index


def bm25_search(index: InvertedIndex, query: Iterable[str], top_n: int) -> list[tuple[int, float]]:
    """Rank documents against the query bag.

    Scores follow the saturating term-frequency formula with
    idf(q) = log10(N/df); zero-score documents are excluded; ties break by
    ascending doc_id; at most top_n results.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    stats = index.stats
    if stats.n_docs == 0:
        return []
    scores: dict[int, float] = {}
    k, b, avgdl = stats.k, stats.b, stats.avgdl
    for term in sorted(set(query)):
        plist = index.postings.get(term)
        if not plist:
            continue
        idf = math.log10(stats.n_docs / stats.df[term])
        for doc_id, tf in plist:
            norm = tf + k * (1.0 - b + b * index.doc_len[doc_id] / avgdl)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (k + 1.0) / norm
    ranked = [(doc_id, s) for doc_id, s in scores.items() if s > 0.0]
    ranked.sort(key=lambda e: (-e[1], e[0]))
    return ranked[:top_n]


def thread_document_bag(thread: Thread) -> Counter:
    """Indexed text of a thread: title + question body + answers' bodies + answers' code.

    Question code is left out, although `artifacts.thread_content_tokens`
    (idf.json, contents.txt) counts it: the BM25 and tf oracles in
    `perfbench/checks.py` assume this split.
    """
    bag = Counter(thread.question.title_bag)
    bag.update(thread.question.body_bag)
    for answer in thread.answers:
        bag.update(answer.body_bag)
        bag.update(answer.code_bag)
    return bag


def answer_document_bag(thread: Thread, answer: ProcessedPost) -> Counter:
    """Indexed text of an answer: parent title + parent body + its body + its code.

    The same bag is the target of the answer's tf-idf feature, whose float
    sums follow this key order.
    """
    bag = Counter(thread.question.title_bag)
    bag.update(thread.question.body_bag)
    bag.update(answer.body_bag)
    bag.update(answer.code_bag)
    return bag


def build_thread_index(threads: Iterable[Thread], k: float = DEFAULT_K,
                       b: float = DEFAULT_B) -> InvertedIndex:
    docs = {t.question.id: thread_document_bag(t) for t in threads}
    return build_index(docs, k=k, b=b)


def build_ephemeral_answer_index(threads: Iterable[Thread], terms: Iterable[str],
                                 k: float = DEFAULT_K, b: float = DEFAULT_B) -> InvertedIndex:
    """Per-query index over the retained answers of the surviving threads.

    An answer's document is its `answer_document_bag`, but only the postings
    of `terms` are kept. N, the doc lengths and avgdl cover whole documents,
    so `bm25_search` with a query made of `terms` scores exactly as over the
    full index.
    """
    terms = sorted(set(terms))
    index = InvertedIndex(k=k, b=b)
    for thread in threads:
        title, body = thread.question.title_bag, thread.question.body_bag
        question_len = sum(title.values()) + sum(body.values())
        question_tfs = [title.get(t, 0) + body.get(t, 0) for t in terms]
        for answer in thread.answers:
            index.doc_len[answer.id] = (question_len + sum(answer.body_bag.values())
                                        + sum(answer.code_bag.values()))
            for term, question_tf in zip(terms, question_tfs):
                tf = question_tf + answer.body_bag.get(term, 0) + answer.code_bag.get(term, 0)
                if tf:
                    index.postings.setdefault(term, []).append((answer.id, tf))
    index._count_stats()
    return index


def save_index(index: InvertedIndex, path: str | Path, meta: dict | None = None) -> None:
    """Persist with a versioned header; serialization is canonical for determinism."""
    payload = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "k": index.stats.k,
        "b": index.stats.b,
        "doc_len": {str(d): l for d, l in sorted(index.doc_len.items())},
        "doc_sumsq": {str(d): s for d, s in sorted(index.doc_sumsq.items())},
        "postings": {t: sorted(p) for t, p in index.postings.items()},
        "meta": meta or {},
    }
    # One json.dumps string: json.dump on the handle runs the pure-Python encoder.
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def load_index(path: str | Path) -> InvertedIndex:
    """Read `save_index` output; ValueError says what is wrong with the file."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
        raise ValueError(f"not an index file: {path}")
    version = payload.get("version")
    if version != INDEX_VERSION:
        raise ValueError(f"{path}: unsupported index version {version!r} (this program "
                         f"reads version {INDEX_VERSION}); rerun `crowdrank build-index`")
    missing = [key for key in ("k", "b", "doc_len", "doc_sumsq", "postings")
               if key not in payload]
    if missing:
        raise ValueError(f"{path}: index file lacks {', '.join(missing)}")
    try:
        index = InvertedIndex(k=float(payload["k"]), b=float(payload["b"]))
        index.doc_len = {int(d): int(l) for d, l in payload["doc_len"].items()}
        index.doc_sumsq = {int(d): int(s) for d, s in payload["doc_sumsq"].items()}
        index.postings = {t: [(int(d), int(tf)) for d, tf in p]
                          for t, p in payload["postings"].items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed index file: {exc}") from None
    if index.doc_sumsq.keys() != index.doc_len.keys():
        raise ValueError(f"{path}: doc_sumsq and doc_len name different documents")
    index._count_stats()
    return index
