"""From-scratch inverted index with BM25 scoring.

An index holds its postings in compressed sparse row (CSR) form, the layout
of the inverted-file literature (Zobel & Moffat, "Inverted files for text
search engines", ACM CSUR 2006): the terms in sorted order, and for the i-th
term the entries `indptr[i]:indptr[i+1]` of two parallel arrays, the
document rows (ascending) and the term frequencies. Row r is the document
`doc_ids[r]` (ascending), of length `doc_len[r]`, and with the sum of
squared term frequencies `doc_sumsq[r]`, the norm of the `tf` feature.

No index is kept on disk. The thread index is the inverted file of the
forward store `documents.DocumentStore`, made at load by
`DocumentStore.thread_index`; it and `build_index` (from word bags) share
one assembly from (row, term id, count) entries, `assemble_index`. The
answer index is built per query over the surviving threads' answers from
their counts of the query's terms, which the store gathers; it holds only
those terms. Each index computes every posting's BM25 term once
(`InvertedIndex.impacts`), and one `bm25_search` scores both. IDF inside
BM25 is log10(N/df), the same definition the rest of the scoring stack uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

# The BM25 term-frequency saturation and length normalization.
BM25_K = 1.2
BM25_B = 0.9


@dataclass
class IndexStats:
    n_docs: int = 0
    avgdl: float = 0.0


class InvertedIndex:
    """Postings in CSR form (see the module docstring). `doc_sumsq` is None
    for the query-term answer index, which cannot know whole-document sums."""

    def __init__(self, terms: list[str], indptr: np.ndarray, rows: np.ndarray,
                 tfs: np.ndarray, doc_ids: np.ndarray, doc_len: np.ndarray,
                 doc_sumsq: np.ndarray | None):
        self.terms = terms
        self.indptr = indptr
        self.rows = rows
        self.tfs = tfs
        self.doc_ids = doc_ids
        self.doc_len = doc_len
        self.doc_sumsq = doc_sumsq
        n_docs = len(doc_ids)
        avgdl = int(doc_len.sum()) / n_docs if n_docs else 0.0
        self.stats = IndexStats(n_docs=n_docs, avgdl=avgdl)
        # term -> its postings' (start, end)
        bounds = indptr.tolist()
        self._spans = dict(zip(terms, zip(bounds, bounds[1:])))
        # Each posting's BM25 term, idf * tf * (k + 1) / (tf + k * (1 - b +
        # b * dl / avgdl)), with the operations of a loop over the postings,
        # so a score sums the same floats as that loop; in place, so a load
        # holds two posting-sized float arrays, not five.
        dfs = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        k, b = BM25_K, BM25_B
        norm = doc_len[rows] * b
        norm /= avgdl
        norm += 1.0 - b
        norm *= k
        norm += tfs
        self.impacts = np.repeat([math.log10(n_docs / df) if df else 0.0 for df in dfs], dfs)
        self.impacts *= tfs
        self.impacts *= k + 1.0
        self.impacts /= norm

    def spans(self, terms: Iterable[str]) -> list[tuple[int, int]]:
        """(start, end) of each term's postings; (0, 0) for a term no document holds."""
        return [self._spans.get(term, (0, 0)) for term in terms]

    def postings(self, term: str) -> list[tuple[int, int]]:
        """(doc_id, tf) of each document holding the term, by ascending doc_id."""
        (lo, hi), = self.spans([term])
        return list(zip(self.doc_ids[self.rows[lo:hi]].tolist(), self.tfs[lo:hi].tolist()))


def gather(values: np.ndarray, spans: list[tuple[int, int]]) -> np.ndarray:
    """The entries of a per-posting array over `spans`, one span after another."""
    return np.concatenate([values[lo:hi] for lo, hi in spans] or [values[:0]])


def assemble_index(terms: Sequence[str], rows: np.ndarray, term_ids: np.ndarray,
                   counts: np.ndarray, doc_ids: np.ndarray) -> InvertedIndex:
    """The index of (document row, term id, count) entries, in any order.
    `term_ids` index the sorted `terms`, and row r is the document `doc_ids[r]`
    (ascending). The counts of equal (term, row) entries are summed, and
    terms no entry holds are left out."""
    n_docs = len(doc_ids)
    # Each entry as one int64, (term, row) above its count, so that a plain
    # sort orders them; this holds while terms x documents x the largest count
    # stays below 2**63. In-place arithmetic and `del` bound the memory.
    shift = int(counts.max(initial=0)).bit_length()
    keys = term_ids.astype(np.int64)
    keys *= n_docs
    keys += rows
    keys <<= shift
    keys |= counts
    keys.sort()
    sums = keys & ((1 << shift) - 1)
    keys >>= shift
    np.cumsum(sums, out=sums)
    # The last entry of each (term, row) holds the running sum of its counts.
    last = np.flatnonzero(np.append(keys[1:] != keys[:-1], len(keys) > 0))
    sums, keys = sums[last], keys[last]
    del last
    tfs = np.diff(sums, prepend=0)
    del sums
    dfs = np.bincount(keys // max(n_docs, 1), minlength=len(terms))
    keys %= max(n_docs, 1)
    posting_rows = keys.astype(np.int32)
    del keys
    held = np.flatnonzero(dfs)
    indptr = np.zeros(len(held) + 1, dtype=np.int64)
    np.cumsum(dfs[held], out=indptr[1:])
    # Sums of integers, exact in float64 below 2**53.
    doc_len, doc_sumsq = (np.bincount(posting_rows, weights=w, minlength=n_docs).astype(np.int64)
                          for w in (tfs, tfs * tfs))
    return InvertedIndex([terms[i] for i in held.tolist()], indptr, posting_rows,
                         tfs.astype(np.int32), doc_ids, doc_len, doc_sumsq)


def build_index(docs: Mapping[int, Mapping[str, int]]) -> InvertedIndex:
    """Index a doc_id -> bag mapping. An empty mapping yields a valid empty index."""
    doc_ids = sorted(docs)
    bags = [docs[d] for d in doc_ids]
    flat_terms = [term for bag in bags for term in bag]
    terms = sorted(set(flat_terms))
    term_id = dict(zip(terms, range(len(terms))))
    sizes = np.fromiter(map(len, bags), dtype=np.int64, count=len(bags))
    return assemble_index(
        terms, np.repeat(np.arange(len(bags)), sizes),
        np.fromiter(map(term_id.__getitem__, flat_terms), dtype=np.int64,
                    count=len(flat_terms)),
        np.fromiter((tf for bag in bags for tf in bag.values()), dtype=np.int64,
                    count=len(flat_terms)),
        np.array(doc_ids, dtype=np.int64))


def bm25_search(index: InvertedIndex, query: Iterable[str], top_n: int) -> list[tuple[int, float]]:
    """Rank documents against the query bag.

    Scores follow the saturating term-frequency formula with
    idf(q) = log10(N/df); zero-score documents are excluded; ties break by
    ascending doc_id; at most top_n results.

    The postings' BM25 terms (`InvertedIndex.impacts`) are summed per
    document by `np.bincount` in sorted-term order, so every score is the
    same chain of float additions as a loop over the terms.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    if index.stats.n_docs == 0:
        return []
    spans = index.spans(sorted(set(query)))
    rows = gather(index.rows, spans)
    if not len(rows):
        return []
    scores = np.bincount(rows, weights=gather(index.impacts, spans),
                         minlength=index.stats.n_docs)
    hit = np.flatnonzero(scores > 0.0)
    # Rows ascend with doc ids, so the row breaks a tie as the id would.
    top = hit[np.lexsort((hit, -scores[hit]))[:top_n]]
    return list(zip(index.doc_ids[top].tolist(), scores[top].tolist()))


def build_ephemeral_answer_index(terms: Sequence[str], counts: np.ndarray, doc_ids: np.ndarray,
                                 doc_len: np.ndarray) -> InvertedIndex:
    """Per-query index over the retained answers of the surviving threads.

    Row r of `counts` holds answer `doc_ids[r]`'s count of each of `terms`
    (a column each, in sorted order), as `DocumentStore.term_counts` gathers
    them; `doc_len` holds the answers' whole lengths. Only the postings of
    `terms` are kept, but N, the doc lengths and avgdl cover whole
    documents, so `bm25_search` with a query made of `terms` scores exactly
    as over the full index. Rows are indexed by ascending answer id.
    """
    order = np.argsort(doc_ids, kind="stable")
    held = np.flatnonzero(counts.any(axis=0))
    tfs = counts[order][:, held].T  # a row per held term
    term_rows, rows = np.nonzero(tfs)
    indptr = np.zeros(len(held) + 1, dtype=np.int64)
    np.cumsum(np.bincount(term_rows, minlength=len(held)), out=indptr[1:])
    return InvertedIndex([terms[j] for j in held.tolist()], indptr, rows.astype(np.int32),
                         tfs[term_rows, rows].astype(np.int32), doc_ids[order].astype(np.int64),
                         doc_len[order].astype(np.int64), None)
