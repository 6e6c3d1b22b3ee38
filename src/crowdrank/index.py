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
one assembly from (row, term id, count) entries, `assemble_index`, which is
`merge_entries` with the terms as owners: the one merge of (owner, id,
count) entries into CSR rows, which the document store uses too. An index
computes every posting's BM25 term once (`InvertedIndex.impacts`), and
`bm25_rows` sums them per document. The answer stage builds no index: it
scores the surviving answers' table of query-term counts, which the store
gathers, with `bm25_table`. Both take their terms from one formula,
`bm25_impacts`, and make one top-N cut, `top_positive`. IDF inside BM25 is
log10(N/df), the same definition the rest of the scoring stack uses.
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

    @classmethod
    def of(cls, doc_len: np.ndarray) -> "IndexStats":
        """N and avgdl of the documents of lengths `doc_len`."""
        n_docs = len(doc_len)
        return cls(n_docs=n_docs, avgdl=int(doc_len.sum()) / n_docs if n_docs else 0.0)


class InvertedIndex:
    """Postings in CSR form (see the module docstring)."""

    def __init__(self, terms: list[str], indptr: np.ndarray, rows: np.ndarray,
                 tfs: np.ndarray, doc_ids: np.ndarray, doc_len: np.ndarray,
                 doc_sumsq: np.ndarray):
        self.terms = terms
        self.indptr = indptr
        self.rows = rows
        self.tfs = tfs
        self.doc_ids = doc_ids
        self.doc_len = doc_len
        self.doc_sumsq = doc_sumsq
        self.stats = IndexStats.of(doc_len)
        # term -> its postings' (start, end)
        bounds = indptr.tolist()
        self._spans = dict(zip(terms, zip(bounds, bounds[1:])))
        self.impacts = bm25_impacts([hi - lo for lo, hi in zip(bounds, bounds[1:])], rows, tfs,
                                    doc_len)

    def spans(self, terms: Iterable[str]) -> list[tuple[int, int]]:
        """(start, end) of each term's postings; (0, 0) for a term no document holds."""
        return [self._spans.get(term, (0, 0)) for term in terms]

    def postings(self, term: str) -> list[tuple[int, int]]:
        """(doc_id, tf) of each document holding the term, by ascending doc_id."""
        (lo, hi), = self.spans([term])
        return list(zip(self.doc_ids[self.rows[lo:hi]].tolist(), self.tfs[lo:hi].tolist()))


def bm25_impacts(dfs: Sequence[int], rows: np.ndarray, tfs: np.ndarray,
                 doc_len: np.ndarray) -> np.ndarray:
    """Each posting's BM25 term, idf * tf * (k + 1) / (tf + k * (1 - b + b *
    dl / avgdl)) with idf = log10(N/df). The postings run term after term,
    `dfs[i]` of them for the i-th term; posting p counts `tfs[p]` in the
    document `rows[p]`. N and avgdl cover every document of `doc_len`.

    The operations are those of a loop over the postings, so a score sums
    the same floats as that loop; they run in place, so a load holds two
    posting-sized float arrays, not five.
    """
    stats = IndexStats.of(doc_len)
    k, b = BM25_K, BM25_B
    norm = doc_len[rows] * b
    norm /= stats.avgdl
    norm += 1.0 - b
    norm *= k
    norm += tfs
    impacts = np.repeat([math.log10(stats.n_docs / df) if df else 0.0 for df in dfs], dfs)
    impacts *= tfs
    impacts *= k + 1.0
    impacts /= norm
    return impacts


def top_positive(scores: np.ndarray, top_n: int, keys: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The positions of at most `top_n` positive scores and those scores, by
    descending score; ties break by ascending key (by position when `keys`
    is None)."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    hit = np.flatnonzero(scores > 0.0)
    top = hit[np.lexsort((hit if keys is None else keys[hit], -scores[hit]))[:top_n]]
    return top, scores[top]


def gather(values: np.ndarray, spans: list[tuple[int, int]]) -> np.ndarray:
    """The entries of a per-posting array over `spans`, one span after another."""
    return np.concatenate([values[lo:hi] for lo, hi in spans] or [values[:0]])


def merge_entries(ids: np.ndarray, owner: np.ndarray, n: int, size: int,
                  counts: np.ndarray | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The distinct ids of each of `n` owners, ascending, as one flat int32
    array and offsets, from entries with those ids (below `size`) and owners
    (below `n`), in any order; with `counts` (at least 0), also the summed
    count of each distinct id, as int64 (else None). The keys are made in
    `owner`'s memory when it has their dtype, and it is overwritten."""
    # A key is (owner * size + id) << bits | count, so that one plain sort
    # orders the entries by owner and id; every key, and `size`, is below
    # `span`. int32 keys sort faster than int64 ones.
    bits = 0 if counts is None else int(counts.max(initial=0)).bit_length()
    size = max(size, 1)
    span = max(n, 1) * size << bits
    if span >= 2**63:
        raise OverflowError(f"{n} owners x {size} ids x {bits}-bit counts exceed 64-bit keys")
    dtype = np.int32 if span < 2**31 else np.int64
    keys = owner.astype(dtype, copy=False)
    keys *= dtype(size)
    keys += ids
    sums = None
    if counts is not None:
        keys <<= bits
        keys |= counts
    keys.sort()
    if counts is not None:
        # The counts' running sums; a run of equal (owner, id) sums to the
        # difference between those at its last entry and at the run before.
        sums = (keys & dtype((1 << bits) - 1)).astype(np.int64, copy=False)
        np.cumsum(sums, out=sums)
        keys >>= bits
    last = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    keys = keys[last]
    if sums is not None:
        sums = np.diff(sums[last], prepend=0)
    ptr = np.searchsorted(keys, np.arange(n + 1, dtype=dtype) * dtype(size))
    keys %= dtype(size)
    return keys.astype(np.int32, copy=False), ptr, sums


def assemble_index(terms: Sequence[str], rows: np.ndarray, term_ids: np.ndarray,
                   counts: np.ndarray, doc_ids: np.ndarray) -> InvertedIndex:
    """The index of (document row, term id, count) entries, in any order.
    `term_ids` index the sorted `terms`, and row r is the document `doc_ids[r]`
    (ascending). The counts of equal (term, row) entries are summed, and
    terms no entry holds are left out. `term_ids` may be overwritten."""
    n_docs = len(doc_ids)
    # Each term's postings are its distinct rows: the merge with terms as owners.
    posting_rows, ptr, tfs = merge_entries(rows, term_ids, len(terms), n_docs, counts)
    held = np.flatnonzero(ptr[1:] > ptr[:-1])
    indptr = np.zeros(len(held) + 1, dtype=np.int64)
    indptr[1:] = ptr[held + 1]
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


def bm25_rows(index: InvertedIndex, query: Iterable[str], top_n: int,
              ) -> tuple[np.ndarray, np.ndarray]:
    """Rank documents against the query bag: the rows of at most `top_n`
    documents and their scores, by descending score.

    Scores follow the saturating term-frequency formula with
    idf(q) = log10(N/df); zero-score documents are excluded; ties break by
    ascending row, which is ascending doc_id.

    The postings' BM25 terms (`InvertedIndex.impacts`) are summed per
    document by `np.bincount` in sorted-term order, so every score is the
    same chain of float additions as a loop over the terms.
    """
    spans = index.spans(sorted(set(query)))
    scores = np.bincount(gather(index.rows, spans), weights=gather(index.impacts, spans),
                         minlength=index.stats.n_docs)
    return top_positive(scores, top_n)


def bm25_search(index: InvertedIndex, query: Iterable[str], top_n: int) -> list[tuple[int, float]]:
    """`bm25_rows` as (doc_id, score) pairs."""
    rows, scores = bm25_rows(index, query, top_n)
    return list(zip(index.doc_ids[rows].tolist(), scores.tolist()))


def bm25_table(counts: np.ndarray, doc_len: np.ndarray, keys: np.ndarray, top_n: int,
               ) -> tuple[np.ndarray, np.ndarray]:
    """Rank documents by BM25 from a table of their counts of the query's
    terms: a row per document, of length `doc_len`, and a column per term,
    in sorted order (a column of zeros is a term no document holds). The
    rows of at most `top_n` documents and their scores, by descending score;
    zero-score documents are excluded, and ties break by ascending key.

    N, df and avgdl come from the table, so the scores are those `bm25_rows`
    gives over an index of the same documents, to the last bit: each term
    is `bm25_impacts`, summed per document in column order.
    """
    columns, rows = np.nonzero(counts.T)
    dfs = np.bincount(columns, minlength=counts.shape[1]).tolist()
    impacts = bm25_impacts(dfs, rows, counts[rows, columns], doc_len)
    return top_positive(np.bincount(rows, weights=impacts, minlength=len(doc_len)), top_n, keys)
