"""From-scratch inverted index with BM25 scoring.

An index holds its postings in compressed sparse row (CSR) form, the layout
of the inverted-file literature (Zobel & Moffat, "Inverted files for text
search engines", ACM CSUR 2006): the terms in sorted order, and for the i-th
term the entries `indptr[i]:indptr[i+1]` of two parallel arrays, the
document rows (ascending) and the term frequencies. Row r is the document
`doc_ids[r]` (ascending), of length `doc_len[r]`, and with the sum of
squared term frequencies `doc_sumsq[r]`, the norm of the `tf` feature.

The thread index is built offline and saved as fixed-dtype `.npy` arrays
(INDEX_ARRAYS) beside a small versioned header (INDEX_HEADER), so a load
parses no JSON beyond the header; `load_index` checks the arrays' dtypes,
shapes and offsets and names the file at fault. The answer index is built
per query over the surviving threads' answers from their counts of the
query's terms, which `documents.DocumentStore` gathers from its term-id
arrays; it holds only those terms and never touches disk. Each index
computes every posting's BM25 term once (`InvertedIndex.impacts`), and one
`bm25_search` scores both. IDF inside BM25 is log10(N/df), the same
definition the rest of the scoring stack uses.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Thread, read_json_object

INDEX_FORMAT = "crowdrank-index"
INDEX_VERSION = 3

DEFAULT_K = 1.2
DEFAULT_B = 0.9

# The saved thread index: a header and one array per file, by dtype.
INDEX_HEADER = "index.header.json"
INDEX_ARRAYS = {
    "terms": np.uint8,       # the sorted terms' UTF-8 bytes, back to back
    "term_ptr": np.int64,    # terms[i] is bytes term_ptr[i]:term_ptr[i+1]
    "indptr": np.int64,
    "rows": np.int32,
    "tfs": np.int32,
    "doc_ids": np.int64,
    "doc_len": np.int64,
    "doc_sumsq": np.int64,
}


def index_file(directory: str | Path, name: str) -> Path:
    """Path of one saved index array (a key of INDEX_ARRAYS)."""
    return Path(directory) / f"index.{name}.npy"


@dataclass
class IndexStats:
    n_docs: int = 0
    avgdl: float = 0.0
    k: float = DEFAULT_K
    b: float = DEFAULT_B


class InvertedIndex:
    """Postings in CSR form (see the module docstring). `doc_sumsq` is None
    for the query-term answer index, which cannot know whole-document sums."""

    def __init__(self, terms: list[str], indptr: np.ndarray, rows: np.ndarray,
                 tfs: np.ndarray, doc_ids: np.ndarray, doc_len: np.ndarray,
                 doc_sumsq: np.ndarray | None, k: float = DEFAULT_K, b: float = DEFAULT_B):
        self.terms = terms
        self.indptr = indptr
        self.rows = rows
        self.tfs = tfs
        self.doc_ids = doc_ids
        self.doc_len = doc_len
        self.doc_sumsq = doc_sumsq
        n_docs = len(doc_ids)
        avgdl = int(doc_len.sum()) / n_docs if n_docs else 0.0
        self.stats = IndexStats(n_docs=n_docs, avgdl=avgdl, k=k, b=b)
        # term -> its postings' (start, end)
        bounds = indptr.tolist()
        self._spans = dict(zip(terms, zip(bounds, bounds[1:])))
        # Each posting's BM25 term, in the expression order of a loop over
        # the postings, so a score sums the same floats as that loop.
        dfs = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        idf = np.repeat([math.log10(n_docs / df) if df else 0.0 for df in dfs], dfs)
        self.impacts = idf * tfs * (k + 1.0) / (tfs + k * (1.0 - b + b * doc_len[rows] / avgdl))

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


def build_index(docs: Mapping[int, Mapping[str, int]], k: float = DEFAULT_K,
                b: float = DEFAULT_B) -> InvertedIndex:
    """Index a doc_id -> bag mapping. An empty mapping yields a valid empty index."""
    doc_ids = sorted(docs)
    bags = [docs[d] for d in doc_ids]
    flat_terms = [term for bag in bags for term in bag]
    flat_tfs = np.fromiter((tf for bag in bags for tf in bag.values()), dtype=np.int64,
                           count=len(flat_terms))
    sizes = np.fromiter(map(len, bags), dtype=np.int64, count=len(bags))
    terms = sorted(set(flat_terms))
    term_id = dict(zip(terms, range(len(terms))))
    term_ids = np.fromiter(map(term_id.__getitem__, flat_terms), dtype=np.intp,
                           count=len(flat_terms))
    indptr = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(np.bincount(term_ids, minlength=len(terms)), out=indptr[1:])
    # The entries are listed by ascending row; a stable sort keeps them so
    # within each term.
    order = np.argsort(term_ids, kind="stable")
    rows = np.repeat(np.arange(len(bags), dtype=np.int32), sizes)
    bounds = np.zeros(len(bags) + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])

    def per_doc(values: np.ndarray) -> np.ndarray:
        """Each document's sum of `values`, which are listed like the entries."""
        sums = np.zeros(len(values) + 1, dtype=np.int64)
        np.cumsum(values, out=sums[1:])
        return sums[bounds[1:]] - sums[bounds[:-1]]

    return InvertedIndex(terms, indptr, rows[order], flat_tfs[order].astype(np.int32),
                         np.array(doc_ids, dtype=np.int64), per_doc(flat_tfs),
                         per_doc(flat_tfs * flat_tfs), k, b)


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


def build_thread_index(threads: Iterable[Thread], k: float = DEFAULT_K,
                       b: float = DEFAULT_B) -> InvertedIndex:
    docs = {t.question.id: thread_document_bag(t) for t in threads}
    return build_index(docs, k=k, b=b)


def build_ephemeral_answer_index(terms: Sequence[str], counts: np.ndarray, doc_ids: np.ndarray,
                                 doc_len: np.ndarray, k: float = DEFAULT_K,
                                 b: float = DEFAULT_B) -> InvertedIndex:
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
                         doc_len[order].astype(np.int64), None, k, b)


def encode_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Strings as their UTF-8 bytes back to back, and the offsets of each."""
    encoded = [s.encode("utf-8") for s in strings]
    ptr = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded)), out=ptr[1:])
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), ptr


def decode_strings(data: np.ndarray, ptr: np.ndarray, data_fault: Callable[[str], ValueError],
                   ptr_fault: Callable[[str], ValueError], noun: str) -> list[str]:
    """`encode_strings` output of sorted distinct strings, back to strings; the
    faults make the error of bad offsets and of bad bytes or order."""
    if not len(ptr) or not _is_pointer(ptr, len(data)):
        raise ptr_fault(f"{noun} offsets do not cover the {noun} bytes")
    raw, bounds = data.tobytes(), ptr.tolist()
    try:
        strings = [raw[lo:hi].decode("utf-8") for lo, hi in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        raise data_fault(f"a {noun} is not UTF-8: {exc}") from None
    if any(s1 >= s2 for s1, s2 in zip(strings, strings[1:])):
        raise data_fault(f"{noun}s are not sorted and distinct")
    return strings


def save_index(index: InvertedIndex, directory: str | Path, meta: dict | None = None) -> None:
    """Write a `build_index` index into `directory` as INDEX_ARRAYS `.npy` files
    and an INDEX_HEADER; fixed dtypes keep the bytes deterministic."""
    terms, term_ptr = encode_strings(index.terms)
    arrays = {"terms": terms, "term_ptr": term_ptr, "indptr": index.indptr, "rows": index.rows,
              "tfs": index.tfs, "doc_ids": index.doc_ids, "doc_len": index.doc_len,
              "doc_sumsq": index.doc_sumsq}
    for name, dtype in INDEX_ARRAYS.items():
        with open(index_file(directory, name), "wb") as fh:
            np.save(fh, np.asarray(arrays[name], dtype=dtype), allow_pickle=False)
    header = {"format": INDEX_FORMAT, "version": INDEX_VERSION,
              "k": index.stats.k, "b": index.stats.b, "meta": meta or {}}
    (Path(directory) / INDEX_HEADER).write_text(
        json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n", "utf-8")


def _read_array(path: Path, dtype) -> np.ndarray:
    """One `.npy` array; numpy's `.npy` reader (`np.load` calls it for a `.npy`
    file) refuses a zip or a pickle, which `np.load` would open."""
    try:
        with open(path, "rb") as fh:
            array = np.lib.format.read_array(fh, allow_pickle=False)
    except FileNotFoundError:
        raise ValueError(f"{path}: missing; rerun `crowdrank build-index`") from None
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{path}: not a readable .npy array: {exc}") from None
    if array.dtype != np.dtype(dtype) or array.ndim != 1:
        raise ValueError(f"{path}: holds a {array.ndim}-d {array.dtype} array, "
                         f"not a 1-d {np.dtype(dtype)} one")
    return array


def _is_pointer(ptr: np.ndarray, end: int) -> bool:
    """An offsets array: starts at 0, never decreases, ends at `end`."""
    return ptr[0] == 0 and ptr[-1] == end and not np.any(ptr[1:] < ptr[:-1])


def load_index(directory: str | Path) -> InvertedIndex:
    """Read `save_index` output; ValueError names the file at fault."""
    directory = Path(directory)
    header_path = directory / INDEX_HEADER
    if not header_path.is_file() and (directory / "index.json").is_file():
        raise ValueError(f"{directory / 'index.json'}: an index of an older format; "
                         f"rerun `crowdrank build-index`")
    try:
        header = read_json_object(header_path)
    except FileNotFoundError:
        raise ValueError(f"{header_path}: missing; rerun `crowdrank build-index`") from None
    if header.get("format") != INDEX_FORMAT:
        raise ValueError(f"{header_path}: not an index header")
    version = header.get("version")
    if version != INDEX_VERSION:
        raise ValueError(f"{header_path}: unsupported index version {version!r} (this program "
                         f"reads version {INDEX_VERSION}); rerun `crowdrank build-index`")
    params = [header.get(key) for key in ("k", "b")]
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) and math.isfinite(p)
               for p in params):
        raise ValueError(f"{header_path}: k and b must be finite numbers, got {params}")

    a = {name: _read_array(index_file(directory, name), dtype)
         for name, dtype in INDEX_ARRAYS.items()}

    def fault(name: str, what: str) -> ValueError:
        return ValueError(f"{index_file(directory, name)}: {what}")

    terms = decode_strings(a["terms"], a["term_ptr"], partial(fault, "terms"),
                           partial(fault, "term_ptr"), "term")
    indptr, rows = a["indptr"], a["rows"]
    if len(indptr) != len(terms) + 1:
        raise fault("indptr", f"term count {len(terms)} does not match {len(indptr)} offsets")
    if not _is_pointer(indptr, len(rows)):
        raise fault("indptr", f"offsets do not run from 0 up to the {len(rows)} postings")
    if len(a["tfs"]) != len(rows):
        raise fault("tfs", f"{len(a['tfs'])} tfs for {len(rows)} postings")
    doc_ids = a["doc_ids"]
    if np.any(doc_ids[1:] <= doc_ids[:-1]):
        raise fault("doc_ids", "doc ids are not ascending and distinct")
    for name in ("doc_len", "doc_sumsq"):
        if len(a[name]) != len(doc_ids):
            raise fault(name, f"{len(a[name])} values for {len(doc_ids)} documents")
    if len(rows) and (rows.min() < 0 or rows.max() >= len(doc_ids)):
        raise fault("rows", f"a document row is outside 0..{len(doc_ids) - 1}")
    term_start = np.zeros(len(rows), dtype=bool)
    term_start[indptr[:-1][indptr[:-1] < len(rows)]] = True
    if np.any((rows[1:] <= rows[:-1]) & ~term_start[1:]):
        raise fault("rows", "a term's document rows are not ascending and distinct")
    return InvertedIndex(terms, indptr, rows, a["tfs"], doc_ids, a["doc_len"],
                         a["doc_sumsq"], k=float(params[0]), b=float(params[1]))
