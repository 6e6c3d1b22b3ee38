"""The thread document store: every text part as term-id arrays.

Each text part of a thread (its title and its question body) and of an
answer (its body and its code) is held in compressed sparse row (CSR) form,
the layout of an index's postings: row r holds the distinct term ids
`ids[ptr[r]:ptr[r + 1]]`, ascending, and their counts beside them. Term ids
index the sorted idf.json words, the same ids as `SearchEngine.vocab`.
Thread rows follow ascending question id; answer rows follow the threads,
each thread's answers in its own order. Per answer the store also holds its
id, its thread's row, the norm of its tf-idf vector and its method-call ids
(`features.extract_methods`, with repeats) over a sorted method vocabulary.

`build_documents` writes the arrays from `Thread`s; `build-index` saves them
as fixed-dtype `.npy` files (DOCS_ARRAYS), and `load_documents` checks them
and names the file at fault. The store is the only text index on disk: the
thread BM25 index is its transpose, made at load (`thread_index`). A search
gathers rows of these arrays for its candidates: the asym segments, the
answer index's term counts, tf-idf and top-method all read them, not the
threads' word bags.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Thread
from .embeddings import IdfMap
from .features import extract_methods, tfidf_norms
from .index import InvertedIndex, assemble_index, build_ephemeral_answer_index

THREAD_PARTS = ("title", "body")
ANSWER_PARTS = ("answer_body", "code")

# The saved store, one array per file, by dtype.
DOCS_ARRAYS = {
    **{f"{part}_{name}": dtype for part in THREAD_PARTS + ANSWER_PARTS
       for name, dtype in (("ptr", np.int64), ("ids", np.int32), ("counts", np.int32))},
    "answer_ids": np.int64,
    "answer_thread": np.int32,   # the row of the answer's thread
    "tfidf_norm": np.float64,
    "method_ptr": np.int64,      # answer a calls method_ids[method_ptr[a]:method_ptr[a + 1]]
    "method_ids": np.int32,
    "method_names": np.uint8,    # the sorted method names' UTF-8 bytes, back to back
    "method_name_ptr": np.int64,
}


def docs_file(directory: str | Path, name: str) -> Path:
    """Path of one saved store array (a key of DOCS_ARRAYS)."""
    return Path(directory) / f"docs.{name}.npy"


def take(ptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the entries of `rows` in a CSR layout, row after row,
    and the offsets of each row's run among them."""
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lengths), offsets


@dataclass
class TextPart:
    """One text part of every thread or answer, in CSR form (module docstring)."""
    ptr: np.ndarray
    ids: np.ndarray
    counts: np.ndarray

    def lengths(self) -> np.ndarray:
        """Each row's number of words, repeats included."""
        sums = np.zeros(len(self.counts) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=sums[1:])
        return sums[self.ptr[1:]] - sums[self.ptr[:-1]]


class DocumentStore:
    """The text parts, answers and method calls of every thread (module docstring)."""

    def __init__(self, parts: Mapping[str, TextPart], answer_ids: np.ndarray,
                 answer_thread: np.ndarray, tfidf_norm: np.ndarray, method_ptr: np.ndarray,
                 method_ids: np.ndarray, method_names: list[str], vocab_size: int):
        self.parts = dict(parts)
        self.answer_ids = answer_ids
        self.answer_thread = answer_thread
        self.tfidf_norm = tfidf_norm
        self.method_ptr = method_ptr
        self.method_ids = method_ids
        self.method_names = method_names
        self.vocab_size = vocab_size
        self.n_threads = len(self.parts["title"].ptr) - 1
        # Thread r's answers are the answer rows answer_ptr[r]:answer_ptr[r + 1].
        self.answer_ptr = np.searchsorted(answer_thread, np.arange(self.n_threads + 1))
        lengths = {name: part.lengths() for name, part in self.parts.items()}
        # The length of an answer's indexed text: its thread's title and
        # question body, its own body and code.
        self.answer_len = (lengths["title"][answer_thread] + lengths["body"][answer_thread]
                           + lengths["answer_body"] + lengths["code"])

    def thread_index(self, words: Sequence[str], doc_ids: np.ndarray) -> InvertedIndex:
        """The thread BM25 index: a document per thread row, question id
        `doc_ids[row]`, of its THREAD_PARTS and its answers' ANSWER_PARTS (the
        question's code is not indexed); `words` is the sorted vocabulary."""
        parts = [self.parts[name] for name in THREAD_PARTS + ANSWER_PARTS]
        threads = np.arange(self.n_threads, dtype=np.int32)
        owners = [threads] * len(THREAD_PARTS) + [self.answer_thread] * len(ANSWER_PARTS)
        rows = np.concatenate([np.repeat(owner, np.diff(part.ptr))
                               for owner, part in zip(owners, parts)])
        return assemble_index(words, rows, np.concatenate([part.ids for part in parts]),
                              np.concatenate([part.counts for part in parts]), doc_ids)

    def answer_rows(self, thread_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The answer rows of the threads, thread after thread, and the offsets
        of each thread's run among them."""
        return take(self.answer_ptr, thread_rows)

    def ids(self, part: str, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The term ids of `rows` of a part, as one flat array and offsets."""
        positions, offsets = take(self.parts[part].ptr, rows)
        return self.parts[part].ids[positions].astype(np.int64), offsets

    def segments(self, parts: Sequence[tuple[str, np.ndarray, np.ndarray]], n_segments: int,
                 ) -> tuple[np.ndarray, np.ndarray]:
        """The distinct term ids of each segment, ascending, as one flat array
        and offsets. For each (part, rows, labels), the ids of row `rows[i]`
        of the part join segment `labels[i]`."""
        size = self.vocab_size
        keys = []
        for part, rows, labels in parts:
            ids, offsets = self.ids(part, rows)
            keys.append(np.repeat(labels * size, np.diff(offsets)) + ids)
        # A sort and a neighbour test: np.unique hashes first, which is slower here.
        keys = np.sort(np.concatenate(keys))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        ptr = np.searchsorted(keys, np.arange(n_segments + 1, dtype=np.int64) * size)
        return keys % size, ptr

    def title_segments(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each thread row's title ids: the asym_title targets. A single part's
        rows are already distinct and ascending."""
        return self.ids("title", rows)

    def body_segments(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each thread row's question body united with its answers' bodies:
        the asym_body targets."""
        answers, offsets = self.answer_rows(rows)
        return self.segments([("body", rows, np.arange(len(rows))),
                              ("answer_body", answers,
                               np.repeat(np.arange(len(rows)), np.diff(offsets)))], len(rows))

    def answer_segments(self, answer_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each answer row's body united with its thread's title: the answer
        asym targets."""
        every = np.arange(len(answer_rows))
        return self.segments([("answer_body", answer_rows, every),
                              ("title", self.answer_thread[answer_rows], every)],
                             len(answer_rows))

    def _term_counts(self, parts: Sequence[str], rows: np.ndarray, columns: np.ndarray,
                     n_terms: int) -> np.ndarray:
        """(row, term) counts over parts, where `columns` maps a term id to its
        column, or -1 for a term not counted."""
        cells, counts = [], []
        for name in parts:
            part = self.parts[name]
            positions, offsets = take(part.ptr, rows)
            column = columns[part.ids[positions]]
            hit = column >= 0
            row = np.repeat(np.arange(len(rows)), np.diff(offsets))
            cells.append(row[hit] * n_terms + column[hit])
            counts.append(part.counts[positions][hit])
        return np.bincount(np.concatenate(cells), weights=np.concatenate(counts),
                           minlength=len(rows) * n_terms).reshape(len(rows), n_terms)

    def term_counts(self, answer_rows: np.ndarray, term_ids: np.ndarray) -> np.ndarray:
        """Each answer's count of each term in its indexed text, a row per answer
        and a column per term: its thread's question part (title and body,
        gathered once per thread) plus its own body and code."""
        columns = np.full(self.vocab_size, -1, dtype=np.int64)
        columns[term_ids] = np.arange(len(term_ids))
        threads, answer_of = np.unique(self.answer_thread[answer_rows], return_inverse=True)
        question = self._term_counts(THREAD_PARTS, threads, columns, len(term_ids))
        return (question[answer_of] + self._term_counts(ANSWER_PARTS, answer_rows, columns,
                                                        len(term_ids))).astype(np.int64)

    def answer_index(self, thread_rows: np.ndarray, terms: Sequence[str], term_ids: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray, InvertedIndex]:
        """The answer rows of the threads (thread after thread), their counts
        of `terms` (sorted, with vocabulary ids `term_ids`; `term_counts`), and
        the per-query answer index built from those counts."""
        rows, _ = self.answer_rows(thread_rows)
        counts = self.term_counts(rows, term_ids)
        return rows, counts, build_ephemeral_answer_index(terms, counts, self.answer_ids[rows],
                                                          self.answer_len[rows])

    def methods(self, answer_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The method-call ids of the answers, as one flat array and offsets."""
        positions, offsets = take(self.method_ptr, answer_rows)
        return self.method_ids[positions], offsets


def _text_part(bags: Sequence[Mapping[str, int]], word_id: Mapping[str, int]) -> TextPart:
    """The bags as one CSR part over the ids of `word_id`."""
    sizes = np.fromiter(map(len, bags), dtype=np.int64, count=len(bags))
    n = int(sizes.sum())
    try:
        ids = np.fromiter(map(word_id.__getitem__, chain.from_iterable(bags)), dtype=np.int64,
                          count=n)
    except KeyError as exc:
        raise ValueError(f"word {exc.args[0]!r} is not in the idf vocabulary") from None
    counts = np.fromiter(chain.from_iterable(bag.values() for bag in bags), dtype=np.int64,
                         count=n)
    ptr = np.zeros(len(bags) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    # A bag's words are distinct, so the keys are.
    order = np.argsort(np.repeat(np.arange(len(bags)) * len(word_id), sizes) + ids)
    return TextPart(ptr, ids[order].astype(np.int32), counts[order].astype(np.int32))


def _tfidf_norms(parts: Mapping[str, TextPart], answer_thread: np.ndarray,
                 idf: np.ndarray) -> np.ndarray:
    """Each answer's tf-idf norm, over its four parts' counts summed per word;
    blocks of answers bound the memory of the gathered entries."""
    size, norms = len(idf), [np.zeros(0)]
    for lo in range(0, len(answer_thread), 2048):
        answers = np.arange(lo, min(lo + 2048, len(answer_thread)))
        keys, ids, counts = [], [], []
        for name, rows in (("title", answer_thread[answers]), ("body", answer_thread[answers]),
                           ("answer_body", answers), ("code", answers)):
            positions, offsets = take(parts[name].ptr, rows)
            ids.append(parts[name].ids[positions])
            keys.append(np.repeat((answers - lo) * size, np.diff(offsets)) + ids[-1])
            counts.append(parts[name].counts[positions])
        order = np.argsort(np.concatenate(keys), kind="stable")
        keys, ids, counts = (np.concatenate(x)[order] for x in (keys, ids, counts))
        first = np.flatnonzero(np.diff(keys, prepend=-1) != 0)
        norms.append(tfidf_norms(np.add.reduceat(counts, first), idf[ids[first]],
                                 np.searchsorted(keys[first],
                                                 np.arange(len(answers) + 1) * size)))
    return np.concatenate(norms)


def build_documents(threads: Iterable[Thread], idf_map: IdfMap) -> DocumentStore:
    """The store of `threads` over the sorted words of `idf_map`; ValueError
    names a thread word that is not among them."""
    threads = sorted(threads, key=lambda t: t.question.id)
    answers = [a for t in threads for a in t.answers]
    words = sorted(idf_map.df)
    word_id = dict(zip(words, range(len(words))))
    parts = {
        "title": _text_part([t.question.title_bag for t in threads], word_id),
        "body": _text_part([t.question.body_bag for t in threads], word_id),
        "answer_body": _text_part([a.body_bag for a in answers], word_id),
        "code": _text_part([a.code_bag for a in answers], word_id),
    }
    answer_thread = np.repeat(np.arange(len(threads), dtype=np.int32),
                              [len(t.answers) for t in threads])

    idf = np.array([idf_map.idf(word) for word in words], dtype=np.float64)
    tfidf_norm = _tfidf_norms(parts, answer_thread, idf)

    calls = [extract_methods(a.code_text) for a in answers]
    method_names = sorted(set(chain.from_iterable(calls)))
    method_id = dict(zip(method_names, range(len(method_names))))
    method_ptr = np.zeros(len(calls) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, calls), dtype=np.int64, count=len(calls)), out=method_ptr[1:])
    method_ids = np.fromiter(map(method_id.__getitem__, chain.from_iterable(calls)),
                             dtype=np.int32, count=int(method_ptr[-1]))
    return DocumentStore(parts, np.array([a.id for a in answers], dtype=np.int64),
                         answer_thread, tfidf_norm, method_ptr, method_ids, method_names,
                         len(words))


def encode_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Strings as their UTF-8 bytes back to back, and the offsets of each."""
    encoded = [s.encode("utf-8") for s in strings]
    ptr = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded)), out=ptr[1:])
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), ptr


def decode_strings(data: np.ndarray, ptr: np.ndarray,
                   fault: Callable[[str, str], ValueError]) -> list[str]:
    """The method names of `encode_strings` output, sorted and distinct;
    `fault(array name, what)` makes the error of bad offsets, bytes or order."""
    if not len(ptr) or not _is_pointer(ptr, len(data)):
        raise fault("method_name_ptr", "method name offsets do not cover the method name bytes")
    raw, bounds = data.tobytes(), ptr.tolist()
    try:
        strings = [raw[lo:hi].decode("utf-8") for lo, hi in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        raise fault("method_names", f"a method name is not UTF-8: {exc}") from None
    if any(s1 >= s2 for s1, s2 in zip(strings, strings[1:])):
        raise fault("method_names", "method names are not sorted and distinct")
    return strings


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


def save_documents(docs: DocumentStore, directory: str | Path) -> None:
    """Write the store into `directory` as DOCS_ARRAYS `.npy` files; fixed
    dtypes keep the bytes deterministic."""
    names, name_ptr = encode_strings(docs.method_names)
    arrays = {f"{name}_{field}": getattr(part, field) for name, part in docs.parts.items()
              for field in ("ptr", "ids", "counts")}
    arrays.update(answer_ids=docs.answer_ids, answer_thread=docs.answer_thread,
                  tfidf_norm=docs.tfidf_norm, method_ptr=docs.method_ptr,
                  method_ids=docs.method_ids, method_names=names, method_name_ptr=name_ptr)
    for name, dtype in DOCS_ARRAYS.items():
        with open(docs_file(directory, name), "wb") as fh:
            np.save(fh, np.asarray(arrays[name], dtype=dtype), allow_pickle=False)


def load_documents(directory: str | Path, vocab_size: int) -> DocumentStore:
    """Read `save_documents` output over a vocabulary of `vocab_size` words;
    ValueError names the file at fault."""
    a = {name: _read_array(docs_file(directory, name), dtype)
         for name, dtype in DOCS_ARRAYS.items()}

    def fault(name: str, what: str) -> ValueError:
        return ValueError(f"{docs_file(directory, name)}: {what}")

    def check_ids(name: str, ids: np.ndarray, bound: int, what: str) -> None:
        if len(ids) and (ids.min() < 0 or ids.max() >= bound):
            raise fault(name, f"{what} is outside 0..{bound - 1}")

    n_threads = len(a["title_ptr"]) - 1
    n_answers = len(a["answer_ids"])
    parts = {}
    for part in THREAD_PARTS + ANSWER_PARTS:
        ptr, ids, counts = (a[f"{part}_{name}"] for name in ("ptr", "ids", "counts"))
        rows = n_threads if part in THREAD_PARTS else n_answers
        if len(ptr) != rows + 1 or not len(ptr) or not _is_pointer(ptr, len(ids)):
            raise fault(f"{part}_ptr", f"offsets do not cover the {len(ids)} ids in "
                                       f"{rows} rows")
        check_ids(f"{part}_ids", ids, vocab_size, "a term id")
        row_start = np.zeros(len(ids), dtype=bool)
        row_start[ptr[:-1][ptr[:-1] < len(ids)]] = True
        if np.any((ids[1:] <= ids[:-1]) & ~row_start[1:]):
            raise fault(f"{part}_ids", "a row's term ids are not ascending and distinct")
        if len(counts) != len(ids):
            raise fault(f"{part}_counts", f"{len(counts)} counts for {len(ids)} ids")
        if len(counts) and counts.min() < 1:
            raise fault(f"{part}_counts", "a count is below 1")
        parts[part] = TextPart(ptr, ids, counts)

    thread = a["answer_thread"]
    if len(thread) != n_answers:
        raise fault("answer_thread", f"{len(thread)} thread rows for {n_answers} answers")
    check_ids("answer_thread", thread, n_threads, "a thread row")
    if np.any(thread[1:] < thread[:-1]):
        raise fault("answer_thread", "thread rows are not ascending")
    norms = a["tfidf_norm"]
    if len(norms) != n_answers or not np.all(np.isfinite(norms)) or np.any(norms < 0):
        raise fault("tfidf_norm", f"not {n_answers} finite norms of at least 0")
    names = decode_strings(a["method_names"], a["method_name_ptr"], fault)
    method_ptr, method_ids = a["method_ptr"], a["method_ids"]
    if len(method_ptr) != n_answers + 1 or not _is_pointer(method_ptr, len(method_ids)):
        raise fault("method_ptr", f"offsets do not cover the {len(method_ids)} method ids in "
                                  f"{n_answers} rows")
    check_ids("method_ids", method_ids, len(names), "a method id")
    return DocumentStore(parts, a["answer_ids"], thread, norms, method_ptr, method_ids,
                         names, vocab_size)
