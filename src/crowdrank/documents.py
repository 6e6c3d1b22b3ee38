"""The thread document store: every text part as term-id arrays, and every
post's id, score and display text.

Each text part of a thread (its title, its question body and its question
code) and of an answer (its body and its code) is held in compressed sparse
row (CSR) form, the layout of an index's postings: row r holds the distinct
term ids `ids[ptr[r]:ptr[r + 1]]`, ascending, and their counts beside them.
Term ids index the sorted idf.json words, the same ids as
`SearchEngine.vocab`. Thread rows follow ascending question id; answer rows
follow the threads, each thread's answers in its own order. Per answer the
store also holds its id, its thread's row, the norm of its tf-idf vector and
its method-call ids (`features.extract_methods`, with repeats) over a sorted
method vocabulary.

The store is also the only home of the threads themselves (`Posts`): the
question ids and both kinds of post's scores as arrays, each post's display
text (`POST_TEXT`) as UTF-8 bytes with offsets, and the answers' title bags,
a part over their own sorted words (answer titles are not in idf.json, and
the stopwords a build used are not recorded, so they cannot be
re-preprocessed). `ThreadMap` builds a `Thread` from these whenever one is
read, and its posts' word bags from their rows when first read; the
question code is stored for that alone: it is in no index, no answer length
and no term count (THREAD_PARTS leaves it out).

`build_documents` writes the arrays from `Thread`s; `build-index` saves them
as fixed-dtype `.npy` files (DOCS_ARRAYS), and `load_documents` checks them
with array-wide tests and names the file at fault. The store is the only
text index on disk: the thread BM25 index is its transpose, made at load
(`thread_index`). Each thread's asym_body target (its question body united
with its answers' bodies, `body_union`) is made in memory whenever a store
is, as it depends on the corpus only; it is not saved. A search carries its
candidates as rows of these arrays and gathers from them: the asym segments,
the answer index's term counts, tf-idf, top-method and the antonym filters
all read them, not the threads' word bags, and it decodes the text of the
answers it returns only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import ProcessedPost, Thread
from .embeddings import IdfMap
from .features import extract_methods, tfidf_norms
from .index import InvertedIndex, assemble_index, build_ephemeral_answer_index

# The parts a thread's and an answer's indexed text are made of.
THREAD_PARTS = ("title", "body")
ANSWER_PARTS = ("answer_body", "code")
# Every part with a row per thread, and every stored part.
THREAD_ROW_PARTS = THREAD_PARTS + ("question_code",)
STORED_PARTS = THREAD_ROW_PARTS + ANSWER_PARTS

# The arrays of a saved part, by dtype.
_PART_ARRAYS = (("ptr", np.int64), ("ids", np.int32), ("counts", np.int32))
# The saved store, one array per file, by dtype.
DOCS_ARRAYS = {
    **{f"{part}_{name}": dtype for part in STORED_PARTS for name, dtype in _PART_ARRAYS},
    "answer_ids": np.int64,
    "answer_thread": np.int32,   # the row of the answer's thread
    "tfidf_norm": np.float64,
    "method_ptr": np.int64,      # answer a calls method_ids[method_ptr[a]:method_ptr[a + 1]]
    "method_ids": np.int32,
    "method_names": np.uint8,    # the sorted method names' UTF-8 bytes, back to back
    "method_name_ptr": np.int64,
    # The posts (`Posts`).
    "question_ids": np.int64,    # ascending: thread row r is question question_ids[r]
    "question_score": np.int64,
    "answer_score": np.int64,
    "question_text": np.uint8,   # each question's POST_TEXT strings' UTF-8 bytes, back to back
    "question_text_ptr": np.int64,
    "answer_text": np.uint8,
    "answer_text_ptr": np.int64,
    **{f"answer_title_{name}": dtype for name, dtype in _PART_ARRAYS},  # over the words below
    "answer_title_words": np.uint8,  # the sorted answer title words' UTF-8 bytes
    "answer_title_word_ptr": np.int64,
}
# A post's display text, three strings per post in this order.
POST_TEXT = ("original_title", "original_body", "code_text")


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


@dataclass
class PostText:
    """Each post's POST_TEXT strings as UTF-8 bytes back to back: string i is
    `data[ptr[i]:ptr[i + 1]]`, and post r's strings are 3r, 3r + 1 and 3r + 2."""
    data: np.ndarray
    ptr: np.ndarray

    def get(self, row: int, name: str) -> str:
        """The POST_TEXT string `name` of post `row`, decoded."""
        i = 3 * row + POST_TEXT.index(name)
        lo, hi = self.ptr[i:i + 2].tolist()
        return self.data[lo:hi].tobytes().decode("utf-8")


@dataclass
class Posts:
    """The threads' posts beyond their word ids: the question ids (thread
    rows), the scores, the display text and the answers' title bags."""
    question_ids: np.ndarray
    question_score: np.ndarray
    answer_score: np.ndarray
    question_text: PostText
    answer_text: PostText
    answer_title: TextPart       # term ids over answer_title_words
    answer_title_words: list[str]


class DocumentStore:
    """The text parts, answers, method calls and posts of every thread
    (module docstring)."""

    def __init__(self, parts: Mapping[str, TextPart], answer_ids: np.ndarray,
                 answer_thread: np.ndarray, tfidf_norm: np.ndarray, method_ptr: np.ndarray,
                 method_ids: np.ndarray, method_names: list[str], vocab_size: int,
                 posts: Posts):
        self.parts = dict(parts)
        self.answer_ids = answer_ids
        self.answer_thread = answer_thread
        self.tfidf_norm = tfidf_norm
        self.method_ptr = method_ptr
        self.method_ids = method_ids
        self.method_names = method_names
        self.vocab_size = vocab_size
        self.posts = posts
        self.n_threads = len(self.parts["title"].ptr) - 1
        # Thread r's answers are the answer rows answer_ptr[r]:answer_ptr[r + 1].
        self.answer_ptr = np.searchsorted(answer_thread, np.arange(self.n_threads + 1))
        lengths = {name: self.parts[name].lengths() for name in THREAD_PARTS + ANSWER_PARTS}
        # The length of an answer's indexed text: its thread's title and
        # question body, its own body and code.
        self.answer_len = (lengths["title"][answer_thread] + lengths["body"][answer_thread]
                           + lengths["answer_body"] + lengths["code"])
        # Each thread's asym_body target, its question body united with its
        # answers' bodies, as distinct ascending ids and offsets; it depends on
        # the corpus only, so it is made here, once.
        body, answer_body = self.parts["body"], self.parts["answer_body"]
        self.body_union = self.segments([(body.ids, body.ptr, np.arange(self.n_threads)),
                                         (answer_body.ids, answer_body.ptr, answer_thread)],
                                        self.n_threads)

    def thread_index(self, words: Sequence[str]) -> InvertedIndex:
        """The thread BM25 index: a document per thread row, by its question
        id, of its THREAD_PARTS and its answers' ANSWER_PARTS (the question's
        code is not indexed); `words` is the sorted vocabulary."""
        parts = [self.parts[name] for name in THREAD_PARTS + ANSWER_PARTS]
        threads = np.arange(self.n_threads, dtype=np.int32)
        owners = [threads] * len(THREAD_PARTS) + [self.answer_thread] * len(ANSWER_PARTS)
        rows = np.concatenate([np.repeat(owner, np.diff(part.ptr))
                               for owner, part in zip(owners, parts)])
        return assemble_index(words, rows, np.concatenate([part.ids for part in parts]),
                              np.concatenate([part.counts for part in parts]),
                              self.posts.question_ids)

    def answer_rows(self, thread_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The answer rows of the threads, thread after thread, and the offsets
        of each thread's run among them."""
        return take(self.answer_ptr, thread_rows)

    def ids(self, part: str, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The term ids of `rows` of a part, as one flat array and offsets."""
        positions, offsets = take(self.parts[part].ptr, rows)
        return self.parts[part].ids[positions], offsets

    def segments(self, runs: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
                 n_segments: int) -> tuple[np.ndarray, np.ndarray]:
        """The distinct term ids of each segment, ascending, as one flat array
        and offsets. For each (ids, offsets, labels), the run of ids
        `ids[offsets[i]:offsets[i + 1]]` joins segment `labels[i]`."""
        size = self.vocab_size
        # A key is segment * size + id; int32 keys sort faster, and every key
        # is below n_segments * size.
        dtype = np.int32 if n_segments * size < 2**31 else np.int64
        keys = np.concatenate([np.repeat(labels.astype(dtype) * dtype(size), np.diff(offsets))
                               + ids for ids, offsets, labels in runs]).astype(dtype, copy=False)
        # A sort and a neighbour test: np.unique hashes first, which is slower here.
        keys.sort()
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        ptr = np.searchsorted(keys, np.arange(n_segments + 1, dtype=dtype) * dtype(size))
        return (keys % dtype(size)).astype(np.int32, copy=False), ptr

    def title_segments(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each thread row's title ids: the asym_title targets. A single part's
        rows are already distinct and ascending."""
        return self.ids("title", rows)

    def body_segments(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each thread row's question body united with its answers' bodies:
        the asym_body targets, taken from `body_union`."""
        flat, ptr = self.body_union
        positions, offsets = take(ptr, rows)
        return flat[positions], offsets

    def answer_segments(self, answer_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each answer row's body united with its thread's title: the answer
        asym targets."""
        every = np.arange(len(answer_rows))
        return self.segments([(*self.ids("answer_body", answer_rows), every),
                              (*self.ids("title", self.answer_thread[answer_rows]), every)],
                             len(answer_rows))

    def holds_any(self, parts: Sequence[tuple[str, np.ndarray]], term_ids: np.ndarray,
                  ) -> np.ndarray:
        """Whether each candidate holds any of `term_ids`: for each (part,
        rows), candidate i's text includes row `rows[i]` of the part."""
        wanted = np.zeros(self.vocab_size, dtype=bool)
        wanted[term_ids] = True
        found = np.zeros(len(parts[0][1]), dtype=bool)
        for part, rows in parts:
            ids, offsets = self.ids(part, rows)
            found[np.searchsorted(offsets, np.flatnonzero(wanted[ids]), side="right") - 1] = True
        return found

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


class ThreadMap(Mapping):
    """A store's threads by question id, ascending: a read-only mapping.

    Each read builds the `Thread` from the store, and its posts build their
    word bags from their rows when first read (`ProcessedPost.linked`), over
    the sorted vocabulary `words`. No thread is kept, so reading threads
    holds no memory; a built thread and one read here are `==` and share one
    `repr`.
    """

    def __init__(self, docs: DocumentStore, words: Sequence[str]):
        self.docs = docs
        self.words = words
        ids = docs.posts.question_ids.tolist()
        self._row = dict(zip(ids, range(len(ids))))

    def __len__(self) -> int:
        return len(self._row)

    def __iter__(self):
        return iter(self._row)

    def __contains__(self, thread_id) -> bool:
        return thread_id in self._row

    def __getitem__(self, thread_id) -> Thread:
        return self.thread(self._row[thread_id])

    def thread(self, row: int) -> Thread:
        """The thread of thread row `row`."""
        docs, posts = self.docs, self.docs.posts
        answers = range(*docs.answer_ptr[row:row + 2].tolist())
        return Thread(
            question=ProcessedPost.linked(
                int(posts.question_ids[row]), int(posts.question_score[row]),
                {name: posts.question_text.get(row, name) for name in POST_TEXT},
                self._question_bags, row),
            answers=[ProcessedPost.linked(
                int(docs.answer_ids[a]), int(posts.answer_score[a]),
                {name: posts.answer_text.get(a, name) for name in POST_TEXT},
                self._answer_bags, a) for a in answers])

    @staticmethod
    def _bag(part: TextPart, row: int, words: Sequence[str]) -> Counter:
        lo, hi = part.ptr[row:row + 2].tolist()
        return Counter(dict(zip(map(words.__getitem__, part.ids[lo:hi].tolist()),
                                part.counts[lo:hi].tolist())))

    def _question_bags(self, row: int) -> tuple[Counter, ...]:
        """Thread row `row`'s question bags: title, body and code."""
        return tuple(self._bag(self.docs.parts[name], row, self.words)
                     for name in THREAD_ROW_PARTS)

    def _answer_bags(self, row: int) -> tuple[Counter, ...]:
        """Answer row `row`'s bags: title, body and code."""
        posts = self.docs.posts
        return (self._bag(posts.answer_title, row, posts.answer_title_words),
                *(self._bag(self.docs.parts[name], row, self.words) for name in ANSWER_PARTS))


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
    questions = [t.question for t in threads]
    answers = [a for t in threads for a in t.answers]
    words = sorted(idf_map.df)
    word_id = dict(zip(words, range(len(words))))
    parts = {
        "title": _text_part([q.title_bag for q in questions], word_id),
        "body": _text_part([q.body_bag for q in questions], word_id),
        "question_code": _text_part([q.code_bag for q in questions], word_id),
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

    title_words = sorted(set(chain.from_iterable(a.title_bag for a in answers)))
    posts = Posts(
        question_ids=np.array([q.id for q in questions], dtype=np.int64),
        question_score=np.array([q.score for q in questions], dtype=np.int64),
        answer_score=np.array([a.score for a in answers], dtype=np.int64),
        question_text=_post_text(questions),
        answer_text=_post_text(answers),
        answer_title=_text_part([a.title_bag for a in answers],
                                dict(zip(title_words, range(len(title_words))))),
        answer_title_words=title_words,
    )
    return DocumentStore(parts, np.array([a.id for a in answers], dtype=np.int64),
                         answer_thread, tfidf_norm, method_ptr, method_ids, method_names,
                         len(words), posts)


def _post_text(posts: Sequence[ProcessedPost]) -> PostText:
    return PostText(*encode_strings(list(chain.from_iterable(map(attrgetter(*POST_TEXT),
                                                                 posts)))))


def encode_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Strings as their UTF-8 bytes back to back, and the offsets of each.

    The bytes are written into one array a block of strings at a time, so a
    build never holds a second copy of its text. An ASCII string's length
    is its byte count.
    """
    ptr = np.zeros(len(strings) + 1, dtype=np.int64)
    np.cumsum(np.fromiter((len(s) if s.isascii() else len(s.encode("utf-8")) for s in strings),
                          dtype=np.int64, count=len(strings)), out=ptr[1:])
    data = np.empty(ptr[-1], dtype=np.uint8)
    for lo in range(0, len(strings), 1024):
        hi = min(lo + 1024, len(strings))
        data[ptr[lo]:ptr[hi]] = np.frombuffer("".join(strings[lo:hi]).encode("utf-8"),
                                              dtype=np.uint8)
    return data, ptr


def decode_strings(data: np.ndarray, ptr: np.ndarray, name: str,
                   fault: Callable[[str, str], ValueError]) -> list[str]:
    """The sorted, distinct strings of `encode_strings` output saved as the
    arrays `{name}s` (`data`) and `{name}_ptr` (`ptr`), such as the method
    names; `fault(array name, what)` makes the error of bad offsets, bytes
    or order."""
    noun = name.replace("_", " ")
    if not len(ptr) or not _is_pointer(ptr, len(data)):
        raise fault(f"{name}_ptr", f"{noun} offsets do not cover the {noun} bytes")
    raw, bounds = data.tobytes(), ptr.tolist()
    try:
        strings = [raw[lo:hi].decode("utf-8") for lo, hi in zip(bounds, bounds[1:])]
    except UnicodeDecodeError as exc:
        raise fault(f"{name}s", f"a {noun} is not UTF-8: {exc}") from None
    if any(s1 >= s2 for s1, s2 in zip(strings, strings[1:])):
        raise fault(f"{name}s", f"{noun}s are not sorted and distinct")
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
    posts = docs.posts
    parts = {**docs.parts, "answer_title": posts.answer_title}
    arrays = {f"{name}_{field}": getattr(part, field) for name, part in parts.items()
              for field in ("ptr", "ids", "counts")}
    arrays.update(zip(("method_names", "method_name_ptr"), encode_strings(docs.method_names)))
    arrays.update(zip(("answer_title_words", "answer_title_word_ptr"),
                      encode_strings(posts.answer_title_words)))
    arrays.update(answer_ids=docs.answer_ids, answer_thread=docs.answer_thread,
                  tfidf_norm=docs.tfidf_norm, method_ptr=docs.method_ptr,
                  method_ids=docs.method_ids, question_ids=posts.question_ids,
                  question_score=posts.question_score, answer_score=posts.answer_score,
                  question_text=posts.question_text.data,
                  question_text_ptr=posts.question_text.ptr,
                  answer_text=posts.answer_text.data, answer_text_ptr=posts.answer_text.ptr)
    for name, dtype in DOCS_ARRAYS.items():
        with open(docs_file(directory, name), "wb") as fh:
            np.save(fh, np.asarray(arrays[name], dtype=dtype), allow_pickle=False)


def load_documents(directory: str | Path, vocab_size: int) -> DocumentStore:
    """Read `save_documents` output over a vocabulary of `vocab_size` words;
    ValueError names the file at fault. Every check is array-wide: the
    posts' text is checked as a whole, and no post's string is decoded."""
    a = {name: _read_array(docs_file(directory, name), dtype)
         for name, dtype in DOCS_ARRAYS.items()}

    def fault(name: str, what: str) -> ValueError:
        return ValueError(f"{docs_file(directory, name)}: {what}")

    def check_ids(name: str, ids: np.ndarray, bound: int, what: str) -> None:
        if len(ids) and (ids.min() < 0 or ids.max() >= bound):
            raise fault(name, f"{what} is outside 0..{bound - 1}")

    def check_length(name: str, rows: int, noun: str, of: str) -> None:
        if len(a[name]) != rows:
            raise fault(name, f"{len(a[name])} {noun} for {rows} {of}")

    def text_part(part: str, rows: int, bound: int) -> TextPart:
        ptr, ids, counts = (a[f"{part}_{name}"] for name in ("ptr", "ids", "counts"))
        if len(ptr) != rows + 1 or not len(ptr) or not _is_pointer(ptr, len(ids)):
            raise fault(f"{part}_ptr", f"offsets do not cover the {len(ids)} ids in "
                                       f"{rows} rows")
        check_ids(f"{part}_ids", ids, bound, "a term id")
        row_start = np.zeros(len(ids), dtype=bool)
        row_start[ptr[:-1][ptr[:-1] < len(ids)]] = True
        if np.any((ids[1:] <= ids[:-1]) & ~row_start[1:]):
            raise fault(f"{part}_ids", "a row's term ids are not ascending and distinct")
        if len(counts) != len(ids):
            raise fault(f"{part}_counts", f"{len(counts)} counts for {len(ids)} ids")
        if len(counts) and counts.min() < 1:
            raise fault(f"{part}_counts", "a count is below 1")
        return TextPart(ptr, ids, counts)

    def post_text(name: str, rows: int) -> PostText:
        data, ptr = a[name], a[f"{name}_ptr"]
        if len(ptr) != 3 * rows + 1 or not _is_pointer(ptr, len(data)):
            raise fault(f"{name}_ptr", f"offsets do not cover the {len(data)} text bytes of "
                                       f"{rows} posts")
        try:
            str(memoryview(data), "utf-8")
        except UnicodeDecodeError as exc:
            raise fault(name, f"the text is not UTF-8: {exc}") from None
        # A string starts at a character: no offset within the bytes falls on
        # a continuation byte (0b10xxxxxx).
        inner = ptr[(ptr > 0) & (ptr < len(data))]
        if np.any((data[inner] & 0xC0) == 0x80):
            raise fault(f"{name}_ptr", "an offset falls inside a character")
        return PostText(data, ptr)

    n_threads = len(a["title_ptr"]) - 1
    n_answers = len(a["answer_ids"])
    parts = {part: text_part(part, n_threads if part in THREAD_ROW_PARTS else n_answers,
                             vocab_size)
             for part in STORED_PARTS}

    thread = a["answer_thread"]
    check_length("answer_thread", n_answers, "thread rows", "answers")
    check_ids("answer_thread", thread, n_threads, "a thread row")
    if np.any(thread[1:] < thread[:-1]):
        raise fault("answer_thread", "thread rows are not ascending")
    norms = a["tfidf_norm"]
    if len(norms) != n_answers or not np.all(np.isfinite(norms)) or np.any(norms < 0):
        raise fault("tfidf_norm", f"not {n_answers} finite norms of at least 0")
    names = decode_strings(a["method_names"], a["method_name_ptr"], "method_name", fault)
    method_ptr, method_ids = a["method_ptr"], a["method_ids"]
    if len(method_ptr) != n_answers + 1 or not _is_pointer(method_ptr, len(method_ids)):
        raise fault("method_ptr", f"offsets do not cover the {len(method_ids)} method ids in "
                                  f"{n_answers} rows")
    check_ids("method_ids", method_ids, len(names), "a method id")

    question_ids = a["question_ids"]
    check_length("question_ids", n_threads, "question ids", "threads")
    if np.any(question_ids[1:] <= question_ids[:-1]):
        raise fault("question_ids", "question ids are not ascending and distinct")
    check_length("question_score", n_threads, "scores", "threads")
    check_length("answer_score", n_answers, "scores", "answers")
    title_words = decode_strings(a["answer_title_words"], a["answer_title_word_ptr"],
                                 "answer_title_word", fault)
    posts = Posts(question_ids, a["question_score"], a["answer_score"],
                  post_text("question_text", n_threads), post_text("answer_text", n_answers),
                  text_part("answer_title", n_answers, len(title_words)), title_words)
    return DocumentStore(parts, a["answer_ids"], thread, norms, method_ptr, method_ids,
                         names, vocab_size, posts)
