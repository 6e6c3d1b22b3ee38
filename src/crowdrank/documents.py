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
re-preprocessed). `ThreadMap` builds a `Thread` from these, its posts' word
bags included, whenever one is read; the question code, which no view
reads, is stored for that, for the document frequencies and for
`export-text`. A post's code text is not stored: `ThreadMap` takes it from
the body, with the `separate_code` call the build made.

`build_store` makes the arrays from a post stream in one pass: each kept
post is tokenized once, straight into flat rows of word ids numbered as
they come, which are renumbered over the sorted vocabulary and counted at
the end, so a build holds no word bag, `ProcessedPost` or `Thread` per post;
the document frequencies are then counted from the stored parts. Every
count and union of distinct ids here, at build and at load, is the one
packed-key merge `index.merge_entries`.
`build-index` saves them as `.npy` files (DOCS_ARRAYS), each integer array in
the narrowest integer dtype that holds its values (`narrowest`), and
`load_documents` widens each to its DOCS_ARRAYS dtype, checks them with
array-wide tests and names the file at fault. The text that each feature and
filter reads is a view, declared once in VIEWS, and `entries` is the one
gather of a view's candidates: the thread BM25 index (its transpose, made at
load), the asym segments (each thread's asym_body target is united once, when
a store is made), the answers' query-term counts, the tf-idf norms and the
antonym filters are built on it. A search reads these gathers, not the
threads' word bags, and decodes the text of the answers it returns only.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import (BuildStats, ProcessedPost, RawPost, Thread, kept_words, select_threads,
                     separate_code)
from .embeddings import IdfMap
from .features import extract_methods, tfidf_norms
from .index import InvertedIndex, assemble_index, merge_entries

# The stored parts with a row per thread, and with a row per answer.
THREAD_ROW_PARTS = ("title", "body", "question_code")
ANSWER_ROW_PARTS = ("answer_body", "code")
STORED_PARTS = THREAD_ROW_PARTS + ANSWER_ROW_PARTS

# The text views, each the (part, via) pairs of the text that features and
# filters read: thread_text (BM25, tf), answer_text (answer BM25, tf-idf),
# thread_title (asym_title, the sentence vector), thread_bodies (asym_body),
# answer_asym (asym), thread_antonym (the TR filter) and answer_antonym (the
# ANS filter). `via` names the part rows that a candidate's text takes in:
# "own", its own row; "thread", an answer's thread row; "answers", each of a
# thread's answer rows. The question code is in no view.
VIEWS = {
    "thread_text": (("title", "own"), ("body", "own"), ("answer_body", "answers"),
                    ("code", "answers")),
    "answer_text": (("title", "thread"), ("body", "thread"), ("answer_body", "own"),
                    ("code", "own")),
    "thread_title": (("title", "own"),),
    "thread_bodies": (("body", "own"), ("answer_body", "answers")),
    "answer_asym": (("answer_body", "own"), ("title", "thread")),
    "thread_antonym": (("title", "own"), ("body", "own")),
    "answer_antonym": (("title", "thread"), ("answer_body", "own"), ("code", "own")),
}
# The views whose distinct ids a store unites for every candidate once, when
# it is made, as each thread's asym_body target depends on the corpus only;
# `segments` takes a search's rows from the union.
UNITED_VIEWS = ("thread_bodies",)

# The arrays of a saved part, by dtype.
_PART_ARRAYS = (("ptr", np.int64), ("ids", np.int32), ("counts", np.int32))
# The saved store, one array per file, by the dtype it has in memory; a file
# holds an integer array in the narrowest integer dtype that holds its values
# (`narrowest`), which a load widens to this one.
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
# A post's display text, two strings per post in this order; its code text
# is `separate_code` of its body.
POST_TEXT = ("original_title", "original_body")


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


@dataclass
class PostText:
    """Each post's POST_TEXT strings as UTF-8 bytes back to back: string i is
    `data[ptr[i]:ptr[i + 1]]`, and post r's strings are 2r and 2r + 1."""
    data: np.ndarray
    ptr: np.ndarray

    def get(self, row: int, name: str) -> str:
        """The POST_TEXT string `name` of post `row`, decoded."""
        i = len(POST_TEXT) * row + POST_TEXT.index(name)
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
                 answer_thread: np.ndarray, tfidf_norm: np.ndarray | None,
                 method_ptr: np.ndarray, method_ids: np.ndarray, method_names: list[str],
                 vocab_size: int, posts: Posts, idf: np.ndarray | None = None):
        """With `tfidf_norm` None (a build) the norms are computed from the
        store's own entries and `idf`, each word's idf by term id."""
        self.parts = dict(parts)
        self.answer_ids = answer_ids
        self.answer_thread = answer_thread
        self.method_ptr = method_ptr
        self.method_ids = method_ids
        self.method_names = method_names
        self.vocab_size = vocab_size
        self.posts = posts
        self.n_threads = len(self.parts["title"].ptr) - 1
        # Thread r's answers are the answer rows answer_ptr[r]:answer_ptr[r + 1].
        self.answer_ptr = np.searchsorted(answer_thread, np.arange(self.n_threads + 1))
        # The length of each answer's text, which answer BM25 reads, from its
        # part rows' lengths: `entries` would repeat a thread's text per answer.
        self.answer_len = 0
        for name, via in VIEWS["answer_text"]:
            part = self.parts[name]
            sums = np.zeros(len(part.counts) + 1, dtype=np.int64)
            np.cumsum(part.counts, out=sums[1:])
            row_len = np.diff(sums[part.ptr])
            self.answer_len += row_len[answer_thread] if via == "thread" else row_len
        self.unions = {}
        for view in UNITED_VIEWS:
            ids, _, owner, _ = self.entries(view)
            self.unions[view] = merge_entries(ids, owner, self.n_threads, self.vocab_size)[:2]
        self.tfidf_norm = self._tfidf_norms(idf) if tfidf_norm is None else tfidf_norm

    def thread_index(self, words: Sequence[str]) -> InvertedIndex:
        """The thread BM25 index: a document per thread row, by its question
        id, of its "thread_text" view; `words` is the sorted vocabulary."""
        ids, counts, owner, _ = self.entries("thread_text")
        return assemble_index(words, owner, ids, counts, self.posts.question_ids)

    def answer_rows(self, thread_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The answer rows of the threads, thread after thread, and the offsets
        of each thread's run among them."""
        return take(self.answer_ptr, thread_rows)

    def entries(self, view: str, rows: np.ndarray | None = None,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """The entries of each candidate's text in a view (VIEWS), part after
        part: their term ids, their counts and the position in `rows` of the
        candidate that owns each; ids ascend within each part row. A one-part
        view's entries run candidate after candidate, and the offsets of each
        candidate's run come fourth (else None). With `rows` None (every
        candidate) a one-part view's arrays are the part's own."""
        ids, counts, owners = [], [], []
        for name, via in VIEWS[view]:
            part = self.parts[name]
            # runs: the offsets of each candidate's part rows, when it has several.
            if rows is None and via != "thread":
                # Every row of the part, each owned by its candidate: no gather.
                positions, offsets = slice(None), part.ptr
                runs = self.answer_ptr if via == "answers" else None
            else:
                candidates = np.arange(len(self.answer_thread)) if rows is None else rows
                runs = None
                if via == "answers":
                    part_rows, runs = self.answer_rows(candidates)
                else:
                    part_rows = self.answer_thread[candidates] if via == "thread" else candidates
                positions, offsets = take(part.ptr, part_rows)
            ptr = offsets if runs is None else offsets[runs]
            ids.append(part.ids[positions])
            counts.append(part.counts[positions])
            owners.append(np.repeat(np.arange(len(ptr) - 1, dtype=np.int32), np.diff(ptr)))
        if len(ids) == 1:  # no copy of a whole part
            return ids[0], counts[0], owners[0], ptr
        return np.concatenate(ids), np.concatenate(counts), np.concatenate(owners), None

    def segments(self, view: str, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct term ids of each candidate's text in a view, ascending,
        as one flat array and offsets."""
        if view in self.unions:
            flat, ptr = self.unions[view]
            positions, offsets = take(ptr, rows)
            return flat[positions], offsets
        (name, via), *more = VIEWS[view]
        if not more and via != "answers":
            # One row of one part per candidate, already distinct and
            # ascending: its ids alone, without the counts and owners of
            # `entries`.
            part = self.parts[name]
            positions, offsets = take(part.ptr, self.answer_thread[rows] if via == "thread"
                                      else rows)
            return part.ids[positions], offsets
        ids, _, owner, _ = self.entries(view, rows)
        return merge_entries(ids, owner, len(rows), self.vocab_size)[:2]

    def holds_any(self, view: str, rows: np.ndarray, term_ids: np.ndarray) -> np.ndarray:
        """Whether each candidate's text in a view holds any of `term_ids`."""
        wanted = np.zeros(self.vocab_size, dtype=bool)
        wanted[term_ids] = True
        ids, _, owner, _ = self.entries(view, rows)
        return np.bincount(owner[np.take(wanted, ids)], minlength=len(rows)) > 0

    def term_counts(self, view: str, rows: np.ndarray, term_ids: np.ndarray) -> np.ndarray:
        """Each candidate's count of each term in its text in a view, a row
        per candidate and a column per term."""
        columns = np.full(self.vocab_size, -1, dtype=np.int64)
        columns[term_ids] = np.arange(len(term_ids))
        ids, counts, owner, _ = self.entries(view, rows)
        # np.take: indexing by int32 ids would take numpy's slower path.
        column = np.take(columns, ids)
        hit = column >= 0
        # Sums of integers, exact in float64.
        return np.bincount(owner[hit] * len(term_ids) + column[hit], weights=counts[hit],
                           minlength=len(rows) * len(term_ids)
                           ).reshape(len(rows), len(term_ids)).astype(np.int64)

    def _tfidf_norms(self, idf: np.ndarray) -> np.ndarray:
        """Each answer's tf-idf norm, over its "answer_text" counts summed per
        word; blocks of answers bound the memory of the gathered entries."""
        n, norms = len(self.answer_thread), [np.zeros(0)]
        for lo in range(0, n, 2048):
            answers = np.arange(lo, min(lo + 2048, n))
            ids, counts, owner, _ = self.entries("answer_text", answers)
            flat, ptr, sums = merge_entries(ids, owner, len(answers), self.vocab_size, counts)
            norms.append(tfidf_norms(sums, idf[flat], ptr))
        return np.concatenate(norms)

    def methods(self, answer_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The method-call ids of the answers, as one flat array and offsets."""
        positions, offsets = take(self.method_ptr, answer_rows)
        return self.method_ids[positions], offsets


class ThreadMap(Mapping):
    """A store's threads by question id, ascending: a read-only mapping.

    Each read builds the `Thread` from the store, its posts' word bags over
    the sorted vocabulary `words` included, and each post's code text from
    its body. No thread is kept, so reading threads holds no memory; a built
    thread and one read here are `==` and share one `repr`.
    """

    def __init__(self, docs: DocumentStore, words: Sequence[str]):
        self.docs = docs
        self.words = words
        ids = docs.posts.question_ids.tolist()
        # question id -> thread row
        self.rows = dict(zip(ids, range(len(ids))))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __contains__(self, thread_id) -> bool:
        return thread_id in self.rows

    def __getitem__(self, thread_id) -> Thread:
        return self.thread(self.rows[thread_id])

    def thread(self, row: int) -> Thread:
        """The thread of thread row `row`."""
        docs, posts = self.docs, self.docs.posts
        answers = range(*docs.answer_ptr[row:row + 2].tolist())
        return Thread(
            question=_post(int(posts.question_ids[row]), int(posts.question_score[row]),
                           self._question_bags(row), posts.question_text, row),
            answers=[_post(int(docs.answer_ids[a]), int(posts.answer_score[a]),
                           self._answer_bags(a), posts.answer_text, a) for a in answers])

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
                *(self._bag(self.docs.parts[name], row, self.words) for name in ANSWER_ROW_PARTS))


def _post(post_id: int, score: int, bags: tuple[Counter, ...], text: PostText,
          row: int) -> ProcessedPost:
    """A post read from the store, with the code text of its body."""
    title, body = (text.get(row, name) for name in POST_TEXT)
    return ProcessedPost(post_id, score, *bags, code_text=separate_code(body)[1],
                         original_title=title, original_body=body)


class _Rows:
    """Rows of provisional ids as a build appends them, flat, and the offsets
    of each row."""

    def __init__(self):
        self.ids = array("i")
        self.ptr = array("q", [0])

    def add(self, ids: Iterable[int]) -> None:
        self.ids.extend(ids)
        self.ptr.append(len(self.ids))

    def counted(self, new_id: np.ndarray, size: int) -> TextPart:
        """The rows as a CSR part over the ids (below `size`) that `new_id`
        gives the provisional ones: each row's distinct ids, ascending, and
        how often each occurs."""
        ptr = np.frombuffer(self.ptr, dtype=np.int64)
        owner = np.repeat(np.arange(len(ptr) - 1, dtype=np.int32), np.diff(ptr))
        ids, ptr, counts = merge_entries(new_id[np.frombuffer(self.ids, dtype=np.int32)], owner,
                                         len(ptr) - 1, size, np.ones(len(owner), dtype=np.int32))
        return TextPart(ptr, ids, counts.astype(np.int32))


class _Text:
    """Posts' POST_TEXT strings as a build appends them (`PostText`)."""

    def __init__(self):
        self.data = bytearray()
        self.ptr = array("q", [0])

    def add(self, *strings: str) -> None:
        for string in strings:
            self.data += string.encode("utf-8")
            self.ptr.append(len(self.data))

    def text(self) -> PostText:
        return PostText(np.frombuffer(self.data, dtype=np.uint8),
                        np.frombuffer(self.ptr, dtype=np.int64))


def _renumber(names: Sequence[str], *ids: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The sorted distinct names of the provisional ids in `ids`, and each
    provisional id's place among them."""
    used = np.zeros(len(names), dtype=bool)
    for some in ids:
        used[some] = True
    order = np.array(sorted(np.flatnonzero(used).tolist(), key=names.__getitem__), dtype=np.intp)
    new_id = np.zeros(len(names), dtype=np.int32)
    new_id[order] = np.arange(len(order))
    return [names[i] for i in order.tolist()], new_id


def _document_frequencies(parts: Mapping[str, TextPart], answer_thread: np.ndarray,
                          size: int, block: int = 2048) -> np.ndarray:
    """Each term id's document frequency (below `size`): the number of
    threads whose stored parts hold it, a thread's answers' parts included.
    A block of threads at a time is merged, which bounds the memory."""
    n = len(parts["title"].ptr) - 1
    answer_ptr = np.searchsorted(answer_thread, np.arange(n + 1))
    df = np.zeros(size, dtype=np.int64)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        ids, owners = [], []
        for name in STORED_PARTS:
            # The block's rows of a part are consecutive, and so are their
            # entries; each is owned by its thread's place in the block.
            if name in THREAD_ROW_PARTS:
                first, last, owner = lo, hi, np.arange(hi - lo, dtype=np.int32)
            else:
                first, last = answer_ptr[lo], answer_ptr[hi]
                owner = answer_thread[first:last] - np.int32(lo)
            part = parts[name]
            ptr = part.ptr[first:last + 1]
            ids.append(part.ids[ptr[0]:ptr[-1]])
            owners.append(np.repeat(owner, np.diff(ptr)))
        flat, _, _ = merge_entries(np.concatenate(ids), np.concatenate(owners), hi - lo, size)
        df += np.bincount(flat, minlength=size)
    return df


def build_store(posts: Iterable[RawPost], stopwords: frozenset[str] | None = None,
                stats: BuildStats | None = None) -> tuple[IdfMap, DocumentStore]:
    """The document store of a post stream's threads (`corpus.select_threads`)
    over its vocabulary, and the document frequencies of that vocabulary:
    each thread is one document of its text and its question code, and no
    threads count as one empty document.

    One pass tokenizes each kept post once, straight into the rows of flat
    arrays of provisional word ids, numbered in order of first sight by one
    dict for the whole build. At the end the vocabulary is sorted, the ids
    renumbered and counted per row, and the document frequencies counted
    from the stored parts (`_document_frequencies`). No post's word bag is
    made.
    """
    word_id: defaultdict[str, int] = defaultdict(count().__next__)
    method_id: defaultdict[str, int] = defaultdict(count().__next__)

    def words(text: str) -> list[int]:
        return list(map(word_id.__getitem__, kept_words(text, stopwords)))

    def process(answer: RawPost) -> tuple[tuple, list[int]]:
        prose, code = separate_code(answer.body_html)
        code_ids = words(code)
        return (answer, words(answer.title), words(prose), code_ids, code), code_ids

    rows = {name: _Rows() for name in (*STORED_PARTS, "answer_title", "methods")}
    question_ids, question_score, answer_ids, answer_score = (array("q") for _ in range(4))
    answer_thread = array("i")
    question_text, answer_text = _Text(), _Text()
    for row, (question, answers) in enumerate(select_threads(posts, process, stats)):
        prose, code = separate_code(question.body_html)
        rows["title"].add(words(question.title))
        rows["body"].add(words(prose))
        rows["question_code"].add(words(code))
        question_ids.append(question.id)
        question_score.append(question.score)
        question_text.add(question.title, question.body_html)
        for answer, answer_title, answer_body, answer_code, code_text in answers:
            rows["answer_title"].add(answer_title)
            rows["answer_body"].add(answer_body)
            rows["code"].add(answer_code)
            rows["methods"].add(map(method_id.__getitem__, extract_methods(code_text)))
            answer_ids.append(answer.id)
            answer_score.append(answer.score)
            answer_thread.append(row)
            answer_text.add(answer.title, answer.body_html)

    provisional = list(word_id)
    vocab, new_id = _renumber(provisional, *(np.frombuffer(rows[name].ids, dtype=np.int32)
                                             for name in STORED_PARTS))
    parts = {name: rows[name].counted(new_id, len(vocab)) for name in STORED_PARTS}
    answer_thread = np.frombuffer(answer_thread, dtype=np.int32)
    df = _document_frequencies(parts, answer_thread, len(vocab))
    idf_map = IdfMap(dict(zip(vocab, df.tolist())), max(len(question_ids), 1))
    title_ids = np.frombuffer(rows["answer_title"].ids, dtype=np.int32)
    title_words, new_title_id = _renumber(provisional, title_ids)
    methods = rows["methods"]
    method_ids = np.frombuffer(methods.ids, dtype=np.int32)
    method_names, new_method_id = _renumber(list(method_id), method_ids)
    posts = Posts(
        question_ids=np.frombuffer(question_ids, dtype=np.int64),
        question_score=np.frombuffer(question_score, dtype=np.int64),
        answer_score=np.frombuffer(answer_score, dtype=np.int64),
        question_text=question_text.text(),
        answer_text=answer_text.text(),
        answer_title=rows["answer_title"].counted(new_title_id, len(title_words)),
        answer_title_words=title_words,
    )
    docs = DocumentStore(parts, np.frombuffer(answer_ids, dtype=np.int64), answer_thread, None,
                         np.frombuffer(methods.ptr, dtype=np.int64), new_method_id[method_ids],
                         method_names, len(vocab), posts,
                         idf=np.array([idf_map.idf(word) for word in vocab], dtype=np.float64))
    return idf_map, docs


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


def narrowest(array: np.ndarray) -> np.ndarray:
    """`array` in the narrowest integer dtype that holds its values:
    `np.result_type` of `np.min_scalar_type` of its least and greatest value
    (of 0 when it is empty). An array that is not of an integer dtype, or
    whose dtype that one is not narrower than, is returned as it is."""
    if array.dtype.kind not in "iu":
        return array
    lo, hi = (array.min(), array.max()) if len(array) else (0, 0)
    dtype = np.result_type(np.min_scalar_type(lo), np.min_scalar_type(hi))
    # A dtype narrower than the array's is an integer one that casts safely
    # back to it, as a load requires (`_read_array`).
    return array.astype(dtype) if dtype.itemsize < array.dtype.itemsize else array


def _read_array(path: Path, dtype) -> np.ndarray:
    """One `.npy` array in `dtype`; an integer one held in an integer dtype
    that casts safely to `dtype` (`narrowest`) is widened to it. numpy's
    `.npy` reader (`np.load` calls it for a `.npy` file) refuses a zip or a
    pickle, which `np.load` would open."""
    try:
        with open(path, "rb") as fh:
            array = np.lib.format.read_array(fh, allow_pickle=False)
    except FileNotFoundError:
        raise ValueError(f"{path}: missing; rerun `crowdrank build-index`") from None
    except (ValueError, EOFError) as exc:
        raise ValueError(f"{path}: not a readable .npy array: {exc}") from None
    dtype = np.dtype(dtype)
    widens = (dtype.kind in "iu" and array.dtype.kind in "iu"
              and np.can_cast(array.dtype, dtype, "safe"))
    if not (array.dtype == dtype or widens) or array.ndim != 1:
        raise ValueError(f"{path}: holds a {array.ndim}-d {array.dtype} array, "
                         f"not a 1-d {dtype} one")
    return array.astype(dtype, copy=False)


def _is_pointer(ptr: np.ndarray, end: int) -> bool:
    """An offsets array: starts at 0, never decreases, ends at `end`."""
    return ptr[0] == 0 and ptr[-1] == end and not np.any(ptr[1:] < ptr[:-1])


def save_documents(docs: DocumentStore, directory: str | Path) -> None:
    """Write the store into `directory` as DOCS_ARRAYS `.npy` files, each
    integer array in its `narrowest` dtype; a dtype fixed by the values
    keeps the bytes deterministic."""
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
            np.save(fh, narrowest(np.asarray(arrays[name], dtype=dtype)), allow_pickle=False)


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
        if len(ptr) != len(POST_TEXT) * rows + 1 or not _is_pointer(ptr, len(data)):
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
