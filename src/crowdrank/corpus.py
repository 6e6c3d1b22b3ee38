"""Corpus ingestion: JSONL Q&A dumps -> filtered posts, grouped into threads.

A dump is one JSON object per line with the fields of :class:`RawPost`.
Questions pass a tag filter (default: java but not javascript); answers are
kept when their parent question passed. Threads keep only questions with a
positive score that retain at least one positive-score answer with code:
`select_threads` is that rule, written once. A build
(`documents.build_store`) streams its threads into the document store's
arrays, word ids and counts without a word bag per post; `build_threads`
makes the same threads as `Thread`s of `ProcessedPost`s, bags included.

An index directory keeps no thread objects: the document store
(`documents.py`) holds every post's id, score, display text and word bags as
arrays, and `documents.ThreadMap` builds a `Thread` from them, bags
included, whenever one is read; a search never reads one.
"""

from __future__ import annotations

import html
import json
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import filterfalse
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sized, TypeVar

PREPROCESS_VERSION = 1
# The range of a post id or score: the document store holds them as int64.
_INT64 = range(-2**63, 2**63)

# A word of lowercased text is a maximal run of [a-z0-9]. `kept_words`
# encodes the text to ASCII, each other character as "?", and this table
# makes every byte outside [a-z0-9] a space, so that `split` cuts the runs.
# `tests/synth.py`'s `preprocess_reference`, a loop over the runs of one
# regular expression, is the oracle that the tests hold it to.
_WORD_BYTES = frozenset(b"abcdefghijklmnopqrstuvwxyz0123456789")
_SEPARATORS = bytes(c if c in _WORD_BYTES else 0x20 for c in range(256))
_TAG_RE = re.compile(r"<[^>]*>")
_CODE_TAG_RE = re.compile(r"<(/?)(code|pre)(?:\s[^>]*)?>", re.IGNORECASE)

_stopwords_cache: frozenset[str] | None = None


def default_stopwords() -> frozenset[str]:
    """Stopword list bundled with the package."""
    global _stopwords_cache
    if _stopwords_cache is None:
        text = resources.files("crowdrank.data").joinpath("stopwords.txt").read_text("utf-8")
        _stopwords_cache = _parse_stopwords(text)
    return _stopwords_cache


def read_text(path: str | Path) -> str:
    """A UTF-8 text file; ValueError, naming the file, for other bytes."""
    try:
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None


def load_stopwords(path: str | Path) -> frozenset[str]:
    return _parse_stopwords(read_text(path))


def _parse_stopwords(text: str) -> frozenset[str]:
    words = set()
    for line in text.splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


@dataclass(frozen=True)
class TagFilter:
    """Keep questions whose tags contain every `require` tag and none of `forbid`."""

    require: tuple[str, ...] = ("java",)
    forbid: tuple[str, ...] = ("javascript",)

    def accepts(self, tags: Iterable[str]) -> bool:
        tagset = {t.lower() for t in tags}
        return all(t in tagset for t in self.require) and not any(t in tagset for t in self.forbid)


@dataclass
class RawPost:
    id: int
    post_kind: str  # "question" | "answer"
    score: int
    body_html: str
    parent_id: int | None = None
    title: str = ""
    tags: tuple[str, ...] = ()

    @classmethod
    def from_json(cls, obj: dict) -> "RawPost":
        """The post of a parsed dump line. ValueError (KeyError for a missing
        required field) unless each field has its JSON type: an id, a parent id
        or a score is an integer within 64 bits, not a bool, float or string;
        a title or body is a string with a UTF-8 form, and tags are a list of
        strings. Nothing is coerced."""
        kind = obj["post_kind"]
        if kind not in ("question", "answer"):
            raise ValueError(f"bad post_kind {kind!r}")
        parent_id = obj.get("parent_id")
        tags = obj.get("tags", [])
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise ValueError("tags must be a list of strings")
        post = cls(id=_integer(obj["id"], "id"), post_kind=kind,
                   score=_integer(obj["score"], "score"),
                   body_html=_text(obj["body_html"], "body_html"),
                   parent_id=None if parent_id is None else _integer(parent_id, "parent_id"),
                   title=_text(obj.get("title", ""), "title"),
                   tags=tuple(t.lower() for t in tags))
        if post.id <= 0:
            raise ValueError("id must be positive")
        if kind == "answer" and post.parent_id is None:
            raise ValueError("answer without parent_id")
        return post


def _integer(value, field: str) -> int:
    """A JSON integer within the document store's int64; bool, the int
    subclass JSON's true and false load as, is not one."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, not {type(value).__name__}")
    if value not in _INT64:
        raise ValueError(f"{field} is beyond 64 bits")
    return value


def _text(value, field: str) -> str:
    """A JSON string with a UTF-8 form, as the document store holds text. A
    lone-surrogate escape in the JSON (\\ud800) decodes to a str with none."""
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, not {type(value).__name__}")
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{field} holds a lone surrogate, which UTF-8 cannot encode"
                             ) from None
    return value


# The (line, cause) pairs of a load's warnings that LoadStats keeps.
KEPT_WARNINGS = 10


@dataclass
class LoadStats:
    """A load's counts; beside them, its first KEPT_WARNINGS warnings, each
    the dump's line number (from 1) and the cause, which are not counts and
    take no part in comparisons."""
    warnings: int = 0
    questions: int = 0
    answers: int = 0
    dropped_questions: int = 0
    dropped_answers: int = 0
    first_warnings: list[tuple[int, str]] = field(default_factory=list, compare=False,
                                                  repr=False)

    def warn(self, line: int, cause: str) -> None:
        self.warnings += 1
        if len(self.first_warnings) < KEPT_WARNINGS:
            self.first_warnings.append((line, cause))


def load_dump(path: str | Path, tag_filter: TagFilter | None = None,
              stats: LoadStats | None = None) -> list[RawPost]:
    """Load a JSONL dump, keeping tag-passing questions and their answers.

    Malformed lines (bytes that are not UTF-8 among them), posts missing
    required fields and posts with a field of the wrong JSON type
    (`RawPost.from_json`: a float, bool or string id or score, such as 1e999,
    true or "7", or tags that are not a list of strings) are skipped and
    counted in ``stats.warnings``, as is a post whose id an earlier post of
    either kind holds: the first line with an id counts. `stats.warn` keeps
    each warning's line number and cause. An unreadable file raises OSError.
    """
    tag_filter = tag_filter or TagFilter()
    stats = stats if stats is not None else LoadStats()
    parsed: list[RawPost] = []
    seen: dict[int, int] = {}  # post id -> the line that holds it
    # A byte that is not UTF-8 reads as a lone surrogate, which no UTF-8 text
    # holds, so that it spoils its own line only. Only LF ends a line, as for
    # `wc -l` and `sed -n`; `strip` drops the CR of a CRLF.
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                post = _post_of_line(line)
            except ValueError as exc:
                stats.warn(number, str(exc))
                continue
            if post.id in seen:
                stats.warn(number, f"id {post.id} repeats line {seen[post.id]}")
                continue
            seen[post.id] = number
            parsed.append(post)

    accepted_questions = {
        p.id for p in parsed if p.post_kind == "question" and tag_filter.accepts(p.tags)
    }
    kept: list[RawPost] = []
    for p in parsed:
        if p.post_kind == "question":
            if p.id in accepted_questions:
                kept.append(p)
                stats.questions += 1
            else:
                stats.dropped_questions += 1
        else:
            if p.parent_id in accepted_questions:
                kept.append(p)
                stats.answers += 1
            else:
                stats.dropped_answers += 1
    return kept


def _post_of_line(line: str) -> RawPost:
    """The post of a dump line; ValueError says why the line holds none."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("not UTF-8") from None
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    try:
        return RawPost.from_json(obj)
    except KeyError as exc:
        raise ValueError(f"no {exc.args[0]} field") from None
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def separate_code(body_html: str) -> tuple[str, str]:
    """Split post markup into (prose, code).

    Text inside <code> or <pre> elements (nested counts once) goes to code;
    everything else, with remaining HTML tags stripped, goes to prose. An
    unbalanced open tag runs to the end of the document.
    """
    prose_parts: list[str] = []
    code_parts: list[str] = []
    depth = 0
    pos = 0
    for m in _CODE_TAG_RE.finditer(body_html):
        segment = body_html[pos:m.start()]
        (code_parts if depth > 0 else prose_parts).append(segment)
        if m.group(1):  # closing tag
            depth = max(0, depth - 1)
        else:
            depth += 1
        pos = m.end()
    tail = body_html[pos:]
    (code_parts if depth > 0 else prose_parts).append(tail)

    prose = html.unescape(_TAG_RE.sub("", "".join(prose_parts)))
    code = html.unescape(_TAG_RE.sub("", "".join(code_parts)))
    return prose, code


def preprocess(text: str, mode: str = "corpus",
               stopwords: frozenset[str] | None = None) -> Counter:
    """Turn text into a bag of words, in the order of their first occurrence.

    Lowercases, splits on non-alphanumeric boundaries, drops stopwords, pure
    numbers and words shorter than two characters. Query mode additionally
    deduplicates (every count becomes 1).
    """
    if mode not in ("corpus", "query"):
        raise ValueError(f"bad mode {mode!r}")
    words = kept_words(text, stopwords)
    if mode == "query":
        return Counter(dict.fromkeys(words, 1))
    return Counter(words)


def kept_words(text: str, stopwords: frozenset[str] | None) -> Iterator[str]:
    """The words of `text` that its bag counts, in order, repeats included:
    its [a-z0-9] runs once lowercased, less stopwords, one-letter words and
    pure numbers."""
    words = text.lower().encode("ascii", "replace").translate(_SEPARATORS).decode("ascii").split()
    dropped = _dropped(stopwords if stopwords is not None else default_stopwords())
    return filterfalse(str.isdigit, filterfalse(dropped.__contains__, words))


@lru_cache(maxsize=8)
def _dropped(stopwords: frozenset[str]) -> frozenset[str]:
    """The words a bag drops besides pure numbers: the stopwords and the
    one-letter words (a one-digit word is a pure number)."""
    return stopwords | frozenset(string.ascii_lowercase)


@dataclass
class ProcessedPost:
    """A post's bags hold their words in sorted order (`process_post`)."""
    id: int
    score: int
    title_bag: Counter
    body_bag: Counter
    code_bag: Counter
    code_text: str
    original_title: str
    original_body: str


@dataclass
class Thread:
    question: ProcessedPost
    answers: list[ProcessedPost]

    @property
    def answer_count(self) -> int:
        return len(self.answers)

    @property
    def question_score(self) -> int:
        return self.question.score

    @property
    def total_answer_score(self) -> int:
        return sum(a.score for a in self.answers)


def _sorted_bag(text: str, stopwords: frozenset[str] | None) -> Counter:
    """A corpus bag of `text` with its words in sorted order: the order of the
    document store, so that a post built and a post loaded share one `repr`."""
    return Counter(sorted(kept_words(text, stopwords)))


def process_post(post: RawPost, stopwords: frozenset[str] | None = None) -> ProcessedPost:
    prose, code = separate_code(post.body_html)
    return ProcessedPost(
        id=post.id,
        score=post.score,
        title_bag=_sorted_bag(post.title, stopwords),
        body_bag=_sorted_bag(prose, stopwords),
        code_bag=_sorted_bag(code, stopwords),
        code_text=code,
        original_title=post.title,
        original_body=post.body_html,
    )


@dataclass
class BuildStats:
    orphan_answers: int = 0
    dropped_questions: int = 0
    dropped_answers: int = 0


T = TypeVar("T")


def select_threads(posts: Iterable[RawPost], process_answer: Callable[[RawPost], tuple[T, Sized]],
                   stats: BuildStats | None = None) -> Iterator[tuple[RawPost, list[T]]]:
    """The threads of a post stream, by ascending question id: each kept
    question with its kept answers, by ascending answer id.

    `process_answer` is called on each positive-score answer of a
    positive-score question and returns the answer as the caller keeps it
    and the words of its code; an answer is kept when those are not empty,
    and a question when it keeps an answer. Of posts of either kind that
    share an id the first one counts, as in `load_dump`, and each later one
    is a dropped question or answer. `stats` counts the answers of absent
    questions and the dropped posts.
    """
    stats = stats if stats is not None else BuildStats()
    questions: dict[int, RawPost] = {}
    answers_by_parent: dict[int, list[RawPost]] = {}
    seen: set[int] = set()
    for post in posts:
        if post.id in seen:
            if post.post_kind == "question":
                stats.dropped_questions += 1
            else:
                stats.dropped_answers += 1
            continue
        seen.add(post.id)
        if post.post_kind == "question":
            questions[post.id] = post
        else:
            answers_by_parent.setdefault(post.parent_id, []).append(post)

    orphan_parents = set(answers_by_parent) - set(questions)
    stats.orphan_answers += sum(len(answers_by_parent[p]) for p in orphan_parents)

    for qid in sorted(questions):
        question = questions[qid]
        if question.score <= 0:
            stats.dropped_questions += 1
            continue
        retained: list[T] = []
        for answer in sorted(answers_by_parent.get(qid, ()), key=lambda a: a.id):
            if answer.score > 0:
                kept, code_words = process_answer(answer)
                if code_words:
                    retained.append(kept)
                    continue
            stats.dropped_answers += 1
        if not retained:
            stats.dropped_questions += 1
            continue
        yield question, retained


def build_threads(posts: Iterable[RawPost], stopwords: frozenset[str] | None = None,
                  stats: BuildStats | None = None) -> list[Thread]:
    """The threads of a post stream (`select_threads`), their posts processed."""
    def process(answer: RawPost) -> tuple[ProcessedPost, Counter]:
        processed = process_post(answer, stopwords)
        return processed, processed.code_bag

    return [Thread(question=process_post(question, stopwords), answers=answers)
            for question, answers in select_threads(posts, process, stats)]


def read_json_object(path: str | Path) -> dict:
    """One JSON object from a file; ValueError, naming the file, for other content."""
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    return payload
