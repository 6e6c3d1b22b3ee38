"""Corpus ingestion: JSONL Q&A dumps -> filtered, preprocessed threads.

A dump is one JSON object per line with the fields of :class:`RawPost`.
Questions pass a tag filter (default: java but not javascript); answers are
kept when their parent question passed. Threads keep only questions with a
positive score that retain at least one positive-score answer with code.

An index directory keeps no thread objects: the document store
(`documents.py`) holds every post's id, score, display text and word bags as
arrays, and `documents.ThreadMap` builds a `Thread` from them whenever one is
read. Such a post builds its bags from the store the first time anything
asks for them (`ProcessedPost.linked`); a search never does.
"""

from __future__ import annotations

import html
import json
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping

PREPROCESS_VERSION = 1
# The range of a post id or score: the document store holds them as int64.
_INT64 = range(-2**63, 2**63)

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_TAG_RE = re.compile(r"<[^>]*>")
_CODE_TAG_RE = re.compile(r"<(/?)(code|pre)(?:\s[^>]*)?>", re.IGNORECASE)
_NUMBER_RE = re.compile(r"^[0-9]+$")

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
        kind = obj["post_kind"]
        if kind not in ("question", "answer"):
            raise ValueError(f"bad post_kind {kind!r}")
        post = cls(
            id=int(obj["id"]),
            post_kind=kind,
            score=int(obj["score"]),
            body_html=str(obj["body_html"]),
            parent_id=int(obj["parent_id"]) if obj.get("parent_id") is not None else None,
            title=str(obj.get("title", "")),
            tags=tuple(str(t).lower() for t in obj.get("tags", ())),
        )
        if post.id <= 0:
            raise ValueError("id must be positive")
        if post.id not in _INT64 or post.score not in _INT64 or (
                post.parent_id is not None and post.parent_id not in _INT64):
            raise ValueError("an id or a score is beyond 64 bits")
        if kind == "answer" and post.parent_id is None:
            raise ValueError("answer without parent_id")
        return post


@dataclass
class LoadStats:
    warnings: int = 0
    questions: int = 0
    answers: int = 0
    dropped_questions: int = 0
    dropped_answers: int = 0


def load_dump(path: str | Path, tag_filter: TagFilter | None = None,
              stats: LoadStats | None = None) -> list[RawPost]:
    """Load a JSONL dump, keeping tag-passing questions and their answers.

    Malformed lines, posts missing required fields and posts whose id or
    score does not fit 64 bits are skipped and counted in ``stats.warnings``.
    An unreadable file raises OSError.
    """
    tag_filter = tag_filter or TagFilter()
    stats = stats if stats is not None else LoadStats()
    parsed: list[RawPost] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                parsed.append(RawPost.from_json(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                stats.warnings += 1

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
    """Turn text into a bag of words.

    Lowercases, splits on non-alphanumeric boundaries, drops stopwords, pure
    numbers and words shorter than two characters. Query mode additionally
    deduplicates (every count becomes 1).
    """
    if mode not in ("corpus", "query"):
        raise ValueError(f"bad mode {mode!r}")
    stopwords = stopwords if stopwords is not None else default_stopwords()
    bag: Counter = Counter()
    for token in _TOKEN_RE.findall(text.lower()):
        if len(token) < 2 or token in stopwords or _NUMBER_RE.match(token):
            continue
        bag[token] += 1
    if mode == "query":
        return Counter(dict.fromkeys(bag, 1))
    return bag


BAG_FIELDS = ("title_bag", "body_bag", "code_bag")


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

    @classmethod
    def linked(cls, post_id: int, score: int, text: Mapping[str, str],
               bags: Callable[[int], tuple[Counter, ...]], row: int) -> "ProcessedPost":
        """A post of the given id, score and display text (code_text,
        original_title, original_body) whose three bags `bags(row)` builds
        when one is first read."""
        post = object.__new__(cls)
        post.__dict__.update(id=post_id, score=score, **text, _bag_link=(bags, row))
        return post

    def __getattr__(self, name: str):
        # Reached only for an attribute the post lacks: a linked post's bags
        # before their first read. The link builds all three; they are kept.
        link = self.__dict__.get("_bag_link") if name in BAG_FIELDS else None
        if link is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        bags, row = link
        self.__dict__.update(zip(BAG_FIELDS, bags(row)))
        del self.__dict__["_bag_link"]
        return self.__dict__[name]

    def __getstate__(self) -> dict:
        # A copy or a pickle holds the bags, not the link to the store.
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


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
    bag = preprocess(text, "corpus", stopwords)
    return Counter({word: bag[word] for word in sorted(bag)})


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


def build_threads(posts: Iterable[RawPost], stopwords: frozenset[str] | None = None,
                  stats: BuildStats | None = None) -> list[Thread]:
    """Reconstruct threads from a post stream.

    A thread survives when its question scores above zero and keeps at least
    one answer that scores above zero and contains code. Output is sorted by
    question id so rebuilds are deterministic.
    """
    stats = stats if stats is not None else BuildStats()
    questions: dict[int, RawPost] = {}
    answers_by_parent: dict[int, list[RawPost]] = {}
    for post in posts:
        if post.post_kind == "question":
            questions[post.id] = post
        else:
            answers_by_parent.setdefault(post.parent_id, []).append(post)

    orphan_parents = set(answers_by_parent) - set(questions)
    stats.orphan_answers += sum(len(answers_by_parent[p]) for p in orphan_parents)

    threads: list[Thread] = []
    for qid in sorted(questions):
        question = questions[qid]
        if question.score <= 0:
            stats.dropped_questions += 1
            continue
        retained: list[ProcessedPost] = []
        for ans in sorted(answers_by_parent.get(qid, ()), key=lambda a: a.id):
            if ans.score <= 0:
                stats.dropped_answers += 1
                continue
            processed = process_post(ans, stopwords)
            if not processed.code_bag:
                stats.dropped_answers += 1
                continue
            retained.append(processed)
        if not retained:
            stats.dropped_questions += 1
            continue
        threads.append(Thread(question=process_post(question, stopwords), answers=retained))
    return threads


def read_json_object(path: str | Path) -> dict:
    """One JSON object from a file; ValueError, naming the file, for other content."""
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    return payload
