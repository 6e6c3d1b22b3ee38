"""Corpus ingestion: JSONL Q&A dumps -> filtered, preprocessed threads.

A dump is one JSON object per line with the fields of :class:`RawPost`.
Questions pass a tag filter (default: java but not javascript); answers are
kept when their parent question passed. Threads keep only questions with a
positive score that retain at least one positive-score answer with code.
"""

from __future__ import annotations

import html
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

THREAD_STORE_FORMAT = "crowdrank-threads"
THREAD_STORE_VERSION = 1
PREPROCESS_VERSION = 1

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

    Malformed lines and posts missing required fields are skipped and counted
    in ``stats.warnings``. An unreadable file raises OSError.
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


@dataclass
class ProcessedPost:
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


def process_post(post: RawPost, stopwords: frozenset[str] | None = None) -> ProcessedPost:
    prose, code = separate_code(post.body_html)
    return ProcessedPost(
        id=post.id,
        score=post.score,
        title_bag=preprocess(post.title, "corpus", stopwords),
        body_bag=preprocess(prose, "corpus", stopwords),
        code_bag=preprocess(code, "corpus", stopwords),
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


def _bag_to_json(bag: Counter) -> dict:
    return {w: bag[w] for w in sorted(bag)}


def _post_to_json(post: ProcessedPost) -> dict:
    return {
        "id": post.id,
        "score": post.score,
        "title_bag": _bag_to_json(post.title_bag),
        "body_bag": _bag_to_json(post.body_bag),
        "code_bag": _bag_to_json(post.code_bag),
        "code_text": post.code_text,
        "original_title": post.original_title,
        "original_body": post.original_body,
    }


def _post_from_json(obj: dict) -> ProcessedPost:
    return ProcessedPost(
        id=obj["id"],
        score=obj["score"],
        title_bag=Counter(obj["title_bag"]),
        body_bag=Counter(obj["body_bag"]),
        code_bag=Counter(obj["code_bag"]),
        code_text=obj["code_text"],
        original_title=obj["original_title"],
        original_body=obj["original_body"],
    )


def save_threads(threads: list[Thread], path: str | Path) -> None:
    """Write the thread store as versioned JSONL (header line + one thread per line)."""
    header = {"format": THREAD_STORE_FORMAT, "version": THREAD_STORE_VERSION,
              "preprocess_version": PREPROCESS_VERSION}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for thread in sorted(threads, key=lambda t: t.question.id):
            obj = {
                "question": _post_to_json(thread.question),
                "answers": [_post_to_json(a) for a in thread.answers],
            }
            fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n")


def read_json_object(path: str | Path) -> dict:
    """One JSON object from a file; ValueError, naming the file, for other content."""
    try:
        payload = json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: not a JSON file: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    return payload


def load_threads(path: str | Path) -> list[Thread]:
    """The thread store; ValueError, naming `path:lineno`, for a damaged line."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            fmt, version = header.get("format"), header.get("version")
        except (AttributeError, ValueError) as exc:
            raise ValueError(f"{path}:1: not a thread store header ({exc})") from None
        if fmt != THREAD_STORE_FORMAT:
            raise ValueError(f"not a thread store: {path}")
        if version != THREAD_STORE_VERSION:
            raise ValueError(f"unsupported thread store version {version}")
        threads, lineno = [], 1
        try:
            for lineno, line in enumerate(fh, 2):
                obj = json.loads(line.decode("utf-8"))
                threads.append(Thread(
                    question=_post_from_json(obj["question"]),
                    answers=[_post_from_json(a) for a in obj["answers"]],
                ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: not a thread "
                             f"({type(exc).__name__}: {exc})") from None
    return threads
