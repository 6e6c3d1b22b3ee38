"""POS-tagged antonym dictionary and the antonym penalty / filter.

The dictionary file format is UTF-8 lines ``word<TAB>pos_flags<TAB>a1,a2,...``
with pos_flags a subset of {n,v}; ``#`` starts a comment. Merging applies the
symmetric closure (a -> b implies b -> a) because source lists disagree about
direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable

POS_MODES = ("NN", "VB", "NN_VB")

_VERB_SUFFIXES = ("ing", "ize", "ify")
_NOUN_SUFFIXES = ("tion", "ness", "ment")


def suffix_pos_tags(word: str) -> frozenset[str]:
    """Heuristic tags for words the lexicon does not tag explicitly."""
    if any(word.endswith(s) for s in _VERB_SUFFIXES):
        return frozenset("v")
    if any(word.endswith(s) for s in _NOUN_SUFFIXES):
        return frozenset("n")
    return frozenset("nv")


@dataclass
class AntonymEntry:
    pos_tags: set[str] = field(default_factory=set)
    antonyms: set[str] = field(default_factory=set)


class AntonymDictionary:
    """Immutable-after-load map word -> (pos tags, antonym set)."""

    def __init__(self, entries: dict[str, AntonymEntry] | None = None):
        self.entries: dict[str, AntonymEntry] = entries or {}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def tags(self, word: str) -> frozenset[str]:
        """Explicit lexicon tags, falling back to the suffix heuristic."""
        entry = self.entries.get(word)
        if entry is None:
            return frozenset()
        if entry.pos_tags:
            return frozenset(entry.pos_tags)
        return suffix_pos_tags(word)

    def antonyms_of(self, word: str) -> frozenset[str]:
        entry = self.entries.get(word)
        return frozenset(entry.antonyms) if entry else frozenset()

    def pos_filter(self, query_bag: Iterable[str], pos_mode: str) -> set[str]:
        """Query words whose tags intersect the mode; unknown words excluded."""
        wanted = _mode_tags(pos_mode)
        return {w for w in query_bag if self.tags(w) & wanted}

    def context(self, query_bag: Iterable[str], pos_mode: str) -> "AntonymQueryContext":
        query = set(query_bag)
        selected = self.pos_filter(query, pos_mode)
        self_antonymous = any(self.antonyms_of(w) & query for w in query)
        collected: set[str] = set()
        for word in selected:
            collected |= self.antonyms_of(word)
        return AntonymQueryContext(antonyms=frozenset(collected - query),
                                   self_antonymous=self_antonymous)


def _mode_tags(pos_mode: str) -> frozenset[str]:
    if pos_mode == "NN":
        return frozenset("n")
    if pos_mode == "VB":
        return frozenset("v")
    if pos_mode == "NN_VB":
        return frozenset("nv")
    raise ValueError(f"bad pos_mode {pos_mode!r}; expected one of {POS_MODES}")


@dataclass(frozen=True)
class AntonymQueryContext:
    """Collected antonyms of the query's nouns/verbs (Anticipated match set).

    When the query is self-antonymous (it contains a word and its antonym,
    e.g. zip/unzip), the antonym set is treated as empty for scoring.
    """

    antonyms: frozenset[str]
    self_antonymous: bool = False

    def score(self, candidate_bag: Iterable[str]) -> int:
        """Number of collected antonyms appearing in the candidate bag."""
        if self.self_antonymous:
            return 0
        return len(self.antonyms & set(candidate_bag))


@dataclass
class MergeStats:
    warnings: int = 0


def merge_lists(paths: Iterable[str | Path], stats: MergeStats | None = None) -> AntonymDictionary:
    """Merge dictionary files: union entries, antonym sets and POS tags."""
    stats = stats if stats is not None else MergeStats()
    entries: dict[str, AntonymEntry] = {}
    for path in paths:
        for line in Path(path).read_text("utf-8").splitlines():
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            word = parts[0].strip().lower()
            if not word or " " in word:
                stats.warnings += 1
                continue
            flags = parts[1].strip().lower() if len(parts) > 1 else ""
            if any(c not in "nv" for c in flags):
                stats.warnings += 1
                continue
            ants = set()
            if len(parts) > 2 and parts[2].strip():
                ants = {a.strip().lower() for a in parts[2].split(",") if a.strip()}
            entry = entries.setdefault(word, AntonymEntry())
            entry.pos_tags |= set(flags)
            entry.antonyms |= ants - {word}

    # symmetric closure
    for word in list(entries):
        for ant in list(entries[word].antonyms):
            entries.setdefault(ant, AntonymEntry()).antonyms.add(word)
    return AntonymDictionary(entries)


def save_dictionary(dictionary: AntonymDictionary, path: str | Path) -> None:
    lines = []
    for word in sorted(dictionary.entries):
        entry = dictionary.entries[word]
        flags = "".join(sorted(entry.pos_tags))
        ants = ",".join(sorted(entry.antonyms))
        lines.append(f"{word}\t{flags}\t{ants}")
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")


def default_dictionary() -> AntonymDictionary:
    """The antonym lexicon bundled with the package."""
    with resources.as_file(resources.files("crowdrank.data").joinpath("antonyms.tsv")) as p:
        return merge_lists([p])
