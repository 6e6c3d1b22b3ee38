"""Seeded synthetic inputs for the crowdrank benchmark.

Every input a workload needs (the JSONL post dump, the queries, the planted
truth and the counts the generator planted) is made here from one integer
seed. The same seed gives byte-identical files whatever PYTHONHASHSEED is:
nothing here iterates a set or a dict in hash order. The program under test
receives only the written files.

Text is made of pseudo-words (consonant-vowel syllables) so that no generated
word is an English stopword or an antonym-lexicon entry unless it is put in
on purpose. Three disjoint word families keep the workloads' properties
exact:

- corpus words: letters without ``x`` and ``z``, drawn Zipf-wise;
- novel query words: start with ``z``, so they never occur in any corpus;
- narrow task words (ablation-grid): start with ``x``, so only the planted
  threads carry them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

CONSONANTS = "bdfgklmnprstv"
VOWELS = "aeiou"
# English glue words; all are stopwords, so they cost preprocessing but never
# reach a bag.
GLUE = ("the", "a", "to", "with", "how", "is", "in", "of", "and", "it")

VOCAB_SIZE = 3000
ZIPF_EXPONENT = 1.0
METHOD_COUNT = 300
# Zipf ranks of the common words in search queries: query i takes the words
# at COMMON_RANKS[k] + i. Each such word occurs in over a tenth of the
# threads, so it alone fills the 500-thread BM25 budget; fixed ranks keep the
# candidate pool, and so the work per search, alike from seed to seed.
COMMON_RANKS = (12, 60)


@dataclass(frozen=True)
class ThreadShape:
    """Sizes of one generated thread; each pair is an inclusive range of words
    (lines for code)."""

    title: tuple[int, int]
    body: tuple[int, int]
    question_code_share: float
    answers: tuple[int, int]
    prose: tuple[int, int]
    code_lines: tuple[int, int]


# search-5k and the ablation background: about 75 distinct tokens a thread.
FULL_SHAPE = ThreadShape(title=(5, 9), body=(15, 40), question_code_share=0.3,
                         answers=(1, 4), prose=(12, 35), code_lines=(3, 6))
# build-20k: shorter threads, so that a 20k build and three loads fit in one run.
COMPACT_SHAPE = ThreadShape(title=(4, 8), body=(6, 14), question_code_share=0.2,
                            answers=(1, 3), prose=(5, 12), code_lines=(2, 4))
# Planted ablation threads: small, so 37 baselines x every task fit in a run.
PLANTED_SHAPE = ThreadShape(title=(4, 7), body=(8, 16), question_code_share=0.0,
                            answers=(1, 2), prose=(6, 14), code_lines=(3, 5))


class Zipf:
    """Draws items with probability proportional to 1 / rank**exponent."""

    def __init__(self, items: list[str], exponent: float = ZIPF_EXPONENT):
        self.items = items
        acc = 0.0
        self.cum: list[float] = []
        for rank in range(1, len(items) + 1):
            acc += 1.0 / rank ** exponent
            self.cum.append(acc)

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.items, cum_weights=self.cum, k=k)


def make_words(rng: random.Random, count: int, reserved: frozenset[str],
               prefix: str = "", syllables: tuple[int, ...] = (2, 3, 3)) -> list[str]:
    """`count` distinct pseudo-words, none of them in `reserved`."""
    out: list[str] = []
    seen = set(reserved)
    while len(out) < count:
        n = rng.choice(syllables)
        word = prefix + "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(n))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


class Lexicon:
    """The corpus vocabulary and method names of one seed."""

    def __init__(self, rng: random.Random, reserved: frozenset[str]):
        self.vocab = make_words(rng, VOCAB_SIZE, reserved)
        self.words = Zipf(self.vocab)
        parts = self.vocab[:METHOD_COUNT * 2]
        self.methods = Zipf([parts[2 * i] + parts[2 * i + 1].capitalize()
                             for i in range(METHOD_COUNT)])
        self.reserved = frozenset(reserved) | frozenset(self.vocab)


def prose(rng: random.Random, words: list[str]) -> str:
    out = []
    for word in words:
        if rng.random() < 0.2:
            out.append(rng.choice(GLUE))
        out.append(word)
    return " ".join(out)


def code_block(rng: random.Random, lex: Lexicon, n_lines: int,
               extra: list[str] = (), method: str | None = None) -> str:
    """A Java-like snippet that calls a few methods, most of them repeatedly.

    With `method` every call is to that one method.
    """
    var = lex.words.draw(rng, 1)[0]
    cls = var.capitalize()
    methods = [method] if method else lex.methods.draw(rng, max(1, n_lines // 2))
    args = lex.words.draw(rng, n_lines) + list(extra)
    lines = [f"{cls} {var} = new {cls}();"]
    for i, arg in enumerate(args):
        lines.append(f"{var}.{methods[i % len(methods)]}({arg});")
    return "<pre><code>" + "\n".join(lines) + "</code></pre>"


def question_post(qid: int, title: str, body: str, score: int,
                  tags: tuple[str, ...] = ("java",)) -> dict:
    return {"id": qid, "post_kind": "question", "title": title,
            "body_html": body, "score": score, "tags": list(tags)}


def answer_post(aid: int, parent: int, body: str, score: int) -> dict:
    return {"id": aid, "post_kind": "answer", "parent_id": parent,
            "body_html": body, "score": score}


def _span(rng: random.Random, bounds: tuple[int, int]) -> int:
    return rng.randint(bounds[0], bounds[1])


def question_score(rng: random.Random) -> int:
    """Spread over every step of the question-score ladder, 1 to ~700."""
    return rng.choice((1, 3, 8, 20, 40, 70, 90, 150, 400, 700)) + rng.randint(0, 5)


@dataclass
class GenThread:
    question: dict
    answers: list[dict]


def make_thread(rng: random.Random, lex: Lexicon, qid: int, shape: ThreadShape,
                title_extra: list[str] = (),
                answer_extra: list[list[str]] | None = None) -> GenThread:
    """One valid thread: positive scores and code in every answer.

    `title_extra` words are added to the title and the question body;
    `answer_extra[i]` words to answer i's prose and code. When given,
    len(answer_extra) is the number of answers.
    """
    title_words = lex.words.draw(rng, _span(rng, shape.title)) + list(title_extra)
    body = "<p>" + prose(rng, lex.words.draw(rng, _span(rng, shape.body))
                         + list(title_extra)) + "</p>"
    if rng.random() < shape.question_code_share:
        body += code_block(rng, lex, _span(rng, shape.code_lines))
    question = question_post(qid, prose(rng, title_words).capitalize() + "?", body,
                             question_score(rng))
    if answer_extra is None:
        answer_extra = [[] for _ in range(_span(rng, shape.answers))]
    answers = []
    for i, extra in enumerate(answer_extra):
        words = lex.words.draw(rng, _span(rng, shape.prose)) + list(extra)
        body = ("<p>" + prose(rng, words) + "</p>"
                + code_block(rng, lex, _span(rng, shape.code_lines), list(extra)))
        answers.append(answer_post(qid + 1 + i, qid, body, rng.randint(1, 60)))
    return GenThread(question, answers)


def make_relevant(rng: random.Random, lex: Lexicon, qid: int, shape: ThreadShape,
                  title_words: list[str], answer_words: list[str],
                  n_answers: int = 1) -> GenThread:
    """A thread planted as a task's answer: its title holds `title_words`, its
    first answer holds `answer_words` and calls the corpus' most common method,
    and both score well. Later answers are ordinary."""
    thread = make_thread(rng, lex, qid, shape, title_extra=title_words,
                         answer_extra=[answer_words] + [[] for _ in range(n_answers - 1)])
    first = thread.answers[0]
    first["body_html"] = ("<p>" + prose(rng, lex.words.draw(rng, _span(rng, shape.prose))
                                        + answer_words) + "</p>"
                          + code_block(rng, lex, _span(rng, shape.code_lines), answer_words,
                                       method=lex.methods.items[0]))
    first["score"] = 60 + rng.randint(0, 40)
    thread.question["score"] = 400 + rng.randint(0, 300)
    return thread


def write_jsonl(path: Path, objects) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _load_counts(questions: int, answers: int) -> dict:
    return {"warnings": 0, "questions": questions, "answers": answers,
            "dropped_questions": 0, "dropped_answers": 0}


def _build_counts() -> dict:
    # load_dump already drops answers whose parent is absent, so
    # build_threads never sees an orphan.
    return {"orphan_answers": 0, "dropped_questions": 0, "dropped_answers": 0}


# ---------------------------------------------------------------------------
# workloads
#
# Each gen_* function writes dump.jsonl and truth.jsonl (GroundTruth format,
# one task per line) into `out` and returns the manifest: the counts that
# load_dump and build_threads must report for the dump.

# One round of search queries, in a seeded order: every round (and so every
# run) sees the same mix of sizes, from 3 to 7 words. Five of the seven have
# five words, so a run's median latency is the middle of five like searches
# spread over most of the round, rather than one search that a slow stretch
# of the machine can shift.
ROUND_LENGTHS = (3, 5, 5, 5, 5, 5, 7)


def search_query_words(length: int) -> tuple[int, int, int]:
    """(common, narrow, novel) word counts of a search query of `length` words.

    The common words fill the BM25 budget; the narrow words name the planted
    answer; from four words up one word is novel (no corpus holds it).
    """
    novel = 1 if length >= 4 else 0
    common = 1 if length <= 5 else 2
    return common, length - common - novel, novel


def plant_search_tasks(rng: random.Random, lex: Lexicon, n_threads: int, n_rounds: int):
    """Pick the slots of the planted threads and write their queries.

    Returns {slot: (title words, answer words)} and the tasks in query order
    (query id, text and slot; the answer ids are known once the slot's
    thread is made).
    """
    n_queries = n_rounds * len(ROUND_LENGTHS)
    slots = rng.sample(range(n_threads), n_queries)
    narrow = make_words(rng, 4 * n_queries, lex.reserved, prefix="x")
    novel = make_words(rng, n_queries, lex.reserved, prefix="z")
    plants, tasks = {}, []
    for _ in range(n_rounds):
        lengths = list(ROUND_LENGTHS)
        rng.shuffle(lengths)
        for length in lengths:
            i = len(tasks)
            n_common, n_narrow, n_novel = search_query_words(length)
            common = [lex.vocab[rank + i] for rank in COMMON_RANKS[:n_common]]
            words = narrow[4 * i:4 * i + n_narrow]
            query = common + words + novel[i:i + n_novel]
            rng.shuffle(query)
            plants[slots[i]] = (words, common + words)
            tasks.append({"query_id": i + 1, "query_text": " ".join(query), "slot": slots[i]})
    return plants, tasks


def _truth(tasks: list[dict], relevant_by_slot: dict[int, list[int]]) -> list[dict]:
    return [{"query_id": t["query_id"], "query_text": t["query_text"],
             "relevant_answer_ids": relevant_by_slot[t["slot"]]} for t in tasks]


# Planted invalid posts in the build-20k dump, per kind; search-5k plants a
# quarter of each.
INVALID_COUNTS = {
    "javascript": 150,      # tagged java+javascript: tag filter drops it and its answers
    "python_only": 100,     # tagged python only: same
    "nonpositive_q": 150,   # question score <= 0: build drops it (its answers uncounted)
    "all_answers_bad": 100, # single answer with score <= 0: both dropped
    "no_answers": 50,       # question alone: dropped
    "nonpositive_a": 200,   # extra answer with score <= 0 in a valid thread
    "no_code_a": 200,       # extra answer without code in a valid thread
    "orphan": 100,          # answer whose parent is not in the dump
    "malformed": 60,        # lines load_dump must skip with a warning
}

_MALFORMED = (
    lambda pid: "{not json",
    lambda pid: json.dumps({"id": pid, "post_kind": "question", "title": "t",
                            "body_html": "b", "tags": ["java"]}),           # no score
    lambda pid: json.dumps({"id": pid, "post_kind": "comment", "score": 1,
                            "body_html": "b"}),                             # bad kind
    lambda pid: json.dumps({"id": -pid, "post_kind": "question", "score": 1,
                            "body_html": "b", "tags": ["java"]}),           # bad id
    lambda pid: json.dumps({"id": pid, "post_kind": "answer", "score": 1,
                            "body_html": "<code>x.y()</code>"}),            # no parent
)


def gen_search(out: Path, seed: int, n_threads: int, n_rounds: int,
               reserved: frozenset[str], invalid: dict[str, int],
               shape: ThreadShape) -> dict:
    """search-5k and build-20k: `n_threads` valid threads of `shape` drawn
    Zipf-wise, one planted answer per query, and planted invalid posts (counts
    per kind in `invalid`)."""
    rng = random.Random(seed)
    lex = Lexicon(rng, reserved)
    plants, tasks = plant_search_tasks(rng, lex, n_threads, n_rounds)
    kinds = ["valid"] * n_threads
    for kind in ("javascript", "python_only", "nonpositive_q", "all_answers_bad", "no_answers"):
        kinds += [kind] * invalid[kind]
    rng.shuffle(kinds)
    # Valid threads are numbered 0..n_threads-1 in dump order; `plants` and
    # the extra-answer choice refer to those numbers.
    slot_of, valid_seen = [], 0
    for kind in kinds:
        slot_of.append(valid_seen if kind == "valid" else None)
        valid_seen += kind == "valid"
    extra_slots = rng.sample([s for s in range(n_threads) if s not in plants],
                             invalid["nonpositive_a"] + invalid["no_code_a"])
    no_code = set(extra_slots[:invalid["no_code_a"]])
    extra_slots = set(extra_slots)

    lines: list[str] = []
    load = _load_counts(0, 0)
    build = _build_counts()
    relevant: dict[int, list[int]] = {}
    for position, kind in enumerate(kinds):
        qid = 10 * (position + 1)
        s = slot_of[position]
        if s in plants:
            thread = make_relevant(rng, lex, qid, shape, *plants[s])
            relevant[s] = [thread.answers[0]["id"]]
        else:
            thread = make_thread(rng, lex, qid, shape)
        question, answers = thread.question, thread.answers
        if kind == "javascript":
            question["tags"] = ["java", "javascript"]
        elif kind == "python_only":
            question["tags"] = ["python"]
        elif kind == "nonpositive_q":
            question["score"] = -rng.randint(0, 3)
        elif kind == "all_answers_bad":
            answers = answers[:1]
            answers[0]["score"] = -rng.randint(0, 3)
        elif kind == "no_answers":
            answers = []
        elif s in extra_slots:
            body = "<p>" + prose(rng, lex.words.draw(rng, 12)) + "</p>"
            extra = answer_post(qid + 1 + len(answers), qid, body, 5)
            if s not in no_code:
                extra["body_html"] += code_block(rng, lex, 3)
                extra["score"] = -rng.randint(0, 3)
            answers = answers + [extra]
        if kind in ("javascript", "python_only"):
            load["dropped_questions"] += 1
            load["dropped_answers"] += len(answers)
        else:
            load["questions"] += 1
            load["answers"] += len(answers)
        if kind in ("all_answers_bad", "no_answers", "nonpositive_q"):
            build["dropped_questions"] += 1
        if kind == "all_answers_bad" or s in extra_slots:
            build["dropped_answers"] += 1
        lines.append(json.dumps(question, sort_keys=True))
        lines += [json.dumps(a, sort_keys=True) for a in answers]

    first_free = 10 * (len(kinds) + 1)
    for k in range(invalid["orphan"]):
        parent = first_free + 10 * k
        body = "<p>" + prose(rng, lex.words.draw(rng, 10)) + "</p>" + code_block(rng, lex, 3)
        lines.insert(rng.randrange(len(lines) + 1),
                     json.dumps(answer_post(parent + 1, parent, body, 3), sort_keys=True))
    load["dropped_answers"] += invalid["orphan"]
    bad_base = first_free + 10 * invalid["orphan"]
    for k in range(invalid["malformed"]):
        lines.insert(rng.randrange(len(lines) + 1),
                     _MALFORMED[k % len(_MALFORMED)](bad_base + 10 * k))
    load["warnings"] = invalid["malformed"]

    with open(out / "dump.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    write_jsonl(out / "truth.jsonl", _truth(tasks, relevant))
    return {"load": load, "build": build, "threads": n_threads}


# Noun pairs of the bundled antonym lexicon. The first word goes into a
# task's query; the second marks that task's antonym distractors, which the
# antonym baselines drop.
ANTONYM_PAIRS = (("upload", "download"), ("zip", "unzip"), ("lock", "unlock"),
                 ("ascending", "descending"), ("input", "output"),
                 ("maximum", "minimum"), ("synchronous", "asynchronous"),
                 ("first", "last"))

RELEVANT_THREADS = 2
PARTIAL_DISTRACTORS = 6
ANTONYM_DISTRACTORS = 3


def gen_ablation(out: Path, seed: int, n_background: int, n_tasks: int,
                 n_single: int, reserved: frozenset[str]) -> dict:
    """ablation-grid: background threads plus planted tasks.

    A normal task plants RELEVANT_THREADS threads whose first answer holds
    every task word (the relevant answers), PARTIAL_DISTRACTORS threads
    holding one or two task words, and ANTONYM_DISTRACTORS threads with high
    social scores that carry the antonym of the task's lexicon word. A
    single-answer task plants one thread with one answer that holds its two
    words: its searches meet the empty-answer-index fault.
    """
    rng = random.Random(seed)
    lex = Lexicon(rng, reserved)
    narrow = make_words(rng, 3 * n_tasks, lex.reserved, prefix="x")
    novel = make_words(rng, n_tasks, lex.reserved, prefix="z")
    pairs = list(ANTONYM_PAIRS)
    rng.shuffle(pairs)
    kinds = ["single"] * n_single + ["normal"] * (n_tasks - n_single)
    rng.shuffle(kinds)

    posts: list[dict] = []

    def add(make, *args, **kwargs) -> GenThread:
        thread = make(rng, lex, 10 * (len(posts) + 1), *args, **kwargs)
        posts.append(thread)
        return thread

    for _ in range(n_background):
        add(make_thread, FULL_SHAPE)
    truth = []
    for j, kind in enumerate(kinds):
        words = narrow[3 * j:3 * j + 3]
        if kind == "single":
            thread = add(make_relevant, PLANTED_SHAPE, words[:2], words[:2])
            truth.append({"query_id": j + 1, "query_text": " ".join(words[:2]),
                          "relevant_answer_ids": [thread.answers[0]["id"]],
                          "single_answer": True})
            continue
        word, antonym = pairs[j % len(pairs)]
        relevant = []
        for r in range(RELEVANT_THREADS):
            thread = add(make_relevant, PLANTED_SHAPE, [word] + words[:2], [word] + words,
                         n_answers=1 + r)
            relevant.append(thread.answers[0]["id"])
        for d in range(PARTIAL_DISTRACTORS):
            share = [words[d % 3]] + ([words[(d + 1) % 3]] if d % 2 else [])
            if d % 3 == 0:
                add(make_thread, PLANTED_SHAPE, title_extra=share)
            else:
                add(make_thread, PLANTED_SHAPE, answer_extra=[share, []])
        for d in range(ANTONYM_DISTRACTORS):
            thread = add(make_relevant, PLANTED_SHAPE, [antonym, words[d % 3]],
                         [antonym] + words[:2])
            thread.question["score"] = 700 + d
            thread.answers[0]["score"] = 150
        truth.append({"query_id": j + 1, "query_text": " ".join([word] + words + [novel[j]]),
                      "relevant_answer_ids": relevant, "single_answer": False})
    flat = [p for t in posts for p in [t.question] + t.answers]
    write_jsonl(out / "dump.jsonl", flat)
    write_jsonl(out / "truth.jsonl", truth)
    return {"load": _load_counts(len(posts), len(flat) - len(posts)), "build": _build_counts(),
            "threads": len(posts)}
