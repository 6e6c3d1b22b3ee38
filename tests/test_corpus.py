import copy
import json
import pickle
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from crowdrank.artifacts import build_artifacts, build_idf, load_corpus, load_idf
from crowdrank.corpus import (BAG_FIELDS, BuildStats, LoadStats, RawPost, TagFilter,
                              build_threads, load_dump, preprocess, separate_code)
from crowdrank.documents import ThreadMap, build_documents, load_documents, save_documents


def make_posts(objs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")
    return path


class TestTagFilter:
    def test_java_swing_kept(self):
        assert TagFilter().accepts(["java", "swing"])

    def test_javascript_dropped(self):
        assert not TagFilter().accepts(["javascript"])

    def test_java_and_javascript_dropped(self):
        assert not TagFilter().accepts(["java", "javascript"])


class TestLoadDump:
    def test_filters_questions_and_keeps_their_answers(self, tmp_path):
        path = make_posts([
            {"id": 1, "post_kind": "question", "title": "t", "body_html": "b",
             "score": 1, "tags": ["java"]},
            {"id": 2, "post_kind": "answer", "parent_id": 1, "body_html": "a", "score": 1},
            {"id": 3, "post_kind": "question", "title": "t", "body_html": "b",
             "score": 1, "tags": ["javascript"]},
            {"id": 4, "post_kind": "answer", "parent_id": 3, "body_html": "a", "score": 1},
        ], tmp_path / "dump.jsonl")
        posts = load_dump(path)
        assert [p.id for p in posts] == [1, 2]

    def test_malformed_line_counted(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"id": 1, "post_kind": "question", "title": "t",
                                 "body_html": "b", "score": 1, "tags": ["java"]}) + "\n")
            fh.write("{not json\n")
            fh.write(json.dumps({"id": 2, "post_kind": "answer", "parent_id": 1,
                                 "body_html": "a", "score": 1}) + "\n")
        stats = LoadStats()
        posts = load_dump(path, stats=stats)
        assert len(posts) == 2
        assert stats.warnings == 1

    def test_missing_required_field_counted(self, tmp_path):
        path = make_posts([{"id": 5, "post_kind": "answer", "body_html": "a", "score": 1}],
                          tmp_path / "dump.jsonl")
        stats = LoadStats()
        assert load_dump(path, stats=stats) == []
        assert stats.warnings == 1

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            load_dump(tmp_path / "missing.jsonl")

    @pytest.mark.parametrize("field, value", [("id", 2**63), ("score", 2**63),
                                              ("score", -2**63 - 1), ("parent_id", 2**64)])
    def test_ids_and_scores_beyond_64_bits_are_skipped(self, tmp_path, field, value):
        # The document store holds ids and scores as int64.
        question = {"id": 1, "post_kind": "question", "title": "t", "body_html": "b",
                    "score": 1, "tags": ["java"]}
        answer = {"id": 2, "post_kind": "answer", "parent_id": 1, "body_html": "a", "score": 1}
        bad = answer if field == "parent_id" else question
        bad[field] = value
        stats = LoadStats()
        posts = load_dump(make_posts([question, answer], tmp_path / "dump.jsonl"), stats=stats)
        # A skipped question takes its answer with it.
        assert stats.warnings == 1
        assert [p.id for p in posts] == ([1] if bad is answer else [])


class TestSeparateCode:
    def test_code_tag(self):
        assert separate_code("use <code>substring</code> here") == ("use  here", "substring")

    def test_nested_pre_code(self):
        assert separate_code("<pre><code>int x;</code></pre>") == ("", "int x;")

    def test_unbalanced_tag_runs_to_eof(self):
        assert separate_code("a <code>b") == ("a ", "b")

    def test_other_tags_stripped_from_prose(self):
        prose, code = separate_code("<p>hello <b>world</b></p>")
        assert prose == "hello world"
        assert code == ""

    @given(st.text(alphabet="abc <>/codepr", max_size=80))
    def test_coverage_up_to_whitespace(self, text):
        import re
        prose, code = separate_code(text)
        stripped = re.sub(r"<[^>]*>", "", text)
        import html
        joined = sorted((html.unescape(stripped)).split())
        assert sorted(prose.split() + code.split()) == joined


class TestPreprocess:
    def test_query_example(self):
        bag = preprocess("How do I convert angle from radians to degrees?", "query")
        assert bag == Counter({"convert": 1, "angle": 1, "radians": 1, "degrees": 1})

    def test_empty(self):
        assert preprocess("", "corpus") == Counter()

    def test_all_tokens_removed(self):
        assert preprocess("a 42 !!", "corpus") == Counter()

    def test_corpus_keeps_multiplicity(self):
        assert preprocess("parse parse dates", "corpus") == Counter({"parse": 2, "dates": 1})

    def test_query_dedupes(self):
        assert preprocess("parse parse dates", "query") == Counter({"parse": 1, "dates": 1})

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            preprocess("x", "nope")

    @given(st.text(max_size=120))
    def test_idempotent(self, text):
        bag = preprocess(text, "corpus")
        again = preprocess(" ".join(w for w, c in sorted(bag.items()) for _ in range(c)),
                           "corpus")
        assert again == bag


class TestBuildThreads:
    def raw(self, **kw):
        return RawPost(**kw)

    def test_negative_answer_filtered(self):
        posts = [
            self.raw(id=1, post_kind="question", score=5, body_html="b", title="t"),
            self.raw(id=2, post_kind="answer", score=3, parent_id=1,
                     body_html="x <code>work()</code>"),
            self.raw(id=3, post_kind="answer", score=-1, parent_id=1,
                     body_html="x <code>work()</code>"),
        ]
        threads = build_threads(posts)
        assert len(threads) == 1
        assert threads[0].answer_count == 1
        assert threads[0].total_answer_score == 3

    def test_zero_score_question_dropped(self):
        posts = [
            self.raw(id=1, post_kind="question", score=0, body_html="b", title="t"),
            self.raw(id=2, post_kind="answer", score=3, parent_id=1,
                     body_html="x <code>work()</code>"),
        ]
        assert build_threads(posts) == []

    def test_answer_without_code_excluded(self):
        posts = [
            self.raw(id=1, post_kind="question", score=5, body_html="b", title="t"),
            self.raw(id=2, post_kind="answer", score=4, parent_id=1, body_html="no code"),
            self.raw(id=3, post_kind="answer", score=1, parent_id=1,
                     body_html="ok <code>call()</code>"),
        ]
        threads = build_threads(posts)
        assert [a.id for a in threads[0].answers] == [3]

    def test_orphan_answer_counted(self):
        stats = BuildStats()
        posts = [self.raw(id=2, post_kind="answer", score=3, parent_id=99,
                          body_html="x <code>work()</code>")]
        assert build_threads(posts, stats=stats) == []
        assert stats.orphan_answers == 1

    def test_thread_invariants(self):
        posts = [
            self.raw(id=1, post_kind="question", score=5, body_html="b", title="t"),
            self.raw(id=2, post_kind="answer", score=3, parent_id=1,
                     body_html="x <code>stuff()</code>"),
        ]
        for thread in build_threads(posts):
            assert thread.question_score >= 1
            for ans in thread.answers:
                assert ans.score >= 1
                assert ans.code_bag


def store_round_trip(posts, directory):
    """The threads built from a dump of `posts`, and the threads read from
    the index directory that build-index makes of the dump."""
    dump = make_posts(posts, directory / "dump.jsonl")
    build_artifacts(dump, directory / "index")
    idf, docs = load_corpus(directory / "index")
    return build_threads(load_dump(dump)), list(ThreadMap(docs, sorted(idf.df)).values())


# Tokens that survive preprocessing, and tokens that do not: stopwords,
# numbers and one-letter words.
KEPT_WORDS = ["alpha", "Beta", "gamma", "x2", "delta_epsilon"]
DROPPED_WORDS = ["the", "and", "is", "42", "x"]
TEXT_ST = st.lists(st.sampled_from(KEPT_WORDS + DROPPED_WORDS), max_size=6).map(" ".join)
# An answer: prose, code, an optional title (dump answers may carry one) and
# a score.
ANSWER_ST = st.tuples(TEXT_ST, TEXT_ST, st.one_of(st.none(), TEXT_ST), st.integers(0, 3))
# A thread: title, question prose, question code (maybe none), score, answers.
THREAD_ST = st.tuples(TEXT_ST, TEXT_ST, TEXT_ST, st.integers(0, 3),
                      st.lists(ANSWER_ST, max_size=3))


def dump_posts(corpus):
    posts = []
    for i, (title, prose, code, score, answers) in enumerate(corpus):
        qid = 10 * (i + 1)
        body = f"{prose} <code>{code}</code>" if code else prose
        posts.append({"id": qid, "post_kind": "question", "title": title, "body_html": body,
                      "score": score, "tags": ["java"]})
        for j, (answer_prose, answer_code, answer_title, answer_score) in enumerate(answers):
            post = {"id": qid + 1 + j, "post_kind": "answer", "parent_id": qid,
                    "body_html": f"{answer_prose} <pre>{answer_code}</pre>",
                    "score": answer_score}
            if answer_title is not None:
                post["title"] = answer_title
            posts.append(post)
    return posts


class TestThreadStore:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(THREAD_ST, max_size=5))
    # A thread whose question has no bag left after stopwords, and whose
    # answer keeps only its code.
    @example([("the and", "is 42", "x", 1, [("the", "alpha", None, 1)])])
    # An answer titled with words no other post holds.
    @example([("alpha", "", "", 2, [("beta", "gamma", "zeta Omega the", 1)])])
    def test_loaded_threads_equal_built_ones(self, tmp_path_factory, corpus):
        built, loaded = store_round_trip(dump_posts(corpus), tmp_path_factory.mktemp("store"))
        assert loaded == built
        assert repr(loaded) == repr(built)

    def test_an_answer_title_round_trips_over_its_own_words(self, tmp_path):
        posts = dump_posts([("alpha", "", "", 2, [("beta", "gamma", "zeta Omega the", 1)])])
        built, loaded = store_round_trip(posts, tmp_path)
        assert loaded[0].answers[0].title_bag == Counter({"omega": 1, "zeta": 1})
        assert loaded == built
        assert "zeta" not in load_idf(tmp_path / "index" / "idf.json").df
        # The store holds the answer title words beside the idf vocabulary.
        assert load_documents(tmp_path / "index", 3).posts.answer_title_words == ["omega",
                                                                                  "zeta"]
        assert not (tmp_path / "index" / "threads.jsonl").exists()

    def test_bags_are_built_when_first_read_and_kept(self, tmp_path):
        posts = dump_posts([("alpha gamma", "beta", "delta_epsilon", 2,
                             [("gamma", "alpha x2", None, 1)])])
        built, loaded = store_round_trip(posts, tmp_path)
        question = loaded[0].question
        assert not BAG_FIELDS & vars(question).keys()
        body = question.body_bag
        assert vars(question).keys() >= set(BAG_FIELDS) and "_bag_link" not in vars(question)
        assert question.body_bag is body
        assert question.code_bag == Counter({"delta": 1, "epsilon": 1})
        assert not BAG_FIELDS & vars(loaded[0].answers[0]).keys()

    def test_copies_and_pickles_hold_the_bags(self, tmp_path):
        posts = dump_posts([("alpha", "beta", "", 2, [("gamma", "x2", None, 1)])])
        built, loaded = store_round_trip(posts, tmp_path)
        for thread in (copy.deepcopy(loaded[0]), pickle.loads(pickle.dumps(loaded[0]))):
            assert thread == built[0]
            assert "_bag_link" not in vars(thread.question)
            assert "_bag_link" not in vars(thread.answers[0])

    def test_round_trip_and_determinism(self, tmp_path):
        posts = [
            RawPost(id=1, post_kind="question", score=5, body_html="hello <code>alpha()</code>",
                    title="greetings program"),
            RawPost(id=2, post_kind="answer", score=3, parent_id=1,
                    body_html="reply <code>beta()</code>", title="Ünïcode tïtle"),
        ]
        threads = build_threads(posts)
        idf = build_idf(threads)
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            save_documents(build_documents(build_threads(posts), idf), tmp_path / name)
        for path in (tmp_path / "a").iterdir():
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
        loaded = ThreadMap(load_documents(tmp_path / "a", len(idf.df)), sorted(idf.df))
        thread = loaded[1]
        assert thread.answers[0].code_text == threads[0].answers[0].code_text == "beta()"
        assert thread.answers[0].original_title == "Ünïcode tïtle"
        # The bags are built from the store when first read.
        assert not BAG_FIELDS & vars(thread.question).keys()
        assert thread.question.title_bag == threads[0].question.title_bag
        assert list(loaded.values()) == threads

    def test_built_bags_hold_their_words_sorted(self):
        posts = [RawPost(id=1, post_kind="question", score=1, title="zeta alpha zeta beta",
                         body_html=""),
                 RawPost(id=2, post_kind="answer", score=1, parent_id=1,
                         body_html="<code>fetch()</code>")]
        assert list(build_threads(posts)[0].question.title_bag) == ["alpha", "beta", "zeta"]


class TestThreadMap:
    @pytest.fixture()
    def threads(self):
        posts = dump_posts([("alpha", "beta", "", 2, [("gamma", "x2", None, 1)]),
                            ("delta", "", "alpha", 3, [("beta", "gamma", "Omega", 2),
                                                       ("alpha", "delta_epsilon", None, 4)])])
        threads = build_threads([RawPost.from_json(p) for p in posts])
        return threads, ThreadMap(build_documents(threads, build_idf(threads)),
                                  sorted(build_idf(threads).df))

    def test_a_read_only_mapping_by_ascending_question_id(self, threads):
        built, mapping = threads
        assert len(mapping) == 2 and list(mapping) == [10, 20]
        assert 10 in mapping and 11 not in mapping and "10" not in mapping
        assert dict(mapping.items()) == {t.question.id: t for t in built}
        assert list(mapping.values()) == built and repr(list(mapping.values())) == repr(built)
        with pytest.raises(KeyError):
            mapping[11]
        with pytest.raises(TypeError):
            mapping[10] = built[0]

    def test_each_read_builds_a_thread_and_keeps_none(self, threads):
        built, mapping = threads
        first = mapping[20]
        first.question.score += 1
        first.answers.pop()
        assert mapping[20] is not first and mapping[20] == built[1]
        assert not {k for k in vars(mapping) if k not in ("docs", "words", "_row")}
        assert mapping[20].answers[0].title_bag == Counter({"omega": 1})
