import copy
import json
import pickle
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import synth
from crowdrank import artifacts, corpus as corpus_module, documents
from crowdrank.artifacts import build_artifacts, load_corpus, load_idf
from crowdrank.corpus import (BuildStats, LoadStats, RawPost, TagFilter, _sorted_bag,
                              build_threads, load_dump, preprocess, separate_code)
from crowdrank.documents import ThreadMap, build_store, load_documents, save_documents


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

    def test_each_warning_keeps_its_line_and_cause(self, tmp_path):
        question = {"id": 1, "post_kind": "question", "title": "t", "body_html": "b",
                    "score": 1, "tags": ["java"]}
        lines = [json.dumps(question), "", "[1]", '"text"',
                 json.dumps({"id": 2, "post_kind": "answer", "body_html": "a", "score": 1}),
                 json.dumps({"post_kind": "question", "body_html": "b", "score": 1}),
                 json.dumps(dict(question, title="again")),
                 json.dumps(dict(question, id=3, score=1.5)),
                 json.dumps(dict(question, id=4, title="\ud800")),
                 "{not json"]
        path = tmp_path / "dump.jsonl"
        path.write_text("\n".join(lines) + "\n")
        stats = LoadStats()
        assert [p.id for p in load_dump(path, stats=stats)] == [1]
        assert stats.first_warnings[:7] == [
            (3, "not a JSON object"), (4, "not a JSON object"), (5, "answer without parent_id"),
            (6, "no id field"), (7, "id 1 repeats line 1"),
            (8, "score must be an integer, not float"),
            (9, "title holds a lone surrogate, which UTF-8 cannot encode")]
        assert stats.first_warnings[7][0] == 10
        assert stats.first_warnings[7][1].startswith("not JSON: ")
        # The kept warnings take no part in comparisons: the counts do.
        assert stats == LoadStats(warnings=8, questions=1)

    def test_a_load_keeps_its_first_ten_warnings(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        path.write_text("[1]\n" * 12)
        stats = LoadStats()
        assert load_dump(path, stats=stats) == []
        assert stats.warnings == 12
        assert stats.first_warnings == [(n, "not a JSON object") for n in range(1, 11)]

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


    def test_non_utf8_line_is_one_warning(self, tmp_path):
        question = json.dumps({"id": 1, "post_kind": "question", "title": "Ünïcode",
                               "body_html": "b", "score": 1, "tags": ["java"]},
                              ensure_ascii=False)
        answer = json.dumps({"id": 2, "post_kind": "answer", "parent_id": 1,
                             "body_html": "a", "score": 1})
        other = json.dumps({"id": 3, "post_kind": "question", "title": "t", "body_html": "b",
                            "score": 1, "tags": ["java"]})
        path = tmp_path / "dump.jsonl"
        # A post whose one bad byte is in a field it does not keep, and a
        # line of bad bytes; the lines around them split as before. A lone CR
        # between JSON tokens ends no line, and a CRLF ends one.
        bad = other.encode().replace(b'"id": 3', b'"id": 4').replace(b"}", b', "note": "\xe9"}')
        path.write_bytes(question.encode() + b"\n" + bad + b"\n"
                         + answer.encode().replace(b", ", b",\r ", 1) + b"\n"
                         + other.encode() + b"\r\n" + b"\xff\xfe\n")
        stats = LoadStats()
        posts = load_dump(path, stats=stats)
        assert [p.id for p in posts] == [1, 2, 3]
        assert posts[0].title == "Ünïcode"
        assert stats.warnings == 2
        assert stats.first_warnings == [(2, "not UTF-8"), (5, "not UTF-8")]

    def test_only_lf_ends_a_line(self, tmp_path):
        # Line numbers count LF alone, as `wc -l` and `sed -n` do: a lone CR
        # between the tokens of a post is JSON whitespace, and a lone CR
        # between two posts leaves one line that is not JSON.
        question = json.dumps({"id": 1, "post_kind": "question", "title": "t",
                               "body_html": "b", "score": 1, "tags": ["java"]})
        answer = json.dumps({"id": 2, "post_kind": "answer", "parent_id": 1,
                             "body_html": "a", "score": 1})
        lines = [question.replace(", ", ",\r"), answer + "\r" + answer, "{", answer + "\r"]
        path = tmp_path / "dump.jsonl"
        path.write_bytes("\n".join(lines).encode() + b"\n")
        stats = LoadStats()
        posts = load_dump(path, stats=stats)
        assert [p.id for p in posts] == [1, 2]
        assert [line for line, _ in stats.first_warnings] == [2, 3]
        assert stats.first_warnings[0][1].startswith("not JSON: Extra data")

    @pytest.mark.parametrize("field", ["title", "body_html"])
    def test_lone_surrogate_escape_is_a_warning(self, tmp_path, field):
        question = {"id": 1, "post_kind": "question", "title": "t", "body_html": "b",
                    "score": 1, "tags": ["java"]}
        answer = {"id": 2, "post_kind": "answer", "parent_id": 1,
                  "body_html": "a <code>run()</code>", "score": 1}
        question[field] = "t \ud800 parse"
        paired = dict(question, id=3, **{field: "t \ud83d\ude00 parse"})
        dump = make_posts([question, answer, paired], tmp_path / "dump.jsonl")
        assert "\\ud800" in dump.read_text()
        stats = LoadStats()
        assert [p.id for p in load_dump(dump, stats=stats)] == [3]
        assert stats.warnings == 1
        assert getattr(load_dump(dump)[0], field) == "t \U0001f600 parse"
        build_artifacts(dump, tmp_path / "index")


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


# Text for the tokenizer, its pieces joined without separators so that runs
# merge: letters of both cases, digits, separators, stopwords, characters that
# lowercase to ASCII (the Kelvin sign) or to two characters (İ), digits and
# letters outside ASCII (an Arabic-Indic three, a fullwidth one, the fi
# ligature, capital sharp s, sigma), a lone surrogate, control characters
# and others.
TOKENIZER_TEXT_ST = st.lists(st.one_of(
    st.sampled_from(["the", "And", "is", "x86", "2d", "0x1f", "42", "a", "K", "\u212a", "İ",
                     "&amp;", "é", "ß", " ", "\n", "-", "_", "٣", "１", "ﬁ", "ẞ", "Σ", "\ud800",
                     "\x00", "\t", "\r"]),
    st.text(alphabet="abkzAKZ0189 _-.\u212aİé", max_size=8)), max_size=12).map("".join)


def assert_matches_reference(text, stopwords):
    """Both modes of `preprocess`, and the sorted corpus bag, are `repr`-equal
    to the per-token reference: same words, counts and key order."""
    for mode in ("corpus", "query"):
        assert (repr(preprocess(text, mode, stopwords))
                == repr(synth.preprocess_reference(text, mode, stopwords)))
    assert repr(_sorted_bag(text, stopwords)) == repr(synth.sorted_bag_reference(text,
                                                                                  stopwords))


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

    @pytest.mark.parametrize("text", [
        # Digit-only runs, single letters, and runs mixing digits and letters.
        "1 22 333 a b c x86 2d 0x1f 9z z9 a1b2 007bond",
        # Stopwords at the edges of a run and beside separators.
        "the theory then-the_parse parsethe the1 1the and/or is:it",
        # The Kelvin sign lowers to ASCII k, and İ to i and a combining dot.
        "\u212a \u212aelvin \u212a\u212a Kelvin İstanbul İİ iİi xİy",
        "", "!!", "a", "ab", "ABC abc Abc aBC",
    ])
    @pytest.mark.parametrize("stopwords", [None, frozenset({"x86", "parse", "kk", "ii", "the"}),
                                           frozenset()])
    def test_examples_match_the_per_token_reference(self, text, stopwords):
        assert_matches_reference(text, stopwords)

    @pytest.mark.parametrize("body", [
        "<p>caf&eacute; &amp;amp; &#x212A;elvin &lt;code&gt;x86&lt;/code&gt;</p>"
        "<code>a&amp;b 2d&#x30;f &#304;d</code>",
        "<pre><code>int x86 = 0x1F;</code></pre> the &nbsp;value&#39;s 2nd",
    ])
    def test_html_entities_after_separate_code_match(self, body):
        for text in separate_code(body):
            assert_matches_reference(text, None)

    @settings(max_examples=300)
    @given(TOKENIZER_TEXT_ST, st.one_of(st.none(), st.frozensets(st.sampled_from(
        ["the", "and", "x86", "ab", "k", "ii", "2d", "a1", "zz", "1", "a"]))))
    def test_matches_the_per_token_reference(self, text, stopwords):
        assert_matches_reference(text, stopwords)

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

    def test_a_repeated_id_keeps_its_first_post(self):
        # Questions 1 and 5 each with an answer 2, an answer 5 and a later
        # question 1: of posts that share an id the first one counts, as in
        # load_dump, and each later one is dropped. Question 5 then keeps no
        # answer.
        posts = [
            self.raw(id=1, post_kind="question", score=5, body_html="b", title="first"),
            self.raw(id=2, post_kind="answer", score=3, parent_id=1,
                     body_html="<code>one()</code>"),
            self.raw(id=5, post_kind="question", score=4, body_html="b", title="five"),
            self.raw(id=2, post_kind="answer", score=3, parent_id=5,
                     body_html="<code>two()</code>"),
            self.raw(id=5, post_kind="answer", score=3, parent_id=1,
                     body_html="<code>three()</code>"),
            self.raw(id=1, post_kind="question", score=9, body_html="b", title="later"),
        ]
        want = BuildStats(orphan_answers=0, dropped_questions=2, dropped_answers=2)
        stats = BuildStats()
        threads = build_threads(posts, stats=stats)
        assert [(t.question.original_title, [a.code_text for a in t.answers])
                for t in threads] == [("first", ["one()"])]
        assert stats == want
        stats = BuildStats()
        idf, docs = build_store(posts, stats=stats)
        assert docs.posts.question_ids.tolist() == [1] and docs.answer_ids.tolist() == [2]
        assert list(ThreadMap(docs, sorted(idf.df)).values()) == threads
        assert stats == want

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
    idf, docs, _ = load_corpus(directory / "index")
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

    def test_copies_and_pickles_hold_the_bags(self, tmp_path):
        posts = dump_posts([("alpha", "beta", "", 2, [("gamma", "x2", None, 1)])])
        built, loaded = store_round_trip(posts, tmp_path)
        for thread in (copy.deepcopy(loaded[0]), pickle.loads(pickle.dumps(loaded[0]))):
            assert thread == built[0]

    def test_round_trip_and_determinism(self, tmp_path):
        posts = [
            RawPost(id=1, post_kind="question", score=5, body_html="hello <code>alpha()</code>",
                    title="greetings program"),
            RawPost(id=2, post_kind="answer", score=3, parent_id=1,
                    body_html="reply <code>beta()</code>", title="Ünïcode tïtle"),
        ]
        threads = build_threads(posts)
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            idf, docs = build_store(posts)
            save_documents(docs, tmp_path / name)
        for path in (tmp_path / "a").iterdir():
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
        loaded = ThreadMap(load_documents(tmp_path / "a", len(idf.df)), sorted(idf.df))
        thread = loaded[1]
        assert thread.answers[0].code_text == threads[0].answers[0].code_text == "beta()"
        assert thread.answers[0].original_title == "Ünïcode tïtle"
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
        posts = [RawPost.from_json(p) for p in posts]
        idf, docs = build_store(posts)
        return build_threads(posts), ThreadMap(docs, sorted(idf.df))

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
        assert not {k for k in vars(mapping) if k not in ("docs", "words", "rows")}
        assert mapping[20].answers[0].title_bag == Counter({"omega": 1})


class TestBuildIdf:
    def test_a_thread_counts_each_of_its_words_once(self):
        posts = dump_posts([("parse parse json", "json", "parse", 2,
                             [("json reader", "read", "zeta title", 1)]),
                            ("reader", "", "", 1, [("beta", "gamma", None, 1)])])
        posts = [RawPost.from_json(p) for p in posts]
        idf, _ = build_store(posts)
        # Question code counts; answer titles do not.
        assert idf.df == {"parse": 1, "json": 1, "reader": 2, "read": 1, "beta": 1, "gamma": 1}
        assert idf.doc_count == 2
        assert idf.df == synth.build_idf(build_threads(posts)).df
        idf, _ = build_store([])
        assert idf.doc_count == 1 and idf.df == {}


def test_a_build_that_fails_in_the_store_leaves_the_directory_as_it_was(tmp_path, monkeypatch):
    build_artifacts(make_posts(synth.planted_corpus(n_threads=30, n_queries=3)[0],
                               tmp_path / "dump.jsonl"), tmp_path / "index")
    before = {p.name: p.read_bytes() for p in (tmp_path / "index").iterdir()}

    def fail(posts, stopwords, stats):
        raise ValueError("no store")

    monkeypatch.setattr(artifacts, "build_store", fail)
    with pytest.raises(ValueError, match="no store"):
        build_artifacts(make_posts(synth.social_corpus()[0], tmp_path / "other.jsonl"),
                        tmp_path / "index")
    assert {p.name: p.read_bytes() for p in (tmp_path / "index").iterdir()} == before


def test_a_build_makes_no_thread_and_no_word_bag(tmp_path, monkeypatch):
    # The streamed build writes the reference bytes without a `Thread`, a
    # `ProcessedPost` or a `Counter`: each is refused where it is made.
    dump = make_posts(synth.antonym_filter_corpus()[0], tmp_path / "dump.jsonl")
    synth.reference_build(dump, tmp_path / "reference")

    def refuse(*args, **kwargs):
        raise AssertionError("a build made a thread or a word bag")

    for module in (corpus_module, documents):
        for name in ("Thread", "ProcessedPost", "Counter"):
            monkeypatch.setattr(module, name, refuse)
    for name in ("build_threads", "process_post", "preprocess", "_sorted_bag"):
        monkeypatch.setattr(corpus_module, name, refuse)
    build_artifacts(dump, tmp_path / "streamed")
    monkeypatch.undo()
    for path in (tmp_path / "reference").iterdir():
        assert path.read_bytes() == (tmp_path / "streamed" / path.name).read_bytes(), path.name


REFERENCE_CORPORA = {"planted": lambda: synth.planted_corpus()[0],
                     "social": lambda: synth.social_corpus()[0],
                     "antonym_filter": lambda: synth.antonym_filter_corpus()[0],
                     "funnel": lambda: synth.funnel_corpus()[0]}

# Dumps at the edges of a build that the corpora above do not reach.
EDGE_DUMPS = {
    "empty": [],
    # Every thread is dropped: a question scored 0, a question whose answers
    # score 0 or hold no code word, a question that fails the tag filter,
    # and an answer whose question is absent.
    "all_dropped": [
        synth.question(10, "alpha", "beta", 0), synth.answer(11, 10, "<code>run()</code>", 3),
        synth.question(20, "gamma", "delta", 4), synth.answer(21, 20, "<code>go()</code>", 0),
        synth.answer(22, 20, "prose only", 5), synth.answer(23, 20, "<code>the 42</code>", 5),
        synth.question(30, "zeta", "eta", 2, tags=("javascript",)),
        synth.answer(31, 30, "<code>f()</code>", 2), synth.answer(41, 40, "<code>g()</code>", 2),
    ],
    # Two questions share id 10, and two answers id 11: the first line with an
    # id counts, and each later one is a load warning.
    "duplicate_ids": [
        synth.question(10, "first alpha", "first body", 3),
        synth.answer(11, 10, "one <code>one()</code>", 2),
        synth.question(10, "second beta", "second body <code>two()</code>", 5),
        synth.answer(11, 10, "two <code>two()</code>", 4),
        synth.question(5, "early gamma", "body", 1), synth.answer(6, 5, "<code>fetch()</code>", 1),
    ],
    "non_ascii": [
        synth.question(10, "Ünïcode café naïve", "straße \u212aelvin İstanbul 日本語 🙂",
                       3),
        synth.answer(11, 10, "réponse <code>café.naïve(ß) 🙂</code> &eacute;t&#xe9;", 2),
        synth.question(20, "ascii only", "plain <code>x86.run()</code>", 1),
        synth.answer(21, 20, "<pre>日本.語(x86)</pre> done", 1),
    ],
    # Answers may carry titles: words in no idf.json, stored over their own.
    "answer_titles": [
        synth.question(10, "alpha", "beta", 3),
        {**synth.answer(11, 10, "gamma <code>run()</code>", 2), "title": "Zeta Omega the"},
        {**synth.answer(12, 10, "delta <code>go()</code>", 1), "title": "alpha omega"},
        {**synth.answer(13, 10, "dropped: no code", 1), "title": "unseenword"},
        synth.question(20, "epsilon", "eta", 1),
        {**synth.answer(21, 20, "<code>fetch()</code>", 1), "title": ""},
    ],
    # Questions whose code is absent, empty, or holds no kept word.
    "empty_question_code": [
        synth.question(10, "alpha", "beta", 3), synth.answer(11, 10, "<code>alpha()</code>", 1),
        synth.question(20, "gamma", "delta <code></code>", 3),
        synth.answer(21, 20, "<code>beta()</code>", 1),
        synth.question(30, "zeta", "eta <pre>the 42 x</pre>", 3),
        synth.answer(31, 30, "<code>gamma()</code>", 1),
    ],
}


class TestReferenceBuild:
    """The streamed build against the reference build of synth.py, whose
    bags the per-token tokenizer makes: the same bytes and the same report."""

    @staticmethod
    def assert_same_build(posts, tmp_path, monkeypatch, stopwords=None):
        dump = make_posts(posts, tmp_path / "dump.jsonl")
        streamed = build_artifacts(dump, tmp_path / "new", stopwords=stopwords)
        with monkeypatch.context() as patch:
            patch.setattr(corpus_module, "_sorted_bag", synth.sorted_bag_reference)
            reference = synth.reference_build(dump, tmp_path / "reference", stopwords=stopwords)
        assert streamed == reference
        files = sorted(p.name for p in (tmp_path / "new").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "reference").iterdir())
        assert len(files) > 3
        for file in files:
            assert ((tmp_path / "new" / file).read_bytes()
                    == (tmp_path / "reference" / file).read_bytes()), file
        return streamed

    @pytest.mark.parametrize("name", sorted(REFERENCE_CORPORA))
    @pytest.mark.parametrize("stopwords", [None, frozenset({"q0alpha", "s1yolk", "av0doc",
                                                            "question", "the", "about",
                                                            "funnelword", "w001term"})])
    def test_writes_the_bytes_of_the_per_token_build(self, tmp_path, monkeypatch, name,
                                                     stopwords):
        report = self.assert_same_build(REFERENCE_CORPORA[name](), tmp_path, monkeypatch,
                                        stopwords)
        assert report.thread_count > 10

    @pytest.mark.parametrize("name", sorted(EDGE_DUMPS))
    def test_edge_dumps(self, tmp_path, monkeypatch, name):
        report = self.assert_same_build(EDGE_DUMPS[name], tmp_path, monkeypatch)
        if name in ("empty", "all_dropped"):
            assert report.thread_count == report.vocab_size == 0
            idf, docs, _ = load_corpus(tmp_path / "new")
            assert idf.doc_count == 1 and docs.n_threads == 0 and len(docs.answer_ids) == 0
        if name == "all_dropped":
            assert report.build_stats == BuildStats(0, 2, 3)
            assert report.load_stats == LoadStats(0, 2, 4, 1, 2)
        if name == "duplicate_ids":
            idf, docs, _ = load_corpus(tmp_path / "new")
            loaded = list(ThreadMap(docs, sorted(idf.df)).values())
            assert [t.question.original_title for t in loaded] == ["early gamma", "first alpha"]
            assert [a.original_body for a in loaded[1].answers] == ["one <code>one()</code>"]
            assert report.load_stats == LoadStats(2, 2, 2, 0, 0)
        if name == "answer_titles":
            docs = load_corpus(tmp_path / "new")[1]
            assert docs.posts.answer_title_words == ["alpha", "omega", "zeta"]
        assert report.thread_count == {"empty": 0, "all_dropped": 0, "duplicate_ids": 2,
                                       "non_ascii": 2, "answer_titles": 2,
                                       "empty_question_code": 3}[name]
