import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import synth
from crowdrank.artifacts import build_artifacts, build_idf, load_engine
from crowdrank.corpus import RawPost, build_threads
from crowdrank.documents import build_documents
from crowdrank.index import (INDEX_ARRAYS, INDEX_HEADER, bm25_search, build_index,
                             build_thread_index, index_file, load_index, save_index,
                             thread_document_bag)

INDEX_FILES = sorted([INDEX_HEADER] + [f"index.{name}.npy" for name in INDEX_ARRAYS])


def reference_bm25(docs, query, top_n, k=1.2, b=0.9):
    """The dict-of-postings BM25 that the CSR `bm25_search` replaced, kept as
    the reference its results must be `repr`-equal to: postings in ascending
    doc_id order, then one float sum per document over the sorted query terms."""
    postings, doc_len = {}, {}
    for doc_id in sorted(docs):
        doc_len[doc_id] = sum(docs[doc_id].values())
        for term, tf in docs[doc_id].items():
            postings.setdefault(term, []).append((doc_id, tf))
    if not doc_len:
        return []
    n_docs = len(doc_len)
    avgdl = sum(doc_len.values()) / n_docs
    scores = {}
    for term in sorted(set(query)):
        plist = postings.get(term)
        if not plist:
            continue
        idf = math.log10(n_docs / len(plist))
        for doc_id, tf in plist:
            norm = tf + k * (1.0 - b + b * doc_len[doc_id] / avgdl)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (k + 1.0) / norm
    ranked = [(doc_id, s) for doc_id, s in scores.items() if s > 0.0]
    ranked.sort(key=lambda e: (-e[1], e[0]))
    return ranked[:top_n]


def doc_values(index, name):
    """doc_id -> the index's per-document array `name` (doc_len or doc_sumsq)."""
    return dict(zip(index.doc_ids.tolist(), getattr(index, name).tolist()))


WORD_ST = st.sampled_from(["a", "b", "c", "d", "e", "f"])
DOCS_ST = st.dictionaries(st.integers(0, 10 ** 6),
                          st.dictionaries(WORD_ST, st.integers(1, 6)).map(Counter),
                          max_size=12)


def random_docs(rng, n_docs, vocab=30):
    words = [f"w{i}" for i in range(vocab)]
    docs = {}
    for doc_id in range(1, n_docs + 1):
        size = rng.randint(1, 12)
        docs[doc_id] = Counter(rng.choices(words, k=size))
    return docs


@pytest.fixture()
def small_index():
    return build_index({
        1: Counter({"parse": 2, "json": 1}),
        2: Counter({"parse": 1, "xml": 3}),
        3: Counter({"date": 1}),
    })


class TestBuildIndex:
    def test_df_and_avgdl(self, small_index):
        assert {t: len(small_index.postings(t)) for t in small_index.terms} == {
            "parse": 2, "json": 1, "xml": 1, "date": 1}
        assert small_index.terms == ["date", "json", "parse", "xml"]
        assert small_index.stats.avgdl == pytest.approx((3 + 4 + 1) / 3)

    def test_postings_sorted_by_doc_id(self, small_index):
        assert small_index.postings("parse") == [(1, 2), (2, 1)]
        assert small_index.postings("absent") == []

    def test_empty_corpus(self):
        index = build_index({})
        assert index.stats.n_docs == 0
        assert bm25_search(index, ["anything"], 5) == []

    def test_duplicate_doc_id(self, small_index, tmp_path):
        # A mapping cannot hold a doc id twice; a saved index can.
        save_index(small_index, tmp_path)
        np.save(index_file(tmp_path, "doc_ids"), np.array([1, 1, 3], dtype=np.int64))
        with pytest.raises(ValueError, match="index.doc_ids.npy: doc ids are not ascending"):
            load_index(tmp_path)


class TestBm25Search:
    def test_single_term_hand_score(self, small_index):
        # doc 3: tf=1, dl=1, avgdl=8/3, idf=log10(3/1)
        k, b = 1.2, 0.9
        norm = 1 + k * (1 - b + b * 1 / (8 / 3))
        expected = math.log10(3.0) * 1 * (k + 1) / norm
        hits = bm25_search(small_index, ["date"], 10)
        assert hits == [(3, pytest.approx(expected, abs=1e-12))]

    def test_term_in_every_doc_scores_zero(self):
        index = build_index({1: Counter({"a": 1}), 2: Counter({"a": 2})})
        assert bm25_search(index, ["a"], 10) == []

    def test_tie_breaks_on_doc_id(self):
        index = build_index({5: Counter({"x": 1}), 2: Counter({"x": 1}),
                             9: Counter({"y": 1})})
        hits = bm25_search(index, ["x"], 10)
        assert [doc for doc, _ in hits] == [2, 5]

    def test_top_n_cut(self, small_index):
        assert len(bm25_search(small_index, ["parse", "json", "xml"], 1)) == 1

    def test_top_n_must_be_positive(self, small_index):
        with pytest.raises(ValueError):
            bm25_search(small_index, ["parse"], 0)

    def test_unknown_terms_ignored(self, small_index):
        assert bm25_search(small_index, ["nonexistent"], 10) == []

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(99)
        for _ in range(25):
            docs = random_docs(rng, rng.randint(2, 20))
            query = rng.sample([f"w{i}" for i in range(30)], rng.randint(1, 5))
            index = build_index(docs)
            hits = bm25_search(index, query, len(docs))
            oracle = synth.bm25_oracle(docs, query, 1.2, 0.9)
            expected = sorted(((d, s) for d, s in oracle.items() if s > 0),
                              key=lambda e: (-e[1], e[0]))
            assert [d for d, _ in hits] == [d for d, _ in expected]
            for (_, got), (_, want) in zip(hits, expected):
                assert got == pytest.approx(want, abs=1e-9)


class TestBm25Reference:
    """The CSR `bm25_search` against the dict-loop reference, `repr` for `repr`."""

    @settings(max_examples=200, deadline=None)
    @given(docs=DOCS_ST, query=st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", "zz"]),
                                        max_size=5), top_n=st.integers(1, 14))
    @example(docs={5: Counter(x=1), 2: Counter(x=1), 9: Counter(x=1, y=1)},
             query=["x"], top_n=1).via("ties at the top_n cut")
    @example(docs={1: Counter(a=1), 2: Counter(a=2, b=1)}, query=["a"],
             top_n=5).via("a term in every document: idf 0")
    @example(docs={1: Counter(a=1), 2: Counter(a=2, b=1)}, query=["a", "b"],
             top_n=5).via("idf 0 beside a scoring term")
    @example(docs={1: Counter(a=1)}, query=["zz", "yy"], top_n=3).via("terms no document holds")
    @example(docs={}, query=["a"], top_n=3).via("an empty index")
    def test_repr_equal_to_the_dict_loop(self, docs, query, top_n):
        assert repr(bm25_search(build_index(docs), query, top_n)) == repr(
            reference_bm25(docs, query, top_n))

    def test_thread_index_of_the_planted_corpus(self):
        posts, queries, _ = synth.planted_corpus(n_threads=60, n_queries=5)
        threads = build_threads([RawPost.from_json(o) for o in posts])
        docs = {t.question.id: thread_document_bag(t) for t in threads}
        index = build_thread_index(threads)
        for text in queries.values():
            query = text.split()
            hits = bm25_search(index, query, 500)
            assert hits and repr(hits) == repr(reference_bm25(docs, query, 500))


class TestDocumentBags:
    def thread(self):
        posts = [
            RawPost(id=1, post_kind="question", score=5, title="parse json",
                    body_html="json parsing question"),
            RawPost(id=2, post_kind="answer", score=3, parent_id=1,
                    body_html="use jackson <code>mapper.readValue(json)</code>"),
        ]
        return build_threads(posts)[0]

    def test_thread_bag_includes_answer_text(self):
        bag = thread_document_bag(self.thread())
        assert bag["json"] >= 2          # title + body
        assert "jackson" in bag          # answer body
        assert "readvalue" in bag        # answer code

    def test_answer_bag_includes_parent_question(self):
        thread = self.thread()
        idf = build_idf([thread])
        words = ["jackson", "readvalue", "parse", "question"]
        counts = build_documents([thread], idf).term_counts(
            np.array([0]), np.array([sorted(idf.df).index(w) for w in words]))
        # answer body, answer code, parent title, parent body
        assert counts.tolist() == [[1, 1, 1, 1]]

    def test_question_code_counts_for_idf_but_not_for_bm25(self, tmp_path):
        # "qonlyword" appears only in the question's code.
        corpus = tmp_path / "dump.jsonl"
        synth.write_jsonl(corpus, [
            synth.question(1, "parse json", "see <code>qonlyword(x)</code>", 5),
            synth.answer(2, 1, "use <code>mapper.read(json)</code>", 3),
            synth.question(3, "format date", "how to format", 5),
            synth.answer(4, 3, "use <code>fmt.format(d)</code>", 3),
        ])
        build_artifacts(corpus, tmp_path / "index")
        engine = load_engine(tmp_path / "index")
        thread = engine.threads[1]
        assert "qonlyword" in thread.question.code_bag
        assert "qonlyword" not in thread_document_bag(thread)
        assert bm25_search(engine.thread_index, ["qonlyword"], 10) == []
        assert engine.idf_map.df["qonlyword"] == 1

    def test_ephemeral_index_covers_all_answers(self):
        thread = self.thread()
        other = build_threads([
            RawPost(id=5, post_kind="question", score=5, title="zebra", body_html="stripes"),
            RawPost(id=6, post_kind="answer", score=3, parent_id=5,
                    body_html="<code>zebra.run()</code>")])[0]
        idf = build_idf([thread, other])
        vocab = sorted(idf.df)
        # "zebra" is a vocabulary word that no answer of thread 1 holds.
        _, _, index = build_documents([thread, other], idf).answer_index(
            np.array([0]), ["jackson", "zebra"],
            np.array([vocab.index("jackson"), vocab.index("zebra")]))
        assert doc_values(index, "doc_len") == {
            2: sum(synth.answer_document_bag(thread, thread.answers[0]).values())}
        assert index.terms == ["jackson"]
        assert index.postings("jackson") == [(2, 1)]
        thread_index = build_thread_index([thread])
        assert thread_index.doc_ids.tolist() == [1]


def _damage(directory, name, array):
    with open(index_file(directory, name), "wb") as fh:
        np.save(fh, array)


class TestPersistence:
    def test_round_trip(self, small_index, tmp_path):
        save_index(small_index, tmp_path, meta={"note": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == INDEX_FILES
        loaded = load_index(tmp_path)
        assert loaded.terms == small_index.terms
        for term in small_index.terms:
            assert loaded.postings(term) == small_index.postings(term)
        assert doc_values(loaded, "doc_len") == doc_values(small_index, "doc_len")
        assert doc_values(loaded, "doc_sumsq") == doc_values(small_index, "doc_sumsq") == {
            1: 5, 2: 10, 3: 1}
        assert loaded.stats == small_index.stats
        for name, dtype in INDEX_ARRAYS.items():
            if name not in ("terms", "term_ptr"):
                assert getattr(loaded, name).dtype == dtype
        query = ["parse", "xml"]
        assert repr(bm25_search(loaded, query, 10)) == repr(bm25_search(small_index, query, 10))

    def test_empty_index_round_trip(self, tmp_path):
        save_index(build_index({}), tmp_path)
        loaded = load_index(tmp_path)
        assert loaded.stats.n_docs == 0 and loaded.terms == []
        assert bm25_search(loaded, ["a"], 3) == []

    def test_byte_identical(self, small_index, tmp_path):
        for side in ("a", "b"):
            (tmp_path / side).mkdir()
            save_index(small_index, tmp_path / side)
        for name in INDEX_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_thread_index_stores_each_threads_sum_of_squares(self, tmp_path):
        posts, _, _ = synth.planted_corpus(n_threads=30, n_queries=3)
        threads = build_threads([RawPost.from_json(o) for o in posts])
        for side in ("a", "b"):
            (tmp_path / side).mkdir()
            save_index(build_thread_index(threads), tmp_path / side)
        for name in INDEX_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        stored = doc_values(load_index(tmp_path / "a"), "doc_sumsq")
        assert stored == {t.question.id: sum(tf * tf for tf in thread_document_bag(t).values())
                          for t in threads}

    def test_rejects_wrong_format(self, small_index, tmp_path):
        save_index(small_index, tmp_path)
        (tmp_path / INDEX_HEADER).write_text('{"format": "other", "version": 3}')
        with pytest.raises(ValueError, match="not an index header"):
            load_index(tmp_path)

    @pytest.mark.parametrize("key", ["k", "b"])
    def test_missing_key_is_named(self, small_index, tmp_path, key):
        save_index(small_index, tmp_path)
        header = json.loads((tmp_path / INDEX_HEADER).read_text())
        del header[key]
        (tmp_path / INDEX_HEADER).write_text(json.dumps(header))
        with pytest.raises(ValueError, match=f"{INDEX_HEADER}: k and b must be finite numbers"):
            load_index(tmp_path)

    @pytest.mark.parametrize("name", sorted(INDEX_ARRAYS))
    def test_missing_array_is_named(self, small_index, tmp_path, name):
        save_index(small_index, tmp_path)
        index_file(tmp_path, name).unlink()
        with pytest.raises(ValueError, match=re.escape(f"index.{name}.npy: missing; rerun "
                                                       "`crowdrank build-index`")):
            load_index(tmp_path)

    @pytest.mark.parametrize("payload", [
        {"format": "crowdrank-index", "version": 1},
        {"format": "crowdrank-index", "version": 1, "k": 1.2, "b": 0.9,
         "doc_len": {"1": 2}, "postings": {"a": [[1, 2]]}, "meta": {}},
        {"format": "crowdrank-index", "version": 2, "k": 1.2, "b": 0.9, "doc_len": {"1": 2},
         "doc_sumsq": {"1": 4}, "postings": {"a": [[1, 2]]}, "meta": {}},
    ])
    def test_version_1_says_to_rebuild(self, tmp_path, payload):
        # A directory built before the arrays holds index.json alone, of
        # version 1 or 2.
        (tmp_path / "index.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(
                "index.json: an index of an older format; rerun `crowdrank build-index`")):
            load_index(tmp_path)

    def test_other_header_version_says_to_rebuild(self, small_index, tmp_path):
        save_index(small_index, tmp_path)
        header = json.loads((tmp_path / INDEX_HEADER).read_text())
        header["version"] = 2
        (tmp_path / INDEX_HEADER).write_text(json.dumps(header))
        with pytest.raises(ValueError, match="version 2 .*rerun `crowdrank build-index`"):
            load_index(tmp_path)

    @pytest.mark.parametrize("name, array, why", [
        ("indptr", np.array([0, 2, 1, 4, 5], dtype=np.int64), "offsets do not run"),
        ("indptr", np.array([0, 1, 2, 4, 4], dtype=np.int64), "up to the 5 postings"),
        ("indptr", np.array([0, 1, 5], dtype=np.int64), "term count 4 does not match 3 offsets"),
        ("rows", np.array([2, 0, 1, 0, 3], dtype=np.int32), "outside 0..2"),
        ("rows", np.array([2, 0, 1, 0, -1], dtype=np.int32), "outside 0..2"),
        ("rows", np.array([2, 1, 0, 0, 1], dtype=np.int32), "not ascending"),
        ("tfs", np.array([1, 1, 2, 1], dtype=np.int32), "4 tfs for 5 postings"),
        ("tfs", np.array([1, 1, 2, 1, 3], dtype=np.int64), "not a 1-d int32"),
        ("doc_len", np.array([[3, 4, 1]], dtype=np.int64), "2-d int64 array"),
        ("doc_sumsq", np.array([5, 10], dtype=np.int64), "2 values for 3 documents"),
        ("doc_ids", np.array([3, 2, 1], dtype=np.int64), "not ascending"),
        ("terms", np.frombuffer(b"datejsonparsexml"[::-1], dtype=np.uint8),
         "not sorted and distinct"),
        ("terms", np.frombuffer(b"\xffatejsonparsexml", dtype=np.uint8), "not UTF-8"),
        ("term_ptr", np.array([0, 4, 8, 13], dtype=np.int64), "do not cover"),
        ("doc_ids", np.array([1, 2, None], dtype=object), "not a readable .npy array"),
    ])
    def test_malformed_arrays_are_a_value_error(self, small_index, tmp_path, name, array, why):
        save_index(small_index, tmp_path)
        _damage(tmp_path, name, array)
        with pytest.raises(ValueError, match=re.escape(str(index_file(tmp_path, name)))
                           + ".*" + re.escape(why)):
            load_index(tmp_path)

    @pytest.mark.parametrize("content", [b"", b"\x93NUMPY\x01\x00garbage", b"PK\x03\x04"])
    def test_unreadable_array_file_is_a_value_error(self, small_index, tmp_path, content):
        save_index(small_index, tmp_path)
        index_file(tmp_path, "rows").write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(str(index_file(tmp_path, "rows")))):
            load_index(tmp_path)

    @pytest.mark.parametrize("text", ["{not json", "[1]", '{"format": "crowdrank-index", '
                                      '"version": 3, "k": "fast", "b": 0.9}'])
    def test_malformed_header_is_a_value_error(self, small_index, tmp_path, text):
        save_index(small_index, tmp_path)
        (tmp_path / INDEX_HEADER).write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(tmp_path / INDEX_HEADER))):
            load_index(tmp_path)
