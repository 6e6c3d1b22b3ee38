import json
import math
import random
import re
from collections import Counter

import pytest

import synth
from crowdrank.artifacts import build_artifacts, load_engine
from crowdrank.corpus import RawPost, build_threads
from crowdrank.index import (InvertedIndex, answer_document_bag, bm25_search,
                             build_ephemeral_answer_index, build_index,
                             build_thread_index, load_index, save_index,
                             thread_document_bag)


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
        assert small_index.stats.df == {"parse": 2, "json": 1, "xml": 1, "date": 1}
        assert small_index.stats.avgdl == pytest.approx((3 + 4 + 1) / 3)

    def test_postings_sorted_by_doc_id(self, small_index):
        assert small_index.postings["parse"] == [(1, 2), (2, 1)]

    def test_empty_corpus(self):
        index = build_index({})
        assert index.stats.n_docs == 0
        assert bm25_search(index, ["anything"], 5) == []

    def test_duplicate_doc_id(self):
        index = InvertedIndex()
        index.add_document(1, {"a": 1})
        with pytest.raises(ValueError):
            index.add_document(1, {"b": 1})


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
        bag = answer_document_bag(thread, thread.answers[0])
        assert "jackson" in bag and "readvalue" in bag
        assert "parse" in bag            # parent title
        assert "question" in bag         # parent body

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
        contents = (tmp_path / "index" / "contents.txt").read_text().splitlines()
        assert "qonlyword" in contents[0].split()

    def test_ephemeral_index_covers_all_answers(self):
        thread = self.thread()
        index = build_ephemeral_answer_index([thread], ["jackson", "absent"])
        assert set(index.doc_len) == {2}
        assert index.doc_len[2] == sum(answer_document_bag(thread, thread.answers[0]).values())
        assert index.postings == {"jackson": [(2, 1)]}
        thread_index = build_thread_index([thread])
        assert set(thread_index.doc_len) == {1}


class TestPersistence:
    def test_round_trip(self, small_index, tmp_path):
        path = tmp_path / "index.json"
        save_index(small_index, path, meta={"note": 1})
        loaded = load_index(path)
        assert loaded.postings == small_index.postings
        assert loaded.doc_len == small_index.doc_len
        assert loaded.doc_sumsq == small_index.doc_sumsq == {1: 5, 2: 10, 3: 1}
        assert loaded.stats.df == small_index.stats.df
        assert loaded.stats.avgdl == pytest.approx(small_index.stats.avgdl)
        query = ["parse", "xml"]
        assert bm25_search(loaded, query, 10) == bm25_search(small_index, query, 10)

    def test_byte_identical(self, small_index, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_index(small_index, p1)
        save_index(small_index, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_thread_index_stores_each_threads_sum_of_squares(self, tmp_path):
        posts, _, _ = synth.planted_corpus(n_threads=30, n_queries=3)
        threads = build_threads([RawPost.from_json(o) for o in posts])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_index(build_thread_index(threads), p1)
        save_index(build_thread_index(threads), p2)
        assert p1.read_bytes() == p2.read_bytes()
        stored = load_index(p1).doc_sumsq
        assert stored == {t.question.id: sum(tf * tf for tf in thread_document_bag(t).values())
                          for t in threads}

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other", "version": 1}')
        with pytest.raises(ValueError):
            load_index(path)

    @pytest.mark.parametrize("key", ["k", "b", "doc_len", "doc_sumsq", "postings"])
    def test_missing_key_is_named(self, small_index, tmp_path, key):
        path = tmp_path / "index.json"
        save_index(small_index, path)
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"lacks {key}$"):
            load_index(path)

    @pytest.mark.parametrize("payload", [
        {"format": "crowdrank-index", "version": 1},
        {"format": "crowdrank-index", "version": 1, "k": 1.2, "b": 0.9,
         "doc_len": {"1": 2}, "postings": {"a": [[1, 2]]}, "meta": {}},
    ])
    def test_version_1_says_to_rebuild(self, tmp_path, payload):
        path = tmp_path / "index.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="rerun `crowdrank build-index`"):
            load_index(path)

    @pytest.mark.parametrize("change", [
        {"doc_len": [1, 2]},
        {"postings": {"parse": [[1]]}},
        {"k": "fast"},
        {"doc_sumsq": {"1": 5}},
    ])
    def test_malformed_fields_are_a_value_error(self, small_index, tmp_path, change):
        path = tmp_path / "index.json"
        save_index(small_index, path)
        payload = json.loads(path.read_text())
        payload.update(change)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_index(path)
