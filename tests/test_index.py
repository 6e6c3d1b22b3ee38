import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import synth
from crowdrank.artifacts import build_artifacts, load_engine
from crowdrank.corpus import RawPost, build_threads
from crowdrank.documents import DOCS_ARRAYS, build_store, docs_file, load_documents, save_documents
from crowdrank.index import (assemble_index, bm25_rows, bm25_search, bm25_table,
                             build_index, merge_entries)
from synth import thread_document_bag


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



@st.composite
def count_tables(draw):
    """A (document x term) count table with some columns of zeros, each
    document's words beyond the table's terms, and distinct keys in any order."""
    n = draw(st.integers(0, 8))
    column = st.one_of(st.just([0] * n), st.lists(st.integers(0, 3), min_size=n, max_size=n))
    columns = draw(st.lists(column, max_size=4))
    counts = np.array(columns, dtype=np.int64).reshape(len(columns), n).T
    extra = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return counts, extra, draw(st.lists(st.integers(0, 10 ** 6), min_size=n, max_size=n,
                                        unique=True))


def thread_index(posts):
    """The thread index an engine makes from the document store of `posts`."""
    idf, docs = build_store(posts)
    return docs.thread_index(sorted(idf.df))


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


@st.composite
def merge_inputs(draw):
    """`merge_entries` arguments: n owners, int32 ids below `size` (a size of
    2**31 forces int64 keys) and counts of up to `bits` bits, or None."""
    n = draw(st.integers(0, 5))
    size = draw(st.one_of(st.integers(0, 6), st.sampled_from([2**16, 2**31])))
    bits = draw(st.sampled_from([0, 1, 3, 20, 40]))
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, size - 1),
                                      st.integers(0, 2**bits - 1)), max_size=30)
                   ) if n and size else []
    with_counts = draw(st.booleans())
    return n, size, entries, with_counts


class TestMergeEntries:
    """The packed-key merge against a `Counter` of (owner, id) entries."""

    @settings(max_examples=300, deadline=None)
    @given(merge_inputs())
    @example((0, 5, [], True)).via("no owners")
    @example((3, 4, [], True)).via("owners without entries")
    @example((2, 0, [], False)).via("no ids")
    @example((2, 3, [(1, 2, 2**40 - 1), (1, 2, 2**40 - 1), (0, 0, 0)], True)
             ).via("counts of many bits, summed past them")
    @example((1, 2**31, [(0, 2**31 - 1, 1), (0, 0, 1), (0, 2**31 - 1, 1)], False)
             ).via("a size that takes int64 keys")
    @example((4, 2**31, [(3, 2**31 - 1, 7), (3, 2**31 - 1, 1)], True)
             ).via("int64 keys with counts")
    def test_matches_a_counter(self, case):
        n, size, entries, with_counts = case
        owner, ids, counts = (np.array([e[i] for e in entries], dtype=np.int64)
                              for i in range(3))
        sums = Counter()
        for o, i, c in entries:
            sums[o, i] += c
        try:
            flat, ptr, got = merge_entries(ids, owner, n, size, counts if with_counts else None)
        except OverflowError:
            bits = int(counts.max(initial=0)).bit_length() if with_counts else 0
            assert max(n, 1) * max(size, 1) << bits >= 2**63
            return
        keys = sorted(sums)
        assert flat.dtype == np.int32 and flat.tolist() == [i for _, i in keys]
        assert ptr.tolist() == [sum(o < bound for o, _ in keys) for bound in range(n + 1)]
        if with_counts:
            assert got.dtype == np.int64 and got.tolist() == [sums[k] for k in keys]
        else:
            assert got is None

    def test_keys_beyond_64_bits_are_refused(self):
        with pytest.raises(OverflowError):
            merge_entries(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), 2**20,
                          2**20, np.array([2**30]))


class TestAssembleIndex:
    @settings(max_examples=200, deadline=None)
    @given(docs=DOCS_ST, data=st.data())
    def test_equals_build_index_of_the_bags(self, docs, data):
        """The entries of random bags, each count split in pieces and in any
        order, assemble to the index `build_index` makes of the bags."""
        doc_ids = sorted(docs)
        terms = sorted({term for bag in docs.values() for term in bag})
        entries = []
        for row, doc_id in enumerate(doc_ids):
            for term, tf in docs[doc_id].items():
                cut = data.draw(st.integers(0, tf - 1))
                entries += [(row, terms.index(term), piece) for piece in (tf - cut, cut) if piece]
        entries = data.draw(st.permutations(entries))
        rows, term_ids, counts = (np.array([e[i] for e in entries], dtype=np.int64)
                                  for i in range(3))
        got = assemble_index(terms, rows, term_ids, counts, np.array(doc_ids, dtype=np.int64))
        want = build_index(docs)
        assert got.terms == want.terms
        for name in ("indptr", "rows", "tfs", "doc_ids", "doc_len", "doc_sumsq", "impacts"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


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

    @settings(max_examples=200, deadline=None)
    @given(table=count_tables(), top_n=st.integers(1, 10))
    @example(table=([[1], [1], [1], [0]], [2, 2, 2, 0], [9, 2, 5, 7]),
             top_n=2).via("tied scores, keys out of order")
    @example(table=([[1, 0], [0, 0], [2, 0]], [0, 2, 1], [3, 1, 2]),
             top_n=5).via("a column of zeros")
    @example(table=([[1, 1]], [0], [4]), top_n=5).via("one document: idf 0")
    @example(table=(np.zeros((0, 2), dtype=np.int64), [], []), top_n=3).via("no documents")
    def test_count_table_equals_the_index_of_its_entries(self, table, top_n):
        counts, extra, keys = (np.array(x, dtype=np.int64) for x in table)
        terms = [f"t{j}" for j in range(counts.shape[1])]
        # The table's cells as index entries, plus a filler term that brings
        # each document up to its length; row r is the r-th smallest key.
        rank = np.argsort(np.argsort(keys))
        rows, term_ids = np.nonzero(counts)
        filler = np.flatnonzero(extra)
        index = assemble_index(terms + ["zfiller"], rank[np.concatenate([rows, filler])],
                               np.concatenate([term_ids, np.full(len(filler), len(terms))]),
                               np.concatenate([counts[rows, term_ids], extra[filler]]),
                               np.sort(keys))
        positions, scores = bm25_table(counts, counts.sum(axis=1) + extra, keys, top_n)
        hits, want = bm25_rows(index, terms, top_n)
        assert repr((keys[positions].tolist(), scores.tolist())) == repr(
            (index.doc_ids[hits].tolist(), want.tolist()))

    def test_thread_index_of_the_planted_corpus(self):
        posts, queries, _ = synth.planted_corpus(n_threads=60, n_queries=5)
        posts = [RawPost.from_json(o) for o in posts]
        docs = {t.question.id: thread_document_bag(t) for t in build_threads(posts)}
        index = thread_index(posts)
        for text in queries.values():
            query = text.split()
            hits = bm25_search(index, query, 500)
            assert hits and repr(hits) == repr(reference_bm25(docs, query, 500))


class TestDocumentBags:
    def posts(self):
        return [
            RawPost(id=1, post_kind="question", score=5, title="parse json",
                    body_html="json parsing question"),
            RawPost(id=2, post_kind="answer", score=3, parent_id=1,
                    body_html="use jackson <code>mapper.readValue(json)</code>"),
        ]

    def test_thread_bag_includes_answer_text(self):
        index = thread_index(self.posts())
        assert index.postings("json") == [(1, 3)]  # title, body, answer code
        assert index.postings("jackson") == [(1, 1)]  # answer body
        assert index.postings("readvalue") == [(1, 1)]  # answer code

    def test_answer_bag_includes_parent_question(self):
        idf, docs = build_store(self.posts())
        words = ["jackson", "readvalue", "parse", "question"]
        counts = docs.term_counts(
            "answer_text", np.array([0]), np.array([sorted(idf.df).index(w) for w in words]))
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
        assert "qonlyword" not in engine.thread_index.terms
        assert bm25_search(engine.thread_index, ["qonlyword"], 10) == []
        assert engine.idf_map.df["qonlyword"] == 1

    def test_answer_bm25_covers_whole_answers(self):
        posts = self.posts() + [
            RawPost(id=5, post_kind="question", score=5, title="zebra", body_html="stripes"),
            RawPost(id=6, post_kind="answer", score=3, parent_id=5,
                    body_html="<code>zebra.run()</code>"),
            RawPost(id=7, post_kind="question", score=5, title="format date", body_html="how"),
            RawPost(id=8, post_kind="answer", score=3, parent_id=7,
                    body_html="<code>fmt.format(d)</code>")]
        thread, _, third = build_threads(posts)
        idf, docs = build_store(posts)
        vocab = sorted(idf.df)
        # Threads 1 and 7 survive; "zebra" is a vocabulary word that none of
        # their answers holds. The scores depend on the answers' whole lengths.
        rows, _ = docs.answer_rows(np.array([0, 2]))
        counts = docs.term_counts("answer_text", rows,
                                  np.array([vocab.index("jackson"), vocab.index("zebra")]))
        assert counts.tolist() == [[1, 0], [0, 0]]
        positions, scores = bm25_table(counts, docs.answer_len[rows], docs.answer_ids[rows], 150)
        hits = list(zip(docs.answer_ids[rows[positions]].tolist(), scores.tolist()))
        full = build_index({a.id: synth.answer_document_bag(t, a)
                            for t in (thread, third) for a in t.answers})
        assert repr(hits) == repr(bm25_search(full, ["jackson", "zebra"], 150))
        assert [answer_id for answer_id, _ in hits] == [2]


def save_planted_store(directory):
    """Save the document store of a planted corpus; its threads and idf map."""
    posts, _, _ = synth.planted_corpus(n_threads=30, n_queries=3)
    posts = [RawPost.from_json(o) for o in posts]
    idf, docs = build_store(posts)
    save_documents(docs, directory)
    return build_threads(posts), idf


def build_planted_dir(tmp_path):
    """Build the index directory of a planted corpus under `tmp_path`."""
    posts, _, _ = synth.planted_corpus(n_threads=30, n_queries=3)
    synth.write_jsonl(tmp_path / "dump.jsonl", posts)
    build_artifacts(tmp_path / "dump.jsonl", tmp_path / "index")
    return tmp_path / "index"


class TestPersistence:
    """The thread index is not saved: it is made from the saved document
    store, whose files are checked at load."""

    def test_round_trip(self, tmp_path):
        index_dir = build_planted_dir(tmp_path)
        assert not list(index_dir.glob("index.*"))
        engine = load_engine(index_dir)
        threads = list(engine.threads.values())
        want = build_index({t.question.id: thread_document_bag(t) for t in threads})
        assert synth.index_differences(engine.thread_index, want) == []
        idf = synth.build_idf(threads)
        rebuilt = synth.build_documents(threads, idf).thread_index(sorted(idf.df))
        assert synth.index_differences(rebuilt, want) == []

    def test_empty_index_round_trip(self, tmp_path):
        (tmp_path / "dump.jsonl").write_text("")
        build_artifacts(tmp_path / "dump.jsonl", tmp_path / "index")
        engine = load_engine(tmp_path / "index")
        assert engine.thread_index.stats.n_docs == 0 and engine.thread_index.terms == []
        assert synth.index_differences(engine.thread_index, build_index({})) == []
        assert bm25_search(engine.thread_index, ["a"], 3) == []

    def test_thread_index_stores_each_threads_sum_of_squares(self, tmp_path):
        threads, idf = save_planted_store(tmp_path)
        index = load_documents(tmp_path, len(idf.df)).thread_index(sorted(idf.df))
        assert doc_values(index, "doc_sumsq") == {
            t.question.id: sum(tf * tf for tf in thread_document_bag(t).values())
            for t in threads}

    def test_byte_identical(self, tmp_path):
        for side in ("a", "b"):
            (tmp_path / side).mkdir()
            save_planted_store(tmp_path / side)
        for name in DOCS_ARRAYS:
            assert (docs_file(tmp_path / "a", name).read_bytes()
                    == docs_file(tmp_path / "b", name).read_bytes())

    def test_rejects_wrong_format(self, tmp_path):
        index_dir = build_planted_dir(tmp_path)
        (index_dir / "meta.json").write_text('{"format": "other", "version": 3}')
        with pytest.raises(ValueError, match="meta.json: unsupported index directory format"):
            load_engine(index_dir)

    def test_other_header_version_says_to_rebuild(self, tmp_path):
        index_dir = build_planted_dir(tmp_path)
        meta = json.loads((index_dir / "meta.json").read_text())
        meta["version"] = 0  # a version no build writes
        (index_dir / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=re.escape(
                "meta.json: unsupported index directory format; rerun `crowdrank build-index`")):
            load_engine(index_dir)

    @pytest.mark.parametrize("payload", [
        {"format": "crowdrank-index", "version": 1},
        {"format": "crowdrank-index", "version": 1, "k": 1.2, "b": 0.9,
         "doc_len": {"1": 2}, "postings": {"a": [[1, 2]]}, "meta": {}},
        {"format": "crowdrank-index", "version": 2, "k": 1.2, "b": 0.9, "doc_len": {"1": 2},
         "doc_sumsq": {"1": 4}, "postings": {"a": [[1, 2]]}, "meta": {}},
    ])
    def test_version_1_says_to_rebuild(self, tmp_path, payload):
        # A directory built before the document store holds index.json in
        # its place, of version 1 or 2; it is not read.
        index_dir = build_planted_dir(tmp_path)
        for path in index_dir.glob("docs.*.npy"):
            path.unlink()
        (index_dir / "index.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(
                "docs.title_ptr.npy: missing; rerun `crowdrank build-index`")):
            load_engine(index_dir)

    @pytest.mark.parametrize("content", [b"", b"\x93NUMPY\x01\x00garbage", b"PK\x03\x04"])
    def test_unreadable_array_file_is_a_value_error(self, tmp_path, content):
        _, idf = save_planted_store(tmp_path)
        docs_file(tmp_path, "title_ids").write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"{docs_file(tmp_path, 'title_ids')}: "
                                                       "not a readable .npy array")):
            load_documents(tmp_path, len(idf.df))
