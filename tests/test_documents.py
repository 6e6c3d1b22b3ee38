"""The document store's gathers against the bag-walking references in synth.py."""

import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synth
from crowdrank.antonyms import default_dictionary
from crowdrank.artifacts import build_artifacts, build_idf, load_engine
from crowdrank.corpus import (BAG_FIELDS, ProcessedPost, RawPost, Thread, build_threads,
                              load_dump, preprocess)
from crowdrank.documents import (DocumentStore, ThreadMap, build_documents, load_documents,
                                 save_documents)
from crowdrank.embeddings import (EmbeddingStore, cosine, fallback_embed, save_vectors,
                                  sentence_embed)
from crowdrank.evaluation import GroundTruth, run_ablation_grid
from crowdrank.features import (WeightConfig, extract_methods, tfidf_score, top_method_scores,
                                top_method_score)
from crowdrank.index import build_index
from crowdrank.pipeline import BASELINE_NAMES, SearchEngine

WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf"]
METHODS = ["fetch", "store", "parse", "Zap"]

TEXT_ST = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)
CALL_ST = st.tuples(st.sampled_from(["", "obj.", "a.b."]), st.sampled_from(METHODS),
                    st.sampled_from(WORDS)).map(lambda c: f"{c[0]}{c[1]}({c[2]});")
CODE_ST = st.lists(CALL_ST, min_size=1, max_size=4).map(" ".join)
# An answer's prose (possibly none) and its code.
ANSWER_ST = st.tuples(TEXT_ST, CODE_ST)
# A thread's title, question body, optional question code, and one to three answers.
THREAD_ST = st.tuples(TEXT_ST, TEXT_ST, st.one_of(st.just(""), CODE_ST),
                      st.lists(ANSWER_ST, min_size=1, max_size=3))
CORPUS_ST = st.lists(THREAD_ST, min_size=1, max_size=5)


def corpus_threads(corpus):
    """The threads of a generated corpus. Answer ids fall as question ids
    rise, so the answer index must sort them."""
    posts = []
    for i, (title, body, code, answers) in enumerate(corpus):
        qid = 5000 + 10 * i
        question_body = f"{body} <code>{code}</code>" if code else body
        posts.append(synth.question(qid, title, question_body, 1 + i))
        for j, (prose, answer_code) in enumerate(answers):
            posts.append(synth.answer(1000 - 10 * i + j, qid,
                                      f"{prose} <code>{answer_code}</code>", 1 + j))
    threads = build_threads([RawPost.from_json(o) for o in posts])
    assert len(threads) == len(corpus)
    return threads


def make_engine(threads):
    return SearchEngine(threads, EmbeddingStore(dim=8, fallback=True), build_idf(threads),
                        default_dictionary())


def subset(data, n):
    """Distinct positions below n, in a drawn order."""
    return np.array(data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))],
                    dtype=np.intp)


def as_lists(segments):
    flat, ptr = segments
    return flat.tolist(), ptr.tolist()


class TestAgainstBagReferences:
    @settings(max_examples=60, deadline=None)
    @given(CORPUS_ST, st.data())
    def test_segments(self, corpus, data):
        threads = corpus_threads(corpus)
        engine = make_engine(threads)
        docs, vocab = engine.docs, engine.vocab.words
        rows = subset(data, len(threads))
        chosen = [threads[r] for r in rows.tolist()]
        assert repr(as_lists(docs.title_segments(rows))) == repr(synth.segments_reference(
            [[t.question.title_bag] for t in chosen], vocab))
        assert repr(as_lists(docs.body_segments(rows))) == repr(synth.segments_reference(
            [[t.question.body_bag, *(a.body_bag for a in t.answers)] for t in chosen], vocab))
        located = [(t, a) for t in threads for a in t.answers]
        answer_rows = subset(data, len(located))
        assert repr(as_lists(docs.answer_segments(answer_rows))) == repr(
            synth.segments_reference([[located[r][1].body_bag, located[r][0].question.title_bag]
                                      for r in answer_rows.tolist()], vocab))

    @settings(max_examples=60, deadline=None)
    @given(CORPUS_ST, st.data())
    def test_answer_index(self, corpus, data):
        threads = corpus_threads(corpus)
        docs, vocab = make_engine(threads).docs, sorted(build_idf(threads).df)
        rows = subset(data, len(threads))
        query = data.draw(st.sets(st.sampled_from(WORDS)))
        terms = sorted(w for w in query if w in vocab)
        _, _, index = docs.answer_index(rows, terms,
                                        np.array([vocab.index(w) for w in terms], dtype=np.intp))
        got = (index.doc_ids.tolist(), index.doc_len.tolist(), index.stats.n_docs,
               index.stats.avgdl, {t: index.postings(t) for t in index.terms})
        assert repr(got) == repr(synth.answer_index_reference(
            [threads[r] for r in rows.tolist()], terms))

    @settings(max_examples=40, deadline=None)
    @given(CORPUS_ST)
    def test_threads(self, corpus):
        # A built engine reads its threads from its store, as a loaded one does.
        threads = corpus_threads(corpus)
        engine = make_engine(threads)
        assert list(engine.threads) == sorted(t.question.id for t in threads)
        for thread in threads:
            assert engine.threads[thread.question.id] == thread
            assert repr(engine.threads[thread.question.id]) == repr(thread)

    @settings(max_examples=60, deadline=None)
    @given(CORPUS_ST)
    def test_thread_index(self, corpus):
        threads = corpus_threads(corpus)
        want = build_index({t.question.id: synth.thread_document_bag(t) for t in threads})
        assert synth.index_differences(make_engine(threads).thread_index, want) == []

    @settings(max_examples=60, deadline=None)
    @given(CORPUS_ST, st.data(), st.sampled_from([10.0, 2.0, 0.5]))
    def test_top_method(self, corpus, data, scale):
        threads = corpus_threads(corpus)
        docs = make_engine(threads).docs
        answers = [a for t in threads for a in t.answers]
        rows = subset(data, len(answers))
        codes = [answers[r].code_text for r in rows.tolist()]
        want = synth.top_method_reference(codes, extract_methods, scale)
        assert repr(top_method_scores(*docs.methods(rows), scale).tolist()) == repr(want)
        assert repr(list(top_method_score(list(enumerate(codes)), scale).values())) == repr(want)

    @settings(max_examples=40, deadline=None)
    @given(CORPUS_ST, st.sets(st.sampled_from(WORDS + ["unseenword"]), min_size=1))
    def test_tfidf(self, corpus, query):
        threads = corpus_threads(corpus)
        engine = make_engine(threads)
        text = " ".join(sorted(query))
        bag = preprocess(text, "query")
        by_id = {a.id: (t, a) for t in threads for a in t.answers}
        for entry in engine.search(text, WeightConfig(final_n=50)).entries:
            answer_bag = synth.answer_document_bag(*by_id[entry.answer_id])
            want = synth.tfidf_oracle(bag, answer_bag, engine.idf_map.idf)
            assert abs(entry.features.raw["tfidf"] - want) <= 1e-12
            assert abs(tfidf_score(bag, answer_bag, engine.idf_map) - want) <= 1e-12


def post(pid, title, body):
    return ProcessedPost(pid, 1, Counter(title.split()), Counter(body.split()), Counter(), "",
                         title, body)


# A thread's title, question body and answer bodies; any text may be empty and
# a thread may have no answers, which a dump's threads never are.
BARE_THREAD_ST = st.tuples(TEXT_ST, TEXT_ST, st.lists(TEXT_ST, max_size=3))


class TestBodyUnion:
    """Each thread's asym_body target, made when the store is."""

    @staticmethod
    def bare_threads(corpus):
        return [Thread(post(100 * i, title, body),
                       [post(100 * i + 1 + j, "", text) for j, text in enumerate(answers)])
                for i, (title, body, answers) in enumerate(corpus)]

    @staticmethod
    def want(threads, vocab):
        return repr(synth.segments_reference(
            [[t.question.body_bag, *(a.body_bag for a in t.answers)] for t in threads], vocab))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(BARE_THREAD_ST, max_size=6))
    def test_built_and_loaded_stores(self, corpus):
        threads = self.bare_threads(corpus)
        idf = build_idf(threads)
        vocab = sorted(idf.df)
        built = build_documents(threads, idf)
        with tempfile.TemporaryDirectory() as directory:
            save_documents(built, directory)
            loaded = load_documents(directory, len(vocab))
        for docs in (built, loaded):
            assert repr(as_lists(docs.body_union)) == self.want(threads, vocab)
            every = np.arange(len(threads))
            assert repr(as_lists(docs.body_segments(every))) == self.want(threads, vocab)

    def test_the_empty_corpus(self):
        docs = build_documents([], build_idf([]))
        assert as_lists(docs.body_union) == ([], [0])
        assert as_lists(docs.body_segments(np.zeros(0, dtype=np.intp))) == ([], [0])

    def test_keys_past_int32(self):
        # Keys are thread row * vocab_size + id; with this vocab_size the last
        # thread's keys pass 2**31 - 1, which int32 keys would wrap.
        threads = self.bare_threads([("a", "delta alpha", ["echo", ""]), ("b", "", []),
                                     ("c", "bravo", ["charlie alpha", "golf"])])
        built = build_documents(threads, build_idf(threads))
        vocab_size = 2**30
        assert len(threads) * vocab_size >= 2**31
        docs = DocumentStore(built.parts, built.answer_ids, built.answer_thread,
                             built.tfidf_norm, built.method_ptr, built.method_ids,
                             built.method_names, vocab_size, built.posts)
        assert as_lists(docs.body_union) == as_lists(built.body_union)
        assert repr(as_lists(built.body_union)) == self.want(threads,
                                                              sorted(build_idf(threads).df))


@pytest.fixture(scope="module")
def planted_index(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    posts, queries, _ = synth.planted_corpus(n_threads=40, n_queries=4)
    synth.write_jsonl(root / "dump.jsonl", posts)
    build_artifacts(root / "dump.jsonl", root / "index")
    return root / "index", queries


def test_store_round_trip(planted_index, tmp_path):
    index_dir, _ = planted_index
    engine = load_engine(index_dir)
    built = build_documents(engine.threads.values(), engine.idf_map)
    save_documents(built, tmp_path)
    for docs in (engine.docs, load_documents(tmp_path, len(engine.idf_map.df))):
        for name, part in built.parts.items():
            for field in ("ptr", "ids", "counts"):
                assert np.array_equal(getattr(docs.parts[name], field), getattr(part, field))
        for field in ("answer_ids", "answer_thread", "tfidf_norm", "method_ptr", "method_ids",
                      "answer_len"):
            assert np.array_equal(getattr(docs, field), getattr(built, field))
        assert docs.method_names == built.method_names
        for field in ("question_ids", "question_score", "answer_score"):
            assert np.array_equal(getattr(docs.posts, field), getattr(built.posts, field))
        for field in ("question_text", "answer_text", "answer_title"):
            got, want = vars(getattr(docs.posts, field)), vars(getattr(built.posts, field))
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[name], want[name]) for name in want)
        assert docs.posts.answer_title_words == built.posts.answer_title_words


@pytest.mark.parametrize("make", [synth.planted_corpus, synth.social_corpus,
                                  synth.antonym_filter_corpus])
def test_loaded_threads_equal_built_ones(tmp_path, make):
    synth.write_jsonl(tmp_path / "dump.jsonl", make()[0])
    build_artifacts(tmp_path / "dump.jsonl", tmp_path / "index")
    loaded = list(load_engine(tmp_path / "index").threads.values())
    built = build_threads(load_dump(tmp_path / "dump.jsonl"))
    assert loaded == built
    assert repr(loaded) == repr(built)


def test_the_preset_grid_builds_no_bag(planted_index, monkeypatch):
    # A search reads the store, never a thread or a post's bags; a thread is
    # built only when something reads it from `engine.threads`.
    index_dir, queries = planted_index
    engine = load_engine(index_dir)
    truth = GroundTruth()
    for query_id, text in queries.items():
        truth.add(query_id, text, [1])
    assert len(BASELINE_NAMES) == 37

    def refuse(self, row):
        raise AssertionError(f"a search built thread row {row}")
    monkeypatch.setattr(ThreadMap, "thread", refuse)
    run_ablation_grid(engine, BASELINE_NAMES, truth)
    monkeypatch.undo()
    posts = [p for t in engine.threads.values() for p in (t.question, *t.answers)]
    assert len(posts) == 80
    assert all(not BAG_FIELDS & vars(p).keys() and "_bag_link" in vars(p) for p in posts)


class TestTitleVectors:
    def test_built_in_vectors_fill_the_store(self, planted_index):
        index_dir, _ = planted_index
        engine = load_engine(index_dir)
        assert sorted(engine.store.sentence_vecs) == sorted(engine.threads)
        for row, thread_id in enumerate(engine.thread_index.doc_ids.tolist()):
            want = sentence_embed(engine.threads[thread_id].question.title_bag, engine.store,
                                  engine.idf_map)
            assert np.array_equal(engine.store.sentence_vecs[thread_id], want)
            assert np.array_equal(engine.title_vecs[row], want)

    def test_sentence_feature_is_the_cosine(self, planted_index):
        index_dir, queries = planted_index
        engine = load_engine(index_dir)
        checked = 0
        for text in queries.values():
            query_vec = sentence_embed(preprocess(text, "query"), engine.store, engine.idf_map)
            result = engine.search(text, WeightConfig())
            for thread_id, raw in result.diagnostics["thread_features"].items():
                want = cosine(query_vec, engine.store.sentence_vecs[thread_id])
                assert abs(raw["sentence"] - want) <= 1e-12
                checked += 1
        assert checked > 10

    def test_a_sentence_vector_file_wins_and_zero_vectors_score_zero(self, planted_index,
                                                                     tmp_path):
        index_dir, queries = planted_index
        plain = load_engine(index_dir)
        ids = sorted(plain.threads)
        given = {ids[0]: fallback_embed("anything", dim=plain.store.dim),
                 ids[1]: np.zeros(plain.store.dim)}
        save_vectors(given, plain.store.dim, tmp_path / "titles.vec")
        engine = load_engine(index_dir, sentence_vectors=tmp_path / "titles.vec")
        for thread_id, vec in given.items():
            assert np.array_equal(engine.store.sentence_vecs[thread_id], vec)
            assert np.array_equal(engine.title_vecs[ids.index(thread_id)], vec)
        assert np.array_equal(engine.store.sentence_vecs[ids[2]],
                              plain.store.sentence_vecs[ids[2]])
        rows = np.arange(len(ids))
        qc = engine.make_query_context(queries[1], WeightConfig())
        sentence = engine._sentence(qc, rows)
        assert sentence[1] == 0.0
        assert sentence[0] == pytest.approx(cosine(qc.sentence_vec, given[ids[0]]), abs=1e-12)
