"""The document store's gathers against the bag-walking references in synth.py."""

import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synth
from crowdrank import embeddings
from crowdrank.antonyms import default_dictionary
from crowdrank.artifacts import build_artifacts, load_engine
from crowdrank.corpus import ProcessedPost, RawPost, Thread, build_threads, load_dump, preprocess
from crowdrank.documents import (VIEWS, DocumentStore, ThreadMap, _read_array, build_store,
                                 docs_file, load_documents, narrowest, save_documents)
from crowdrank.embeddings import (EmbeddingStore, cosine, fallback_embed, save_vectors,
                                  sentence_embed, sentence_vectors)
from crowdrank.evaluation import GroundTruth, run_ablation_grid
from crowdrank.features import (WeightConfig, extract_methods, tfidf_score, top_method_scores,
                                top_method_score)
from crowdrank.index import bm25_search, bm25_table, build_index
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


def corpus_engine(corpus):
    """The threads of a generated corpus (`build_threads`), and the engine of
    its streamed store. Answer ids fall as question ids rise, so the answer
    index must sort them."""
    posts = []
    for i, (title, body, code, answers) in enumerate(corpus):
        qid = 5000 + 10 * i
        question_body = f"{body} <code>{code}</code>" if code else body
        posts.append(synth.question(qid, title, question_body, 1 + i))
        for j, (prose, answer_code) in enumerate(answers):
            posts.append(synth.answer(1000 - 10 * i + j, qid,
                                      f"{prose} <code>{answer_code}</code>", 1 + j))
    posts = [RawPost.from_json(o) for o in posts]
    threads = build_threads(posts)
    assert len(threads) == len(corpus)
    idf, docs = build_store(posts)
    return threads, SearchEngine(docs, EmbeddingStore(dim=8, fallback=True), idf,
                                 default_dictionary())


def subset(data, n):
    """Distinct positions below n, in a drawn order."""
    return np.array(data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))],
                    dtype=np.intp)


def as_lists(segments):
    flat, ptr = segments
    return flat.tolist(), ptr.tolist()


class TestAgainstBagReferences:
    def test_every_view_has_a_reference(self):
        assert set(VIEWS) == set(synth.VIEW_BAGS)

    @pytest.mark.parametrize("view", sorted(VIEWS))
    @settings(max_examples=60, deadline=None)
    @given(corpus=CORPUS_ST, data=st.data())
    def test_view(self, view, corpus, data):
        # The store's gathers of a view against its bags, walked in the
        # threads a store reads back.
        _, engine = corpus_engine(corpus)
        docs, vocab = engine.docs, engine.vocab.words
        candidates = synth.view_candidates(view, engine.threads.values())
        rows = subset(data, len(candidates))
        texts = [synth.VIEW_BAGS[view](*candidates[r]) for r in rows.tolist()]
        terms = sorted(data.draw(st.sets(st.sampled_from(vocab))))
        term_ids = np.array([vocab.index(w) for w in terms], dtype=np.intp)
        counts = docs.term_counts(view, rows, term_ids)
        want_counts, want_lengths = synth.term_counts_reference(texts, terms)
        assert counts.tolist() == want_counts and counts.dtype == np.int64
        if view == "answer_text":
            assert docs.answer_len[rows].tolist() == want_lengths
        assert docs.holds_any(view, rows, term_ids).tolist() == synth.holds_any_reference(
            texts, terms)
        assert repr(as_lists(docs.segments(view, rows))) == repr(
            synth.segments_reference(texts, vocab))
        # Every candidate, read from whole parts' arrays, as their rows would be.
        every = np.arange(len(candidates))
        for whole, taken in zip(docs.entries(view), docs.entries(view, every)):
            assert (whole is None and taken is None) or whole.tolist() == taken.tolist()

    @settings(max_examples=60, deadline=None)
    @given(CORPUS_ST, st.data())
    def test_answer_bm25(self, corpus, data):
        threads, engine = corpus_engine(corpus)
        docs, vocab = engine.docs, engine.vocab.words
        rows = subset(data, len(threads))
        query = data.draw(st.sets(st.sampled_from(WORDS)))
        answer_rows, _ = docs.answer_rows(rows)
        counts = docs.term_counts("answer_text", answer_rows, np.array(
            [vocab.index(w) for w in sorted(query) if w in vocab], dtype=np.intp))
        ids = docs.answer_ids[answer_rows]
        positions, scores = bm25_table(counts, docs.answer_len[answer_rows], ids, 150)
        full = build_index({a.id: synth.answer_document_bag(threads[r], a)
                            for r in rows.tolist() for a in threads[r].answers})
        assert repr(list(zip(ids[positions].tolist(), scores.tolist()))) == repr(
            bm25_search(full, query, 150))

    @settings(max_examples=40, deadline=None)
    @given(CORPUS_ST)
    def test_threads(self, corpus):
        # A built engine reads its threads from its store, as a loaded one does.
        threads, engine = corpus_engine(corpus)
        assert list(engine.threads) == sorted(t.question.id for t in threads)
        for thread in threads:
            assert engine.threads[thread.question.id] == thread
            assert repr(engine.threads[thread.question.id]) == repr(thread)

    @settings(max_examples=60, deadline=None)
    @given(CORPUS_ST)
    def test_thread_index(self, corpus):
        threads, engine = corpus_engine(corpus)
        want = build_index({t.question.id: synth.thread_document_bag(t) for t in threads})
        assert synth.index_differences(engine.thread_index, want) == []

    @settings(max_examples=60, deadline=None)
    @given(CORPUS_ST, st.data(), st.sampled_from([10.0, 2.0, 0.5]))
    def test_top_method(self, corpus, data, scale):
        threads, engine = corpus_engine(corpus)
        docs = engine.docs
        answers = [a for t in threads for a in t.answers]
        rows = subset(data, len(answers))
        codes = [answers[r].code_text for r in rows.tolist()]
        want = synth.top_method_reference(codes, extract_methods, scale)
        assert repr(top_method_scores(*docs.methods(rows), scale).tolist()) == repr(want)
        assert repr(list(top_method_score(list(enumerate(codes)), scale).values())) == repr(want)

    @settings(max_examples=40, deadline=None)
    @given(CORPUS_ST, st.sets(st.sampled_from(WORDS + ["unseenword"]), min_size=1))
    def test_tfidf(self, corpus, query):
        threads, engine = corpus_engine(corpus)
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
        idf = synth.build_idf(threads)
        vocab = sorted(idf.df)
        built = synth.build_documents(threads, idf)
        with tempfile.TemporaryDirectory() as directory:
            save_documents(built, directory)
            loaded = load_documents(directory, len(vocab))
        for docs in (built, loaded):
            assert repr(as_lists(docs.unions["thread_bodies"])) == self.want(threads, vocab)
            every = np.arange(len(threads))
            taken = as_lists(docs.segments("thread_bodies", every))
            assert repr(taken) == self.want(threads, vocab)

    def test_the_empty_corpus(self):
        docs = synth.build_documents([], synth.build_idf([]))
        assert as_lists(docs.unions["thread_bodies"]) == ([], [0])
        assert as_lists(docs.segments("thread_bodies", np.zeros(0, dtype=np.intp))) == ([], [0])

    def test_keys_past_int32(self):
        # Keys are thread row * vocab_size + id; with this vocab_size the last
        # thread's keys pass 2**31 - 1, which int32 keys would wrap.
        threads = self.bare_threads([("a", "delta alpha", ["echo", ""]), ("b", "", []),
                                     ("c", "bravo", ["charlie alpha", "golf"])])
        built = synth.build_documents(threads, synth.build_idf(threads))
        vocab_size = 2**30
        assert len(threads) * vocab_size >= 2**31
        docs = DocumentStore(built.parts, built.answer_ids, built.answer_thread,
                             built.tfidf_norm, built.method_ptr, built.method_ids,
                             built.method_names, vocab_size, built.posts)
        assert as_lists(docs.unions["thread_bodies"]) == as_lists(built.unions["thread_bodies"])
        assert repr(as_lists(built.unions["thread_bodies"])) == self.want(threads,
                                                              sorted(synth.build_idf(threads).df))


def test_one_part_segments_are_the_part_rows():
    # A one-part view's segments are its rows' ids, taken without the
    # counts and owners of `entries`, whose ids and offsets they equal.
    _, docs = build_store(RawPost.from_json(o) for o in synth.antonym_filter_corpus()[0])
    rng = np.random.default_rng(5)
    views = [view for view, parts in VIEWS.items() if len(parts) == 1]
    assert views
    for view in views:
        n = len(docs.answer_ids) if view.startswith("answer_") else docs.n_threads
        for rows in (np.arange(n), rng.permutation(n)[:n // 2], np.zeros(0, dtype=np.intp),
                     np.array([1, 1, 0, n - 1])):
            ids, _, _, ptr = docs.entries(view, rows)
            flat, offsets = docs.segments(view, rows)
            assert flat.tolist() == ids.tolist() and flat.dtype == ids.dtype
            assert offsets.tolist() == ptr.tolist()


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
    built = synth.build_documents(engine.threads.values(), engine.idf_map)
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


@pytest.mark.parametrize("values, dtype, saved", [
    ([], np.int64, np.uint8),
    ([1, 255], np.int32, np.uint8),
    ([0, 256], np.int32, np.uint16),
    ([-1, 127], np.int64, np.int16),   # int8 and uint8 unite to int16
    ([-1, -128], np.int64, np.int8),
    ([-1, 300], np.int64, np.int32),   # int8 and uint16 unite to int32
    ([0, 70_000], np.int32, np.int32),  # uint32 is not narrower
    ([0, 2**40], np.int64, np.int64),
    ([-5, 2**63 - 1], np.int64, np.int64),  # int8 and uint64 unite to float64
    ([0.5, 1.0], np.float64, np.float64),
    ([0, 200], np.uint8, np.uint8),
])
def test_narrowest(values, dtype, saved):
    array = np.array(values, dtype=dtype)
    narrow = narrowest(array)
    assert narrow.dtype == saved
    assert np.array_equal(narrow, array)


@pytest.mark.parametrize("stored, declared, widens", [
    (np.uint8, np.int32, True), (np.int16, np.int64, True), (np.uint32, np.int64, True),
    (np.int32, np.int32, True), (np.uint32, np.int32, False), (np.int64, np.int32, False),
    (np.uint64, np.int64, False), (np.bool_, np.int32, False), (np.float32, np.int64, False),
    (np.int32, np.float64, False), (np.int8, np.uint8, False),
])
def test_a_load_widens_only_a_safe_integer_cast(tmp_path, stored, declared, widens):
    path = tmp_path / "a.npy"
    np.save(path, np.array([0, 1], dtype=stored))
    if widens:
        got = _read_array(path, declared)
        assert got.dtype == declared and got.tolist() == [0, 1]
    else:
        with pytest.raises(ValueError, match=f"holds a 1-d {np.dtype(stored)} array, "
                                             f"not a 1-d {np.dtype(declared)} one"):
            _read_array(path, declared)


def test_counts_and_ids_past_one_byte_round_trip(tmp_path):
    # One word 300 times in an answer's code, and a vocabulary of more than
    # 255 words: the build saves the counts and term ids as uint16, and a
    # load widens them back to their DOCS_ARRAYS dtypes.
    words = [f"w{i:03d}x" for i in range(300)]
    posts = [synth.question(1, "wide counts", " ".join(words[:150]), 3),
             synth.answer(2, 1, f"see <code>{' '.join(['repeat'] * 300)}</code>", 2),
             synth.question(3, "wide ids", " ".join(words[150:]), 1),
             synth.answer(4, 3, f"{words[0]} <code>run(repeat, {words[299]})</code>", 1)]
    dump, index_dir = tmp_path / "dump.jsonl", tmp_path / "index"
    synth.write_jsonl(dump, posts)
    build_artifacts(dump, index_dir)
    for name in ("code_counts", "code_ids", "body_ids"):
        assert np.load(docs_file(index_dir, name)).dtype == np.uint16, name
    engine = load_engine(index_dir)
    for name in ("code", "body"):
        part = engine.docs.parts[name]
        assert part.ids.dtype == part.counts.dtype == np.int32
    assert engine.docs.parts["code"].counts.max() == 300
    idf, docs = build_store(load_dump(dump))
    built = SearchEngine(docs, EmbeddingStore(dim=engine.store.dim, fallback=True,
                                              seed=engine.store.seed), idf, default_dictionary())
    for query in ("wide counts repeat", "w001x w002x", "run w200x w299x"):
        got = engine.search(query)
        assert got.entries
        assert repr(got.entries) == repr(built.search(query).entries)
    threads = build_threads(load_dump(dump))
    assert list(engine.threads.values()) == threads
    assert repr(list(engine.threads.values())) == repr(threads)


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


@pytest.fixture(scope="module")
def title_vector_file(planted_index, tmp_path_factory):
    """A sentence-vector file for three of the planted threads, one of them a
    zero vector, and for a question id outside the corpus; and those vectors."""
    plain = load_engine(planted_index[0])
    ids, dim = sorted(plain.threads), plain.store.dim
    given = {ids[0]: fallback_embed("anything", dim=dim), ids[1]: np.zeros(dim),
             ids[7]: fallback_embed("other", dim=dim)}
    path = tmp_path_factory.mktemp("vectors") / "titles.vec"
    # A vector of a question id outside the corpus is ignored.
    save_vectors({**given, ids[-1] + 1: np.ones(dim)}, dim, path)
    return path, given


def whole_batch(engine):
    """The title vectors and norms a load made before they were filled lazily:
    one `sentence_vectors` batch over every title, on a fresh store, with the
    given vectors in place."""
    store = EmbeddingStore(dim=engine.store.dim, fallback=True, seed=engine.store.seed)
    ids, counts, _, ptr = engine.docs.entries("thread_title")
    vecs = sentence_vectors(engine.vocab.words, engine.vocab.idf, ptr, ids, counts, store)
    for thread_id, given in engine.store.sentence_vecs.items():
        if thread_id in engine.threads.rows:
            vecs[engine.threads.rows[thread_id]] = given
    return vecs, np.sqrt(np.einsum("ij,ij->i", vecs, vecs))


class TestTitleVectors:
    @pytest.mark.parametrize("with_file", [False, True])
    def test_a_load_embeds_no_word(self, planted_index, title_vector_file, monkeypatch,
                                   with_file):
        def refuse(*args, **kwargs):
            raise AssertionError("a load embedded a word")
        monkeypatch.setattr(embeddings, "fallback_embed", refuse)
        engine = load_engine(planted_index[0],
                             sentence_vectors=title_vector_file[0] if with_file else None)
        monkeypatch.undo()
        assert not engine._title_filled.any()
        assert not engine.title_vecs.any() and not engine.title_norms.any()
        assert engine.store.word_vecs == {}

    @pytest.mark.parametrize("with_file", [False, True])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_batches_fill_the_bits_of_one_whole_batch(self, planted_index, title_vector_file,
                                                          with_file, data):
        engine = load_engine(planted_index[0],
                             sentence_vectors=title_vector_file[0] if with_file else None)
        n = len(engine.threads)
        order = data.draw(st.permutations(range(n)))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            # A batch may hold rows made by earlier batches.
            again = order[:data.draw(st.integers(0, lo))]
            engine._fill_titles(np.array(order[lo:hi] + again, dtype=np.intp))
            assert engine._title_filled[order[:hi]].all()
            assert engine._title_filled.sum() == hi
        vecs, norms = whole_batch(engine)
        assert engine.title_vecs.tobytes() == vecs.tobytes()
        assert engine.title_norms.tobytes() == norms.tobytes()

    def test_built_in_vectors(self, planted_index):
        index_dir, _ = planted_index
        engine = load_engine(index_dir)
        assert engine.store.sentence_vecs == {}
        engine._fill_titles(np.arange(len(engine.threads)))
        assert len(engine.title_vecs) == len(engine.threads)
        for row, thread_id in enumerate(engine.thread_index.doc_ids.tolist()):
            want = sentence_embed(engine.threads[thread_id].question.title_bag, engine.store,
                                  engine.idf_map)
            assert np.array_equal(engine.title_vecs[row], want)

    def test_sentence_feature_is_the_cosine(self, planted_index):
        index_dir, queries = planted_index
        engine = load_engine(index_dir)
        checked = 0
        for text in queries.values():
            query_vec = sentence_embed(preprocess(text, "query"), engine.store, engine.idf_map)
            result = engine.search(text, WeightConfig())
            for thread_id, raw in result.diagnostics["thread_features"].items():
                want = cosine(query_vec, engine.title_vecs[engine.threads.rows[thread_id]])
                assert abs(raw["sentence"] - want) <= 1e-12
                checked += 1
        assert checked > 10

    def test_a_sentence_vector_file_wins_and_zero_vectors_score_zero(self, planted_index,
                                                                     title_vector_file):
        index_dir, queries = planted_index
        path, given = title_vector_file
        plain = load_engine(index_dir)
        engine = load_engine(index_dir, sentence_vectors=path)
        ids = sorted(plain.threads)
        rows = np.arange(len(ids))
        terms = engine.make_query_context(queries[1], WeightConfig()).terms
        sentence = engine._sentence(terms, rows)
        plain._fill_titles(rows)
        for thread_id, vec in given.items():
            assert np.array_equal(engine.title_vecs[ids.index(thread_id)], vec)
        others = [row for row, thread_id in enumerate(ids) if thread_id not in given]
        assert np.array_equal(engine.title_vecs[others], plain.title_vecs[others])
        assert sentence[1] == 0.0
        assert sentence[0] == pytest.approx(cosine(terms.sentence_vec, given[ids[0]]), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sentence_is_the_same_in_every_row_set(self, planted_index, data):
        """A thread's `sentence` does not depend on the other rows scored with it."""
        index_dir, queries = planted_index
        engine = load_engine(index_dir)
        terms = engine.make_query_context(data.draw(st.sampled_from(sorted(queries.values()))),
                                          WeightConfig()).terms
        n = len(engine.threads)
        whole = engine._sentence(terms, np.arange(n))
        for _ in range(3):
            rows = subset(data, n)
            assert engine._sentence(terms, rows).tobytes() == whole[rows].tobytes()
