import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crowdrank
import synth
from crowdrank import embeddings
from crowdrank.antonyms import POS_MODES, default_dictionary
from crowdrank.artifacts import build_artifacts, load_engine
from crowdrank.corpus import RawPost, build_threads, preprocess
from crowdrank.embeddings import (EmbeddingStore, IdfMap, SimilarityTable, asym_score,
                                  fallback_embed, save_vectors)
from crowdrank.features import (ANTONYM_TARGET_MODES, SOCIAL_FEATURES, THREAD_FEATURES,
                                WeightConfig, question_score_value, tf_score)
from crowdrank.documents import build_store
from crowdrank.evaluation import GRID_BLOCK, GroundTruth, run_ablation_grid
from crowdrank.index import bm25_search, bm25_table, build_index
from crowdrank.pipeline import BASELINE_NAMES, SearchEngine, _rank, configure_ablation


def store_answer_bm25(threads, query):
    """(answer id, score) of the top 150 of all the threads' answers by the
    answer BM25 of a search: `bm25_table` over their counts, gathered from
    their document store, of the query words the store's vocabulary holds."""
    idf = synth.build_idf(threads) if threads else IdfMap({}, 1)
    vocab = sorted(idf.df)
    docs = synth.build_documents(threads, idf)
    rows, _ = docs.answer_rows(np.arange(docs.n_threads))
    counts = docs.term_counts("answer_text", rows, np.array(
        [vocab.index(t) for t in sorted(set(query)) if t in idf.df], dtype=np.intp))
    ids = docs.answer_ids[rows]
    positions, scores = bm25_table(counts, docs.answer_len[rows], ids, 150)
    return list(zip(ids[positions].tolist(), scores.tolist()))


def make_engine(posts):
    idf, docs = build_store(RawPost.from_json(o) for o in posts)
    return SearchEngine(docs, EmbeddingStore(fallback=True), idf, default_dictionary())


@pytest.fixture(scope="module")
def planted():
    posts, queries, relevant = synth.planted_corpus(n_threads=40, n_queries=4)
    return make_engine(posts), queries, relevant


@pytest.fixture(scope="module")
def antonym():
    posts, queries, relevant = synth.antonym_corpus()
    return make_engine(posts), queries, relevant


class TestSearch:
    def test_planted_answer_first(self, planted):
        engine, queries, relevant = planted
        config = configure_ablation("crar")
        for query_id, text in queries.items():
            result = engine.search(text, config)
            assert result.answer_ids()[0] == relevant[query_id]
            assert "answer_bm25_fallback" not in result.diagnostics

    def test_stage_count_keys(self, planted):
        engine, queries, _ = planted
        result = engine.search(queries[1], WeightConfig())
        counts = result.diagnostics["stage_counts"]
        assert set(counts) == {"bm25_threads", "after_thread_filter", "stage1_kept",
                               "stage2_kept", "bm25_answers", "after_answer_filter",
                               "returned"}
        assert counts["bm25_threads"] >= counts["after_thread_filter"] >= counts["stage1_kept"]
        assert counts["stage1_kept"] >= counts["stage2_kept"]
        assert counts["bm25_answers"] >= counts["after_answer_filter"] >= counts["returned"]

    def test_funnel_thresholds_respected(self, planted):
        engine, queries, _ = planted
        config = WeightConfig(bm25_top=6, stage1_keep=4, stage2_keep=2, answer_k=3)
        counts = engine.search(queries[1], config).diagnostics["stage_counts"]
        assert counts["bm25_threads"] <= 6
        assert counts["stage1_kept"] <= 4
        assert counts["stage2_kept"] <= 2
        assert counts["bm25_answers"] <= 3

    def test_empty_query(self, planted):
        engine, _, _ = planted
        result = engine.search("the a of", WeightConfig())
        assert result.entries == []
        assert result.diagnostics["empty_query"]

    def test_no_lexical_match(self, planted):
        engine, _, _ = planted
        result = engine.search("zzzunseen qqqphrase", WeightConfig())
        assert result.entries == []

    def test_final_n_zero(self, planted):
        engine, queries, _ = planted
        assert engine.search(queries[1], WeightConfig(), final_n=0).entries == []

    def test_deterministic(self, planted):
        engine, queries, _ = planted
        config = configure_ablation("crar")
        r1 = engine.search(queries[2], config)
        r2 = engine.search(queries[2], config)
        assert r1.answer_ids() == r2.answer_ids()
        assert [e.score for e in r1.entries] == [e.score for e in r2.entries]
        assert r1.diagnostics["stage_counts"] == r2.diagnostics["stage_counts"]

    def test_entries_carry_original_text(self, planted):
        engine, queries, relevant = planted
        entry = engine.search(queries[1], configure_ablation("crar")).entries[0]
        assert entry.answer_id == relevant[1]
        assert "solution" in entry.answer_body
        assert entry.thread_title
        assert set(entry.features.normalized) == {"asym", "tfidf", "top_method",
                                                  "thread_score"}


class TestWordCache:
    def test_novel_query_words_leave_the_cache(self, planted):
        engine, queries, _ = planted
        engine.search(queries[1], WeightConfig())
        size = len(engine.store.word_vecs)
        for i in range(20):
            engine.search(f"{queries[1]} novelword{i}", WeightConfig())
        assert len(engine.store.word_vecs) == size
        assert set(engine.store.word_vecs) <= set(engine.idf_map.df)

    def test_novel_query_word_is_embedded_once_per_search(self, planted, monkeypatch):
        engine, queries, _ = planted
        calls = []
        original = embeddings.fallback_embed
        monkeypatch.setattr(embeddings, "fallback_embed",
                            lambda word, *args: calls.append(word) or original(word, *args))
        for _ in range(2):
            engine.search(f"{queries[1]} novelword", WeightConfig())
        novel = [w for w in calls if w not in engine.idf_map.df]
        assert len(novel) == 2 and len(set(novel)) == 1

    def test_a_fresh_engines_first_full_funnel_search_equals_a_warm_engines(self, tmp_path):
        # A fresh engine embeds its targets' words and titles as its first
        # search reaches them. An engine warmed by other searches has embedded
        # every word and some of the titles in other orders. Neither moves a
        # bit of the ranking or of a word vector.
        posts, query = synth.funnel_corpus()
        synth.write_jsonl(tmp_path / "dump.jsonl", posts)
        build_artifacts(tmp_path / "dump.jsonl", tmp_path / "index")
        config = configure_ablation("crar")
        engine = load_engine(tmp_path / "index")
        result = engine.search(query, config)
        assert result.diagnostics["stage_counts"] == {
            "bm25_threads": 500, "after_thread_filter": 500, "stage1_kept": 250,
            "stage2_kept": 100, "bm25_answers": 150, "after_answer_filter": 150,
            "returned": 10}

        warm = load_engine(tmp_path / "index")
        for other in (synth.WORDS[150], f"{synth.WORDS[0]} {synth.WORDS[1]}"):
            warm.search(other, config)
        assert warm.store.word_vecs.keys() >= engine.store.word_vecs.keys()
        assert 0 < warm._title_filled.sum() < len(warm.threads)
        assert repr(warm.search(query, config)) == repr(result)
        assert engine.store.word_vecs.keys() <= warm.store.word_vecs.keys()
        assert all(vec.tobytes() == warm.store.word_vecs[word].tobytes()
                   for word, vec in engine.store.word_vecs.items())

    def test_loaded_vectors_outside_the_corpus_stay(self, planted):
        engine, queries, _ = planted
        vec = np.ones(engine.store.dim)
        engine.store.word_vecs["outsider"] = vec
        try:
            engine.search(f"{queries[1]} outsider", WeightConfig())
            assert engine.store.word_vecs["outsider"] is vec
        finally:
            del engine.store.word_vecs["outsider"]


@pytest.fixture(scope="module")
def sparse_vectors(tmp_path_factory):
    """The planted corpus behind a word-vector file that lacks every third
    corpus word and gives one query word a zero vector."""
    root = tmp_path_factory.mktemp("sparse")
    posts, queries, _ = synth.planted_corpus(n_threads=40, n_queries=4)
    synth.write_jsonl(root / "dump.jsonl", posts)
    build_artifacts(root / "dump.jsonl", root / "index")
    words = sorted(load_engine(root / "index").idf_map.df)
    vectors = {w: fallback_embed(w) for i, w in enumerate(words) if i % 3}
    vectors["q1beta"] = np.zeros(embeddings.DEFAULT_DIM)
    save_vectors(vectors, embeddings.DEFAULT_DIM, root / "words.vec")
    engine = load_engine(root / "index", word_vectors=root / "words.vec")
    assert not engine.store.fallback and set(words) - set(engine.store.word_vecs)
    return engine, queries


class TestVocabularyKernel:
    """The engine's batched asym features equal per-pair `asym_score`."""

    @staticmethod
    def check_against_pairs(engine, queries, config):
        clamp = config.clamp_negative_cosine
        checked = 0
        for text in queries.values():
            result = engine.search(text, config)
            bag = preprocess(text, "query")
            for thread_id, raw in result.diagnostics["thread_features"].items():
                question = engine.threads[thread_id].question
                body = set(question.body_bag).union(
                    *(a.body_bag for a in engine.threads[thread_id].answers))
                for name, target in (("asym_title", question.title_bag), ("asym_body", body)):
                    want = asym_score(bag, target, engine.store, engine.idf_map, clamp)
                    assert raw[name] == pytest.approx(want, abs=1e-12)
                    checked += 1
            for entry in result.entries:
                thread = engine.threads[entry.thread_id]
                answer = next(a for a in thread.answers if a.id == entry.answer_id)
                target = answer.body_bag.keys() | thread.question.title_bag.keys()
                want = asym_score(bag, target, engine.store, engine.idf_map, clamp)
                assert entry.features.raw["asym"] == pytest.approx(want, abs=1e-12)
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("clamp", [True, False])
    def test_planted_corpus(self, planted, clamp):
        engine, queries, _ = planted
        self.check_against_pairs(engine, queries, WeightConfig(clamp_negative_cosine=clamp))

    def test_missing_and_zero_word_vectors(self, sparse_vectors):
        engine, queries = sparse_vectors
        self.check_against_pairs(engine, queries, WeightConfig())

    def test_thread_word_outside_the_idf_map_is_named(self):
        posts, _, _ = synth.planted_corpus(n_threads=10, n_queries=2)
        threads = build_threads([RawPost.from_json(o) for o in posts])
        # The reference store maps every thread word to its id, so the error
        # comes before any search.
        with pytest.raises(ValueError, match="not in the idf vocabulary"):
            idf = IdfMap({"q0alpha": 1}, len(threads))
            SearchEngine(synth.build_documents(threads, idf), EmbeddingStore(fallback=True), idf,
                         default_dictionary())

    def test_results_do_not_depend_on_the_hash_seed(self):
        script = ("import synth\n"
                  "from crowdrank.antonyms import default_dictionary\n"
                  "from crowdrank.corpus import RawPost\n"
                  "from crowdrank.documents import build_store\n"
                  "from crowdrank.embeddings import EmbeddingStore\n"
                  "from crowdrank.features import WeightConfig\n"
                  "from crowdrank.pipeline import SearchEngine\n"
                  "posts, queries, _ = synth.planted_corpus(n_threads=40, n_queries=4)\n"
                  "idf, docs = build_store(RawPost.from_json(o) for o in posts)\n"
                  "engine = SearchEngine(docs, EmbeddingStore(fallback=True), idf,\n"
                  "                      default_dictionary())\n"
                  "for clamp in (True, False):\n"
                  "    for text in queries.values():\n"
                  "        r = engine.search(text, WeightConfig(clamp_negative_cosine=clamp))\n"
                  "        print(repr([(e.answer_id, e.score, e.features.raw)\n"
                  "                    for e in r.entries]))\n"
                  "        print(repr(r.diagnostics))\n")
        path = os.pathsep.join([str(Path(crowdrank.__file__).parent.parent),
                                str(Path(synth.__file__).parent)])
        outputs = {subprocess.run([sys.executable, "-c", script], check=True, text=True,
                                  capture_output=True,
                                  env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path),
                                  ).stdout for seed in (0, 1)}
        assert len(outputs) == 1


class TestOneTablePerSearch:
    """A search's asym scores read one similarity table, whose bits do not
    depend on which stage's segments reached a column first."""

    @pytest.mark.parametrize("engine_fixture, clamp", [
        ("planted", True), ("planted", False), ("sparse_vectors", True),
        ("sparse_vectors", False)])
    def test_cover_order_keeps_the_bits(self, request, engine_fixture, clamp):
        engine, queries = request.getfixturevalue(engine_fixture)[:2]
        config = WeightConfig(clamp_negative_cosine=clamp)
        rows = np.arange(engine.docs.n_threads)
        stages = [engine.docs.segments("thread_title", rows),
                  engine.docs.segments("thread_bodies", rows),
                  engine.docs.segments("answer_asym", engine.docs.answer_rows(rows)[0])]
        for text in queries.values():
            def hexes(table_of_stage):
                return [[x.hex() for x in table_of_stage().scores(*stage).tolist()]
                        for stage in stages]

            # Title, body, then answers, as a search covers them.
            in_turn = engine.make_query_context(text, config).terms.similarities
            want = hexes(lambda: in_turn)
            union = engine.make_query_context(text, config).terms.similarities
            union.cover(np.concatenate([flat for flat, _ in stages]))
            assert hexes(lambda: union) == want
            # A fresh table for each stage.
            assert hexes(lambda: engine.make_query_context(text, config).terms.similarities) \
                == want
            # The table holds the stage-1 columns only: the answer targets'
            # words are among them.
            held = np.unique(np.concatenate([flat for flat, _ in stages[:2]]))
            assert np.flatnonzero(in_turn.column[:-1] >= 0).tolist() == held.tolist()
            assert in_turn.sims.shape[1] == len(held)

    def test_the_engine_keeps_no_table(self, planted, monkeypatch):
        engine, queries, _ = planted
        made = []
        init = SimilarityTable.__init__

        def recorded(table, *args):
            init(table, *args)
            made.append(weakref.ref(table))

        monkeypatch.setattr(SimilarityTable, "__init__", recorded)
        before = dict(vars(engine))
        for text in queries.values():
            assert engine.search(text, WeightConfig()).entries
        gc.collect()
        assert len(made) == len(queries) and all(ref() is None for ref in made)
        assert vars(engine).keys() == before.keys()
        assert all(vars(engine)[name] is value for name, value in before.items())


def multi_answer_threads():
    return build_threads([RawPost.from_json(o) for o in [
        synth.question(30, "unzip archive", "how to unzip an archive", 5),
        synth.question(40, "unzip archive files", "unzip archive please", 1),
        synth.question(50, "parse date string", "format a date", 5),
        *(synth.answer(aid, aid // 10 * 10, f"unzip with <code>m{aid}(archive)</code>"
                       if aid % 2 else f"try <code>m{aid}(x)</code>", 2)
          for aid in (31, 32, 33, 41, 42, 51, 52)),
    ]])


class TestLexicalFeatures:
    """tf from the thread postings and the answer BM25 from the answers'
    query-term counts give the bits of the per-thread and per-answer bags
    they replace."""

    @pytest.mark.parametrize("engine_fixture", ["planted", "sparse_vectors"])
    def test_tf_of_every_stage1_candidate_matches_tf_score(self, request, engine_fixture):
        engine, queries = request.getfixturevalue(engine_fixture)[:2]
        # No cut: every stage-1 candidate reaches the thread features.
        config = WeightConfig(stage1_keep=500, stage2_keep=500)
        checked = 0
        for text in queries.values():
            result = engine.search(text, config)
            bag = preprocess(text, "query")
            features = result.diagnostics["thread_features"]
            assert len(features) == result.diagnostics["stage_counts"]["bm25_threads"]
            for thread_id, raw in features.items():
                want = tf_score(bag, synth.thread_document_bag(engine.threads[thread_id]))
                assert repr(raw["tf"]) == repr(want)
                checked += 1
        assert checked > 20

    @pytest.mark.parametrize("case", ["planted", "multi_answer", "single_answer",
                                      "term_in_no_answer", "no_threads"])
    def test_answer_bm25_matches_the_full_bag_index(self, planted, case):
        engine, queries, _ = planted
        queries = list(queries.values())
        threads = list(engine.threads.values())
        if case == "multi_answer":
            threads, queries = multi_answer_threads(), ["unzip archive", "archive date"]
        elif case == "single_answer":
            threads, queries = threads[:1], [" ".join(threads[0].question.title_bag)]
        elif case == "term_in_no_answer":
            queries = [f"{q} zzznowhere" for q in queries]
        elif case == "no_threads":
            threads = []
        for text in queries:
            query = preprocess(text, "query")
            hits = store_answer_bm25(threads, query)
            full = build_index({a.id: synth.answer_document_bag(t, a)
                                for t in threads for a in t.answers})
            assert repr(hits) == repr(bm25_search(full, query, 150))
            if case in ("single_answer", "no_threads"):
                assert hits == []  # N = df (or N = 0): nothing is scored
            else:
                assert hits


class TestAnswerBm25Fallback:
    def test_single_surviving_answer_is_returned(self):
        # One surviving answer: answer BM25 has N = df = 1, so idf = 0 for
        # every query term and BM25 scores nothing.
        engine = make_engine([
            synth.question(10, "unzip archive", "how to unzip an archive", 5),
            synth.answer(11, 10, "read each entry <code>archive.extract(dir)</code>", 3),
            synth.question(20, "parse date string", "format a date", 5),
            synth.answer(21, 20, "use a formatter <code>fmt.parse(s)</code>", 3),
        ])
        result = engine.search("unzip archive", configure_ablation("crar"))
        assert result.answer_ids() == [11]
        assert result.diagnostics["answer_bm25_fallback"] is True
        counts = result.diagnostics["stage_counts"]
        assert (counts["stage2_kept"], counts["bm25_answers"], counts["returned"]) == (1, 1, 1)

    def test_fallback_keeps_thread_then_answer_order_up_to_answer_k(self):
        # The query words are only in the two matching questions, so every
        # surviving answer's document holds them.
        engine = make_engine([
            synth.question(30, "unzip archive", "how to unzip an archive", 5),
            synth.question(40, "unzip archive files", "unzip archive please", 1),
            synth.question(50, "parse date string", "format a date", 5),
            *(synth.answer(aid, aid // 10 * 10, f"try <code>m{aid}(x)</code>", 2)
              for aid in (31, 32, 41, 42, 51)),
        ])
        result = engine.search("unzip archive", WeightConfig(answer_k=3))
        stage2_order = list(result.diagnostics["thread_features"])
        assert sorted(stage2_order) == [30, 40]
        expected = [a.id for t in stage2_order for a in engine.threads[t].answers][:3]
        assert result.diagnostics["answer_bm25_fallback"] is True
        assert result.diagnostics["stage_counts"]["bm25_answers"] == 3
        assert sorted(result.answer_ids()) == sorted(expected)


class TestAntonymFilter:
    def test_filter_removes_contradicting_answer(self, antonym):
        engine, queries, relevant = antonym
        plain = engine.search(queries[1], configure_ablation("template"))
        filtered = engine.search(queries[1], configure_ablation("template-ant-nn-ans"))
        bad_ids = set(plain.answer_ids()) - set(filtered.answer_ids())
        assert bad_ids  # the unzip-bearing distractor is gone
        assert filtered.answer_ids()[0] == relevant[1]
        assert set(filtered.answer_ids()) <= set(plain.answer_ids())

    def test_filter_counts_shrink(self, antonym):
        engine, queries, _ = antonym
        result = engine.search(queries[1], configure_ablation("template-ant-nn-ans"))
        counts = result.diagnostics["stage_counts"]
        assert counts["after_answer_filter"] < counts["bm25_answers"]

    def test_thread_target_filters_threads(self, antonym):
        engine, queries, _ = antonym
        config = configure_ablation("template-ant-nn-tr")
        counts = engine.search(queries[1], config).diagnostics["stage_counts"]
        # the distractor keeps its antonym in answer code only, so the
        # thread-level bag (question title+body) never matches
        assert counts["after_thread_filter"] == counts["bm25_threads"]


@pytest.fixture(scope="module")
def antonym_filter():
    return make_engine(synth.antonym_filter_corpus()[0])


@pytest.fixture(scope="module")
def funnel():
    posts, query = synth.funnel_corpus()
    return make_engine(posts), query


def bag_filter(engine):
    """`SearchEngine._antonym_free` as the bag-walking reference."""
    def antonym_free(qc, rows, view):
        return synth.antonym_free_reference(qc.antonym_ctx, engine.threads.values(), rows,
                                            answers=view == "answer_antonym")
    return antonym_free


def ranking(result):
    return [(e.answer_id, e.thread_id, e.score, e.features) for e in result.entries], \
        result.diagnostics


class TestAntonymFilterAgainstBags:
    """The filters test antonym ids against the store; the reference walks
    the threads' word bags."""

    @pytest.mark.parametrize("pos", POS_MODES)
    @pytest.mark.parametrize("query", synth.ANTONYM_FILTER_QUERIES)
    def test_every_thread_and_answer(self, antonym_filter, pos, query):
        engine = antonym_filter
        qc = engine.make_query_context(query, WeightConfig(antonym_pos_mode=pos))
        for view, n in (("thread_antonym", engine.docs.n_threads),
                        ("answer_antonym", len(engine.docs.answer_ids))):
            rows = np.arange(n)
            assert engine._antonym_free(qc, rows, view).tolist() == \
                bag_filter(engine)(qc, rows, view).tolist()

    @pytest.mark.parametrize("pos", POS_MODES)
    @pytest.mark.parametrize("target", ANTONYM_TARGET_MODES)
    def test_search_keeps_the_same_threads_and_answers(self, antonym_filter, monkeypatch,
                                                       pos, target):
        engine = antonym_filter
        config = WeightConfig(antonym_enabled=True, antonym_pos_mode=pos,
                              antonym_targets=target)
        got = [ranking(engine.search(q, config)) for q in synth.ANTONYM_FILTER_QUERIES]
        monkeypatch.setattr(engine, "_antonym_free", bag_filter(engine))
        want = [ranking(engine.search(q, config)) for q in synth.ANTONYM_FILTER_QUERIES]
        assert got == want

    def test_the_corpus_exercises_each_filter(self, antonym_filter):
        engine = antonym_filter

        def drops(query, pos, target):
            config = WeightConfig(antonym_enabled=True, antonym_pos_mode=pos,
                                  antonym_targets=target)
            counts = engine.search(query, config).diagnostics["stage_counts"]
            return (counts["bm25_threads"] - counts["after_thread_filter"],
                    counts["bm25_answers"] - counts["after_answer_filter"])

        zip_query, verb_query, two_words, self_antonymous, no_lexicon = \
            synth.ANTONYM_FILTER_QUERIES
        assert drops(zip_query, "NN", "TR")[0] > 0
        assert drops(zip_query, "NN", "ANS")[1] > 0
        assert min(drops(two_words, "NN", "TR_ANS")) > 0
        assert drops(verb_query, "NN", "TR_ANS") == (0, 0)
        assert min(drops(verb_query, "VB", "TR_ANS")) > 0
        # The skip paths: antonyms that do not count, and none at all.
        qc = engine.make_query_context(self_antonymous, WeightConfig())
        assert qc.antonym_ctx.antonyms and not len(qc.antonym_ids)
        qc = engine.make_query_context(no_lexicon, WeightConfig())
        assert not qc.antonym_ctx.antonyms and not len(qc.antonym_ids)
        for query in (self_antonymous, no_lexicon):
            assert drops(query, "NN_VB", "TR_ANS") == (0, 0)


def truth_of(texts):
    truth = GroundTruth()
    for query_id, text in enumerate(texts, 1):
        truth.add(query_id, text, [1])
    return truth


class Recorder:
    """Wraps an engine's `search`, as the benchmark's client does: keeps each
    call's (query, config, result) and the number of query terms shared at
    its end, and runs `before(n)` ahead of call n."""

    def __init__(self, engine, monkeypatch, before=lambda n: None):
        self.calls, self.shared = [], []
        search = engine.search

        def recorded(query, config=None, final_n=None):
            before(len(self.calls))
            result = search(query, config, final_n)
            self.calls.append((query, config, result))
            self.shared.append(None if engine._shared is None else len(engine._shared))
            return result

        monkeypatch.setattr(engine, "search", recorded)


def tables_made(monkeypatch):
    """Weak references to every `SimilarityTable` made from now on."""
    made = []
    init = SimilarityTable.__init__

    def recorded(table, *args):
        init(table, *args)
        made.append(weakref.ref(table))

    monkeypatch.setattr(SimilarityTable, "__init__", recorded)
    return made


# The engines the grid tests search. On funnel_corpus the funnel's cuts bite,
# so the presets' survivors differ.
GRID_ENGINES = ["planted", "antonym_filter", "funnel"]


def grid_case(request, engine_fixture):
    """A `GRID_ENGINES` engine and the distinct query texts searched on it."""
    if engine_fixture == "planted":
        engine, queries, _ = request.getfixturevalue("planted")
        return engine, list(queries.values())
    if engine_fixture == "antonym_filter":
        return request.getfixturevalue("antonym_filter"), list(dict.fromkeys(
            synth.ANTONYM_FILTER_QUERIES + tuple(synth.antonym_corpus()[1].values())))
    engine, query = request.getfixturevalue("funnel")
    return engine, [query, " ".join(query.split()[1:])]


def answer_asym_rows(engine, monkeypatch, recorder):
    """The rows of every `segments("answer_asym", rows)` call from now on, as
    (position in `recorder.calls` of the search that made it, rows)."""
    made = []
    segments = engine.docs.segments

    def recorded(view, rows):
        if view == "answer_asym":
            made.append((len(recorder.calls), rows.tolist()))
        return segments(view, rows)

    monkeypatch.setattr(engine.docs, "segments", recorded)
    return made


class TestSharedQueries:
    """The ablation grid shares each query's terms, thread stage and answer
    asym across presets, within one block of truth entries."""

    @pytest.mark.parametrize("engine_fixture", GRID_ENGINES)
    def test_every_preset_equals_its_own_searches(self, request, monkeypatch, engine_fixture):
        engine, texts = grid_case(request, engine_fixture)
        recorder = Recorder(engine, monkeypatch)
        run_ablation_grid(engine, BASELINE_NAMES, truth_of(texts))
        monkeypatch.undo()
        assert [(q, c) for q, c, _ in recorder.calls] == [
            (text, configure_ablation(name)) for name in BASELINE_NAMES for text in texts]
        assert max(recorder.shared) == len(texts)
        dropped = 0
        for query, config, result in recorder.calls:
            alone = engine.search(query, config)
            assert repr((result.entries, result.diagnostics)) == \
                repr((alone.entries, alone.diagnostics)), (query, config)
            if config.filter_threads and "empty_query" not in result.diagnostics:
                counts = result.diagnostics["stage_counts"]
                dropped += counts["bm25_threads"] > counts["after_thread_filter"]
                # Each search reports a thread's own sentence value, the one
                # `_sentence` gives it in any row set, here the rows the thread
                # filter kept: sharing the column across presets must keep it.
                qc = engine.make_query_context(query, config)
                rows = engine._thread_stage(qc.terms, config.bm25_top).rows
                rows = rows[engine._antonym_free(qc, rows, "thread_antonym")]
                want = dict(zip(engine.thread_index.doc_ids[rows].tolist(),
                                engine._sentence(qc.terms, rows).tolist()))
                assert {thread_id: features["sentence"] for thread_id, features
                        in result.diagnostics["thread_features"].items()}.items() \
                    <= want.items(), (query, config)
        # The thread-antonym presets mask rows out of the shared thread stage.
        assert (dropped > 0) == (engine_fixture == "antonym_filter")

    @pytest.mark.parametrize("engine_fixture", GRID_ENGINES)
    def test_a_lone_search_scores_the_asym_of_its_own_answers(self, request, monkeypatch,
                                                              engine_fixture):
        engine, texts = grid_case(request, engine_fixture)
        recorder = Recorder(engine, monkeypatch)
        scored = answer_asym_rows(engine, monkeypatch, recorder)
        for name in BASELINE_NAMES:
            for text in texts:
                engine.search(text, configure_ablation(name))
        for n, (_, _, result) in enumerate(recorder.calls):
            calls = [rows for at, rows in scored if at == n]
            # At most one call, which an answer stage with no rows skips.
            assert len(calls) <= 1
            assert sum(map(len, calls)) == \
                result.diagnostics["stage_counts"]["after_answer_filter"]

    @pytest.mark.parametrize("engine_fixture", GRID_ENGINES)
    def test_a_grid_scores_each_answer_asym_once_per_query(self, request, monkeypatch,
                                                           engine_fixture):
        engine, texts = grid_case(request, engine_fixture)
        recorder = Recorder(engine, monkeypatch)
        scored = answer_asym_rows(engine, monkeypatch, recorder)
        run_ablation_grid(engine, BASELINE_NAMES, truth_of(texts))
        by_query = {text: [] for text in texts}
        for n, rows in scored:
            by_query[recorder.calls[n][0]] += rows
        assert all(len(rows) == len(set(rows)) for rows in by_query.values())
        wanted = sum(result.diagnostics["stage_counts"]["after_answer_filter"]
                     for _, _, result in recorder.calls)
        assert 0 < sum(map(len, by_query.values())) < wanted
        if engine_fixture == "funnel":
            # The presets' survivors differ, so later presets reach rows the
            # earlier ones did not score.
            assert len(scored) > len(texts)

    @pytest.mark.parametrize("engine_fixture", GRID_ENGINES)
    def test_the_cache_holds_the_answers_of_the_bm25_threads(self, request, engine_fixture):
        engine, texts = grid_case(request, engine_fixture)
        row_of = {answer_id: row for row, answer_id in enumerate(engine.docs.answer_ids.tolist())}
        with engine.shared_queries():
            for text in texts:
                for name in ("crar", "template", "answer-asym"):
                    config = configure_ablation(name)
                    result = engine.search(text, config)
                    terms = engine._shared[(text, config.clamp_negative_cosine)]
                    stage = terms.thread_stages[config.bm25_top]
                    answers = engine.docs.answer_rows(stage.rows)[0]
                    assert stage.answers.tolist() == sorted(answers.tolist())
                    assert len(stage.answer_asym) == len(answers) == \
                        np.diff(engine.docs.answer_ptr)[stage.rows].sum()
                    for entry in result.entries:
                        at = np.searchsorted(stage.answers, row_of[entry.answer_id])
                        assert stage.answer_asym[at] == entry.features.raw["asym"]

    def test_nothing_is_shared_after_the_grid(self, planted, monkeypatch):
        engine, queries, _ = planted
        made = tables_made(monkeypatch)
        run_ablation_grid(engine, ["crar", "template"], truth_of(queries.values()))
        gc.collect()
        assert engine._shared is None
        assert len(made) == len(queries) and all(ref() is None for ref in made)

    def test_nothing_is_shared_after_a_search_raises(self, planted, monkeypatch):
        engine, queries, _ = planted
        made = tables_made(monkeypatch)

        def fail(n):
            if n == len(queries) + 1:
                raise RuntimeError("search failed")

        Recorder(engine, monkeypatch, fail)
        with pytest.raises(RuntimeError, match="search failed"):
            run_ablation_grid(engine, ["crar", "template"], truth_of(queries.values()))
        gc.collect()
        assert engine._shared is None
        assert len(made) == len(queries) and all(ref() is None for ref in made)

    def test_a_block_bounds_what_is_shared(self, planted, monkeypatch):
        engine, _, _ = planted
        texts = [f"q{j % 4}alpha {synth.WORDS[j]}" for j in range(GRID_BLOCK + 6)]
        recorder = Recorder(engine, monkeypatch)
        run_ablation_grid(engine, ["crar", "template"], truth_of(texts))
        # Every baseline over one block, then the next block.
        blocks = [texts[:GRID_BLOCK], texts[GRID_BLOCK:]]
        assert [q for q, _, _ in recorder.calls] == [
            text for block in blocks for _ in range(2) for text in block]
        assert max(recorder.shared) == GRID_BLOCK
        assert recorder.shared[-len(blocks[1]):] == [len(blocks[1])] * len(blocks[1])

    def test_one_baseline_shares_nothing(self, planted, monkeypatch):
        engine, queries, _ = planted
        recorder = Recorder(engine, monkeypatch)
        run_ablation_grid(engine, ["crar"], truth_of(queries.values()))
        assert recorder.shared == [None] * len(queries)

    def test_one_query_text_under_two_ids(self, antonym_filter, monkeypatch):
        engine = antonym_filter
        text = synth.ANTONYM_FILTER_QUERIES[0]
        truth = GroundTruth()
        truth.add(1, text, [1])
        truth.add(2, text, [600001])
        recorder = Recorder(engine, monkeypatch)
        rows = run_ablation_grid(engine, BASELINE_NAMES, truth)
        assert set(recorder.shared) == {1}
        results = [repr((r.entries, r.diagnostics)) for _, _, r in recorder.calls]
        assert results[0::2] == results[1::2]
        for _, report in rows:
            assert report.per_query[1].rr == 0.0
            assert report.per_query[2].rr > 0.0

    def test_an_unknown_name_fails_before_any_search(self, planted, monkeypatch):
        engine, queries, _ = planted
        recorder = Recorder(engine, monkeypatch)
        with pytest.raises(ValueError, match="no-such-baseline"):
            run_ablation_grid(engine, ["crar", "template", "no-such-baseline"],
                              truth_of(queries.values()))
        assert recorder.calls == []


def similarity_table(engine, text, clamp):
    """A fresh similarity table of the query's terms; the store keeps none of
    its novel words' vectors, as after a search."""
    terms = engine.make_query_context(text, WeightConfig(clamp_negative_cosine=clamp)).terms
    for word in terms.novel_words:
        engine.store.word_vecs.pop(word, None)
    return terms.similarities


class TestAnswerAsymPerRow:
    """What the shared answer asym relies on: an answer row's asym has the
    same bits whichever rows are scored with it, in whatever order."""

    @pytest.mark.parametrize("clamp", [True, False])
    @pytest.mark.parametrize("engine_fixture", ["planted", "antonym_filter"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_each_row_scores_the_bits_it_scores_alone(self, request, engine_fixture, clamp,
                                                      data):
        engine, texts = grid_case(request, engine_fixture)
        text = data.draw(st.sampled_from(texts))
        rows = np.array(data.draw(st.lists(st.integers(0, len(engine.docs.answer_ids) - 1),
                                           min_size=1, unique=True)), dtype=np.intp)
        table = similarity_table(engine, text, clamp)
        together = table.scores(*engine.docs.segments("answer_asym", rows))
        # Alone: with the same table, or with a fresh one for each row.
        fresh = data.draw(st.booleans())
        alone = [(similarity_table(engine, text, clamp) if fresh else table).scores(
            *engine.docs.segments("answer_asym", rows[i:i + 1]))[0] for i in range(len(rows))]
        assert [x.hex() for x in together.tolist()] == [x.hex() for x in alone]


# Every preset as built before the presets became one table: the features
# whose weight is 0, and (antonym_enabled, antonym_pos_mode, antonym_targets).
PRESETS = {
    "answer-asym": (("tfidf", "top_method", "thread_score"), (False, "NN", "ANS")),
    "answer-tfidf": (("asym", "top_method", "thread_score"), (False, "NN", "ANS")),
    "answer-thread-score": (("asym", "tfidf", "top_method"), (False, "NN", "ANS")),
    "answer-top-method": (("asym", "tfidf", "thread_score"), (False, "NN", "ANS")),
    "crar": ((), (True, "NN", "ANS")),
    "crar-without-asym": (("asym",), (True, "NN", "ANS")),
    "crar-without-asym-body": (("asym_body",), (True, "NN", "ANS")),
    "crar-without-asym-title": (("asym_title",), (True, "NN", "ANS")),
    "crar-without-sent2vec": (("sentence",), (True, "NN", "ANS")),
    "crar-without-tf": (("tf",), (True, "NN", "ANS")),
    "crar-without-tfidf": (("tfidf",), (True, "NN", "ANS")),
    "crar-without-thread-score": (("thread_score",), (True, "NN", "ANS")),
    "crar-without-top-method": (("top_method",), (True, "NN", "ANS")),
    "template": ((), (False, "NN", "ANS")),
    "template-ant-nn-ans": ((), (True, "NN", "ANS")),
    "template-ant-nn-tr": ((), (True, "NN", "TR")),
    "template-ant-nn-tr-ans": ((), (True, "NN", "TR_ANS")),
    "template-ant-nn-vb-ans": ((), (True, "NN_VB", "ANS")),
    "template-ant-nn-vb-tr": ((), (True, "NN_VB", "TR")),
    "template-ant-nn-vb-tr-ans": ((), (True, "NN_VB", "TR_ANS")),
    "template-ant-vb-ans": ((), (True, "VB", "ANS")),
    "template-ant-vb-tr": ((), (True, "VB", "TR")),
    "template-ant-vb-tr-ans": ((), (True, "VB", "TR_ANS")),
    "template-sf-ac": (("total_answer_score", "question_score"), (False, "NN", "ANS")),
    "template-sf-ac-qs": (("total_answer_score",), (False, "NN", "ANS")),
    "template-sf-ac-tas": (("question_score",), (False, "NN", "ANS")),
    "template-sf-qs": (("answer_count", "total_answer_score"), (False, "NN", "ANS")),
    "template-sf-qs-ac": (("total_answer_score",), (False, "NN", "ANS")),
    "template-sf-qs-tas": (("answer_count",), (False, "NN", "ANS")),
    "template-sf-tas": (("answer_count", "question_score"), (False, "NN", "ANS")),
    "template-sf-tas-ac": (("question_score",), (False, "NN", "ANS")),
    "template-sf-tas-qs": (("answer_count",), (False, "NN", "ANS")),
    "template-without-sf": (("answer_count", "total_answer_score", "question_score"),
                            (False, "NN", "ANS")),
    "thread-asym-body": (("sentence", "asym_title", "tf", "answer_count",
                          "total_answer_score", "question_score"), (False, "NN", "ANS")),
    "thread-asym-title": (("sentence", "asym_body", "tf", "answer_count",
                           "total_answer_score", "question_score"), (False, "NN", "ANS")),
    "thread-sent2vec": (("asym_title", "asym_body", "tf", "answer_count",
                         "total_answer_score", "question_score"), (False, "NN", "ANS")),
    "thread-tf": (("sentence", "asym_title", "asym_body", "answer_count",
                   "total_answer_score", "question_score"), (False, "NN", "ANS")),
}


class TestConfigureAblation:
    def test_canonical_names(self):
        for name in ("CRAR Without TF", "crar-without-tf", "crar_without_tf"):
            config = configure_ablation(name)
            assert config.thread_weights["tf"] == 0.0
            assert config.antonym_enabled

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="valid names"):
            configure_ablation("nonsense")

    def test_template(self):
        config = configure_ablation("Template")
        assert not config.antonym_enabled
        assert all(config.thread_weights[f] == 0.5 for f in THREAD_FEATURES)

    def test_template_without_sf(self):
        config = configure_ablation("Template-Without-SF")
        assert all(config.thread_weights[f] == 0.0 for f in SOCIAL_FEATURES)
        assert config.thread_weights["tf"] == 0.5

    def test_template_sf_single(self):
        config = configure_ablation("Template-SF-QS")
        assert config.thread_weights["question_score"] == 0.5
        assert config.thread_weights["total_answer_score"] == 0.0
        assert config.thread_weights["answer_count"] == 0.0

    def test_template_sf_pair(self):
        config = configure_ablation("Template-SF-TAS-AC")
        assert config.thread_weights["total_answer_score"] == 0.5
        assert config.thread_weights["answer_count"] == 0.5
        assert config.thread_weights["question_score"] == 0.0

    def test_antonym_variants(self):
        config = configure_ablation("Template-Ant-VB-TR-ANS")
        assert config.antonym_enabled
        assert config.antonym_pos_mode == "VB"
        assert config.antonym_targets == "TR_ANS"

    def test_crar(self):
        config = configure_ablation("CRAR")
        assert config.antonym_enabled
        assert config.antonym_pos_mode == "NN"
        assert config.antonym_targets == "ANS"
        assert config.answer_weights == {"asym": 1.0, "tfidf": 0.5,
                                         "top_method": 0.75, "thread_score": 0.75}

    def test_isolated_features(self):
        config = configure_ablation("Thread-TF")
        assert config.thread_weights["tf"] == 0.5
        assert sum(1 for w in config.thread_weights.values() if w) == 1
        config = configure_ablation("Answer-Top-Method")
        assert config.answer_weights["top_method"] > 0
        assert sum(1 for w in config.answer_weights.values() if w) == 1

    def test_every_preset_matches_the_parent(self, tmp_path):
        assert BASELINE_NAMES == tuple(sorted(PRESETS))
        default = WeightConfig()
        path = tmp_path / "preset.cfg"
        for name, (zero, antonyms) in PRESETS.items():
            config = configure_ablation(name)
            expected = WeightConfig(antonym_enabled=antonyms[0], antonym_pos_mode=antonyms[1],
                                    antonym_targets=antonyms[2])
            for weights in (expected.thread_weights, expected.answer_weights):
                for feature in weights:
                    if feature in zero:
                        weights[feature] = 0.0
            assert config == expected, name
            # Key order too: the fused score sums the weights in this order.
            assert list(config.thread_weights) == list(default.thread_weights), name
            assert list(config.answer_weights) == list(default.answer_weights), name
            config.save(path)
            assert WeightConfig.load(path) == config, name

    def test_all_names_buildable(self):
        for name in BASELINE_NAMES:
            config = configure_ablation(name)
            config.validate()


def reference_rank(ids, rows, weights, keep):
    """Per-candidate fusion in plain Python: (id, score) of the first `keep`."""
    normed = {}
    for name in weights:
        column = [row[name] for row in rows]
        if name == "question_score":
            normed[name] = [question_score_value(int(v)) for v in column]
        else:
            lo, hi = min(column, default=0.0), max(column, default=0.0)
            normed[name] = [1.0 if hi == lo else (v - lo) / (hi - lo) for v in column]
    scores = []
    for i in range(len(rows)):
        # Added left to right: from Python 3.12 on, `sum` of floats compensates.
        score = 0.0
        for name, w in weights.items():
            score += normed[name][i] * w
        scores.append(score)
    return sorted(zip(ids, scores), key=lambda e: (-e[1], e[0]))[:keep]


# Few distinct values, so that ties and all-equal columns are common.
FEATURE_VALUE_ST = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                             st.floats(-100, 100))
QUESTION_SCORE_ST = st.one_of(st.sampled_from([0.0, 5.0, 50.0]),
                              st.integers(-10, 800).map(float))


@st.composite
def feature_tables(draw):
    ids = draw(st.lists(st.integers(0, 40), max_size=12, unique=True))
    rows = []
    for _ in ids:
        rows.append({name: draw(QUESTION_SCORE_ST if name == "question_score"
                                else FEATURE_VALUE_ST) for name in THREAD_FEATURES})
    if rows and draw(st.booleans()):
        name = draw(st.sampled_from(THREAD_FEATURES))
        for row in rows:
            row[name] = rows[0][name]
    names = draw(st.permutations(THREAD_FEATURES))
    weights = {name: draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0, 10)))
               for name in names}
    return ids, rows, weights, draw(st.integers(0, 14))


@given(feature_tables())
def test_rank_matches_per_candidate_reference(case):
    ids, rows, weights, keep = case
    table = {name: np.array([row[name] for row in rows], dtype=float)
             for name in THREAD_FEATURES}
    ids_array = np.array(ids, dtype=np.int64)
    positions, _, fused = _rank(ids_array, table, weights, keep)
    got = list(zip(ids_array[positions].tolist(), map(repr, fused[positions].tolist())))
    expected = [(i, repr(score)) for i, score in reference_rank(ids, rows, weights, keep)]
    assert got == expected
