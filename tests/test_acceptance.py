"""End-to-end acceptance gate: one test per shipping criterion.

Each test prints a single [PASS] line (visible with pytest -rA / -s) once its
criterion holds. Numeric tolerances are stated inline.
"""

import math
import random
import time
from collections import Counter

import pytest

import synth
from crowdrank.antonyms import default_dictionary
from crowdrank.artifacts import build_artifacts, load_engine
from crowdrank.documents import DOCS_ARRAYS
from crowdrank.embeddings import EmbeddingStore, IdfMap, asym, asym_score
from crowdrank.evaluation import GroundTruth, query_metrics, run_baseline
from crowdrank.features import (WeightConfig, question_score_value, tf_score,
                                tfidf_score, top_method_score)
from crowdrank.index import bm25_search, build_index
from crowdrank.pipeline import configure_ablation

ARTIFACT_FILES = ("idf.json", "meta.json", *(f"docs.{name}.npy" for name in DOCS_ARRAYS))


def build_engine(tmp_path_factory, posts, label):
    root = tmp_path_factory.mktemp(label)
    corpus = root / "dump.jsonl"
    synth.write_jsonl(corpus, posts)
    build_artifacts(corpus, root / "index")
    return load_engine(root / "index")


def truth_from(queries, relevant):
    truth = GroundTruth()
    for query_id, text in queries.items():
        truth.add(query_id, text, [relevant[query_id]])
    return truth


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    posts, queries, relevant = synth.planted_corpus(n_threads=200, n_queries=20)
    engine = build_engine(tmp_path_factory, posts, "planted")
    return engine, queries, relevant


def test_criterion_1_bm25_matches_oracle():
    """200 random corpora; every score within 1e-9 of the naive oracle; <10s."""
    rng = random.Random(2024)
    words = [f"w{i}" for i in range(30)]
    start = time.perf_counter()
    for _ in range(200):
        n_docs = rng.randint(2, 25)
        docs = {doc_id: Counter(rng.choices(words, k=rng.randint(1, 15)))
                for doc_id in range(1, n_docs + 1)}
        query = rng.sample(words, rng.randint(1, 6))
        index = build_index(docs)
        hits = bm25_search(index, query, n_docs)
        oracle = synth.bm25_oracle(docs, query, 1.2, 0.9)
        expected = sorted(((d, s) for d, s in oracle.items() if s > 0),
                          key=lambda e: (-e[1], e[0]))
        assert [d for d, _ in hits] == [d for d, _ in expected]
        for (_, got), (_, want) in zip(hits, expected):
            assert abs(got - want) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[PASS] criterion 1: lexical ranker matches oracle on 200 corpora "
          f"(tol 1e-9, {elapsed:.2f}s)")


def test_criterion_2_similarity_matches_oracle():
    """1000 random bag pairs within 1e-9; symmetry exact; subset gives exactly 1."""
    rng = random.Random(77)
    words = [f"w{i}" for i in range(25)]
    store = EmbeddingStore(dim=24, fallback=True, seed=5)
    idf = IdfMap({w: rng.randint(1, 40) for w in words}, 50)
    vectors = {w: [float(x) for x in store.word_vector(w)] for w in words}

    for _ in range(1000):
        q = Counter({w: rng.randint(1, 4) for w in rng.sample(words, rng.randint(0, 8))})
        t = Counter({w: rng.randint(1, 4) for w in rng.sample(words, rng.randint(0, 8))})
        assert abs(tf_score(q, t) - synth.tf_oracle(q, t)) <= 1e-9
        assert abs(tfidf_score(q, t, idf) - synth.tfidf_oracle(q, t, idf.idf)) <= 1e-9
        got = asym(set(q), set(t), store, idf)
        want = synth.asym_oracle(set(q), set(t), vectors, idf.idf)
        assert abs(got - want) <= 1e-9
        assert asym_score(q, t, store, idf) == asym_score(t, q, store, idf)
        if q:
            assert asym(set(q), set(q) | set(t), store, idf) == 1.0
    print("[PASS] criterion 2: similarity features match oracles on 1000 pairs "
          "(tol 1e-9; symmetry and subset identities exact)")


def test_criterion_3_pointwise_feature_fixtures():
    """Question-score ladder, top-method scores and antonym fixtures."""
    ladder = [(1, 0.1), (5, 0.2), (10, 0.3), (25, 0.4), (50, 0.5),
              (75, 0.6), (100, 0.7), (200, 0.8), (500, 0.9), (501, 1.0)]
    for score, expected in ladder:
        assert question_score_value(score) == expected

    assert top_method_score([(1, "one(x)")])[1] == 0.0
    two = top_method_score([(1, "two(x)"), (2, "two(y)")])
    assert two[1] == pytest.approx(0.1, abs=1e-12)
    eight = top_method_score([(i, "oct(z)") for i in range(8)])
    assert eight[0] == pytest.approx(0.3, abs=1e-12)

    lexicon = default_dictionary()
    ctx = lexicon.context({"fill", "array"}, "NN_VB")
    assert ctx.score({"empty", "list"}) == 1
    ctx = lexicon.context({"zip", "unzip", "file"}, "NN_VB")
    assert ctx.self_antonymous
    assert ctx.score({"zip", "unzip"}) == 0
    print("[PASS] criterion 3: ladder (10 rows), top-method {0, 0.1, 0.3} and "
          "antonym fixtures all exact")


def test_criterion_4_metrics():
    """Rank-11 fixture plus 100 random rankings against the brute-force oracle."""
    ranked = list(range(101, 111)) + [42] + list(range(111, 120))
    relevant = frozenset({42})
    at10 = query_metrics(ranked, relevant, 10)
    assert at10.hit == 0.0 and at10.rr == 0.0
    uncut = query_metrics(ranked, relevant, math.inf)
    assert abs(uncut.rr - 1.0 / 11.0) <= 1e-12

    rng = random.Random(4)
    for _ in range(100):
        pool = list(range(1, 60))
        rng.shuffle(pool)
        ids = pool[: rng.randint(0, 30)]
        rel = frozenset(rng.sample(range(1, 60), rng.randint(1, 8)))
        k = rng.choice([1, 5, 10, 25, math.inf])
        m = query_metrics(ids, rel, k)
        hit, rr, ap, recall = synth.metrics_oracle(ids, rel, k)
        assert (m.hit, m.rr) == (hit, rr)
        assert abs(m.ap - ap) <= 1e-12
        assert abs(m.recall - recall) <= 1e-12
    print("[PASS] criterion 4: rank-11 fixture (hit@10=0, rr@10=0, rr@inf=1/11 "
          "tol 1e-12) and 100 random rankings match the oracle")


def test_criterion_5_planted_relevance(planted):
    """Full default pipeline ranks the planted answer first for all 20 queries."""
    engine, queries, relevant = planted
    config = configure_ablation("crar")
    worst = 0.0
    for query_id, text in queries.items():
        start = time.perf_counter()
        result = engine.search(text, config)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert elapsed < 5.0
        assert result.answer_ids()[0] == relevant[query_id]
    print(f"[PASS] criterion 5: planted answer ranked #1 on 20/20 queries over a "
          f"200-thread corpus (slowest query {worst:.3f}s < 5s)")


def test_criterion_6_ablation_directions(tmp_path_factory):
    """Social features and the antonym filter help where relevance demands them."""
    posts, queries, relevant = synth.social_corpus()
    engine = build_engine(tmp_path_factory, posts, "social")
    truth = truth_from(queries, relevant)
    with_sf = run_baseline(engine, "template", truth, k=10)
    without_sf = run_baseline(engine, "template-without-sf", truth, k=10)
    assert with_sf.hit > without_sf.hit
    assert with_sf.mrr > without_sf.mrr
    assert with_sf.map > without_sf.map
    assert with_sf.mr > without_sf.mr

    posts, queries, relevant = synth.antonym_corpus()
    engine = build_engine(tmp_path_factory, posts, "antonym")
    truth = truth_from(queries, relevant)
    plain = run_baseline(engine, "template", truth, k=10)
    filtered = run_baseline(engine, "template-ant-nn-ans", truth, k=10)
    assert filtered.mrr > plain.mrr
    print("[PASS] criterion 6: social features improve all four metrics; the "
          "noun-antonym answer filter strictly improves MRR")


def test_criterion_7_determinism(tmp_path_factory):
    """Two independent builds are byte-identical and search output is stable."""
    posts, queries, _ = synth.planted_corpus(n_threads=40, n_queries=4)
    root = tmp_path_factory.mktemp("determinism")
    corpus = root / "dump.jsonl"
    synth.write_jsonl(corpus, posts)
    build_artifacts(corpus, root / "a")
    build_artifacts(corpus, root / "b")
    for side in ("a", "b"):
        assert sorted(p.name for p in (root / side).iterdir()) == sorted(ARTIFACT_FILES)
    for name in ARTIFACT_FILES:
        assert (root / "a" / name).read_bytes() == (root / "b" / name).read_bytes()

    config = configure_ablation("crar")
    runs = []
    for side in ("a", "b"):
        engine = load_engine(root / side)
        result = engine.search(queries[1], config)
        runs.append([(e.answer_id, e.score) for e in result.entries])
    assert runs[0] == runs[1]
    print("[PASS] criterion 7: artifacts byte-identical across rebuilds; "
          "search results identical across reloads")


def test_criterion_8_funnel_limits(planted):
    """No stage ever exceeds its candidate budget (500/250/100/150)."""
    engine, queries, _ = planted
    config = WeightConfig()
    for text in queries.values():
        counts = engine.search(text, config).diagnostics["stage_counts"]
        assert counts["bm25_threads"] <= 500
        assert counts["stage1_kept"] <= 250
        assert counts["stage2_kept"] <= 100
        assert counts["bm25_answers"] <= 150
    print("[PASS] criterion 8: funnel budgets respected on every query "
          "(<=500 threads, <=250 stage-1, <=100 stage-2, <=150 answers)")
