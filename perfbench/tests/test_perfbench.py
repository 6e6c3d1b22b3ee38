"""The benchmark's own tests: deterministic generator, oracles that agree
with the library on a tiny corpus, and checks that catch corrupted output.

Run with: python -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import measure
import hostspeed
from hostspeed import REFERENCE_LOOP_S, HostSpeed
from crowdrank import (BASELINE_NAMES, build_artifacts, bm25_search, configure_ablation,
                       load_engine, run_ablation_grid)
from crowdrank.corpus import preprocess
from crowdrank.embeddings import asym_score, fallback_embed
from crowdrank.features import tf_score, tfidf_score

SMALL_INVALID = {"javascript": 3, "python_only": 2, "nonpositive_q": 3, "all_answers_bad": 2,
                 "no_answers": 2, "nonpositive_a": 4, "no_code_a": 4, "orphan": 3,
                 "malformed": 5}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _generate(kind: str, out: Path, seed: int, reserved) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    if kind == "search":
        return gen.gen_search(out, seed, 300, 2, reserved, SMALL_INVALID, gen.FULL_SHAPE)
    return gen.gen_ablation(out, seed, 60, 3, 1, reserved)


# ---------------------------------------------------------------------------
# generator

@pytest.mark.parametrize("kind", ["search", "ablation"])
def test_generator_is_deterministic_per_seed(tmp_path, reserved, kind):
    a = _generate(kind, tmp_path / "a", 5, reserved)
    b = _generate(kind, tmp_path / "b", 5, reserved)
    c = _generate(kind, tmp_path / "c", 6, reserved)
    assert a == b
    for name in ("dump.jsonl", "truth.jsonl"):
        assert _digest(tmp_path / "a" / name) == _digest(tmp_path / "b" / name)
    assert _digest(tmp_path / "a" / "dump.jsonl") != _digest(tmp_path / "c" / "dump.jsonl")


def test_generator_ignores_hash_seed(tmp_path):
    script = ("import sys, run, gen; from pathlib import Path; "
              "out = Path(sys.argv[1]); out.mkdir(); "
              "gen.gen_ablation(out, 3, 40, 3, 1, run.reserved_words())")
    bench = Path(checks.__file__).parent
    digests = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(bench), str(bench.parent / "src")]))
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True)
        digests.append(_digest(out / "dump.jsonl"))
    assert digests[0] == digests[1]


def test_search_dump_plants_what_the_manifest_counts(tmp_path, reserved):
    manifest = _generate("search", tmp_path, 9, reserved)
    report = build_artifacts(tmp_path / "dump.jsonl", tmp_path / "index")
    assert checks.check_counts(report, manifest) == []
    assert manifest["load"]["warnings"] == SMALL_INVALID["malformed"]


def test_search_queries_have_the_planned_shape(tmp_path, reserved):
    _generate("search", tmp_path, 4, reserved)
    truth = [json.loads(line) for line in (tmp_path / "truth.jsonl").read_text().splitlines()]
    lengths = [len(t["query_text"].split()) for t in truth]
    assert sorted(lengths[:len(gen.ROUND_LENGTHS)]) == sorted(gen.ROUND_LENGTHS)
    novel = [w for t in truth for w in t["query_text"].split() if w.startswith("z")]
    assert len(novel) == sum(gen.search_query_words(n)[2] for n in lengths)
    assert all(w not in (tmp_path / "dump.jsonl").read_text() for w in novel)


def test_host_speed_scales_by_the_median_loop():
    speed = HostSpeed()
    # A host at half the reference speed, with one burst.
    speed.loops = [2 * REFERENCE_LOOP_S] * 4 + [9 * REFERENCE_LOOP_S]
    assert speed.scale() == pytest.approx(0.5)
    speed.sample()
    assert len(speed.loops) == 5 + hostspeed.LOOPS_PER_SAMPLE and speed.sampling_s > 0
    off = HostSpeed(enabled=False)
    off.sample()
    assert off.loops == [] and off.scale() == 1.0 and not off.due()


# ---------------------------------------------------------------------------
# oracles against the library

@pytest.fixture(scope="module")
def tiny(tmp_path_factory, reserved):
    out = tmp_path_factory.mktemp("tiny")
    manifest = gen.gen_ablation(out, 2, 80, 4, 1, reserved)
    for i in range(2):
        report = build_artifacts(out / "dump.jsonl", out / f"index{i}")
    engine = load_engine(out / "index0")
    truth = [json.loads(line) for line in (out / "truth.jsonl").read_text().splitlines()]
    idf = json.loads((out / "index0" / "idf.json").read_text())
    oracle = checks.FeatureOracle(idf["df"], idf["doc_count"], fallback_embed)
    return dict(out=out, manifest=manifest, report=report, engine=engine, truth=truth,
                oracle=oracle)


def test_bm25_oracle_matches_library(tiny):
    engine = tiny["engine"]
    docs = {tid: checks.thread_doc_bag(t) for tid, t in engine.threads.items()}
    for task in tiny["truth"]:
        bag = preprocess(task["query_text"], "query")
        hits = bm25_search(engine.thread_index, bag, 500)
        assert hits
        assert checks.check_bm25(hits, checks.bm25_oracle(docs, bag, 500), "q") == []


def test_feature_oracles_match_library(tiny):
    engine, oracle = tiny["engine"], tiny["oracle"]
    rng = random.Random(1)
    threads = list(engine.threads.values())
    for _ in range(40):
        thread = rng.choice(threads)
        answer = rng.choice(thread.answers)
        query = preprocess(" ".join(rng.sample(sorted(thread.question.title_bag), 2)
                                    + ["zqnovel"]), "query")
        body = checks.thread_body_bag(thread)
        for clamp in (True, False):
            assert asym_score(query, body, engine.store, engine.idf_map, clamp) == \
                pytest.approx(oracle.asym_score(query, body, clamp), abs=checks.TOL)
        assert tf_score(query, checks.thread_doc_bag(thread)) == \
            pytest.approx(oracle.tf_score(query, checks.thread_doc_bag(thread)), abs=checks.TOL)
        bag = checks.answer_tfidf_bag(thread, answer)
        assert tfidf_score(query, bag, engine.idf_map) == \
            pytest.approx(oracle.tfidf_score(query, bag), abs=checks.TOL)


def test_checks_pass_on_library_output(tiny):
    engine, oracle = tiny["engine"], tiny["oracle"]
    config = configure_ablation("crar")
    for task in tiny["truth"]:
        result = engine.search(task["query_text"], config)
        bag = preprocess(task["query_text"], "query")
        assert checks.check_funnel(result.diagnostics["stage_counts"], 10, "q") == []
        assert checks.check_ranking(result, engine.threads, 3.0, "q") == []
        assert checks.check_features(result, engine.threads, bag, oracle, True, "q") == []
        assert measure.is_failed(result) == task["single_answer"]


def test_grid_rows_match_own_metrics(tiny):
    engine = tiny["engine"]
    rounds = measure.make_rounds(tiny["truth"], len(tiny["truth"]))
    client = measure.ClosedLoopClient(engine)
    try:
        rows = run_ablation_grid(engine, BASELINE_NAMES[:3], rounds[0])
        grid = [(0, rows, 0)]
        errors = measure.run_checks(engine, tiny["report"], tiny["manifest"],
                                    rounds, BASELINE_NAMES[:3], grid, client.calls,
                                    tiny["out"] / "index0", tiny["out"])
    finally:
        del engine.search
    assert errors == []


# ---------------------------------------------------------------------------
# each check catches a corrupted result

@pytest.fixture()
def searched(tiny):
    task = next(t for t in tiny["truth"] if not t["single_answer"])
    result = tiny["engine"].search(task["query_text"], configure_ablation("crar"))
    assert len(result.entries) >= 2
    return copy.deepcopy(result), preprocess(task["query_text"], "query")


def test_check_ranking_catches_reversed_order(tiny, searched):
    result, _ = searched
    result.entries.reverse()
    assert checks.check_ranking(result, tiny["engine"].threads, 3.0, "q")


def test_check_ranking_catches_tie_break(tiny, searched):
    result, _ = searched
    a, b = result.entries[0], result.entries[1]
    a.score = b.score
    if a.answer_id < b.answer_id:
        result.entries[0], result.entries[1] = b, a
    assert checks.check_ranking(result, tiny["engine"].threads, 3.0, "q")


def test_check_ranking_catches_foreign_thread_and_range(tiny, searched):
    result, _ = searched
    del result.diagnostics["thread_features"][result.entries[0].thread_id]
    assert checks.check_ranking(result, tiny["engine"].threads, 3.0, "q")
    result, _ = searched
    result.entries[0].score = 3.5
    assert checks.check_ranking(result, tiny["engine"].threads, 3.0, "q")


def test_check_ranking_catches_answer_without_code(tiny, searched):
    result, _ = searched
    result.entries[-1].answer_body = "<p>no code here</p>"
    assert checks.check_ranking(result, tiny["engine"].threads, 3.0, "q")


def test_check_features_catches_wrong_raw_value(tiny, searched):
    result, bag = searched
    tid = next(iter(result.diagnostics["thread_features"]))
    result.diagnostics["thread_features"][tid]["asym_body"] += 1e-6
    assert checks.check_features(result, tiny["engine"].threads, bag, tiny["oracle"], True, "q")
    result, bag = searched
    result.entries[0].features.raw["tfidf"] *= 0.5
    assert checks.check_features(result, tiny["engine"].threads, bag, tiny["oracle"], True, "q")


def test_check_funnel_catches_growth_and_budget():
    counts = {"bm25_threads": 20, "after_thread_filter": 20, "stage1_kept": 20,
              "stage2_kept": 20, "bm25_answers": 30, "after_answer_filter": 30, "returned": 10}
    assert checks.check_funnel(counts, 10, "q") == []
    assert checks.check_funnel(dict(counts, stage2_kept=21), 10, "q")
    assert checks.check_funnel(dict(counts, bm25_threads=501, after_thread_filter=20), 10, "q")
    assert checks.check_funnel(dict(counts, returned=11, after_answer_filter=30), 10, "q")
    assert checks.check_funnel(dict(counts, after_answer_filter=31), 10, "q")


def test_check_bm25_catches_score_and_order():
    oracle = [(10, 3.0), (20, 2.0), (30, 2.0), (40, 1.0)]
    assert checks.check_bm25(list(oracle), oracle, "q") == []
    assert checks.check_bm25([(10, 3.0), (30, 2.0), (20, 2.0), (40, 1.0)], oracle, "q") == []
    assert checks.check_bm25(oracle[::-1], oracle, "q")
    assert checks.check_bm25([(10, 3.0 + 1e-6)] + oracle[1:], oracle, "q")
    assert checks.check_bm25(oracle[:3], oracle, "q")


def test_check_report_catches_wrong_metrics():
    rankings = [[1, 2, 3], [5, 4]]
    relevant = [frozenset({2}), frozenset({9})]
    assert checks.check_report("r", rankings, relevant, 0.25, 0.5) == []
    assert checks.check_report("r", rankings, relevant, 0.5, 0.5)
    assert checks.check_report("r", [r[::-1] for r in rankings], relevant, 0.25, 0.5) == []
    assert checks.check_report("r", [[3, 1, 2], [5, 4]], relevant, 0.25, 0.5)


def test_check_same_files_catches_a_changed_byte(tmp_path):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "idf.json").write_text("{}\n")
    assert checks.check_same_files(tmp_path / "a", tmp_path / "b") == []
    (tmp_path / "b" / "idf.json").write_text("{ }\n")
    assert checks.check_same_files(tmp_path / "a", tmp_path / "b")


def test_check_counts_and_roundtrip_catch_corruption(tiny):
    manifest = copy.deepcopy(tiny["manifest"])
    manifest["load"]["answers"] += 1
    assert checks.check_counts(tiny["report"], manifest)
    engine = tiny["engine"]
    tid = sorted(engine.threads)[0]
    saved = engine.threads[tid]
    engine.threads[tid] = copy.deepcopy(saved)
    engine.threads[tid].question.score += 1
    measure.ROUNDTRIP_SAMPLE, old = len(engine.threads), measure.ROUNDTRIP_SAMPLE
    try:
        assert measure.check_roundtrip(engine, tiny["out"] / "dump.jsonl")
    finally:
        engine.threads[tid] = saved
        measure.ROUNDTRIP_SAMPLE = old
    assert measure.check_roundtrip(engine, tiny["out"] / "dump.jsonl") == []


# ---------------------------------------------------------------------------
# traced mode

def _traced_grid(tiny, tracer):
    rounds = measure.make_rounds(tiny["truth"], len(tiny["truth"]))
    tracer.install()
    try:
        run_ablation_grid(tiny["engine"], ("crar", "template"), rounds[0])
    finally:
        tracer.uninstall()
    return 2 * len(tiny["truth"])


def test_tracer_splits_asym_time_by_funnel_stage(tiny):
    import tracing
    tracer = tracing.Tracer()
    n = _traced_grid(tiny, tracer)
    layer = tracer.metrics(n, 0)
    assert tracer.missing == []
    assert {name for name, _ in tracing.PER_LAYER} - set(layer) == {
        "pipeline.bm25_threads", "pipeline.stage2_kept", "pipeline.bm25_answers",
        "pipeline.returned"}
    assert layer["embeddings.asym_score_calls"] > 0
    assert min(layer["embeddings.asym_stage1_ms"], layer["embeddings.asym_stage2_ms"],
               layer["embeddings.asym_answers_ms"]) > 0
    assert layer["embeddings.asym_score_ms"] == pytest.approx(
        layer["embeddings.asym_stage1_ms"] + layer["embeddings.asym_stage2_ms"]
        + layer["embeddings.asym_answers_ms"])
    # stage 2 repeats stage 1's pairs, and the second baseline every pair
    assert 0.5 < layer["embeddings.asym_repeat_share"] < 1.0
    assert asym_score.__module__ == "crowdrank.embeddings"
    import crowdrank.pipeline
    assert not hasattr(crowdrank.pipeline.asym_score, "__wrapped__")


def test_tracer_reports_a_missing_hook_and_goes_on(tiny, monkeypatch):
    import crowdrank.embeddings
    import tracing
    monkeypatch.delattr(crowdrank.embeddings, "asym_score")
    tracer = tracing.Tracer()
    n = _traced_grid(tiny, tracer)
    assert any(m.startswith("embeddings.asym_score ") for m in tracer.missing)
    assert "embeddings.asym_score_ms" in tracer.missing_metrics()
    assert tracer.metrics(n, 0)["embeddings.asym_score_calls"] == 0
