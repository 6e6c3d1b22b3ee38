"""The measured process: build, load and search one generated workload.

Started by run.py with PYTHONHASHSEED pinned and the generated files in
--work. It builds the index directory and loads it, drives searches through
`run_ablation_grid` in whole rounds, one closed-loop client, until --seconds
have passed, then repeats the build and the load as often as the manifest
asks. Only then does it run the output checks, so neither the checks nor the
generator count in its peak RSS. The result goes to <work>/result.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import crowdrank
from crowdrank import corpus, embeddings
from crowdrank.evaluation import GroundTruth
from crowdrank.pipeline import BASELINE_NAMES, configure_ablation

import checks
from hostspeed import REFERENCE_LOOP_S, HostSpeed
from tracing import Tracer

ROUNDTRIP_SAMPLE = 300
clock = time.perf_counter


class ClosedLoopClient:
    """Times every SearchEngine.search call the evaluation loop makes.

    With a HostSpeed it samples the host between searches whenever a sample
    is due. `failed[i]` and `counts[i]` (the stage counts) outlive call i's
    result, which the run drops once the result is checked.
    """

    def __init__(self, engine, speed: HostSpeed | None = None):
        self.calls: list[tuple] = []  # (latency s, query, config, result)
        self.failed: list[bool] = []
        self.counts: list[dict] = []
        speed = speed or HostSpeed(enabled=False)
        search = engine.search

        def timed(query, config=None, final_n=None):
            if speed.due():
                speed.sample()
            start = clock()
            result = search(query, config, final_n)
            self.calls.append((clock() - start, query, config, result))
            self.failed.append(is_failed(result))
            self.counts.append(result.diagnostics.get("stage_counts", {}))
            return result

        engine.search = timed


def is_failed(result) -> bool:
    """A search whose surviving threads hold answers with code, yet that
    returns none: the answer stage lost every candidate."""
    counts = result.diagnostics.get("stage_counts", {})
    return counts.get("stage2_kept", 0) > 0 and not result.entries


def make_rounds(truth: list[dict], round_size: int) -> list[GroundTruth]:
    rounds = []
    for i in range(0, len(truth), round_size):
        gt = GroundTruth()
        for task in truth[i:i + round_size]:
            gt.add(task["query_id"], task["query_text"], task["relevant_answer_ids"])
        rounds.append(gt)
    return rounds


def dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2 ** 20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()

    work = args.work
    manifest = json.loads((work / "manifest.json").read_text("utf-8"))
    truth = [json.loads(line) for line in (work / "truth.jsonl").read_text("utf-8").splitlines()]
    baselines = BASELINE_NAMES if manifest["baselines"] == "all" else tuple(manifest["baselines"])
    rounds = make_rounds(truth, manifest["round_size"])

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    # One build and one load before the query phase, the other builds and
    # loads after it: the machine's speed drifts over seconds, so repeats
    # spread over the run sample it more widely than back-to-back ones.
    # build_s and setup_s are the medians; every later build must write the
    # same bytes as the first. The engine is dropped before each build, so a
    # build and an engine never share the heap.
    # The metrics scale every timing by the host's speed over the run
    # (hostspeed.py); the notes give them as taken too.
    speed = HostSpeed(enabled=not tracer)
    builds, setups, reports = [], [], []
    index_dir = work / "index0"

    def build(i: int) -> None:
        gc.collect()
        speed.sample()
        start = clock()
        reports.append(crowdrank.build_artifacts(work / "dump.jsonl", work / f"index{i}"))
        builds.append(clock() - start)

    def load():
        gc.collect()
        speed.sample()
        start = clock()
        engine = crowdrank.load_engine(index_dir)
        setups.append(clock() - start)
        return engine

    if tracer:
        tracer.phase = "setup"
    build(0)
    engine = load()

    client = ClosedLoopClient(engine, speed)
    grid = []  # (round index, report rows, index of the round's first call)
    if tracer:
        tracer.phase = "between"
    # The query phase's time is the rounds' time, without the host samples
    # taken in them and the checks between them.
    wall = 0.0
    errors: list[str] = []
    while True:
        r = len(grid)
        first = len(client.calls)
        speed.sample()
        sampling, start = speed.sampling_s, clock()
        rows = crowdrank.run_ablation_grid(engine, baselines, rounds[r % len(rounds)])
        wall += clock() - start - (speed.sampling_s - sampling)
        grid.append((r % len(rounds), rows, first))
        if r > 0:
            # The first round is checked against the oracles after the run;
            # later rounds are checked now and their results dropped, so the
            # results held, and so the peak RSS, do not grow with the rounds.
            errors += check_round(r, list(rounds[r % len(rounds)].entries.items()), baselines,
                                  rows, client.calls[first:], engine.threads)
            client.calls[first:] = [c[:3] + (None,) for c in client.calls[first:]]
        if wall >= args.seconds:
            break
    calls, failed, counts = client.calls, sum(client.failed), client.counts
    latencies = sorted(c[0] for c in calls)
    words_cached = len(engine.store.word_vecs)

    engine = client = None
    if tracer:
        tracer.phase = "setup"
    for i in range(1, manifest["builds"]):
        engine = None
        build(i)
        engine = load()
    while len(setups) < manifest["loads"]:
        engine = None
        engine = load()
    report = reports[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    n = len(latencies)
    crar = [dict(rows)["crar"] for _, rows, _ in grid]
    scale = speed.scale()
    metrics = {
        "setup_s": (scale * statistics.median(setups), "s"),
        "build_s": (scale * statistics.median(builds), "s"),
        "query_p50_ms": (scale * 1e3 * statistics.median(latencies), "ms"),
        "qps": (n / (scale * wall), "1/s"),
        "mrr_at_10": (statistics.fmean(r.mrr for r in crar), "1"),
        "mr_at_10": (statistics.fmean(r.mr for r in crar), "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "artifact_mb": (dir_mb(index_dir), "MB"),
    }
    notes = [f"{n} searches in {len(grid)} round(s), {wall:.2f} s; builds "
             f"{', '.join(f'{s:.3f}' for s in builds)} s; loads "
             f"{', '.join(f'{s:.3f}' for s in setups)} s (as taken)"]
    if speed.enabled:
        notes.append(f"as taken: setup_s {statistics.median(setups):.4f}, "
                     f"build_s {statistics.median(builds):.4f}, query_p50_ms "
                     f"{1e3 * statistics.median(latencies):.4f}, qps {n / wall:.4f}; "
                     f"calibration loop median {1e3 * REFERENCE_LOOP_S / scale:.3f} ms over "
                     f"{len(speed.loops)} loops (reference {1e3 * REFERENCE_LOOP_S:g} ms)")
    if n >= 100 and not tracer:  # at least ten samples beyond the 90th percentile
        notes.append(f"query_p90_ms {scale * 1e3 * statistics.quantiles(latencies, n=10)[-1]:.4f} "
                     f"({n} searches)")

    layer = {}
    if tracer:
        layer = tracer.metrics(n, words_cached)
        for name, value in per_search_counts(counts).items():
            layer[name] = value
        tracer.uninstall()
        for name in tracer.missing_metrics():
            notes.append(f"missing hook: {name} reads 0")
        for hook in tracer.missing:
            notes.append(f"missing hook target: {hook}")
        if args.trace_out:
            tracer.write(args.trace_out)

    errors = run_checks(engine, report, manifest, rounds, baselines, grid,
                        calls, index_dir, work) + errors
    result = {"correct": not errors, "attempted": n, "failed": failed,
              "metrics": metrics, "layer": layer, "errors": errors[:50],
              "error_count": len(errors), "notes": notes}
    (work / "result.json").write_text(json.dumps(result), "utf-8")
    return 0


def per_search_counts(counts: list[dict]) -> dict[str, float]:
    """Funnel counts from diagnostics["stage_counts"], mean per search."""
    names = ("bm25_threads", "stage2_kept", "bm25_answers", "returned")
    n = max(len(counts), 1)
    return {f"pipeline.{k}": sum(c.get(k, 0) for c in counts) / n for k in names}


def run_checks(engine, report, manifest, rounds, baselines, grid, calls,
               index_dir: Path, work: Path) -> list[str]:
    """The checks made once a run: planted counts, store round trip,
    identical rebuilds, and the first round's searches against the oracles.
    Returns the failure messages."""
    errors = checks.check_counts(report, manifest)
    idf = json.loads((index_dir / "idf.json").read_text("utf-8"))
    n_docs = engine.thread_index.stats.n_docs
    if not (report.thread_count == idf["doc_count"] == n_docs == len(engine.threads)):
        errors.append(f"thread counts disagree: build {report.thread_count}, idf "
                      f"{idf['doc_count']}, index {n_docs}, engine {len(engine.threads)}")
    errors += check_roundtrip(engine, work / "dump.jsonl")
    for rebuilt in sorted(work.glob("index*"))[1:]:
        errors += checks.check_same_files(index_dir, rebuilt)

    r, rows, first = grid[0]
    end = grid[1][2] if len(grid) > 1 else len(calls)
    errors += check_round(0, list(rounds[r].entries.items()), baselines, rows,
                          calls[first:end], engine.threads, oracle_checks(engine, idf))
    return errors


def check_round(round_no: int, tasks: list, baselines, rows, round_calls: list,
                threads: dict, deep=None) -> list[str]:
    """The checks of one round: the grid's calls, each search's funnel and
    ranking, and the report rows against the benchmark's own MRR@10/MR@10.
    `deep(label, query, config, result)` adds per-search oracle checks."""
    expected_calls = [(b, t) for b in baselines for t in tasks]
    if len(round_calls) != len(expected_calls):
        return [f"round {round_no}: {len(round_calls)} searches, expected {len(expected_calls)}"]
    errors = []
    rankings: dict[str, list] = {}
    for (baseline, (qid, (text, relevant))), call in zip(expected_calls, round_calls):
        _, query, config, result = call
        label = f"round {round_no} {baseline} query {qid}"
        if query != text or config != configure_ablation(baseline):
            errors.append(f"{label}: the grid searched {query!r} with another config")
            continue
        rankings.setdefault(baseline, []).append((result.answer_ids(), relevant))
        errors += checks.check_funnel(result.diagnostics.get("stage_counts", {}),
                                      config.final_n, label)
        errors += checks.check_ranking(result, threads,
                                       sum(config.answer_weights.values()), label)
        if deep:
            errors += deep(label, query, config, result)
    for name, row in rows:
        ranked = rankings.get(name, [])
        if ranked:
            errors += checks.check_report(f"round {round_no} {name}",
                                          [ids for ids, _ in ranked], [rel for _, rel in ranked],
                                          row.mrr, row.mr)
    return errors


def oracle_checks(engine, idf: dict):
    """Thread BM25 against the plain-loop oracle (once per distinct query)
    and the raw features against the scalar oracles, as a `deep` check."""
    oracle = checks.FeatureOracle(idf["df"], idf["doc_count"], embeddings.fallback_embed)
    docs = {tid: checks.thread_doc_bag(t) for tid, t in engine.threads.items()}
    bm25_hits: dict = {}

    def deep(label, query, config, result) -> list[str]:
        errors = []
        bag = corpus.preprocess(query, "query")
        key = (query, config.bm25_top)
        if key not in bm25_hits:
            hits = crowdrank.bm25_search(engine.thread_index, bag, config.bm25_top)
            bm25_hits[key] = hits
            errors += checks.check_bm25(hits, checks.bm25_oracle(docs, bag, config.bm25_top),
                                        label)
        if bag:
            if result.diagnostics["stage_counts"]["bm25_threads"] != len(bm25_hits[key]):
                errors.append(f"{label}: funnel count differs from BM25 hits")
            errors += checks.check_features(result, engine.threads, bag, oracle,
                                            config.clamp_negative_cosine, label)
        return errors

    return deep


def check_roundtrip(engine, dump: Path) -> list[str]:
    """A seeded sample of loaded threads equals the same threads built
    straight from the dump."""
    ids = sorted(engine.threads)
    sample = set(random.Random(len(ids)).sample(ids, min(ROUNDTRIP_SAMPLE, len(ids))))
    posts = []
    with open(dump, encoding="utf-8") as fh:
        for line in fh:
            try:
                post = corpus.RawPost.from_json(json.loads(line))
            except (ValueError, KeyError, TypeError):
                continue
            if post.id in sample or post.parent_id in sample:
                posts.append(post)
    rebuilt = {t.question.id: t for t in corpus.build_threads(posts)}
    errors = []
    for tid in sorted(sample):
        if rebuilt.get(tid) != engine.threads[tid]:
            errors.append(f"thread {tid} reloaded from the store differs from the built one")
    return errors[:10]


if __name__ == "__main__":
    sys.exit(main())
