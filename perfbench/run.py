"""crowdrank benchmark: one command per workload run.

    python3 perfbench/run.py --workload search-5k --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from --seed into .bench_work/, then starts
perfbench/measure.py as the measured process (PYTHONHASHSEED pinned, one
BLAS thread) on the generated files alone. Prints every metric by name with
its unit, then, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. --trace 1 reports the per-layer metrics
instead of the end-to-end ones and keeps the spans in .bench_work/traces/.
Exits 1 when an output check fails or the measured process does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import gen
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0

# PYTHONHASHSEED of the measured process. The program's work per search
# depends on set iteration order (embeddings._sim_to_bag stops at the first
# identical word it meets), so an unpinned seed adds run-to-run noise.
HASH_SEED = "0"

# Generated query rounds for the search workloads; a run that gets through
# all of them starts again from the first.
SEARCH_ROUNDS = 8
SEARCH_ROUND_SIZE = len(gen.ROUND_LENGTHS)
# search-5k's planted invalid posts: a quarter of build-20k's, for a corpus a
# quarter the size.
SEARCH_INVALID = {kind: count // 4 for kind, count in gen.INVALID_COUNTS.items()}
# ablation-grid's tasks, one of them single-answer; a round is the whole grid.
ABLATION_TASKS = 5

WORKLOADS = {
    # name: (generator call, baselines searched each round, round size,
    #        builds, loads). A workload whose build or load is short repeats
    #        it more, so that its median rests on a few seconds of work.
    "search-5k": (lambda out, seed, reserved:
                  gen.gen_search(out, seed, 5000, SEARCH_ROUNDS, reserved,
                                 SEARCH_INVALID, gen.FULL_SHAPE),
                  ["crar"], SEARCH_ROUND_SIZE, 2, 3),
    "ablation-grid": (lambda out, seed, reserved:
                      gen.gen_ablation(out, seed, n_background=1000, n_tasks=ABLATION_TASKS,
                                       n_single=1, reserved=reserved),
                      "all", ABLATION_TASKS, 5, 9),
    # Not in BENCHMARK.json: a run lasts about a minute, and 22 of them do
    # not fit beside the other two workloads' runs in the time a benchmark
    # check may take. Run it by hand for the 20k-thread build.
    "build-20k": (lambda out, seed, reserved:
                  gen.gen_search(out, seed, 20000, SEARCH_ROUNDS, reserved,
                                 gen.INVALID_COUNTS, gen.COMPACT_SHAPE),
                  ["crar"], SEARCH_ROUND_SIZE, 2, 3),
}

METRIC_ORDER = ("setup_s", "build_s", "query_p50_ms", "qps", "mrr_at_10", "mr_at_10",
                "peak_rss_mb", "artifact_mb")


def reserved_words() -> frozenset[str]:
    """Words the generator must not invent: stopwords and antonym entries."""
    from crowdrank.antonyms import default_dictionary
    from crowdrank.corpus import default_stopwords
    return default_stopwords() | frozenset(default_dictionary().entries)


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one crowdrank benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    # On SIGTERM, unwind: subprocess.run kills and reaps the measured process,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "crowdrank" / "__init__.py").is_file():
        print(f"no crowdrank sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    generate, baselines, round_size, builds, loads = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        manifest = generate(work, args.seed, reserved_words())
        manifest.update(workload=args.workload, seed=args.seed, baselines=baselines,
                        round_size=round_size, builds=builds, loads=loads)
        (work / "manifest.json").write_text(json.dumps(manifest), "utf-8")
        print(f"{args.workload} seed {args.seed}: inputs generated in "
              f"{time.monotonic() - started:.2f} s", flush=True)

        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC),
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        cmd = [sys.executable, str(HERE / "measure.py"), "--work", str(work),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out", str(WORK / "traces" / f"{args.workload}-{args.seed}.jsonl")]
        timeout = DEADLINE_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"measured process did not finish within {timeout:.0f} s", file=sys.stderr)
            return 1
        result_path = work / "result.json"
        if proc.returncode != 0 or not result_path.is_file():
            print(f"measured process failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text("utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in result["notes"]:
        print(note)
    for error in result["errors"]:
        print(f"CHECK FAILED: {error}")
    if result["error_count"] > len(result["errors"]):
        print(f"CHECK FAILED: ... {result['error_count'] - len(result['errors'])} more")
    print(f"attempted {result['attempted']} searches, failed {result['failed']}")
    if args.trace:
        metrics = {name: {"value": result["layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
        for name, (value, unit) in result["metrics"].items():
            print(f"traced {name} {value:.6g} {unit}")
    else:
        metrics = {name: {"value": result["metrics"][name][0], "unit": result["metrics"][name][1]}
                   for name in METRIC_ORDER}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
