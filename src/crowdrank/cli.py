"""Command-line surface: merge-antonyms, build-index, search, evaluate, export-text.

Exit codes: 0 success, 1 data/fatal error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .antonyms import MergeStats, merge_lists, save_dictionary
from .artifacts import build_artifacts, export_text, load_engine
from .corpus import TagFilter, load_stopwords
from .embeddings import DEFAULT_SEED
from .evaluation import (GroundTruth, run_ablation_grid, write_per_query_csv,
                         write_report_csv)
from .features import WeightConfig
from .pipeline import BASELINE_NAMES, configure_ablation

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2


def _add_common_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--word-vectors", help="word vector file (header: 'vocab dim')")
    parser.add_argument("--sentence-vectors",
                        help="title vector file keyed by question id")
    parser.add_argument("--antonyms", help="antonym dictionary file (default: bundled)")
    parser.add_argument("--stopwords", help="stopword list file (default: bundled)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for the fallback hash embedder (default: %(default)s)")


def _engine_from_args(args) -> "object":
    stopwords = load_stopwords(args.stopwords) if args.stopwords else None
    return load_engine(
        args.index_dir,
        word_vectors=args.word_vectors,
        sentence_vectors=args.sentence_vectors,
        antonym_path=args.antonyms,
        stopwords=stopwords,
        seed=args.seed,
    )


def _config_from_args(args) -> WeightConfig:
    if getattr(args, "config", None):
        return WeightConfig.load(args.config)
    return configure_ablation(args.baseline)


def cmd_merge_antonyms(args) -> int:
    for path in args.inputs:
        if not Path(path).exists():
            print(f"error: no such file: {path}", file=sys.stderr)
            return EXIT_USAGE
    stats = MergeStats()
    try:
        dictionary = merge_lists(args.inputs, stats)
        save_dictionary(dictionary, args.output)
    except (OSError, ValueError) as exc:  # each names its file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    if not dictionary.entries:
        print("warning: merged dictionary is empty", file=sys.stderr)
    print(f"wrote {len(dictionary)} entries to {args.output}"
          f" ({stats.warnings} lines skipped)")
    return EXIT_OK


def cmd_build_index(args) -> int:
    tag_filter = TagFilter(require=tuple(args.require_tag), forbid=tuple(args.forbid_tag))
    try:
        stopwords = load_stopwords(args.stopwords) if args.stopwords else None
    except (OSError, ValueError) as exc:  # each names the file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    try:
        report = build_artifacts(args.corpus, args.out, tag_filter=tag_filter,
                                 stopwords=stopwords)
    except OSError as exc:
        print(f"error: cannot read corpus: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    if report.thread_count == 0:
        print("warning: corpus produced an empty index", file=sys.stderr)
    print(f"threads indexed: {report.thread_count}")
    print(f"vocabulary size: {report.vocab_size}")
    for stage, stats in (("load", report.load_stats), ("build", report.build_stats)):
        for name, value in asdict(stats).items():
            print(f"{stage} {name.replace('_', ' ')}: {value}")
    return EXIT_OK


def _below_one(flag: str, value: int | None) -> bool:
    """Print the usage error for a count flag below 1, and say whether it was."""
    if value is None or value >= 1:
        return False
    print(f"error: {flag} must be at least 1, got {value}", file=sys.stderr)
    return True


def cmd_search(args) -> int:
    if _below_one("-n", args.top):
        return EXIT_USAGE
    try:
        config = _config_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        engine = _engine_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR

    result = engine.search(args.query, config, args.top)
    if result.diagnostics.get("empty_query"):
        print("warning: query is empty after preprocessing", file=sys.stderr)
    if args.json:
        for rank, entry in enumerate(result.entries, start=1):
            obj = {"rank": rank, "answer_id": entry.answer_id,
                   "thread_id": entry.thread_id, "score": entry.score,
                   "title": entry.thread_title, "seed": args.seed}
            if args.explain:
                obj["features"] = {"raw": entry.features.raw,
                                   "normalized": entry.features.normalized}
            print(json.dumps(obj, sort_keys=True))
    else:
        for rank, entry in enumerate(result.entries, start=1):
            print(f"#{rank}  answer={entry.answer_id}  thread={entry.thread_id}  "
                  f"score={entry.score:.4f}")
            print(f"    {entry.thread_title}")
            body = entry.answer_body.replace("\n", " ")
            print(f"    {body[:200]}")
            if args.explain:
                feats = ", ".join(f"{k}={v:.4f}" for k, v in sorted(entry.features.normalized.items()))
                print(f"    [{feats}]")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if _below_one("-k", args.k) or _below_one("-n", args.top):
        return EXIT_USAGE
    try:
        truth = GroundTruth.load(args.truth)
    except (OSError, ValueError) as exc:
        print(f"error: bad ground-truth file: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    baselines = args.baselines.split(",") if args.baselines else ["crar"]
    for name in baselines:
        try:
            configure_ablation(name)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        engine = _engine_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR

    rows = run_ablation_grid(engine, baselines, truth, k=args.k, final_n=args.top)
    write_report_csv(rows, args.output)
    for name, report in rows:
        print(f"{name}: hit={report.hit:.4f} mrr={report.mrr:.4f} "
              f"map={report.map:.4f} mr={report.mr:.4f}")
    print(f"report written to {args.output} (K={args.k}, seed={args.seed})")
    if args.per_query:
        write_per_query_csv(rows, args.per_query)
        print(f"per-query metrics written to {args.per_query}")
    return EXIT_OK


def cmd_export_text(args) -> int:
    try:
        count = export_text(args.index_dir, args.out_dir)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    print(f"wrote titles.txt and contents.txt of {count} threads to {args.out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdrank",
        description="Rank code-bearing Q&A answers for programming tasks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("merge-antonyms",
                       help="merge antonym list files into one dictionary")
    p.add_argument("inputs", nargs="*",
                   help="dictionary files: word<TAB>pos_flags<TAB>a1,a2,...")
    p.add_argument("-o", "--output", required=True, help="merged dictionary path")
    p.set_defaults(func=cmd_merge_antonyms)

    p = sub.add_parser("build-index", help="build index artifacts from a JSONL dump")
    p.add_argument("--corpus", required=True,
                   help="JSONL dump, one post object per line")
    p.add_argument("--out", required=True, help="output artifact directory")
    p.add_argument("--require-tag", action="append", default=None,
                   help="question must carry this tag (repeatable; default: java)")
    p.add_argument("--forbid-tag", action="append", default=None,
                   help="question must not carry this tag (default: javascript)")
    p.add_argument("--stopwords", help="stopword list file (default: bundled)")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("search", help="run one query against a built index")
    p.add_argument("query")
    p.add_argument("--index-dir", required=True)
    p.add_argument("--baseline", default="crar",
                   help="baseline configuration name (default: %(default)s)")
    p.add_argument("--config", help="weight configuration file (overrides --baseline)")
    p.add_argument("-n", "--top", type=int,
                   help="number of answers to return (default: the config's final_n, 10)")
    p.add_argument("--json", action="store_true", help="emit JSONL instead of text")
    p.add_argument("--explain", action="store_true",
                   help="include per-feature diagnostics")
    _add_common_engine_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("evaluate", help="run baselines over a ground-truth file")
    p.add_argument("--index-dir", required=True)
    p.add_argument("--truth", required=True,
                   help='JSONL: {"query_id", "query_text", "relevant_answer_ids"}')
    p.add_argument("--baselines", default="",
                   help="comma-separated baseline names (default: crar)")
    p.add_argument("-k", type=int, default=10, help="metric cutoff (default: %(default)s)")
    p.add_argument("-n", "--top", type=int,
                   help="answers requested per query (default: the preset's final_n, 10)")
    p.add_argument("-o", "--output", default="report.csv", help="CSV report path")
    p.add_argument("--per-query", metavar="CSV",
                   help="also write hit, rr, ap and recall per (baseline, query_id)")
    _add_common_engine_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export-text",
                       help="write an index's preprocessed titles and threads as text files")
    p.add_argument("index_dir", help="index directory made by build-index")
    p.add_argument("out_dir", help="directory for titles.txt and contents.txt")
    p.set_defaults(func=cmd_export_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "build-index":
        if args.require_tag is None:
            args.require_tag = ["java"]
        if args.forbid_tag is None:
            args.forbid_tag = ["javascript"]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
