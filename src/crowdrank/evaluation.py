"""Hit@K, MRR@K, MAP@K, MR@K against a ground-truth file, plus the ablation grid.

Ground truth is JSONL: {"query_id", "query_text", "relevant_answer_ids": [...]}
one object per line. Reports serialize to CSV with one row per baseline, and
per-query metrics with one row per (baseline, query_id).
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import read_text
from .pipeline import SearchEngine, configure_ablation


@dataclass
class GroundTruth:
    entries: dict[int, tuple[str, frozenset[int]]] = field(default_factory=dict)

    def add(self, query_id: int, query_text: str, relevant: Iterable[int]) -> None:
        if query_id in self.entries:
            raise ValueError(f"duplicate query_id {query_id}")
        relevant = frozenset(int(r) for r in relevant)
        if not relevant or query_id <= 0 or any(r <= 0 for r in relevant):
            raise ValueError(f"bad ground-truth entry for query {query_id}")
        self.entries[query_id] = (query_text, relevant)

    @classmethod
    def load(cls, path: str | Path) -> "GroundTruth":
        """Read a ground-truth file; ValueError names the first malformed line."""
        truth = cls()
        for lineno, line in enumerate(read_text(path).splitlines(), 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not (isinstance(obj, dict) and isinstance(obj.get("relevant_answer_ids"), list)):
                raise ValueError(f"{path}:{lineno}: expected an object with a "
                                 "relevant_answer_ids list")
            try:
                truth.add(int(obj["query_id"]), str(obj["query_text"]),
                          obj["relevant_answer_ids"])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad ground-truth entry: "
                                 f"{type(exc).__name__} {exc}") from None
        if not truth.entries:
            raise ValueError(f"{path}: no ground-truth entries")
        return truth


# Slotted: a grid keeps a report, with a QueryMetrics per query, for every
# baseline, and its caller may keep the reports of many grids.
@dataclass(slots=True)
class QueryMetrics:
    hit: float
    rr: float
    ap: float
    recall: float


@dataclass(slots=True)
class MetricsReport:
    k: int
    per_query: dict[int, QueryMetrics]
    hit: float
    mrr: float
    map: float
    mr: float

    def metric_sum(self) -> float:
        return self.hit + self.mrr + self.map + self.mr


def query_metrics(ranked: Sequence[int], relevant: frozenset[int], k: float) -> QueryMetrics:
    """Metrics for one ranking; k may be math.inf for uncut evaluation."""
    if not k >= 1:
        raise ValueError(f"metric cutoff k must be at least 1 (or math.inf), got {k!r}")
    top = list(ranked) if math.isinf(k) else list(ranked[:int(k)])
    hit = 0.0
    rr = 0.0
    ap_sum = 0.0
    found = 0
    for i, answer_id in enumerate(top, start=1):
        if answer_id in relevant:
            found += 1
            if rr == 0.0:
                rr = 1.0 / i
                hit = 1.0
            ap_sum += found / i
    denom = len(relevant) if math.isinf(k) else min(len(relevant), int(k))
    ap = ap_sum / denom if denom else 0.0
    recall = found / len(relevant)
    return QueryMetrics(hit=hit, rr=rr, ap=ap, recall=recall)


def evaluate(results: Mapping[int, Sequence[int]], truth: GroundTruth,
             k: float = 10) -> MetricsReport:
    """Evaluate ranked answer ids per query; queries without results score 0."""
    unknown = set(results) - set(truth.entries)
    if unknown:
        raise ValueError(f"results contain unknown query ids: {sorted(unknown)}")
    per_query: dict[int, QueryMetrics] = {}
    for query_id, (_, relevant) in truth.entries.items():
        ranked = results.get(query_id, ())
        per_query[query_id] = query_metrics(ranked, relevant, k)
    n = len(per_query)
    return MetricsReport(
        k=int(k) if not math.isinf(k) else -1,
        per_query=per_query,
        hit=sum(m.hit for m in per_query.values()) / n,
        mrr=sum(m.rr for m in per_query.values()) / n,
        map=sum(m.ap for m in per_query.values()) / n,
        mr=sum(m.recall for m in per_query.values()) / n,
    )


# The most truth entries the grid searches in one shared scope, which holds
# each one's query terms and thread stage, with the stage's answer values,
# until every baseline has searched it.
GRID_BLOCK = 64


def run_baseline(engine: SearchEngine, baseline: str, truth: GroundTruth,
                 k: int = 10, final_n: int | None = None) -> MetricsReport:
    return run_ablation_grid(engine, [baseline], truth, k, final_n)[0][1]


def run_ablation_grid(engine: SearchEngine, baseline_names: Sequence[str],
                      truth: GroundTruth, k: int = 10,
                      final_n: int | None = None) -> list[tuple[str, MetricsReport]]:
    """One report per baseline, sorted ascending by the sum of the four metrics.

    Every baseline's config is built before the first search. The truth
    entries are searched in blocks of `GRID_BLOCK`, every baseline over one
    block before the next; with two or more baselines, each block's searches
    run in one `SearchEngine.shared_queries` scope. There a query's terms and
    thread stage (its sentence, asym_title, asym_body and tf columns) are
    computed by its first search. Each of its answers' term counts and tfidf
    are computed by the first search whose answer BM25 reaches the answer,
    and its asym by the first whose answer stage scores it. Later baselines
    reuse them; each search still makes its own answer BM25, top_method,
    thread_score and cuts.
    """
    names = list(baseline_names)
    configs = [configure_ablation(name) for name in names]
    ranked: list[dict[int, list[int]]] = [{} for _ in configs]
    tasks = list(truth.entries.items())
    scope = engine.shared_queries if len(configs) > 1 else nullcontext
    for lo in range(0, len(tasks), GRID_BLOCK):
        with scope():
            for config, results in zip(configs, ranked):
                for query_id, (query_text, _) in tasks[lo:lo + GRID_BLOCK]:
                    results[query_id] = engine.search(query_text, config, final_n).answer_ids()
    rows = [(name, evaluate(results, truth, k)) for name, results in zip(names, ranked)]
    rows.sort(key=lambda r: (r[1].metric_sum(), r[0]))
    return rows


def write_report_csv(rows: Sequence[tuple[str, MetricsReport]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["baseline", "hit", "mrr", "map", "mr"])
        for name, report in rows:
            writer.writerow([name, f"{report.hit:.6f}", f"{report.mrr:.6f}",
                             f"{report.map:.6f}", f"{report.mr:.6f}"])


def write_per_query_csv(rows: Sequence[tuple[str, MetricsReport]], path: str | Path) -> None:
    """One row per (baseline, query_id), in that sorted order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["baseline", "query_id", "hit", "rr", "ap", "recall"])
        for name, report in sorted(rows, key=lambda r: r[0]):
            for query_id, m in sorted(report.per_query.items()):
                writer.writerow([name, query_id, f"{m.hit:.6f}", f"{m.rr:.6f}",
                                 f"{m.ap:.6f}", f"{m.recall:.6f}"])
