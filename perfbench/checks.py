"""Output checks: oracles computed apart from the program, and properties
every correct ranking has.

Each check returns a list of failure messages; an empty list means the
output passed. The oracles re-derive what they check from the loaded thread
bags, idf.json and the seeded word vectors with plain loops or their own
matrix form; they never compare against a stored copy of earlier output.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

TOL = 1e-9
# Funnel budgets of the default configuration: BM25 threads, stage 1,
# stage 2, answer BM25.
FUNNEL = (500, 250, 100, 150)
_CODE_RE = re.compile(r"<(code|pre)\b[^>]*>\s*[^<\s]", re.IGNORECASE)


# ---------------------------------------------------------------------------
# text views of a loaded thread, as the method defines them

def thread_doc_bag(thread) -> Counter:
    """BM25 text of a thread: title, question prose, answers' prose and code."""
    bag = Counter(thread.question.title_bag)
    bag.update(thread.question.body_bag)
    for answer in thread.answers:
        bag.update(answer.body_bag)
        bag.update(answer.code_bag)
    return bag


def thread_body_bag(thread) -> Counter:
    """Target of asym_body: question prose plus answers' prose."""
    bag = Counter(thread.question.body_bag)
    for answer in thread.answers:
        bag.update(answer.body_bag)
    return bag


def answer_asym_bag(thread, answer) -> Counter:
    return Counter(answer.body_bag) + Counter(thread.question.title_bag)


def answer_tfidf_bag(thread, answer) -> Counter:
    bag = Counter(thread.question.title_bag)
    bag.update(thread.question.body_bag)
    bag.update(answer.body_bag)
    bag.update(answer.code_bag)
    return bag


# ---------------------------------------------------------------------------
# oracles

def bm25_oracle(docs: dict[int, Counter], query_terms, top_n: int,
                k: float = 1.2, b: float = 0.9) -> list[tuple[int, float]]:
    """Plain-loop BM25 with idf = log10(N / df); zero scores dropped; ties by id."""
    n = len(docs)
    if n == 0:
        return []
    lengths = {d: sum(bag.values()) for d, bag in docs.items()}
    avgdl = sum(lengths.values()) / n
    terms = sorted(set(query_terms))
    df = {t: sum(1 for bag in docs.values() if t in bag) for t in terms}
    scored = []
    for doc_id, bag in docs.items():
        total = 0.0
        for t in terms:
            tf = bag.get(t, 0)
            if tf:
                idf = math.log10(n / df[t])
                total += idf * tf * (k + 1.0) / (tf + k * (1.0 - b + b * lengths[doc_id] / avgdl))
        if total > 0.0:
            scored.append((doc_id, total))
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:top_n]


class FeatureOracle:
    """Scalar feature formulas over one index directory's idf and vectors."""

    def __init__(self, df: dict[str, int], doc_count: int, vector_of):
        self.df = df
        self.doc_count = doc_count
        self.vector_of = vector_of  # word -> unit vector (seeded hash embedder)
        self._vectors: dict[str, np.ndarray] = {}

    def idf(self, word: str) -> float:
        return math.log10(self.doc_count / self.df.get(word, 1))

    def _matrix(self, words: list[str]) -> np.ndarray:
        rows = []
        for w in words:
            v = self._vectors.get(w)
            if v is None:
                v = np.asarray(self.vector_of(w), dtype=np.float64)
                v = v / np.linalg.norm(v)
                self._vectors[w] = v
            rows.append(v)
        return np.vstack(rows)

    def _directed(self, src: list[str], dst: list[str], cos: np.ndarray, clamp: bool) -> float:
        """IDF-weighted mean over src words of the best match in dst."""
        dst_set = set(dst)
        num = den = 0.0
        for i, w in enumerate(src):
            if w in dst_set:
                best = 1.0
            else:
                row = cos[i]
                best = max(0.0, float(row.max())) if clamp else float(row.max())
            weight = self.idf(w)
            num += best * weight
            den += weight
        return num / den if den else 0.0

    def asym_score(self, bag_a, bag_b, clamp: bool = True) -> float:
        """Harmonic mean of the two directed relevances (Ye et al., ICSE 2016),
        in matrix form: one cosine matrix gives both directions."""
        a, b = sorted(set(bag_a)), sorted(set(bag_b))
        if not a or not b:
            return 0.0
        cos = self._matrix(a) @ self._matrix(b).T
        forward = self._directed(a, b, cos, clamp)
        backward = self._directed(b, a, cos.T, clamp)
        if forward == 0.0 or backward == 0.0:
            return 0.0
        return 2.0 * forward * backward / (forward + backward)

    @staticmethod
    def tf_score(bag_q, bag_t) -> float:
        if not bag_q or not bag_t:
            return 0.0
        dot = sum(c * bag_t.get(w, 0) for w, c in bag_q.items())
        return dot / (math.sqrt(sum(c * c for c in bag_q.values()))
                      * math.sqrt(sum(c * c for c in bag_t.values())))

    def tfidf_score(self, bag_q, bag_a) -> float:
        if not bag_q or not bag_a:
            return 0.0
        wq = {w: c * self.idf(w) for w, c in bag_q.items()}
        wa = {w: c * self.idf(w) for w, c in bag_a.items()}
        nq = math.sqrt(sum(v * v for v in wq.values()))
        na = math.sqrt(sum(v * v for v in wa.values()))
        if nq == 0.0 or na == 0.0:
            return 0.0
        return sum(v * wa.get(w, 0.0) for w, v in wq.items()) / (nq * na)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


# ---------------------------------------------------------------------------
# checks

def check_bm25(hits: list[tuple[int, float]], oracle: list[tuple[int, float]],
               label: str) -> list[str]:
    """Ids, order and scores (within TOL) of the thread BM25 hits.

    Ids may differ only inside a run of oracle scores equal within TOL.
    """
    errors = []
    if len(hits) != len(oracle):
        return [f"{label}: BM25 returned {len(hits)} threads, oracle {len(oracle)}"]
    oracle_score = dict(oracle)
    for rank, ((doc, score), (odoc, oscore)) in enumerate(zip(hits, oracle)):
        if not _close(score, oscore):
            errors.append(f"{label}: BM25 rank {rank} score {score!r} != oracle {oscore!r}")
            break
        if doc != odoc and not _close(oracle_score.get(doc, math.inf), oscore):
            errors.append(f"{label}: BM25 rank {rank} is thread {doc}, oracle {odoc}")
            break
    if len({d for d, _ in hits}) != len(hits):
        errors.append(f"{label}: BM25 hits repeat a thread")
    return errors


def check_features(result, threads: dict, query_bag, oracle: FeatureOracle,
                   clamp: bool, label: str) -> list[str]:
    """Raw features of the stage-2 threads and of the returned answers."""
    errors = []
    for tid, raw in result.diagnostics.get("thread_features", {}).items():
        thread = threads[tid]
        expected = {
            "asym_title": oracle.asym_score(query_bag, thread.question.title_bag, clamp),
            "asym_body": oracle.asym_score(query_bag, thread_body_bag(thread), clamp),
            "tf": oracle.tf_score(query_bag, thread_doc_bag(thread)),
            "answer_count": float(len(thread.answers)),
            "total_answer_score": float(sum(a.score for a in thread.answers)),
            "question_score": float(thread.question.score),
        }
        for name, value in expected.items():
            if name not in raw or not _close(raw[name], value):
                errors.append(f"{label}: thread {tid} {name} {raw.get(name)!r} != oracle {value!r}")
    for entry in result.entries:
        thread = threads[entry.thread_id]
        answer = next((a for a in thread.answers if a.id == entry.answer_id), None)
        if answer is None:
            continue  # reported by check_ranking
        raw = entry.features.raw
        expected = {
            "asym": oracle.asym_score(query_bag, answer_asym_bag(thread, answer), clamp),
            "tfidf": oracle.tfidf_score(query_bag, answer_tfidf_bag(thread, answer)),
        }
        for name, value in expected.items():
            if name not in raw or not _close(raw[name], value):
                errors.append(f"{label}: answer {entry.answer_id} {name} {raw.get(name)!r} "
                              f"!= oracle {value!r}")
    return errors


def check_funnel(counts: dict, final_n: int, label: str) -> list[str]:
    """Stage counts are non-increasing and within their budgets."""
    order = ("bm25_threads", "after_thread_filter", "stage1_kept", "stage2_kept")
    if not counts:
        return []
    errors = []
    missing = [k for k in order + ("bm25_answers", "after_answer_filter", "returned")
               if k not in counts]
    if missing:
        return [f"{label}: stage counts lack {missing}"]
    values = [counts[k] for k in order]
    if counts["bm25_threads"] > FUNNEL[0]:
        errors.append(f"{label}: {counts['bm25_threads']} BM25 threads > {FUNNEL[0]}")
    if any(later > earlier for earlier, later in zip(values, values[1:])):
        errors.append(f"{label}: thread counts increase: {values}")
    if counts["stage1_kept"] > FUNNEL[1] or counts["stage2_kept"] > FUNNEL[2]:
        errors.append(f"{label}: stage budgets exceeded: {values}")
    if counts["bm25_answers"] > FUNNEL[3]:
        errors.append(f"{label}: {counts['bm25_answers']} answers > {FUNNEL[3]}")
    if not (counts["returned"] <= counts["after_answer_filter"] <= counts["bm25_answers"]):
        errors.append(f"{label}: answer counts increase: {counts}")
    if counts["returned"] > final_n:
        errors.append(f"{label}: returned {counts['returned']} > final_n {final_n}")
    return errors


def check_ranking(result, threads: dict, weight_sum: float, label: str) -> list[str]:
    """Order, tie-break, membership, code and score range of the returned answers."""
    errors = []
    entries = result.entries
    kept = result.diagnostics.get("thread_features", {})
    if len(entries) != result.diagnostics.get("stage_counts", {}).get("returned", len(entries)):
        errors.append(f"{label}: {len(entries)} entries but stage count says otherwise")
    for i, (a, b) in enumerate(zip(entries, entries[1:])):
        if b.score > a.score or (b.score == a.score and b.answer_id < a.answer_id):
            errors.append(f"{label}: ranks {i} and {i + 1} out of order "
                          f"({a.answer_id}:{a.score!r}, {b.answer_id}:{b.score!r})")
            break
    if len({e.answer_id for e in entries}) != len(entries):
        errors.append(f"{label}: an answer is returned twice")
    for e in entries:
        if e.thread_id not in kept:
            errors.append(f"{label}: answer {e.answer_id} from thread {e.thread_id}, "
                          "which stage 2 did not keep")
        elif all(a.id != e.answer_id for a in threads[e.thread_id].answers):
            errors.append(f"{label}: answer {e.answer_id} is not in thread {e.thread_id}")
        if not _CODE_RE.search(e.answer_body):
            errors.append(f"{label}: answer {e.answer_id} carries no code")
        if not (-TOL <= e.score <= weight_sum + TOL):
            errors.append(f"{label}: answer {e.answer_id} score {e.score!r} "
                          f"outside [0, {weight_sum}]")
    return errors


def rr_and_recall(ranked: list[int], relevant: frozenset[int], k: int = 10) -> tuple[float, float]:
    """Reciprocal rank of the first relevant answer in the top k, and the
    share of relevant answers in the top k."""
    top = ranked[:k]
    rr = next((1.0 / rank for rank, a in enumerate(top, 1) if a in relevant), 0.0)
    return rr, len(set(top) & relevant) / len(relevant)


def check_report(name: str, rankings: list[list[int]], relevant: list[frozenset[int]],
                 mrr: float, mr: float) -> list[str]:
    """A report row's MRR@10 and MR@10 against the benchmark's own formula."""
    pairs = [rr_and_recall(r, rel) for r, rel in zip(rankings, relevant)]
    own_mrr = sum(p[0] for p in pairs) / len(pairs)
    own_mr = sum(p[1] for p in pairs) / len(pairs)
    errors = []
    if not _close(mrr, own_mrr):
        errors.append(f"{name}: MRR@10 {mrr!r} != recomputed {own_mrr!r}")
    if not _close(mr, own_mr):
        errors.append(f"{name}: MR@10 {mr!r} != recomputed {own_mr!r}")
    return errors


def check_same_files(dir_a: Path, dir_b: Path) -> list[str]:
    """Two builds of one dump hold byte-identical files."""
    names_a = sorted(p.name for p in dir_a.iterdir())
    names_b = sorted(p.name for p in dir_b.iterdir())
    if names_a != names_b:
        return [f"builds differ in their files: {names_a} vs {names_b}"]
    return [f"{name} differs between two builds of one dump" for name in names_a
            if (dir_a / name).read_bytes() != (dir_b / name).read_bytes()]


def check_counts(report, manifest: dict) -> list[str]:
    """LoadStats, BuildStats and the thread count against what was planted."""
    errors = []
    for stats_name, stats in (("load", report.load_stats), ("build", report.build_stats)):
        for field, expected in manifest[stats_name].items():
            got = getattr(stats, field, None)
            if got != expected:
                errors.append(f"{stats_name} stats {field}: {got} != planted {expected}")
    if report.thread_count != manifest["threads"]:
        errors.append(f"thread count {report.thread_count} != planted {manifest['threads']}")
    return errors
