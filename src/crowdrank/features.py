"""Per-candidate feature scores, normalization, and weighted fusion.

Thread candidates carry seven features (four similarity + three social),
answer candidates four. All features are min-max normalized over the current
candidate set before fusion, except the question score, which is mapped
through a fixed privilege-style ladder.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .antonyms import POS_MODES
from .corpus import read_text
from .embeddings import IdfMap

THREAD_FEATURES = ("sentence", "asym_title", "asym_body", "tf",
                   "answer_count", "total_answer_score", "question_score")
THREAD_SIMILARITY_FEATURES = THREAD_FEATURES[:4]
SOCIAL_FEATURES = THREAD_FEATURES[4:]
ANSWER_FEATURES = ("asym", "tfidf", "top_method", "thread_score")

QUESTION_SCORE_LADDER = (
    (1, 0.1), (5, 0.2), (10, 0.3), (25, 0.4), (50, 0.5),
    (75, 0.6), (100, 0.7), (200, 0.8), (500, 0.9),
)

ANTONYM_TARGET_MODES = ("TR", "ANS", "TR_ANS")

# An identifier followed by "(": the method of a call, whether or not a
# dotted receiver chain precedes it (a receiver is followed by ".", not "(").
METHOD_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
METHOD_KEYWORDS = frozenset({"if", "for", "while", "switch", "catch", "return", "new"})


@dataclass
class WeightConfig:
    """Weights, funnel thresholds and filter toggles for one pipeline run."""

    thread_weights: dict[str, float] = field(
        default_factory=lambda: {f: 0.5 for f in THREAD_FEATURES})
    answer_weights: dict[str, float] = field(
        default_factory=lambda: {"asym": 1.0, "tfidf": 0.5,
                                 "top_method": 0.75, "thread_score": 0.75})
    bm25_top: int = 500
    stage1_keep: int = 250
    stage2_keep: int = 100
    answer_k: int = 150
    final_n: int = 10
    antonym_enabled: bool = False
    antonym_pos_mode: str = "NN"
    antonym_targets: str = "ANS"  # TR | ANS | TR_ANS
    method_scale: float = 10.0
    clamp_negative_cosine: bool = True

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for kind, weights, names in (("thread", self.thread_weights, THREAD_FEATURES),
                                     ("answer", self.answer_weights, ANSWER_FEATURES)):
            missing = set(names) - set(weights)
            if missing:
                raise ValueError(f"missing {kind} weights: {sorted(missing)}")
            unknown = set(weights) - set(names)
            if unknown:
                raise ValueError(f"unknown {kind} weights: {sorted(unknown)}; "
                                 f"valid names: {', '.join(names)}")
            for name, w in weights.items():
                if not (math.isfinite(w) and w >= 0):
                    raise ValueError(f"{kind} weight {name!r} must be finite and >= 0, "
                                     f"got {w!r}")
            # A fused score is at most the sum of its weights.
            if not math.isfinite(total := sum(weights.values())):
                raise ValueError(f"{kind} weights sum to {total!r}; the fused score "
                                 "must stay finite")
        if not (self.bm25_top >= self.stage1_keep >= self.stage2_keep > 0):
            raise ValueError("funnel thresholds must be positive and non-increasing")
        if self.answer_k <= 0:
            raise ValueError("answer_k must be positive")
        if self.final_n < 1:
            raise ValueError(f"final_n must be at least 1, got {self.final_n!r}")
        if not (math.isfinite(self.method_scale) and self.method_scale > 0):
            raise ValueError("method_scale must be finite and positive, "
                             f"got {self.method_scale!r}")
        if self.antonym_targets not in ANTONYM_TARGET_MODES:
            raise ValueError(f"bad antonym_targets {self.antonym_targets!r}")
        if self.antonym_pos_mode not in POS_MODES:
            raise ValueError(f"bad antonym_pos_mode {self.antonym_pos_mode!r}; "
                             f"expected one of {', '.join(POS_MODES)}")

    @property
    def filter_threads(self) -> bool:
        return self.antonym_enabled and self.antonym_targets in ("TR", "TR_ANS")

    @property
    def filter_answers(self) -> bool:
        return self.antonym_enabled and self.antonym_targets in ("ANS", "TR_ANS")

    def to_flat(self) -> dict[str, str]:
        flat = {f"{prefix}.{k}": repr(v) for prefix, attr in _WEIGHT_KEYS.items()
                for k, v in getattr(self, attr).items()}
        flat.update({name: _FORMAT.get(kind, str)(getattr(self, name))
                     for name, kind in _SCALAR_FIELDS.items()})
        return flat

    def save(self, path: str | Path) -> None:
        lines = [f"{k}={v}" for k, v in sorted(self.to_flat().items())]
        Path(path).write_text("\n".join(lines) + "\n", "utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "WeightConfig":
        config = cls()
        for lineno, line in enumerate(read_text(path).splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            prefix, dot, feature = key.partition(".")
            weights = dot and _WEIGHT_KEYS.get(prefix)
            if not weights and key not in _SCALAR_FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if weights:
                    getattr(config, weights)[feature] = float(value)
                else:
                    setattr(config, key, _PARSE[_SCALAR_FIELDS[key]](value))
            except (KeyError, ValueError) as exc:  # KeyError: a bool other than true/false
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
        config.validate()
        return config


# The config file's keys: `<prefix>.<feature>` for each weight, and one per
# scalar field, read and written by the type of its default.
_WEIGHT_KEYS = {"thread_weight": "thread_weights", "answer_weight": "answer_weights"}
_SCALAR_FIELDS = {f.name: type(f.default) for f in fields(WeightConfig)
                  if f.default is not MISSING}
_FORMAT = {bool: lambda v: str(v).lower(), float: repr}
_PARSE = {bool: lambda v: {"true": True, "false": False}[v.lower()],
          int: int, float: float, str: str}


@dataclass
class FeatureVector:
    raw: dict[str, float]
    normalized: dict[str, float] = field(default_factory=dict)


def tf_cosine(dot: int, sumsq_q: int, sumsq_t: int) -> float:
    """Cosine of two term-frequency vectors from their integer dot product and
    sums of squared counts; 0 if either vector is zero."""
    if not sumsq_q or not sumsq_t:
        return 0.0
    return dot / (math.sqrt(sumsq_q) * math.sqrt(sumsq_t))


def tf_score(bag_q: Mapping[str, int], bag_t: Mapping[str, int]) -> float:
    """Cosine of raw term-frequency vectors; 0 if either bag is empty."""
    dot = sum(bag_q[w] * bag_t[w] for w in bag_q.keys() & bag_t.keys())
    return tf_cosine(dot, sum(c * c for c in bag_q.values()),
                     sum(c * c for c in bag_t.values()))


def tfidf_norms(counts: np.ndarray, idfs: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Norm of the TF*IDF vector of each segment: segment `s` holds the term
    counts and idfs at positions `ptr[s]:ptr[s + 1]`; an empty one is 0."""
    weights = counts * idfs
    sums = np.zeros(len(ptr) - 1)
    nonempty = ptr[1:] > ptr[:-1]
    if nonempty.any():
        sums[nonempty] = np.add.reduceat(weights * weights, ptr[:-1][nonempty])
    return np.sqrt(sums)


def tfidf_cosine(dot: float, norm_q: float, norm_a: float) -> float:
    """Cosine of two TF*IDF vectors from their dot product and norms; 0 if
    either vector has no weight."""
    if norm_q == 0.0 or norm_a == 0.0:
        return 0.0
    return dot / (norm_q * norm_a)


def cosines(dots: np.ndarray, norm_q: float, norms: np.ndarray) -> np.ndarray:
    """Cosine of the query with each document from their dot products and
    norms; 0 where either norm is 0. With the same IEEE operations, this is
    `tfidf_cosine` elementwise, and `tf_cosine` with the square roots of the
    sums of squares as the norms."""
    out = np.zeros(len(dots))
    if norm_q != 0.0:
        np.divide(dots, norm_q * norms, out=out, where=norms != 0.0)
    return out


def tfidf_score(bag_q: Mapping[str, int], bag_a: Mapping[str, int], idf_map: IdfMap) -> float:
    """Cosine of TF*IDF-weighted vectors; 0 if either side has no weight."""
    if not bag_q or not bag_a:
        return 0.0
    idf = idf_map.idf
    # Query order, not set order: the float sum must not depend on the hash seed.
    dot = sum(c * idf(w) * (bag_a[w] * idf(w)) for w, c in bag_q.items() if w in bag_a)
    norm_q, norm_a = (tfidf_norms(np.array(list(bag.values()), dtype=float),
                                  np.array([idf(w) for w in bag]), np.array([0, len(bag)]))[0]
                      for bag in (bag_q, bag_a))
    return tfidf_cosine(dot, norm_q, norm_a)


def question_score_value(score: int) -> float:
    """Ladder lookup mapping a question score to [0.1, 1.0]."""
    for upper, value in QUESTION_SCORE_LADDER:
        if score <= upper:
            return value
    return 1.0


_LADDER_UPPER = np.array([upper for upper, _ in QUESTION_SCORE_LADDER], dtype=np.float64)
_LADDER_VALUE = np.array([value for _, value in QUESTION_SCORE_LADDER] + [1.0])


def question_score_values(scores: np.ndarray) -> np.ndarray:
    """`question_score_value` of each score, truncated to an integer first."""
    return _LADDER_VALUE[np.searchsorted(_LADDER_UPPER, np.trunc(scores))]


def extract_methods(code_text: str) -> list[str]:
    """Method-call identifiers in raw code, language keywords excluded."""
    return [m for m in METHOD_CALL_RE.findall(code_text) if m not in METHOD_KEYWORDS]


def top_method_scores(method_ids: np.ndarray, ptr: np.ndarray, scale: float) -> np.ndarray:
    """Score each segment of method ids by the single most frequent method.

    Segment `s` is one answer's method calls, `method_ids[ptr[s]:ptr[s + 1]]`,
    with repeats. The method m called most often over all segments (on a tie,
    the smallest id) gives log2(f_m)/scale to each segment that calls it, 0
    to the rest.
    """
    scores = np.zeros(len(ptr) - 1)
    if not len(method_ids):
        return scores
    freq = np.bincount(method_ids)
    top = int(freq.argmax())  # the first maximum
    segment = np.repeat(np.arange(len(scores)), np.diff(ptr))
    scores[segment[method_ids == top]] = math.log2(int(freq[top])) / scale
    return scores


def top_method_score(answers: Sequence[tuple[int, str]], scale: float = 10.0) -> dict[int, float]:
    """Score answers by the single globally most frequent method call.

    ``answers`` is (answer_id, raw code text). Answers containing the top
    method m get log2(f_m)/scale, the rest 0. Frequency ties break on the
    lexicographically smallest method name: ids follow the sorted names.
    """
    methods = [extract_methods(code_text) for _, code_text in answers]
    names = sorted(set(chain.from_iterable(methods)))
    method_id = dict(zip(names, range(len(names))))
    ids = np.array([method_id[m] for calls in methods for m in calls], dtype=np.intp)
    ptr = np.zeros(len(methods) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, methods), dtype=np.int64, count=len(methods)), out=ptr[1:])
    return dict(zip([answer_id for answer_id, _ in answers],
                    top_method_scores(ids, ptr, scale).tolist()))


def normalize_and_fuse(table: Mapping[str, np.ndarray], weights: Mapping[str, float],
                       ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Min-max normalize each weighted column of a feature table, a row per
    candidate (an all-equal column maps to 1.0), and fuse them: returns the
    normalized columns and their weighted sum, added in ``weights`` order.

    The question score bypasses min-max and goes through its ladder instead.
    """
    n = len(next(iter(table.values()), ()))
    normalized, fused = {}, np.zeros(n)
    for name, w in weights.items():
        if name not in table:
            raise ValueError(f"feature {name!r} missing from the feature table")
        column = table[name]
        if name == "question_score":
            normed = question_score_values(column)
        # builtin min/max beat numpy's on short columns
        elif (values := column.tolist()) and (lo := min(values)) != (hi := max(values)):
            normed = (column - lo) / (hi - lo)
        else:
            normed = np.ones(n)
        normalized[name] = normed
        fused += normed * w
    return normalized, fused
