"""Per-candidate feature scores, normalization, and weighted fusion.

Thread candidates carry seven features (four similarity + three social),
answer candidates four. All features are min-max normalized over the current
candidate set before fusion, except the question score, which is mapped
through a fixed privilege-style ladder.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

from .antonyms import POS_MODES
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

# identifier, optionally preceded by a dotted receiver chain, followed by "("
METHOD_CALL_RE = re.compile(r"(?:\b[A-Za-z_]\w*\s*\.\s*)*\b([A-Za-z_]\w*)\s*\(")
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
        for lineno, line in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            prefix, dot, feature = key.partition(".")
            if dot and prefix in _WEIGHT_KEYS:
                getattr(config, _WEIGHT_KEYS[prefix])[feature] = float(value)
            elif key in _SCALAR_FIELDS:
                setattr(config, key, _PARSE[_SCALAR_FIELDS[key]](value))
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        config.validate()
        return config


# The config file's keys: `<prefix>.<feature>` for each weight, and one per
# scalar field, read and written by the type of its default.
_WEIGHT_KEYS = {"thread_weight": "thread_weights", "answer_weight": "answer_weights"}
_SCALAR_FIELDS = {f.name: type(f.default) for f in fields(WeightConfig)
                  if f.default is not MISSING}
_FORMAT = {bool: lambda v: str(v).lower(), float: repr}
_PARSE = {bool: lambda v: v.lower() == "true", int: int, float: float, str: str}


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


def tfidf_score(bag_q: Mapping[str, int], bag_a: Mapping[str, int], idf_map: IdfMap) -> float:
    """Cosine of TF*IDF-weighted vectors; 0 if either side has no weight."""
    if not bag_q or not bag_a:
        return 0.0
    wq = {w: c * idf_map.idf(w) for w, c in bag_q.items()}
    wa = {w: c * idf_map.idf(w) for w, c in bag_a.items()}
    # Query order, not set order: the float sum must not depend on the hash seed.
    dot = sum(wq[w] * wa[w] for w in wq if w in wa)
    norm_q = math.sqrt(sum(v * v for v in wq.values()))
    norm_a = math.sqrt(sum(v * v for v in wa.values()))
    if norm_q == 0.0 or norm_a == 0.0:
        return 0.0
    return dot / (norm_q * norm_a)


def question_score_value(score: int) -> float:
    """Ladder lookup mapping a question score to [0.1, 1.0]."""
    for upper, value in QUESTION_SCORE_LADDER:
        if score <= upper:
            return value
    return 1.0


def normalize_social(values: Sequence[float]) -> list[float]:
    """Min-max over the candidate set; an all-equal column maps to 1.0."""
    if not values:
        return []
    lo, hi = min(values), max(values)
    if hi == lo:
        return [1.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def extract_methods(code_text: str) -> list[str]:
    """Method-call identifiers in raw code, language keywords excluded."""
    return [m for m in METHOD_CALL_RE.findall(code_text) if m not in METHOD_KEYWORDS]


def top_method_score(answers: Sequence[tuple[int, str]], scale: float = 10.0) -> dict[int, float]:
    """Score answers by the single globally most frequent method call.

    ``answers`` is (answer_id, raw code text). Answers containing the top
    method m get log2(f_m)/scale, the rest 0. Frequency ties break on the
    lexicographically smallest method name.
    """
    per_answer: dict[int, set[str]] = {}
    freq: Counter = Counter()
    for answer_id, code_text in answers:
        methods = extract_methods(code_text)
        per_answer[answer_id] = set(methods)
        freq.update(methods)
    if not freq:
        return {answer_id: 0.0 for answer_id, _ in answers}
    top = min(freq, key=lambda m: (-freq[m], m))
    value = math.log2(freq[top]) / scale
    return {answer_id: (value if top in methods else 0.0)
            for answer_id, methods in per_answer.items()}


def final_score(fv: FeatureVector, weights: Mapping[str, float]) -> float:
    """Weighted sum of normalized feature scores."""
    try:
        return sum(fv.normalized[name] * w for name, w in weights.items())
    except KeyError as exc:
        raise ValueError(f"feature {exc.args[0]!r} missing from normalized vector") from None


def normalize_and_fuse(raws: Sequence[dict[str, float]], weights: Mapping[str, float],
                       ) -> list[tuple[FeatureVector, float]]:
    """Min-max normalize each feature column over the candidate set and fuse.

    The question score bypasses min-max and goes through its ladder instead.
    """
    if not raws:
        return []
    vectors = [FeatureVector(raw=dict(r)) for r in raws]
    for name in weights:
        column = [fv.raw[name] for fv in vectors]
        if name == "question_score":
            normed = [question_score_value(int(v)) for v in column]
        else:
            normed = normalize_social(column)
        for fv, value in zip(vectors, normed):
            fv.normalized[name] = value
    return [(fv, final_score(fv, weights)) for fv in vectors]
