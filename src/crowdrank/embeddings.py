"""Word/sentence vector stores, IDF map, and embedding similarities.

Vector file format: first line ``vocab_size dim``, then one entry per line,
``key v1 ... v_dim`` space-separated. Word files key by word; sentence files
key by integer question id.

Word vectors can also come from a deterministic seeded hash embedder so the
whole pipeline runs without trained models.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

DEFAULT_DIM = 100
DEFAULT_SEED = 42


@dataclass(frozen=True)
class EmbeddingConfig:
    dim: int = DEFAULT_DIM
    seed: int = DEFAULT_SEED

    def to_json(self) -> dict:
        return {"dim": self.dim, "seed": self.seed}


def fallback_embed(word: str, seed: int = DEFAULT_SEED, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Unit-norm vector from a seeded hash of the word; stable across platforms."""
    digest = hashlib.sha256(f"{seed}|{word}".encode("utf-8")).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:16], "big")))
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


class EmbeddingStore:
    """Word vectors plus sentence (title) vectors keyed by question id.

    With ``fallback=True`` unknown words are embedded on demand with the
    seeded hash embedder; otherwise unknown lookups return None.
    """

    def __init__(self, dim: int = DEFAULT_DIM, fallback: bool = True,
                 seed: int = DEFAULT_SEED):
        self.dim = dim
        self.fallback = fallback
        self.seed = seed
        self.word_vecs: dict[str, np.ndarray] = {}
        self.sentence_vecs: dict[int, np.ndarray] = {}

    def word_vector(self, word: str) -> np.ndarray | None:
        vec = self.word_vecs.get(word)
        if vec is None and self.fallback:
            vec = fallback_embed(word, self.seed, self.dim)
            self.word_vecs[word] = vec
        return vec


def load_word_vectors(path: str | Path, fallback: bool = False,
                      seed: int = DEFAULT_SEED) -> EmbeddingStore:
    store, keyed = _load_vector_file(path, int_keys=False)
    store.fallback = fallback
    store.seed = seed
    store.word_vecs = keyed
    return store


def load_sentence_vectors(path: str | Path, store: EmbeddingStore | None = None) -> EmbeddingStore:
    loaded, keyed = _load_vector_file(path, int_keys=True)
    if store is None:
        store = loaded
    elif loaded.dim != store.dim:
        raise ValueError(f"sentence vector dim {loaded.dim} != store dim {store.dim}")
    store.sentence_vecs = keyed
    return store


def _load_vector_file(path: str | Path, int_keys: bool) -> tuple[EmbeddingStore, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"missing 'vocab_size dim' header in {path}")
        count, dim = int(header[0]), int(header[1])
        keyed: dict = {}
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise ValueError(f"{path}:{lineno}: expected {dim} components, got {len(parts) - 1}")
            key = int(parts[0]) if int_keys else parts[0]
            if key in keyed:
                warnings.warn(f"{path}:{lineno}: duplicate key {key!r}, last wins")
            keyed[key] = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        if len(keyed) != count:
            warnings.warn(f"{path}: header declares {count} entries, found {len(keyed)}")
    return EmbeddingStore(dim=dim, fallback=False), keyed


def save_vectors(vectors: Mapping, dim: int, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(vectors)} {dim}\n")
        for key in sorted(vectors):
            comps = " ".join(repr(float(x)) for x in vectors[key])
            fh.write(f"{key} {comps}\n")


class IdfMap:
    """word -> log10(N / df) over the thread corpus.

    Words never seen in the corpus default to log10(N / 1): maximally
    informative, so unseen query words keep their weight.
    """

    def __init__(self, df: Mapping[str, int], doc_count: int):
        if doc_count <= 0:
            raise ValueError("doc_count must be positive")
        self.df = dict(df)
        self.doc_count = doc_count

    @classmethod
    def from_documents(cls, documents: Iterable[Iterable[str]]) -> "IdfMap":
        df: Counter = Counter()
        n = 0
        for doc in documents:
            n += 1
            df.update(set(doc))
        return cls(df, max(n, 1))

    def idf(self, word: str) -> float:
        return math.log10(self.doc_count / self.df.get(word, 1))


def cosine(v1: np.ndarray, v2: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm."""
    if v1.shape != v2.shape:
        raise ValueError(f"dim mismatch: {v1.shape} vs {v2.shape}")
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return float(np.dot(v1, v2) / (n1 * n2))


def sentence_embed(bag: Mapping[str, int], store: EmbeddingStore, idf_map: IdfMap) -> np.ndarray:
    """Built-in sentence embedder: IDF-weighted mean of word vectors."""
    total = np.zeros(store.dim)
    weight_sum = 0.0
    for word, count in bag.items():
        vec = store.word_vector(word)
        if vec is None:
            continue
        w = idf_map.idf(word) * count
        total += w * vec
        weight_sum += w
    if weight_sum == 0.0:
        return total
    return total / weight_sum


def _unit_rows(vectors: list[np.ndarray]) -> np.ndarray:
    """The vectors as rows scaled to unit norm; a zero vector stays zero."""
    rows = np.array(vectors, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return np.divide(rows, norms, out=rows, where=norms > 0.0)


def _idf_mean(words: list[str], sims: np.ndarray, idf_map: IdfMap) -> float:
    weights = np.array([idf_map.idf(word) for word in words])
    return float((sims * weights).sum() / total) if (total := weights.sum()) else 0.0


def _relevances(a: list[str], b: list[str], store: EmbeddingStore, idf_map: IdfMap,
                clamp_negative: bool) -> tuple[float, float]:
    """Relevance of `a` to `b` and of `b` to `a` (sorted, distinct words) from one matrix.

    A word scores its best cosine, floored at 0 or -1, against the other side's
    words that have a vector; an identical word scores exactly 1. A word with
    no vector, or facing none, scores 0 but keeps its idf weight.
    """
    vecs_a, vecs_b = ([store.word_vector(word) for word in words] for words in (a, b))
    rows, cols = ([i for i, v in enumerate(vecs) if v is not None] for vecs in (vecs_a, vecs_b))
    best_a, best_b = np.zeros(len(a)), np.zeros(len(b))
    if rows and cols:
        sims = _unit_rows([vecs_a[i] for i in rows]) @ _unit_rows([vecs_b[j] for j in cols]).T
        np.clip(sims, 0.0 if clamp_negative else -1.0, 1.0, out=sims)
        col_of = {b[j]: c for c, j in enumerate(cols)}
        for r, c in [(r, col_of[a[i]]) for r, i in enumerate(rows) if a[i] in col_of]:
            sims[r, c] = 1.0
        best_a[rows] = sims.max(axis=1)
        best_b[cols] = sims.max(axis=0)
    return _idf_mean(a, best_a, idf_map), _idf_mean(b, best_b, idf_map)


def asym(query_bag: Iterable[str], target_bag: Iterable[str], store: EmbeddingStore,
         idf_map: IdfMap, clamp_negative: bool = True) -> float:
    """IDF-weighted mean of each query word's best embedding match in the target."""
    return _relevances(sorted(set(query_bag)), sorted(set(target_bag)), store, idf_map,
                       clamp_negative)[0]


def asym_score(bag_a: Iterable[str], bag_b: Iterable[str], store: EmbeddingStore,
               idf_map: IdfMap, clamp_negative: bool = True) -> float:
    """Harmonic mean of both directions; operands are ordered first, so a swap keeps the bits."""
    a, b = sorted([sorted(set(bag_a)), sorted(set(bag_b))])
    forward, backward = _relevances(a, b, store, idf_map, clamp_negative)
    if forward == 0.0 or backward == 0.0:
        return 0.0
    return 2.0 * forward * backward / (forward + backward)
