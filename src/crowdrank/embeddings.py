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
from typing import Iterable, Mapping, Sequence

import numpy as np

DEFAULT_DIM = 100
DEFAULT_SEED = 42


@dataclass(frozen=True)
class EmbeddingConfig:
    dim: int = DEFAULT_DIM

    def to_json(self) -> dict:
        return {"dim": self.dim}


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
        self._idf = {word: math.log10(doc_count / count) for word, count in self.df.items()}
        self._unseen = math.log10(doc_count / 1)

    @classmethod
    def from_documents(cls, documents: Iterable[Iterable[str]]) -> "IdfMap":
        df: Counter = Counter()
        n = 0
        for doc in documents:
            n += 1
            df.update(set(doc))
        return cls(df, max(n, 1))

    def idf(self, word: str) -> float:
        return self._idf.get(word, self._unseen)


def cosine(v1: np.ndarray, v2: np.ndarray) -> float:
    """Cosine similarity; 0.0 when either vector has zero norm."""
    if v1.shape != v2.shape:
        raise ValueError(f"dim mismatch: {v1.shape} vs {v2.shape}")
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return float(np.dot(v1, v2) / (n1 * n2))


def sentence_vectors(words: Sequence[str], idf: np.ndarray, ptr: np.ndarray, ids: np.ndarray,
                     counts: np.ndarray, store: EmbeddingStore) -> np.ndarray:
    """The built-in sentence embedder over many bags at once, a row per bag.

    Bag `s` holds the words `words[i]` for the ids `i` in `ids[ptr[s]:ptr[s + 1]]`,
    with their counts; `idf[i]` is the idf of `words[i]`. A row is the
    IDF*count-weighted mean of the bag's word vectors, added in bag order;
    words the store has no vector for are left out, and a bag with no
    weight gets the zero vector.
    """
    dim = store.dim
    used = np.flatnonzero(np.bincount(ids, minlength=len(words)))
    row_of = np.zeros(len(words), dtype=np.intp)
    row_of[used] = np.arange(len(used))
    # A row per used word: its vector and a last column of 1, so that one sum
    # over a bag adds the weighted vectors and the weights in the same order.
    # A word with no vector keeps a zero row.
    table = np.zeros((len(used), dim + 1))
    for row, i in enumerate(used.tolist()):
        vec = store.word_vector(words[i])
        if vec is not None:
            table[row, :dim] = vec
            table[row, dim] = 1.0
    weights = counts * idf[ids]
    out = np.zeros((len(ptr) - 1, dim))
    # Blocks of bags bound the memory; within a block, word j of every bag
    # that has one, for j = 0, 1, ..., so each bag's sum runs in bag order.
    for lo in range(0, len(out), 256):
        bounds = ptr[lo:lo + 257]
        lengths = np.diff(bounds)
        sums = np.zeros((len(lengths), dim + 1))
        for j in range(int(lengths.max(initial=0))):
            bags = np.flatnonzero(lengths > j)
            entries = bounds[bags] + j
            sums[bags] += weights[entries, None] * table[row_of[ids[entries]]]
        total, weight_sum = sums[:, :dim], sums[:, dim:]
        np.divide(total, weight_sum, out=out[lo:lo + len(lengths)], where=weight_sum != 0.0)
    return out


def sentence_embed(bag: Mapping[str, int], store: EmbeddingStore, idf_map: IdfMap) -> np.ndarray:
    """Built-in sentence embedder: IDF-weighted mean of word vectors."""
    words = list(bag)
    return sentence_vectors(words, np.array([idf_map.idf(w) for w in words], dtype=np.float64),
                            np.array([0, len(words)]), np.arange(len(words)),
                            np.array(list(bag.values()), dtype=np.int64), store)[0]


class WordMatrix:
    """Sorted distinct words with their idf and unit-norm vectors, one row each.

    Rows are looked up in the store on first use (`fill`): a zero vector
    stays a zero row, and a word the store has no vector for is left out of
    `has_vector`. The asym kernel takes one matrix as its rows (the query)
    and one as its columns (a target bag, or the whole corpus vocabulary).
    """

    def __init__(self, words: list[str], store: EmbeddingStore, idf_map: IdfMap):
        self.words = words
        self.index = {word: i for i, word in enumerate(words)}
        self.store = store
        self.idf = np.array([idf_map.idf(word) for word in words], dtype=np.float64)
        self.unit = np.zeros((len(words), store.dim))
        self.has_vector = np.zeros(len(words), dtype=bool)
        self._looked_up = np.zeros(len(words), dtype=bool)

    @classmethod
    def of(cls, words: Iterable[str], store: EmbeddingStore, idf_map: IdfMap) -> "WordMatrix":
        """The distinct words, sorted, with every row looked up."""
        matrix = cls(sorted(set(words)), store, idf_map)
        matrix.fill(np.arange(len(matrix.words)))
        return matrix

    def fill(self, ids: np.ndarray) -> None:
        """Look up the rows of `ids` that have not been looked up yet."""
        new = ids[~self._looked_up[ids]]
        if not new.size:
            return
        new = np.unique(new)
        vecs = [self.store.word_vector(self.words[i]) for i in new.tolist()]
        ok = np.array([v is not None for v in vecs], dtype=bool)
        if ok.any():
            rows = np.array([v for v in vecs if v is not None], dtype=np.float64)
            norms = np.linalg.norm(rows, axis=1, keepdims=True)
            self.unit[new[ok]] = np.divide(rows, norms, out=rows, where=norms > 0.0)
        self.has_vector[new] = ok
        self._looked_up[new] = True


def _segment_max(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Maximum of each segment of `values`; -inf for an empty segment."""
    out = np.full(len(ptr) - 1, -np.inf)
    nonempty = ptr[1:] > ptr[:-1]
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(values, ptr[:-1][nonempty])
    return out


def _weighted_means(best: np.ndarray, weights: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Weighted mean of `best` over each segment; 0 for no weight.

    The numerator and the denominator are summed by one reduction in one
    order, so a segment whose `best` values are all 1 gives exactly 1.
    """
    out = np.zeros(len(ptr) - 1)
    nonempty = ptr[1:] > ptr[:-1]
    if nonempty.any():
        num, den = np.add.reduceat(np.stack([best * weights, weights]), ptr[:-1][nonempty],
                                   axis=1)
        out[nonempty] = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
    return out


def asym_relevances(rows: WordMatrix, cols: WordMatrix, row_cols: np.ndarray,
                    flat: np.ndarray, ptr: np.ndarray,
                    clamp_negative: bool) -> tuple[np.ndarray, np.ndarray]:
    """Relevance of the row words to each segment of column words, and back.

    Segment `s` is the sorted distinct column ids `flat[ptr[s]:ptr[s + 1]]`;
    `row_cols[r]` is the column of row word `r`, or -1. A word scores its
    best cosine, floored at 0 or -1, against the other side's words that
    have a vector; an identical word scores exactly 1. A word with no
    vector, or facing none, scores 0 but keeps its idf weight. Each
    direction is an idf-weighted mean in word order.
    """
    # Only the columns a segment holds enter the product, so a call costs what
    # the segments hold, not the size of `cols`; `local` renumbers them, and
    # its extra last entry keeps a row_cols of -1 at -1.
    used = np.flatnonzero(np.bincount(flat, minlength=len(cols.words)))
    local = np.full(len(cols.words) + 1, -1)
    local[used] = np.arange(len(used))
    col_idf, flat, row_cols = cols.idf[flat], local[flat], local[row_cols]
    sims = rows.unit @ cols.unit[used].T
    np.clip(sims, 0.0 if clamp_negative else -1.0, 1.0, out=sims)
    same = row_cols >= 0
    sims[same, row_cols[same]] = 1.0
    sims[~rows.has_vector] = -np.inf
    sims[:, ~cols.has_vector[used]] = -np.inf
    # One row at a time keeps the gathered block at len(flat) values.
    n_rows, n_segments = len(rows.words), len(ptr) - 1
    forward = np.array([_segment_max(row[flat], ptr) for row in sims]).reshape(
        n_rows, n_segments)
    backward = sims.max(axis=0, initial=-np.inf)[flat]
    forward[forward == -np.inf] = 0.0
    backward[backward == -np.inf] = 0.0
    return (_weighted_means(forward.T.ravel(), np.tile(rows.idf, n_segments),
                            np.arange(n_segments + 1) * n_rows),
            _weighted_means(backward, col_idf, ptr))


def asym_scores(rows: WordMatrix, cols: WordMatrix, row_cols: np.ndarray, flat: np.ndarray,
                ptr: np.ndarray, clamp_negative: bool) -> list[float]:
    """Harmonic mean of both `asym_relevances` directions for each segment."""
    forward, backward = asym_relevances(rows, cols, row_cols, flat, ptr, clamp_negative)
    scores = np.zeros_like(forward)
    np.divide(2.0 * forward * backward, forward + backward, out=scores,
              where=(forward != 0.0) & (backward != 0.0))
    return scores.tolist()


def _pair(a: Iterable[str], b: Iterable[str], store: EmbeddingStore, idf_map: IdfMap,
          ) -> tuple[WordMatrix, WordMatrix, np.ndarray, np.ndarray, np.ndarray]:
    """Kernel operands for `a` against `b` as a single segment."""
    rows, cols = WordMatrix.of(a, store, idf_map), WordMatrix.of(b, store, idf_map)
    row_cols = np.array([cols.index.get(word, -1) for word in rows.words], dtype=np.intp)
    return rows, cols, row_cols, np.arange(len(cols.words)), np.array([0, len(cols.words)])


def asym(query_bag: Iterable[str], target_bag: Iterable[str], store: EmbeddingStore,
         idf_map: IdfMap, clamp_negative: bool = True) -> float:
    """IDF-weighted mean of each query word's best embedding match in the target."""
    forward, _ = asym_relevances(*_pair(query_bag, target_bag, store, idf_map), clamp_negative)
    return forward.tolist()[0]


def asym_score(bag_a: Iterable[str], bag_b: Iterable[str], store: EmbeddingStore,
               idf_map: IdfMap, clamp_negative: bool = True) -> float:
    """Harmonic mean of both directions; operands are ordered first, so a swap keeps the bits."""
    a, b = sorted([sorted(set(bag_a)), sorted(set(bag_b))])
    return asym_scores(*_pair(a, b, store, idf_map), clamp_negative)[0]
