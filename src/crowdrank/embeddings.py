"""Word/sentence vector stores, IDF map, and embedding similarities.

Vector file format: first line ``vocab_size dim``, then one entry per line,
``key v1 ... v_dim`` space-separated. Word files key by word; sentence files
key by integer question id.

Word vectors can also come from a deterministic seeded hash embedder so the
whole pipeline runs without trained models: `fallback_embed` makes a word's
vector, and the store calls it once for each word it lacks, on first lookup.

The asymmetric relevance of Ye et al. (ICSE 2016) is scored through a
`SimilarityTable` of the query words against the vocabulary. A search makes
one, with its clamp setting, and every asym target of the search is a segment
of vocabulary ids read from it: each (query word, vocabulary word) similarity
is computed once per search, however many targets hold the word. `asym` and
`asym_score` score one bag against another as a table with one segment.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

DEFAULT_DIM = 100
DEFAULT_SEED = 42


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

    def word_vectors(self, words: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """`word_vector` of each word as a row, a zero row for None, and
        whether each word has a vector."""
        vecs = [self.word_vector(word) for word in words]
        zero = np.zeros(self.dim)
        return (np.array([zero if vec is None else vec for vec in vecs]).reshape(-1, self.dim),
                np.array([vec is not None for vec in vecs], dtype=bool))


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
    """A vector file's dim and its vectors by key; ValueError, naming the file
    (and `path:lineno` for a bad entry), for a file that is not UTF-8, lacks
    the header, gives a dim below 1, or holds a bad key or a component that
    is not a finite number."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().split()
            try:
                count, dim = map(int, header)
            except ValueError:  # not two integers
                raise ValueError(f"missing 'vocab_size dim' header in {path}") from None
            if dim < 1:
                raise ValueError(f"{path}: header gives dim {dim}, not a positive integer")
            keyed: dict = {}
            for lineno, line in enumerate(fh, start=2):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != dim + 1:
                    raise ValueError(f"{path}:{lineno}: expected {dim} components, "
                                     f"got {len(parts) - 1}")
                try:
                    key = int(parts[0]) if int_keys else parts[0]
                    vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if not np.isfinite(vec).all():
                    raise ValueError(f"{path}:{lineno}: the vector of {key!r} has a "
                                     "component that is not finite")
                if key in keyed:
                    warnings.warn(f"{path}:{lineno}: duplicate key {key!r}, last wins")
                keyed[key] = vec
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
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
    table[:, :dim], table[:, dim] = store.word_vectors([words[i] for i in used.tolist()])
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
    """Built-in sentence embedder: IDF-weighted mean of word vectors, the row
    `sentence_vectors` makes of the one bag, bit for bit.

    The same sum, without the batch: each word's vector, with a last
    component of 1, times its weight, added in bag order.
    """
    dim = store.dim
    total = np.zeros(dim + 1)
    row = np.ones(dim + 1)
    for word, count in bag.items():
        vec = store.word_vector(word)
        if vec is not None:  # a word with no vector adds zeros
            row[:dim] = vec
            total += (count * idf_map.idf(word)) * row
    out = np.zeros(dim)
    np.divide(total[:dim], total[dim:], out=out, where=total[dim:] != 0.0)
    return out


class WordMatrix:
    """Sorted distinct words with their idf and unit-norm vectors, one row each.

    Rows are looked up in the store when `fill` first asks for them: a zero
    vector stays a zero row, and a word the store has no vector for is left
    out of `has_vector`. A `SimilarityTable` takes one matrix as its rows (the
    query) and one as its columns (a target bag, or the whole corpus
    vocabulary).
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
        """Look up the rows of the distinct `ids` that have not been looked up yet."""
        new = ids[~self._looked_up[ids]]
        if not new.size:
            return
        vecs, ok = self.store.word_vectors([self.words[i] for i in new.tolist()])
        if ok.any():
            rows = vecs[ok]
            norms = np.linalg.norm(rows, axis=1, keepdims=True)
            self.unit[new[ok]] = np.divide(rows, norms, out=rows, where=norms > 0.0)
        self.has_vector[new] = ok
        self._looked_up[new] = True


# The most values (8 MB of float64) one gathered block of the asym kernel
# holds; a query's rows over a stage's segments are one block.
_BLOCK_VALUES = 1 << 20
# A similarity table scores its columns this many at a time, as products of
# one shape. BLAS may round a dot product's last bit differently in products
# of other shapes, or at other positions in a part-filled block; one shape of
# whole blocks makes each similarity the same however the segments of a
# search reach its column.
_COLUMN_BLOCK = 64


def _segment_maxes(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Maximum of each segment of each row of `values`, a row per row and a
    column per segment; -inf for an empty segment."""
    out = np.full((len(values), len(ptr) - 1), -np.inf)
    nonempty = ptr[1:] > ptr[:-1]
    if nonempty.any():
        out[:, nonempty] = np.maximum.reduceat(values, ptr[:-1][nonempty], axis=1)
    return out


def _weighted_means(terms: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Weighted mean over each segment of values whose products with their
    weights are `terms[0]` and whose weights are `terms[1]`; 0 for no weight.

    The numerator and the denominator are summed by one reduction in one
    order, so a segment whose values are all 1 gives exactly 1.
    """
    out = np.zeros(len(ptr) - 1)
    nonempty = ptr[1:] > ptr[:-1]
    if nonempty.any():
        num, den = np.add.reduceat(terms, ptr[:-1][nonempty], axis=1)
        out[nonempty] = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
    return out


class SimilarityTable:
    """One search's similarities of the query words (its rows) to the
    vocabulary words (its columns) that the asym targets hold.

    `row_cols[r]` is the column of row word `r`, or -1. A held column keeps
    each row's cosine, floored at 0 (`clamp_negative`) or -1, exactly 1 for an
    identical word, and -inf where either word has no vector (`sims`); and
    its best value over the rows, the backward direction, 0 for none, times
    its idf, beside that idf (`backward`). Columns are scored as segments
    first reach them, so the table grows with what the segments hold, not
    with the vocabulary, and a column is scored once.
    """

    def __init__(self, rows: WordMatrix, cols: WordMatrix, row_cols: np.ndarray,
                 clamp_negative: bool):
        self.rows, self.cols, self.row_cols = rows, cols, row_cols
        self.floor = 0.0 if clamp_negative else -1.0
        # The table column of each vocabulary id, -1 while not held; the extra
        # last entry keeps a row_cols of -1 at -1.
        self.column = np.full(len(cols.words) + 1, -1, dtype=np.intp)
        self.sims = np.zeros((len(rows.words), 0))
        self.backward = np.zeros((2, 0))

    def cover(self, flat: np.ndarray) -> None:
        """Score the columns of the ids in `flat` that the table does not hold."""
        # A mark, not np.unique, which hashes first (numpy 2) and is slower here.
        mark = np.zeros(len(self.column), dtype=bool)
        mark[flat] = True
        mark &= self.column < 0
        new = np.flatnonzero(mark)
        if not new.size:
            return
        self.cols.fill(new)
        rows, held = self.rows, self.sims.shape[1]
        # The new columns' vectors in whole blocks, the last one padded with
        # repeats of the last column, and one product per block.
        padded = np.full(-(-len(new) // _COLUMN_BLOCK) * _COLUMN_BLOCK, new[-1])
        padded[:len(new)] = new
        blocks = np.take(self.cols.unit, padded, axis=0).reshape(
            -1, _COLUMN_BLOCK, self.cols.unit.shape[1]).transpose(0, 2, 1)
        sims = np.matmul(rows.unit, blocks).transpose(1, 0, 2).reshape(
            len(rows.words), len(padded))[:, :len(new)]
        np.clip(sims, self.floor, 1.0, out=sims)
        self.column[new] = np.arange(held, held + len(new))
        local = self.column[self.row_cols] - held
        same = local >= 0
        sims[same, local[same]] = 1.0
        sims[~rows.has_vector] = -np.inf
        sims[:, ~self.cols.has_vector[new]] = -np.inf
        best = sims.max(axis=0, initial=-np.inf)
        best[best == -np.inf] = 0.0
        idf = self.cols.idf[new]
        self.sims = np.concatenate([self.sims, sims], axis=1)
        self.backward = np.concatenate([self.backward, [best * idf, idf]], axis=1)

    def relevances(self, flat: np.ndarray, ptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Relevance of the row words to each segment of column words, and back.

        Segment `s` is the sorted distinct column ids `flat[ptr[s]:ptr[s + 1]]`.
        A word scores its best value against the other side's words; a word
        with no vector, or facing none, scores 0 but keeps its idf weight.
        Each direction is an idf-weighted mean in word order.
        """
        self.cover(flat)
        at = self.column[flat]
        # The rows' values at the segments' words, in blocks of rows that bound
        # the gathered values (`np.take` gathers columns faster than `[:, at]`).
        n_rows, n_segments = len(self.rows.words), len(ptr) - 1
        step = max(1, _BLOCK_VALUES // max(len(flat), 1))
        forward = np.concatenate([_segment_maxes(np.take(self.sims[lo:lo + step], at, axis=1), ptr)
                                  for lo in range(0, n_rows, step)]
                                 or [np.zeros((0, n_segments))])
        forward[forward == -np.inf] = 0.0
        forward, idf = forward.T.ravel(), np.tile(self.rows.idf, n_segments)
        return (_weighted_means(np.stack([forward * idf, idf]), np.arange(n_segments + 1) * n_rows),
                _weighted_means(np.take(self.backward, at, axis=1), ptr))

    def scores(self, flat: np.ndarray, ptr: np.ndarray) -> np.ndarray:
        """Harmonic mean of both `relevances` directions for each segment."""
        forward, backward = self.relevances(flat, ptr)
        scores = np.zeros_like(forward)
        np.divide(2.0 * forward * backward, forward + backward, out=scores,
                  where=(forward != 0.0) & (backward != 0.0))
        return scores


def _pair(a: Iterable[str], b: Iterable[str], store: EmbeddingStore, idf_map: IdfMap,
          clamp_negative: bool) -> tuple[SimilarityTable, np.ndarray, np.ndarray]:
    """A table of `a` against `b`, and `b` as its single segment."""
    rows, cols = WordMatrix.of(a, store, idf_map), WordMatrix.of(b, store, idf_map)
    row_cols = np.array([cols.index.get(word, -1) for word in rows.words], dtype=np.intp)
    return (SimilarityTable(rows, cols, row_cols, clamp_negative), np.arange(len(cols.words)),
            np.array([0, len(cols.words)]))


def asym(query_bag: Iterable[str], target_bag: Iterable[str], store: EmbeddingStore,
         idf_map: IdfMap, clamp_negative: bool = True) -> float:
    """IDF-weighted mean of each query word's best embedding match in the target."""
    table, flat, ptr = _pair(query_bag, target_bag, store, idf_map, clamp_negative)
    return table.relevances(flat, ptr)[0].tolist()[0]


def asym_score(bag_a: Iterable[str], bag_b: Iterable[str], store: EmbeddingStore,
               idf_map: IdfMap, clamp_negative: bool = True) -> float:
    """Harmonic mean of both directions; operands are ordered first, so a swap keeps the bits."""
    a, b = sorted([sorted(set(bag_a)), sorted(set(bag_b))])
    table, flat, ptr = _pair(a, b, store, idf_map, clamp_negative)
    return table.scores(flat, ptr).tolist()[0]
