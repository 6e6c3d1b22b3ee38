import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import synth
from crowdrank import embeddings
from crowdrank.embeddings import (EmbeddingStore, IdfMap, SimilarityTable, WordMatrix, asym,
                                  asym_score, cosine, fallback_embed, load_sentence_vectors,
                                  load_word_vectors, save_vectors, sentence_embed)

WORD_ST = st.sampled_from([f"w{i}" for i in range(12)])
BAG_ST = st.sets(WORD_ST, max_size=8)


@pytest.fixture()
def store():
    return EmbeddingStore(dim=16, fallback=True, seed=42)


@pytest.fixture()
def idf():
    return IdfMap({f"w{i}": i + 1 for i in range(12)}, 100)


class TestFallbackEmbed:
    def test_deterministic(self):
        v1 = fallback_embed("substring", seed=42)
        v2 = fallback_embed("substring", seed=42)
        assert np.array_equal(v1, v2)

    def test_unit_norm(self):
        assert np.linalg.norm(fallback_embed("parse")) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_words_differ(self):
        assert not np.array_equal(fallback_embed("parse"), fallback_embed("print"))

    def test_seed_changes_vector(self):
        assert not np.array_equal(fallback_embed("parse", seed=1),
                                  fallback_embed("parse", seed=2))

    def test_dim(self):
        assert fallback_embed("x", dim=25).shape == (25,)

    # Components 0, 1 and 99 of the default 100-dim vector, at full repr, as
    # numpy 2.4 draws them. Every hash vector, and so every ranking, rests on
    # them: a numpy whose PCG64 seeding or standard_normal stream differs
    # fails here.
    GOLDEN = {
        (42, "parse"): (0.14828908560301757, 0.06350572212254099, 0.12280365652243001),
        (42, "substring"): (-0.07898916683953505, 0.1790423897203891, 0.12213666261898384),
        (42, "é日本"): (0.10676347132886271, -0.00441888467499681, -0.12361686107118565),
        (7, "parse"): (0.014208203818593898, -0.08044708839445888, -0.03552608230801314),
        (7, "substring"): (-0.10188025599783829, -0.004307625061859389, 0.09682658648638613),
        (7, "é日本"): (-0.06501578811227919, -0.11160686977885866, 0.08398273323914768),
    }

    @pytest.mark.parametrize("seed, word", sorted(GOLDEN))
    def test_golden_values(self, seed, word):
        got = fallback_embed(word, seed)[[0, 1, 99]]
        assert np.allclose(got, self.GOLDEN[seed, word], rtol=0.0, atol=1e-12), (
            f"fallback_embed({word!r}, {seed}) moved: numpy {np.__version__} draws a "
            "different PCG64 / standard_normal stream")


class TestEmbeddingStore:
    def test_fallback_memoized(self, store):
        v1 = store.word_vector("anything")
        v2 = store.word_vector("anything")
        assert v1 is v2

    def test_no_fallback_returns_none(self):
        assert EmbeddingStore(fallback=False).word_vector("missing") is None

    def test_a_batch_is_the_scalar_lookups(self, store):
        known = store.word_vector("known")
        vecs, has = store.word_vectors(["new", "known", "new", "other"])
        assert has.tolist() == [True] * 4
        for row, word in zip(vecs, ["new", "known", "new", "other"]):
            assert row.tobytes() == EmbeddingStore(dim=16).word_vector(word).tobytes()
        assert store.word_vecs["known"] is known
        assert sorted(store.word_vecs) == ["known", "new", "other"]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(max_size=6), max_size=40), st.sampled_from([0, 42, -1, 2**40]),
           st.sampled_from([1, 2, 100]))
    @example(["", "é", "日本語", "", "parse"] * 4, 42, 100)
    @example(["", "é"], -1, 1)
    def test_bit_equal_to_fallback_embed(self, words, seed, dim):
        store = EmbeddingStore(dim=dim, seed=seed)
        got, has = store.word_vectors(words)
        assert got.shape == (len(words), dim) and got.dtype == np.float64
        assert has.tolist() == [True] * len(words)
        for row, word in zip(got, words):
            assert row.tobytes() == store.word_vector(word).tobytes()
            assert row.tobytes() == fallback_embed(word, seed, dim).tobytes()

    def test_a_batch_without_fallback(self):
        store = EmbeddingStore(dim=3, fallback=False)
        store.word_vecs["known"] = np.array([1.0, 0.0, 2.0])
        vecs, has = store.word_vectors(["missing", "known"])
        assert vecs.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 2.0]]
        assert has.tolist() == [False, True]
        assert store.word_vectors([])[0].shape == (0, 3)
        assert sorted(store.word_vecs) == ["known"]


class TestVectorFiles:
    def write(self, path, lines):
        path.write_text("\n".join(lines) + "\n", "utf-8")
        return path

    def test_round_trip_exact(self, tmp_path):
        vecs = {"alpha": fallback_embed("alpha", dim=8), "beta": fallback_embed("beta", dim=8)}
        path = tmp_path / "w.vec"
        save_vectors(vecs, 8, path)
        loaded = load_word_vectors(path)
        assert loaded.dim == 8
        for word in vecs:
            assert np.array_equal(loaded.word_vecs[word], vecs[word])

    def test_missing_header(self, tmp_path):
        path = self.write(tmp_path / "w.vec", ["alpha 1.0 2.0"])
        with pytest.raises(ValueError):
            load_word_vectors(path)

    def test_wrong_component_count(self, tmp_path):
        path = self.write(tmp_path / "w.vec", ["1 3", "alpha 1.0 2.0"])
        with pytest.raises(ValueError):
            load_word_vectors(path)

    def test_duplicate_key_warns_last_wins(self, tmp_path):
        path = self.write(tmp_path / "w.vec", ["2 2", "alpha 1 0", "alpha 0 1"])
        with pytest.warns(UserWarning, match="duplicate"):
            loaded = load_word_vectors(path)
        assert np.array_equal(loaded.word_vecs["alpha"], np.array([0.0, 1.0]))

    def test_sentence_dim_mismatch(self, tmp_path, store):
        path = self.write(tmp_path / "s.vec", ["1 2", "7 1.0 0.0"])
        with pytest.raises(ValueError):
            load_sentence_vectors(path, store)

    def test_sentence_int_keys(self, tmp_path):
        path = self.write(tmp_path / "s.vec", ["1 2", "7 1.0 0.0"])
        loaded = load_sentence_vectors(path)
        assert np.array_equal(loaded.sentence_vecs[7], np.array([1.0, 0.0]))

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf", "NaN", "1e999"])
    @pytest.mark.parametrize("load, key", [(load_word_vectors, "beta"),
                                           (load_sentence_vectors, "8")])
    def test_non_finite_component_names_the_line(self, tmp_path, load, key, component):
        path = self.write(tmp_path / "v.vec", ["2 3", "7 1 0 0" if key == "8" else "alpha 1 0 0",
                                               f"{key} {component} 0.5 0.25"])
        with pytest.raises(ValueError, match=rf"^{path}:3: .*{key}.* not finite"):
            load(path)

    @pytest.mark.parametrize("line", ["alpha 1 x", "alpha 1 0x1p3"])
    def test_unparsable_component_names_the_line(self, tmp_path, line):
        path = self.write(tmp_path / "w.vec", ["1 2", line])
        with pytest.raises(ValueError, match=rf"^{path}:2: could not convert"):
            load_word_vectors(path)

    def test_non_integer_sentence_key_names_the_line(self, tmp_path):
        path = self.write(tmp_path / "s.vec", ["1 2", "seven 1 0"])
        with pytest.raises(ValueError, match=rf"^{path}:2: invalid literal"):
            load_sentence_vectors(path)

    @pytest.mark.parametrize("header", ["x 3", "2", "2 3 4", ""])
    def test_bad_header_names_the_file(self, tmp_path, header):
        path = self.write(tmp_path / "w.vec", [header, "alpha 1 0 0"])
        with pytest.raises(ValueError, match=f"header in {path}$"):
            load_word_vectors(path)

    @pytest.mark.parametrize("load", [load_word_vectors, load_sentence_vectors])
    @pytest.mark.parametrize("content", [b"\xff\xfe", b"1 2\nalpha 1 \xff\n"])
    def test_non_utf8_file_is_named(self, tmp_path, load, content):
        path = tmp_path / "v.vec"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=rf"^{path}: not UTF-8"):
            load(path)


class TestIdfMap:
    def test_formula(self):
        idf = IdfMap({"common": 100, "rare": 1}, 100)
        assert idf.idf("common") == pytest.approx(0.0, abs=1e-15)
        assert idf.idf("rare") == pytest.approx(2.0, abs=1e-12)

    def test_unknown_word_max_weight(self):
        idf = IdfMap({"seen": 10}, 1000)
        assert idf.idf("never") == pytest.approx(3.0, abs=1e-12)

    def test_lookup_keeps_the_formula_bits(self):
        df = {f"w{i}": i * 37 % 991 + 1 for i in range(200)}
        idf = IdfMap(df, 1000)
        assert all(idf.idf(w) == math.log10(1000 / d) for w, d in df.items())
        assert idf.idf("never") == math.log10(1000 / 1)

    def test_doc_count_must_be_positive(self):
        with pytest.raises(ValueError):
            IdfMap({}, 0)


class TestCosine:
    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_identical(self):
        assert cosine(np.array([2.0, 3.0]), np.array([2.0, 3.0])) == pytest.approx(1.0)

    def test_forty_five_degrees(self):
        value = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert value == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_zero_vector(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.zeros(4))


class TestSentenceEmbed:
    def test_weighted_mean(self):
        store = EmbeddingStore(dim=2, fallback=False)
        store.word_vecs = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        idf = IdfMap({"a": 1, "b": 10}, 100)  # idf(a)=2, idf(b)=1
        vec = sentence_embed({"a": 1, "b": 1}, store, idf)
        expected = (2.0 * np.array([1.0, 0.0]) + 1.0 * np.array([0.0, 1.0])) / 3.0
        assert np.allclose(vec, expected, atol=1e-12)

    def test_no_known_words(self):
        store = EmbeddingStore(dim=2, fallback=False)
        assert np.array_equal(sentence_embed({"x": 1}, store, IdfMap({}, 10)),
                              np.zeros(2))

    # A bag in its own order, with counts; w0 has df 100 of 100 docs, so
    # idf 0 and no weight. The store holds vectors for some words only.
    COUNTED_BAG_ST = st.dictionaries(WORD_ST, st.integers(1, 5), max_size=8).flatmap(
        lambda bag: st.permutations(sorted(bag.items())).map(dict))

    @settings(max_examples=200, deadline=None)
    @given(COUNTED_BAG_ST, st.sets(WORD_ST), st.integers(0, 2**32 - 1))
    def test_bit_equal_to_the_batch_of_one_bag(self, bag, with_vector, seed):
        rng = np.random.default_rng(seed)
        store = EmbeddingStore(dim=6, fallback=False)
        store.word_vecs = {w: rng.standard_normal(6) * 10.0 ** rng.integers(-3, 4)
                           for w in sorted(with_vector)}
        idf = IdfMap({f"w{i}": 100 if i == 0 else i + 1 for i in range(12)}, 100)
        words = list(bag)
        want = embeddings.sentence_vectors(
            words, np.array([idf.idf(w) for w in words]), np.array([0, len(words)]),
            np.arange(len(words)), np.array(list(bag.values()), dtype=np.int64), store)[0]
        got = sentence_embed(bag, store, idf)
        assert [float.hex(x) for x in got.tolist()] == [float.hex(x) for x in want.tolist()]

    def test_zero_weight_and_vectorless_bags_are_zero(self):
        store = EmbeddingStore(dim=3, fallback=False)
        store.word_vecs = {"w0": np.array([1.0, 2.0, 3.0])}
        idf = IdfMap({"w0": 10}, 10)  # idf 0
        for bag in ({}, {"w0": 2}, {"w5": 1}, {"w0": 1, "w5": 3}):
            assert sentence_embed(bag, store, idf).tolist() == [0.0, 0.0, 0.0]


class TestAsym:
    def test_derived_example(self):
        # Q={a,b}, T={a}; cos(b,a)=0.5; both idfs 1 => (1 + 0.5)/2 = 0.75
        store = EmbeddingStore(dim=2, fallback=False)
        store.word_vecs = {"a": np.array([1.0, 0.0]),
                           "b": np.array([0.5, math.sqrt(3.0) / 2.0])}
        idf = IdfMap({"a": 1, "b": 1}, 10)
        assert asym({"a", "b"}, {"a"}, store, idf) == pytest.approx(0.75, abs=1e-12)

    def test_empty_query(self, store, idf):
        assert asym(set(), {"w1"}, store, idf) == 0.0

    def test_subset_is_exactly_one(self, store, idf):
        assert asym({"w1", "w2"}, {"w0", "w1", "w2", "w3"}, store, idf) == 1.0

    def test_matches_oracle(self, store, idf):
        rngs = [({"w1", "w3", "w5"}, {"w2", "w3"}), ({"w0"}, {"w9", "w4"})]
        vectors = {w: list(store.word_vector(w)) for w in (f"w{i}" for i in range(12))}
        for q, t in rngs:
            expected = synth.asym_oracle(q, t, vectors, idf.idf)
            assert asym(q, t, store, idf) == pytest.approx(expected, abs=1e-9)

    def test_clamp_flag(self, idf):
        store = EmbeddingStore(dim=2, fallback=False)
        store.word_vecs = {"w1": np.array([1.0, 0.0]), "w2": np.array([-1.0, 0.0])}
        assert asym({"w1"}, {"w2"}, store, idf, clamp_negative=True) == 0.0
        assert asym({"w1"}, {"w2"}, store, idf, clamp_negative=False) == pytest.approx(-1.0)

    @settings(max_examples=150)
    @given(BAG_ST, BAG_ST)
    def test_score_symmetric_and_bounded(self, a, b):
        store = EmbeddingStore(dim=8, fallback=True, seed=3)
        idf = IdfMap({f"w{i}": i + 1 for i in range(12)}, 100)
        ab = asym_score(a, b, store, idf)
        ba = asym_score(b, a, store, idf)
        assert ab == ba
        assert 0.0 <= ab <= 1.0 + 1e-12

    def test_score_zero_direction(self, store, idf):
        assert asym_score(set(), {"w1"}, store, idf) == 0.0

    def test_score_harmonic_mean(self, store, idf):
        a, b = {"w1", "w2"}, {"w2", "w7"}
        f = asym(a, b, store, idf)
        g = asym(b, a, store, idf)
        expected = 2.0 * f * g / (f + g)
        assert asym_score(a, b, store, idf) == pytest.approx(expected, abs=1e-12)

    @pytest.fixture()
    def sparse_store(self, store):
        # No fallback: w8-w11 have no vector, w7 has a zero vector.
        sparse = EmbeddingStore(dim=16, fallback=False)
        sparse.word_vecs = {f"w{i}": store.word_vector(f"w{i}") for i in range(7)}
        sparse.word_vecs["w7"] = np.zeros(16)
        return sparse

    @pytest.mark.parametrize("q, t", [
        ({"w1", "w8"}, {"w2", "w9"}),         # words with no vector on both sides
        ({"w8", "w1"}, {"w8", "w3"}),         # identical word with no vector
        ({"w7", "w2"}, {"w7", "w4"}),         # identical zero vector scores 1
        ({"w7", "w5"}, {"w1", "w6"}),         # zero vector faces real ones
        ({"w0", "w3"}, {"w7"}),               # only a zero vector to match
        ({"w2", "w4"}, {"w9", "w10", "w11"}), # no target vector at all
        ({"w10", "w11"}, {"w1", "w2"}),       # no query vector at all
    ])
    def test_missing_and_zero_vectors_match_oracle(self, sparse_store, idf, q, t):
        vectors = {w: list(v) for w, v in sparse_store.word_vecs.items()}
        forward = synth.asym_oracle(q, t, vectors, idf.idf)
        backward = synth.asym_oracle(t, q, vectors, idf.idf)
        assert asym(q, t, sparse_store, idf) == pytest.approx(forward, abs=1e-12)
        expected = 2.0 * forward * backward / (forward + backward) if forward and backward else 0.0
        assert asym_score(q, t, sparse_store, idf) == pytest.approx(expected, abs=1e-12)
        assert asym_score(t, q, sparse_store, idf) == asym_score(q, t, sparse_store, idf)

    def test_unclamped_negative_cosines(self):
        # cos(a,b) = -0.28, cos(d,b) = -0.96; idf(a) = 1, idf(d) = 2.
        store = EmbeddingStore(dim=2, fallback=False)
        store.word_vecs = {"a": np.array([1.0, 0.0]), "d": np.array([0.0, 2.0]),
                           "b": np.array([-0.28, -0.96])}
        idf = IdfMap({"a": 10, "d": 1, "b": 10}, 100)
        forward = (-0.28 * 1.0 - 0.96 * 2.0) / 3.0
        backward = -0.28  # b's best match is a
        assert asym({"a", "d"}, {"b"}, store, idf, clamp_negative=False) == pytest.approx(
            forward, abs=1e-12)
        assert asym({"b"}, {"a", "d"}, store, idf, clamp_negative=False) == pytest.approx(
            backward, abs=1e-12)
        assert asym_score({"a", "d"}, {"b"}, store, idf, clamp_negative=False) == pytest.approx(
            2.0 * forward * backward / (forward + backward), abs=1e-12)
        assert asym({"a", "d"}, {"b"}, store, idf) == 0.0

    def test_unclamped_without_target_vectors_is_zero(self):
        store = EmbeddingStore(dim=2, fallback=False)
        store.word_vecs = {"a": np.array([1.0, 0.0])}
        idf = IdfMap({"a": 10}, 100)
        assert asym({"a"}, {"ghost"}, store, idf, clamp_negative=False) == 0.0
        assert asym({"a", "ghost"}, {"ghost"}, store, idf, clamp_negative=False) == 0.0
        assert asym({"a"}, set(), store, idf, clamp_negative=False) == 0.0
        assert asym_score({"a"}, {"ghost"}, store, idf, clamp_negative=False) == 0.0

    def test_returns_python_floats(self, store, idf):
        assert type(asym({"w1"}, {"w2", "w3"}, store, idf)) is float
        assert type(asym_score({"w1", "w4"}, {"w2", "w3"}, store, idf)) is float


def segment_maxes_by_row(values, ptr):
    """Per row and segment, the maximum of a plain loop; -inf for an empty segment."""
    return np.array([[max(row[lo:hi].tolist(), default=-np.inf)
                      for lo, hi in zip(ptr[:-1].tolist(), ptr[1:].tolist())]
                     for row in values]).reshape(len(values), len(ptr) - 1)


class TestForwardReduce:
    @given(st.integers(0, 4), st.lists(st.integers(0, 3), max_size=7), st.data())
    def test_matches_the_per_row_reduce(self, n_rows, lengths, data):
        ptr = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
        values = np.array(data.draw(st.lists(
            st.floats(-1.0, 1.0) | st.just(-np.inf), min_size=n_rows * int(ptr[-1]),
            max_size=n_rows * int(ptr[-1])))).reshape(n_rows, int(ptr[-1]))
        got = embeddings._segment_maxes(values, ptr)
        want = segment_maxes_by_row(values, ptr)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("clamp", [True, False])
    def test_row_blocks_keep_the_bits(self, store, idf, monkeypatch, clamp):
        words = [f"w{i}" for i in range(12)]
        rows = WordMatrix.of(["w1", "w3", "w5", "w11"], store, idf)
        cols = WordMatrix.of(words, store, idf)
        row_cols = np.array([cols.index[w] for w in rows.words])
        # Segments with and without the query words, and two empty ones.
        flat = np.array([0, 2, 4, 1, 3, 5, 6, 7, 8, 9, 10, 11, 3])
        ptr = np.array([0, 3, 3, 6, 12, 12, 13])
        whole = SimilarityTable(rows, cols, row_cols, clamp).relevances(flat, ptr)
        monkeypatch.setattr(embeddings, "_BLOCK_VALUES", 20)  # a row per block
        blocked = SimilarityTable(rows, cols, row_cols, clamp).relevances(flat, ptr)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, blocked))


SEGMENTS_ST = st.lists(st.lists(st.sets(st.integers(0, 199), max_size=40).map(sorted),
                                max_size=6), min_size=1, max_size=3)


class TestSimilarityTable:
    """A search's table scores each column once; the scores do not depend on
    which segments reached a column first."""

    WORDS = sorted(f"w{i}" for i in range(200))
    IDF = IdfMap({w: 1 + i % 7 for i, w in enumerate(WORDS)}, 50)

    def table(self, clamp, query=("w3", "w17", "w40", "w41", "w199", "zzz")):
        # Every fifth word in sorted order has no vector, w40 has a zero
        # vector, and the query word zzz is not in the vocabulary.
        store = EmbeddingStore(fallback=False)
        store.word_vecs = {w: fallback_embed(w) for i, w in enumerate(self.WORDS) if i % 5}
        store.word_vecs["w40"] = np.zeros(store.dim)
        rows = WordMatrix.of(query, store, self.IDF)
        cols = WordMatrix(self.WORDS, store, self.IDF)
        row_cols = np.array([cols.index.get(w, -1) for w in rows.words])
        return SimilarityTable(rows, cols, row_cols, clamp)

    @settings(max_examples=40, deadline=None)
    @given(SEGMENTS_ST, st.booleans())
    def test_cover_order_keeps_the_bits(self, stages, clamp):
        stages = [(np.array([i for seg in segs for i in seg], dtype=np.int64),
                   np.cumsum([0] + [len(seg) for seg in segs])) for segs in stages]

        def hexes(table_of_stage):
            return [[x.hex() for x in table_of_stage().scores(*stage).tolist()]
                    for stage in stages]

        in_turn = self.table(clamp)
        want = hexes(lambda: in_turn)
        union = self.table(clamp)
        union.cover(np.concatenate([flat for flat, _ in stages]))
        assert hexes(lambda: union) == want
        assert hexes(lambda: self.table(clamp)) == want
        # Only the covered columns are held, each once.
        held = np.unique(np.concatenate([flat for flat, _ in stages]))
        assert np.flatnonzero(in_turn.column[:-1] >= 0).tolist() == held.tolist()
        assert in_turn.sims.shape == (6, len(held)) and in_turn.backward.shape == (2, len(held))
        assert sorted(in_turn.column[held].tolist()) == list(range(len(held)))

    @pytest.mark.parametrize("clamp", [True, False])
    def test_segments_match_one_segment_asym(self, clamp):
        table = self.table(clamp)
        flat = np.array([3, 17, 40, 41, 60, 61, 62, 63, 64, 65, 150], dtype=np.int64)
        ptr = np.array([0, 2, 4, 4, 11])
        forward, backward = table.relevances(flat, ptr)
        query, store = table.rows.words, table.cols.store
        for s in range(len(ptr) - 1):
            target = [self.WORDS[i] for i in flat[ptr[s]:ptr[s + 1]].tolist()]
            assert forward[s] == asym(query, target, store, self.IDF, clamp)
            assert backward[s] == pytest.approx(asym(target, query, store, self.IDF, clamp),
                                                abs=1e-12)
