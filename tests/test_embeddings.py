import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import synth
from crowdrank.embeddings import (EmbeddingConfig, EmbeddingStore, IdfMap, asym,
                                  asym_score, cosine, fallback_embed,
                                  load_sentence_vectors, load_word_vectors,
                                  save_vectors, sentence_embed)

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


class TestEmbeddingStore:
    def test_fallback_memoized(self, store):
        v1 = store.word_vector("anything")
        v2 = store.word_vector("anything")
        assert v1 is v2

    def test_no_fallback_returns_none(self):
        assert EmbeddingStore(fallback=False).word_vector("missing") is None


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


class TestEmbeddingConfig:
    def test_round_trip(self):
        cfg = EmbeddingConfig(dim=50)
        assert cfg.to_json() == {"dim": 50}
        assert EmbeddingConfig(**cfg.to_json()) == cfg


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

    def test_from_documents_uses_distinct_words(self):
        idf = IdfMap.from_documents([["a", "a", "b"], ["b"]])
        assert idf.df == {"a": 1, "b": 2}
        assert idf.doc_count == 2

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
