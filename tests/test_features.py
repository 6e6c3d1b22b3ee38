import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import crowdrank
import synth
from crowdrank.embeddings import IdfMap
from crowdrank.features import (ANSWER_FEATURES, METHOD_KEYWORDS, QUESTION_SCORE_LADDER,
                                THREAD_FEATURES, WeightConfig, extract_methods,
                                cosines, normalize_and_fuse, question_score_value,
                                question_score_values, tf_cosine, tf_score, tfidf_cosine,
                                tfidf_score, top_method_score)

BAG_ST = st.dictionaries(st.sampled_from([f"w{i}" for i in range(10)]),
                         st.integers(min_value=1, max_value=5), max_size=8)


class TestWeightConfig:
    def test_defaults(self):
        config = WeightConfig()
        assert all(config.thread_weights[f] == 0.5 for f in THREAD_FEATURES)
        assert config.answer_weights == {"asym": 1.0, "tfidf": 0.5,
                                         "top_method": 0.75, "thread_score": 0.75}
        assert (config.bm25_top, config.stage1_keep, config.stage2_keep,
                config.answer_k) == (500, 250, 100, 150)

    def test_missing_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightConfig(thread_weights={"tf": 0.5})

    def test_negative_weight_rejected(self):
        weights = {f: 0.5 for f in THREAD_FEATURES}
        weights["tf"] = -0.1
        with pytest.raises(ValueError):
            WeightConfig(thread_weights=weights)

    def test_bad_funnel_rejected(self):
        with pytest.raises(ValueError):
            WeightConfig(bm25_top=100, stage1_keep=250)

    def test_filter_targets(self):
        config = WeightConfig(antonym_enabled=True, antonym_targets="TR_ANS")
        assert config.filter_threads and config.filter_answers
        config = WeightConfig(antonym_enabled=True, antonym_targets="ANS")
        assert not config.filter_threads and config.filter_answers
        config = WeightConfig()
        assert not config.filter_threads and not config.filter_answers

    def test_save_load_round_trip(self, tmp_path):
        config = WeightConfig(antonym_enabled=True, antonym_pos_mode="VB",
                              antonym_targets="TR", method_scale=8.0)
        config.thread_weights["tf"] = 0.25
        path = tmp_path / "weights.cfg"
        config.save(path)
        loaded = WeightConfig.load(path)
        assert loaded == config

    def test_load_unknown_key(self, tmp_path):
        path = tmp_path / "weights.cfg"
        path.write_text("mystery=1\n")
        with pytest.raises(ValueError):
            WeightConfig.load(path)

    @pytest.mark.parametrize("line, named", [
        ("thread_weight.tff=0.3", "'tff'"),
        ("answer_weight.asymm=1.0", "'asymm'"),
        ("antonym_pos_mode=XX", "'XX'"),
        ("thread_weight.sentence=nan", "'sentence'"),
        ("answer_weight.asym=inf", "'asym'"),
        ("thread_weight.tf=-inf", "'tf'"),
        ("method_scale=nan", "method_scale"),
        ("method_scale=inf", "method_scale"),
        ("answer_weight.asym=1e308\nanswer_weight.tfidf=1e308", "answer weights"),
        ("thread_weight.tf=1.5e308\nthread_weight.sentence=1.5e308", "thread weights"),
        ("final_n=0", "final_n"),
        ("final_n=-5", "final_n"),
    ])
    def test_load_rejects_unknown_feature_or_pos_mode(self, tmp_path, line, named):
        path = tmp_path / "weights.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=named):
            WeightConfig.load(path)


class TestTfScore:
    def test_fixture(self):
        # dot=2, |q|=sqrt(2), |t|=sqrt(5) => 2/sqrt(10)
        value = tf_score({"a": 1, "b": 1}, {"a": 2, "c": 1})
        assert value == pytest.approx(2.0 / math.sqrt(10.0), abs=1e-12)

    def test_empty(self):
        assert tf_score({}, {"a": 1}) == 0.0
        assert tf_score({"a": 1}, {}) == 0.0

    def test_identical_bags(self):
        assert tf_score({"a": 2, "b": 1}, {"a": 2, "b": 1}) == pytest.approx(1.0)

    @given(BAG_ST, BAG_ST)
    def test_matches_oracle(self, q, t):
        assert tf_score(q, t) == pytest.approx(synth.tf_oracle(q, t), abs=1e-9)


class TestTfidfScore:
    def test_fixture_uniform_idf(self):
        idf = IdfMap({"a": 10, "b": 10}, 100)  # both idf=1
        value = tfidf_score({"a": 1, "b": 1}, {"a": 1}, idf)
        assert value == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_zero_weight_side(self):
        idf = IdfMap({"a": 100}, 100)  # idf(a)=0
        assert tfidf_score({"a": 1}, {"a": 1}, idf) == 0.0

    @given(BAG_ST, BAG_ST)
    def test_matches_oracle(self, q, t):
        idf = IdfMap({f"w{i}": i + 1 for i in range(10)}, 50)
        assert tfidf_score(q, t, idf) == pytest.approx(
            synth.tfidf_oracle(q, t, idf.idf), abs=1e-9)

    def test_bits_do_not_depend_on_the_hash_seed(self):
        script = ("from crowdrank.embeddings import IdfMap\n"
                  "from crowdrank.features import tfidf_score\n"
                  "words = [f'w{i}' for i in range(200)]\n"
                  "idf = IdfMap({w: i * 37 % 991 + 1 for i, w in enumerate(words)}, 1000)\n"
                  "q = {w: i * 13 % 29 + 1 for i, w in enumerate(words)}\n"
                  "a = {w: i * 7 % 23 + 1 for i, w in enumerate(words)}\n"
                  "print(repr(tfidf_score(q, a, idf)))\n")
        src = str(Path(crowdrank.__file__).parent.parent)
        outputs = {subprocess.run([sys.executable, "-c", script], check=True, text=True,
                                  capture_output=True,
                                  env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src),
                                  ).stdout for seed in range(4)}
        assert len(outputs) == 1


class TestQuestionScoreLadder:
    LADDER_CASES = [(1, 0.1), (5, 0.2), (10, 0.3), (25, 0.4), (50, 0.5),
                    (75, 0.6), (100, 0.7), (200, 0.8), (500, 0.9), (501, 1.0)]

    @pytest.mark.parametrize("score,expected", LADDER_CASES)
    def test_upper_bounds(self, score, expected):
        assert question_score_value(score) == expected

    @pytest.mark.parametrize("score,expected",
                             [(2, 0.2), (6, 0.3), (11, 0.4), (26, 0.5), (51, 0.6),
                              (76, 0.7), (101, 0.8), (201, 0.9), (10000, 1.0)])
    def test_just_above_bounds(self, score, expected):
        assert question_score_value(score) == expected


def bits(values):
    """The IEEE bits of each float, to compare results bit for bit."""
    return [float(v).hex() for v in values]


class TestArrayForms:
    """The per-candidate scalar forms against the engine's array forms."""

    @given(st.integers(0, 50),
           st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=12))
    def test_tf_cosine(self, sumsq_q, pairs):
        pairs += [(0, 0), (3, 0), (0, 7)]  # zero sums of squares and zero dot products
        dots = np.array([dot for dot, _ in pairs], dtype=float)
        sumsq = np.array([s for _, s in pairs], dtype=np.int64)
        want = [tf_cosine(dot, sumsq_q, s) for dot, s in pairs]
        assert bits(cosines(dots, math.sqrt(sumsq_q), np.sqrt(sumsq))) == bits(want)

    # A norm is 0 or at least an idf, log10(N / (N - 1)) > 1e-9 for any
    # corpus that fits in memory, so the product of two never underflows
    # (the scalar form would raise ZeroDivisionError).
    NORM_ST = st.floats(1e-9, 1e3) | st.just(0.0)

    @given(NORM_ST, st.lists(st.tuples(st.floats(-1e6, 1e6), NORM_ST), max_size=12))
    def test_tfidf_cosine(self, norm_q, pairs):
        pairs += [(0.0, 0.0), (2.5, 0.0), (0.0, 1.5)]
        dots = np.array([dot for dot, _ in pairs])
        norms = np.array([norm for _, norm in pairs])
        want = [tfidf_cosine(dot, norm_q, norm) for dot, norm in pairs]
        assert bits(cosines(dots, norm_q, norms)) == bits(want)

    def test_question_score_values_at_every_bound(self):
        scores = sorted({s for upper, _ in QUESTION_SCORE_LADDER for s in (upper, upper + 1)}
                        | {0, -1, -500, 10**9})
        want = [question_score_value(s) for s in scores]
        assert bits(question_score_values(np.array(scores, dtype=float))) == bits(want)

    @given(st.lists(st.integers(-10**6, 10**6), max_size=20))
    def test_question_score_values(self, scores):
        want = [question_score_value(s) for s in scores]
        assert bits(question_score_values(np.array(scores, dtype=float))) == bits(want)


class TestNormalizeSocial:
    """Min-max of the social columns, over the candidate set."""

    def test_min_max(self):
        normalized, _ = normalize_and_fuse({"answer_count": np.array([2.0, 4.0, 6.0])},
                                           {"answer_count": 1.0})
        assert normalized["answer_count"].tolist() == [0.0, 0.5, 1.0]

    def test_all_equal_maps_to_one(self):
        normalized, fused = normalize_and_fuse({"total_answer_score": np.array([3.0, 3.0])},
                                               {"total_answer_score": 0.5})
        assert normalized["total_answer_score"].tolist() == [1.0, 1.0]
        assert fused.tolist() == [0.5, 0.5]

    def test_empty(self):
        normalized, fused = normalize_and_fuse({"answer_count": np.array([])},
                                               {"answer_count": 1.0})
        assert normalized["answer_count"].tolist() == [] and fused.tolist() == []


class TestExtractMethods:
    def test_dotted_chain_keeps_last_identifier(self):
        assert extract_methods("sb.toString()") == ["toString"]
        assert extract_methods("a.b.c.run(x)") == ["run"]

    def test_keywords_excluded(self):
        assert extract_methods("if (x) { return f(y); } for (;;) {}") == ["f"]

    def test_plain_call(self):
        assert extract_methods("parse(input)") == ["parse"]

    def test_no_calls(self):
        assert extract_methods("int x = 3;") == []

    @settings(max_examples=500)
    @given(st.text(st.sampled_from("aZ_9é٣ .()\n\t"), max_size=24))
    def test_same_calls_as_the_receiver_chain_pattern(self, code):
        # The pattern with an explicit optional receiver chain, which the
        # plain "identifier followed by (" pattern replaced.
        chain = re.compile(r"(?:\b[A-Za-z_]\w*\s*\.\s*)*\b([A-Za-z_]\w*)\s*\(")
        assert extract_methods(code) == [m for m in chain.findall(code)
                                         if m not in METHOD_KEYWORDS]


class TestTopMethodScore:
    def test_frequency_values(self):
        # f_m in {1, 2, 8} with scale 10 => {0.0, 0.1, 0.3}
        assert top_method_score([(1, "solo(x)")]) == {1: 0.0}
        scores = top_method_score([(1, "dup(x)"), (2, "dup(y)")])
        assert scores == {1: pytest.approx(0.1), 2: pytest.approx(0.1)}
        eight = [(i, "oct(z)") for i in range(8)]
        scores = top_method_score(eight)
        assert all(v == pytest.approx(0.3) for v in scores.values())

    def test_only_top_method_counts(self):
        scores = top_method_score([(1, "hot(x) hot(y)"), (2, "hot(z)"), (3, "cold(w)")])
        assert scores[1] == scores[2] == pytest.approx(math.log2(3) / 10)
        assert scores[3] == 0.0

    def test_tie_breaks_lexicographic(self):
        scores = top_method_score([(1, "zeta(x)"), (2, "alpha(y)")])
        assert scores == {1: 0.0, 2: 0.0}  # alpha wins the tie, f_m=1 => 0

    def test_no_methods_anywhere(self):
        assert top_method_score([(1, "x = 1;"), (2, "")]) == {1: 0.0, 2: 0.0}

    def test_scale(self):
        scores = top_method_score([(1, "dup(x)"), (2, "dup(y)")], scale=2.0)
        assert scores[1] == pytest.approx(0.5)


class TestFusion:
    def test_final_score_weighted_sum(self):
        # The fused (final) score is the weighted sum of the normalized columns.
        table = {"a": np.array([0.0, 0.5, 1.0]), "b": np.array([1.0, 0.0, 1.0])}
        _, fused = normalize_and_fuse(table, {"a": 2.0, "b": 0.5})
        assert fused.tolist() == [0.5, 1.0, 2.5]

    def test_missing_feature_rejected(self):
        with pytest.raises(ValueError, match="'b'"):
            normalize_and_fuse({"a": np.array([0.5])}, {"a": 1.0, "b": 1.0})

    def test_normalize_and_fuse_min_max(self):
        # Only the weighted columns are normalized, in weights order.
        table = {"g": np.array([9.0, 0.0, 9.0]), "f": np.array([2.0, 4.0, 6.0])}
        normalized, fused = normalize_and_fuse(table, {"f": 0.5})
        assert list(normalized) == ["f"]
        assert normalized["f"].tolist() == [0.0, 0.5, 1.0]
        assert fused.tolist() == [0.0, 0.25, 0.5]
        assert table["f"].tolist() == [2.0, 4.0, 6.0]

    def test_ladder_feature_bypasses_min_max(self):
        table = {"question_score": np.array([1.0, 600.0])}
        normalized, fused = normalize_and_fuse(table, {"question_score": 1.0})
        assert normalized["question_score"].tolist() == [0.1, 1.0]
        assert fused.tolist() == [0.1, 1.0]

    def test_empty_candidates(self):
        normalized, fused = normalize_and_fuse({"f": np.array([])}, {"f": 1.0})
        assert normalized["f"].tolist() == [] and fused.tolist() == []

    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)), min_size=1, max_size=10))
    def test_scores_bounded_by_weight_sum(self, rows):
        table = {"x": np.array([x for x, _ in rows]), "y": np.array([y for _, y in rows])}
        _, fused = normalize_and_fuse(table, {"x": 0.5, "y": 0.25})
        for score in fused.tolist():
            assert -1e-9 <= score <= 0.75 + 1e-9


def test_feature_name_constants():
    assert THREAD_FEATURES == ("sentence", "asym_title", "asym_body", "tf",
                               "answer_count", "total_answer_score", "question_score")
    assert ANSWER_FEATURES == ("asym", "tfidf", "top_method", "thread_score")
