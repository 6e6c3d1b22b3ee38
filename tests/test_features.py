import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import crowdrank
import synth
from crowdrank.embeddings import IdfMap
from crowdrank.features import (ANSWER_FEATURES, THREAD_FEATURES, FeatureVector,
                                WeightConfig, extract_methods, final_score,
                                normalize_and_fuse, normalize_social,
                                question_score_value, tf_score, tfidf_score,
                                top_method_score)

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


class TestNormalizeSocial:
    def test_min_max(self):
        assert normalize_social([2.0, 4.0, 6.0]) == [0.0, 0.5, 1.0]

    def test_all_equal_maps_to_one(self):
        assert normalize_social([3.0, 3.0]) == [1.0, 1.0]

    def test_empty(self):
        assert normalize_social([]) == []


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
        fv = FeatureVector(raw={}, normalized={"a": 0.5, "b": 1.0})
        assert final_score(fv, {"a": 2.0, "b": 0.5}) == pytest.approx(1.5)

    def test_missing_feature_rejected(self):
        fv = FeatureVector(raw={}, normalized={"a": 0.5})
        with pytest.raises(ValueError):
            final_score(fv, {"a": 1.0, "b": 1.0})

    def test_normalize_and_fuse_min_max(self):
        raws = [{"f": 2.0}, {"f": 4.0}, {"f": 6.0}]
        fused = normalize_and_fuse(raws, {"f": 0.5})
        assert [fv.normalized["f"] for fv, _ in fused] == [0.0, 0.5, 1.0]
        assert [score for _, score in fused] == [0.0, 0.25, 0.5]

    def test_ladder_feature_bypasses_min_max(self):
        raws = [{"question_score": 1.0}, {"question_score": 600.0}]
        fused = normalize_and_fuse(raws, {"question_score": 1.0})
        assert [score for _, score in fused] == [0.1, 1.0]

    def test_empty_candidates(self):
        assert normalize_and_fuse([], {"f": 1.0}) == []

    @given(st.lists(st.dictionaries(st.sampled_from(["x", "y"]),
                                    st.floats(0, 100), min_size=2, max_size=2),
                    min_size=1, max_size=10))
    def test_scores_bounded_by_weight_sum(self, raws):
        fused = normalize_and_fuse(raws, {"x": 0.5, "y": 0.25})
        for _, score in fused:
            assert -1e-9 <= score <= 0.75 + 1e-9


def test_feature_name_constants():
    assert THREAD_FEATURES == ("sentence", "asym_title", "asym_body", "tf",
                               "answer_count", "total_answer_score", "question_score")
    assert ANSWER_FEATURES == ("asym", "tfidf", "top_method", "thread_score")
