import json
import math
import random

import pytest

import synth
from crowdrank.evaluation import (GroundTruth, MetricsReport, QueryMetrics,
                                  evaluate, query_metrics, write_report_csv)


class TestGroundTruth:
    def test_add_and_load(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text(json.dumps({"query_id": 1, "query_text": "parse json",
                                    "relevant_answer_ids": [10, 20]}) + "\n")
        truth = GroundTruth.load(path)
        assert truth.entries[1] == ("parse json", frozenset({10, 20}))

    def test_duplicate_query_rejected(self):
        truth = GroundTruth()
        truth.add(1, "q", [5])
        with pytest.raises(ValueError):
            truth.add(1, "q", [6])

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            GroundTruth().add(1, "q", [])

    def test_nonpositive_ids_rejected(self):
        with pytest.raises(ValueError):
            GroundTruth().add(0, "q", [5])
        with pytest.raises(ValueError):
            GroundTruth().add(1, "q", [-5])


class TestQueryMetrics:
    def test_first_relevant_at_rank_eleven(self):
        ranked = list(range(101, 111)) + [42] + list(range(111, 120))
        relevant = frozenset({42})
        at10 = query_metrics(ranked, relevant, 10)
        assert at10.hit == 0.0 and at10.rr == 0.0 and at10.ap == 0.0
        assert at10.recall == 0.0
        uncut = query_metrics(ranked, relevant, math.inf)
        assert uncut.hit == 1.0
        assert uncut.rr == pytest.approx(1.0 / 11.0, abs=1e-12)
        assert uncut.recall == 1.0

    def test_perfect_ranking(self):
        m = query_metrics([7, 8], frozenset({7, 8}), 10)
        assert (m.hit, m.rr, m.ap, m.recall) == (1.0, 1.0, 1.0, 1.0)

    def test_ap_normalizer_caps_at_k(self):
        # 3 relevant, K=2, both slots relevant => AP@2 = 1.0 not 2/3
        m = query_metrics([1, 2], frozenset({1, 2, 3}), 2)
        assert m.ap == pytest.approx(1.0)

    def test_empty_ranking(self):
        m = query_metrics([], frozenset({1}), 10)
        assert (m.hit, m.rr, m.ap, m.recall) == (0.0, 0.0, 0.0, 0.0)

    def test_matches_oracle_on_random_rankings(self):
        rng = random.Random(13)
        for _ in range(100):
            pool = list(range(1, 40))
            rng.shuffle(pool)
            ranked = pool[: rng.randint(0, 25)]
            relevant = frozenset(rng.sample(range(1, 40), rng.randint(1, 6)))
            k = rng.choice([1, 3, 5, 10, 20, math.inf])
            m = query_metrics(ranked, relevant, k)
            hit, rr, ap, recall = synth.metrics_oracle(ranked, relevant, k)
            assert m.hit == hit
            assert m.rr == pytest.approx(rr, abs=1e-12)
            assert m.ap == pytest.approx(ap, abs=1e-12)
            assert m.recall == pytest.approx(recall, abs=1e-12)

    def test_recall_monotone_in_k(self):
        ranked = [3, 9, 1, 7, 5]
        relevant = frozenset({1, 5, 9})
        values = [query_metrics(ranked, relevant, k).recall for k in (1, 2, 3, 4, 5)]
        assert values == sorted(values)


    @pytest.mark.parametrize("k", [0, -1, 0.5, math.nan])
    def test_cutoff_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="at least 1"):
            query_metrics([1, 2], frozenset({2}), k)


class TestEvaluate:
    def truth(self):
        truth = GroundTruth()
        truth.add(1, "alpha", [10])
        truth.add(2, "beta", [20, 21])
        return truth

    def test_means_over_all_queries(self):
        report = evaluate({1: [10], 2: [99, 20]}, self.truth(), k=10)
        assert report.hit == 1.0
        assert report.mrr == pytest.approx((1.0 + 0.5) / 2)
        assert report.mr == pytest.approx((1.0 + 0.5) / 2)

    def test_missing_query_scores_zero(self):
        report = evaluate({1: [10]}, self.truth(), k=10)
        assert report.hit == 0.5
        assert report.per_query[2] == QueryMetrics(0.0, 0.0, 0.0, 0.0)

    def test_unknown_query_rejected(self):
        with pytest.raises(ValueError):
            evaluate({99: [10]}, self.truth(), k=10)

    def test_metric_sum(self):
        report = evaluate({1: [10], 2: [20, 21]}, self.truth(), k=10)
        assert report.metric_sum() == pytest.approx(
            report.hit + report.mrr + report.map + report.mr)


class TestReportCsv:
    def test_layout(self, tmp_path):
        report = MetricsReport(k=10, per_query={}, hit=1.0, mrr=0.5, map=0.25, mr=0.75)
        path = tmp_path / "report.csv"
        write_report_csv([("template", report)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "baseline,hit,mrr,map,mr"
        assert lines[1] == "template,1.000000,0.500000,0.250000,0.750000"
