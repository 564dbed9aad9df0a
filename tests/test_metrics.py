"""Ranking metric tests against hand values and the brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from convmatch.errors import DataError, ParseError
from convmatch.metrics import (MetricsReport, RankedLabels, average_precision,
                               evaluate_rankings, read_ranking_file, recall_at_k,
                               reciprocal_rank, write_report)

label_groups = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([1, 0, 0]) == 1.0

    def test_single_positive_rank_two(self):
        assert average_precision([0, 1, 0, 0]) == 0.5

    def test_two_positives(self):
        assert average_precision([1, 0, 1]) == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_no_positive_raises(self):
        with pytest.raises(DataError):
            average_precision([0, 0])


class TestRecallAtK:
    def test_miss_at_one(self):
        assert recall_at_k([0, 1, 0], 1) == 0.0

    def test_hit_at_two(self):
        assert recall_at_k([0, 1, 0], 2) == 1.0

    def test_partial(self):
        assert recall_at_k([1, 0, 1, 0], 2) == 0.5

    @given(label_groups.filter(lambda labels: sum(labels) > 0))
    @settings(max_examples=80, deadline=None)
    def test_non_decreasing_in_k_and_total_recall(self, labels):
        values = [recall_at_k(labels, k) for k in range(1, len(labels) + 1)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0


class TestEvaluateRankings:
    def test_oracle_ranking_is_perfect(self):
        groups = [RankedLabels(labels=[1] + [0] * 9, group_id=f"g{i}")
                  for i in range(5)]
        report = evaluate_rankings(groups)
        assert report.map == 1.0
        assert report.recall_at(1) == 1.0

    def test_single_positive_map_equals_mrr_bitwise(self, rng):
        groups = []
        for i in range(200):
            labels = [0] * 10
            labels[int(rng.integers(0, 10))] = 1
            groups.append(RankedLabels(labels=labels, group_id=f"g{i}"))
        report = evaluate_rankings(groups)
        assert report.map == report.mrr

    def test_random_ranking_recall_at_one_near_chance(self):
        rng = np.random.default_rng(77)
        groups = []
        for i in range(3000):
            labels = [0] * 10
            labels[int(rng.integers(0, 10))] = 1
            groups.append(RankedLabels(labels=labels, group_id=f"g{i}"))
        report = evaluate_rankings(groups)
        assert abs(report.recall_at(1) - 0.1) < 0.02

    def test_groups_without_positive_skipped_and_counted(self):
        groups = [RankedLabels(labels=[1, 0], group_id="a"),
                  RankedLabels(labels=[0, 0], group_id="b")]
        report = evaluate_rankings(groups)
        assert report.groups == 1
        assert report.groups_skipped == 1

    def test_missing_groups_listed(self):
        groups = [RankedLabels(labels=[1], group_id="a")]
        with pytest.raises(DataError, match="b, c"):
            evaluate_rankings(groups, expected_group_ids=["a", "b", "c"])

    def test_metrics_in_unit_interval(self, rng):
        groups = []
        for i in range(50):
            labels = [int(v) for v in rng.integers(0, 2, int(rng.integers(1, 12)))]
            if sum(labels) == 0:
                labels[0] = 1
            groups.append(RankedLabels(labels=labels, group_id=f"g{i}"))
        report = evaluate_rankings(groups)
        for value in [report.map, report.mrr, *report.recalls.values()]:
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bruteforce_oracle(self, seed):
        rng = np.random.default_rng(seed)
        groups = []
        for i in range(250):
            size = int(rng.integers(1, 12))
            labels = [int(v) for v in rng.integers(0, 2, size)]
            groups.append(labels)
        ranked = [RankedLabels(labels=list(labels), group_id=f"g{i}")
                  for i, labels in enumerate(groups)]
        if all(sum(g) == 0 for g in groups):
            return
        report = evaluate_rankings(ranked)
        ref = oracles.grouped_metrics(groups)
        assert report.map == ref["map"]
        assert report.mrr == ref["mrr"]
        for k in (1, 2, 5):
            assert report.recall_at(k) == ref["recalls"][k]
        assert report.groups == ref["groups"]
        assert report.groups_skipped == ref["skipped"]


class TestRankingFile:
    def test_read_sorts_by_score_stable(self, tmp_path):
        path = tmp_path / "ranking.tsv"
        path.write_text(
            "g1\t0.2\t0\n"
            "g1\t0.9\t1\n"
            "g1\t0.2\t0\n"
            "g2\t0.5\t1\n",
            encoding="utf-8")
        groups = read_ranking_file(path)
        assert groups[0].group_id == "g1"
        assert groups[0].labels == [1, 0, 0]
        assert groups[1].labels == [1]

    def test_bad_rows_carry_line_numbers(self, tmp_path):
        path = tmp_path / "ranking.tsv"
        path.write_text("g1\tnot-a-score\t1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            read_ranking_file(path)
        path.write_text("g1\t0.5\t3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="non-binary"):
            read_ranking_file(path)

    @pytest.mark.parametrize("raw", ["nan", "NaN", "-nan"])
    def test_nan_score_rejected(self, tmp_path, raw):
        path = tmp_path / "ranking.tsv"
        path.write_text(f"g1\t0.5\t1\ng1\t{raw}\t0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: NaN score"):
            read_ranking_file(path)

    def test_infinite_scores_kept_and_ordered(self, tmp_path):
        path = tmp_path / "ranking.tsv"
        path.write_text("g1\t-inf\t1\ng1\t0.5\t0\ng1\tinf\t0\ng1\t-Infinity\t0\n",
                        encoding="utf-8")
        assert read_ranking_file(path)[0].labels == [0, 0, 1, 0]

    def test_report_file_round_trip(self, tmp_path):
        report = MetricsReport(map=0.51, mrr=0.51, recalls={1: 0.3, 2: 0.5, 5: 0.9},
                               groups=10, groups_skipped=1)
        path = tmp_path / "report.tsv"
        write_report(report, path)
        header, row = path.read_text(encoding="utf-8").splitlines()
        assert header.split("\t") == ["map", "mrr", "r@1", "r@2", "r@5",
                                      "groups", "groups_skipped"]
        fields = row.split("\t")
        assert float(fields[0]) == report.map
        assert int(fields[5]) == 10


class TestRankedLabels:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            RankedLabels(labels=[], group_id="g")

    def test_rejects_non_binary(self):
        with pytest.raises(DataError):
            RankedLabels(labels=[0, 2], group_id="g")
