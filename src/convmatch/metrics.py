"""Ranking metrics over grouped candidate sets: MAP, MRR and Recall@k.

Groups with no positive label cannot be scored; they are skipped and
counted rather than contributing zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import DataError, ParseError
from .fileio import read_rows, write_rows

RECALL_CUTOFFS = (1, 2, 5)


@dataclass
class RankedLabels:
    """Binary labels of one group's candidates in ranked order, best first."""

    labels: list
    group_id: str = ""

    def __post_init__(self):
        if not self.labels:
            raise DataError(f"group {self.group_id!r} has no labels")
        if any(label not in (0, 1) for label in self.labels):
            raise DataError(f"group {self.group_id!r} has a non-binary label")

    @property
    def has_positive(self) -> bool:
        return any(self.labels)


def average_precision(ranked: Sequence[int]) -> float:
    """Mean over positive ranks p of (positives at ranks <= p) / p."""
    precisions = []
    seen_positives = 0
    for rank_pos, label in enumerate(ranked, start=1):
        if label == 1:
            seen_positives += 1
            precisions.append(seen_positives / rank_pos)
    if not precisions:
        raise DataError("average precision needs at least one positive label")
    return sum(precisions) / len(precisions)


def reciprocal_rank(ranked: Sequence[int]) -> float:
    """1 / rank of the first positive."""
    for rank_pos, label in enumerate(ranked, start=1):
        if label == 1:
            return 1.0 / rank_pos
    raise DataError("reciprocal rank needs at least one positive label")


def recall_at_k(ranked: Sequence[int], k: int) -> float:
    """Fraction of all positives found in the top k."""
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    total = sum(ranked)
    if total == 0:
        raise DataError("recall needs at least one positive label")
    return sum(ranked[:k]) / total


@dataclass
class MetricsReport:
    """Unweighted means over the scored groups."""

    map: float
    mrr: float
    recalls: dict
    groups: int
    groups_skipped: int = 0

    def recall_at(self, k: int) -> float:
        return self.recalls[k]

    def format_text(self) -> str:
        lines = [f"groups evaluated: {self.groups} (skipped: {self.groups_skipped})",
                 f"MAP: {self.map:.4f}", f"MRR: {self.mrr:.4f}"]
        for k in sorted(self.recalls):
            lines.append(f"R@{k}: {self.recalls[k]:.4f}")
        return "\n".join(lines)

    def tsv_header(self) -> str:
        cols = ["map", "mrr"] + [f"r@{k}" for k in sorted(self.recalls)]
        return "\t".join(cols + ["groups", "groups_skipped"])

    def tsv_row(self) -> str:
        cols = [repr(self.map), repr(self.mrr)]
        cols += [repr(self.recalls[k]) for k in sorted(self.recalls)]
        return "\t".join(cols + [str(self.groups), str(self.groups_skipped)])


def evaluate_rankings(groups: Iterable[RankedLabels],
                      expected_group_ids: Iterable[str] | None = None) -> MetricsReport:
    """Aggregate MAP, MRR and recall at RECALL_CUTOFFS over ranked groups.

    With expected_group_ids given, every listed group must be present,
    otherwise a DataError names the missing ones. Groups without a positive
    are skipped and counted.
    """
    groups = list(groups)
    if expected_group_ids is not None:
        present = {g.group_id for g in groups}
        missing = sorted(set(expected_group_ids) - present)
        if missing:
            raise DataError(f"rankings missing for groups: {', '.join(missing)}")
    ap_values: list[float] = []
    rr_values: list[float] = []
    recall_values: dict = {k: [] for k in RECALL_CUTOFFS}
    skipped = 0
    for group in groups:
        if not group.has_positive:
            skipped += 1
            continue
        ap_values.append(average_precision(group.labels))
        rr_values.append(reciprocal_rank(group.labels))
        for k in RECALL_CUTOFFS:
            recall_values[k].append(recall_at_k(group.labels, k))
    if not ap_values:
        raise DataError("no group with a positive label to evaluate")
    n = len(ap_values)
    return MetricsReport(
        map=sum(ap_values) / n,
        mrr=sum(rr_values) / n,
        recalls={k: sum(v) / n for k, v in recall_values.items()},
        groups=n,
        groups_skipped=skipped)


def read_ranking_file(path) -> list[RankedLabels]:
    """Read group_id<TAB>score<TAB>label rows into ranked groups.

    Rows are grouped by id (groups ordered by first appearance) and sorted
    within each group by descending score; ties keep file order. A NaN
    score is a ParseError: it would make the order depend on row order.
    """
    rows_by_group: dict = {}
    for line_no, (group_id, score_raw, label_raw) in read_rows(path, 3):
        try:
            score = float(score_raw)
        except ValueError:
            raise ParseError(f"bad score {score_raw!r}", line_no) from None
        if math.isnan(score):
            raise ParseError(f"NaN score {score_raw!r}", line_no)
        if label_raw not in ("0", "1"):
            raise ParseError(f"non-binary label {label_raw!r}", line_no)
        rows_by_group.setdefault(group_id, []).append((score, int(label_raw)))
    groups = []
    for group_id, rows in rows_by_group.items():
        ordered = sorted(rows, key=lambda row: -row[0])  # stable: ties keep file order
        groups.append(RankedLabels(labels=[label for _, label in ordered],
                                   group_id=group_id))
    return groups


def write_report(report: MetricsReport, path) -> None:
    """Machine-readable report: one header line and one TSV row."""
    write_rows(path, [[report.tsv_header()], [report.tsv_row()]])
