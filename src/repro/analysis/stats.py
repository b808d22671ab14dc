"""Merge statistics: the numbers the ``benchmarks/`` files report.

The paper's conclusion raises exactly these quantities — how many
implicit classes merges introduce, how large merged schemas get — so
the analysis layer computes them uniformly for every benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.implicit import implicit_classes_of
from repro.core.merge import MergeReport, merge_report
from repro.core.schema import Schema

__all__ = ["MergeStats", "measure_merge", "measure_family"]


@dataclass(frozen=True)
class MergeStats:
    """Size accounting for one merge."""

    input_count: int
    input_classes_total: int
    input_classes_distinct: int
    input_arrows_total: int
    weak_classes: int
    weak_arrows: int
    merged_classes: int
    merged_arrows: int
    implicit_classes: int

    @property
    def implicit_ratio(self) -> float:
        """Implicit classes per distinct input class (the §7 question)."""
        if not self.input_classes_distinct:
            return 0.0
        return self.implicit_classes / self.input_classes_distinct

    def as_row(self) -> Dict[str, object]:
        """A flat dict for tabular printing."""
        return {
            "inputs": self.input_count,
            "in_classes": self.input_classes_distinct,
            "in_arrows": self.input_arrows_total,
            "weak_classes": self.weak_classes,
            "merged_classes": self.merged_classes,
            "merged_arrows": self.merged_arrows,
            "implicit": self.implicit_classes,
            "implicit_ratio": round(self.implicit_ratio, 4),
        }


def measure_merge(report: MergeReport) -> MergeStats:
    """Extract :class:`MergeStats` from a merge report."""
    distinct = set()
    total_classes = 0
    total_arrows = 0
    for schema in report.inputs:
        distinct |= schema.classes
        total_classes += len(schema.classes)
        total_arrows += len(schema.arrows)
    return MergeStats(
        input_count=len(report.inputs),
        input_classes_total=total_classes,
        input_classes_distinct=len(distinct),
        input_arrows_total=total_arrows,
        weak_classes=len(report.weak.classes),
        weak_arrows=len(report.weak.arrows),
        merged_classes=len(report.merged.classes),
        merged_arrows=len(report.merged.arrows),
        implicit_classes=len(implicit_classes_of(report.merged)),
    )


def measure_family(schemas: Sequence[Schema]) -> MergeStats:
    """Merge a family and measure it in one call."""
    return measure_merge(merge_report(*schemas))
