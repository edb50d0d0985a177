"""Unit tests for multi-seed replication summaries."""

import pytest

from repro.runtime import MemoryBudget
from repro.experiments.replication import (
    CellSummary,
    replicate_cell,
    summarize_records,
)
from repro.experiments.runner import Outcome, RunRecord


def _ok(seconds, memory=1000.0):
    return RunRecord(
        algorithm="GSim+", dataset="HP", outcome=Outcome.OK,
        seconds=seconds, memory_bytes=memory,
    )


def _oom():
    return RunRecord(algorithm="GSim+", dataset="HP", outcome=Outcome.OOM)


class TestSummarize:
    def test_mean_and_std(self):
        summary = summarize_records([_ok(1.0), _ok(2.0), _ok(3.0)])
        assert summary.ok_count == 3
        assert summary.mean_seconds == pytest.approx(2.0)
        assert summary.std_seconds == pytest.approx(1.0)
        assert summary.robust

    def test_single_run_zero_std(self):
        summary = summarize_records([_ok(1.5)])
        assert summary.std_seconds == 0.0

    def test_mixed_outcomes_not_robust(self):
        summary = summarize_records([_ok(1.0), _oom()])
        assert not summary.robust
        assert summary.outcome_counts == {"ok": 1, "oom": 1}

    def test_all_failures_still_robust(self):
        summary = summarize_records([_oom(), _oom()])
        assert summary.robust
        assert summary.mean_seconds is None
        assert summary.relative_std() is None

    def test_relative_std(self):
        summary = summarize_records([_ok(1.0), _ok(3.0)])
        assert summary.relative_std() == pytest.approx(
            summary.std_seconds / summary.mean_seconds
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            summarize_records([])

    def test_mixed_cells_rejected(self):
        other = RunRecord(algorithm="GSim", dataset="HP", outcome=Outcome.OK,
                          seconds=1.0, memory_bytes=1.0)
        with pytest.raises(ValueError, match="one cell"):
            summarize_records([_ok(1.0), other])


class TestReplicateCell:
    def test_gsim_plus_replicates_ok(self):
        summary = replicate_cell(
            "GSim+", "HP", scale="tiny", iterations=4, query_size=10,
            seeds=(0, 1, 2),
        )
        assert summary.replicates == 3
        assert summary.ok_count == 3
        assert summary.robust
        assert summary.mean_seconds > 0

    def test_dense_baseline_robustly_oom_under_tight_budget(self):
        summary = replicate_cell(
            "GSim", "HP", scale="tiny", iterations=4, query_size=10,
            seeds=(0, 1, 2), memory_budget=MemoryBudget(limit_bytes=1000),
        )
        assert summary.ok_count == 0
        assert summary.outcome_counts == {"oom": 3}
        assert summary.robust

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            replicate_cell("Oracle", "HP")

    def test_summary_fields(self):
        summary = replicate_cell(
            "GSVD", "EE", scale="tiny", iterations=3, query_size=8, seeds=(0, 1)
        )
        assert isinstance(summary, CellSummary)
        assert summary.algorithm == "GSVD"
        assert summary.dataset == "EE"
        assert summary.mean_memory_bytes is not None
