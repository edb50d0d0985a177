"""Unit tests for the experiment resource guards."""

import pytest

from repro.experiments import (
    Deadline,
    DeadlineExceeded,
    MemoryBudget,
    MemoryBudgetExceeded,
)
from repro.runtime import WallClockDeadline


class TestMemoryBudget:
    def test_within_budget_passes(self):
        MemoryBudget(1000).check(999, "x")  # no raise

    def test_over_budget_raises(self):
        with pytest.raises(MemoryBudgetExceeded, match="exceeds budget"):
            MemoryBudget(1000).check(1001, "x")

    def test_message_names_algorithm(self):
        with pytest.raises(MemoryBudgetExceeded, match="GSim"):
            MemoryBudget(10).check(100, "GSim")

    def test_allows(self):
        budget = MemoryBudget(1000)
        assert budget.allows(500)
        assert not budget.allows(5000)

    def test_default_budget_calibration(self):
        # 256 MiB default: the small-profile EE dense S (~8000 x 1000 x 8 x 3
        # working set = 192 MB) fits, the WT one (~15000 x 1000 x 8 x 3 =
        # 360 MB) does not — the paper's survival pattern.
        budget = MemoryBudget()
        assert budget.allows(8_000 * 1_000 * 8 * 3)
        assert not budget.allows(15_000 * 1_000 * 8 * 3)


class TestDeadline:
    def test_predictive_gate_uses_factor(self):
        deadline = Deadline(limit_seconds=10.0, predictive_factor=30.0)
        deadline.check_predicted(299.0, "x")  # under 300: attempted
        with pytest.raises(DeadlineExceeded, match="exceeds"):
            deadline.check_predicted(301.0, "x")

    def test_allows(self):
        deadline = Deadline(limit_seconds=1.0, predictive_factor=10.0)
        assert deadline.allows(9.0)
        assert not deadline.allows(11.0)

    def test_arm_returns_wall_clock(self):
        armed = Deadline(limit_seconds=5.0).arm()
        assert isinstance(armed, WallClockDeadline)
        assert armed.limit_seconds == 5.0

    def test_default_is_twenty_seconds(self):
        assert Deadline().limit_seconds == 20.0
