"""Experiment harness regenerating every figure and table of the paper.

* :mod:`repro.experiments.runner` — the algorithm registry and the
  measured-run machinery shared by all drivers.  Its cost-model guards
  (:class:`Deadline` / :class:`MemoryBudget` from :mod:`repro.runtime`)
  turn the paper's "crashed" / "did not finish within one day" outcomes
  into deterministic, recorded OOM / TIMEOUT events.
* :mod:`repro.experiments.figures` — drivers for Figures 2-8.
* :mod:`repro.experiments.tables` — the §5.2.3 accuracy table.
* :mod:`repro.experiments.ablations` — design-choice ablations from
  DESIGN.md §5.
* :mod:`repro.experiments.journal` — the persistent run journal making
  long sweeps resumable cell by cell.
* :mod:`repro.experiments.report` — plain-text rendering of result tables.
"""

from repro.experiments.journal import RunJournal
from repro.experiments.report import render_records, render_table
from repro.experiments.runner import (
    ALGORITHMS,
    AlgorithmSpec,
    ExperimentConfig,
    Outcome,
    RunRecord,
    cell_key,
    run_algorithm,
)
from repro.runtime import (
    Deadline,
    DeadlineExceeded,
    MemoryBudget,
    MemoryBudgetExceeded,
)

__all__ = [
    "ALGORITHMS",
    "AlgorithmSpec",
    "Deadline",
    "DeadlineExceeded",
    "ExperimentConfig",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "Outcome",
    "RunJournal",
    "RunRecord",
    "cell_key",
    "render_records",
    "render_table",
    "run_algorithm",
]
