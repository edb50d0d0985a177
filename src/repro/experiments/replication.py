"""Multi-seed replication of experiment cells.

Single-seed measurements can mislead (a lucky graph draw, a cold BLAS);
reproduction-grade numbers come with dispersion.  ``replicate_cell``
reruns one (algorithm, dataset, parameters) cell across seeds — fresh
graph, sample, and workload each time — and summarises the successful
runs, keeping count of the failure outcomes separately (a cell that OOMs
under every seed is a *robust* crash, which is itself a finding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments.runner import ALGORITHMS, Outcome, RunRecord, run_algorithm
from repro.graphs.datasets import load_dataset_pair
from repro.runtime import Deadline, MemoryBudget
from repro.workloads.queries import make_workload
from repro.utils.validation import check_positive_integer

__all__ = ["CellSummary", "replicate_cell", "summarize_records"]


@dataclass(frozen=True)
class CellSummary:
    """Dispersion summary of one replicated cell."""

    algorithm: str
    dataset: str
    replicates: int
    ok_count: int
    outcome_counts: dict[str, int]
    mean_seconds: float | None
    std_seconds: float | None
    mean_memory_bytes: float | None

    @property
    def robust(self) -> bool:
        """All replicates agreed on one outcome (all OK or all one failure)."""
        return len(self.outcome_counts) == 1

    def relative_std(self) -> float | None:
        """Coefficient of variation of the timings (None without 2+ OKs)."""
        if (
            self.mean_seconds is None
            or self.std_seconds is None
            or self.mean_seconds == 0.0
        ):
            return None
        return self.std_seconds / self.mean_seconds


def summarize_records(records: list[RunRecord]) -> CellSummary:
    """Aggregate replicate records of one cell into a :class:`CellSummary`."""
    if not records:
        raise ValueError("no records to summarise")
    algorithms = {r.algorithm for r in records}
    datasets = {r.dataset for r in records}
    if len(algorithms) != 1 or len(datasets) != 1:
        raise ValueError("records mix algorithms or datasets; one cell only")
    outcome_counts: dict[str, int] = {}
    seconds = []
    memory = []
    for record in records:
        outcome_counts[record.outcome.value] = (
            outcome_counts.get(record.outcome.value, 0) + 1
        )
        if record.outcome is Outcome.OK:
            seconds.append(record.seconds)
            memory.append(record.memory_bytes)
    mean_seconds = std_seconds = mean_memory = None
    if seconds:
        mean_seconds = sum(seconds) / len(seconds)
        if len(seconds) > 1:
            variance = sum((s - mean_seconds) ** 2 for s in seconds) / (
                len(seconds) - 1
            )
            std_seconds = math.sqrt(variance)
        else:
            std_seconds = 0.0
        mean_memory = sum(memory) / len(memory)
    return CellSummary(
        algorithm=records[0].algorithm,
        dataset=records[0].dataset,
        replicates=len(records),
        ok_count=len(seconds),
        outcome_counts=outcome_counts,
        mean_seconds=mean_seconds,
        std_seconds=std_seconds,
        mean_memory_bytes=mean_memory,
    )


def replicate_cell(
    algorithm: str,
    dataset: str,
    scale: str = "tiny",
    iterations: int = 5,
    query_size: int = 20,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    memory_budget: MemoryBudget | None = None,
    deadline: Deadline | None = None,
) -> CellSummary:
    """Rerun one experiment cell across seeds and summarise.

    Each replicate regenerates the dataset pair and workload from its own
    seed, so the dispersion covers graph-draw variance, not just timer
    noise.
    """
    if algorithm not in ALGORITHMS:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
        )
    check_positive_integer(len(seeds), "number of seeds")
    records = []
    for seed in seeds:
        graph_a, graph_b = load_dataset_pair(dataset, scale=scale, seed=seed)
        workload = make_workload(
            graph_a, graph_b, query_size, query_size, seed=seed + 1
        )
        records.append(
            run_algorithm(
                ALGORITHMS[algorithm],
                graph_a,
                graph_b,
                workload.queries_a,
                workload.queries_b,
                iterations,
                memory_budget=memory_budget,
                deadline=deadline,
                dataset=dataset,
            )
        )
    return summarize_records(records)
