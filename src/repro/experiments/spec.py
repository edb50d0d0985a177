"""Declarative experiment specifications.

A reproduction harness should let a reviewer run *their* variation of an
experiment without writing code.  An :class:`ExperimentSpec` is a plain
JSON-serialisable description — datasets, algorithms, sweep axis, guard
budgets — that :func:`run_spec` expands into measured
:class:`repro.experiments.runner.RunRecord` cells.

Example spec (``my_experiment.json``)::

    {
      "name": "gsimplus-vs-gsim-on-communication-graphs",
      "datasets": ["EE", "WT"],
      "algorithms": ["GSim+", "GSim"],
      "scale": "tiny",
      "iterations": 5,
      "query_size": 20,
      "sweep": {"axis": "iterations", "values": [2, 4, 6]},
      "memory_budget_mib": 256,
      "deadline_seconds": 10
    }

Run it with ``gsimplus spec my_experiment.json`` or::

    from repro.experiments.spec import ExperimentSpec, run_spec
    records = run_spec(ExperimentSpec.from_json(path))
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from typing import TYPE_CHECKING

from repro.experiments.runner import (
    ALGORITHMS,
    CellTask,
    ExperimentConfig,
    RunRecord,
    run_cells,
)
from repro.graphs.datasets import DATASETS, load_dataset_pair
from repro.runtime import Deadline, MemoryBudget
from repro.workloads.queries import make_workload

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.experiments.journal import RunJournal
    from repro.runtime.resilience import RetryPolicy
    from repro.runtime.trace import Tracer

__all__ = ["ExperimentSpec", "run_spec"]

_SWEEP_AXES = ("iterations", "query_size", "sample_size")


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative experiment: what to run, on what, within what budget."""

    name: str
    datasets: tuple[str, ...]
    algorithms: tuple[str, ...]
    scale: str = "tiny"
    iterations: int = 5
    query_size: int = 20
    sample_size: int | None = None
    seed: int = 7
    sweep_axis: str | None = None
    sweep_values: tuple[int, ...] = field(default_factory=tuple)
    memory_budget_mib: float = 256.0
    deadline_seconds: float = 20.0
    precision: str = "float64"
    recompress_tol: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec needs a name")
        if self.precision not in ("float64", "float32"):
            raise ValueError(
                f"precision must be 'float64' or 'float32', got {self.precision!r}"
            )
        if self.recompress_tol is not None and not (0.0 < self.recompress_tol < 1.0):
            raise ValueError(
                f"recompress_tol must lie in (0, 1), got {self.recompress_tol!r}"
            )
        if not self.datasets:
            raise ValueError("spec needs at least one dataset")
        unknown_datasets = [d for d in self.datasets if d.upper() not in DATASETS]
        if unknown_datasets:
            raise ValueError(f"unknown datasets: {unknown_datasets}")
        unknown_algorithms = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown_algorithms:
            raise ValueError(f"unknown algorithms: {unknown_algorithms}")
        if self.sweep_axis is not None:
            if self.sweep_axis not in _SWEEP_AXES:
                raise ValueError(
                    f"sweep axis must be one of {_SWEEP_AXES}, got {self.sweep_axis!r}"
                )
            if not self.sweep_values:
                raise ValueError("a sweep needs values")

    # ------------------------------------------------------------------
    # (De)serialisation
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        """Build a spec from parsed JSON (unknown keys rejected)."""
        data = dict(raw)
        sweep = data.pop("sweep", None)
        kwargs = dict(
            name=data.pop("name", ""),
            datasets=tuple(data.pop("datasets", ())),
            algorithms=tuple(data.pop("algorithms", ())),
        )
        for key in (
            "scale", "iterations", "query_size", "sample_size", "seed",
            "memory_budget_mib", "deadline_seconds", "precision",
            "recompress_tol",
        ):
            if key in data:
                kwargs[key] = data.pop(key)
        if data:
            raise ValueError(f"unknown spec keys: {sorted(data)}")
        if sweep is not None:
            kwargs["sweep_axis"] = sweep.get("axis")
            kwargs["sweep_values"] = tuple(sweep.get("values", ()))
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def variations(self) -> list[dict[str, int]]:
        """The parameter overrides the sweep expands to (one = no sweep)."""
        if self.sweep_axis is None:
            return [{}]
        return [{self.sweep_axis: value} for value in self.sweep_values]


def run_spec(
    spec: ExperimentSpec,
    journal: "RunJournal | None" = None,
    retry_policy: "RetryPolicy | None" = None,
    max_workers: int = 1,
    tracer: "Tracer | None" = None,
    metrics_sink=None,
    slow_queries=None,
) -> list[RunRecord]:
    """Expand and execute a spec; returns one record per cell.

    Cell order: dataset-major, then sweep value, then algorithm — the
    order the text report groups most readably (and the order records
    come back in for every ``max_workers``).

    ``journal`` makes the run resumable cell by cell (completed cells are
    replayed, the rest executed and persisted immediately);
    ``retry_policy`` retries transient per-cell failures and quarantines
    cells that keep failing; ``max_workers > 1`` executes independent
    cells concurrently; ``tracer`` records per-cell spans, and
    ``metrics_sink`` / ``slow_queries`` thread operational telemetry
    through the cells (see
    :class:`repro.experiments.runner.ExperimentConfig`).
    """
    config = ExperimentConfig(
        scale=spec.scale,
        iterations=spec.iterations,
        seed=spec.seed,
        memory_budget=MemoryBudget(int(spec.memory_budget_mib * 1024 * 1024)),
        deadline=Deadline(limit_seconds=spec.deadline_seconds),
        retry_policy=retry_policy,
        journal=journal,
        max_workers=max_workers,
        tracer=tracer,
        precision=spec.precision,
        recompress_tol=spec.recompress_tol,
        metrics_sink=metrics_sink,
        slow_queries=slow_queries,
    )
    tasks: list[CellTask] = []
    for dataset in spec.datasets:
        for overrides in spec.variations():
            iterations = overrides.get("iterations", spec.iterations)
            query_size = overrides.get("query_size", spec.query_size)
            sample_size = overrides.get("sample_size", spec.sample_size)
            graph_a, graph_b = load_dataset_pair(
                dataset, scale=spec.scale, seed=spec.seed, sample_size=sample_size
            )
            workload = make_workload(
                graph_a, graph_b, query_size, query_size, seed=spec.seed + 1
            )
            for algorithm in spec.algorithms:
                tasks.append(
                    CellTask(
                        ALGORITHMS[algorithm],
                        graph_a,
                        graph_b,
                        workload.queries_a,
                        workload.queries_b,
                        iterations,
                        dataset=dataset.upper(),
                    )
                )
    return run_cells(tasks, config)
