"""Process-pool worker bootstrap: pin BLAS thread pools before numpy loads.

This module deliberately lives *outside* the ``repro`` package and imports
nothing but the standard library.  ``repro``'s package ``__init__`` pulls
in numpy and scipy, and OpenBLAS/MKL read their thread-count environment
variables once, at library load — so a spawn-started pool worker must set
the variables from a module whose import does **not** drag numpy in.
:class:`repro.runtime.WorkerPool` passes :func:`initialize` as the
``ProcessPoolExecutor`` initializer; unpickling it in the child imports
only this file, the environment gets pinned, and the first task's imports
then load a BLAS that honours the pin.

With a ``fork`` start method the child inherits the parent's already
-initialised BLAS, so the pin only covers libraries loaded lazily after
the fork; hard pinning there means pinning the parent (the Makefile's
``BENCH_ENV`` and CI both do).  Either way the *effective* thread count is
probed in-worker and reported back, so metrics record the truth rather
than the intent.
"""

from __future__ import annotations

import os

# The environment knobs every BLAS/OpenMP runtime in the wild honours —
# the same set the CI workflow and `make bench` pin.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def initialize(threads: int) -> None:
    """Pool-worker initializer: pin every known BLAS pool to ``threads``."""
    value = str(int(threads))
    for name in BLAS_ENV_VARS:
        os.environ[name] = value


def effective_blas_threads() -> int:
    """Best-effort probe of the BLAS thread count active in this process.

    Prefers ``threadpoolctl`` when it is installed (it asks the loaded
    libraries directly); otherwise falls back to the strictest pinned
    environment variable, then to :func:`usable_cpu_count` — the default
    most BLAS builds use when nothing is pinned.
    """
    try:  # pragma: no cover - threadpoolctl is optional
        from threadpoolctl import threadpool_info

        counts = [
            int(info["num_threads"])
            for info in threadpool_info()
            if info.get("user_api") in ("blas", "openmp")
        ]
        if counts:
            return max(counts)
    except Exception:
        pass
    pinned = [
        int(os.environ[name])
        for name in BLAS_ENV_VARS
        if os.environ.get(name, "").isdigit()
    ]
    if pinned:
        return min(pinned)
    return usable_cpu_count()


def usable_cpu_count() -> int:
    """Cores this process may run on: its CPU affinity set (a container
    may allow fewer than the machine has), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1
