"""Benchmark workloads.

Each workload is one or more campaigns, run in order, built from the
committed desk config plus overrides.  The benchmark's ``--seed`` replaces
the config's seed, so the same seed always gives the same scenes, noise
and solver starts.  Why each workload exists is recorded in
``BENCHMARK.json``; this module only says what each one runs.

This module imports nothing from ``dmasim`` or numpy, so the orchestrator
can read it before any child process pins the BLAS thread count.
"""

import os

DESK_CONFIG = os.path.join("configs", "desk.cfg")

# The campaign thread pool is sized to the CPUs this process may use.
NPROC = len(os.sched_getaffinity(0))

_DFT = {"training": "semi-unitary-dft"}

WORKLOADS = {
    "desk-proposed": [{}],
    "desk-proposed-parallel": [{"threads": NPROC}],
    "desk-closed-form": [
        {"receiver": "bench-data-aided", **_DFT},
        {"receiver": "bench-pilot-aided", **_DFT},
    ],
    # T = 16 keeps the relaxed identifiability bound true at N = 64
    # (16*15*8*7/4 = 3360 >= 64*63/2 = 2016).  Five trials per point keep
    # one campaign near 15 s on one core.
    "scaled-proposed": [
        {"N": 64, "D": 8, "L": 8, "P": 128, "T": 16, "trials": 5},
    ],
}

# Every benchmark process runs with BLAS pinned to one thread, set before
# numpy is imported; the campaign's own thread pool is the only parallelism.
BLAS_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# References are committed for the default seed and one held-out seed, at
# the workload's own trial count and at SMOKE_TRIALS per SNR point.
REFERENCE_SEEDS = (0, 1)
SMOKE_TRIALS = 1
