"""Benchmark harness: dataset registry, experiment runners, reporting.

One module per concern:

* :mod:`repro.bench.workloads` — the scaled synthetic twins of the paper's
  Table II datasets, the scaled hardware models, and the standard workload
  (2|V| walks, l=80, p=0.15).
* :mod:`repro.bench.harness` — functions that run each experiment and
  return structured rows, and the paper's claims checked on those rows.
* :mod:`repro.bench.reporting` — fixed-width table printers.
"""

from repro.bench.workloads import (
    DATASETS,
    DatasetSpec,
    SimPlatform,
    default_platform,
    load_dataset,
    standard_config,
    standard_walks,
)

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "SimPlatform",
    "default_platform",
    "load_dataset",
    "standard_config",
    "standard_walks",
]
