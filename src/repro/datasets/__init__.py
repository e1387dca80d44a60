"""Benchmark datasets: synthetic tables and simulated real-world benchmarks.

The paper evaluates on three real datasets (web tables, spreadsheet tasks,
open government data) and synthetic data.  The real benchmarks are not
redistributable offline, so this package generates *simulated* equivalents
with the same structural characteristics (documented in DESIGN.md), plus the
paper's synthetic generator:

* :mod:`repro.datasets.synthetic` — Synth-N and Synth-NL tables,
* :mod:`repro.datasets.web_tables` — 31 noisy web-table-style pairs over 17
  topics,
* :mod:`repro.datasets.spreadsheet` — 108 FlashFill/BlinkFill-style pairs,
* :mod:`repro.datasets.open_data` — an address-join benchmark with heavy
  n-gram collisions.

Every dataset is a list of :class:`~repro.datasets.base.TablePair` with known
ground-truth row pairs, so both the row matcher and the end-to-end join can
be scored.
"""

from repro.datasets.base import BenchmarkDataset, TablePair
from repro.datasets.open_data import generate_open_data
from repro.datasets.registry import available_datasets, load_dataset
from repro.datasets.spreadsheet import generate_spreadsheet_dataset
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_dataset
from repro.datasets.web_tables import generate_web_tables_dataset

__all__ = [
    "BenchmarkDataset",
    "SyntheticConfig",
    "TablePair",
    "available_datasets",
    "generate_open_data",
    "generate_spreadsheet_dataset",
    "generate_synthetic_dataset",
    "generate_web_tables_dataset",
    "load_dataset",
]
