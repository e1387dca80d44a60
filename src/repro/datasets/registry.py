"""Dataset registry: build any benchmark dataset by name.

Benchmarks and examples refer to datasets by the names used in the paper's
tables ("web", "spreadsheet", "open", "synth-50", "synth-50L", "synth-500",
"synth-500L").  ``load_dataset`` accepts a ``scale`` argument so tests and
quick runs can use smaller instances with the same structure.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.datasets.base import BenchmarkDataset
from repro.datasets.open_data import generate_open_data
from repro.datasets.spreadsheet import generate_spreadsheet_dataset
from repro.datasets.synthetic import generate_synthetic_dataset
from repro.datasets.web_tables import generate_web_tables_dataset


def _web(scale: float, seed: int) -> BenchmarkDataset:
    num_pairs = max(1, int(round(31 * scale)))
    num_rows = max(5, int(round(92 * scale)))
    return generate_web_tables_dataset(
        num_pairs=num_pairs, num_rows=num_rows, seed=seed
    )


def _spreadsheet(scale: float, seed: int) -> BenchmarkDataset:
    num_pairs = max(1, int(round(108 * scale)))
    num_rows = max(5, int(round(34 * scale)))
    return generate_spreadsheet_dataset(
        num_pairs=num_pairs, num_rows=num_rows, seed=seed
    )


def _open(scale: float, seed: int) -> BenchmarkDataset:
    pair = generate_open_data(
        num_source_rows=max(20, int(round(3808 * scale))),
        num_target_rows=max(40, int(round(8000 * scale))),
        seed=seed,
    )
    return BenchmarkDataset(name="open-data", pairs=[pair], description=pair.description)


def _synth(num_rows: int, long_rows: bool) -> Callable[[float, int], BenchmarkDataset]:
    def build(scale: float, seed: int) -> BenchmarkDataset:
        num_tables = max(1, int(round(10 * scale)))
        return generate_synthetic_dataset(
            num_rows, long_rows=long_rows, num_tables=num_tables, seed=seed
        )

    return build


_REGISTRY: dict[str, Callable[[float, int], BenchmarkDataset]] = {
    "web": _web,
    "spreadsheet": _spreadsheet,
    "open": _open,
    "synth-50": _synth(50, long_rows=False),
    "synth-50L": _synth(50, long_rows=True),
    "synth-500": _synth(500, long_rows=False),
    "synth-500L": _synth(500, long_rows=True),
}


def available_datasets() -> list[str]:
    """Names accepted by :func:`load_dataset`."""
    return sorted(_REGISTRY)


def check_scale(scale: float) -> None:
    """Raise ``ValueError`` unless *scale* is a valid :func:`load_dataset` scale."""
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")


def load_dataset(name: str, *, scale: float = 1.0, seed: int = 0) -> BenchmarkDataset:
    """Build the dataset *name* at the given *scale* (1.0 = paper-scale)."""
    check_scale(scale)
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {available_datasets()}"
        ) from None
    return builder(scale, seed)
