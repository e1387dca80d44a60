"""Figure 4a — Runtime breakdown as the number of rows grows (vertical growth).

The paper fixes the row length at 28 characters and sweeps the number of rows,
reporting the wall-clock time of each pipeline module (unit extraction,
placeholder generation, duplicate removal, applying the transformations).
This reproduction also times row matching.

Expected shape: applying transformations dominates and grows the fastest with
the number of rows; the pruning (and the batched coverage engine) keeps the
total curve closer to linear than the quadratic worst case.

Each point comes from :func:`conftest.fig4_point`; the sweep is written to
``benchmarks/results/BENCH_fig4a_runtime_vs_rows.json``.
"""

from __future__ import annotations

from conftest import FIG4_SAMPLE_SIZE, bench_scale, fig4_point, write_json

#: Row counts swept at full scale (trimmed by scale).
FULL_ROW_COUNTS = [250, 500, 1000, 5000, 10000]

#: Fixed row length for this sweep, as in the paper.
ROW_LENGTH = 28


def sweep_rows(scale: float) -> list[int]:
    """The subset of FULL_ROW_COUNTS used at the given scale."""
    count = max(3, int(round(len(FULL_ROW_COUNTS) * min(1.0, scale * 4))))
    return FULL_ROW_COUNTS[:count]


def run_row_point(num_rows: int) -> dict:
    """One point of the Figure 4a sweep; the seed is the row count."""
    return fig4_point(num_rows, ROW_LENGTH, seed=num_rows)


def test_fig4a_runtime_vs_rows(benchmark):
    """Regenerate Figure 4a (runtime breakdown vs number of rows)."""
    scale = bench_scale()
    row_counts = sweep_rows(scale)
    points = [run_row_point(count) for count in row_counts]

    benchmark(run_row_point, row_counts[0])

    path = write_json(
        "fig4a_runtime_vs_rows",
        {
            "benchmark": "fig4a_runtime_vs_rows",
            "harness": "benchmarks/conftest.py:fig4_point",
            "config": {
                "row_length": ROW_LENGTH,
                "ladder": row_counts,
                "sample_size": FIG4_SAMPLE_SIZE,
                "scale": scale,
            },
            "points": points,
        },
    )
    assert path.exists()

    # Shape: total time increases with the number of rows, and applying the
    # transformations is the dominant discovery module at the largest size.
    totals = [point["total_s"] for point in points]
    assert totals[-1] > totals[0]
    largest = points[-1]["stages"]
    assert largest["applying_transformations"] >= largest["placeholder_generation"]
