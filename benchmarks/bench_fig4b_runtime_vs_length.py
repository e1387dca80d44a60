"""Figure 4b — Runtime breakdown as the input length grows (horizontal growth).

The paper fixes the number of rows at 100 and sweeps the row length from 20
to 280 characters.  With no pruning the running time would grow cubically in
the length (l^p with p=3); the pruning strategies keep it far below that, and
beyond a certain length the duplicate-removal / placeholder-generation stages
take longer than applying the surviving transformations.

Each point comes from :func:`conftest.fig4_point`; the sweep is written to
``benchmarks/results/BENCH_fig4b_runtime_vs_length.json``.
"""

from __future__ import annotations

from conftest import FIG4_SAMPLE_SIZE, bench_scale, fig4_point, write_json

FULL_LENGTHS = [20, 60, 100, 140, 180, 220, 260]


def sweep_lengths(scale: float) -> list[int]:
    """The subset of FULL_LENGTHS used at the given scale."""
    count = max(3, int(round(len(FULL_LENGTHS) * min(1.0, scale * 4))))
    return FULL_LENGTHS[:count]


def run_length_point(row_length: int, num_rows: int) -> dict:
    """One point of the Figure 4b sweep; every length uses the same seed."""
    return fig4_point(num_rows, row_length, seed=1000 + num_rows)


def test_fig4b_runtime_vs_length(benchmark):
    """Regenerate Figure 4b (runtime breakdown vs input length)."""
    scale = bench_scale()
    num_rows = max(20, int(round(100 * scale)))
    lengths = sweep_lengths(scale)
    points = [run_length_point(length, num_rows) for length in lengths]

    benchmark(run_length_point, lengths[0], num_rows)

    path = write_json(
        "fig4b_runtime_vs_length",
        {
            "benchmark": "fig4b_runtime_vs_length",
            "harness": "benchmarks/conftest.py:fig4_point",
            "config": {
                "num_rows": num_rows,
                "lengths": lengths,
                "sample_size": FIG4_SAMPLE_SIZE,
                "scale": scale,
            },
            "points": points,
        },
    )
    assert path.exists()

    # Shape: total time grows with the input length but far slower than the
    # un-pruned cubic bound (doubling the length should not increase the total
    # time by the 8x a cubic growth would imply — allow generous slack).
    totals = [point["total_s"] for point in points]
    assert totals[-1] > totals[0]
    length_ratio = lengths[-1] / lengths[0]
    time_ratio = totals[-1] / max(totals[0], 1e-9)
    assert time_ratio < length_ratio**3
