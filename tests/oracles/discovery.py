"""The naive brute-force baseline (Section 3.1 of the paper).

The naive approach enumerates every transformation up to a maximum number of
units, where each unit is any enabled transformation unit with any parameter
assignment valid for the observed inputs, computes the coverage of each by
applying it to every pair, and then selects the maximum-coverage
transformation or a greedy cover.

The number of transformations is exponential in the transformation length, so
this baseline is only runnable on very small inputs (short strings, one or
two units).  It is the exhaustive search that the discovery engine of
:mod:`repro.core.discovery` can be checked against on tiny cases where that
search is feasible.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import product

from repro.core.cover import greedy_minimal_cover, top_k_by_coverage
from repro.core.coverage import CoverageComputer, CoverageResult
from repro.core.pairs import RowPair, pairs_from_strings
from repro.core.transformation import Transformation
from repro.core.units import Literal, Split, SplitSubstr, Substr, TransformationUnit


@dataclass(frozen=True)
class NaiveConfig:
    """Bounds that keep the brute-force search finite.

    ``max_units`` is the maximum transformation length; ``max_length`` bounds
    the Substr/SplitSubstr position space; ``time_limit_seconds`` aborts the
    enumeration (the result then reflects the transformations enumerated so
    far, mimicking the paper's practice of reporting timeouts).
    """

    max_units: int = 2
    max_length: int = 12
    max_literal_length: int = 4
    include_split_substr: bool = False
    time_limit_seconds: float = 30.0
    max_transformations: int = 2_000_000

    def __post_init__(self) -> None:
        if self.max_units < 1:
            raise ValueError(f"max_units must be >= 1, got {self.max_units}")
        if self.max_length < 1:
            raise ValueError(f"max_length must be >= 1, got {self.max_length}")


@dataclass
class NaiveResult:
    """Outcome of a naive enumeration run."""

    pairs: list[RowPair]
    top: list[CoverageResult] = field(default_factory=list)
    cover: list[CoverageResult] = field(default_factory=list)
    enumerated: int = 0
    timed_out: bool = False
    elapsed_seconds: float = 0.0

    @property
    def best(self) -> CoverageResult | None:
        """The highest-coverage transformation found (None when nothing was)."""
        return self.top[0] if self.top else None


class NaiveDiscovery:
    """Brute-force transformation enumeration."""

    def __init__(self, config: NaiveConfig | None = None) -> None:
        self._config = config or NaiveConfig()

    # ------------------------------------------------------------------ #
    # Unit enumeration
    # ------------------------------------------------------------------ #
    def enumerate_units(self, pairs: Sequence[RowPair]) -> list[TransformationUnit]:
        """Every unit with every parameter assignment valid for *pairs*.

        The parameter space is derived from the observed sources and targets:
        every substring position up to ``max_length``, every character of any
        source as a split delimiter, and every short substring of any target
        as a literal.
        """
        config = self._config
        max_len = min(
            config.max_length,
            max((len(p.source) for p in pairs), default=0),
        )
        units: list[TransformationUnit] = []

        for start in range(max_len):
            for end in range(start + 1, max_len + 1):
                units.append(Substr(start, end))

        delimiters = sorted({c for p in pairs for c in p.source})
        max_pieces = max(
            (p.source.count(c) + 1 for p in pairs for c in delimiters), default=1
        )
        for delimiter in delimiters:
            for index in range(1, max_pieces + 1):
                units.append(Split(delimiter, index))

        if config.include_split_substr:
            for delimiter in delimiters:
                for index in range(1, max_pieces + 1):
                    for start in range(max_len):
                        for end in range(start + 1, max_len + 1):
                            units.append(SplitSubstr(delimiter, index, start, end))

        literals = sorted(
            {
                p.target[i : i + length]
                for p in pairs
                for length in range(1, config.max_literal_length + 1)
                for i in range(len(p.target) - length + 1)
            }
        )
        units.extend(Literal(text) for text in literals)
        return units

    def enumerate_transformations(
        self, pairs: Sequence[RowPair]
    ) -> Iterator[Transformation]:
        """Every transformation of up to ``max_units`` units (lazily)."""
        units = self.enumerate_units(pairs)
        for length in range(1, self._config.max_units + 1):
            for combination in product(units, repeat=length):
                yield Transformation(combination)

    # ------------------------------------------------------------------ #
    # Discovery
    # ------------------------------------------------------------------ #
    def discover_from_strings(self, pairs: Sequence[tuple[str, str]]) -> NaiveResult:
        """Convenience wrapper over plain string tuples."""
        return self.discover(pairs_from_strings(pairs))

    def discover(self, pairs: Sequence[RowPair]) -> NaiveResult:
        """Run the brute-force search (subject to the configured bounds)."""
        pairs = list(pairs)
        if not pairs:
            return NaiveResult(pairs=[])
        config = self._config
        computer = CoverageComputer(pairs, use_unit_cache=False)
        results: list[CoverageResult] = []
        started = time.perf_counter()
        enumerated = 0
        timed_out = False
        for transformation in self.enumerate_transformations(pairs):
            enumerated += 1
            coverage = computer.coverage_of(transformation)
            if coverage.coverage > 0:
                results.append(coverage)
            if enumerated >= config.max_transformations:
                timed_out = True
                break
            if (
                enumerated % 1000 == 0
                and time.perf_counter() - started > config.time_limit_seconds
            ):
                timed_out = True
                break
        elapsed = time.perf_counter() - started
        top = top_k_by_coverage(results, 5) if results else []
        cover = greedy_minimal_cover(results) if results else []
        return NaiveResult(
            pairs=pairs,
            top=top,
            cover=cover,
            enumerated=enumerated,
            timed_out=timed_out,
            elapsed_seconds=elapsed,
        )
