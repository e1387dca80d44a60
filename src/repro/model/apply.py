"""The apply-only execution engine: batch-transform arbitrary rows.

Discovery needs coverage — *does* this transformation map source to target —
but the apply path of a persisted :class:`~repro.model.artifact.TransformationModel`
needs outputs: the transformed value of every (transformation, source row)
combination, over rows that were never part of training.  The one-at-a-time
loop (``transformation.apply(value)`` per transformation per row) re-applies
shared unit prefixes and re-splits the same value once per split unit; this
module instead compiles the transformation set into the same packed
unit-prefix trie the coverage engine of :mod:`repro.core.coverage` walks
(PR 4's opcode specialization included) and evaluates each unit at most once
per (unit, row):

* transformations sharing a unit prefix share the prefix's outputs — one
  evaluation feeds every subtree below it;
* split-family units of one delimiter share a single ``str.split`` per row
  through the per-row split caches;
* a unit that is not applicable to a row (``None`` output) prunes its whole
  subtree for that row in one step.

There is no target column here, so none of the coverage walk's
target-anchored machinery applies: no literal-anchor prefilter (nothing to
scan), no positional pruning (no prefix to diverge from), no non-covering
cache (``output not in target`` is a coverage notion).  The walk is a plain
depth-first descent accumulating concatenated output strings, and its
results are exactly ``transformation.apply(value)`` for every pair — the
property tests assert that equivalence against the reference loop.

Every structure is per-row, so the kernel shards exactly like the coverage
kernel: :meth:`TransformationApplier.transform_rows` splits the rows across
:func:`~repro.parallel.executor.map_sharded` workers sharing the frozen trie
(:func:`_transform_shard`) and concatenates shard outputs in order,
byte-identical to the serial walk.
"""

from __future__ import annotations

from collections.abc import Sequence
from time import monotonic

from repro.core.coverage import (
    _OP_LITERAL,
    _OP_SPLIT,
    _OP_SPLITSUBSTR,
    _OP_SUBSTR,
    _OP_TWOCHAR,
    PackedTrie,
    _build_unit_trie,
)
from repro.core.transformation import Transformation
from repro.kernels.apply import (
    _APPLY_MIN_ROWS,
    available,
    transform_trie_rows_numpy,
)
from repro.parallel.errors import DeadlineExceededError
from repro.parallel.executor import (
    map_sharded,
    tuned_num_workers,
    worker_state,
)

#: Row-block granularity of the cooperative deadline checks: with a
#: deadline set, the walk dispatches one block at a time and checks the
#: clock between blocks — the same boundary discipline as the budgeted
#: coverage walk, so a hung or overlong apply stops burning CPU within one
#: block of the deadline instead of finishing the whole batch.
_DEADLINE_BLOCK_ROWS = 1024


def transform_trie_rows(
    values: Sequence[str],
    row_offset: int,
    trie: PackedTrie,
    *,
    deadline: float | None = None,
) -> dict[int, list[tuple[int, str]]]:
    """Apply every transformation of *trie* to every value of *values*.

    This is the batched apply kernel, shared by the serial engine (all rows,
    ``row_offset=0``) and the process-sharded engine (a contiguous row
    slice, with *row_offset* restoring global row ids).  Returns a mapping
    from a transformation's index in the trie to its ``(row, output)``
    pairs, rows ascending; combinations where some unit was not applicable
    are absent (exactly the rows where ``Transformation.apply`` returns
    ``None``).

    Batches large enough to amortize array setup run the numpy walker of
    :mod:`repro.kernels.apply` when it is available; serve-style
    micro-batches and numpy-less installs take the loop below.  Results
    are equal either way.

    ``deadline`` (a ``time.monotonic()`` timestamp; ``CLOCK_MONOTONIC`` is
    system-wide, so sharded workers can honour a deadline computed in the
    parent) bounds the walk cooperatively at
    :data:`_DEADLINE_BLOCK_ROWS`-row block boundaries.  Unlike the budgeted
    coverage walk — which degrades to the rows walked in time — an apply
    caller needs *complete* outputs or none (a served join response must be
    byte-identical to the offline result, never a prefix of it), so an
    expired deadline raises :class:`DeadlineExceededError` instead of
    truncating.  Results of a run that completes under a deadline are
    byte-identical to an unbounded run.
    """
    if deadline is None:
        return _dispatch_trie_rows(values, row_offset, trie)
    outputs: dict[int, list[tuple[int, str]]] = {}
    total = len(values)
    for start in range(0, total, _DEADLINE_BLOCK_ROWS):
        if monotonic() >= deadline:
            raise DeadlineExceededError(
                f"apply deadline expired after {start} of {total} rows"
            )
        block = _dispatch_trie_rows(
            values[start : start + _DEADLINE_BLOCK_ROWS],
            row_offset + start,
            trie,
        )
        # Blocks are processed in ascending row order, so extending keeps
        # every transformation's (row, output) list ascending — identical
        # to the unblocked walk.
        for index, pairs in block.items():
            existing = outputs.get(index)
            if existing is None:
                outputs[index] = pairs
            else:
                existing.extend(pairs)
    return outputs


def _transform_shard(
    start: int, stop: int
) -> dict[int, list[tuple[int, str]]]:
    """Shard worker of :meth:`TransformationApplier.transform_rows`.

    Transforms rows ``[start, stop)`` of the shared ``(values, trie,
    deadline)`` state, reporting global row ids.
    """
    values, trie, deadline = worker_state()
    return transform_trie_rows(
        values[start:stop], start, trie, deadline=deadline
    )


def _dispatch_trie_rows(
    values: Sequence[str],
    row_offset: int,
    trie: PackedTrie,
) -> dict[int, list[tuple[int, str]]]:
    """Run one batch through the numpy or the Python walker (no deadline logic).

    The size test comes first, so small batches never import numpy.
    """
    if len(values) >= _APPLY_MIN_ROWS and available():
        return transform_trie_rows_numpy(values, row_offset, trie)
    return _transform_trie_rows_python(values, row_offset, trie)


def _transform_trie_rows_python(
    values: Sequence[str],
    row_offset: int,
    trie: PackedTrie,
) -> dict[int, list[tuple[int, str]]]:
    """The reference per-row apply walk — the executable spec the numpy
    walker must match (the property tests pin both to
    ``Transformation.apply``)."""
    outputs: dict[int, list[tuple[int, str]]] = {}
    num_units = trie.num_units
    num_delimiters = trie.num_delimiters
    root_edges = trie.root_edges
    root_terminals = trie.root_terminals

    for slot, source in enumerate(values):
        row = row_offset + slot
        # Per-row caches, same layout as the coverage walk: the unit-output
        # memo (False = not yet applied; outputs are str or None) indexed by
        # the build-time unit ordinals, and the split caches shared by
        # split-family units of one delimiter.
        memo: list = [False] * num_units
        split_cache: list = [None] * num_delimiters
        tsplit_cache: dict = {}

        stack: list[tuple[list, list[int], str]] = [(root_edges, root_terminals, "")]
        push = stack.append
        pop = stack.pop
        while stack:
            edges, terminals, prefix = pop()
            for index in terminals:
                # Every unit on the path applied: the concatenated prefix is
                # this transformation's output for the row.
                outputs.setdefault(index, []).append((row, prefix))
            for edge in edges:
                op = edge[1]
                args = edge[2]
                if op == _OP_LITERAL:
                    # Literals always apply; no memo needed.
                    push((edge[3], edge[4], prefix + args[0]))
                    continue
                unit_id = edge[0]
                output = memo[unit_id]
                if output is False:
                    # NOTE: the opcode evaluation below intentionally mirrors
                    # the coverage walker in repro/core/coverage.py
                    # (_walk_trie_rows) minus its target-anchored checks; both
                    # must keep matching the units' apply() semantics — the
                    # property tests pin each kernel to Transformation.apply
                    # directly, so a change to unit semantics must update all
                    # three places.
                    if op == _OP_SPLITSUBSTR:
                        delimiter, piece_index, start, end, delimiter_id = args
                        pieces = split_cache[delimiter_id]
                        if pieces is None:
                            pieces = split_cache[delimiter_id] = source.split(
                                delimiter
                            )
                        num_pieces = len(pieces)
                        if num_pieces < 2 or piece_index >= num_pieces:
                            output = None
                        else:
                            piece = pieces[piece_index]
                            output = piece[start:end] if end <= len(piece) else None
                    elif op == _OP_SPLIT:
                        pieces = split_cache[args[2]]
                        if pieces is None:
                            pieces = split_cache[args[2]] = source.split(args[0])
                        num_pieces = len(pieces)
                        if num_pieces < 2 or args[1] >= num_pieces:
                            output = None
                        else:
                            output = pieces[args[1]]
                    elif op == _OP_SUBSTR:
                        output = (
                            source[args[0] : args[1]]
                            if args[1] <= len(source)
                            else None
                        )
                    elif op == _OP_TWOCHAR:
                        key = (args[0], args[1])
                        pieces = tsplit_cache.get(key, False)
                        if pieces is False:
                            if args[0] in source or args[1] in source:
                                mode = args[5]
                                if mode == 2:
                                    pieces = source.replace(args[1], args[0]).split(
                                        args[0]
                                    )
                                elif mode == 1:
                                    pieces = source.split(args[0])
                                elif mode == -1:
                                    pieces = source.split(args[1])
                                else:
                                    pieces = [source]
                            else:
                                pieces = None
                            tsplit_cache[key] = pieces
                        if pieces is None or args[2] >= len(pieces):
                            output = None
                        else:
                            piece = pieces[args[2]]
                            output = (
                                piece[args[3] : args[4]]
                                if args[4] <= len(piece)
                                else None
                            )
                    else:  # _OP_APPLY: unknown unit subclasses keep apply()
                        output = args[0](source)
                    memo[unit_id] = output
                if output is not None:
                    push((edge[3], edge[4], prefix + output))
                # output is None: the unit is not applicable to this row,
                # so no transformation below this edge produces a value.
    return outputs


class TransformationApplier:
    """Compile a transformation set once, then batch-transform any rows.

    The compiled trie is read-only after construction (it is the same
    :class:`~repro.core.coverage.PackedTrie` the coverage engine freezes),
    so one applier can serve many :meth:`transform_rows` calls — the
    fit-once / apply-many shape of the artifact layer — and ships to worker
    processes once per sharded run.
    """

    def __init__(self, transformations: Sequence[Transformation]) -> None:
        self._transformations = list(transformations)
        self._trie: PackedTrie | None = (
            _build_unit_trie(self._transformations)
            if self._transformations
            else None
        )

    @property
    def transformations(self) -> list[Transformation]:
        """The compiled transformations, in input order."""
        return list(self._transformations)

    @property
    def trie(self) -> PackedTrie | None:
        """The frozen unit-prefix trie (``None`` for an empty set)."""
        return self._trie

    def transform_rows(
        self,
        values: Sequence[str],
        *,
        num_workers: int = 1,
        min_rows_per_worker: int | None = None,
        task_timeout: float | None = None,
        shard_retries: int = 2,
        serial_fallback: bool = True,
        deadline: float | None = None,
    ) -> dict[int, list[tuple[int, str]]]:
        """Outputs of every transformation over *values*.

        Returns the kernel mapping (transformation index → ascending
        ``(row, output)`` pairs; non-applicable combinations absent).  With
        ``num_workers`` above 1 the rows are sharded across a process pool
        (0 = all cores); the resolution goes through
        :func:`~repro.parallel.executor.tuned_num_workers`, so small inputs
        take the serial path regardless — results are identical either way.
        ``task_timeout``/``shard_retries``/``serial_fallback`` configure the
        sharded path's fault tolerance (see
        :class:`~repro.parallel.executor.ShardedExecutor`); ``deadline`` is
        the cooperative monotonic cut honoured at block boundaries in the
        walkers, serial and sharded alike (see
        :func:`transform_trie_rows`).
        """
        if self._trie is None or not values:
            return {}
        workers = tuned_num_workers(
            num_workers,
            len(values),
            min_items_per_worker=min_rows_per_worker,
        )
        if workers > 1:
            shards = map_sharded(
                (list(values), self._trie, deadline),
                _transform_shard,
                len(values),
                num_workers=workers,
                task_timeout=task_timeout,
                max_shard_retries=shard_retries,
                serial_fallback=serial_fallback,
            )
            outputs: dict[int, list[tuple[int, str]]] = {}
            # Shards arrive in row order, so every (row, output) list stays
            # ascending, as in the serial walk.
            for shard in shards:
                for index, pairs in shard.items():
                    outputs.setdefault(index, []).extend(pairs)
            return outputs
        return transform_trie_rows(values, 0, self._trie, deadline=deadline)

    def apply_all(
        self,
        values: Sequence[str],
        *,
        num_workers: int = 1,
        min_rows_per_worker: int | None = None,
    ) -> list[list[str | None]]:
        """Dense output table: ``result[t][row]`` is the transformed value.

        The dense convenience view of :meth:`transform_rows` —
        ``None`` marks non-applicable combinations, matching
        ``Transformation.apply``.
        """
        table: list[list[str | None]] = [
            [None] * len(values) for _ in self._transformations
        ]
        outputs = self.transform_rows(
            values,
            num_workers=num_workers,
            min_rows_per_worker=min_rows_per_worker,
        )
        for index, pairs in outputs.items():
            row_outputs = table[index]
            for row, output in pairs:
                row_outputs[row] = output
        return table


__all__ = [
    "TransformationApplier",
    "transform_trie_rows",
    "_transform_trie_rows_python",
]
