"""The apply-only execution engine: batch-transform arbitrary rows.

Discovery needs coverage — *does* this transformation map source to target —
but the apply path of a persisted :class:`~repro.model.artifact.TransformationModel`
needs outputs: the transformed value of every (transformation, source row)
combination, over rows that were never part of training.  The one-at-a-time
loop (``transformation.apply(value)`` per transformation per row) re-applies
shared unit prefixes and re-splits the same value once per split unit; this
module instead compiles the transformation set into the same packed
unit-prefix trie the coverage engine of :mod:`repro.core.coverage` walks
(its opcode specialization included) and walks it edge by edge, one column
of a 1,024-row block at a time:

* each unit's outputs are computed once per block, as a list holding
  ``None`` for the rows the unit does not apply to;
* split-family units of one delimiter share one list of ``str.split``
  results per block;
* each edge extends its parent's list of prefix strings in one list
  comprehension, so transformations sharing a unit prefix share the
  prefix's outputs;
* a subtree in which every row is ``None`` is skipped.

There is no target column in the walk, so none of the coverage walk's
target-anchored machinery applies (no literal-anchor prefilter, no
positional pruning, no non-covering cache).  A caller that only wants the
outputs equal to some value — the joiner, which wants those equal to a
target value — passes those values as *within*, and every other output is
dropped before any ``(row, output)`` pair is built.  Results are exactly
``transformation.apply(value)`` for every pair (restricted to *within* when
given); the property tests assert that equivalence row by row.

Every structure is per-block, so the walk shards exactly like the coverage
walk: :meth:`TransformationApplier.transform_rows` splits the rows across
:func:`~repro.parallel.executor.map_sharded` workers sharing the frozen trie
(:func:`_transform_shard`) and concatenates shard outputs in order,
byte-identical to the serial walk.
"""

from __future__ import annotations

from collections.abc import Container, Sequence
from time import monotonic
from typing import Any

from repro.core.coverage import (
    _OP_LITERAL,
    _OP_SPLIT,
    _OP_SPLITSUBSTR,
    _OP_SUBSTR,
    PackedTrie,
    _build_unit_trie,
)
from repro.core.transformation import Transformation
from repro.parallel.errors import DeadlineExceededError
from repro.parallel.executor import (
    check_execution_settings,
    map_sharded,
    tuned_num_workers,
    worker_state,
)

#: Rows per block of the column walk.  A block's unit-output and prefix
#: columns stay alive while it is walked, so the block size bounds the
#: walk's memory, and the cooperative deadline is checked before each
#: block — the same boundary discipline as the budgeted coverage walk, so
#: an overlong apply stops burning CPU within one block of its deadline.
_BLOCK_ROWS = 1024


def transform_trie_rows(
    values: Sequence[str],
    row_offset: int,
    trie: PackedTrie,
    *,
    deadline: float | None = None,
    within: Container[str] | None = None,
) -> dict[int, list[tuple[int, str]]]:
    """Apply every transformation of *trie* to every value of *values*.

    This is the batched apply kernel, shared by the serial engine (all rows,
    ``row_offset=0``) and the process-sharded engine (a contiguous row
    slice, with *row_offset* restoring global row ids).  Returns a mapping
    from a transformation's index in the trie to its ``(row, output)``
    pairs, rows ascending; combinations where some unit was not applicable
    are absent (exactly the rows where ``Transformation.apply`` returns
    ``None``), and so is a transformation with no pair at all.

    *within* (a container of strings) keeps only the outputs that are in
    it: the joiner passes its target ``ValueIndex``, so its probe loop sees
    only outputs that join.  ``None`` (the default) keeps every output.

    ``deadline`` (a ``time.monotonic()`` timestamp; ``CLOCK_MONOTONIC`` is
    system-wide, so sharded workers can honour a deadline computed in the
    parent) is checked before each :data:`_BLOCK_ROWS`-row block.  Unlike
    the budgeted coverage walk — which degrades to the rows walked in
    time — an apply caller needs *complete* outputs or none (a served join
    response must be byte-identical to the offline result, never a prefix
    of it), so an expired deadline raises :class:`DeadlineExceededError`
    instead of truncating.  Results of a run that completes under a
    deadline are byte-identical to an unbounded run.
    """
    outputs: dict[int, list[tuple[int, str]]] = {}
    total = len(values)
    for start in range(0, total, _BLOCK_ROWS):
        if deadline is not None and monotonic() >= deadline:
            raise DeadlineExceededError(
                f"apply deadline expired after {start} of {total} rows"
            )
        _walk_block(
            values[start : start + _BLOCK_ROWS],
            row_offset + start,
            trie,
            within,
            outputs,
        )
    return outputs


def _transform_shard(
    start: int, stop: int
) -> dict[int, list[tuple[int, str]]]:
    """Shard worker of :meth:`TransformationApplier.transform_rows`.

    Transforms rows ``[start, stop)`` of the shared ``(values, trie,
    deadline, within)`` state, reporting global row ids.
    """
    values, trie, deadline, within = worker_state()
    return transform_trie_rows(
        values[start:stop], start, trie, deadline=deadline, within=within
    )


def _walk_block(
    block: Sequence[str],
    first_row: int,
    trie: PackedTrie,
    within: Container[str] | None,
    outputs: dict[int, list[tuple[int, str]]],
) -> None:
    """Walk *trie* over one block of rows, extending *outputs* in place.

    Every list the walk builds is a column of the block: entry ``i``
    belongs to row ``first_row + i``, and ``None`` marks a row that some
    unit on the path does not apply to.  A prefix column carries a flag
    saying whether it holds any ``None``, so the common all-applicable
    case runs comprehensions without a ``None`` test.  Blocks arrive in
    ascending row order, so extending keeps every transformation's pairs
    ascending.
    """
    size = len(block)
    rows = range(first_row, first_row + size)
    # unit id -> (its output column, whether the column holds a None)
    unit_columns: dict[int, tuple[list[Any], bool]] = {}
    # Split results shared between units: see _piece_column.
    shared: dict[Any, list[Any]] = {}
    blank = [""] * size
    stack: list[tuple[list, list[int], list[Any], bool]] = [
        (trie.root_edges, trie.root_terminals, blank, False)
    ]
    while stack:
        edges, terminals, prefixes, sparse = stack.pop()
        for index in terminals:
            # Every unit on the path applied where the prefix is a string:
            # the concatenated prefix is this transformation's output.
            if within is not None:
                pairs = [
                    (row, prefix)
                    for row, prefix in zip(rows, prefixes)
                    if prefix in within
                ]
            elif sparse:
                pairs = [
                    (row, prefix)
                    for row, prefix in zip(rows, prefixes)
                    if prefix is not None
                ]
            else:
                pairs = list(zip(rows, prefixes))
            if pairs:
                outputs.setdefault(index, []).extend(pairs)
        for edge in edges:
            if edge[1] == _OP_LITERAL:
                # Literals always apply: no unit column, no new None.
                text = edge[2][0]
                if not text:
                    child = prefixes
                elif sparse:
                    child = [
                        None if prefix is None else prefix + text
                        for prefix in prefixes
                    ]
                else:
                    child = [prefix + text for prefix in prefixes]
                stack.append((edge[3], edge[4], child, sparse))
                continue
            column = unit_columns.get(edge[0])
            if column is None:
                column = unit_columns[edge[0]] = _unit_column(
                    edge[1], edge[2], block, shared
                )
            unit_outputs, child_sparse = column
            if prefixes is blank:
                # Below the root, the prefix is the unit's output itself.
                child = unit_outputs
            elif sparse or child_sparse:
                child = [
                    None if prefix is None or output is None else prefix + output
                    for prefix, output in zip(prefixes, unit_outputs)
                ]
                child_sparse = True
            else:
                child = [
                    prefix + output
                    for prefix, output in zip(prefixes, unit_outputs)
                ]
            if child_sparse:
                missing = child.count(None)
                if missing == size:
                    # No row reaches below this edge.
                    continue
                child_sparse = missing > 0
            stack.append((edge[3], edge[4], child, child_sparse))


def _unit_column(
    op: int,
    args: tuple,
    block: Sequence[str],
    shared: dict[Any, list[Any]],
) -> tuple[list[Any], bool]:
    """One unit's output for every row of *block*, and whether any is ``None``.

    The opcode evaluation mirrors the coverage walker of
    :mod:`repro.core.coverage` minus its target-anchored checks.  Both must
    keep matching the units' ``apply()`` semantics — the property tests pin
    each walker to ``Transformation.apply`` directly — so a change to unit
    semantics must update both places.  Units read the source only, so a
    column is computed once per block whichever edges reach it.
    """
    if op == _OP_SUBSTR:
        start, end = args
        column = [
            source[start:end] if len(source) >= end else None for source in block
        ]
    elif op == _OP_SPLIT:
        column = _piece_column(args[0], args[1], args[2], block, shared)
    elif op == _OP_SPLITSUBSTR:
        delimiter, piece_index, start, end, delimiter_id = args
        column = [
            None if piece is None or len(piece) < end else piece[start:end]
            for piece in _piece_column(
                delimiter, piece_index, delimiter_id, block, shared
            )
        ]
    else:  # _OP_TWOCHAR
        first, second, piece_index, start, end, mode = args
        key = (first, second)
        split_rows = shared.get(key)
        if split_rows is None:
            split_rows = shared[key] = [
                _two_char_split(source, first, second, mode) for source in block
            ]
        column = [
            None
            if pieces is None
            or len(pieces) <= piece_index
            or len(part := pieces[piece_index]) < end
            else part[start:end]
            for pieces in split_rows
        ]
    return column, None in column


def _piece_column(
    delimiter: str,
    piece_index: int,
    delimiter_id: int,
    block: Sequence[str],
    shared: dict[Any, list[Any]],
) -> list[Any]:
    """``source.split(delimiter)[piece_index]`` for every row of *block*,
    ``None`` where a split unit does not apply.

    *shared* keeps the block's splits under the delimiter id, its piece
    columns under ``(delimiter id, piece index)`` and the two-character
    splits of :func:`_unit_column` under the delimiter pair.
    """
    key = (delimiter_id, piece_index)
    column = shared.get(key)
    if column is None:
        split_rows = shared.get(delimiter_id)
        if split_rows is None:
            split_rows = shared[delimiter_id] = [
                source.split(delimiter) for source in block
            ]
        # A split unit applies when the row splits at all (two pieces or
        # more) and has the piece.
        least = max(piece_index, 1)
        column = shared[key] = [
            pieces[piece_index] if len(pieces) > least else None
            for pieces in split_rows
        ]
    return column


def _two_char_split(
    source: str, first: str, second: str, mode: int
) -> list[str] | None:
    """``TwoCharSplitSubstr``'s pieces of *source*, ``None`` when neither
    delimiter occurs; *mode* says which delimiters are single characters,
    the only ones the unit splits on (2 both, 1 the first, -1 the second).
    """
    if first not in source and second not in source:
        return None
    if mode == 2:
        return source.replace(second, first).split(first)
    if mode == 1:
        return source.split(first)
    if mode == -1:
        return source.split(second)
    return [source]


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

    def transform_rows(
        self,
        values: Sequence[str],
        *,
        num_workers: int = 1,
        task_timeout: float | None = None,
        shard_retries: int = 2,
        serial_fallback: bool = True,
        deadline: float | None = None,
        within: Container[str] | None = None,
    ) -> dict[int, list[tuple[int, str]]]:
        """Outputs of every transformation over *values*.

        Returns the kernel mapping (transformation index → ascending
        ``(row, output)`` pairs; non-applicable combinations absent), kept
        to the outputs in *within* when it is given (see
        :func:`transform_trie_rows`).  With ``num_workers`` above 1 the
        rows are sharded across a process pool (0 = all cores), *within*
        travelling with them; the resolution goes through
        :func:`~repro.parallel.executor.tuned_num_workers`, so small inputs
        (below ``REPRO_MIN_ROWS_PER_WORKER`` rows per worker) take the
        serial path regardless — results are identical either way.
        ``task_timeout``/``shard_retries``/``serial_fallback`` configure the
        sharded path's fault tolerance (see
        :func:`~repro.parallel.executor.map_sharded`); ``deadline`` is
        the cooperative monotonic cut honoured at block boundaries in the
        walk, serial and sharded alike (see
        :func:`transform_trie_rows`).  Out-of-range settings raise
        ``ValueError`` whatever the worker count.
        """
        check_execution_settings(
            num_workers=num_workers,
            shard_retries=shard_retries,
            task_timeout=task_timeout,
        )
        if self._trie is None or not values:
            return {}
        workers = tuned_num_workers(num_workers, len(values))
        if workers > 1:
            shards = map_sharded(
                (list(values), self._trie, deadline, within),
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
        return transform_trie_rows(
            values, 0, self._trie, deadline=deadline, within=within
        )


__all__ = [
    "TransformationApplier",
    "transform_trie_rows",
]
