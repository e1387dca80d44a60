"""numpy block walker for the apply-only engine.

:func:`transform_trie_rows_numpy` is the numpy implementation of
:func:`repro.model.apply.transform_trie_rows` — same signature, equal
return value.  The apply walk has no target column, so unlike the coverage
walk there are no statistics to preserve and no warm cache to consult:
a unit's output per row is a pure function of the row.  That makes the
aggressive form legal — when a unit is first touched in a block, its
output is computed for *every* row of the block in one vectorized pass
(``np.strings`` count/partition/slice for the split and substring
families), cached as a ``StringDType`` array plus a validity mask, and the
depth-first walk itself carries per-row prefix strings as ``StringDType``
arrays extended with ``np.strings.add``.  Rows where some unit is not
applicable are masked out exactly where the reference walk prunes them,
so each transformation's ``(row, output)`` pairs come out ascending and
identical to the serial kernel's.

The split families rest on one identity: ``s.split(d)[k]`` equals the
first segment of the remainder after ``k`` successive partitions, valid
exactly when ``d`` occurs at least ``max(1, k)`` times in ``s`` — the
reference's ``num_pieces < 2 or piece_index >= num_pieces`` guard.
"""

from __future__ import annotations

from functools import cache
from types import ModuleType
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    from repro.core.coverage import PackedTrie

#: Inputs smaller than this stay on the pure-Python walker: a serve-style
#: micro-batch cannot amortize the per-block array setup.
_APPLY_MIN_ROWS = 64

_BLOCK_ROWS = 1024


@cache
def _numpy() -> ModuleType | None:
    """numpy when it has the ``np.strings`` ops the walker uses, else ``None``.

    Probed once per process, and only when a batch is large enough to use
    the walker, so a fit or a run of micro-batches never imports numpy.
    """
    try:
        import numpy
    except ImportError:
        return None
    strings = getattr(numpy, "strings", None)
    if not (hasattr(strings, "slice") and hasattr(strings, "partition")):
        return None
    return numpy


def available() -> bool:
    """Whether the numpy apply walker can run (numpy with ``np.strings``)."""
    return _numpy() is not None


def transform_trie_rows_numpy(
    values: Sequence[str],
    row_offset: int,
    trie: "PackedTrie",
) -> dict[int, list[tuple[int, str]]]:
    """The numpy twin of :func:`repro.model.apply.transform_trie_rows`."""
    np = _numpy()
    assert np is not None, "numpy apply walker requires numpy with np.strings"
    from numpy.dtypes import StringDType

    from repro.core.coverage import _OP_LITERAL  # noqa: PLC0415
    from repro.core.coverage import (
        _OP_SPLIT,
        _OP_SPLITSUBSTR,
        _OP_SUBSTR,
        _OP_TWOCHAR,
    )

    strings = np.strings
    string_dtype = StringDType()
    intp = np.intp

    outputs: dict[int, list[tuple[int, str]]] = {}
    root_edges = trie.root_edges
    root_terminals = trie.root_terminals
    num_rows = len(values)

    for block_start in range(0, num_rows, _BLOCK_ROWS):
        block = values[block_start : block_start + _BLOCK_ROWS]
        block_n = len(block)
        block_row0 = row_offset + block_start
        sources_np = np.array(block, dtype=string_dtype)
        source_lengths = strings.str_len(sources_np)

        # Per-block caches: the split-piece arrays shared by every unit of
        # one (delimiter, piece index), and per-unit full-block outputs.
        delim_scalars: dict[int, Any] = {}
        count_cache: dict[int, Any] = {}
        rem_cache: dict[tuple[int, int], Any] = {}
        piece_cache: dict[tuple[int, int], Any] = {}
        unit_cache: dict[int, tuple[Any, Any]] = {}

        def split_piece(delimiter: str, piece_index: int, delimiter_id: int):
            """``source.split(delimiter)[piece_index]`` for the whole block.

            Returns ``(piece, valid)`` where *valid* is the reference's
            ``num_pieces >= 2 and piece_index < num_pieces`` guard; *piece*
            is meaningful only where *valid* holds.
            """
            counts = count_cache.get(delimiter_id)
            if counts is None:
                delim_scalars[delimiter_id] = np.array(
                    delimiter, dtype=string_dtype
                )
                counts = count_cache[delimiter_id] = strings.count(
                    sources_np, delim_scalars[delimiter_id]
                )
            piece = piece_cache.get((delimiter_id, piece_index))
            if piece is None:
                sep = delim_scalars[delimiter_id]
                depth = 0
                remainder = sources_np
                for k in range(piece_index, 0, -1):
                    cached = rem_cache.get((delimiter_id, k))
                    if cached is not None:
                        depth = k
                        remainder = cached
                        break
                while depth < piece_index:
                    remainder = strings.partition(remainder, sep)[2]
                    depth += 1
                    rem_cache[(delimiter_id, depth)] = remainder
                piece = strings.partition(remainder, sep)[0]
                piece_cache[(delimiter_id, piece_index)] = piece
            valid = counts >= (piece_index if piece_index > 1 else 1)
            return piece, valid

        def unit_outputs(edge: tuple) -> tuple[Any, Any]:
            """Full-block ``(outputs, valid)`` for *edge*'s unit.

            Mirrors the reference's opcode evaluation (minus the coverage
            walk's target checks, which do not exist here); evaluating rows
            the walk never reaches is invisible — outputs are pure.
            """
            unit_id = edge[0]
            cached = unit_cache.get(unit_id)
            if cached is not None:
                return cached
            op = edge[1]
            args = edge[2]
            if op == _OP_SPLITSUBSTR:
                delimiter, piece_index, start, end, delimiter_id = args
                piece, valid = split_piece(delimiter, piece_index, delimiter_id)
                valid = valid & (strings.str_len(piece) >= end)
                out = strings.slice(piece, start, end)
            elif op == _OP_SPLIT:
                out, valid = split_piece(args[0], args[1], args[2])
            elif op == _OP_SUBSTR:
                valid = source_lengths >= args[1]
                out = strings.slice(sources_np, args[0], args[1])
            else:
                # _OP_TWOCHAR and _OP_APPLY run the reference loop per row.
                out_list: list[str] = []
                valid_list: list[bool] = []
                for source in block:
                    if op == _OP_TWOCHAR:
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
                        if pieces is None or args[2] >= len(pieces):
                            output = None
                        else:
                            piece_str = pieces[args[2]]
                            output = (
                                piece_str[args[3] : args[4]]
                                if args[4] <= len(piece_str)
                                else None
                            )
                    else:
                        output = args[0](source)
                    if output is None:
                        out_list.append("")
                        valid_list.append(False)
                    else:
                        out_list.append(output)
                        valid_list.append(True)
                out = np.array(out_list, dtype=string_dtype)
                valid = np.array(valid_list, dtype=bool)
            unit_cache[unit_id] = (out, valid)
            return out, valid

        all_slots = np.arange(block_n, dtype=intp)
        empty_prefixes = np.zeros(block_n, dtype=string_dtype)
        stack: list[tuple[list, list[int], Any, Any]] = [
            (root_edges, root_terminals, all_slots, empty_prefixes)
        ]
        push = stack.append
        pop = stack.pop
        while stack:
            edges, terminals, slots, prefixes = pop()
            if terminals:
                rows = (slots + block_row0).tolist()
                prefix_list = prefixes.tolist()
                for index in terminals:
                    outputs.setdefault(index, []).extend(
                        zip(rows, prefix_list)
                    )
            for edge in edges:
                op = edge[1]
                if op == _OP_LITERAL:
                    if args_text := edge[2][0]:
                        push(
                            (
                                edge[3],
                                edge[4],
                                slots,
                                strings.add(prefixes, args_text),
                            )
                        )
                    else:
                        push((edge[3], edge[4], slots, prefixes))
                    continue
                out, valid = unit_outputs(edge)
                ok = valid[slots]
                num_ok = int(ok.sum())
                if not num_ok:
                    continue
                if num_ok == len(slots):
                    child_slots = slots
                    child_prefixes = strings.add(prefixes, out[slots])
                else:
                    child_slots = slots[ok]
                    child_prefixes = strings.add(
                        prefixes[ok], out[child_slots]
                    )
                push((edge[3], edge[4], child_slots, child_prefixes))

    return outputs


__all__ = ["available", "transform_trie_rows_numpy", "_APPLY_MIN_ROWS"]
