"""Coverage computation with the non-covering-unit cache (Section 4.1.5).

Computing the coverage of every candidate transformation is the dominant cost
of discovery: each transformation must, in principle, be applied to every row
pair.  Four observations make this cheap in practice:

* **Duplicate removal** — the same transformation is generated by many rows;
  storing transformations in a hash set keeps one copy.
* **Non-covering-unit cache** — a transformation cannot cover a row if any of
  its units produces output that is not a substring of the row's target (or
  no output at all).  For every row we memoize the units already known not to
  cover it; before applying a transformation we check its units against that
  set in O(1) per unit, and skip the application on a hit.  Because candidate
  transformations are Cartesian products of candidate units, the same units
  recur across many transformations and the cache is extremely effective
  (hit ratios above 90 % in the paper's experiments and in ours).
* **Batch mode** (:meth:`CoverageComputer.coverage_of_trie`) —
  transformations are grouped by shared unit prefixes into a trie
  (transformations sharing a first unit share a root edge, and so on
  recursively), and each row walks the trie once.  A unit is applied at
  most once per (unit, row) — its output is memoized for the whole batch —
  and when a unit fails on a row, the *entire subtree* of transformations
  below it is skipped with a single cache consultation instead of one per
  transformation.  Batch mode additionally prunes positionally: a
  transformation's output is the concatenation of its units' outputs, so
  the accumulated prefix must be a literal prefix of the target; subtrees
  whose prefix diverges can never cover the row, even if every remaining
  unit's output appears somewhere in the target.
* **The generation-built trie and owner rows** — discovery does not build
  the trie at coverage time.  Candidate generation expands each skeleton's
  Cartesian product depth first straight into it (:class:`TrieBuilder`),
  merging adjacent literals on the way, so duplicate removal is "this node
  already has a terminal".  Each node records the one row that generated
  every transformation below it, its *owner*, when there is one.  This
  relies on an invariant of generation: every generated transformation
  covers the row that generated it
  (``test_every_generated_transformation_reproduces_the_target``).  So
  when the walk would carry a row into a node it owns, it adds the node's
  subtree size to misses and applications instead of descending, and each
  result's mask starts with the bit of the row that generated it first
  whenever the walk reaches that row.  Every other row is still walked, so
  a transformation that covers more rows than generated it is still found.
  :meth:`CoverageComputer.coverage_of_all` over a list builds its trie from
  the list, with no owners, and walks every row; both give the same masks
  and counters for the same transformations.
* **Literal-anchored candidate pruning** (the coverage-v3 prefilter) — a
  :class:`~repro.core.units.Literal` unit emits its text unconditionally, so
  a transformation containing one can only cover rows whose target contains
  that text.  At trie-build time every edge records the anchor texts (ids
  into a table of distinct anchor texts, with an Aho-Corasick automaton
  over the table) that every transformation below it needs, minus those
  that every edge of its parent node needs: a row reaches an edge only
  through the parent node's own edge, whose check already proved those.
  Per row, one automaton scan of the target collects the set of anchors it
  contains, and an edge whose anchors are not all in that set skips its
  whole subtree before any unit is applied; most edges check none.
  Literal-first root subtrees are dispatched *sparsely*: only the ones
  whose anchor the scan actually found are visited, the pruned remainder
  is accounted in O(1).  Transformations without literal units carry no
  anchors, so for them the prefilter is a no-op.  The trie edges
  additionally carry *specialized* unit opcodes: split-family units share
  one ``str.split`` per (delimiter, row) via a per-row split cache instead
  of re-splitting per unit, root ``SplitSubstr`` edges sharing a
  (delimiter, piece) share the piece itself, and literal units skip
  application entirely (the prefilter already proved their text present).

Covered-row results are identical to the one-at-a-time path (the property
tests assert this); cache hit/miss counters keep their meaning —
applications skipped vs. executed — but because whole subtrees are skipped
at once (by the unit cache, the positional prune, or the literal prefilter),
their exact values can differ from the unbatched order of evaluation.

Rows are mutually independent (every structure above is per-row), which makes
the batch engine embarrassingly parallel: with ``num_workers > 1`` the rows
are sharded across a process pool that shares the frozen trie — including the
anchor table, so the prefilter shards exactly
(:func:`_walk_shard`), and covered rows and cache statistics are
byte-identical to the serial walk.  Every batch walk starts from empty
per-row caches: it neither reads nor writes the persistent non-covering
sets that the one-at-a-time :meth:`CoverageComputer.coverage_of` fills,
since no caller runs that before a batched walk on the same computer.

The walk is pure Python, like every loop of the package.  A numpy block
walker was measured against it on a 2-core host with numpy 2.4 and lost:
the 300-row ``fit-wide`` fit of the repository benchmark walked in
0.25-0.27 s against 0.17-0.18 s, a 1,000-row fit in 0.33-0.34 s against
0.25 s (minimum of 7 interleaved runs each), with identical covered rows
and cache statistics, and 25k rows ran at parity.

Covered-row sets come off the walk as packed integer bitmasks
(:attr:`CoverageResult.covered_mask`, bit *r* = row *r* covered), the
representation the bitset cover-selection engine of :mod:`repro.core.cover`
operates on; :attr:`CoverageResult.covered_rows` materializes the classic
``frozenset`` lazily for callers that want row ids.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from time import monotonic

from repro.core.pairs import RowPair
from repro.core.stats import DiscoveryStats
from repro.core.transformation import Transformation
from repro.core.units import (
    Literal,
    Split,
    SplitSubstr,
    Substr,
    TransformationUnit,
    TwoCharSplitSubstr,
)
from repro.parallel.executor import (
    check_execution_settings,
    env_default_workers,
    map_sharded,
    tuned_num_workers,
    worker_state,
)


# --------------------------------------------------------------------------- #
# Bitset helpers: covered-row sets as arbitrary-precision ints (bit r = row r,
# little-endian bytes).  Popcount and union need no helper: ``bit_count()``
# and ``|``.
# --------------------------------------------------------------------------- #
def mask_from_rows(rows: Iterable[int]) -> int:
    """Pack non-negative row ids into an integer bitmask (bit r = row r)."""
    rows = list(rows)
    if not rows:
        return 0
    buffer = bytearray((max(rows) >> 3) + 1)
    for row in rows:
        buffer[row >> 3] |= 1 << (row & 7)
    return int.from_bytes(buffer, "little")


def rows_from_mask(mask: int) -> list[int]:
    """The set bits of *mask* as an ascending list of row ids."""
    if mask == 0:
        return []
    if mask < 0:
        raise ValueError(f"row masks must be non-negative, got {mask}")
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    rows: list[int] = []
    append = rows.append
    for byte_index, byte in enumerate(data):
        if byte:
            base = byte_index << 3
            while byte:
                low = byte & -byte
                append(base + low.bit_length() - 1)
                byte ^= low
    return rows


class CoverageResult:
    """Coverage of one transformation over the input pairs.

    The covered-row set lives in two interchangeable representations: a
    packed integer bitmask (``covered_mask`` — the native output of the
    batched engine and the currency of the bitset cover-selection path) and
    a ``frozenset`` of row ids (``covered_rows`` — the classic API).  Either
    may be supplied at construction; the other is derived lazily and cached.
    Equality compares the transformation and the covered rows, regardless of
    which representation a result was built from.
    """

    __slots__ = ("transformation", "_rows", "_mask")

    def __init__(
        self,
        transformation: Transformation,
        covered_rows: Iterable[int] | None = None,
        *,
        covered_mask: int | None = None,
    ) -> None:
        self.transformation = transformation
        self._rows = None if covered_rows is None else frozenset(covered_rows)
        self._mask = covered_mask
        if self._rows is None and self._mask is None:
            self._rows = frozenset()

    @property
    def covered_rows(self) -> frozenset[int]:
        """The covered row ids as a frozenset (materialized lazily)."""
        if self._rows is None:
            self._rows = frozenset(rows_from_mask(self._mask))
        return self._rows

    @property
    def covered_mask(self) -> int:
        """The covered rows as a packed bitmask (bit r = row r covered)."""
        if self._mask is None:
            self._mask = mask_from_rows(self._rows)
        return self._mask

    @property
    def coverage(self) -> int:
        """Number of covered row pairs."""
        if self._mask is not None:
            return self._mask.bit_count()
        return len(self._rows)

    def coverage_fraction(self, num_pairs: int) -> float:
        """Coverage as a fraction of *num_pairs* (0.0 when there are no pairs)."""
        if num_pairs == 0:
            return 0.0
        return self.coverage / num_pairs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageResult):
            return NotImplemented
        return (
            self.transformation == other.transformation
            and self.covered_mask == other.covered_mask
        )

    __hash__ = None  # mutable caches inside; matches the old non-frozen dataclass

    def __repr__(self) -> str:
        return (
            f"CoverageResult(transformation={self.transformation!r}, "
            f"covered_rows={set(self.covered_rows) or '{}'})"
        )


# --------------------------------------------------------------------------- #
# The packed unit-prefix trie
# --------------------------------------------------------------------------- #
#: Specialized unit opcodes carried by trie edges; the walker dispatches on
#: these instead of calling ``unit.apply`` so split-family units can share a
#: per-row split cache and literal units can skip application entirely.
_OP_LITERAL = 0
_OP_SUBSTR = 1
_OP_SPLIT = 2
_OP_SPLITSUBSTR = 3
_OP_TWOCHAR = 4


def _unit_op(
    unit: TransformationUnit, delimiter_ids: dict[str, int]
) -> tuple[int, tuple]:
    """The (opcode, args) specialization of *unit* for the batch walker.

    Exact-type checks, not isinstance: a subclass may override ``apply``,
    and the walkers evaluate opcodes, never ``apply``, so any other unit
    class raises ``TypeError``.  Split-family delimiters are interned into
    *delimiter_ids*, the index of the per-row split-cache slot the op reads.

    Two walkers consume these opcodes: the per-row coverage kernel below
    and the column walker in :mod:`repro.model.apply` (same evaluation
    rules, no target checks).  Both are pinned to the units' ``apply()``
    semantics by property tests, so a semantic change must update both
    places.
    """
    kind = type(unit)
    if kind is Literal:
        return _OP_LITERAL, (unit.text,)
    if kind is Substr:
        return _OP_SUBSTR, (unit.start, unit.end)
    if kind is Split:
        delimiter_id = delimiter_ids.setdefault(unit.delimiter, len(delimiter_ids))
        return _OP_SPLIT, (unit.delimiter, unit.index - 1, delimiter_id)
    if kind is SplitSubstr:
        delimiter_id = delimiter_ids.setdefault(unit.delimiter, len(delimiter_ids))
        return _OP_SPLITSUBSTR, (
            unit.delimiter,
            unit.index - 1,
            unit.start,
            unit.end,
            delimiter_id,
        )
    if kind is TwoCharSplitSubstr:
        first, second = unit.delimiter1, unit.delimiter2
        # The reference _split walks characters, so only single-character
        # delimiters ever split; mode records which of the two do.
        if len(first) == 1 and len(second) == 1:
            mode = 2
        elif len(first) == 1:
            mode = 1
        elif len(second) == 1:
            mode = -1
        else:
            mode = 0
        return _OP_TWOCHAR, (first, second, unit.index - 1, unit.start, unit.end, mode)
    raise TypeError(
        f"cannot compile unit class {kind.__qualname__}: "
        "the trie walks know only the built-in unit classes"
    )


def _build_anchor_automaton(
    texts: Sequence[str],
) -> tuple[list[dict[str, int]], list[int], list[tuple[int, ...]]]:
    """Aho-Corasick automaton over the anchor texts.

    One scan of a row's target through the automaton finds *every* anchor
    text the target contains — the set that the row's edge checks read —
    in O(len(target) + matches) instead of one substring search per
    anchor.  Returns ``(goto, fail, outputs)`` where ``goto`` is
    one transition dict per state, ``fail`` the failure links and
    ``outputs[state]`` the anchor text ids recognized on reaching *state*
    (suffix outputs pre-flattened).
    """
    goto: list[dict[str, int]] = [{}]
    outputs: list[list[int]] = [[]]
    for text_id, text in enumerate(texts):
        state = 0
        for char in text:
            next_state = goto[state].get(char)
            if next_state is None:
                next_state = len(goto)
                goto[state][char] = next_state
                goto.append({})
                outputs.append([])
            state = next_state
        outputs[state].append(text_id)
    fail = [0] * len(goto)
    queue = deque(goto[0].values())
    while queue:
        state = queue.popleft()
        for char, next_state in goto[state].items():
            queue.append(next_state)
            link = fail[state]
            while link and char not in goto[link]:
                link = fail[link]
            candidate = goto[link].get(char, 0)
            fail[next_state] = candidate if candidate != next_state else 0
            outputs[next_state].extend(outputs[fail[next_state]])
    return goto, fail, [tuple(output) for output in outputs]


class PackedTrie:
    """A frozen unit-prefix trie plus the literal-anchor posting metadata.

    ``root_edges``/``root_terminals`` hold the flat edge tuples the walker
    consumes (see :meth:`TrieBuilder.freeze`); ``anchor_texts`` is the table
    of distinct non-empty literal texts, indexed by the text ids in the
    edges' anchor sets.  Three derived structures make the walk
    sparse in the (usual) case where most anchors are absent from most
    targets: ``automaton`` is an Aho-Corasick machine over the anchor texts
    (one target scan yields every anchor the row's target contains), and
    the root level is split three ways: ``root_literal_by_text`` (anchored
    literal-first subtrees, dispatched per row only for anchors the scan
    actually found, with ``root_literal_total`` covering the pruned
    remainder in O(1)), ``root_slice_groups`` (SplitSubstr/Substr-first
    edges grouped by the piece they slice, members sorted by slice end with
    suffix subtree sums for one-bisect bulk skips), and
    ``root_other_edges`` (everything else, walked normally).  ``seeds``
    maps each generating row to the transformations it generated first
    (empty for a trie built from a list): the walk starts their masks with
    that row's bit.  The transformations' terminal indices run from 0 to
    ``num_terminals - 1``.  The object is read-only after construction and
    pickles cheaply, so the process-sharded engine ships it to workers once
    per run.
    """

    __slots__ = (
        "root_edges",
        "root_terminals",
        "num_terminals",
        "anchor_texts",
        "num_units",
        "num_delimiters",
        "seeds",
        "automaton",
        "root_literal_by_text",
        "root_literal_total",
        "root_slice_groups",
        "root_other_edges",
    )

    def __init__(
        self,
        root_edges: list,
        root_terminals: list[int],
        num_terminals: int,
        anchor_texts: list[str],
        num_units: int,
        num_delimiters: int,
        seeds: dict[int, list[int]],
    ) -> None:
        self.root_edges = root_edges
        self.root_terminals = root_terminals
        self.num_terminals = num_terminals
        self.anchor_texts = anchor_texts
        self.num_units = num_units
        self.num_delimiters = num_delimiters
        self.seeds = seeds
        self.automaton = _build_anchor_automaton(anchor_texts)
        # Root split: a non-empty literal-first edge can only matter for
        # rows whose target contains its text, so those edges are reached
        # through the scan results instead of being enumerated per row;
        # slice-producing first edges (SplitSubstr sharing a (delimiter,
        # piece), and Substr — whose "piece" is the source itself) are
        # grouped so the piece is computed once per (group, row) and
        # members are sorted by slice end so every member the piece is too
        # short for is skipped in one bisect; the remainder walks the
        # generic engine.
        self.root_literal_by_text = {}
        self.root_literal_total = 0
        self.root_other_edges = []
        groups: dict[tuple[str, int] | None, list] = {}
        text_ids = {text: text_id for text_id, text in enumerate(anchor_texts)}
        for edge in root_edges:
            if edge[1] == _OP_LITERAL and edge[2][0]:
                self.root_literal_by_text[text_ids[edge[2][0]]] = edge
                self.root_literal_total += edge[5]
            elif edge[1] == _OP_SPLITSUBSTR:
                groups.setdefault((edge[2][0], edge[2][1]), []).append(edge)
            elif edge[1] == _OP_SUBSTR:
                groups.setdefault(None, []).append(edge)
            else:
                self.root_other_edges.append(edge)
        self.root_slice_groups = []
        for key, group in groups.items():
            if key is None:
                delimiter, piece_index, delimiter_id = None, -1, -1
                group.sort(key=lambda edge: edge[2][1])
                starts = tuple(edge[2][0] for edge in group)
                ends = tuple(edge[2][1] for edge in group)
            else:
                delimiter, piece_index = key
                delimiter_id = group[0][2][4]
                group.sort(key=lambda edge: edge[2][3])
                starts = tuple(edge[2][2] for edge in group)
                ends = tuple(edge[2][3] for edge in group)
            unit_ids = tuple(edge[0] for edge in group)
            anchor_sets = tuple(edge[6] for edge in group)
            subtrees = tuple(edge[5] for edge in group)
            owners = tuple(edge[7] for edge in group)
            # suffix_totals[i] = transformations below members i.. — the
            # O(1) bulk account for bisect-skipped members.
            suffix_totals = [0] * (len(group) + 1)
            for index in range(len(group) - 1, -1, -1):
                suffix_totals[index] = suffix_totals[index + 1] + subtrees[index]
            self.root_slice_groups.append(
                (
                    delimiter,
                    piece_index,
                    delimiter_id,
                    starts,
                    ends,
                    unit_ids,
                    anchor_sets,
                    subtrees,
                    owners,
                    tuple(suffix_totals),
                    tuple(group),
                )
            )

    def __getstate__(self):
        return (
            self.root_edges,
            self.root_terminals,
            self.num_terminals,
            self.anchor_texts,
            self.num_units,
            self.num_delimiters,
            self.seeds,
        )

    def __setstate__(self, state) -> None:
        self.__init__(*state)


class TrieBuilder:
    """The unit-prefix trie while it grows; candidates enter it here, once.

    Units are interned once per builder (a unit's id indexes :attr:`units`
    and, once frozen, the walk's per-row unit memo).  A node is a list
    ``[children, terminals, owner]``: ``children`` maps unit ids to nodes,
    ``terminals`` lists the transformations ending there by the order they
    entered, and ``owner`` is the one row that generated every
    transformation below the node (-1 for none).  :meth:`add` inserts a
    transformation as it is and owns nothing (:func:`_build_unit_trie`);
    :meth:`expand` is candidate generation, which owns what it makes.
    """

    __slots__ = (
        "units",
        "terminal_units",
        "terminal_rows",
        "_texts",
        "_unit_ids",
        "_literal_ids",
        "_root",
    )

    def __init__(self) -> None:
        #: The interned units; a unit's id is its index.
        self.units: list[TransformationUnit] = []
        #: The units of each transformation, by terminal index.
        self.terminal_units: list[tuple[TransformationUnit, ...]] = []
        #: The row that generated each transformation first (-1 for none).
        self.terminal_rows: list[int] = []
        # The text of each interned Literal by unit id, None for the rest.
        self._texts: list[str | None] = []
        self._unit_ids: dict[TransformationUnit, int] = {}
        self._literal_ids: dict[str, int] = {}
        self._root: list = [{}, [], -1]

    def __len__(self) -> int:
        return len(self.terminal_units)

    def intern(self, unit: TransformationUnit) -> int:
        """The id of *unit*; equal units share one."""
        if type(unit) is Literal:
            return self.literal(unit.text)
        unit_id = self._unit_ids.get(unit)
        if unit_id is None:
            unit_id = self._unit_ids[unit] = len(self.units)
            self.units.append(unit)
            self._texts.append(None)
        return unit_id

    def literal(self, text: str) -> int:
        """The id of ``Literal(text)``, interned by its text."""
        unit_id = self._literal_ids.get(text)
        if unit_id is None:
            unit_id = self._literal_ids[text] = len(self.units)
            self.units.append(Literal(text))
            self._texts.append(text)
        return unit_id

    def transformations(self, start: int = 0) -> list[Transformation]:
        """The transformations from terminal index *start* on, in order."""
        return [Transformation(units) for units in self.terminal_units[start:]]

    def add(self, units: tuple[TransformationUnit, ...]) -> None:
        """Insert one transformation's units as they are, as a new terminal."""
        node = self._root
        for unit in units:
            unit_id = self.intern(unit)
            children = node[0]
            child = children.get(unit_id)
            if child is None:
                child = children[unit_id] = [{}, [], -1]
            else:
                child[2] = -1
            node = child
        node[1].append(len(self.terminal_units))
        self.terminal_units.append(units)
        self.terminal_rows.append(-1)

    def expand(
        self,
        unit_sets: Sequence[Sequence[int]],
        limit: int,
        *,
        row: int = -1,
        dedup: bool = True,
    ) -> int:
        """Insert the Cartesian product of *unit_sets*, stopping after *limit*.

        *unit_sets* holds one list of unit ids per skeleton piece.  Members
        enter depth first, in ``itertools.product`` order, and runs of
        adjacent literals merge into one literal on the way, so a member
        enters as its simplified transformation.  With *dedup* a member
        whose node already has a terminal adds nothing; without it, every
        member is a new terminal.  *row* (-1 for none) is the generating
        row: it owns the nodes this call makes and disowns every other node
        it reaches.  Returns the number of members, duplicates included.
        """
        if not all(unit_sets):
            return 0
        units = self.units
        texts = self._texts
        literal = self.literal
        terminal_units = self.terminal_units
        terminal_rows = self.terminal_rows
        depth = len(unit_sets)
        members = 0

        def child(node: list, unit_id: int) -> list:
            children = node[0]
            found = children.get(unit_id)
            if found is None:
                found = children[unit_id] = [{}, [], row]
            elif found[2] != row:
                found[2] = -1
            return found

        def visit(node: list, path: tuple, position: int, pending: str | None) -> bool:
            # *pending* is the merged text of the literals chosen since the
            # last other unit (None when there are none): it is not in the
            # trie yet, and will hang below *node*.
            nonlocal members
            if position == depth:
                if pending is not None:
                    unit_id = literal(pending)
                    node = child(node, unit_id)
                    path += (units[unit_id],)
                terminals = node[1]
                if not (dedup and terminals):
                    terminals.append(len(terminal_units))
                    terminal_units.append(path)
                    terminal_rows.append(row)
                members += 1
                return members < limit
            base = base_path = None
            for unit_id in unit_sets[position]:
                text = texts[unit_id]
                if text is not None:
                    going = visit(
                        node,
                        path,
                        position + 1,
                        text if pending is None else pending + text,
                    )
                else:
                    if base is None:
                        base, base_path = node, path
                        if pending is not None:
                            literal_id = literal(pending)
                            base = child(node, literal_id)
                            base_path = path + (units[literal_id],)
                    going = visit(
                        child(base, unit_id),
                        base_path + (units[unit_id],),
                        position + 1,
                        None,
                    )
                if not going:
                    return False
            return True

        try:
            visit(self._root, (), 0, None)
        finally:
            # visit reaches itself through its cell, and the builder through
            # literal; discovery runs with the cyclic collector off, so the
            # cycle is broken here rather than left to it.
            del visit
        return members

    def freeze(self) -> PackedTrie:
        """Pack the trie into the read-only :class:`PackedTrie` the walks use.

        Packing empties the growing trie node by node, so the two never
        coexist in full; the builder keeps its transformations and takes
        no more.

        Each edge is a flat tuple ``(unit_id, op, args, child_edges,
        child_terminals, subtree_size, anchors, owner)``.  ``unit_id``
        indexes the per-row unit-output memo directly; ``subtree_size``
        counts the transformations below the edge, letting the walker
        account for a whole skipped subtree in O(1); ``owner`` is the child
        node's owner row (-1 for none).  ``anchors`` is the frozenset of
        anchor text ids the walk checks at the edge: those that every
        transformation below the edge needs, minus those that every edge of
        its parent node needs.  A row reaches an edge only through the
        parent node's own edge, whose check proved the latter, so a row
        that passes the check has every anchor below the edge in its
        target.  Root edges, and edges under a node where a transformation
        ends, keep their whole set.  Equal sets are one object.
        """
        units = self.units
        root = self._root
        anchor_texts: list[str] = []
        text_ids: dict[str, int] = {}
        delimiter_ids: dict[str, int] = {}
        # unit id -> (op, args, anchor text id or -1), filled on first use
        infos: list[tuple[int, tuple, int] | None] = [None] * len(units)
        no_anchors: frozenset[int] = frozenset()
        distinct = {no_anchors: no_anchors}

        def canonical(anchors: frozenset[int]) -> frozenset[int]:
            return distinct.setdefault(anchors, anchors)

        # (anchors every edge of a node needs, anchor text id) -> their union
        extended: dict[tuple[frozenset[int], int], frozenset[int]] = {}

        def freeze(node: list) -> tuple[list, list[int], int, frozenset[int]]:
            # The node's edges, its terminals, the number of transformations
            # below it and the anchors that every edge of it needs.
            children, terminals, _ = node
            subtree = len(terminals)
            # The rule below, without building the edge twice, for an only
            # edge under a node where no transformation ends: it checks none.
            proved = len(children) == 1 and not terminals and node is not root
            edges = []
            for unit_id, child in children.items():
                if child[0]:
                    child_edges, child_terminals, child_size, needed = freeze(child)
                else:  # a leaf, the common case: no call
                    child_edges, child_terminals = (), child[1]
                    child_size, needed = len(child_terminals), no_anchors
                subtree += child_size
                info = infos[unit_id]
                if info is None:
                    unit = units[unit_id]
                    op, args = _unit_op(unit, delimiter_ids)
                    text_id = -1
                    anchor = unit.anchor_text
                    if anchor is not None:
                        text_id = text_ids.setdefault(anchor, len(anchor_texts))
                        if text_id == len(anchor_texts):
                            anchor_texts.append(anchor)
                    info = infos[unit_id] = (op, args, text_id)
                op, args, text_id = info
                if text_id >= 0:
                    key = (needed, text_id)
                    anchors = extended.get(key)
                    if anchors is None:
                        anchors = extended[key] = canonical(needed | {text_id})
                    needed = anchors
                edges.append(
                    (
                        unit_id,
                        op,
                        args,
                        child_edges,
                        child_terminals,
                        child_size,
                        no_anchors if proved else needed,
                        child[2],
                    )
                )
            children.clear()
            if proved:
                return edges, terminals, subtree, needed
            if terminals or not edges:
                # A transformation ends here: no anchor below this node is
                # needed by every transformation passing through it.
                return edges, terminals, subtree, no_anchors
            # Each edge holds the whole set it needs until here.
            shared = canonical(frozenset.intersection(*[edge[6] for edge in edges]))
            if shared and node is not root:
                edges = [
                    edge[:6] + (canonical(edge[6] - shared), edge[7])
                    for edge in edges
                ]
            return edges, terminals, subtree, shared

        try:
            root_edges, root_terminals, _, _ = freeze(root)
        finally:
            del freeze  # the cycle through its own cell, as in expand
        seeds: dict[int, list[int]] = {}
        for index, row in enumerate(self.terminal_rows):
            if row >= 0:
                seeds.setdefault(row, []).append(index)
        return PackedTrie(
            root_edges,
            root_terminals,
            len(self.terminal_units),
            anchor_texts,
            len(units),
            len(delimiter_ids),
            seeds,
        )


def _build_unit_trie(transformations: Iterable[Transformation]) -> PackedTrie:
    """Pack *transformations* into a :class:`PackedTrie`, one terminal each,
    in order and without owners."""
    builder = TrieBuilder()
    for transformation in transformations:
        builder.add(transformation.units)
    return builder.freeze()

#: Rows walked per edge-major block.  The walk keeps every per-row cache of
#: a block alive simultaneously, so the block size bounds memory; any value
#: yields identical results and statistics (all caches are per-row).
_WALK_BLOCK_ROWS = 1024


def _walk_trie_rows(
    pairs: Sequence[RowPair],
    row_offset: int,
    trie: PackedTrie,
    deadline: float | None = None,
) -> tuple[dict[int, int], int, int, int, int]:
    """Walk the frozen unit trie over the rows of *pairs*.

    This is the batched coverage kernel, shared by the serial engine (which
    passes every pair with ``row_offset=0``) and the process-sharded engine
    (where each worker passes its contiguous row shard and the shard's start
    index, so reported row ids are global).  It is the only coverage walker
    (see the module docstring), and it starts every row from empty caches.

    The traversal is *edge-major over row blocks*: each trie edge is visited
    once per block with the list of rows that survived the path to it, so
    the edge's anchor set, opcode and arguments are unpacked once and a
    tight per-row loop does the remaining work.  Row-major or edge-major,
    the same (edge, row) classifications happen — the per-row caches (unit
    memo and split caches) and the set of anchors each row's target
    contains are consulted identically — so covered rows *and* statistics
    are equal to a row-at-a-time walk, and therefore identical however the
    rows are sharded or blocked.  An edge prunes a row whose target lacks
    one of the edge's anchors, which are those its path has not proved (see
    :meth:`TrieBuilder.freeze`).

    A row never enters a node it owns (see :class:`TrieBuilder`): it covers
    every transformation below, so the walk would classify each of them as
    one full application.  It adds the subtree size to misses and
    applications instead, and the seeds put the row's bit into the masks
    of the transformations it generated first, for every row it walks.
    Covered rows and statistics are those of the same walk without owners.

    ``deadline`` (a ``time.monotonic()`` timestamp; ``CLOCK_MONOTONIC`` is
    system-wide, so sharded workers can compare a deadline computed in the
    parent) makes the walk cooperatively interruptible: it is checked at
    block boundaries, and an expired deadline stops the walk after the
    current block.  The first block always runs, so even an
    already-expired budget yields valid progress.  Rows before the cut are
    walked exactly as without a deadline — the degradation truncates rows,
    it never changes per-row results.

    Returns ``(covered, hits, misses, applications, rows_processed)`` where
    ``covered`` maps a transformation's index in the trie to the mask of
    the rows it covers (bit *r* = global row *r*; transformations that
    cover no walked row are absent) and ``rows_processed`` counts the fully
    walked rows of *pairs* (``len(pairs)`` unless the deadline cut in).
    """
    covered: dict[int, int] = {}
    hits = misses = applications = 0
    rows_processed = 0
    root_terminals = trie.root_terminals
    root_other_edges = trie.root_other_edges
    root_literal_by_text = trie.root_literal_by_text
    root_literal_total = trie.root_literal_total
    root_slice_groups = trie.root_slice_groups
    seeds = trie.seeds
    goto, fail, outputs = trie.automaton
    num_texts = len(trie.anchor_texts)
    num_units = trie.num_units
    num_delimiters = trie.num_delimiters
    num_rows = len(pairs)

    # Per-row caches (see the module docstring): the unit-output memo
    # (False marks "not yet applied"; outputs are str or None) and the
    # split caches shared by split-family units of one delimiter.  Both
    # are flat arrays indexed by the ordinals the trie build interned —
    # a C-speed list index on the hottest consults of the walk.  Allocated
    # once at the first block and *reused* across blocks (template slice
    # assignment resets lists at C speed; reallocating the tables per block
    # measurably showed up in profiles).
    memos: list[list] = []
    split_caches: list[list] = []
    tsplit_caches: list[dict] = []
    memo_template: list = [False] * num_units
    none_template: list = [None] * num_delimiters
    first_block = True

    for block_start in range(0, num_rows, _WALK_BLOCK_ROWS):
        if (
            deadline is not None
            and block_start
            and monotonic() >= deadline
        ):
            break
        block = pairs[block_start : block_start + _WALK_BLOCK_ROWS]
        block_n = len(block)
        rows_processed = block_start + block_n
        base = row_offset + block_start  # global id of the block's slot 0
        # Masks of the block's rows, bit s = slot s; each transformation
        # starts with the bit of the row that generated it first.
        block_covered: dict[int, int] = {}
        if seeds:
            for slot in range(block_n):
                indices = seeds.get(base + slot)
                if indices is not None:
                    block_covered.update(dict.fromkeys(indices, 1 << slot))
        sources = [pair.source for pair in block]
        targets = [pair.target for pair in block]
        target_lengths = [len(target) for target in targets]
        if first_block:
            first_block = False
            memos = [list(memo_template) for _ in range(block_n)]
            split_caches = [list(none_template) for _ in range(block_n)]
            tsplit_caches = [{} for _ in range(block_n)]
        else:
            for memo in memos:
                memo[:] = memo_template
            for cache in split_caches:
                cache[:] = none_template
            for tcache in tsplit_caches:
                tcache.clear()
        # The anchors each row's target contains, filled by the scan below.
        presents: list[set[int]] = [set() for _ in range(block_n)]

        all_slots = list(range(block_n))
        stack = [(root_other_edges, root_terminals, all_slots, [0] * block_n)]
        push = stack.append
        pop = stack.pop

        # ---------------------------------------------------------------- #
        # Root literal dispatch: one automaton scan per target finds every
        # anchor it contains; only the (few) literal-first subtrees whose
        # anchor was found are examined, and the untouched remainder —
        # provably uncovered for this row — is accounted in O(1) via the
        # precomputed subtree total.
        # ---------------------------------------------------------------- #
        if num_texts:
            descents: dict[int, tuple[list, list[int]]] = {}
            skipped_root = 0  # prefilter-pruned (transformation, row) pairs
            failed_root = 0  # positionally impossible ones
            owned_root = 0  # accounted for their owner row
            for slot in all_slots:
                target = targets[slot]
                present = presents[slot]
                state = 0
                for char in target:
                    next_state = goto[state].get(char)
                    while next_state is None and state:
                        state = fail[state]
                        next_state = goto[state].get(char)
                    state = next_state if next_state is not None else 0
                    present.update(outputs[state])
                viable_subtree = 0
                for text_id in present:
                    edge = root_literal_by_text.get(text_id)
                    if edge is None or not edge[6] <= present:
                        continue
                    viable_subtree += edge[5]
                    text = edge[2][0]
                    if not target.startswith(text):
                        failed_root += edge[5]
                    elif edge[7] == base + slot:
                        owned_root += edge[5]
                    else:
                        entry = descents.get(text_id)
                        if entry is None:
                            entry = descents[text_id] = ([], len(text))
                        entry[0].append(slot)
                skipped_root += root_literal_total - viable_subtree
            hits += skipped_root
            misses += failed_root + owned_root
            applications += owned_root
            for text_id, (slots, prefix_length) in descents.items():
                edge = root_literal_by_text[text_id]
                push((edge[3], edge[4], slots, [prefix_length] * len(slots)))

        # ---------------------------------------------------------------- #
        # Root slice dispatch: every member of a group slices the same
        # piece per row (one split piece, or the source itself for Substr),
        # computed once; members are sorted by slice end, so everyone the
        # piece is too short for is skipped with a single bisect and an
        # O(1) suffix-sum account; the prefix is 0, so one `find` answers
        # both the containment and the positional check; and this is
        # guaranteed to be the unit's first evaluation of the row (root
        # units are distinct and nothing ran before), so the memo is only
        # written, never probed.  Classifications — and therefore the
        # statistics — are exactly the generic walk's.
        # ---------------------------------------------------------------- #
        for (
            delimiter,
            piece_index,
            delimiter_id,
            member_starts,
            member_ends,
            member_unit_ids,
            member_anchor_sets,
            member_subtrees,
            member_owners,
            suffix_totals,
            group,
        ) in root_slice_groups:
            group_size = len(group)
            group_descents: list[list[int] | None] = [None] * group_size
            skipped_units = 0
            failed_units = 0
            owned_units = 0
            for slot in all_slots:
                if delimiter is None:
                    piece = sources[slot]
                else:
                    cache = split_caches[slot]
                    pieces = cache[delimiter_id]
                    if pieces is None:
                        pieces = cache[delimiter_id] = sources[slot].split(
                            delimiter
                        )
                    num_pieces = len(pieces)
                    if num_pieces < 2 or piece_index >= num_pieces:
                        # The shared piece does not exist: the whole group
                        # is non-covering here.  The memo stays unwritten —
                        # a deeper occurrence of a group unit recomputes
                        # the same None through the shared split cache.
                        skipped_units += suffix_totals[0]
                        continue
                    piece = pieces[piece_index]
                cut = bisect_right(member_ends, len(piece))
                if cut < group_size:
                    # Every member beyond the cut slices past the piece's
                    # end: non-covering, accounted in one suffix sum (their
                    # memo stays unwritten, as above).
                    skipped_units += suffix_totals[cut]
                    if not cut:
                        continue
                target = targets[slot]
                memo = memos[slot]
                present = presents[slot]
                for position in range(cut):
                    anchors = member_anchor_sets[position]
                    if anchors and not anchors <= present:
                        skipped_units += member_subtrees[position]
                        continue
                    output = piece[member_starts[position] : member_ends[position]]
                    found_at = target.find(output)
                    if found_at < 0:
                        memo[member_unit_ids[position]] = None
                        skipped_units += member_subtrees[position]
                    else:
                        memo[member_unit_ids[position]] = output
                        if found_at:
                            failed_units += member_subtrees[position]
                        elif member_owners[position] == base + slot:
                            owned_units += member_subtrees[position]
                        else:
                            slots = group_descents[position]
                            if slots is None:
                                slots = group_descents[position] = []
                            slots.append(slot)
            hits += skipped_units
            misses += failed_units + owned_units
            applications += owned_units
            for position, slots in enumerate(group_descents):
                if slots:
                    edge = group[position]
                    output_length = member_ends[position] - member_starts[position]
                    push((edge[3], edge[4], slots, [output_length] * len(slots)))

        while stack:
            edges, terminals, slots, prefixes = pop()
            if terminals:
                # Every unit on the path applied for these rows and the
                # concatenated prefix equals target[:prefix]: fully
                # evaluated (transformation, row) applications.
                count = len(terminals)
                reached = len(slots)
                misses += count * reached
                applications += count * reached
                for slot, prefix in zip(slots, prefixes):
                    if prefix == target_lengths[slot]:
                        bit = 1 << slot
                        for index in terminals:
                            block_covered[index] = block_covered.get(index, 0) | bit
            for edge in edges:
                subtree = edge[5]
                anchors = edge[6]
                owner_slot = edge[7] - base  # negative or past the block: none
                owned = False
                op = edge[1]
                args = edge[2]
                skipped = 0  # unit known non-covering (or prefilter-pruned)
                failed = 0  # positionally impossible
                child_slots: list[int] = []
                child_prefixes: list[int] = []
                descend_slot = child_slots.append
                descend_prefix = child_prefixes.append
                if op == _OP_LITERAL and args[0]:
                    # A non-empty literal's own anchor is proved present for
                    # every row that passes the prefilter, here or above —
                    # neither application nor the memo consult can change
                    # the outcome, and only the positional check remains.
                    text = args[0]
                    text_length = len(text)
                    for slot, prefix in zip(slots, prefixes):
                        if anchors and not anchors <= presents[slot]:
                            # Literal prefilter: an anchor every
                            # transformation below needs is absent from
                            # this row's target — the subtree is provably
                            # uncovered for it.
                            skipped += 1
                        elif not targets[slot].startswith(text, prefix):
                            failed += 1
                        elif slot == owner_slot:
                            owned = True
                        else:
                            descend_slot(slot)
                            descend_prefix(prefix + text_length)
                elif op == _OP_LITERAL:
                    # Empty literal: a pure pass-through (it always applies
                    # and adds nothing to the prefix) — only a deeper
                    # anchor can prune here.
                    if not anchors and owner_slot < 0:
                        child_slots = slots
                        child_prefixes = prefixes
                    else:
                        for slot, prefix in zip(slots, prefixes):
                            if anchors and not anchors <= presents[slot]:
                                skipped += 1
                            elif slot == owner_slot:
                                owned = True
                            else:
                                descend_slot(slot)
                                descend_prefix(prefix)
                elif op == _OP_SPLITSUBSTR:
                    # The workhorse op gets its own loop with the unit's
                    # parameters in locals; its output is never empty
                    # (0 <= start < end <= len(piece)), so the emptiness
                    # branch disappears too.
                    unit_id = edge[0]
                    delimiter, piece_index, start, end, delimiter_id = args
                    for slot, prefix in zip(slots, prefixes):
                        if anchors and not anchors <= presents[slot]:
                            skipped += 1
                            continue
                        memo = memos[slot]
                        output = memo[unit_id]
                        if output is False:
                            cache = split_caches[slot]
                            pieces = cache[delimiter_id]
                            if pieces is None:
                                pieces = cache[delimiter_id] = sources[slot].split(
                                    delimiter
                                )
                            num_pieces = len(pieces)
                            if num_pieces < 2 or piece_index >= num_pieces:
                                output = None
                            else:
                                piece = pieces[piece_index]
                                if end > len(piece):
                                    output = None
                                else:
                                    output = piece[start:end]
                                    if output not in targets[slot]:
                                        output = None
                            memo[unit_id] = output
                        if output is None:
                            skipped += 1
                        elif not targets[slot].startswith(output, prefix):
                            failed += 1
                        elif slot == owner_slot:
                            owned = True
                        else:
                            descend_slot(slot)
                            descend_prefix(prefix + end - start)
                else:
                    unit_id = edge[0]
                    for slot, prefix in zip(slots, prefixes):
                        if anchors and not anchors <= presents[slot]:
                            skipped += 1
                            continue
                        memo = memos[slot]
                        output = memo[unit_id]
                        if output is False:
                            source = sources[slot]
                            if op == _OP_SPLIT:
                                cache = split_caches[slot]
                                pieces = cache[args[2]]
                                if pieces is None:
                                    pieces = cache[args[2]] = source.split(args[0])
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
                            else:  # _OP_TWOCHAR
                                key = (args[0], args[1])
                                cache = tsplit_caches[slot]
                                pieces = cache.get(key, False)
                                if pieces is False:
                                    if args[0] in source or args[1] in source:
                                        mode = args[5]
                                        if mode == 2:
                                            pieces = source.replace(
                                                args[1], args[0]
                                            ).split(args[0])
                                        elif mode == 1:
                                            pieces = source.split(args[0])
                                        elif mode == -1:
                                            pieces = source.split(args[1])
                                        else:
                                            pieces = [source]
                                    else:
                                        pieces = None
                                    cache[key] = pieces
                                if pieces is None or args[2] >= len(pieces):
                                    output = None
                                else:
                                    piece = pieces[args[2]]
                                    output = (
                                        piece[args[3] : args[4]]
                                        if args[4] <= len(piece)
                                        else None
                                    )
                            if (
                                output is not None
                                and output
                                and output not in targets[slot]
                            ):
                                output = None
                            memo[unit_id] = output
                        if output is None:
                            # Known non-covering for this row: the subtree
                            # is skipped below via the `skipped` tally.
                            skipped += 1
                        elif output and not targets[slot].startswith(output, prefix):
                            failed += 1
                        elif slot == owner_slot:
                            owned = True
                        else:
                            descend_slot(slot)
                            descend_prefix(prefix + len(output))
                if skipped:
                    # Subtrees skipped through a non-covering unit (memoized
                    # or prefilter-proven) count as cache hits.
                    hits += skipped * subtree
                if failed:
                    # Positionally impossible: the reference path would
                    # have evaluated these; count them as misses so hits
                    # keep their "skipped thanks to a non-covering unit"
                    # meaning.
                    misses += failed * subtree
                if owned:
                    # Its owner row covers everything below: one full
                    # application per transformation, without descending.
                    misses += subtree
                    applications += subtree
                if child_slots:
                    push((edge[3], edge[4], child_slots, child_prefixes))

        if covered or base:
            for index, mask in block_covered.items():
                covered[index] = covered.get(index, 0) | (mask << base)
        else:
            covered = block_covered

    return covered, hits, misses, applications, rows_processed


def _walk_shard(start: int, stop: int) -> tuple[dict[int, int], int, int, int, int]:
    """Shard worker of :meth:`CoverageComputer.coverage_of_trie`.

    Walks rows ``[start, stop)`` of the shared ``(pairs, trie, deadline)``
    state, reporting global row ids.
    """
    pairs, trie, deadline = worker_state()
    return _walk_trie_rows(pairs[start:stop], start, trie, deadline)


@dataclass
class CoverageComputer:
    """Apply transformations to row pairs, with unit-level early filtering.

    Parameters
    ----------
    pairs:
        The row pairs coverage is computed over.
    use_unit_cache:
        Enables the non-covering-unit cache (on by default; the ablation
        benchmarks switch it off to measure its effect).  The batched walk
        needs it, so a computer without it always takes :meth:`coverage_of`.
    stats:
        Optional shared statistics object; cache hits/misses and application
        counts are accumulated into it.
    num_workers:
        Worker processes for the batched path of :meth:`coverage_of_all`
        (1 = serial, 0 = all cores; the default honours the
        ``REPRO_NUM_WORKERS`` environment variable).  Rows are sharded across
        :func:`~repro.parallel.executor.map_sharded` workers that share the
        frozen unit trie; because every cache in the walk is
        per-row, covered rows and cache statistics are identical to the
        serial walk.
    min_rows_per_worker:
        Small-input fast path: when the rows per worker would fall below
        this threshold (or the host has a single core), the pool is not
        spawned and the serial batched engine runs instead — results are
        identical either way, so this is purely a scheduling decision.
        ``None`` (default) reads ``REPRO_MIN_ROWS_PER_WORKER`` (falling back
        to :data:`~repro.parallel.executor.DEFAULT_MIN_ITEMS_PER_WORKER`);
        0 disables the tuning, forcing the pool for any input size.
    task_timeout:
        Wall-clock budget per sharded map (``None`` = unbounded), forwarded
        to :func:`~repro.parallel.executor.map_sharded` as its
        submission-time deadline.
    shard_retries:
        Pool retries per failed shard before the executor falls back (or
        raises); see :func:`~repro.parallel.executor.map_sharded`.
    serial_fallback:
        Whether a shard the pool cannot produce is recomputed serially
        inline (True, the default) or surfaces as a typed
        :class:`~repro.parallel.errors.ShardError`.

    After each :meth:`coverage_of_all` call, :attr:`budget_exhausted` tells
    whether the walk was cut short by a caller-supplied deadline and
    :attr:`rows_processed` how many rows were fully walked.
    """

    pairs: Sequence[RowPair]
    use_unit_cache: bool = True
    stats: DiscoveryStats = field(default_factory=DiscoveryStats)
    num_workers: int = field(default_factory=env_default_workers)
    min_rows_per_worker: int | None = None
    task_timeout: float | None = None
    shard_retries: int = 2
    serial_fallback: bool = True
    budget_exhausted: bool = field(init=False, default=False)
    rows_processed: int = field(init=False, default=0)
    _non_covering_units: list[set[TransformationUnit]] = field(init=False)

    def __post_init__(self) -> None:
        check_execution_settings(
            num_workers=self.num_workers,
            min_rows_per_worker=self.min_rows_per_worker,
            shard_retries=self.shard_retries,
            task_timeout=self.task_timeout,
        )
        self._non_covering_units = [set() for _ in self.pairs]

    # ------------------------------------------------------------------ #
    # Single transformation
    # ------------------------------------------------------------------ #
    def coverage_of(self, transformation: Transformation) -> CoverageResult:
        """Compute which rows *transformation* covers."""
        covered: set[int] = set()
        for row_index, pair in enumerate(self.pairs):
            if self._covers_row(transformation, row_index, pair):
                covered.add(row_index)
        return CoverageResult(transformation, frozenset(covered))

    def _covers_row(
        self, transformation: Transformation, row_index: int, pair: RowPair
    ) -> bool:
        non_covering = self._non_covering_units[row_index]
        if self.use_unit_cache:
            for unit in transformation.units:
                if unit in non_covering:
                    self.stats.cache_hits += 1
                    return False
        self.stats.cache_misses += 1
        self.stats.applications += 1

        parts: list[str] = []
        target = pair.target
        for unit in transformation.units:
            output = unit.apply(pair.source)
            if output is None or (output and output not in target):
                if self.use_unit_cache:
                    non_covering.add(unit)
                return False
            parts.append(output)
        return "".join(parts) == target

    # ------------------------------------------------------------------ #
    # Batch
    # ------------------------------------------------------------------ #
    def coverage_of_all(
        self,
        transformations: Iterable[Transformation],
        *,
        batched: bool = True,
    ) -> list[CoverageResult]:
        """Coverage of every transformation, in input order.

        ``batched`` selects the trie-walking batch engine (see the module
        docstring) over a trie built from the list, one terminal per
        transformation and without owners, so every row is walked.  The
        batch engine runs only with the unit cache: without it, every call
        takes :meth:`coverage_of`.  Covered rows are identical either way —
        only the order in which unit applications are attempted (and
        therefore the exact cache hit/miss tallies) differs.
        """
        transformations = list(transformations)
        if batched and self.use_unit_cache and transformations and self.pairs:
            masks = self.coverage_of_trie(_build_unit_trie(transformations))
            return [
                CoverageResult(transformation, covered_mask=mask)
                for transformation, mask in zip(transformations, masks)
            ]
        self.budget_exhausted = False
        self.rows_processed = len(self.pairs)
        return [self.coverage_of(t) for t in transformations]

    def coverage_of_trie(
        self,
        trie: PackedTrie,
        *,
        deadline: float | None = None,
    ) -> list[int]:
        """The covered-row mask of every transformation frozen into *trie*.

        One mask per terminal, by terminal index (bit *r* = row *r*).
        Discovery passes the trie its generation built, whose owners and
        seeds the walk uses.  The walk is the unit cache in batched form:
        without the cache, :meth:`coverage_of_all` takes :meth:`coverage_of`.

        When ``num_workers`` resolves above 1 (after the small-input fast
        path — see ``min_rows_per_worker``), the walk shards the rows
        across worker processes, with covered rows and cache statistics
        identical to the serial walk.

        ``deadline`` (a ``time.monotonic()`` timestamp) bounds the walk
        cooperatively: rows past the deadline are left unwalked and the
        call degrades to the coverage of the rows it finished, with
        :attr:`budget_exhausted` set and :attr:`rows_processed` recording
        the cut.  An already-expired deadline still walks the first block;
        with no transformation or no row there is no walk to cut.
        """
        self.budget_exhausted = False
        self.rows_processed = len(self.pairs)
        masks = [0] * trie.num_terminals
        if not (masks and self.pairs):
            return masks
        num_workers = tuned_num_workers(
            self.num_workers,
            len(self.pairs),
            min_items_per_worker=self.min_rows_per_worker,
        )
        if deadline is not None and monotonic() >= deadline:
            # The budget is already gone: forking a pool now would spend
            # seconds producing rows the deadline will discard — run the
            # minimal serial walk instead.
            num_workers = 1
        if num_workers > 1:
            pairs = list(self.pairs)
            shards = map_sharded(
                (pairs, trie, deadline),
                _walk_shard,
                len(pairs),
                num_workers=num_workers,
                task_timeout=self.task_timeout,
                max_shard_retries=self.shard_retries,
                serial_fallback=self.serial_fallback,
            )
        else:
            shards = [_walk_trie_rows(self.pairs, 0, trie, deadline)]
        rows_processed = 0
        for shard_covered, hits, misses, applications, shard_rows in shards:
            self.stats.cache_hits += hits
            self.stats.cache_misses += misses
            self.stats.applications += applications
            rows_processed += shard_rows
            for index, mask in shard_covered.items():
                masks[index] |= mask
        self.rows_processed = rows_processed
        if rows_processed < len(self.pairs):
            self.budget_exhausted = True
        return masks
