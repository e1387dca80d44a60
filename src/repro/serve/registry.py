"""The model registry: named, disk-backed models kept warm for serving.

A registry directory holds one ``<name>.json`` per model, each written by
``TransformationModel.save`` (``repro fit --save``).  The registry turns that
directory into a serving catalogue:

* **named lookup** — ``get("customers")`` loads and caches
  ``<dir>/customers.json``; an unknown name raises
  :class:`~repro.serve.errors.ModelNotFoundError`, a corrupt file raises
  :class:`~repro.serve.errors.ModelLoadError` *for that model only* — every
  other model keeps serving;
* **reload on change** — every lookup stats the file; a changed file key
  (inode, size and mtime, so a file swapped in with its old timestamp
  preserved still counts as changed) reloads the artifact and swaps it in
  atomically (readers see either the complete old model or the complete
  new one, never a half-load), so an incremental refit lands without a
  server restart;
* **warm compiled artifacts** — the per-model trie-compiled
  :class:`~repro.join.joiner.TransformationJoiner` and the per-target-column
  packed :class:`~repro.matching.index.ValueIndex` live behind bounded
  :class:`~repro.serve.cache.LRUCache` instances with hit/miss/eviction
  counters; an evicted artifact is rebuilt (re-warmed) on its next request.
"""

from __future__ import annotations

import os
import re
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.join.joiner import TransformationJoiner, shared_values_key
from repro.matching.index import ValueIndex
from repro.model.artifact import TransformationModel
from repro.model.serialization import ModelFormatError
from repro.serve.cache import LRUCache
from repro.serve.errors import BadRequestError, ModelLoadError, ModelNotFoundError

#: Model names are file stems; reject anything that could escape the
#: registry directory (separators, parent references) or hide as a dotfile.
_SAFE_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _file_key(stat: os.stat_result) -> tuple[int, int, int]:
    """What identifies one version of a model file: inode, size, mtime.

    The mtime alone misses a file replaced by a copy that keeps the old
    timestamp (``cp -p``, ``rsync -t``) or rewritten within one timestamp
    tick; a replacement moved into place has a new inode, and one rewritten
    in place almost always a new size.
    """
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


@dataclass(frozen=True)
class ModelEntry:
    """One loaded (or failed-to-load) model of the registry.

    Immutable: a reload builds a fresh entry and swaps it in whole, which is
    what makes the swap atomic for concurrent readers.
    """

    name: str
    path: Path
    file_key: tuple[int, int, int]
    model: TransformationModel | None = None
    error: BaseException | None = None

    @property
    def mtime_ns(self) -> int:
        """The model file's mtime when this entry was loaded."""
        return self.file_key[2]


class ModelRegistry:
    """Load, cache, and hot-reload named transformation models.

    Parameters
    ----------
    model_dir:
        Directory of ``<name>.json`` model files.
    joiner_cache_capacity / index_cache_capacity:
        Bounds of the compiled-artifact caches (joiners keyed by
        ``(name, file key)``, target indexes keyed by the target values
        themselves).  Eviction is safe — the artifact is rebuilt on the
        next request — so small bounds just trade latency for memory.
    num_workers / task_timeout_s / shard_retries / serial_fallback:
        Apply-stage knobs threaded into every joiner the registry builds
        (see :class:`~repro.join.joiner.TransformationJoiner`).  They are
        checked here, so an out-of-range value fails when the registry is
        built, not on its first join.
    """

    def __init__(
        self,
        model_dir: str | Path,
        *,
        joiner_cache_capacity: int = 16,
        index_cache_capacity: int = 32,
        num_workers: int | None = None,
        task_timeout_s: float = 0.0,
        shard_retries: int = 2,
        serial_fallback: bool = True,
    ) -> None:
        TransformationJoiner.check_settings(
            num_workers=num_workers,
            task_timeout_s=task_timeout_s,
            shard_retries=shard_retries,
        )
        self._dir = Path(model_dir)
        if not self._dir.is_dir():
            raise ValueError(f"model directory {self._dir} does not exist")
        self._entries: dict[str, ModelEntry] = {}
        self._joiners = LRUCache(joiner_cache_capacity)
        self._indexes = LRUCache(index_cache_capacity)
        self._num_workers = num_workers
        self._task_timeout_s = task_timeout_s
        self._shard_retries = shard_retries
        self._serial_fallback = serial_fallback
        # One lock for the entry map; loads happen under it, so a model is
        # read from disk once per change no matter how many requests race
        # the reload.  Model files are small versioned JSON — holding the
        # lock across a load is milliseconds, not a serving stall.
        self._lock = threading.Lock()

    @property
    def model_dir(self) -> Path:
        """The registry directory."""
        return self._dir

    # ------------------------------------------------------------------ #
    # Lookup and reload
    # ------------------------------------------------------------------ #
    def model_names(self) -> list[str]:
        """Sorted names of every model file currently in the directory."""
        return sorted(
            path.stem
            for path in self._dir.glob("*.json")
            if _SAFE_NAME.match(path.stem)
        )

    def get(self, name: str, *, deadline: float | None = None) -> ModelEntry:
        """The current entry for *name*, loading or reloading as needed.

        Raises :class:`BadRequestError` for unusable names,
        :class:`ModelNotFoundError` when no such file exists, and
        :class:`ModelLoadError` when the file cannot be parsed — the failed
        entry is cached (keyed by file key), so a broken artifact is not
        re-parsed on every request, and fixing the file on disk clears the
        error on the next lookup.

        This is the ``registry`` serve-fault site: the hook fires before
        the lock is taken (a hung registry must not wedge every *other*
        model's lookups) and before any entry is cached, so an injected
        fault surfaces typed per request and removing it restores service
        without touching the file.  ``deadline`` lets an injected hang be
        cut cooperatively at the request's budget.
        """
        if not _SAFE_NAME.match(name):
            raise BadRequestError(f"invalid model name {name!r}")
        if os.environ.get("REPRO_FAULT_INJECT"):
            from repro.testing.faults import maybe_inject_serve  # noqa: PLC0415

            maybe_inject_serve("registry", deadline=deadline)
        path = self._dir / f"{name}.json"
        try:
            file_key = _file_key(path.stat())
        except OSError:
            with self._lock:
                self._entries.pop(name, None)
            raise ModelNotFoundError(name) from None
        with self._lock:
            entry = self._entries.get(name)
            if entry is None or entry.file_key != file_key:
                entry = self._load(name, path, file_key)
                self._entries[name] = entry
                # Compiled joiners of the replaced artifact are stale the
                # moment the new entry is visible.
                self._joiners.invalidate(
                    lambda key: key[0] == name and key[1] != file_key
                )
        if entry.error is not None:
            raise ModelLoadError(name, entry.error)
        return entry

    @staticmethod
    def _load(
        name: str, path: Path, file_key: tuple[int, int, int]
    ) -> ModelEntry:
        """Read one model file into a complete (immutable) entry."""
        try:
            model = TransformationModel.load(path)
        except (ModelFormatError, OSError) as error:
            return ModelEntry(name=name, path=path, file_key=file_key, error=error)
        return ModelEntry(name=name, path=path, file_key=file_key, model=model)

    def peek_file_key(self, name: str) -> tuple[int, int, int] | None:
        """The model file's current file key, or ``None`` when absent.

        A lock-free ``stat`` — cheap enough for the circuit breaker to call
        on *rejected* requests to detect that an operator shipped a fixed
        artifact (changed file key ⇒ admit a probe immediately instead of
        waiting out the cool-down).
        """
        if not _SAFE_NAME.match(name):
            return None
        try:
            return _file_key((self._dir / f"{name}.json").stat())
        except OSError:
            return None

    # ------------------------------------------------------------------ #
    # Warm compiled artifacts
    # ------------------------------------------------------------------ #
    def joiner_for(
        self, name: str, *, deadline: float | None = None
    ) -> tuple[TransformationJoiner, ModelEntry, bool]:
        """``(joiner, entry, cache_hit)`` for *name*'s current artifact.

        The joiner is built fresh on a miss (deliberately *not* through the
        model's own ``joiner()`` memo: that memo would keep an evicted
        joiner alive, making the LRU bound meaningless) and carries the
        registry's apply-stage knobs.  Its compiled trie and
        most-recent-target index build lazily on first use, which is
        exactly the cold-request cost the warm path skips.
        """
        entry = self.get(name, deadline=deadline)
        model = entry.model
        assert model is not None  # get() raised otherwise

        def build() -> TransformationJoiner:
            return TransformationJoiner(
                model.transformations,
                min_support=model.min_support,
                coverage_counts=model.coverage_counts,
                num_candidate_pairs=model.num_candidate_pairs,
                case_insensitive=model.case_insensitive,
                num_workers=self._num_workers,
                task_timeout_s=self._task_timeout_s,
                shard_retries=self._shard_retries,
                serial_fallback=self._serial_fallback,
            )

        joiner, hit = self._joiners.get_or_build((name, entry.file_key), build)
        return joiner, entry, hit

    def target_index_for(
        self, joiner: TransformationJoiner, target_values: Sequence[str]
    ) -> tuple[ValueIndex, bool]:
        """``(index, cache_hit)`` for a target column, keyed by its values.

        The key is ``(case_insensitive, tuple(target_values))``.  Tuple
        equality is exact, so two different columns never share an index.
        The price is that each cached index keeps its column alive as a
        :func:`~repro.join.joiner.shared_values_key` tuple: 8 bytes per row
        on top of the index, plus, for a case-insensitive model (whose index
        holds lower-cased copies), one raw string per distinct value.  The
        normalization flag is part of the key because a case-insensitive
        model indexes lower-cased values, so it must never share an index
        with a case-sensitive one even for identical input.  Passing a
        tuple reuses it as the lookup key without a copy.
        """
        key = (joiner.case_insensitive, tuple(target_values))
        return self._indexes.get_or_build(
            key,
            lambda: joiner.build_target_index(key[1]),
            stored_key=lambda lookup, index: (
                lookup[0], shared_values_key(lookup[1], index)
            ),
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def list_models(self) -> list[dict]:
        """One summary dict per model file, load errors included inline."""
        summaries = []
        for name in self.model_names():
            try:
                entry = self.get(name)
            except ModelLoadError as error:
                summaries.append(
                    {"name": name, "ok": False, "error": str(error.cause)}
                )
                continue
            except ModelNotFoundError:
                continue  # deleted between the scan and the lookup
            model = entry.model
            assert model is not None
            summaries.append(
                {
                    "name": name,
                    "ok": True,
                    "num_transformations": model.num_transformations,
                    "num_candidate_pairs": model.num_candidate_pairs,
                    "min_support": model.min_support,
                    "case_insensitive": model.case_insensitive,
                    "mtime_ns": entry.mtime_ns,
                }
            )
        return summaries

    def stats(self) -> dict:
        """Cache counters plus the set of currently loaded/failed models."""
        with self._lock:
            loaded = sorted(
                name
                for name, entry in self._entries.items()
                if entry.error is None
            )
            failed = sorted(
                name
                for name, entry in self._entries.items()
                if entry.error is not None
            )
        return {
            "model_dir": str(self._dir),
            "models_loaded": loaded,
            "models_failed": failed,
            "joiner_cache": self._joiners.stats(),
            "target_index_cache": self._indexes.stats(),
        }


__all__ = ["ModelEntry", "ModelRegistry"]
