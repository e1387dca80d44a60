"""Unit tests for the serving registry, its caches, and the joiner's
target-index reuse (the cold-path waste fixed alongside the serving layer)."""

from __future__ import annotations

import os
import sys
import tracemalloc

import pytest

from repro.core.discovery import TransformationDiscovery
from repro.join.joiner import TransformationJoiner
from repro.model.artifact import TransformationModel
from repro.serve.cache import LRUCache
from repro.serve.errors import BadRequestError, ModelLoadError, ModelNotFoundError
from repro.serve.registry import ModelRegistry


#: Rows of the repeat-heavy column in the retained-memory tests.
REPEATS = 50_000


def retained_bytes(keep) -> int:
    """Traced bytes still held after *keep* saw a column of ``REPEATS``
    separate ``"ab"`` string objects (as a JSON decoder produces them) and
    the column itself was dropped."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        column = ["".join(("a", "b")) for _ in range(REPEATS)]
        keep(column)
        del column
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


#: Half of what the column's own strings take: a cache that kept one string
#: per row would retain more than this, one that keeps one per distinct
#: value (plus 8 bytes a row for the key and 4 for the index) retains less.
RETAINED_LIMIT = REPEATS * sys.getsizeof("ab") // 2


def fit_model(pairs: list[tuple[str, str]]) -> TransformationModel:
    engine = TransformationDiscovery()
    result = engine.discover_from_strings(pairs)
    return TransformationModel.from_discovery(
        result, config=engine.config, min_support=0.05
    )


@pytest.fixture
def model(name_initial_pairs) -> TransformationModel:
    return fit_model(name_initial_pairs)


@pytest.fixture
def registry(tmp_path, model) -> ModelRegistry:
    model.save(tmp_path / "names.json")
    return ModelRegistry(tmp_path)


class TestLRUCache:
    def test_build_once_then_hit(self):
        cache = LRUCache(4)
        builds = []
        value, hit = cache.get_or_build("k", lambda: builds.append(1) or "v")
        assert (value, hit) == ("v", False)
        value, hit = cache.get_or_build("k", lambda: builds.append(1) or "other")
        assert (value, hit) == ("v", True)
        assert len(builds) == 1
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 0

    def test_miss_stores_under_stored_key(self):
        cache = LRUCache(4)
        conversions = []

        def stored_key(key, value):
            conversions.append((key, value))
            return tuple(key)

        cache.get_or_build(("a", "b"), lambda: "v", stored_key=stored_key)
        value, hit = cache.get_or_build(
            ("a", "b"), lambda: "other", stored_key=stored_key
        )
        assert (value, hit) == ("v", True)
        assert conversions == [(("a", "b"), "v")]  # only the miss converts

    def test_capacity_bound_evicts_least_recent(self):
        cache = LRUCache(2)
        cache.get_or_build("a", lambda: "a")
        cache.get_or_build("b", lambda: "b")
        cache.get_or_build("a", lambda: "a")  # refresh a; b is now oldest
        cache.get_or_build("c", lambda: "c")  # evicts b
        assert cache.stats()["size"] == 2
        assert cache.stats()["evictions"] == 1
        _, hit = cache.get_or_build("a", lambda: "a")
        assert hit is True
        _, hit = cache.get_or_build("b", lambda: "b")
        assert hit is False  # was evicted, rebuilt

    def test_invalidate_is_not_an_eviction(self):
        cache = LRUCache(4)
        cache.get_or_build(("m", 1), lambda: "x")
        cache.get_or_build(("m", 2), lambda: "y")
        cache.invalidate(lambda key: key[1] == 1)
        stats = cache.stats()
        assert stats["size"] == 1
        assert stats["evictions"] == 0

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestTargetIndexKey:
    """The registry keys target indexes by the column's values themselves."""

    @pytest.mark.parametrize(
        "first, second", [(["ab", "c"], ["a", "bc"]), ([], [""])]
    )
    def test_boundaries_do_not_alias(self, registry, first, second):
        joiner, _, _ = registry.joiner_for("names")
        first_index, first_hit = registry.target_index_for(joiner, first)
        second_index, second_hit = registry.target_index_for(joiner, second)
        assert (first_hit, second_hit) == (False, False)
        assert first_index is not second_index
        assert registry.stats()["target_index_cache"]["misses"] == 2

    def test_equal_column_in_a_new_object_hits(self, registry):
        joiner, _, _ = registry.joiner_for("names")
        index, hit = registry.target_index_for(joiner, ["x", "y"])
        assert hit is False
        for same_values in (["x", "y"], ("x", "y")):
            again, hit = registry.target_index_for(joiner, same_values)
            assert hit is True
            assert again is index

    @pytest.mark.parametrize("case_insensitive", [False, True])
    def test_repeated_values_are_kept_once(self, registry, case_insensitive):
        joiner, _, _ = registry.joiner_for("names")
        if case_insensitive:
            joiner = TransformationJoiner(
                joiner.transformations, case_insensitive=True
            )
        retained = retained_bytes(
            lambda column: registry.target_index_for(joiner, column)
        )
        assert registry.stats()["target_index_cache"]["size"] == 1
        assert retained < RETAINED_LIMIT


class TestJoinerTargetIndexReuse:
    """Satellite: the second `join_values` call must not rebuild the index."""

    def test_repeated_target_builds_index_once(self, model, name_initial_pairs):
        joiner = model.joiner()
        targets = [target for _, target in name_initial_pairs]
        sources = [source for source, _ in name_initial_pairs]
        builds = []
        original = joiner.build_target_index

        def counting(values):
            builds.append(len(values))
            return original(values)

        joiner.build_target_index = counting
        first = joiner.join_values(sources, targets)
        second = joiner.join_values(sources, targets)
        assert len(builds) == 1
        assert second.pairs == first.pairs
        # A *different* target column must not reuse the cached index.
        joiner.join_values(sources, targets[:-1])
        assert len(builds) == 2

    def test_lone_surrogate_in_target_joins(self, model):
        """A lone surrogate is a valid ``str`` (JSON can carry one); the
        target-index cache key must not try to encode it."""
        result = model.joiner().join_values(
            ["Rafiei, Davood", "x\ud800, y"], ["D Rafiei", "y x\ud800"]
        )
        assert result.pairs == [(0, 0), (1, 1)]

    @pytest.mark.parametrize("case_insensitive", [False, True])
    def test_cached_target_keeps_repeated_values_once(
        self, model, case_insensitive
    ):
        joiner = TransformationJoiner(
            model.transformations, case_insensitive=case_insensitive
        )
        retained = retained_bytes(
            lambda column: joiner.join_values(["Rafiei, Davood"], column)
        )
        assert retained < RETAINED_LIMIT

    def test_prebuilt_index_skips_build_entirely(self, model, name_initial_pairs):
        joiner = model.joiner()
        targets = [target for _, target in name_initial_pairs]
        sources = [source for source, _ in name_initial_pairs]
        expected = model.joiner().join_values(sources, targets)
        index = joiner.build_target_index(targets)
        builds = []
        joiner.build_target_index = lambda values: builds.append(1)
        result = joiner.join_values(sources, targets, target_index=index)
        assert builds == []
        assert result.pairs == expected.pairs

    def test_case_insensitive_index_is_normalized(self, name_initial_pairs):
        joiner = TransformationJoiner(
            fit_model(name_initial_pairs).transformations, case_insensitive=True
        )
        index = joiner.build_target_index(["D RAFIEI"])
        assert list(index.rows_for("d rafiei")) == [0]


class TestModelRegistry:
    def test_lookup_and_cache_hits(self, registry, model, name_initial_pairs):
        joiner, entry, hit = registry.joiner_for("names")
        assert hit is False
        assert entry.model == model
        _, _, hit = registry.joiner_for("names")
        assert hit is True
        targets = [target for _, target in name_initial_pairs]
        _, hit = registry.target_index_for(joiner, targets)
        assert hit is False
        _, hit = registry.target_index_for(joiner, targets)
        assert hit is True

    def test_unknown_model_raises_not_found(self, registry):
        with pytest.raises(ModelNotFoundError):
            registry.get("missing")

    @pytest.mark.parametrize("name", ["../escape", "a/b", ".hidden", ""])
    def test_unsafe_names_rejected(self, registry, name):
        with pytest.raises(BadRequestError):
            registry.get(name)

    def test_corrupt_file_degrades_only_that_model(self, tmp_path, model):
        model.save(tmp_path / "good.json")
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        registry = ModelRegistry(tmp_path)
        with pytest.raises(ModelLoadError):
            registry.get("bad")
        # The healthy model keeps serving.
        joiner, _, _ = registry.joiner_for("good")
        assert joiner.transformations
        summaries = {summary["name"]: summary for summary in registry.list_models()}
        assert summaries["good"]["ok"] is True
        assert summaries["bad"]["ok"] is False
        assert "bad" in registry.stats()["models_failed"]

    def test_fixing_corrupt_file_clears_error(self, tmp_path, model):
        path = tmp_path / "m.json"
        path.write_text("{not json", encoding="utf-8")
        registry = ModelRegistry(tmp_path)
        with pytest.raises(ModelLoadError):
            registry.get("m")
        model.save(path)
        os.utime(path, ns=(path.stat().st_atime_ns, path.stat().st_mtime_ns + 1))
        assert registry.get("m").model == model

    def test_mtime_reload_swaps_atomically(
        self, tmp_path, name_initial_pairs, phone_pairs
    ):
        path = tmp_path / "m.json"
        first = fit_model(name_initial_pairs)
        first.save(path)
        registry = ModelRegistry(tmp_path)
        old_joiner, old_entry, _ = registry.joiner_for("m")
        second = fit_model(phone_pairs)
        second.save(path)
        # Force a visible mtime change even on coarse-resolution filesystems.
        os.utime(path, ns=(path.stat().st_atime_ns, old_entry.mtime_ns + 1))
        new_joiner, new_entry, hit = registry.joiner_for("m")
        assert hit is False  # the stale compiled joiner was invalidated
        assert new_entry.model == second
        assert new_entry.mtime_ns != old_entry.mtime_ns
        # The old entry object is untouched (swap, not mutation): a reader
        # holding it mid-request still sees the complete old model.
        assert old_entry.model == first
        assert old_joiner.transformations == first.joiner().transformations
        assert new_joiner.transformations == second.joiner().transformations

    def test_replaced_file_with_preserved_mtime_reloads(
        self, tmp_path, name_initial_pairs, phone_pairs
    ):
        path = tmp_path / "m.json"
        first = fit_model(name_initial_pairs)
        first.save(path)
        registry = ModelRegistry(tmp_path)
        _, old_entry, _ = registry.joiner_for("m")
        old_key = registry.peek_file_key("m")
        old_stat = path.stat()
        # Ship the new model the way `cp -p` or `rsync -t` do: move a copy
        # into place, then restore the old timestamps.
        staged = tmp_path / "m.json.new"
        second = fit_model(phone_pairs)
        second.save(staged)
        os.replace(staged, path)
        os.utime(path, ns=(old_stat.st_atime_ns, old_stat.st_mtime_ns))
        assert path.stat().st_mtime_ns == old_entry.mtime_ns
        assert registry.peek_file_key("m") != old_key
        new_joiner, new_entry, hit = registry.joiner_for("m")
        assert hit is False
        assert new_entry.model == second
        assert new_joiner.transformations == second.joiner().transformations

    def test_in_place_rewrite_with_preserved_mtime_reloads(self, tmp_path, model):
        path = tmp_path / "m.json"
        model.save(path)
        registry = ModelRegistry(tmp_path)
        old_entry = registry.get("m")
        old_stat = path.stat()
        # Rewrite the same inode (compact JSON this time) and put the old
        # timestamps back: only the size tells the versions apart.
        path.write_text(model.dumps(indent=None), encoding="utf-8")
        os.utime(path, ns=(old_stat.st_atime_ns, old_stat.st_mtime_ns))
        new_stat = path.stat()
        assert new_stat.st_ino == old_stat.st_ino
        assert new_stat.st_mtime_ns == old_stat.st_mtime_ns
        assert new_stat.st_size < old_stat.st_size
        new_entry = registry.get("m")
        assert new_entry is not old_entry
        assert new_entry.model == model

    def test_peek_file_key_is_inode_size_and_mtime(self, registry, tmp_path):
        stat = (tmp_path / "names.json").stat()
        key = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
        assert registry.peek_file_key("names") == key
        assert registry.get("names").file_key == key
        assert registry.peek_file_key("missing") is None
        assert registry.peek_file_key("../escape") is None

    def test_deleted_file_turns_into_not_found(self, tmp_path, model):
        path = tmp_path / "m.json"
        model.save(path)
        registry = ModelRegistry(tmp_path)
        registry.get("m")
        path.unlink()
        with pytest.raises(ModelNotFoundError):
            registry.get("m")
        assert "m" not in registry.stats()["models_loaded"]

    def test_lru_eviction_rewarm(self, tmp_path, name_initial_pairs, phone_pairs):
        fit_model(name_initial_pairs).save(tmp_path / "a.json")
        fit_model(phone_pairs).save(tmp_path / "b.json")
        registry = ModelRegistry(tmp_path, joiner_cache_capacity=1)
        _, _, hit = registry.joiner_for("a")
        assert hit is False
        _, _, hit = registry.joiner_for("b")  # evicts a
        assert hit is False
        _, _, hit = registry.joiner_for("a")  # re-warms
        assert hit is False
        _, _, hit = registry.joiner_for("a")
        assert hit is True
        assert registry.stats()["joiner_cache"]["evictions"] >= 2

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="does not exist"):
            ModelRegistry(tmp_path / "nope")

    @pytest.mark.parametrize(
        "setting",
        ["num_workers", "task_timeout_s", "shard_retries"],
    )
    def test_apply_settings_checked_when_built(self, tmp_path, setting):
        # Unchecked, the registry would build and then fail every join with
        # the first joiner's ValueError.
        with pytest.raises(ValueError, match=f"{setting} must be >= 0"):
            ModelRegistry(tmp_path, **{setting: -1})

    @pytest.mark.parametrize(
        "setting",
        ["num_workers", "task_timeout_s", "shard_retries"],
    )
    def test_apply_setting_zero_is_accepted(
        self, tmp_path, model, name_initial_pairs, setting
    ):
        # 0 is in range for each (all cores, no deadline, no retries): the
        # registry builds, and its joiner joins
        # like the model's own.
        model.save(tmp_path / "names.json")
        joiner, _, _ = ModelRegistry(tmp_path, **{setting: 0}).joiner_for("names")
        sources = [source for source, _ in name_initial_pairs]
        targets = [target for _, target in name_initial_pairs]
        expected = model.joiner().join_values(sources, targets).pairs
        assert expected
        assert joiner.join_values(sources, targets).pairs == expected
