"""Every definition in ``src/`` is reached from code that is not a test.

``src/`` holds what the CLI, the paper benchmarks, the examples and
perfbench run; an implementation that only tests call belongs in
``tests/oracles/``.  This test walks the syntax trees of ``src/`` and of the
code that drives it and fails, naming the definition, when a top-level
function or class of ``src/``, or a non-dunder method of such a class, is
referenced nowhere.

A reference is a ``Name`` id, an ``Attribute`` attr or an imported name.
References inside a definition's own body do not reach it, and neither do
the re-exports of an ``__init__.py``.  The match is by name alone, so a
definition that shares its name with a reachable one (``load``, ``summary``)
passes unseen.  The walk uses :mod:`ast` because on Python 3.11
:mod:`tokenize` does not see the expressions inside f-strings.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
DRIVERS = ("benchmarks", "examples", "perfbench")
DRIVER_TESTS = ROOT / "perfbench" / "tests"

# Unreached definitions that stay, each with the reason it stays.
ALLOWLIST = {
    "repro.serve.server._JoinRequestHandler.do_GET":
        "http.server dispatches GET requests to it by name",
    "repro.serve.server._JoinRequestHandler.do_POST":
        "http.server dispatches POST requests to it by name",
    "repro.serve.server._JoinRequestHandler.log_message":
        "http.server calls it by name to log each request",
    "repro.core.transformation.Transformation.covers":
        "the coverage oracle of tests/differential",
    "repro.matching.index.InvertedIndex.row_frequency":
        "the IRF and Rscore definitions of tests/oracles/matching.py read it",
    "repro.baselines.setsimjoin.jaccard_join":
        "set-similarity baseline; the setsim keep-or-delete decision is open",
    "repro.baselines.setsimjoin.cosine_join":
        "set-similarity baseline; the setsim keep-or-delete decision is open",
    "repro.baselines.setsimjoin.overlap_join":
        "set-similarity baseline; the setsim keep-or-delete decision is open",
    "repro.matching.setsim.SetSimStats.pruning_ratio":
        "set-similarity baseline; the setsim keep-or-delete decision is open",
    "repro.core.sampling.autojoin_expected_covered_subsets":
        "a Section 5.3 formula, kept with those bench_sampling_analysis.py uses",
    "repro.core.sampling.minimum_sample_size":
        "a Section 5.3 formula, kept with those bench_sampling_analysis.py uses",
    "repro.parallel.executor.ShardedExecutor.degraded":
        "degradation state that is to be reported as events, which nothing reads yet",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _definitions(tree: ast.Module, module: str) -> Iterator[tuple[str, ast.AST]]:
    """``(qualified name, node)`` of each definition the test checks."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or _is_dunder(node.name):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCS) and not _is_dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item


def _references(
    tree: ast.Module, owner_of: dict[int, str], *, skip_imports: bool
) -> Iterator[tuple[str, frozenset[str]]]:
    """``(name, enclosing definitions)`` of each reference in *tree*."""
    stack: list[tuple[ast.AST, frozenset[str]]] = [(tree, frozenset())]
    while stack:
        node, owners = stack.pop()
        if id(node) in owner_of:
            owners = owners | {owner_of[id(node)]}
        if isinstance(node, ast.Name):
            yield node.id, owners
        elif isinstance(node, ast.Attribute):
            yield node.attr, owners
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if skip_imports:
                continue
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], owners
                if alias.asname:
                    yield alias.asname, owners
        stack.extend((child, owners) for child in ast.iter_child_nodes(node))


def _driver_files() -> Iterator[Path]:
    for directory in DRIVERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if DRIVER_TESTS not in path.parents:
                yield path


def unreached_definitions() -> list[str]:
    """Qualified names of the ``src/`` definitions nothing outside tests reaches."""
    definitions: dict[str, str] = {}
    references: dict[str, list[frozenset[str]]] = defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        owner_of: dict[int, str] = {}
        for key, node in _definitions(tree, _module_name(path)):
            definitions[key] = key.rsplit(".", 1)[-1]
            owner_of[id(node)] = key
        skip_imports = path.name == "__init__.py"
        for name, owners in _references(tree, owner_of, skip_imports=skip_imports):
            references[name].append(owners)
    for path in _driver_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name, owners in _references(tree, {}, skip_imports=False):
            references[name].append(owners)
    return sorted(
        key
        for key, name in definitions.items()
        if all(key in owners for owners in references[name])
    )


def test_every_src_definition_is_reached_outside_the_tests():
    unreached = [key for key in unreached_definitions() if key not in ALLOWLIST]
    assert not unreached, (
        "only tests reach these src/ definitions; delete them or move them to "
        "tests/oracles/: " + ", ".join(unreached)
    )


def test_allowlist_names_only_unreached_definitions():
    stale = sorted(set(ALLOWLIST) - set(unreached_definitions()))
    assert not stale, (
        "these allowlist entries are reached or gone; take them off the "
        "list: " + ", ".join(stale)
    )
