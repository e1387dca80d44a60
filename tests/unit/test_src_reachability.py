"""Every definition and every default in ``src/`` is reached from code that is not a test.

``src/`` holds what the CLI, the paper benchmarks, the examples and
perfbench run; an implementation that only tests call belongs in
``tests/oracles/``, and a setting that only tests change is a constant.  This
test walks the syntax trees of ``src/`` and of the code that drives it and
fails, naming the definition or the parameter, in two cases.

A top-level function or class of ``src/``, or a non-dunder method of such a
class, is referenced nowhere.  A reference is a ``Name`` id, an
``Attribute`` attr or an imported name; a method is reached only through an
``Attribute`` of its name, so a local variable or parameter that shares the
name of a property does not reach it.  References inside a definition's own
body do not reach it, and neither do the re-exports of an ``__init__.py``.

A defaulted parameter of a ``src/`` function or method, nested ones
included, is set by no call.  A call sets it when the call lies outside the
definition's own body, its callee is a ``Name`` or ``Attribute`` of the
definition's name (for ``__init__``, of the class name or ``cls``), and it
passes the parameter by keyword, reaches its position with positional
arguments, or passes ``*args`` or ``**kwargs``.  A callee ``C.name`` where
``C`` is the name of a ``src/`` class reaches only the methods of classes
named ``C``.

Otherwise the match is by name alone, so a definition that shares its name
with a reachable one (``load``, ``summary``) passes unseen.  The walk uses
:mod:`ast` because on Python 3.11 :mod:`tokenize` does not see the
expressions inside f-strings.
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
}

# Defaulted parameters that no call outside the tests sets, each with the
# reason it stays.
PARAMETER_ALLOWLIST = {
    "repro.cli.main.argv":
        "the console script passes none; tests drive the CLI in process",
    "repro.datasets.open_data.generate_open_data.match_rate":
        "the dataset generators stay as they are until the quality record exists",
    "repro.datasets.synthetic.generate_length_sweep_pair.name":
        "the dataset generators stay as they are until the quality record exists",
    "repro.datasets.web_tables.generate_pair.unmatched_rate":
        "the dataset generators stay as they are until the quality record exists",
    "repro.datasets.web_tables.generate_web_tables_dataset.noise_rate":
        "the dataset generators stay as they are until the quality record exists",
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


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _src_trees() -> Iterator[tuple[str, Path, ast.Module]]:
    for path in sorted(SRC.rglob("*.py")):
        yield _module_name(path), path, _parse(path)


def _driver_trees() -> Iterator[ast.Module]:
    for directory in DRIVERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if DRIVER_TESTS not in path.parents:
                yield _parse(path)


def _definitions(
    tree: ast.Module, module: str
) -> Iterator[tuple[str, ast.AST, bool]]:
    """``(qualified name, node, is method)`` of each definition the test checks."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or _is_dunder(node.name):
            continue
        yield f"{module}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCS) and not _is_dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item, True


def _references(
    tree: ast.Module, owner_of: dict[int, str], *, skip_imports: bool
) -> Iterator[tuple[str, bool, frozenset[str]]]:
    """``(name, is attribute, enclosing definitions)`` of each reference."""
    stack: list[tuple[ast.AST, frozenset[str]]] = [(tree, frozenset())]
    while stack:
        node, owners = stack.pop()
        if id(node) in owner_of:
            owners = owners | {owner_of[id(node)]}
        if isinstance(node, ast.Name):
            yield node.id, False, owners
        elif isinstance(node, ast.Attribute):
            yield node.attr, True, owners
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if skip_imports:
                continue
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], False, owners
                if alias.asname:
                    yield alias.asname, False, owners
        stack.extend((child, owners) for child in ast.iter_child_nodes(node))


def unreached_definitions() -> list[str]:
    """Qualified names of the ``src/`` definitions nothing outside tests reaches."""
    definitions: dict[str, tuple[str, bool]] = {}
    references: dict[tuple[str, bool], list[frozenset[str]]] = defaultdict(list)

    def collect(tree: ast.Module, owner_of: dict[int, str], skip: bool) -> None:
        for name, attribute, owners in _references(tree, owner_of, skip_imports=skip):
            references[name, attribute].append(owners)

    for module, path, tree in _src_trees():
        owner_of: dict[int, str] = {}
        for key, node, method in _definitions(tree, module):
            definitions[key] = key.rsplit(".", 1)[-1], method
            owner_of[id(node)] = key
        collect(tree, owner_of, path.name == "__init__.py")
    for tree in _driver_trees():
        collect(tree, {}, False)
    return sorted(
        key
        for key, (name, method) in definitions.items()
        if all(
            key in owners
            for attribute in ((True,) if method else (True, False))
            for owners in references[name, attribute]
        )
    )


def _functions(
    node: ast.AST, prefix: str, class_name: str | None = None
) -> Iterator[
    tuple[str, ast.AST, list[tuple[str, int | None]], set[str], str | None]
]:
    """``(qualified name, node, defaulted parameters, callee names, class
    name)`` of each function under *node*; a parameter is ``(name,
    position)``, the position counted without ``self`` or ``cls`` and
    ``None`` when keyword-only, and the class name is ``None`` for a
    function that is not a method."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}.{child.name}", child.name)
        elif isinstance(child, _FUNCS):
            key = f"{prefix}.{child.name}"
            args = child.args
            positional = args.posonlyargs + args.args
            bound = class_name is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in child.decorator_list
            )
            first_default = len(positional) - len(args.defaults)
            params = [
                (arg.arg, position - bound)
                for position, arg in enumerate(positional)
                if position >= first_default
            ] + [
                (arg.arg, None)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            callees = (
                {class_name, "cls"}
                if child.name == "__init__" and class_name
                else {child.name}
            )
            yield key, child, params, callees, class_name
            yield from _functions(child, key)
        else:
            yield from _functions(child, prefix, class_name)


def _sets(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether *call* passes the parameter *name* at *position*."""
    if any(keyword.arg in (None, name) for keyword in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def unset_parameters() -> list[str]:
    """``<function>.<parameter>`` of each defaulted ``src/`` parameter that
    no call outside the tests sets."""
    # callee name -> (call, the src/ class it is called through or None)
    calls: dict[str, list[tuple[ast.Call, str | None]]] = defaultdict(list)
    sources = list(_src_trees())
    functions = [
        function for module, _, tree in sources for function in _functions(tree, module)
    ]
    classes = {
        node.name
        for _, _, tree in sources
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    for tree in [tree for _, _, tree in sources] + list(_driver_trees()):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                if isinstance(callee, ast.Name):
                    calls[callee.id].append((node, None))
                elif isinstance(callee, ast.Attribute):
                    receiver = callee.value
                    through = (
                        receiver.id
                        if isinstance(receiver, ast.Name) and receiver.id in classes
                        else None
                    )
                    calls[callee.attr].append((node, through))
    unset = []
    for key, node, params, callees, class_name in functions:
        if key in ALLOWLIST:
            continue
        own = {id(inner) for inner in ast.walk(node)}
        outside = [
            call
            for callee in callees
            for call, through in calls[callee]
            if id(call) not in own and through in (None, class_name)
        ]
        unset.extend(
            f"{key}.{name}"
            for name, position in params
            if not any(_sets(call, name, position) for call in outside)
        )
    return sorted(unset)


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


def test_every_src_default_is_set_outside_the_tests():
    unset = [key for key in unset_parameters() if key not in PARAMETER_ALLOWLIST]
    assert not unset, (
        "only tests set these defaulted src/ parameters; make each a "
        "constant: " + ", ".join(unset)
    )


def test_parameter_allowlist_names_only_unset_parameters():
    stale = sorted(set(PARAMETER_ALLOWLIST) - set(unset_parameters()))
    assert not stale, (
        "these parameter allowlist entries are set or gone; take them off "
        "the list: " + ", ".join(stale)
    )
