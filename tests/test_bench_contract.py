"""The benchmark under bench/ reaches into stampbase by name; those names must stay.

The bench scripts are parsed with ``ast``, never run or imported, so this
stays fast.  A refactor that renames or drops something the benchmark uses
fails here instead of breaking ``bench/run.py --trace 1`` or
``bench/selftest.py``, or silently losing a traced boundary: the tracer
skips a ``BOUNDARIES`` name that no longer exists.
"""

import ast
import importlib
import inspect
from pathlib import Path

import stampbase.cli as cli
import stampbase.search as search

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(BENCH.glob("*.py"))}


def _uses(tree):
    """(module, name, call node or None) for each stampbase name the script uses.

    Covers ``from stampbase.X import Y`` and ``alias.Y`` where the script
    did ``import stampbase.X as alias``.
    """
    imported, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("stampbase"):
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("stampbase.") and alias.asname:
                    aliases[alias.asname] = alias.name
    uses = [(module, name, None) for module, name in imported.values()]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.append((aliases[node.value.id], node.attr, None))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in imported:
                uses.append((*imported[func.id], node))
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in aliases):
                uses.append((aliases[func.value.id], func.attr, node))
    return uses


def test_bench_names_exist():
    missing = []
    for script, tree in _trees().items():
        for module, name, _ in _uses(tree):
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{script}: {module}.{name}")
    assert missing == []


def test_bench_keywords_are_accepted():
    rejected = []
    for script, tree in _trees().items():
        for module, name, call in _uses(tree):
            if call is None:
                continue
            params = inspect.signature(getattr(importlib.import_module(module), name)).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            rejected += [f"{script}: {name}({kw.arg}=)" for kw in call.keywords
                         if kw.arg is not None and kw.arg not in params]
    assert rejected == []


# optimize has walked BasisDFS itself since the maximal-tail search got its
# leaf floor; these two boundaries have had no span since then
UNUSED_BOUNDARIES = {"optimize.iter_classified", "optimize.iter_p_plus"}


def _boundaries():
    tree = ast.parse((BENCH / "layers.py").read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets)
    )


def test_traced_boundaries_exist():
    boundaries = _boundaries()
    missing = {
        f"{module}.{name}" for module, name, _ in boundaries
        if not hasattr(importlib.import_module(f"stampbase.{module}"), name)
    }
    assert boundaries and missing == UNUSED_BOUNDARIES


def test_parallel_paths_split_through_the_module_global(monkeypatch, tmp_path):
    # the traced benchmark swaps search.subtree_prefixes to see the split
    calls = []
    original = search.subtree_prefixes

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(search, "subtree_prefixes", spy)
    search.classify(7, threads=2)
    search.run_enumeration(7, out_path=str(tmp_path / "p7.jsonl"), threads=2)
    assert len(calls) == 2


def test_cli_calls_the_traced_boundaries_through_module_globals(monkeypatch, capsys):
    # the tracer swaps cli.<name>; a table builder that bound one at import
    # time would keep calling the original and lose that span
    names = [name for module, name, _ in _boundaries() if module == "cli"]
    calls = dict.fromkeys(names, 0)

    def spy(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    for which in range(1, 16):
        assert cli.main(["tables", str(which), "--p-max", "7"]) == 0
    assert cli.main(["enumerate", "7"]) == 0
    capsys.readouterr()
    assert names and [name for name, n in calls.items() if n == 0] == []
