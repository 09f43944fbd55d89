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
import multiprocessing
import os
import subprocess
import sys
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
# leaf floor; these two boundaries have had no span since then.  search
# decides symmetricisability with symmetricisable_raw, not the literal closure,
# and no longer calls the reference procedures since its record API went.
# symmetric.closure_profile decides each closure on raw elements, so symmetric
# no longer builds a range with basis_range.
UNUSED_BOUNDARIES = {"optimize.iter_classified", "optimize.iter_p_plus",
                     "search.closure_admissible_at", "search.closure_profile",
                     "search.is_extensible", "symmetric.basis_range"}


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
    # the pool probe reads its workers' CPU from RUSAGE_CHILDREN, which counts reaped ones only
    assert not multiprocessing.active_children()


def test_one_thread_never_imports_multiprocessing(tmp_path):
    # the benchmark's set-up time and peak RSS count what a one-thread job imports:
    # no pool, no dataclass machinery (which pulls in inspect), and fractions only
    # for the period scan.  Modules the interpreter had loaded before the script's
    # first line (site, .pth files) are not counted.
    script = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import stampbase.cli as cli\n"
        "for argv in (['tables', '3'], ['enumerate', '9']):\n"
        "    assert cli.main([*argv, '--threads', '1']) == 0\n"
        "print(sorted(name for name in set(sys.modules) - bare\n"
        "             if name.split('.')[0] in ('multiprocessing', 'dataclasses', 'inspect',\n"
        "                                       'fractions')), file=sys.stderr)\n"
        "sys.stdout.write('---\\n')\n"
        "assert cli.main(['stohr', '1,3,5,6', '--scan-period']) == 0\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(BENCH.parent / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "[]\n")
    assert proc.stdout.split("---\n")[1] == (
        '{"preperiod": 0, "period_length": 4, "period_sum": 18, "pattern": [7, 2, 2, 7], '
        '"average_num": 9, "average_den": 2, "verified_periods": 3}\n')


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


def test_one_default_checkpoint_cadence(capsys):
    # bench/layers.py reads the default off run_enumeration's signature to count checkpoints;
    # the CLI's default and its help must be the same constant
    default = search._CHECKPOINT_EVERY
    parameters = inspect.signature(search.run_enumeration).parameters
    assert parameters["checkpoint_every"].default == default
    assert cli.build_parser().parse_args(["enumerate", "9"]).checkpoint_every == default
    try:
        cli.main(["enumerate", "--help"])
    except SystemExit as done:
        assert done.code == 0
    assert f"(default: {default})" in " ".join(capsys.readouterr().out.split())
