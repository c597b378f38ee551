"""Package-wide guards: no library routine without a caller, and a light
CLI import path."""

import ast
import os
import pathlib
import subprocess
import sys

import seacausal

SRC = pathlib.Path(seacausal.__file__).resolve().parent


def _public_definitions(tree):
    """Top-level public functions, classes and UPPER_CASE constants of a
    module, as (name, node) pairs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)
                     and t.id.isupper()]
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and node.target.id.isupper():
            names = [node.target.id]
        else:
            names = []
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _references(tree):
    """Names a module uses: Name and Attribute nodes and imported names
    (docstrings are strings, so a mention there does not count)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node


def test_every_public_name_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
    uses = {}
    for module, tree in trees.items():
        for name, node in _references(tree):
            uses.setdefault(name, []).append((module, node))
    orphans = []
    for module, tree in trees.items():
        for name, definition in _public_definitions(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if not any(m != module or id(n) not in inside
                       for m, n in uses.get(name, [])):
                orphans.append("%s.%s" % (module, name))
    assert not orphans, "no caller in the library: " + ", ".join(orphans)


def test_cli_import_leaves_out_scipy_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, seacausal.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert out.stdout.strip() == "False"
