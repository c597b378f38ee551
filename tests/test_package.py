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


# the names only verify.py calls, each with the reason it stays in the
# library; any other such name has no caller but its own check
_ABSTRACT = "subject of verify abstract until the sea's operators use it"
VERIFY_ONLY = {
    "kernel.kernel_p_momentum_oracle": "oracle: the kernel by its "
                                       "momentum integral",
    "quadrature.mc_p4_at_x": "oracle: int |P|^4 by Monte Carlo at a "
                             "moved base point",
    "chain.closed_chain": "oracle: the 4x4 closed chain behind the radial "
                          "invariants",
    "sea_variation.product_coefficient_matrix": "oracle: the chain of two "
                                                "regularizations",
    "kernel.kernel_matrix_batch": "the matrix route, oracle of the radial "
                                  "path",
    "quadrature.exponent_exact": "the paper's decay lemma",
    "quadrature.decay_lower_bound": "the paper's decay lemma",
    "gk.integrate_2d": "verify's second partition of the integrals; also "
                       "called by bench/make_refs.py",
    "em_perturb.psi1_on_frame": "the one-frame field of verify em's "
                                "dirac_factor_fd; f1_matrix_element runs "
                                "both frames on one node set",
    "abstract_cfs.ordered_spectrum": _ABSTRACT,
    "abstract_cfs.gen_inverse": _ABSTRACT,
    "abstract_cfs.regular_perturbation": _ABSTRACT,
    "abstract_cfs.admissibility_bounds": _ABSTRACT,
    "abstract_cfs.local_representation": _ABSTRACT,
    "abstract_cfs.random_regular_operator": _ABSTRACT,
}


def test_every_public_name_has_a_caller():
    """Each public name outside verify.py has a caller in the library
    other than verify.py, or is listed in VERIFY_ONLY, and each listed
    name is still reached from verify.py alone."""
    trees = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
    uses = {}
    for module, tree in trees.items():
        for name, node in _references(tree):
            uses.setdefault(name, []).append((module, node))
    orphans, verify_only = [], set()
    for module, tree in trees.items():
        for name, definition in _public_definitions(tree):
            inside = {id(n) for n in ast.walk(definition)}
            callers = {m for m, n in uses.get(name, [])
                       if m != module or id(n) not in inside}
            if not callers:
                orphans.append("%s.%s" % (module, name))
            elif callers == {"verify"} and module != "verify":
                verify_only.add("%s.%s" % (module, name))
    assert not orphans, "no caller in the library: " + ", ".join(orphans)
    unlisted = sorted(verify_only - set(VERIFY_ONLY))
    assert not unlisted, "only verify.py calls: " + ", ".join(unlisted)
    assert verify_only == set(VERIFY_ONLY), \
        "listed but called elsewhere or gone: " \
        + ", ".join(sorted(set(VERIFY_ONLY) - verify_only))


def test_cli_import_leaves_out_scipy_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, seacausal.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert out.stdout.strip() == "False"
