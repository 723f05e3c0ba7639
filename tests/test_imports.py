"""Import hygiene of the package, read off each module's syntax tree:
every imported name is used, every import is the standard library or
soficert itself, every top-level function and class, and every method
that is not a dunder, is used by the package or its scripts, and every
parameter with a default is passed by some call in them.  Beside these,
importing the verifier must load only its trusted modules, importing
the package afresh must free its previous copy, and the README's module
map must give every module's line count."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "soficert"
MODULES = sorted(PACKAGE.glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

UNREFERENCED_ALLOWED: set[str] = set()


def imports(tree):
    """(import node, name it binds) for every import but ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node, alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for _, name in imports(tree) if name not in used)
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_soficert(path):
    tree = ast.parse(path.read_text())
    foreign = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        foreign += [m for m in modules
                    if m.split(".")[0] not in sys.stdlib_module_names | {"soficert"}]
    assert foreign == []


def referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def statements(split_classes=False):
    """(statement, whether it is in a class body, names it references)
    over the top level of every module and script but ``__init__.py``;
    with ``split_classes``, a class gives the statements of its body
    instead of itself."""
    for path in MODULES + SCRIPTS:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            split = split_classes and isinstance(node, ast.ClassDef)
            for stmt in node.body if split else [node]:
                yield stmt, split, set(referenced_names(stmt))


def used(node, units):
    return node.name in UNREFERENCED_ALLOWED or any(
        node.name in names for other, _, names in units if other is not node)


def test_every_top_level_definition_is_referenced():
    # a re-export from __init__.py or a use in a test is not a use
    units = list(statements())
    unreferenced = [node.name for node, _, _ in units
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not used(node, units)]
    assert unreferenced == []


def test_every_method_is_referenced():
    # a use by another method of the same class counts; dunders are
    # called by the language
    units = list(statements(split_classes=True))
    unreferenced = [node.name for node, in_class, _ in units
                    if in_class and isinstance(node, ast.FunctionDef)
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and not used(node, units)]
    assert unreferenced == []


# run as ``main()`` from the console entry point; tests and the bench pass argv
UNPASSED_DEFAULTS_ALLOWED = {"cli.main.argv"}


def functions(node, prefix, in_class=False):
    """(qualified name, function node, whether it is a method) of every
    function under ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield f"{prefix}.{child.name}", child, in_class
            yield from functions(child, f"{prefix}.{child.name}")
        elif isinstance(child, ast.ClassDef):
            yield from functions(child, f"{prefix}.{child.name}", in_class=True)
        else:
            yield from functions(child, prefix, in_class)


def defaulted_parameters(node, in_class):
    """(name, index among a call's positional arguments, or None) of every
    parameter of ``node`` with a default; a method's calls do not pass
    ``self`` positionally."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first - (1 if in_class else 0)):
        yield arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def passes(call, name, index):
    """Whether ``call`` passes the parameter ``name`` at ``index``; a
    ``*args`` or ``**kwargs`` in the call passes every parameter."""
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or index is not None and len(call.args) > index)


def callee_names(qualname, node, in_class):
    """The names a call to ``node`` is spelled with: its own, and for a
    class's ``__init__`` also the class's, since ``ClassName(...)`` runs it."""
    if in_class and node.name == "__init__":
        return [node.name, qualname.split(".")[-2]]
    return [node.name]


def test_every_defaulted_parameter_is_passed():
    # a default that no call overrides is a setting nobody uses; a call
    # matches a function by its name, bare or as an attribute
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES + SCRIPTS if p.name != "__init__.py"}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(callee, []).append(node)
    unpassed = [f"{qualname}.{name}"
                for stem, tree in trees.items()
                for qualname, node, in_class in functions(tree, stem)
                for name, index in defaulted_parameters(node, in_class)
                if not any(passes(call, name, index)
                           for callee in callee_names(qualname, node, in_class)
                           for call in calls.get(callee, []))]
    assert sorted(set(unpassed) - UNPASSED_DEFAULTS_ALLOWED) == []


def relative_imports(stem):
    """The package modules that ``stem``'s module imports by a relative
    import, ``from .m import x`` and ``from . import m`` alike."""
    for node in ast.walk(ast.parse((PACKAGE / f"{stem}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            yield from [node.module] if node.module else (alias.name for alias in node.names)


def import_closure(stem):
    closure, todo = set(), [stem]
    while todo:
        module = todo.pop()
        if module not in closure:
            closure.add(module)
            todo.extend(relative_imports(module))
    return closure


# the builder's finite-quotient code, which lives in quotients.py and builder.py
BUILDER_ONLY = {"hall_completion", "CosetTable", "image_group", "ImageGroup", "order_bound",
                "separation_targets", "pairwise_differences", "contains"}


def test_verifier_trusts_only_the_certificate_format_and_the_point_algebra():
    # the code that must be right for an accepted certificate to be
    # correct; the builder, its quotients, the harnesses and the CLI are
    # outside it
    closure = import_closure("verifier")
    assert closure == {"verifier", "certificate", "actions", "stallings", "permutations", "words"}
    assert import_closure("certificate").isdisjoint({"builder", "verifier", "harness", "cli"})
    defined = {(stem, node.name) for stem in closure
               for node in ast.parse((PACKAGE / f"{stem}.py").read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in BUILDER_ONLY}
    assert defined == set()


LOADED = """
import json, sys
import soficert.verifier
print(json.dumps(sorted(n for n in sys.modules if n == "soficert" or n.startswith("soficert."))))
"""


def test_importing_the_verifier_loads_only_its_trusted_modules():
    # the package module itself imports nothing, so a fresh interpreter
    # runs no builder or harness code to import the verifier
    proc = subprocess.run([sys.executable, "-c", LOADED], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(
        ["soficert"] + [f"soficert.{stem}" for stem in import_closure("verifier")])


# the console entry point, ``soficert = soficert.cli:entry``, on the argv
# after the script; the last two lines of its output are the package
# modules it loaded and which of ``dataclasses`` and ``inspect`` it loaded
RUN = """
import json, sys
import soficert.cli
try:
    soficert.cli.entry()
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(json.dumps(sorted(n for n in sys.modules if n == "soficert" or n.startswith("soficert."))))
print(json.dumps([n for n in ("dataclasses", "inspect") if n in sys.modules]))
"""


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A directory holding a job config and the certificate built from it."""
    from soficert.cli import main

    directory = tmp_path_factory.mktemp("built")
    job = {"action": {"kind": "coset", "rank": 2, "subgroup": ["a"]},
           "F": ["a", "b"], "E": ["1", "b"]}
    (directory / "job.json").write_text(json.dumps(job))
    assert main(["approx", "--config", str(directory / "job.json"),
                 "--out", str(directory / "cert.json")]) == 0
    return directory


@pytest.mark.parametrize("argv, extra", [
    (["verify", "{dir}/cert.json"], []),
    (["subgroup", "--rank", "2", "--gens", "a", "--avoid", "b"], ["quotients"]),
    (["approx", "--config", "{dir}/job.json", "--out", "{dir}/rebuilt.json"],
     ["builder", "quotients"]),
    (["fuzz", "--cases", "1"], ["builder", "harness", "quotients"]),
], ids=["verify", "subgroup", "approx", "fuzz"])
def test_each_subcommand_loads_only_the_modules_it_runs(built, argv, extra):
    # a verify process compiles the trusted modules and cli.py alone, and
    # no process loads dataclasses or, through it, inspect
    argv = [arg.format(dir=built) for arg in argv]
    proc = subprocess.run([sys.executable, "-c", RUN, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    stems = import_closure("verifier") | {"cli"} | set(extra)
    *_, package, stdlib = proc.stdout.splitlines()
    assert json.loads(package) == sorted(["soficert"] + [f"soficert.{stem}" for stem in stems])
    assert json.loads(stdlib) == []


def line_count(stem):
    return len((PACKAGE / f"{stem}.py").read_text().splitlines())


def test_readme_module_map_counts_the_lines():
    # the module map lists every module but __init__.py with its line
    # count, and the trusted total is the sum over the verifier's closure
    readme = (ROOT / "README.md").read_text()
    table = dict(re.findall(r"^\| `(\w+)\.py` \| (\d+) \|", readme, re.MULTILINE))
    assert sorted(table) == sorted(p.stem for p in MODULES if p.name != "__init__.py")
    assert {stem: int(n) for stem, n in table.items()} == {stem: line_count(stem) for stem in table}
    [total] = re.findall(r"(\d{1,3}(?: \d{3})*) lines in all", readme)
    assert int(total.replace(" ", "")) == sum(map(line_count, import_closure("verifier")))


# bench/run.py's import_soficert: drop every soficert entry of sys.modules
# and import the CLI again
REIMPORT = """
import gc, importlib, json, sys, types
for _ in range(5):
    for name in [n for n in sys.modules if n == "soficert" or n.startswith("soficert.")]:
        del sys.modules[name]
    importlib.import_module("soficert.cli")
gc.collect()
print(json.dumps(sorted(m.__name__ for m in gc.get_objects() if isinstance(m, types.ModuleType)
                        and (m.__name__ == "soficert" or m.__name__.startswith("soficert.")))))
"""


def test_reimporting_the_package_frees_the_old_modules():
    # run in a fresh interpreter, so the suite's own copies stay in
    # sys.modules; a module-level typing.Union, for one, is kept by
    # typing's cache and holds the old module globals alive
    proc = subprocess.run([sys.executable, "-c", REIMPORT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = ["soficert"] + [f"soficert.{p.stem}" for p in MODULES
                            if p.stem not in ("__init__", "builder", "harness", "quotients")]
    assert json.loads(proc.stdout) == sorted(names)
