import ast
import os
import subprocess
import sys
from pathlib import Path

import nvinit
from nvinit import config, hamiltonian, optimizer, pulses, spinmodel, tomography

MODULES = (config, hamiltonian, optimizer, pulses, spinmodel, tomography)
# The package's two dead-code gates (ROADMAP, aim 2) read one parse of each module.
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(Path(nvinit.__file__).parent.glob("*.py"))}


def test_package_exports_each_module_all():
    expected = {name for module in MODULES for name in module.__all__} | {"__version__"}
    assert set(nvinit.__all__) == expected
    assert len(nvinit.__all__) == len(expected) == 58


def test_each_export_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nvinit, name) is getattr(module, name), name


def test_swap_pairs_are_the_reference_transitions():
    assert pulses.MW_PAIRS == (((0, -1), (-1, -1)), ((0, +1), (-1, +1)))
    assert pulses.RF_PAIRS == (((-1, -1), (-1, 0)), ((-1, +1), (-1, 0)))


def test_import_loads_no_yaml_parser():
    # config and cli import PyYAML inside the functions that read or write YAML
    src = Path(nvinit.__file__).resolve().parents[1]
    code = "import sys, nvinit; print(nvinit.__file__); print('yaml' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    path, loaded = run.stdout.splitlines()
    assert Path(path).resolve().is_relative_to(src)
    assert loaded == "False"


def test_no_unused_imports():
    # Read: named anywhere in the module or listed in its __all__. Star and
    # __future__ imports are not checked.
    assert TREES
    unused = []
    for file, tree in TREES.items():
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", "") != "__future__"):
                imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                                for alias in node.names if alias.name != "*")
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {item.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(getattr(target, "id", None) == "__all__" for target in node.targets)
                 for item in ast.walk(node.value) if isinstance(item, ast.Constant)}
        unused += [f"{file}:{line}: {name}" for name, line in imported.items() if name not in read]
    assert not unused, "imported but unused:\n" + "\n".join(unused)


def test_every_private_module_level_name_is_read():
    # A def, class or assignment named _x (dunders aside) must be loaded, imported
    # by name, or read as an attribute in some module of the package; an attribute
    # of the same name on another object counts as a read too.
    assert TREES
    defined, read = [], set()
    for file, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(f"{file}:{node.lineno}", name) for name in names if name.startswith("_")
                        and not (name.startswith("__") and name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = [f"{where}: {name}" for where, name in defined if name not in read]
    assert not unread, "defined but never read:\n" + "\n".join(unread)
