import os
import subprocess
import sys
from pathlib import Path

import nvinit
from nvinit import config, hamiltonian, optimizer, pulses, spinmodel, tomography

MODULES = (config, hamiltonian, optimizer, pulses, spinmodel, tomography)


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
