"""The package namespace holds only its version: ``import pjac`` loads no
submodule, and the leaf ``pjac.geometry`` loads no SciPy."""

import subprocess
import sys


def _loaded(module: str) -> list[str]:
    """Modules in ``sys.modules`` after importing ``module`` in a fresh interpreter."""
    code = f"import sys, {module}; print('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return proc.stdout.split()


def test_package_import_loads_no_submodule_and_geometry_no_scipy():
    assert [m for m in _loaded("pjac") if m.startswith("pjac.")] == []
    assert [m for m in _loaded("pjac.geometry") if m.split(".")[0] == "scipy"] == []
