import subprocess
import sys


def loaded_submodules(statement):
    """The ``reesval`` modules a fresh interpreter holds after ``statement``."""
    code = (
        f"import sys; {statement}; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'reesval')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


def test_package_root_loads_no_submodule():
    assert loaded_submodules("import reesval") == ["reesval"]


def test_monomial_loads_only_errors():
    assert loaded_submodules("import reesval.monomial") == [
        "reesval",
        "reesval.errors",
        "reesval.monomial",
    ]
