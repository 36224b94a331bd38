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
    return proc.stdout.splitlines()[-1].split()


def loaded_by_command(*argv):
    """The ``reesval`` modules a fresh interpreter holds after ``reesval *argv`` succeeds."""
    return set(
        loaded_submodules(f"from reesval.cli import main; assert main({list(argv)!r}) == 0")
    )


def test_package_root_loads_no_submodule():
    assert loaded_submodules("import reesval") == ["reesval"]


def test_monomial_loads_only_errors():
    assert loaded_submodules("import reesval.monomial") == [
        "reesval",
        "reesval.errors",
        "reesval.monomial",
    ]


def test_cli_loads_only_errors():
    assert loaded_submodules("import reesval.cli") == [
        "reesval",
        "reesval.cli",
        "reesval.errors",
    ]


def test_tower_loads_no_krull_monomial_or_itoh():
    loaded = loaded_by_command("tower", "--e", "4", "--k", "6")
    assert "reesval.dvrcalc" in loaded
    assert loaded.isdisjoint({"reesval.krull", "reesval.monomial", "reesval.itoh"})


def test_rees_loads_no_tower_or_krull_code(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("dim 2\n2 0\n0 3\n")
    loaded = loaded_by_command("rees", str(path))
    assert "reesval.monomial" in loaded
    assert loaded.isdisjoint(
        {"reesval.dvrcalc", "reesval.itoh", "reesval.krull", "reesval.numcore", "reesval.puiseux"}
    )
