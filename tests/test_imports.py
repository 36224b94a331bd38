import subprocess
import sys

import pytest


def loaded_modules(statement):
    """The modules a fresh interpreter holds after ``statement``."""
    code = f"import sys; {statement}; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return proc.stdout.splitlines()[-1].split()


def loaded_submodules(statement):
    """The ``reesval`` modules a fresh interpreter holds after ``statement``."""
    return [m for m in loaded_modules(statement) if m.split(".")[0] == "reesval"]


def loaded_by_command(*argv):
    """The modules a fresh interpreter holds after ``reesval *argv`` succeeds."""
    return set(
        loaded_modules(f"from reesval.cli import main; assert main({list(argv)!r}) == 0")
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
        {"reesval.dvrcalc", "reesval.itoh", "reesval.krull", "reesval.puiseux"}
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("itoh", "--rees", "2,3", "--k", "6"),
        ("krull", "--rees", "2,3", "--k", "1", "--family", "S"),
        ("co2", "--components", "2,3;", "--e", "6"),
    ],
    ids=lambda argv: argv[0],
)
def test_tower_and_krull_commands_load_no_oracle(argv):
    loaded = loaded_by_command(*argv)
    assert "reesval.itoh" in loaded
    assert loaded.isdisjoint({"reesval.puiseux", "fractions"})
