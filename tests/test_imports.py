import os
import subprocess
import sys
from pathlib import Path

import pytest

import reesval

# The directory holding the package under test.  A child started with -S
# skips site, so it finds the package only through PYTHONPATH.
PACKAGE_PARENT = str(Path(reesval.__file__).resolve().parent.parent)


def loaded_modules(statement, *flags):
    """The modules a fresh interpreter, started with ``flags``, holds after ``statement``."""
    code = f"import sys; {statement}; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PARENT},
    )
    return proc.stdout.splitlines()[-1].split()


def loaded_submodules(statement):
    """The ``reesval`` modules a fresh interpreter holds after ``statement``."""
    return [m for m in loaded_modules(statement) if m.split(".")[0] == "reesval"]


def loaded_by_command(*argv, flags=()):
    """The modules a fresh interpreter holds after ``reesval *argv`` succeeds."""
    return set(
        loaded_modules(
            f"from reesval.cli import main; assert main({list(argv)!r}) == 0", *flags
        )
    )


def test_package_root_loads_no_submodule():
    assert loaded_submodules("import reesval") == ["reesval"]


def test_monomial_loads_only_errors_and_record():
    assert loaded_submodules("import reesval.monomial") == [
        "reesval",
        "reesval.errors",
        "reesval.monomial",
        "reesval.record",
    ]


def test_cli_loads_only_errors_and_record():
    assert loaded_submodules("import reesval.cli") == [
        "reesval",
        "reesval.cli",
        "reesval.errors",
        "reesval.record",
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


EVERY_COMMAND = [
    ("rees", "{ideal}"),
    ("closure", "{ideal}", "--k", "2"),
    ("itoh", "--rees", "2,3", "--k", "6"),
    ("tower", "--e", "4", "--k", "6", "--oracle"),
    ("krull", "--rees", "2,3", "--k", "1", "--family", "S"),
    ("co2", "--components", "2,3;", "--e", "6"),
]

# dataclasses pulls in inspect, ast, dis and tokenize at start-up
HEAVY = {"dataclasses", "inspect"}


@pytest.fixture
def ideal_file(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("dim 2\n2 0\n0 3\n")
    return str(path)


@pytest.mark.parametrize("command", EVERY_COMMAND, ids=lambda command: command[0])
def test_text_commands_load_no_json_or_dataclasses(command, ideal_file):
    loaded = loaded_by_command(*(a.format(ideal=ideal_file) for a in command))
    assert loaded.isdisjoint({"json"} | HEAVY)


@pytest.mark.parametrize("command", EVERY_COMMAND, ids=lambda command: command[0])
def test_json_commands_load_no_typing_without_site(command, ideal_file):
    # -S: on some installs site itself imports typing through a .pth file
    argv = ("--json", *(a.format(ideal=ideal_file) for a in command))
    loaded = loaded_by_command(*argv, flags=("-S",))
    assert "json" in loaded
    assert loaded.isdisjoint({"typing"} | HEAVY)
