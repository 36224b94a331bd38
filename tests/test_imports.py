import ast
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


def test_tower_and_krull_calls_load_no_oracle():
    # radicality_equivalence alone imports the oracle, on its first call
    assert "reesval.puiseux" not in loaded_submodules(
        "import reesval.itoh, reesval.krull; "
        "reesval.itoh.itoh_structure((2, 3), 6); reesval.krull.build_system('EXP2', (2, 3), 6)"
    )
    assert "reesval.puiseux" in loaded_submodules(
        "import reesval.itoh; reesval.itoh.radicality_equivalence((2, 3), 6)"
    )


def test_cli_loads_only_errors():
    assert loaded_submodules("import reesval.cli") == [
        "reesval",
        "reesval.cli",
        "reesval.errors",
    ]


def test_cli_loads_no_argv_parser():
    assert set(loaded_modules("import reesval.cli")).isdisjoint(ARGV_PARSING)


def test_monomial_reads_the_oracle_from_its_module():
    assert loaded_submodules(
        "import reesval.oracle; from reesval.monomial import oracle_is_integral; "
        "assert oracle_is_integral is reesval.oracle.oracle_is_integral"
    ) == ["reesval", "reesval.errors", "reesval.monomial", "reesval.oracle", "reesval.record"]


def test_oracle_names_no_facet_code():
    # the oracle stays independent of the facets it cross-checks
    tree = ast.parse((Path(PACKAGE_PARENT) / "reesval" / "oracle.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    facet_code = {"_facets_2d", "_facets_dd", "_rees_facets", "rees_valuations",
                  "integral_closure_power"}
    assert names.isdisjoint(facet_code)


def test_cli_module_run_as_main_is_never_imported():
    # under -m the CLI runs as __main__; importing reesval.cli too would compile it twice
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "reesval.cli", "tower", "--e", "4", "--k", "6"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": PACKAGE_PARENT},
    )
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "reesval.cli_tower" in imported
    assert "reesval.cli" not in imported


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


@pytest.mark.parametrize("argv", [("rees", "{ideal}"), ("closure", "{ideal}", "--k", "2")],
                         ids=lambda argv: argv[0])
def test_rees_and_closure_load_no_oracle(argv, ideal_file):
    loaded = loaded_by_command(*(a.format(ideal=ideal_file) for a in argv))
    assert "reesval.monomial" in loaded
    assert "reesval.oracle" not in loaded


EVERY_COMMAND = [
    ("rees", "{ideal}"),
    ("closure", "{ideal}", "--k", "2"),
    ("itoh", "--rees", "2,3", "--k", "6"),
    ("tower", "--e", "4", "--k", "6", "--oracle"),
    ("krull", "--rees", "2,3", "--k", "1", "--family", "S"),
    ("co2", "--components", "2,3;", "--e", "6"),
]

# dataclasses pulls in inspect, ast, dis and tokenize at start-up, and
# fractions pulls in decimal; the library computes with integers only
HEAVY = {"dataclasses", "inspect", "fractions", "decimal"}

# the CLI reads argv from its own table; argparse and its gettext cost
# ~1.2 ms to import and ~1.4 ms to build the parsers in every process
ARGV_PARSING = {"argparse", "gettext"}


@pytest.fixture
def ideal_file(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("dim 2\n2 0\n0 3\n")
    return str(path)


HANDLER_MODULES = {
    "rees": "reesval.cli_monomial",
    "closure": "reesval.cli_monomial",
    "itoh": "reesval.cli_itoh",
    "tower": "reesval.cli_tower",
    "krull": "reesval.cli_krull",
    "co2": "reesval.cli_krull",
}


@pytest.mark.parametrize("command", EVERY_COMMAND, ids=lambda command: command[0])
def test_command_loads_its_handler_module_and_no_other(command, ideal_file):
    loaded = loaded_by_command(*(a.format(ideal=ideal_file) for a in command))
    handlers = {m for m in loaded if m.startswith("reesval.cli_")}
    assert handlers == {HANDLER_MODULES[command[0]]}


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


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
@pytest.mark.parametrize("form", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("command", EVERY_COMMAND, ids=lambda command: command[0])
def test_commands_load_no_argv_parser(command, form, flags, ideal_file):
    argv = (*form, *(a.format(ideal=ideal_file) for a in command))
    assert loaded_by_command(*argv, flags=flags).isdisjoint(ARGV_PARSING)
