"""Usage scan of the package's public surface.

Every non-dunder top-level function and class of ``src/reesval`` and
every method defined in those classes is looked up, by name, among the
identifiers that the code under ``src/``, ``bench/`` and ``tests/``
reads (plain names, attribute names and imported names).  A name that
only ``tests/`` reads is API that nothing uses; it must either go or
be listed below with the reason it stays.  The scan matches names, not
bindings, so a method that shares its name with a used attribute counts
as used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Names only tests call, each kept for a reason.
TEST_ONLY = {
    # Acceptance criterion 6 checks that the Rees integers of I^k are k
    # times those of I, which needs I^k itself.
    "ideal_power": "acceptance criterion 6",
    # The paper's result (4): adjoining an e-th root of u for a common
    # multiple e of the Rees integers gives uniform Rees integer e, and
    # a simple extension of degree e when every Rees integer equals e.
    "common_multiple_realization": "paper result (4)",
    # The general Fourier-Motzkin solver: the oracle decides its pairs
    # and triples by kernels compiled at import for each dimension, which
    # share no code with it, and the tests check them against it.  The oracle
    # needs it again for four or more points once d > 3.
    "_fm_feasible": "exact reference for the oracle's compiled pair and triple tests",
}


def defined_names(path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield sub.name


def referenced_names(directory):
    names = set()
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def surface():
    return {
        name
        for path in sorted((ROOT / "src" / "reesval").glob("*.py"))
        for name in defined_names(path)
        if not (name.startswith("__") and name.endswith("__"))
    }


def test_names_only_tests_use_are_documented():
    used = referenced_names(ROOT / "src") | referenced_names(ROOT / "bench")
    tested = referenced_names(ROOT / "tests")
    assert {name for name in surface() - used if name in tested} == set(TEST_ONLY)


def test_every_name_is_referenced():
    everywhere = set().union(
        *(referenced_names(ROOT / d) for d in ("src", "bench", "tests"))
    )
    assert surface() - everywhere == set()
