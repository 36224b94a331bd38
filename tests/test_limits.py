"""No call runs unbounded on a user integer.

Every public function of ``src/reesval`` whose parameter is annotated
``int`` is listed below with what bounds its work in that parameter,
as are the CLI's ``--k`` and ``--e``, the oracle's monomial and the
puiseux model's fields.  A limit is either None, for closed-form int
arithmetic that answers at any size, or the value, or the wording, that
the call's refusal of 10**9 states.  Each row is called with 10**9 and
with a 5000-digit int and must answer or refuse with an ``InputError``
within one second.  A public int parameter missing from the table fails
the scan.
"""

import ast
import time
from pathlib import Path

import pytest

from reesval import cli_krull, dvrcalc, itoh, krull, monomial, puiseux
from reesval.cli import main
from reesval.errors import InputError
from reesval.oracle import oracle_is_integral

ROOT = Path(__file__).resolve().parent.parent

SQUARE = monomial.MonomialIdeal(2, ((2, 0), (0, 3)))
REES = (2, 5)  # 10**9 and 10**4999 are common multiples, as 10**5000 is of both
PLAN = krull.ComponentPlan([krull.Component(REES, True)])

# the two sizes, with their decimal text: str refuses the 5000-digit one
SIZES = {10**9: "1000000000", 10**4999: "1" + "0" * 4999}


def _cli(*argv):
    """An argv runner whose last argument is one of SIZES; exit 2 is a refusal."""

    def run(n):
        code = main([*argv, SIZES[n]])
        if code == 2:
            raise InputError("refused")
        assert code == 0

    return run


def _krull(build):
    return lambda n: krull.realize_plan(build(REES, n), REES)


# (function, parameter) -> (limit, call of the one integer)
LIMITS = {
    ("ideal_power", "k"): (monomial.MAX_POWER_SUMS, lambda n: monomial.ideal_power(SQUARE, n)),
    ("integral_closure_power", "k"): (
        monomial.MAX_CLOSURE_COLUMNS, lambda n: monomial.integral_closure_power(SQUARE, n)
    ),
    ("minimalize", "dim"): ("dimension must be 1..3", lambda n: monomial.minimalize([(1,)], n)),
    ("build_split_system", "k"): (None, _krull(krull.build_split_system)),
    ("build_inert_system", "k"): (None, _krull(krull.build_inert_system)),
    ("build_ramified_system", "k"): (None, _krull(krull.build_ramified_system)),
    ("build_root_adjunction_system", "k"): (None, _krull(krull.build_root_adjunction_system)),
    ("build_system", "k"): (None, lambda n: krull.build_system("EXP2", REES, n)),
    ("common_multiple_realization", "e"): (
        None, lambda n: krull.common_multiple_realization(REES, n)
    ),
    ("direct_sum_plan", "e"): (None, lambda n: krull.direct_sum_plan(PLAN, n)),
    ("itoh_structure", "k"): (None, lambda n: itoh.itoh_structure(REES, n)),
    ("radicality_equivalence", "k"): (None, lambda n: itoh.radicality_equivalence(REES, n)),
    ("general_k_extension", "e"): (None, lambda n: dvrcalc.general_k_extension(n, 6)),
    ("general_k_extension", "k"): (None, lambda n: dvrcalc.general_k_extension(4, n)),
    ("itoh_tower", "e_j"): (None, lambda n: dvrcalc.itoh_tower(n, 10**5000)),
    ("itoh_tower", "e"): (None, lambda n: dvrcalc.itoh_tower(2, n)),
    ("oracle_extension", "model.e"): (
        None, lambda n: puiseux.oracle_extension(puiseux.PuiseuxModel(n, 6))
    ),
    ("oracle_extension", "model.k"): (
        None, lambda n: puiseux.oracle_extension(puiseux.PuiseuxModel(4, n))
    ),
    ("oracle_is_integral", "k"): (None, lambda n: oracle_is_integral(SQUARE, n, (1, 1))),
    ("oracle_is_integral", "m"): (None, lambda n: oracle_is_integral(SQUARE, 1, (n, 1))),
    ("reesval tower", "--k"): (None, _cli("tower", "--e", "4", "--k")),
    ("reesval tower", "--e"): (None, _cli("tower", "--k", "6", "--e")),
    ("reesval itoh", "--k"): (None, _cli("itoh", "--rees", "2,5", "--k")),
    ("reesval krull", "--k"): (cli_krull.MAX_MAXIMAL_IDEALS,
                               _cli("krull", "--rees", "2,5", "--family", "S", "--k")),
    ("reesval closure", "--k"): (
        monomial.MAX_CLOSURE_COLUMNS, _cli("closure", "ideal.txt", "--k")
    ),
    ("reesval co2", "--e"): (None, _cli("co2", "--components", "2,5", "--e")),
}

# int parameters that size no work, each with the reason
NOT_SIZING = {
    ("read_int", "least"): "a bound, compared once",
    ("int_text", "value"): "the int a message writes, by its size when str refuses it",
}


def int_parameters():
    """(function, parameter) of every public top-level function's int parameter."""
    found = set()
    for path in sorted((ROOT / "src" / "reesval").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                for arg in node.args.args + node.args.kwonlyargs:
                    if arg.annotation is not None and ast.unparse(arg.annotation) in (
                        "int", "int | None"
                    ):
                        found.add((node.name, arg.arg))
    return found


def test_every_int_parameter_is_in_the_table():
    scanned = int_parameters()
    assert scanned - LIMITS.keys() - NOT_SIZING.keys() == set()
    assert NOT_SIZING.keys() <= scanned


@pytest.mark.parametrize("n", list(SIZES), ids=["10**9", "5000 digits"])
@pytest.mark.parametrize("row", list(LIMITS), ids=" ".join)
def test_answers_or_refuses_at_once(row, n, tmp_path, monkeypatch, capsys):
    limit, call = LIMITS[row]
    # the closure command reads its ideal from ideal.txt in the working directory
    (tmp_path / "ideal.txt").write_text("dim 2\n2 0\n0 3\n")
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    try:
        call(n)
    except InputError as exc:
        refusal = str(exc)
    else:
        refusal = None
    assert time.perf_counter() - start < 1.0
    if n == 10**9:
        if limit is None:
            assert refusal is None
        else:
            # the refusal states its limit, on stderr from the CLI
            assert refusal is not None
            assert str(limit) in (capsys.readouterr().err if row[0].startswith("reesval")
                                  else refusal)
