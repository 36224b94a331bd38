import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reesval.cli import main
from reesval.cli_krull import MAX_EXPONENT_DIGITS, MAX_MAXIMAL_IDEALS

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden" / "cli_text.json"

IDEAL_X2_Y3 = "dim 2\n2 0\n0 3\n"
IDEAL_X2_Y2 = "dim 2\n2 0\n0 2\n"
IDEAL_X_Y = "dim 2\n1 0\n0 1\n"
IDEAL_X2_Y3_Z6 = "dim 3\n2 0 0\n0 3 0\n0 0 6\n"
IDEAL_XY_Z2 = "dim 3\n1 1 0\n0 0 2\n"
IDEAL_X3 = "dim 1\n3\n"


@pytest.fixture
def ideal_file(tmp_path):
    def write(text, name="ideal.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReesCommand:
    def test_two_pure_powers(self, capsys, ideal_file):
        code, out, _ = run_cli(capsys, "rees", ideal_file(IDEAL_X2_Y3))
        assert code == 0
        assert "normal: [3, 2]" in out
        assert "rees_integer: 6" in out
        assert "lcm: 6" in out

    def test_maximal_ideal(self, capsys, ideal_file):
        code, out, _ = run_cli(capsys, "rees", ideal_file(IDEAL_X_Y))
        assert code == 0
        assert "normal: [1, 1]" in out
        assert "lcm: 1" in out

    def test_malformed_file(self, capsys, ideal_file):
        code, _, err = run_cli(capsys, "rees", ideal_file("dim 2\n1 2 3\n"))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "rees", "/nonexistent/ideal.txt")
        assert code == 2
        assert "error" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_bytes(b"dim 2\n2 0\n0 \xff3\n")
        code, out, err = run_cli(capsys, "rees", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ")


class TestItohCommand:
    def test_radical(self, capsys):
        code, out, _ = run_cli(capsys, "itoh", "--rees", "2,3", "--k", "6")
        assert code == 0
        assert "radical: yes" in out

    def test_not_radical(self, capsys):
        code, out, _ = run_cli(capsys, "itoh", "--rees", "2,3", "--k", "4")
        assert code == 0
        assert "radical: no" in out
        assert "extended_ideal_exponents: [1, 3]" in out

    def test_rejects_k_one(self, capsys):
        code, _, err = run_cli(capsys, "itoh", "--rees", "2,3", "--k", "1")
        assert code == 2
        assert "root order" in err

    def test_rejects_bad_rees(self, capsys):
        code, out, err = run_cli(capsys, "itoh", "--rees", "2,x", "--k", "4")
        assert code == 2
        assert out == ""
        assert err == "error: bad Rees integer list '2,x'\n"


class TestTowerCommand:
    def test_invariants(self, capsys):
        code, out, _ = run_cli(capsys, "tower", "--e", "4", "--k", "6")
        assert code == 0
        assert "degree: 6" in out
        assert "ramification: 3" in out
        assert "residue_degree: 2" in out

    def test_oracle_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "tower", "--e", "6", "--k", "6", "--oracle")
        assert code == 0
        assert "agreement: yes" in out

    def test_oracle_at_large_k(self, capsys):
        # k = 10^12: the oracle's residue degree takes O(log k) steps
        code, out, _ = run_cli(
            capsys, "tower", "--e", "1", "--k", "1000000000000", "--oracle", "--json"
        )
        assert code == 0
        assert json.loads(out)["payload"]["agreement"] is True

    def test_rejects_zero(self, capsys):
        for e, k, name in (("0", "2", "e"), ("3", "0", "k")):
            code, out, err = run_cli(capsys, "tower", "--e", e, "--k", k, "--oracle")
            assert code == 2
            assert out == ""
            assert err == f"error: {name} must be >= 1, got 0\n"


class TestKrullCommand:
    def test_split_with_extra_dvr(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "krull", "--rees", "2,3", "--k", "1", "--family", "S", "--has-extra-dvr",
        )
        assert code == 0
        assert "decision: REALIZABLE via (2)" in out
        assert "extension_degree: 6" in out
        assert "maximal_ideal_count: 5" in out
        assert "uniform_rees_integer: 6" in out

    def test_inert_is_realizable_alone(self, capsys):
        code, out, _ = run_cli(capsys, "krull", "--rees", "2,3", "--k", "1", "--family", "T")
        assert code == 0
        assert "decision: REALIZABLE via (1)" in out

    def test_undecided_warns(self, capsys):
        code, out, err = run_cli(capsys, "krull", "--rees", "2,2", "--k", "1", "--family", "S")
        assert code == 0
        assert "decision: UNDECIDED" in out
        assert "warning" in err

    def test_algebraically_closed_caveat(self, capsys):
        code, _, err = run_cli(
            capsys,
            "krull", "--rees", "2,3", "--k", "1", "--family", "T",
            "--residues-algebraically-closed",
        )
        assert code == 0
        assert "algebraically closed" in err

    def test_unknown_family_lists_the_valid_codes(self, capsys):
        code, out, err = run_cli(capsys, "krull", "--rees", "2,3", "--k", "1", "--family", "X")
        assert code == 2
        assert out == ""
        assert err == "error: unknown system family 'X'; expected one of EXP2, S, T, U\n"

    def test_huge_k_is_rejected_up_front(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "krull", "--rees", "2,3", "--k", "1000000000", "--family", "S"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == (
            "error: realization has 5000000000 maximal ideals, above the limit of 100000\n"
        )

    def test_maximal_ideal_limit(self, capsys):
        # family S over Rees data (1,) has k maximal ideals, one line each
        code, out, _ = run_cli(
            capsys, "krull", "--rees", "1", "--k", str(MAX_MAXIMAL_IDEALS), "--family", "S"
        )
        assert code == 0
        assert f"maximal_ideal_count: {MAX_MAXIMAL_IDEALS}" in out
        code, out, err = run_cli(
            capsys, "krull", "--rees", "1", "--k", str(MAX_MAXIMAL_IDEALS + 1), "--family", "S"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: realization has 100001 maximal ideals, above the limit of 100000\n"
        )

    def test_exponent_digits_above_the_limit_are_refused_within_a_second(self, capsys):
        # family U over Rees data (16 769,) lists 16 769 exponents of 3004 digits: 50 MB
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "krull", "--rees", "16769", "--k", str(10**2999 + 7), "--family", "U"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == (
            "error: realization lists 16769 exponents of 3004 digits, "
            f"50374076 digits in all, above the limit of {MAX_EXPONENT_DIGITS}\n"
        )

    def test_exponent_digit_limit(self, capsys):
        # family U over Rees data (1000,) lists 1000 exponents of 1000 * k
        at_limit = ("krull", "--rees", "1000", "--k", str(10**1996), "--family", "U")
        code, out, _ = run_cli(capsys, *at_limit)
        assert code == 0
        assert 1000 * 2000 == MAX_EXPONENT_DIGITS
        assert "maximal_ideal_count: 1000" in out
        code, out, err = run_cli(capsys, "krull", "--rees", "1000", "--k", str(10**1997),
                                 "--family", "U")
        assert code == 2
        assert out == ""
        assert "2001000 digits in all" in err

    def test_root_family_non_uniform_warns(self, capsys):
        code, out, err = run_cli(
            capsys, "krull", "--rees", "2,3", "--k", "4", "--family", "EXP2"
        )
        assert code == 0
        assert "realization: none" in out
        assert "not uniform" in err


class TestCo2Command:
    def test_passthrough_component(self, capsys):
        code, out, _ = run_cli(capsys, "co2", "--components", "2,3;", "--e", "6")
        assert code == 0
        assert "participates: yes" in out
        assert "participates: no" in out
        assert "uniform_rees_integer: 6" in out

    def test_single(self, capsys):
        code, out, _ = run_cli(capsys, "co2", "--components", "2", "--e", "4")
        assert code == 0
        assert "uniform_rees_integer: 4" in out

    def test_two_participating_components(self, capsys):
        code, out, _ = run_cli(capsys, "co2", "--components", "2,3;1", "--e", "6")
        assert code == 0
        assert out.count("participates: yes") == 2
        assert "combined_rees_integers: [2, 3, 1]" in out

    def test_not_multiple(self, capsys):
        code, _, err = run_cli(capsys, "co2", "--components", "2,3", "--e", "4")
        assert code == 2
        assert "lcm 6" in err

    def test_rejects_zero_target(self, capsys):
        code, out, err = run_cli(capsys, "co2", "--components", "2,3", "--e", "0")
        assert code == 2
        assert out == ""
        assert err == "error: target integer must be >= 1, got 0\n"

    def test_realization_with_many_maximal_ideals_answers(self, capsys):
        # one Rees integer of 100 001 gives that many maximal ideals; co2
        # prints their count, not one line each
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "co2", "--components", "100001", "--e", "100001")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert "maximal_ideal_count: 100001" in out
        assert err == ""

    def test_rejects_bad_rees(self, capsys):
        code, out, err = run_cli(capsys, "co2", "--components", "2,x;", "--e", "6")
        assert code == 2
        assert out == ""
        assert err == "error: bad component Rees list '2,x'\n"

    @pytest.mark.parametrize("components", ["2,0", "0;"])
    def test_zero_rees_integer_is_an_input_error(self, capsys, components):
        code, out, err = run_cli(capsys, "co2", "--components", components, "--e", "6")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestClosureCommand:
    def test_two_squares(self, capsys, ideal_file):
        code, out, _ = run_cli(capsys, "closure", ideal_file(IDEAL_X2_Y2), "--k", "1")
        assert code == 0
        assert "monomials: [y^2, x*y, x^2]" in out

    def test_maximal_square(self, capsys, ideal_file):
        code, out, _ = run_cli(capsys, "closure", ideal_file(IDEAL_X_Y), "--k", "2")
        assert code == 0
        assert "closure_generators: [[0, 2], [1, 1], [2, 0]]" in out

    def test_mixed(self, capsys, ideal_file):
        code, out, _ = run_cli(capsys, "closure", ideal_file(IDEAL_X2_Y3), "--k", "1")
        assert code == 0
        assert "monomials: [y^3, x*y^2, x^2]" in out

    def test_rejects_bad_power(self, capsys, ideal_file):
        code, out, err = run_cli(capsys, "closure", ideal_file(IDEAL_X2_Y3), "--k", "0")
        assert code == 2
        assert out == ""
        assert err == "error: power must be >= 1, got 0\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_huge_k_is_rejected_up_front(self, capsys, ideal_file, json_flag):
        # (x^2, y^3) at k = 10^12: 3 * 10^12 + 1 columns
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, *json_flag, "closure", ideal_file(IDEAL_X2_Y3), "--k", "1000000000000"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == "error: closure has 3000000000001 columns, above the limit of 100000\n"


class TestOneAndThreeDimensional:
    """Golden reports for ideals that go through the double-description facets."""

    def test_rees_pure_powers_3d(self, capsys, ideal_file):
        # the one facet of (x^2, y^3, z^6) is 3x + 2y + z >= 6
        code, out, err = run_cli(capsys, "rees", ideal_file(IDEAL_X2_Y3_Z6))
        assert code == 0
        assert err == ""
        assert out == (
            "command: rees\n"
            "input:\n"
            "  dim: 3\n"
            "  generators: [[0, 0, 6], [0, 3, 0], [2, 0, 0]]\n"
            "  monomials: [z^6, y^3, x^2]\n"
            "valuations:\n"
            "  - normal: [3, 2, 1]\n"
            "    rees_integer: 6\n"
            "rees_integers: [6]\n"
            "lcm: 6\n"
        )

    def test_rees_two_valuations_3d(self, capsys, ideal_file):
        # (xy, z^2): facets 2y + z >= 2 and 2x + z >= 2
        code, out, _ = run_cli(capsys, "--json", "rees", ideal_file(IDEAL_XY_Z2))
        assert code == 0
        assert json.loads(out)["payload"] == {
            "valuations": [
                {"normal": [0, 2, 1], "rees_integer": 2},
                {"normal": [2, 0, 1], "rees_integer": 2},
            ],
            "rees_integers": [2, 2],
            "lcm": 2,
        }

    def test_closure_3d(self, capsys, ideal_file):
        # (xy, z^2)^2 is already integrally closed
        code, out, _ = run_cli(capsys, "--json", "closure", ideal_file(IDEAL_XY_Z2), "--k", "2")
        assert code == 0
        assert json.loads(out) == {
            "command": "closure",
            "input": {
                "dim": 3,
                "generators": [[0, 0, 2], [1, 1, 0]],
                "monomials": ["z^2", "x*y"],
                "k": 2,
            },
            "payload": {
                "closure_generators": [[0, 0, 4], [1, 1, 2], [2, 2, 0]],
                "monomials": ["z^4", "x*y*z^2", "x^2*y^2"],
            },
            "warnings": [],
        }
        _, text, _ = run_cli(capsys, "closure", ideal_file(IDEAL_XY_Z2), "--k", "2")
        assert "monomials: [z^4, x*y*z^2, x^2*y^2]\n" in text

    def test_one_dimensional(self, capsys, ideal_file):
        path = ideal_file(IDEAL_X3)
        code, out, _ = run_cli(capsys, "rees", path)
        assert code == 0
        assert "valuations:\n  - normal: [1]\n    rees_integer: 3\n" in out
        assert out.endswith("rees_integers: [3]\nlcm: 3\n")
        code, out, _ = run_cli(capsys, "closure", path, "--k", "2")
        assert code == 0
        assert out.endswith("closure_generators: [[6]]\nmonomials: [x^6]\n")


class TestJsonOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["itoh", "--rees", "2,3", "--k", "6"],
            ["tower", "--e", "4", "--k", "6", "--oracle"],
            ["krull", "--rees", "2,3", "--k", "1", "--family", "T"],
            ["co2", "--components", "2,3;", "--e", "6"],
        ],
    )
    def test_round_trip(self, capsys, argv):
        code, out, _ = run_cli(capsys, "--json", *argv)
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == out

    def test_no_floats_anywhere(self, capsys, ideal_file):
        code, out, _ = run_cli(capsys, "--json", "rees", ideal_file(IDEAL_X2_Y3))
        assert code == 0

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            else:
                assert not isinstance(node, float)

        walk(json.loads(out))

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "--json", "itoh", "--rees", "2,3", "--k", "6")
        _, second, _ = run_cli(capsys, "--json", "itoh", "--rees", "2,3", "--k", "6")
        assert first == second


def test_text_matches_the_golden_file(capsys, ideal_file):
    # the benchmark's golden text, keyed by command with {a} and {b}
    # standing for the two ideal files
    files = {"a": ideal_file(IDEAL_X2_Y3, "a.txt"), "b": ideal_file(IDEAL_X2_Y2, "b.txt")}
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 7
    for command, expected in golden.items():
        argv = [part.format(**files) for part in command.split(" ")]
        assert run_cli(capsys, *argv) == (0, expected, "")


def test_json_flag_after_subcommand(capsys):
    code, out, _ = run_cli(capsys, "itoh", "--rees", "2,3", "--k", "6", "--json")
    assert code == 0
    assert json.loads(out)["command"] == "itoh"


def test_oracle_disagreement_exits_three(capsys, monkeypatch):
    monkeypatch.setattr("reesval.puiseux.oracle_extension", lambda model: (1, 1, 1))
    code, _, err = run_cli(capsys, "tower", "--e", "4", "--k", "6", "--oracle")
    assert code == 3
    assert "verification failure" in err


# CPython refuses to print an int of more than 4300 digits, so a refusal
# whose message printed one used to crash with exit 1 and a traceback.
def _refuses_quickly(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    return err


def test_closure_refuses_a_column_count_too_long_to_print(capsys, ideal_file):
    path = ideal_file(f"dim 3\n{10**2500} 0 0\n0 1 0\n0 0 1\n")
    err = _refuses_quickly(capsys, "closure", path, "--k", "1")
    assert err == "error: closure has ~10^5000 columns, above the limit of 100000\n"


@pytest.mark.parametrize("text, line, what", [("dim {}\n1\n", 1, "dimension"),
                                              ("dim 2\n{} 1\n", 2, "exponent")])
def test_closure_refuses_an_integer_too_long_to_read(capsys, ideal_file, text, line, what):
    # the refusal names the token's length and the limit, and does not echo it
    limit = sys.get_int_max_str_digits()
    token = "7" * (limit + 700)
    err = _refuses_quickly(capsys, "closure", ideal_file(text.format(token)), "--k", "1")
    assert err == (
        f"error: line {line}: {what}: int value of {len(token)} characters "
        f"exceeds the {limit}-digit limit\n"
    )


@pytest.mark.parametrize("argv, what", [
    (("itoh", "--rees", "2,{}", "--k", "6"), "Rees integer"),
    (("krull", "--rees", "2,{}", "--k", "6", "--family", "S"), "Rees integer"),
    (("co2", "--components", "2,{};", "--e", "6"), "component Rees"),
])
def test_rees_list_refuses_an_integer_too_long_to_read(capsys, argv, what):
    # the refusal names the entry's length and the limit, and does not echo the list
    limit = sys.get_int_max_str_digits()
    token = "7" * (limit + 700)
    err = _refuses_quickly(capsys, *(a.format(token) for a in argv))
    assert err == (
        f"error: {what} list entry: int value of {len(token)} characters "
        f"exceeds the {limit}-digit limit\n"
    )


@pytest.mark.parametrize("argv", [
    ("itoh", "--rees", "{}", "--k", "6"),
    ("co2", "--components", "{};", "--e", "12345"),
])
def test_rees_list_of_short_integers_is_read_past_the_digit_limit(capsys, argv):
    # the limit applies to each entry, not to the list's digits in all
    entries = ",".join(["12345"] * (sys.get_int_max_str_digits() // 5 + 1))
    code, out, err = run_cli(capsys, *(a.format(entries) for a in argv))
    assert (code, err) == (0, "")


def test_co2_refuses_an_lcm_too_long_to_print(capsys):
    big = 10**900
    components = ",".join(str(big + i) for i in range(6))
    err = _refuses_quickly(capsys, "co2", "--components", components, "--e", "6")
    assert err.startswith("error: 6 is not a multiple of the overall lcm ~10^")


# Every printed integer passes through the text or JSON renderer, which
# refuses a report holding one too long for str.
@pytest.mark.parametrize("fmt", [(), ("--json",)], ids=["text", "json"])
def test_itoh_refuses_an_lcm_too_long_to_print(capsys, fmt):
    rees = ",".join(str(10**900 + i) for i in range(6))
    err = _refuses_quickly(capsys, "itoh", "--rees", rees, "--k", "2", *fmt)
    assert err == "error: the report holds an integer of ~10^5397, too long to print\n"


def test_itoh_refuses_the_lcm_of_many_integers(capsys):
    rees = ",".join(map(str, range(1, 22001)))
    err = _refuses_quickly(capsys, "itoh", "--rees", rees, "--k", "2")
    assert err == "error: the report holds an integer of ~10^9548, too long to print\n"


def test_krull_refuses_a_degree_too_long_to_print(capsys):
    argv = ("--rees", str(10**3000 + 1), "--k", str(10**3000), "--family", "T")
    err = _refuses_quickly(capsys, "krull", *argv)
    assert err == "error: the report holds an integer of ~10^6000, too long to print\n"


def test_krull_warning_of_a_degree_too_long_to_print_refuses(capsys):
    # the algebraically-closed caveat names the ~6000-digit residue degree
    argv = ("--rees", str(10**3000 + 1), "--k", str(10**3000), "--family", "T",
            "--residues-algebraically-closed")
    err = _refuses_quickly(capsys, "krull", *argv)
    assert err == "error: the report holds an integer of ~10^6000, too long to print\n"


# P and Q are coprime to 10, so at k = 10^4000 each Rees integer's
# ramification is k itself and its exponent P*k or Q*k has 6001 digits.
_P, _Q, _K = 10**2000 + 1, 10**2000 + 3, 10**4000


def test_krull_refuses_a_maximal_ideal_count_too_long_to_print(capsys):
    argv = ("--rees", f"{_P},{_Q}", "--k", str(_K), "--family", "S")
    err = _refuses_quickly(capsys, "krull", *argv)
    assert err == "error: realization has ~10^6000 maximal ideals, above the limit of 100000\n"


def test_krull_root_family_with_exponents_too_long_to_print_answers(capsys):
    # the non-uniform exponents went into a message that str could not
    # print; every integer of the report itself has at most 4001 digits
    start = time.perf_counter()
    argv = ("--rees", f"{_P},{_Q}", "--k", str(_K), "--family", "EXP2")
    code, out, err = run_cli(capsys, "krull", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "realization: none\n" in out
    assert err == "warning: extended ideal exponents are not uniform; realization report omitted\n"


def test_rees_refuses_a_rees_integer_too_long_to_print(capsys, ideal_file):
    path = ideal_file(f"dim 2\n{10**3000} 0\n0 {10**3000 + 1}\n")
    err = _refuses_quickly(capsys, "rees", path)
    assert err == "error: the report holds an integer of ~10^6000, too long to print\n"


def test_console_entry_point(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text(IDEAL_X2_Y3)
    proc = subprocess.run(
        [sys.executable, "-m", "reesval.cli", "rees", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "lcm: 6" in proc.stdout


def test_unknown_flag_exits_two():
    proc = subprocess.run(
        [sys.executable, "-m", "reesval.cli", "tower", "--bogus"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


# The robustness contract: on any argv and any ideal file, main returns
# within a second, never raises, answers (0) or refuses (2 for bad input,
# 3 for a failed cross-check), and prints nothing on stdout unless it
# answers.  Integers reach 10^12 and exponents 10^9; small values keep the
# computing paths busy, and repeated branches make well-formed flags twice
# as likely as text.  Huge values pass the 4300 digits that str prints:
# k and e up to 10^3000 and past 10^4400 (which int() refuses to read),
# short lists of consecutive integers up to 10^3000, whose lcm has more
# digits, and exponents up to 10^3000.
_INTEGER = st.one_of(st.integers(-3, 40), st.integers(-3, 10**12))
_HUGE = st.one_of(
    st.integers(1, 10**3000).map(str),
    # past 4300 digits, so written without str
    st.builds(lambda head, zeros: f"{head}{'0' * zeros}", st.integers(1, 10**6), st.integers(4300, 4400)),
)
_FLAG = st.one_of(_INTEGER.map(str), st.integers(1, 40).map(str), st.text(max_size=8), _HUGE)
_REES_LIST = st.lists(_INTEGER, min_size=1, max_size=6).map(lambda xs: ",".join(map(str, xs)))
_CONSECUTIVE = st.builds(
    lambda start, n: ",".join(str(start + i) for i in range(n)),
    st.integers(10**500, 10**3000), st.integers(2, 6),
)
_REES = st.one_of(_REES_LIST, _REES_LIST, st.text(max_size=12), _CONSECUTIVE)
_EXPONENT = st.one_of(st.integers(0, 8), st.integers(0, 10**9), st.integers(0, 10**3000))


@st.composite
def _ideal_bytes(draw):
    dim = draw(st.integers(1, 3))
    gens = draw(st.lists(st.lists(_EXPONENT, min_size=dim, max_size=dim), min_size=1, max_size=8))
    return (f"dim {dim}\n" + "".join(" ".join(map(str, g)) + "\n" for g in gens)).encode()


@st.composite
def _cli_calls(draw):
    """An argv for one of the six subcommands, and the ideal file's bytes or None."""
    command = draw(st.sampled_from(["rees", "closure", "itoh", "tower", "krull", "co2"]))
    data = None
    if command in ("rees", "closure"):
        data = draw(st.one_of(_ideal_bytes(), st.binary(max_size=64)))
        argv = [command, "IDEAL"]
        if command == "closure":
            argv += ["--k", draw(_FLAG)]
    elif command == "itoh":
        argv = ["itoh", "--rees", draw(_REES), "--k", draw(_FLAG)]
    elif command == "tower":
        argv = ["tower", "--e", draw(_FLAG), "--k", draw(_FLAG)]
        argv += draw(st.sampled_from([[], ["--oracle"]]))
    elif command == "krull":
        family = draw(st.sampled_from(["S", "T", "U", "EXP2", "X", ""]))
        argv = ["krull", "--rees", draw(_REES), "--k", draw(_FLAG), "--family", family]
        argv += draw(st.lists(st.sampled_from([
            "--has-extra-dvr", "--has-separable-approximation", "--residues-algebraically-closed"
        ]), unique=True))
    else:
        segments = st.lists(st.one_of(st.just(""), _REES), min_size=1, max_size=4)
        # a highly composite e is often a multiple of the lcm, so plans are built
        e = draw(st.one_of(_FLAG, st.sampled_from(["2520", "720720", "6983776800"])))
        argv = ["co2", "--components", ";".join(draw(segments)), "--e", e]
    if draw(st.booleans()):
        argv.insert(0, "--json")
    return argv, data


@settings(deadline=None, max_examples=300)
@given(call=_cli_calls())
# a 1D closure whose one exponent is past the 4300 digits str prints
@example(call=(["closure", "IDEAL", "--k", str(10**2000 + 3)], f"dim 1\n{10**3000 + 7}\n".encode()))
def test_main_answers_or_refuses_within_a_second(tmp_path_factory, call):
    argv, data = call
    if data is not None:
        path = tmp_path_factory.getbasetemp() / "robust_ideal.txt"
        path.write_bytes(data)
        argv = [str(path) if arg == "IDEAL" else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 1.0, argv
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code:
        assert out.getvalue() == "", argv
