"""Command-line behavior: outputs, exit codes, round trips, determinism."""

import json

import pytest

from freeinv import parse_poly
from freeinv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invert_positive(capsys):
    code, out, _ = run_cli(capsys, "invert", "-g", "2", "x1", "x2 - x1^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "inverse"
    assert data["q"] == ["x1", "x2 + x1^2"]


def test_invert_negative_rigorous(capsys):
    code, out, _ = run_cli(
        capsys, "invert", "-g", "2", "x1", "x2 - x1*x2*x1", "--rigorous", "--json"
    )
    assert code == 1
    data = json.loads(out)
    assert data["outcome"] == "not-injective"
    assert data["reason"] == "degree-exceeded"


def test_jacobian_display(capsys):
    code, out, _ = run_cli(capsys, "jacobian", "-g", "2", "x1", "x2 - x1*x2*x1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["jacobian"] == [["1", "-x2*x1"], ["0", "1"]]


def test_check_injective_rigorous_agrees_with_invert(capsys):
    cases = [
        (["x1", "x2 - x1^2"], 0),
        (["x2", "x1 + x2"], 0),
        (["x1 + x2^2", "x2 + x1^2 + x1*x2^2 + x2^2*x1 + x2^4"], 0),
        (["x1", "x2 - x1*x2*x1"], 1),
    ]
    for polys, expected in cases:
        code_i, _, _ = run_cli(capsys, "invert", "-g", "2", *polys, "--rigorous")
        code_c, _, _ = run_cli(capsys, "check-injective", "-g", "2", *polys, "--rigorous")
        assert code_i == code_c == expected


def test_input_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "invert", "-g", "2", "x1 + @", "x2")
    assert code == 2
    assert "col" in err
    code, _, err = run_cli(capsys, "invert", "-g", "2", "x1", "x3")
    assert code == 2
    assert "x3" in err  # names the offending letter


def test_eval_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval",
        "-g",
        "2",
        "x1*x2 - x2*x1",
        "--at",
        '[[["0","1"],["0","0"]],[["1","0"],["0","2"]]]',
    )
    assert code == 0
    assert json.loads(out) == [["0", "1"], ["0", "0"]]


def test_eval_reads_the_point_from_a_file(tmp_path, capsys):
    point = '[[["0","1"],["0","0"]],[["1","0"],["0","2"]]]'
    at_file = tmp_path / "point.json"
    at_file.write_text(point)
    code, from_file, _ = run_cli(capsys, "eval", "-g", "2", "x1*x2", "x2 - x1", "--at-file", str(at_file))
    assert code == 0
    code, inline, _ = run_cli(capsys, "eval", "-g", "2", "x1*x2", "x2 - x1", "--at", point)
    assert code == 0 and from_file and from_file == inline


def test_verify_command(capsys):
    code, _, _ = run_cli(
        capsys, "verify", "-g", "2", "--p", "x1", "x2 - x1^2", "--q", "x1", "x2 + x1^2"
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "verify", "-g", "2", "--p", "x1", "x2 - x1^2", "--q", "x1", "x2 - x1^2"
    )
    assert code == 1


def test_solve_system_command(capsys):
    code, out, _ = run_cli(
        capsys, "solve-system", "x1", "x2 + x1*z2*z1", "--trunc", "7", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["solution"][1].startswith("x2 + x1*x2*x1")


def test_round_trip_via_cli_strings(capsys):
    source = "x2 - x1*x2*x1"
    code, out, _ = run_cli(capsys, "derive", "-g", "2", source, "--json")
    assert code == 0
    # formatting then parsing the derivative is stable
    from freeinv import format_poly, parse_poly

    d = json.loads(out)["derivative"][0]
    assert format_poly(parse_poly(d)) == d


def test_determinism(capsys):
    args = ["invert", "-g", "2", "x1", "x2 - x1^2", "--json"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "invert", "-g", "2", "x1", "x2 - x1^2", "--json", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["outcome"] == "inverse"


def test_hypojac_command(capsys):
    code, out, _ = run_cli(capsys, "hypojac", "-g", "2", "x1", "x2 - x1^2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["hypo_jacobian"][0][1] == "-1 (x) y1 - y1 (x) 1"


def test_scion_command(capsys):
    code, out, _ = run_cli(capsys, "scion", "-g", "2", "x1", "x2 - x1^2", "--json")
    assert code == 0
    assert json.loads(out)["scion"] == ["x1", "x2 - x1*y1 - y1*x1", "y1", "y2"]


def exit_code(argv):
    """Exit code of the CLI, including argparse's own exit on rejected options."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


SELF_MAP_COUNT_CASES = [
    ["invert", "-g", "2", "x1"],
    ["check-injective", "-g", "3", "x1", "x2"],
    ["aux-iterate", "-g", "3", "x1", "x2", "-k", "1"],
    ["hypojac", "-g", "1", "x1", "x1"],
    ["scion", "-g", "3", "x1", "x2"],
    ["verify", "-g", "3", "--p", "x1", "x2", "--q", "x1", "x2"],
    ["verify", "-g", "2", "--p", "x1", "x2", "--q", "x1"],
]


def test_self_map_component_count_must_equal_g(capsys):
    for argv in SELF_MAP_COUNT_CASES:
        assert exit_code(argv) == 2, argv
        assert "components" in capsys.readouterr().err
    # derive and eval take -g as the alphabet size, not the component count
    assert exit_code(["derive", "-g", "2", "x1*x2"]) == 0
    assert exit_code(["eval", "-g", "2", "x1*x2", "--at", '[[["1"]],[["2"]]]']) == 0


NUMERIC_INPUT_CASES = [
    (["invert", "-g", "2", "x1", "x2 - x1^2", "--cap", "-5"], 2),
    (["invert", "-g", "2", "x1", "x2 - x1^2", "--max-terms", "-3"], 2),
    (["check-injective", "-g", "2", "x1", "x2 - x1^2", "--cap", "-1"], 2),
    (["check-injective", "-g", "2", "x1", "x2 - x1^2", "--max-terms", "-1"], 2),
    (["aux-iterate", "-g", "2", "x1", "x2 - x1*x2*x1", "-k", "0"], 2),
    (["aux-iterate", "-g", "2", "x1", "x2 - x1*x2*x1", "-k", "2", "--trunc", "0"], 2),
    (["aux-iterate", "-g", "2", "x1", "x2 - x1*x2*x1", "-k", "2", "--max-terms", "-1"], 2),
    (["solve-system", "x1", "x2 + x1*z2*z1", "--trunc", "0"], 2),
    (["invert", "-g", "2", "x1", "x2", "--cap", "two"], 2),
    (["eval", "-g", "1", "x1", "--at", "[[1]]"], 2),
    (["eval", "-g", "1", "x1", "--at", "[1]"], 2),
    (["eval", "-g", "1", "x1", "--at", '[[["1/0"]]]'], 2),
    # a bad entry, a JSON float and a JSON boolean in a matrix tuple
    (["eval", "-g", "1", "x1", "--at", '[[["1", "2"], ["3", "1/0"]]]'], 2),
    (["eval", "-g", "1", "x1", "--at", '[[["1", "2"], ["3", "4$"]]]'], 2),
    (["eval", "-g", "1", "x1", "--at", "[[[1.5]]]"], 2),
    (["eval", "-g", "1", "x1", "--at", "[[[false]]]"], 2),
    (["invert", "-g", "1", "1/0*x1"], 2),
    # a letter index past the word codec's range, and a `*` with nothing after it
    (["invert", "-g", "1", "x200000"], 2),
    (["derive", "-g", "1", "x1 + 2*"], 2),
    # a word too long to build, and an exponent too long for int()
    (["derive", "-g", "1", "x1^100000000"], 2),
    (["derive", "-g", "1", "x1^" + "9" * 5000], 2),
    # a coefficient or matrix entry longer than int() reads (4,300 digits)
    (["derive", "-g", "1", "9" * 5000 + "*x1"], 2),
    (["eval", "-g", "1", "x1", "--at", '[[["' + "9" * 5000 + '"]]]'], 2),
    # a system with a z-linear term is not proper
    (["solve-system", "z1"], 2),
    # a map with a constant term, a Jacobian that is not invertible, a
    # clipped negative, and eval without a point or with too few matrices
    (["aux-iterate", "-g", "2", "-k", "2", "x1 + 1", "x2"], 2),
    (["aux-iterate", "-g", "2", "-k", "2", "x1 - x1^2", "x2"], 1),
    (["check-injective", "-g", "2", "--cap", "4", "x1", "x2 - x1*x2*x1"], 3),
    (["eval", "-g", "2", "x1", "x2"], 2),
    (["eval", "-g", "2", "x1", "x2", "--at", '[[["1"]]]'], 2),
    # the smallest accepted values still run
    (["invert", "-g", "2", "x1", "x2 - x1^2", "--max-terms", "0"], 0),
    (["invert", "-g", "2", "x1", "x2 - x1*x2*x1", "--cap", "0"], 3),
    (["aux-iterate", "-g", "2", "x1", "x2 - x1*x2*x1", "-k", "1", "--trunc", "1"], 0),
    (["solve-system", "x1", "x2 + x1*z2*z1", "--trunc", "1"], 0),
]


def test_numeric_and_shape_input_exit_codes(capsys):
    for argv, expected in NUMERIC_INPUT_CASES:
        assert exit_code(argv) == expected, argv
        err = capsys.readouterr().err
        if expected == 2:
            assert "error" in err and "Traceback" not in err, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "-g", "0", "--p", "x1", "--q", "x1"],
        ["verify", "-g", "-1", "--p", "x1", "--q", "x1"],
        ["invert", "-g", "0", "x1"],
        ["derive", "-g", "0", "x1"],
    ],
)
def test_g_below_one_is_rejected_as_an_option(capsys, argv):
    # rejected by the option's own check, before any component is read
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "argument -g: must be >= 1" in err and "components" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["invert", "-g", "2", "x1", "x2"],
        ["jacobian", "-g", "2", "x1", "x2"],
        ["aux-iterate", "-g", "2", "x1", "x2", "-k", "1"],
        ["solve-system", "x1 + x1*z1*z1"],
        ["derive", "-g", "2", "x1*x2"],
        ["scion", "-g", "2", "x1", "x2"],
        ["hypojac", "-g", "2", "x1", "x2"],
        ["check-injective", "-g", "2", "x1", "x2"],
        ["eval", "-g", "1", "x1", "--at", '[[["1"]]]'],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_is_an_option_of_verify_only(capsys, argv):
    # only `verify --float` samples a point; every other subcommand runs
    # without the option and rejects it
    assert exit_code(argv) == 0
    assert exit_code([*argv, "--seed", "5"]) == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_aux_iterate_term_budget_is_indeterminate(capsys):
    # the budget cuts the Jacobian gate short: no verdict, so exit 3, not 1
    code, out, err = run_cli(
        capsys, "aux-iterate", "-g", "2", "-k", "3", "--trunc", "6", "--max-terms", "2",
        "x1", "x2 - x1*x2*x1",
    )
    assert code == 3
    assert out == ""
    assert "term budget" in err and "not polynomially invertible" not in err
    # without the budget the gate passes and the iterate is printed
    code, out, _ = run_cli(capsys, "aux-iterate", "-g", "2", "-k", "3", "--trunc", "6",
                           "x1", "x2 - x1*x2*x1")
    assert code == 0 and out.startswith("k = 3")


def test_aux_iterate_certified_negative_is_a_verdict(capsys):
    # the Jacobian of (x1 - x1^2, x2) has no polynomial inverse: the verdict
    # of `invert`, on stdout and with exit 1, not an error line
    argv = ("aux-iterate", "-g", "2", "-k", "2", "x1 - x1^2", "x2")
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"outcome": "not-injective", "reason": "jacobian-not-poly-invertible"}
    assert run_cli(capsys, *argv) == (1, "outcome: not-injective\nreason: jacobian-not-poly-invertible\n", "")
    assert run_cli(capsys, "invert", "-g", "2", "--rigorous", "--json", "x1 - x1^2", "x2")[1] == out


def test_aux_iterate_term_budget_bounds_the_iteration(capsys):
    # NILPOTENT passes the Jacobian gate; its iterates then double in size
    nilpotent = ("x1 + x1^2 + x2*x1", "x2 - x1^2 - x2*x1")
    argv = ("aux-iterate", "-g", "2", "-k", "12", "--trunc", "24")
    code, out, err = run_cli(capsys, *argv, "--max-terms", "100", *nilpotent)
    assert code == 3
    assert out == ""
    assert "--max-terms 100" in err and "iterate" in err
    # a budget the iterates fit in changes nothing
    code, out, _ = run_cli(capsys, "aux-iterate", "-g", "2", "-k", "3", "--trunc", "6",
                           "--max-terms", "40", *nilpotent)
    unbounded = run_cli(capsys, "aux-iterate", "-g", "2", "-k", "3", "--trunc", "6",
                        "--max-terms", "0", *nilpotent)
    assert (code, out) == unbounded[:2] and code == 0


def test_aux_iterate_far_under_the_default_budget(capsys):
    # the sandwich's iterate k has k + 3 words, the head words x1^j x3 x1^j
    # for j < k among them; the default budget (200,000) reads the size of
    # every iterate on the way to the 2,000th
    sandwich = ("x1", "x2", "x3 - x1*x3*x1")
    argv = ("aux-iterate", "-g", "3", "-k", "2000", "--trunc", "34996")
    code, out, err = run_cli(capsys, *argv, "--json", *sandwich)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["k"], data["floor"]) == (2000, 4001)
    assert [len(parse_poly(s)) for s in data["head"]] == [1, 1, 2000]
    assert data["tail"] == ["0", "0", "x1^2000*z3*z1*x1^1999"]
    # a budget one word short of iterate 2,000 stops the run there
    code, out, err = run_cli(capsys, *argv, "--max-terms", "2002", *sandwich)
    assert (code, out) == (3, "") and "at iterate 2000" in err


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    from freeinv import inverter

    def broken(*args, **kwargs):
        raise ValueError("internal defect")

    monkeypatch.setattr(inverter, "invert", broken)
    with pytest.raises(ValueError, match="internal defect"):
        main(["invert", "-g", "2", "x1", "x2"])


def test_unreadable_or_unwritable_file_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    cases = [
        ["eval", "-g", "1", "x1", "--at-file", str(missing)],
        # a directory cannot be opened as the output file
        ["invert", "-g", "2", "x1", "x2 - x1^2", "--out", str(tmp_path)],
        ["invert", "-g", "2", "x1", "x2 - x1^2", "--out", str(missing / "out.json")],
    ]
    for argv in cases:
        assert exit_code(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_internal_error_exits_4_with_traceback(monkeypatch, capsys):
    from freeinv import inverter
    from freeinv.cli import run

    def broken(*args, **kwargs):
        raise ValueError("internal defect")

    monkeypatch.setattr(inverter, "invert", broken)
    assert run(["invert", "-g", "2", "x1", "x2"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: internal defect" in err
    # input errors and verdicts keep their own codes through the same entry point
    assert run(["invert", "-g", "2", "x1"]) == 2
    assert run(["verify", "-g", "1", "--p", "x1", "--q", "2*x1"]) == 1


def test_out_of_memory_exits_4_with_one_line(monkeypatch, capsys):
    # exit 1 is the "not injective" verdict: running out of memory must not
    # reach it, and prints one fixed line rather than a traceback
    from freeinv import sysolve
    from freeinv.cli import run

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(sysolve, "iterates", exhausted)
    assert run(["aux-iterate", "-g", "2", "-k", "8", "x1", "x2 + x1^2"]) == 4
    assert capsys.readouterr().err == "error: out of memory\n"


def test_library_unbound_letter_is_an_internal_error(monkeypatch, capsys):
    # every command checks the alphabet first, so no input reaches this
    from freeinv import UnboundLetter, deriv
    from freeinv.cli import run

    def broken(*args, **kwargs):
        raise UnboundLetter("no substitution image for letter z1")

    monkeypatch.setattr(deriv, "derivative_map", broken)
    assert run(["derive", "-g", "1", "x1"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "UnboundLetter" in err


def test_module_entry_point_exit_codes(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def run_module(code):
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, cwd=tmp_path, timeout=60)

    missing = run_module(
        "import runpy, sys; sys.argv = ['freeinv', 'eval', '-g', '1', 'x1', '--at-file', 'missing'];"
        " runpy.run_module('freeinv', run_name='__main__')"
    )
    assert missing.returncode == 2 and missing.stderr.startswith("error: ")
    defect = run_module(
        "import runpy, sys; from freeinv import inverter\n"
        "def broken(*a, **k): raise RuntimeError('internal defect')\n"
        "inverter.invert = broken; sys.argv = ['freeinv', 'invert', '-g', '1', 'x1']\n"
        "runpy.run_module('freeinv', run_name='__main__')"
    )
    assert defect.returncode == 4
    assert "Traceback" in defect.stderr and "RuntimeError: internal defect" in defect.stderr


POINT = '[[["1","2"],["3","4"]],[["0","1"],["1","0"]]]'


def test_eval_float_at_an_integer_point(capsys):
    code, out, _ = run_cli(capsys, "eval", "-g", "2", "x1*x2 - x2", "3*x1^2 + i", "--float", "--at", POINT)
    assert code == 0
    assert out == '[["2.0", "0.0"], ["3.0", "3.0"]]\n[["(21+1j)", "30.0"], ["45.0", "(66+1j)"]]\n'
    code, out, _ = run_cli(capsys, "eval", "-g", "2", "x1*x2 - x2", "--float", "--json", "--at", POINT)
    assert code == 0
    assert json.loads(out) == {"values": [[["2.0", "0.0"], ["3.0", "3.0"]]]}


def test_eval_float_rounds_the_exact_value(capsys):
    # x1^2 + x1*x2 at these thirds and sevenths is [[52/147, 86/315], [1/7, 10/9]]
    point = '[[["1/3","1/7"],["0","1"]],[["2/3","1/5"],["1/7","1/9"]]]'
    code, out, _ = run_cli(capsys, "eval", "-g", "2", "x1^2 + x1*x2", "i*x1", "--float", "--at", point)
    assert code == 0
    first, second = map(json.loads, out.splitlines())
    assert first == [[repr(52 / 147), repr(86 / 315)], [repr(1 / 7), repr(10 / 9)]]
    assert second == [[repr(1j / 3), repr(1j / 7)], ["0.0", "1j"]]


def test_eval_float_keeps_a_tiny_imaginary_part(capsys):
    code, out, _ = run_cli(capsys, "eval", "-g", "1", "x1", "--at", '[[["1+1/10000000000000i"]]]', "--float")
    assert code == 0
    assert json.loads(out) == [["(1+1e-13j)"]]


def test_verify_float_on_a_true_pair(capsys):
    pairs = [
        ("--p", "x1", "x2 + x1^2", "--q", "x1", "x2 - x1^2"),
        # thirds are not floats: only an exact evaluation gives residual 0.0
        ("--p", "x1 + 1/3*x2^2", "x2", "--q", "x1 - 1/3*x2^2", "x2"),
    ]
    for seed in ("0", "5"):
        for pair in pairs:
            code, out, _ = run_cli(capsys, "verify", "-g", "2", "--float", "--json", "--seed", seed, *pair)
            assert code == 0
            assert json.loads(out) == {"inverse_pair": True, "sampled_residual": 0.0}


def test_verify_float_on_a_false_pair(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "-g", "2", "--float", "--seed", "3",
        "--p", "x1", "x2 + x1^2", "--q", "x1", "x2 + x1^2",
    )
    assert code == 1
    assert out == "inverse pair (sampled, tol 1e-9): False\n"
    code, out, _ = run_cli(
        capsys, "verify", "-g", "2", "--float", "--json", "--seed", "3",
        "--p", "x1", "x2 + x1^2", "--q", "x1", "x2 + x1^2",
    )
    assert code == 1
    assert json.loads(out) == {"inverse_pair": False, "sampled_residual": 10.0}


# The exact stdout and exit code of every subcommand, as text and with --json.
GOLDEN = [
    (
        ["invert", "-g", "2", "x1", "x2 - x1^2"], 0,
        "outcome: inverse\nq1 = x1\nq2 = x2 + x1^2\niterations: 2\n",
        '{"bound_B": 73, "cap_used": 8, "iterations": 2, "outcome": "inverse", "q": ["x1", "x2 + x1^2"]}\n',
    ),
    (
        ["invert", "-g", "2", "x1", "x2 - x1*x2*x1", "--rigorous"], 1,
        "outcome: not-injective\nreason: degree-exceeded\n",
        '{"bound_B": 145, "cap_used": 436, "iterations": 74, "outcome": "not-injective",'
        ' "reason": "degree-exceeded"}\n',
    ),
    (
        ["invert", "-g", "2", "x1", "x2 - x1*x2*x1", "--cap", "4"], 3,
        "outcome: indeterminate\nreason: cap-exceeded\n",
        '{"bound_B": 145, "cap_used": 4, "iterations": 2, "outcome": "indeterminate", "reason": "cap-exceeded"}\n',
    ),
    (
        ["jacobian", "-g", "3", "x1 + 2 + x3", "x2*x1 - i*x3"], 0,
        "constant: ['2', '0']\n[1, 0]\n[0, x1]\n[1, -i]\n",
        '{"constant": ["2", "0"], "jacobian": [["1", "0"], ["0", "x1"], ["1", "-i"]]}\n',
    ),
    (
        ["aux-iterate", "-g", "2", "x1", "x2 - x1*x2*x1", "-k", "3", "--trunc", "25"], 0,
        "k = 3\nfloor = 7\nhead1 = x1\nhead2 = x2 + x1*x2*x1 + x1^2*x2*x1^2\ntail1 = 0\ntail2 = x1^3*z2*z1*x1^2\n",
        '{"floor": 7, "head": ["x1", "x2 + x1*x2*x1 + x1^2*x2*x1^2"], "k": 3, "tail": ["0", "x1^3*z2*z1*x1^2"]}\n',
    ),
    (
        ["aux-iterate", "-g", "2", "x1", "x2 - x1^2", "-k", "1", "--trunc", "1"], 0,
        "k = 1\nfloor = >1\nhead1 = x1\nhead2 = x2\ntail1 = 0\ntail2 = 0\n",
        '{"floor": ">1", "head": ["x1", "x2"], "k": 1, "tail": ["0", "0"]}\n',
    ),
    (
        ["solve-system", "x1", "x2 + x1*z2*z1", "--trunc", "7"], 0,
        "s1 = x1\ns2 = x2 + x1*x2*x1 + x1^2*x2*x1^2 + x1^3*x2*x1^3\n",
        '{"solution": ["x1", "x2 + x1*x2*x1 + x1^2*x2*x1^2 + x1^3*x2*x1^3"]}\n',
    ),
    (
        ["derive", "-g", "2", "x2 - x1*x2*x1", "x1^3"], 0,
        "D1 = y2 - x1*x2*y1 - x1*y2*x1 - y1*x2*x1\nD2 = x1^2*y1 + x1*y1*x1 + y1*x1^2\n",
        '{"derivative": ["y2 - x1*x2*y1 - x1*y2*x1 - y1*x2*x1", "x1^2*y1 + x1*y1*x1 + y1*x1^2"]}\n',
    ),
    (
        ["scion", "-g", "2", "x1", "x2 - x1^2"], 0,
        "F1 = x1\nF2 = x2 - x1*y1 - y1*x1\nF3 = y1\nF4 = y2\n",
        '{"scion": ["x1", "x2 - x1*y1 - y1*x1", "y1", "y2"]}\n',
    ),
    (
        ["hypojac", "-g", "2", "x1 - 2*x1^2", "x2"], 0,
        "[1 (x) 1 - 2*1 (x) y1 - 2*y1 (x) 1, 0]\n[0, 1 (x) 1]\n",
        '{"hypo_jacobian": [["1 (x) 1 - 2*1 (x) y1 - 2*y1 (x) 1", "0"], ["0", "1 (x) 1"]]}\n',
    ),
    (
        ["check-injective", "-g", "2", "x1", "x2 - x1^2", "--rigorous"], 0,
        "status: injective (cap 72)\n",
        '{"cap_used": 72, "certified": true, "inverse": [["1 (x) 1", "1 (x) y1 + y1 (x) 1"], ["0", "1 (x) 1"]],'
        ' "status": "injective"}\n',
    ),
    (
        ["check-injective", "-g", "2", "x1", "x2 - x1*x2*x1", "--rigorous"], 1,
        "status: not-injective (cap 144)\n",
        '{"cap_used": 144, "certified": true, "status": "not-injective"}\n',
    ),
    (
        ["check-injective", "-g", "2", "--cap", "4", "x1", "x2 - x1*x2*x1"], 3,
        "status: indeterminate (cap 4)\n",
        '{"cap_used": 4, "certified": false, "status": "indeterminate"}\n',
    ),
    (
        ["eval", "-g", "2", "x1*x2 - x2", "3*x1^2 + i", "--at", POINT], 0,
        '[["2", "0"], ["3", "3"]]\n[["21+i", "30"], ["45", "66+i"]]\n',
        '{"values": [[["2", "0"], ["3", "3"]], [["21+i", "30"], ["45", "66+i"]]]}\n',
    ),
    (
        ["verify", "-g", "2", "--p", "x1", "x2 - x1^2", "--q", "x1", "x2 + x1^2"], 0,
        "inverse pair: True\n",
        '{"inverse_pair": true}\n',
    ),
    (
        ["verify", "-g", "2", "--p", "x1", "x2 - x1^2", "--q", "x1", "x2 - x1^2"], 1,
        "inverse pair: False\n",
        '{"inverse_pair": false}\n',
    ),
]


@pytest.mark.parametrize("argv, code, text, as_json", GOLDEN, ids=[row[0][0] for row in GOLDEN])
def test_golden_output(capsys, argv, code, text, as_json):
    assert run_cli(capsys, *argv) == (code, text, "")
    assert run_cli(capsys, *argv, "--json") == (code, as_json, "")


def test_every_subcommand_has_a_golden_row():
    assert {argv[0] for argv, *_ in GOLDEN} == {
        "invert", "jacobian", "aux-iterate", "solve-system", "derive",
        "scion", "hypojac", "check-injective", "eval", "verify",
    }
