"""Command-line behavior: outputs, exit codes, round trips, determinism."""

import json

import pytest

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
    args = ["invert", "-g", "2", "x1", "x2 - x1^2", "--json", "--seed", "5"]
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
    (["invert", "-g", "1", "1/0*x1"], 2),
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


def test_internal_value_error_is_not_an_input_error(monkeypatch):
    from freeinv import inverter

    def broken(*args, **kwargs):
        raise ValueError("internal defect")

    monkeypatch.setattr(inverter, "invert", broken)
    with pytest.raises(ValueError, match="internal defect"):
        main(["invert", "-g", "2", "x1", "x2"])
