import json

import numpy as np
import pytest

from codescent import DCForm, Degenerate, NoConvergence, evaluate, worked_example
from codescent import cli
from codescent.cli import main
from codescent.oracle import LPOutcome

UNBOUNDED = '{"d": 1, "plus": [{"a": 0, "v": [1]}], "minus": [{"b": 0, "w": [0]}]}'
# f = max(x, 2x): convex, one piece, unbounded below
CONVEX_UNBOUNDED = (
    '{"d": 1, "plus": [{"a": 0, "v": [1]}, {"a": 0, "v": [2]}], "minus": [{"b": 0, "w": [0]}]}'
)
# f = min(0, 1 + x): unbounded below, though every offset at x = 0 is >= 0
MIN_ZERO_SHIFTED_LINE = (
    '{"d": 1, "plus": [{"a": 0, "v": [0]}], "minus": [{"b": 0, "w": [0]}, {"b": 1, "w": [1]}]}'
)


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(worked_example().to_json())
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_then_solve_roundtrip(tmp_path, capsys):
    prob = tmp_path / "p.json"
    code, _ = run_cli(capsys, "generate", "--generate", "2,5,3,9", "--out", str(prob))
    assert code == 0
    f = DCForm.from_json(prob.read_text())
    assert f.d == 2 and f.plus.shape == (5, 3) and f.minus.shape == (3, 3)

    code, out = run_cli(capsys, "solve", "--problem", str(prob), "--method", "mgcd", "--x0", "2,-1")
    assert code == 0
    result = json.loads(out)
    assert result["status"] == "global_min"
    assert result["oracle_verified"] is True
    # trace round trip: logged f values match re-evaluation at the iterates
    for rec in result["trace"]["records"]:
        assert evaluate(f, np.array(rec["x"])) == pytest.approx(rec["f"], abs=1e-12)


def test_solve_example_all_methods(example_file, capsys):
    for method, expect in (("mgcd", 0), ("mcd", 0)):
        code, out = run_cli(capsys, "solve", "--problem", example_file, "--method", method, "--x0", "2,2")
        assert code == expect
        result = json.loads(out)
        assert result["final_f"] == pytest.approx(0.0, abs=1e-9)


def test_solve_method_mhd_is_rejected(example_file, capsys):
    # MHD is a library method for ConvexFn objectives; on a convex DCForm
    # the CLI's path is --method mcd
    code = main(["solve", "--problem", example_file, "--method", "mhd"])
    assert code == cli.EXIT_INPUT == 4
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert "invalid choice: 'mhd'" in last and "'mcd', 'mgcd'" in last


# On a convex DCForm, hypodifferential descent with an exact line search is
# MCD with mu = inf, so the three solve_mhd cases below run --method mcd.


def test_solve_mhd_convex_generated(capsys):
    # the default tol is relative to the data: at 1e-10 an absolute 1e-8
    # would accept x0, where every projection is shorter than that
    argv = ["solve", "--generate", "2,4,1,11", "--method", "mcd", "--x0", "3,3"]
    for c in (1e-10, 1.0, 1e6):
        code, out = run_cli(capsys, *argv, "--scale", str(c))
        assert code == 0
        result = json.loads(out)
        assert result["status"] == "global_min"
        assert result["oracle_verified"] is True
        assert result["n_steps"] == 2
        assert result["final_f"] / c == pytest.approx(3.125, rel=1e-12)


def test_solve_mhd_zero_function(tmp_path, capsys):
    # f = 0 has a zero data scale; its zero certificate still stops the run
    prob = tmp_path / "zero.json"
    prob.write_text('{"d": 1, "plus": [{"a": 0, "v": [0]}], "minus": [{"b": 0, "w": [0]}]}')
    code, out = run_cli(capsys, "solve", "--problem", str(prob), "--method", "mcd")
    assert code == 0
    assert json.loads(out)["n_steps"] == 0


def test_solve_unbounded_exit_code(tmp_path, capsys):
    prob = tmp_path / "u.json"
    prob.write_text(UNBOUNDED)
    code, out = run_cli(capsys, "solve", "--problem", str(prob))
    assert code == 2
    assert json.loads(out)["status"] == "unbounded_below"


def test_solve_mhd_unbounded(tmp_path, capsys):
    prob = tmp_path / "u.json"
    prob.write_text(CONVEX_UNBOUNDED)
    code, out = run_cli(capsys, "solve", "--problem", str(prob), "--method", "mcd")
    assert code == cli.EXIT_UNBOUNDED
    result = json.loads(out)
    assert result["status"] == "unbounded_below"
    assert result["trace"]["ray"] == pytest.approx([-1.0])


@pytest.mark.parametrize("method", ["mgcd", "mcd"])
def test_solve_overflowing_start_exits_input(tmp_path, capsys, method):
    # f = max(4x) + 0 is unbounded below, but f(1e308) overflows: each method
    # anchors x0 before it reports the ray, so the start is an input error
    prob = tmp_path / "line.json"
    prob.write_text('{"d": 1, "plus": [{"a": 0, "v": [4]}], "minus": [{"b": 0, "w": [0]}]}')
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["solve", "--problem", str(prob), "--x0", "1e308", "--method", method])
    assert code == cli.EXIT_INPUT
    assert "not finite" in capsys.readouterr().err.strip().splitlines()[-1]


def test_solve_iter_limit_exit_code(example_file, capsys):
    code, out = run_cli(capsys, "solve", "--problem", example_file, "--x0", "2,2", "--max-iter", "0")
    assert code == 3
    assert json.loads(out)["status"] == "iter_limit"


@pytest.mark.parametrize("method", ["mgcd", "mcd"])
def test_solve_negative_max_iter_is_input_error(capsys, method):
    argv = ["solve", "--generate", "2,4,1,11", "--method", method, "--max-iter", "-1"]
    code = main(argv)
    assert code == cli.EXIT_INPUT == 4
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: max_iter must be >= 0"


# a convex generated instance whose minimum is 6.5
CONVEX = ("--generate", "2,4,1,0")


@pytest.mark.parametrize(
    "argv, message",
    [
        # an infinite tol accepted every offset: a verified global_min at f = 9
        (["solve", *CONVEX, "--tol", "inf"], "tol must be finite and >= 0"),
        (["solve", *CONVEX, "--tol", "inf", "--method", "mcd"], "tol must be finite"),
        # f(x0) overflows: the codifferential there is not finite, in every method
        (["solve", *CONVEX, "--method", "mgcd", "--x0", "1e308,1e308"], "not finite"),
        (["certify", *CONVEX, "--tol", "inf", "--point", "0,0"], "tol must be finite"),
        (["solve", *CONVEX, "--tol", "nan"], "tol must be finite"),
        (["solve", *CONVEX, "--tol=-1e-9"], "tol must be finite"),
        (["solve", *CONVEX, "--method", "mcd", "--mu", "nan"], "mu must be >= 0"),
        (["solve", *CONVEX, "--method", "mcd", "--mu", "-1"], "mu must be >= 0"),
        (["certify", *CONVEX, "--point", "nan,0"], "non-finite entry"),
        (["solve", *CONVEX, "--x0", "inf,0"], "non-finite entry"),
        (["solve", *CONVEX, "--method", "mcd", "--x0", "1e308,1e308"], "not finite"),
    ],
)
def test_invalid_tolerances_and_non_finite_input_exit_input(capsys, argv, message):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(argv)
    assert code == cli.EXIT_INPUT
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("error: ") and message in last


def test_solve_csv_format(example_file, capsys):
    code, out = run_cli(
        capsys, "solve", "--problem", example_file, "--x0", "2,2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,f,chosen_j,alpha,n_projections,discarded"
    assert len(lines) >= 3
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1"]
    assert [float(r[1]) for r in rows] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert [r[2:] for r in rows] == [["0", "", "8", "1;3;4;5;6;7"], ["", "", "2", "0;2"]]

    # MCD on the convex f = max(4x - 4, -4x - 4, 4y + 3, -4y) + 2 + y
    code, out = run_cli(
        capsys, "solve", "--generate", "2,4,1,11", "--method", "mcd", "--x0", "3,3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,f,chosen_j,alpha,n_projections,discarded"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert [float(r[1]) for r in rows] == pytest.approx([20.0, 136.0 / 27.0, 3.125], abs=1e-12)
    assert [r[3] == "" for r in rows] == [False, False, True]
    assert [r[2:3] + r[4:] for r in rows] == [["0", "1", ""], ["0", "1", ""], ["", "1", ""]]


def test_certify_global_and_not(example_file, capsys):
    code, out = run_cli(capsys, "certify", "--problem", example_file, "--point", "0,0")
    assert code == 0
    result = json.loads(out)
    assert result["verdict"] == "GLOBAL"
    assert min(result["a_values"]) >= -1e-9
    assert len(result["a_values"]) == 8

    code, out = run_cli(capsys, "certify", "--problem", example_file, "--point", "2,2")
    assert code == 1
    assert json.loads(out)["verdict"] == "NOT GLOBAL"


def test_certify_unbounded(tmp_path, capsys):
    prob = tmp_path / "u.json"
    prob.write_text(MIN_ZERO_SHIFTED_LINE)
    code, out = run_cli(capsys, "certify", "--problem", str(prob), "--point", "0")
    assert code == cli.EXIT_UNBOUNDED
    result = json.loads(out)
    assert result["verdict"] == "UNBOUNDED"
    assert result["is_global"] is False
    assert np.allclose(result["ray"], [-1.0])


def test_compare_solver_failure_row(example_file, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise NoConvergence("solver gave up")

    monkeypatch.setattr(cli, "mcd_run", failing)
    code, out = run_cli(
        capsys, "compare", "--problem", example_file, "--methods", "mgcd,mcd", "--x0", "2,2"
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert rows[0][:2] == ["mgcd", "global_min"]
    assert rows[1][:2] == ["mcd", "error: NoConvergence: solver gave up"]


def test_compare_reports_mhd_as_an_error_row(example_file, capsys):
    code, out = run_cli(
        capsys, "compare", "--problem", example_file, "--methods", "mgcd,mcd,mhd", "--x0", "2,2"
    )
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert [r[:2] for r in rows] == [
        ["mgcd", "global_min"], ["mcd", "global_min"], ["mhd", "error: unknown method 'mhd'"]
    ]


def test_compare_emits_method_table(example_file, capsys):
    code, out = run_cli(
        capsys, "compare", "--problem", example_file, "--methods", "mgcd,mcd", "--x0", "2,2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,status,iterations,final_value,wall_time_s,oracle_gap"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["mgcd", "mcd"]
    for r in rows:
        assert r[1] == "global_min"
        assert float(r[5]) <= 1e-9


def test_reproduce_example_passes(capsys):
    code, out = run_cli(capsys, "reproduce-example")
    assert code == 0
    result = json.loads(out)
    assert result["a1_x0"] == pytest.approx(-1.0 / 9.0, abs=1e-9)
    assert np.allclose(result["x1"], [0.0, 0.0], atol=1e-9)
    assert all(result["checks"].values())


@pytest.mark.parametrize(
    "lp",
    [LPOutcome("bounded", np.zeros(2), 1.0), LPOutcome("unbounded_below", ray=np.ones(2))],
    ids=["value", "unbounded"],
)
def test_solve_oracle_disagreement_fails_verification(example_file, capsys, monkeypatch, lp):
    monkeypatch.setattr(cli, "pa_global_min", lambda f: lp)
    code = main(["solve", "--problem", example_file, "--x0", "2,2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_FAIL == 1
    assert json.loads(captured.out)["oracle_verified"] is False
    assert "VERIFICATION FAILED: claimed " in captured.err


def test_reproduce_example_failing_check_exits_fail(capsys, monkeypatch):
    monkeypatch.setattr(cli, "WORKED_EXAMPLE_HYPO", set())
    code = main(["reproduce-example"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_FAIL == 1
    checks = json.loads(captured.out)["checks"]
    assert [name for name, ok in checks.items() if not ok] == [
        "hypodifferential at (2,2) is the known 16-vertex set"
    ]
    assert "[FAIL] hypodifferential" in captured.err and "all checks passed" not in captured.err


def test_input_errors(tmp_path, capsys):
    assert run_cli(capsys, "solve", "--problem", str(tmp_path / "nope.json"))[0] == 4
    assert run_cli(capsys, "solve")[0] == 4
    assert run_cli(capsys, "solve", "--generate", "2,5,3")[0] == 4  # missing seed
    for scale in ("0", "-1", "nan", "inf"):
        assert main(["solve", "--generate", "2,4,1,11", f"--scale={scale}"]) == 4
        assert "generation failed: need a finite scale > 0" in capsys.readouterr().err
    prob = tmp_path / "p.json"
    prob.write_text(worked_example().to_json())
    assert run_cli(capsys, "solve", "--problem", str(prob), "--x0", "1,2,3")[0] == 4
    assert main(["solve", "--problem", str(prob), "--x0", "a,b"]) == 4
    assert "cannot parse float list 'a,b'" in capsys.readouterr().err
    assert main(["certify", "--problem", str(prob), "--point", "1,2,3"]) == 4
    assert "--point has 3 entries, problem dimension is 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ['{"d": 2, "plus": 5, "minus": []}', "[1, 2]", '{"d": 1e400, "plus": [], "minus": []}', "[" * 10**5],
    ids=["plus-not-a-list", "top-level-list", "d-overflows", "nested-too-deep"],
)
def test_malformed_problem_file_exits_input(tmp_path, capsys, text):
    # a TypeError, OverflowError or RecursionError from decoding is bad input,
    # not a failed verification
    prob = tmp_path / "bad.json"
    prob.write_text(text)
    assert main(["certify", "--problem", str(prob), "--point", "0,0"]) == cli.EXIT_INPUT == 4
    assert f"cannot load problem file {prob}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "d, point",
    [(2.9, "0,0"), (True, "0")],
    ids=["d-fractional", "d-boolean"],
)
def test_non_integral_dimension_exits_input(tmp_path, capsys, d, point):
    # a d that int() would truncate (2.9 -> 2, true -> 1) is bad input, and the
    # rows fit the truncated d, so nothing later would catch it
    n = len(point.split(","))
    prob = tmp_path / "bad.json"
    prob.write_text(json.dumps({"d": d, "plus": [{"a": 0, "v": [1] + [0] * (n - 1)}], "minus": [{"b": 0, "w": [0] * n}]}))
    assert main(["certify", "--problem", str(prob), "--point", point]) == cli.EXIT_INPUT == 4
    assert f"cannot load problem file {prob}: d must be an integer" in capsys.readouterr().err


def test_integral_float_dimension_loads(tmp_path, capsys):
    # "d": 2.0 is the integer 2, and answers as "d": 2 does
    codes = []
    for d in (2, 2.0):
        prob = tmp_path / f"p{d}.json"
        prob.write_text(json.dumps({"d": d, "plus": [{"a": 0, "v": [1, 0]}], "minus": [{"b": 0, "w": [0, 0]}]}))
        codes.append(main(["certify", "--problem", str(prob), "--point", "0,0"]))
        assert "cannot load" not in capsys.readouterr().err
    assert codes[0] == codes[1] != cli.EXIT_INPUT


@pytest.mark.parametrize("exc", [NoConvergence, Degenerate])
def test_solver_failure_exit_code(example_file, capsys, monkeypatch, exc):
    def failing(*args, **kwargs):
        raise exc("solver gave up")

    monkeypatch.setattr(cli, "mgcd_run", failing)
    code = main(["solve", "--problem", example_file, "--x0", "2,2"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SOLVER == 6
    assert err.strip().splitlines()[-1] == f"error: {exc.__name__}: solver gave up"


def test_solve_large_scale_exits_cleanly(capsys):
    # the oracle check is relative: at 1e8 the claimed -419999999.9999988 is
    # 1.2e-6 from the oracle's -4.2e8, but only 3e-15 of it
    for c in (1e4, 1e8):
        code, out = run_cli(capsys, "solve", "--generate", "3,8,4,42", "--scale", str(c), "--x0", "1,2,-1")
        assert code == 0
        result = json.loads(out)
        assert result["final_f"] == pytest.approx(-4.2 * c, rel=1e-9)
        assert result["oracle_verified"] is True


GEN = ("--generate", "2,4,1,11")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--bogus", "1"],
        ["solve", "--max-iter", "abc"],
        ["solve", "--method", "bfgs"],
        ["certify", *GEN],  # no --point
        [],  # no subcommand
        # flags a subcommand does not read are rejected, not ignored
        ["generate", *GEN, "--x0", "zz"],
        ["generate", *GEN, "--tol", "1"],
        ["generate", *GEN, "--max-iter", "5"],
        ["generate", *GEN, "--mu", "0"],
        ["certify", *GEN, "--point", "0,0", "--x0", "1,1"],
        ["certify", *GEN, "--point", "0,0", "--max-iter", "5"],
        ["certify", *GEN, "--point", "0,0", "--mu", "0"],
    ],
)
def test_usage_errors_exit_input(capsys, argv):
    # argparse's own exit code 2 would read as "unbounded below"
    assert main(argv) == cli.EXIT_INPUT == 4
    assert capsys.readouterr().err.strip().splitlines()[-1].startswith("error: codescent")


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["certify", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: codescent")
