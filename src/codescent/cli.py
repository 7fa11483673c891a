"""Command-line harness.

Subcommands
-----------
``solve``      minimize a problem with one method, emit a JSON/CSV trace
``certify``    evaluate the global-optimality certificate at a point
``compare``    run several methods on one problem, emit a CSV table
``generate``   draw a reproducible bounded-below instance as JSON
``reproduce-example``  run the built-in two-valley showcase end to end
                       and assert all of its known quantities

Machine output goes to stdout (or ``--out``); progress and human
narration go to stderr.  Exit codes: 0 success / certified global
minimum, 1 failed verification, a negative certificate or an
``undecided`` run, 2 unbounded below, 3 iteration limit, 4 input or
usage error, 5 MCD stalled at a point its certificate does not accept
(a non-global inf-stationary point with finite ``mu``, or the minimum
itself at ``tol = 0``), 6 a numerical solver failed (``NoConvergence``
or ``Degenerate``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .errors import Degenerate, NoConvergence
from .mgcd import GlobalRun, check_global_opt, mcd_run, mgcd_run, project_piece
from .oracle import pa_global_min
from .pa import DCForm, _csv_text, evaluate, global_codiff
from .problems import WORKED_EXAMPLE_HYPER, WORKED_EXAMPLE_HYPO, generate_pa, worked_example

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNBOUNDED = 2
EXIT_ITER_LIMIT = 3
EXIT_INPUT = 4
EXIT_STALLED = 5
EXIT_SOLVER = 6

_STATUS_EXIT = {
    "global_min": EXIT_OK,
    "unbounded_below": EXIT_UNBOUNDED,
    "iter_limit": EXIT_ITER_LIMIT,
    "inf_stationary": EXIT_STALLED,
}


_SOLVER_ERRORS = (NoConvergence, Degenerate)


class InputError(ValueError):
    pass


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        _progress(f"wrote {out}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _parse_floats(text: str) -> np.ndarray:
    try:
        out = np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise InputError(f"cannot parse float list {text!r}") from exc
    if not np.isfinite(out).all():
        raise InputError(f"non-finite entry in {text!r}")
    return out


def _load_problem(args) -> DCForm:
    if getattr(args, "problem", None):
        try:
            with open(args.problem) as fh:
                return DCForm.from_json(fh.read())
        except (OSError, KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise InputError(f"cannot load problem file {args.problem}: {exc}") from exc
    if getattr(args, "generate", None):
        parts = args.generate.split(",")
        if len(parts) != 4:
            raise InputError("--generate expects d,l,s,seed")
        try:
            d, l, s, seed = (int(p) for p in parts)
            return generate_pa(seed, d, l, s, scale=args.scale)
        except ValueError as exc:
            raise InputError(f"generation failed: {exc}") from exc
    raise InputError("need --problem FILE or --generate d,l,s,seed")


def _start_point(args, d: int) -> np.ndarray:
    if getattr(args, "x0", None):
        x0 = _parse_floats(args.x0)
        if x0.size != d:
            raise InputError(f"--x0 has {x0.size} entries, problem dimension is {d}")
        return x0
    return np.zeros(d)


def _run_method(method: str, f: DCForm, x0: np.ndarray, args) -> GlobalRun:
    if method == "mgcd":
        return mgcd_run(f, x0, tol=args.tol, max_iter=args.max_iter)
    if method == "mcd":
        return mcd_run(f, x0, mu=args.mu, tol=args.tol, max_iter=args.max_iter)
    raise InputError(f"unknown method {method!r}")


def cmd_solve(args) -> int:
    f = _load_problem(args)
    x0 = _start_point(args, f.d)
    _progress(f"solving d={f.d} l={f.plus.shape[0]} s={f.minus.shape[0]} with {args.method}")
    t0 = time.perf_counter()
    run = _run_method(args.method, f, x0, args)
    wall = time.perf_counter() - t0

    verified = None
    if run.status == "global_min":
        lp = pa_global_min(f)
        # the run's tol, derived at x0 unless --tol gave it
        verified = lp.bounded and abs(run.final_f - lp.value) <= run.certificate.tol
        if not verified:
            _progress(f"VERIFICATION FAILED: claimed {run.final_f}, oracle {lp.value if lp.bounded else 'unbounded'}")

    result = {
        "method": args.method,
        "status": run.status,
        "x0": list(map(float, x0)),
        "final_x": list(map(float, run.final_x)),
        "final_f": float(run.final_f),
        "n_steps": run.n_steps,
        "wall_time_s": wall,
        "oracle_verified": verified,
        "trace": run.to_dict(),
    }
    _emit(run.to_csv() if args.format == "csv" else json.dumps(result, indent=2), args.out)
    if run.status == "global_min" and not verified:
        return EXIT_FAIL
    return _STATUS_EXIT.get(run.status, EXIT_FAIL)


def cmd_certify(args) -> int:
    f = _load_problem(args)
    point = _parse_floats(args.point)
    if point.size != f.d:
        raise InputError(f"--point has {point.size} entries, problem dimension is {f.d}")
    is_global, cert = check_global_opt(f, point, tol=args.tol)
    if cert.ray is not None:
        verdict, code = "UNBOUNDED", EXIT_UNBOUNDED
    else:
        verdict, code = ("GLOBAL", EXIT_OK) if is_global else ("NOT GLOBAL", EXIT_FAIL)
    result = cert.to_dict()
    result["verdict"] = verdict
    result["f"] = float(evaluate(f, point))
    _emit(json.dumps(result, indent=2), args.out)
    return code


def cmd_compare(args) -> int:
    f = _load_problem(args)
    x0 = _start_point(args, f.d)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    lp = pa_global_min(f)
    rows = []
    for method in methods:
        t0 = time.perf_counter()
        try:
            run = _run_method(method, f, x0, args)
        except (ValueError, *_SOLVER_ERRORS) as exc:
            name = "" if isinstance(exc, ValueError) else f"{type(exc).__name__}: "
            rows.append([method, f"error: {name}{exc}", "", "", "", ""])
            continue
        wall = time.perf_counter() - t0
        gap = abs(run.final_f - lp.value) if lp.bounded else math.inf
        rows.append([method, run.status, run.n_steps, repr(run.final_f), f"{wall:.6f}", repr(float(gap))])
    header = ["method", "status", "iterations", "final_value", "wall_time_s", "oracle_gap"]
    _emit(_csv_text(header, rows), args.out)
    return EXIT_OK


def cmd_generate(args) -> int:
    f = _load_problem(args)
    _emit(f.to_json(indent=2), args.out)
    return EXIT_OK


def cmd_reproduce_example(args) -> int:
    """Run the two-valley showcase and assert its known quantities."""
    f = worked_example()
    x0 = np.array([2.0, 2.0])
    checks: list[tuple[str, bool]] = []

    def check(name: str, ok: bool) -> None:
        checks.append((name, bool(ok)))
        _progress(f"  [{'ok' if ok else 'FAIL'}] {name}")

    gc = global_codiff(f, x0)
    check("hypodifferential at (2,2) is the known 16-vertex set",
          set(map(tuple, gc.hypo.tolist())) == WORKED_EXAMPLE_HYPO)
    check("hyperdifferential at (2,2) is the known 8-vertex set",
          set(map(tuple, gc.hyper.tolist())) == WORKED_EXAMPLE_HYPER)

    z1 = gc.hyper[0]
    check("z_1(2,2) = (1, 2, 0)", np.allclose(z1, [1.0, 2.0, 0.0], atol=1e-12))

    proj = project_piece(f, x0, 0)
    exact = np.array([-1.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0])
    check("projection of piece 1 is (-0.1111, 0.2222, 0.2222) to 1e-3",
          np.max(np.abs(proj - np.array([-0.1111, 0.2222, 0.2222]))) < 1e-3)
    check("projection of piece 1 equals (-1/9, 2/9, 2/9) to 1e-9",
          np.max(np.abs(proj - exact)) < 1e-9)

    run = mgcd_run(f, x0)
    check("descent reaches (0, 0) in exactly one step",
          run.n_steps == 1 and np.allclose(run.final_x, [0.0, 0.0], atol=1e-9))
    check("status is a certified global minimum",
          run.status == "global_min" and run.certificate.is_global)
    lp = pa_global_min(f)
    check("LP oracle agrees: minimum 0 at (0, 0)",
          lp.bounded and abs(lp.value) < 1e-12 and np.allclose(lp.argmin, [0, 0], atol=1e-9))
    ok_20, cert_20 = check_global_opt(f, x0)
    check("(2, 2) is not globally optimal, witnessed by piece 1",
          not ok_20 and cert_20.a_values[0] < 0)

    result = {
        "x1": list(map(float, run.final_x)),
        "a1_x0": float(proj[0]),
        "v1_x0": list(map(float, proj[1:])),
        "checks": {name: ok for name, ok in checks},
    }
    _emit(json.dumps(result, indent=2), args.out)
    if all(ok for _, ok in checks):
        _progress(f"x1 = (0, 0), a1(x0) = {proj[0]:.4f} -- all checks passed")
        return EXIT_OK
    return EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2, which means "unbounded below" here
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    fmt = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser = _Parser(
        prog="codescent",
        description="Codifferential descent methods for piecewise-affine and convex minimization.",
        **fmt,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--problem": dict(help="problem file (DCForm JSON)"),
        "--generate": dict(metavar="d,l,s,seed", help="draw a reproducible instance"),
        "--scale": dict(type=float, default=1.0, help="scaling for --generate"),
        "--x0": dict(help="comma-separated start point (origin if omitted)"),
        "--tol": dict(type=float, help="certificate tolerance (default 1e-9 times the data scale)"),
        "--max-iter": dict(type=int, default=1000, dest="max_iter", help="iteration cap"),
        "--mu": dict(type=float, default=math.inf, help="hyper-offset cutoff (mcd only)"),
        "--out": dict(help="write machine output to this path instead of stdout"),
        "--method": dict(choices=("mcd", "mgcd"), default="mgcd"),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--point": dict(required=True, help="comma-separated point"),
        "--methods": dict(default="mgcd,mcd", help="comma-separated method list"),
    }

    def add(name, func, help, *names):
        p = sub.add_parser(name, help=help, **fmt)
        for flag in (*names, "--out"):
            p.add_argument(flag, **flags[flag])
        p.set_defaults(func=func)

    # each subcommand takes only the flags it reads
    problem, run = ("--problem", "--generate", "--scale"), ("--x0", "--tol", "--max-iter", "--mu")
    add("solve", cmd_solve, "minimize a problem and emit the trace",
        *problem, *run, "--method", "--format")
    add("certify", cmd_certify, "global-optimality certificate at a point", *problem, "--tol", "--point")
    add("compare", cmd_compare, "run several methods on one problem (CSV)", *problem, *run, "--methods")
    add("generate", cmd_generate, "emit a generated instance as JSON", *problem)
    add("reproduce-example", cmd_reproduce_example,
        "run the built-in showcase and assert its known quantities")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # an InputError, or invalid or non-finite input to the library
        _progress(f"error: {exc}")
        return EXIT_INPUT
    except _SOLVER_ERRORS as exc:
        _progress(f"error: {type(exc).__name__}: {exc}")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
