"""Command line interface.

Subcommands: ``info`` (structural report and checks), ``solve``
(coefficient table), ``eval`` (evaluate the solution at given times) and
``compare`` (solve and integrate the reference, report per-variable
errors next to the truncation bound).

Exit codes: 0 success, 1 parse error, 2 validation or domain error,
3 marching (math) error, 4 comparison failure.

Reals are serialized with 17 significant digits so that every double
round-trips exactly; identical inputs and flags produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import engine
from . import expr as ex
from .problem import ProblemError, check_compatibility, check_h2, compute_validity
from .problemfile import load_problem
from .reduce import ReducedSystem, substitute_history
from .series import SeriesError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_ENGINE = 3
EXIT_COMPARISON = 4


class UsageError(ValueError):
    """A flag value that cannot be used."""


# discrepancies below this floor are within the reference integrator's own
# error budget and never count as a comparison failure
ORACLE_NOISE_FLOOR = 1e-9


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _json_render(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return "null"
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_render(v) for v in value) + "]"
    if isinstance(value, dict):
        return (
            "{"
            + ", ".join(
                f"{json.dumps(k)}: {_json_render(v)}" for k, v in value.items()
            )
            + "}"
        )
    raise TypeError(f"cannot serialize {value!r}")


def _aggregate_bound(estimate: engine.ErrorEstimate | None) -> float | None:
    if estimate is None:
        return None
    if any(b is None for b in estimate.bound):
        return None
    return max(estimate.bound)


def _solution_json(
    var_names,
    coefficients,
    validity,
    estimate: engine.ErrorEstimate | None,
    pivot_log,
) -> str:
    payload = {
        "variables": [
            {"name": name, "coefficients": list(coeffs)}
            for name, coeffs in zip(var_names, coefficients)
        ],
        "validity": {
            "t_star": validity.t_star,
            "t_alpha": validity.t_alpha,
            "upper": validity.upper,
        },
        "error_estimate": (
            None
            if estimate is None
            else {
                "N": estimate.trunc_order,
                "delta": estimate.delta,
                "bound": _aggregate_bound(estimate),
            }
        ),
        "pivot_log": [
            {"var": var_names[entry.var - 1], "k": entry.k, "pivot": entry.pivot}
            for entry in pivot_log
        ],
    }
    return _json_render(payload) + "\n"


def _solution_csv(var_names, coefficients) -> str:
    width = max(len(c) for c in coefficients)
    lines = ["var," + ",".join(f"k{k}" for k in range(width))]
    for name, coeffs in zip(var_names, coefficients):
        lines.append(name + "," + ",".join(_fmt(c) for c in coeffs))
    return "\n".join(lines) + "\n"


def _solution_text(var_names, coefficients, validity, estimate) -> str:
    lines = []
    for name, coeffs in zip(var_names, coefficients):
        lines.append(f"{name}: " + " ".join(_fmt(c) for c in coeffs))
    lines.append(
        f"validity: t_star={_fmt(validity.t_star)} "
        f"t_alpha={_fmt(validity.t_alpha)} upper={_fmt(validity.upper)}"
    )
    if estimate is not None:
        parts = []
        for name, bound in zip(var_names, estimate.bound):
            parts.append(f"{name}={'n/a' if bound is None else _fmt(bound)}")
        lines.append(
            f"error bound on [0, {_fmt(estimate.delta)}]: " + " ".join(parts)
        )
    return "\n".join(lines) + "\n"


def _write(text: str, out: str | Path | None) -> None:
    """Write to the file ``out``, or to stdout without one; a file that
    cannot be written is a usage error that names it."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _floats(text: str, flag: str) -> list[float]:
    """The comma-separated finite numbers of a flag value; empty parts are
    skipped."""
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"{flag} needs comma-separated numbers, got {text!r}") from None
    for value in values:
        if not math.isfinite(value):
            raise UsageError(f"{flag} needs finite numbers, got {value!r}")
    return values


def _reduce(args, path) -> ReducedSystem:
    """The pipeline every solving command shares: load, the compatibility
    check, then history substitution, whose ``ReducedSystem`` refuses H2."""
    problem = load_problem(path)
    compat = check_compatibility(problem)
    if not compat.ok:
        worst = max(
            (e for e in compat.entries if not e.ok), key=lambda e: abs(e.residual)
        )
        message = (
            f"history/initial-data mismatch for "
            f"{problem.var_names[worst.var - 1]}: derivative {worst.deriv} has "
            f"residual {worst.residual:.6g}"
        )
        if args.strict:
            raise ProblemError(message)
        _warn(message)
    return substitute_history(problem, trunc_order=args.order)


def cmd_info(args) -> int:
    problem = load_problem(args.file)
    structure = problem.structure()
    validity = compute_validity(problem)
    compat = check_compatibility(problem)
    h2 = check_h2(problem)
    print(f"order: {problem.order}")
    print(f"variables: {len(problem.var_names)} ({', '.join(problem.var_names)})")
    print(f"delays: {len(problem.delays)}")
    for spec in problem.delays:
        law = spec.law
        if spec.proportional:
            kind = f"proportional ratio={_fmt(law.ratio)}"
        elif hasattr(law, "tau"):
            kind = f"constant lag={_fmt(law.tau)}"
        else:
            kind = f"time-dependent lag={ex.pretty(law.lag)}"
        print(
            f"delay {spec.id}: {kind} "
            f"max_deriv={structure.max_deriv_per_delay[spec.id]}"
        )
    print(f"max delayed derivative: {structure.max_delayed_deriv}")
    print(f"total delayed derivatives: {structure.total_delayed_derivs}")
    print(f"neutral: {'yes' if structure.neutral else 'no'}")
    print(f"t_star: {_fmt(validity.t_star)}")
    print(f"t_alpha: {_fmt(validity.t_alpha)}")
    print(f"upper: {_fmt(validity.upper)}")
    for note in validity.notes:
        print(f"note: {note}")
    print(f"compatibility: {'pass' if compat.ok else 'FAIL'}")
    for entry in compat.entries:
        if not entry.ok:
            print(
                f"  {problem.var_names[entry.var - 1]} derivative "
                f"{entry.deriv}: history {_fmt(entry.history_value)} vs "
                f"initial {_fmt(entry.init_value)}"
            )
    print(f"h2: {'pass' if h2.ok else 'FAIL'}")
    for v in h2.violations:
        print(
            f"  equation {problem.var_names[v.equation - 1]} references "
            f"{problem.var_names[v.variable - 1]} top derivative via "
            f"{v.delay!r}"
        )
    return EXIT_OK if compat.ok and h2.ok else EXIT_VALIDATION


def _render(args, names, coeffs, validity, estimate, pivot_log) -> str:
    if args.json:
        return _solution_json(names, coeffs, validity, estimate, pivot_log)
    if args.csv:
        return _solution_csv(names, coeffs)
    return _solution_text(names, coeffs, validity, estimate)


def _solve_one(args, path) -> tuple[int, str]:
    reduced = _reduce(args, path)
    try:
        solution = engine.solve_reduced(reduced)
    except engine.ZeroPivot as exc:
        _error(str(exc))
        return EXIT_ENGINE, _render(
            args, reduced.var_names, exc.partial_coeffs, reduced.validity, None, ()
        )
    coeffs = [s.coeffs for s in solution.series]
    estimate = engine.estimate_error(solution, solution.validity.upper)
    return EXIT_OK, _render(
        args, solution.var_names, coeffs, solution.validity, estimate, solution.pivot_log
    )


def cmd_solve(args) -> int:
    if args.json and args.csv:
        raise UsageError("--json and --csv cannot be used together")
    if args.all:
        directory = Path(args.file)
        if not directory.is_dir():
            raise UsageError(f"--all needs a directory, got {args.file!r}")
        files = sorted(directory.glob("*.fde"))
        if not files:
            raise UsageError(f"no .fde files in {directory}")
        if args.out:
            try:
                Path(args.out).mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise UsageError(
                    f"cannot make the output directory {args.out}: {exc.strerror or exc}"
                ) from None
        worst = EXIT_OK
        for path in files:
            try:
                code, text = _solve_one(args, path)
            except Exception as exc:
                code, text = _exit_code(exc), ""
            worst = max(worst, code)
            if args.out:
                suffix = ".json" if args.json else ".csv" if args.csv else ".txt"
                _write(text, Path(args.out) / (path.stem + suffix))
            else:
                sys.stdout.write(f"# {path.name}\n{text}")
        return worst
    code, text = _solve_one(args, args.file)
    _write(text, args.out)
    return code


def cmd_eval(args) -> int:
    points = _floats(args.at, "--at")  # before any solving, as compare checks its flags
    if not points:
        raise UsageError("--at needs at least one time value")
    solution = engine.solve_reduced(_reduce(args, args.file))
    lines = ["t," + ",".join(solution.var_names)]
    for t in points:
        values = engine.evaluate_solution(solution, t, unchecked=args.unchecked)
        for name, value in zip(solution.var_names, values):
            if not math.isfinite(value):
                raise ex.EvaluationError(f"{name} at t = {t:g} evaluates to {value!r}")
        lines.append(_fmt(t) + "," + ",".join(_fmt(v) for v in values))
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import oracle  # the reference integrator loads only for compare
    reduced = _reduce(args, args.file)
    # restriction check happens before any solving so that unsupported
    # systems report the offending term rather than a marching error
    oracle.check_supported(reduced)
    if args.interval:
        bounds = _floats(args.interval, "--interval")
        if len(bounds) != 2:
            raise UsageError(f"--interval needs two numbers a,b, got {args.interval!r}")
        a, b = bounds
        if not a < b:
            raise UsageError(f"comparison interval [{a:g}, {b:g}] is empty")
    else:
        a, b = 0.0, reduced.validity.upper
    upper = reduced.validity.upper
    # an end up to 1e-12 past upper is round-off in the flag and reads as upper
    if not (0.0 <= a < min(b, upper) and b <= upper + 1e-12):
        raise UsageError(f"comparison interval [{a:g}, {b:g}] must lie inside [0, {upper:g}]")
    b = min(b, upper)
    steps = oracle.reference_steps(args.step, b)
    if steps > oracle.MAX_REFERENCE_STEPS:
        raise UsageError(
            f"--h {args.step!r} cuts [0, {b:g}] into {steps} reference steps, more than "
            f"the budget of {oracle.MAX_REFERENCE_STEPS}; use a larger --h"
        )
    if not 2 <= args.samples <= oracle.MAX_COMPARE_SAMPLES:
        raise UsageError(
            f"--samples must lie in [2, {oracle.MAX_COMPARE_SAMPLES}], got {args.samples}"
        )
    solution = engine.solve_reduced(reduced)
    estimate = engine.estimate_error(solution, b)
    trajectory = oracle.integrate_reference(reduced, args.step, b)
    errors = oracle.compare(solution, trajectory, (a, b), args.samples)
    failed_vars = []
    for name, measured, bound in zip(solution.var_names, errors, estimate.bound):
        if bound is None:
            bound_text = "n/a"
        elif bound == 0.0:
            bound_text = "0 (exact)"
        else:
            bound_text = _fmt(bound)
        print(f"{name}: max_error={_fmt(measured)} bound={bound_text}")
        if bound is not None and measured > max(bound, ORACLE_NOISE_FLOOR):
            failed_vars.append(name)
    if failed_vars:
        _error(
            "measured error exceeds the truncation bound for "
            + ", ".join(failed_vars)
        )
        return EXIT_COMPARISON
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taydel",
        description=(
            "Solve initial-value problems for delay differential equations "
            "by Taylor-coefficient recurrences and validate against a "
            "Runge-Kutta reference."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="structural report and checks")
    info.add_argument("file")
    info.set_defaults(handler=cmd_info)

    solve = sub.add_parser("solve", help="compute the coefficient table")
    solve.add_argument("file", help="problem file, or a directory with --all")
    solve.add_argument("--order", type=int, default=None, help="override taylor_order")
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--csv", action="store_true")
    solve.add_argument("--out", default=None)
    solve.add_argument("--strict", action="store_true")
    solve.add_argument("--all", action="store_true", help="solve every .fde file in a directory")
    solve.set_defaults(handler=cmd_solve)

    evaluate = sub.add_parser("eval", help="evaluate the solution at given times")
    evaluate.add_argument("file")
    evaluate.add_argument("--at", required=True, help="comma-separated times")
    evaluate.add_argument("--order", type=int, default=None)
    evaluate.add_argument("--unchecked", action="store_true")
    evaluate.add_argument("--strict", action="store_true")
    evaluate.add_argument("--out", default=None)
    evaluate.set_defaults(handler=cmd_eval)

    compare = sub.add_parser("compare", help="engine vs reference integrator")
    compare.add_argument("file")
    compare.add_argument("--h", dest="step", type=float, default=1e-3)
    compare.add_argument("--samples", type=int, default=200)
    compare.add_argument("--interval", default=None, help="a,b")
    compare.add_argument("--order", type=int, default=None)
    compare.add_argument("--strict", action="store_true")
    compare.set_defaults(handler=cmd_compare)

    return parser


# the first row whose classes match the failure gives the exit code; the
# message is printed as one line
EXIT_CODES = (
    ((ex.ParseError, FileNotFoundError, IsADirectoryError, UnicodeDecodeError), EXIT_PARSE),
    (
        (ProblemError, ex.StructureError, ex.EvaluationError, SeriesError,
         engine.ValidityError, engine.OracleError, UsageError),
        EXIT_VALIDATION,
    ),
    (engine.EngineError, EXIT_ENGINE),
)


def _exit_code(exc: Exception) -> int:
    """Print a failure's one line and return its exit code; a failure that
    EXIT_CODES does not name is raised again."""
    for classes, code in EXIT_CODES:
        if isinstance(exc, classes):
            _error(str(exc))
            return code
    raise exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:
        return _exit_code(exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
