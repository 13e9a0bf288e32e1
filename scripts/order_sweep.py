#!/usr/bin/env python3
"""Truncation-order sweep of history substitution and the coefficient march.

For the fixtures, the perfbench history family of one seed and EXP_LAG,
a history system whose lag is no polynomial (so its power table keeps
every product, where the family's polynomial lags skip most), times
``parse_problem`` on each problem (``parse_ms``), ``compute_validity``
(``validity_ms``), the RK4 reference ``integrate_reference`` at h = 2e-3
over [0, upper] on the N = 20 reduction (``reference_ms``) and ``compare``
of that reduction's solution against it over 200 samples (``compare_ms``),
both null where the integrator refuses the system, and
``substitute_history`` and ``solve_reduced`` at N = 10, 20, 40, 80, 160
(each the fastest of ``--repeat`` runs).  ``substitute_ms`` includes ``validity_ms``: the
reduction computes the validity interval itself.  It fits the growth
exponent of each in N by least squares on log-log axes over N >= 40 only:
below that the entries are fractions of a millisecond, where timer noise
and the fixed per-call costs (validity scan, lowering) would swamp the
growth in N.  It prints one JSON object.  A problem whose reduction or
march fails at some N records the error text for that N and is left out
of the fit.

Run from the repository root:  python scripts/order_sweep.py --seed 7
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import families  # noqa: E402
from taydel.engine import solve_reduced  # noqa: E402
from taydel.oracle import (  # noqa: E402
    OracleRestriction,
    check_supported,
    compare,
    integrate_reference,
)
from taydel.problem import compute_validity  # noqa: E402
from taydel.problemfile import parse_problem  # noqa: E402
from taydel.reduce import substitute_history  # noqa: E402

ORDERS = (10, 20, 40, 80, 160)
FIT_FROM = 40  # the smallest order the exponent fit uses
REFERENCE_ORDER, REFERENCE_STEP, SAMPLES = 20, 2e-3, 200  # as perfbench's validate_fine
FIXTURES = ("example1", "example2", "example3", "example3_u1")
EXP_LAG = """\
order = 1
vars = u, v
delay lag = vary(exp(-t)/2)
delay one = constant(1)
delay half = proportional(1/2)
eq u' = -u + u@lag*v@half + v@one
eq v' = u - v@lag*u@half + sin(u@lag)
phi u = exp(t) + t
phi v = cos(t)
init u = [1]
init v = [1]
horizon = 1
taylor_order = 10
"""


def fastest(repeat: int, call) -> tuple[float, object]:
    """Smallest wall time of ``repeat`` calls, in ms, and the last result."""
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3, result


def exponent(times: list[float]) -> float | None:
    """Least-squares slope of log(time) against log(N) over N >= FIT_FROM."""
    fitted = [(n, t) for n, t in zip(ORDERS, times) if n >= FIT_FROM]
    xs = [math.log(n) for n, _ in fitted]
    ys = [math.log(max(t, 1e-6)) for _, t in fitted]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    spread = sum((x - mx) ** 2 for x in xs)
    return round(sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / spread, 3)


def oracle_ms(problem, repeat: int) -> tuple[float | None, float | None]:
    """Fastest RK4 reference on the N = 20 reduction and fastest comparison
    of its solution against it, None for both where ``check_supported``
    refuses the reduction."""
    reduced = substitute_history(problem, trunc_order=REFERENCE_ORDER)
    try:
        check_supported(reduced)
    except OracleRestriction:
        return None, None
    upper = reduced.validity.upper
    ms, trajectory = fastest(repeat, lambda: integrate_reference(reduced, REFERENCE_STEP, upper))
    solution = solve_reduced(reduced)
    compared, _ = fastest(repeat, lambda: compare(solution, trajectory, (0.0, upper), SAMPLES))
    return round(ms, 3), round(compared, 3)


def sweep(text: str, name: str, repeat: int) -> dict:
    ms, problem = fastest(repeat, lambda: parse_problem(text, name=name))
    row: dict = {"parse_ms": round(ms, 3)}
    row["validity_ms"] = round(fastest(repeat, lambda: compute_validity(problem))[0], 3)
    row["reference_ms"], row["compare_ms"] = oracle_ms(problem, repeat)
    row["substitute_ms"], row["solve_ms"] = [], []
    for order in ORDERS:
        try:
            ms, reduced = fastest(repeat, lambda: substitute_history(problem, trunc_order=order))
            row["substitute_ms"].append(round(ms, 3))
            ms, _ = fastest(repeat, lambda: solve_reduced(reduced))
            row["solve_ms"].append(round(ms, 3))
        except Exception as exc:  # a failing problem is reported, not fatal
            row["error"] = f"N={order}: {type(exc).__name__}: {exc}"
            return row
    row["substitute_exponent"] = exponent(row["substitute_ms"])
    row["solve_exponent"] = exponent(row["solve_ms"])
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="history family seed")
    parser.add_argument("--repeat", type=int, default=3, help="runs per timing")
    args = parser.parse_args(argv)
    texts = {name: (ROOT / "fixtures" / f"{name}.fde").read_text() for name in FIXTURES}
    for generated in families.history_family(args.seed):
        texts[generated.name] = generated.text
    texts["exp_lag"] = EXP_LAG
    result = {
        "orders": list(ORDERS),
        "seed": args.seed,
        "repeat": args.repeat,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "problems": {name: sweep(text, name, args.repeat) for name, text in texts.items()},
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
