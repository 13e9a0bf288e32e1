"""Measurement and tracing for the taydel benchmark; see run.py."""

from __future__ import annotations

import hashlib
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "fixtures"
OUT = HERE / "out"
SETUP_REPEATS = 9
# the calibration loop takes about 2 ms on a 2-vCPU x86-64 cloud VM
CALIBRATION_ITERATIONS = 30_000
CALIBRATION_NOMINAL_S = 2e-3

END_TO_END = {
    "setup_s": "s",
    "norm_latency_geomean_ms": "ms",
    "norm_problems_per_s": "1/s",
}
PER_LAYER = {
    "engine.march_ms": "ms",
    "engine.estimate_ms": "ms",
    "engine.coeffs": "count",
    "engine.us_per_coeff": "us",
    "engine.march_exponent": "1",
    "engine.pivots": "count",
    "engine.share": "frac",
    "expr.eval_series_calls": "count",
    "series.constructed": "count",
    "reduce.substitute_ms": "ms",
    "reduce.leaves": "count",
    "reduce.share": "frac",
    "oracle.integrate_ms": "ms",
    "oracle.steps": "count",
    "oracle.extrapolated_lookups": "count",
    "oracle.compare_ms": "ms",
    "expr.eval_numeric_calls": "count",
    "oracle.share": "frac",
    "problemfile.parse_ms": "ms",
    "problem.checks_ms": "ms",
    "problem.validity_ms": "ms",
    "cli.main_ms": "ms",
    "cli.startup_ms": "ms",
    "trace.overhead_frac": "frac",
}


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _repeat_passes(run_pass, seconds: float) -> list:
    """Whole passes while the next one is expected to end within
    ``seconds``; always at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _import_seconds(env) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import taydel.cli"],
        env=env,
        check=True,
        capture_output=True,
        timeout=60,
    )
    return time.perf_counter() - start


def _warm_up(runner) -> None:
    """Bytecode for the child processes, first calls in this one."""
    _import_seconds(runner.env)
    case = workloads.Case("warm-up", "example2", FIXTURES / "example2.fde", 10, "solve")
    workloads.timed_pipeline(case)


def _verdict(passes) -> dict:
    runs = [run for one in passes for run in one]
    # sha256 over each pass's 17-digit coefficient output, in run order
    digests = [
        hashlib.sha256("".join(f"{r.case.id}:{r.digest}\n" for r in one).encode()).hexdigest()
        for one in passes
    ]
    wrong = any(f.kind == "wrong" for run in runs for f in run.failures)
    failed = [run for run in runs if run.failures]
    return {
        "correct": not wrong and len(set(digests)) == 1,
        "attempted": len(runs),
        "failed": len(failed),
        "digest": digests[0],
        "reasons": sorted({f"{run.case.id}: {f.reason}" for run in failed for f in run.failures}),
    }


def _report(workload: str, seed: int, passes, verdict: dict, extra: dict) -> None:
    runs = sum(len(one) for one in passes)
    print(f"workload {workload} seed {seed}: {len(passes)} passes, {runs} runs")
    print(f"  failed_frac {verdict['failed'] / verdict['attempted']:.6g} frac")
    for name, (value, unit) in extra.items():
        print(f"  {name} {value} {unit}".rstrip())
    print(f"  coeffs_sha256 {verdict['digest']}")
    for reason in verdict["reasons"]:
        print(f"  fail {reason}")


def _calibration_seconds() -> float:
    """Seconds for a fixed pure-Python loop that involves no taydel code."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float, cases, runner, probes=()) -> dict:
    """End-to-end metrics, tracing off.  ``probes`` are CLI runs of known
    defects, run once after the timed passes and reported, not counted."""
    _warm_up(runner)
    # set-up samples taken before and after the passes, so that one burst of
    # machine noise cannot move all of them
    setup = [_import_seconds(runner.env) for _ in range(SETUP_REPEATS // 2)]
    if workload == "cli_small":
        def run_one(case):
            return runner.check(case, *runner.spawn(case))
    else:
        def run_one(case):
            return workloads.check_outcome(case, *workloads.timed_pipeline(case))
    calibration = []

    def run_pass():
        runs = []
        for case in cases:
            runs.append(run_one(case))
            calibration.append(_calibration_seconds())
        return runs

    passes = _repeat_passes(run_pass, seconds)
    setup += [_import_seconds(runner.env) for _ in range(SETUP_REPEATS - len(setup))]
    verdict = _verdict(passes)
    # A problem's latency is the fastest of its runs over the passes: other
    # load on a shared host only ever adds time, so the minimum is steadier
    # than the median.  A host can also run slower for minutes at a time, which
    # moves the minimum too; the calibration loop, run after every problem,
    # slows with it, so the gated metrics, set-up time too, are scaled to the
    # host speed at which its fastest run takes CALIBRATION_NOMINAL_S.  The
    # workload's problems differ in size by a factor of 20 or more, so a
    # percentile over them depends on which problem falls at that rank; the
    # gated latency is their geometric mean, and the raw percentiles are
    # printed for reading.
    best = [min(one[i].latency_s for one in passes) for i in range(len(cases))]
    typical = [statistics.median(one[i].latency_s for one in passes) for i in range(len(cases))]
    host = min(calibration) / CALIBRATION_NOMINAL_S
    extra = {
        "problems": (len(cases), "problems"),
        "host_slowdown": (host, "x"),
        "raw_setup_s": (statistics.median(setup), "s"),
        "raw_latency_geomean_ms": (1e3 * statistics.geometric_mean(best), "ms"),
        "raw_problems_per_s": (len(cases) / sum(best), "1/s"),
        "best_latency_p50_ms": (1e3 * statistics.median(best), "ms"),
        "best_latency_p90_ms": (1e3 * _p90(best), "ms"),
        "median_latency_p50_ms": (1e3 * statistics.median(typical), "ms"),
        "median_latency_p90_ms": (1e3 * _p90(typical), "ms"),
    }
    errors = [run.max_error for one in passes for run in one if run.max_error is not None]
    if workload == "validate_fine":
        extra["max_abs_err"] = (max(errors, default=math.nan), "abs")
    for probe in (runner.check(case, *runner.spawn(case)) for case in probes):
        reason = "; ".join(f.reason for f in probe.failures) or "ok, defect fixed"
        extra[f"known_defect {probe.case.id}"] = (reason, "")
    _report(workload, seed, passes, verdict, extra)
    metrics = {
        "setup_s": statistics.median(setup) / host,
        "norm_latency_geomean_ms": 1e3 * statistics.geometric_mean(best) / host,
        # one pass over the workload's problems, each at its fastest
        "norm_problems_per_s": len(cases) / sum(best) * host,
    }
    return _result(verdict, metrics, END_TO_END)


def _march_exponent(tracer, cases_by_id) -> float:
    """Median over systems of the least-squares slope of log(march time)
    against log(N); 0 when the workload runs each system at one N."""
    times: dict[str, dict[int, list[float]]] = {}
    for name, start, end, _, problem in tracer.spans:
        if name == "engine.solve_reduced":
            case = cases_by_id[problem]
            times.setdefault(case.system, {}).setdefault(case.order, []).append(end - start)
    slopes = []
    for by_order in times.values():
        if len(by_order) < 2:
            continue
        xs = [math.log(n) for n in by_order]
        ys = [math.log(statistics.median(t)) for t in by_order.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slopes.append(
            sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs)
        )
    return statistics.median(slopes) if slopes else 0.0


def trace(workload: str, seed: int, seconds: float, cases, runner) -> dict:
    """Per-layer metrics from one untraced pass and then traced passes."""
    _warm_up(runner)
    cli_mode = workload == "cli_small"
    in_process = runner.in_process if cli_mode else workloads.timed_pipeline
    baseline = [in_process(case)[0] for case in cases]
    tracer = spans.Tracer()
    records = []
    cli_latencies = []

    def run_pass():
        for case in cases:
            if cli_mode:
                latency, proc = runner.spawn(case)
                cli_latencies.append(latency)
                with tracer.span("pipeline", case.id):
                    in_process(case)
                records.append((case, latency, proc))
            else:
                with tracer.span("pipeline", case.id):
                    latency, outcome = in_process(case)
                records.append((case, latency, outcome))
        return len(records)

    start = time.perf_counter()
    tracer.install()
    try:
        passes = _repeat_passes(run_pass, max(seconds - (time.perf_counter() - start), 0))
    finally:
        tracer.uninstall()
    # the gate runs after tracing so its own evaluations are not counted
    check = runner.check if cli_mode else workloads.check_outcome
    runs = [check(*record) for record in records]
    grouped = [runs[i * len(cases):(i + 1) * len(cases)] for i in range(len(passes))]
    verdict = _verdict(grouped)

    pipeline = tracer.durations("pipeline")
    total = sum(pipeline)
    count = len(pipeline)
    self_times = tracer.self_times()

    def ms(*names):
        return 1e3 * sum(self_times.get(name, 0.0) for name in names) / count

    def share(*names):
        return sum(self_times.get(name, 0.0) for name in names) / total

    def per_run(key):
        return tracer.counts.get(key, 0) / count

    march_s = self_times.get("engine.solve_reduced", 0.0)
    coeffs = tracer.counts.get("engine.coeffs", 0)
    main_ms = 1e3 * statistics.median(tracer.durations("cli.main")) if cli_mode else 0.0
    cli_p50_ms = 1e3 * statistics.median(cli_latencies) if cli_mode else 0.0
    metrics = {
        "engine.march_ms": ms("engine.solve_reduced"),
        "engine.estimate_ms": ms("engine.estimate_error"),
        "engine.coeffs": per_run("engine.coeffs"),
        "engine.us_per_coeff": 1e6 * march_s / coeffs if coeffs else 0.0,
        "engine.march_exponent": _march_exponent(tracer, {c.id: c for c in cases}),
        "engine.pivots": per_run("engine.pivots"),
        "engine.share": share("engine.solve_reduced", "engine.estimate_error"),
        "expr.eval_series_calls": per_run("expr.eval_series_calls"),
        "series.constructed": per_run("series.constructed"),
        "reduce.substitute_ms": ms("reduce.substitute_history"),
        "reduce.leaves": per_run("reduce.leaves"),
        "reduce.share": share("reduce.substitute_history"),
        "oracle.integrate_ms": ms("oracle.integrate_reference"),
        "oracle.steps": per_run("oracle.steps"),
        "oracle.extrapolated_lookups": per_run("oracle.extrapolated_lookups"),
        "oracle.compare_ms": ms("oracle.compare"),
        "expr.eval_numeric_calls": per_run("expr.eval_numeric_calls"),
        "oracle.share": share("oracle.integrate_reference", "oracle.compare"),
        "problemfile.parse_ms": ms("problemfile.load_problem"),
        "problem.checks_ms": ms("problem.check_h2", "problem.check_compatibility"),
        "problem.validity_ms": ms("problem.compute_validity"),
        "cli.main_ms": main_ms,
        "cli.startup_ms": cli_p50_ms - main_ms if cli_mode else 0.0,
        # per problem: median traced time over the passes against the
        # untraced pass, then the median over problems
        "trace.overhead_frac": statistics.median(
            statistics.median(pipeline[i::len(cases)]) / untraced
            for i, untraced in enumerate(baseline)
        )
        - 1.0,
    }
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    tracer.dump(trace_path, {"workload": workload, "seed": seed, "passes": len(passes)})
    extra = {
        "problems": (len(cases), "problems"),
        "spans": (str(trace_path.relative_to(ROOT)), "file"),
    }
    if cli_mode:
        extra["cli_p50_ms"] = (cli_p50_ms, "ms")
    _report(workload, seed, grouped, verdict, extra)
    return _result(verdict, metrics, PER_LAYER)


def _result(verdict: dict, metrics: dict, units: dict) -> dict:
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {sorted(units)}")
    return {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
