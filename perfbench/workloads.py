"""The workloads: which problems each runs, and how one run is made
and checked.

Every run goes through the layers in the order ``taydel.engine.solve`` and
``taydel compare`` use them: load_problem -> check_h2/check_compatibility
-> compute_validity -> substitute_history -> solve_reduced ->
estimate_error [-> integrate_reference -> compare].  Layers are called
through their module attributes, so the traced run's wrappers see them.
Runs are strictly sequential: one problem, or one CLI child process, at a
time.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import families
import gate
from taydel import cli, engine, oracle, problemfile, reduce
from taydel import problem as problem_layer

MARCH_ORDERS = (16, 32, 48)
HISTORY_ORDER = 40
VALIDATE_ORDER = 20
VALIDATE_STEP = 2e-3
VALIDATE_SAMPLES = 200
CLI_ORDER = 10
# at N = 10 the ratio-based bound of some generated systems is below the
# measured error (see defect_cases); at N = 20 it held on seeds 0-99
CLI_COMPARE_ORDER = 20
CLI_TIMEOUT_S = 60
# runs `taydel` through its console-script entry point; `python -m
# taydel.cli` has no __main__ guard and would exit 0 without doing anything
CLI_LAUNCHER = "import sys; from taydel.cli import entry; sys.argv[0] = 'taydel'; entry()"


@dataclass(frozen=True)
class Case:
    id: str
    system: str
    path: Path
    order: int
    command: str  # "solve" or "compare"
    expected_exit: int = 0

    def argv(self) -> list[str]:
        if self.command == "compare":
            return ["compare", str(self.path), "--order", str(self.order)]
        return ["solve", str(self.path), "--order", str(self.order), "--json"]


@dataclass
class Run:
    case: Case
    latency_s: float
    failures: list = field(default_factory=list)
    digest: str = ""
    max_error: float | None = None


def _write(workdir: Path, problems) -> list[tuple[str, Path]]:
    out = []
    for generated in problems:
        path = workdir / f"{generated.name}.fde"
        path.write_text(generated.text)
        out.append((generated.name, path))
    return out


def build_cases(workload: str, seed: int, fixtures: Path, workdir: Path) -> list[Case]:
    """The problem runs of one pass, in order; generated problems come from
    ``seed`` and reach the program only as ``.fde`` files."""

    def fixture(*names):
        return [(name, fixtures / f"{name}.fde") for name in names]

    if workload == "march_long":
        systems = fixture("example1") + _write(workdir, families.march_family(seed))
        return [
            Case(f"{name}@N{n}", name, path, n, "solve")
            for name, path in systems
            for n in MARCH_ORDERS
        ]
    if workload == "history_heavy":
        systems = fixture("example2", "example3_u1") + _write(
            workdir, families.history_family(seed)
        )
        return [
            Case(f"{name}@N{HISTORY_ORDER}", name, path, HISTORY_ORDER, "solve")
            for name, path in systems
        ]
    if workload == "validate_fine":
        systems = fixture("example1", "example2", "example3_u1") + _write(
            workdir, families.validate_family(seed)
        )
        return [
            Case(f"{name}@N{VALIDATE_ORDER}", name, path, VALIDATE_ORDER, "compare")
            for name, path in systems
        ]
    if workload == "cli_small":
        # one system of each family: a child process costs about 120 ms
        # whatever it solves, and fewer cases per pass give each more passes
        solves = _write(workdir, families.march_family(seed)[:1] + families.history_family(seed)[:1])
        compares = _write(workdir, families.validate_family(seed)[:1])
        cases = [Case(f"solve:{n}", n, p, CLI_ORDER, "solve") for n, p in solves]
        cases += [Case(f"compare:{n}", n, p, CLI_COMPARE_ORDER, "compare") for n, p in compares]
        cases.append(
            Case("solve:example3", "example3", fixtures / "example3.fde", CLI_ORDER, "solve", 3)
        )
        for generated, code in families.rejected_inputs():
            (_, path), = _write(workdir, [generated])
            cases.append(Case(f"solve:{generated.name}", generated.name, path, CLI_ORDER, "solve", code))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def defect_cases(workdir: Path) -> list[Case]:
    """CLI runs that fail because of known program defects: the ROADMAP
    4(b) inputs, and a generated system (validate family, seed 2) whose
    ratio-based truncation bound is below the measured error at N = 10, so
    ``taydel compare`` exits 4.  They do not depend on the seed and are run
    once per ``cli_small`` run, outside the timed passes and the counts of
    attempted and failed operations, so that those counts do not depend on
    how many passes fit in the run."""
    cases = []
    for generated, code in families.defect_inputs():
        (_, path), = _write(workdir, [generated])
        cases.append(Case(f"solve:{generated.name}", generated.name, path, CLI_ORDER, "solve", code))
    underestimated = next(g for g in families.validate_family(2) if g.name == "validate_p2n1")
    (_, path), = _write(workdir, [families.GeneratedProblem("bound_p2n1", underestimated.text)])
    cases.append(Case("compare:bound_p2n1", "bound_p2n1", path, CLI_ORDER, "compare"))
    return cases


# in-process pipeline -------------------------------------------------------------

@dataclass
class Outcome:
    reduced: object = None
    solution: object = None
    estimate: object = None
    errors: tuple | None = None
    checks_failed: list = field(default_factory=list)
    exc: Exception | None = None


def pipeline(case: Case) -> Outcome:
    """One problem run through the library, as ``taydel solve``/``compare``
    would make it."""
    out = Outcome()
    problem = problemfile.load_problem(case.path)
    if not problem_layer.check_h2(problem).ok:
        out.checks_failed.append("h2 check failed")
        return out
    if not problem_layer.check_compatibility(problem).ok:
        out.checks_failed.append("compatibility check failed")
    validity = problem_layer.compute_validity(problem)
    out.reduced = reduce.substitute_history(
        problem, trunc_order=case.order, validity=validity
    )
    out.solution = engine.solve_reduced(out.reduced)
    out.estimate = engine.estimate_error(out.solution, validity.upper)
    if case.command == "compare":
        trajectory = oracle.integrate_reference(out.reduced, VALIDATE_STEP, validity.upper)
        out.errors = oracle.compare(
            out.solution, trajectory, (0.0, validity.upper), VALIDATE_SAMPLES
        )
    return out


def timed_pipeline(case: Case) -> tuple[float, Outcome]:
    # every run starts from an empty collector, so that a full collection of
    # the earlier runs' garbage does not land in some runs and not others
    gc.collect()
    start = time.perf_counter()
    try:
        outcome = pipeline(case)
    except Exception as exc:  # a failed run is counted, not fatal
        outcome = Outcome(exc=exc)
    return time.perf_counter() - start, outcome


# (case id, table digest) pairs whose table passed the residual check
_verified: set[tuple[str, str]] = set()


def _table_failures(run: Run, reduced, rows) -> list:
    """``gate.table_failures``, once per distinct table of a case: a later
    pass that prints the same 17-digit table gave the same result, and
    skipping the residual check leaves more of the run for timed passes."""
    key = (run.case.id, run.digest)
    if key in _verified:
        return []
    failures = gate.table_failures(reduced, rows)
    if not failures:
        _verified.add(key)
    return failures


def check_outcome(case: Case, latency_s: float, outcome: Outcome) -> Run:
    run = Run(case, latency_s)
    run.failures += gate.exception_failures(outcome.exc)
    run.failures += [gate.Failure("error", reason) for reason in outcome.checks_failed]
    if outcome.solution is None:
        return run
    rows = [s.coeffs for s in outcome.solution.series]
    run.digest = gate.table_digest(rows)
    run.failures += _table_failures(run, outcome.reduced, rows)
    if outcome.errors is not None:
        run.max_error = max(outcome.errors)
        run.failures += gate.compare_failures(
            outcome.solution.var_names, outcome.errors, outcome.estimate.bound
        )
    return run


# CLI child processes -------------------------------------------------------------

class CliRunner:
    """Runs ``taydel`` as a child process with ``src`` on its path, and the
    same command line in process for the traced run."""

    def __init__(self, src: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self._reduced: dict[str, object] = {}

    def spawn(self, case: Case) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_LAUNCHER, *case.argv()],
            capture_output=True,
            text=True,
            env=self.env,
            timeout=CLI_TIMEOUT_S,
        )
        return time.perf_counter() - start, proc

    @staticmethod
    def in_process(case: Case) -> tuple[float, int | None]:
        """``cli.main`` on the same arguments; returns (seconds, exit code or
        None when it raised)."""
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(case.argv())
        except Exception:  # the subprocess run already counts this failure
            code = None
        return time.perf_counter() - start, code

    def reduced(self, case: Case):
        """The reduced system the CLI solved, rebuilt here to check its table."""
        if case.id not in self._reduced:
            problem = problemfile.load_problem(case.path)
            self._reduced[case.id] = reduce.substitute_history(problem, trunc_order=case.order)
        return self._reduced[case.id]

    def check(self, case: Case, latency_s: float, proc) -> Run:
        run = Run(case, latency_s, digest=f"exit {proc.returncode}")
        run.failures += gate.exit_failures(case.expected_exit, proc.returncode, proc.stderr)
        if proc.returncode != 0:
            return run
        if case.command == "solve":
            try:
                payload = json.loads(proc.stdout)
                rows = [v["coefficients"] for v in payload["variables"]]
            except (ValueError, KeyError, TypeError) as exc:
                run.failures.append(gate.Failure("wrong", f"unreadable JSON: {exc}"))
                return run
            run.digest = gate.table_digest(rows)
            try:
                reduced = self.reduced(case)
            except Exception as exc:  # program accepted a file it cannot load
                run.failures.append(gate.Failure("error", f"reload raised {type(exc).__name__}"))
                return run
            run.failures += _table_failures(run, reduced, rows)
        else:
            run.digest = proc.stdout
            names, errors, bounds = [], [], []
            try:
                for line in proc.stdout.splitlines():
                    name, _, rest = line.partition(": max_error=")
                    error, _, bound = rest.partition(" bound=")
                    names.append(name)
                    errors.append(float(error))
                    bounds.append(
                        None if bound == "n/a" else 0.0 if bound.startswith("0 ") else float(bound)
                    )
                run.max_error = max(errors)
            except ValueError as exc:
                run.failures.append(gate.Failure("wrong", f"unreadable compare output: {exc}"))
                return run
            run.failures += gate.compare_failures(names, errors, bounds)
        return run
