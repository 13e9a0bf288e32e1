"""Tests of the benchmark itself: seeded generation, the correctness gate,
the declared metrics and the refusal to run outside a checkout.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import families  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
from taydel import load_problem, parse_problem, solve_reduced, substitute_history  # noqa: E402

GENERATORS = (families.march_family, families.history_family, families.validate_family)


@pytest.mark.parametrize("generate", GENERATORS)
def test_same_seed_gives_byte_identical_files(generate):
    assert [g.text for g in generate(7)] == [g.text for g in generate(7)]
    assert [g.text for g in generate(7)] != [g.text for g in generate(8)]


@pytest.mark.parametrize("generate", GENERATORS)
def test_every_generated_file_parses(generate):
    for seed in range(20):
        for generated in generate(seed):
            problem = parse_problem(generated.text, name=generated.name)
            assert problem.var_names


def test_march_family_is_a_quarter_neutral():
    problems = [parse_problem(g.text) for g in families.march_family(3)]
    neutral = sum(
        len({eq for eq, _ in p.structure().neutral_proportional_refs}) for p in problems
    )
    assert (neutral, sum(p.num_vars for p in problems)) == (3, 12)


def test_history_family_init_matches_phi():
    from taydel import check_compatibility

    for seed in range(10):
        for generated in families.history_family(seed):
            assert check_compatibility(parse_problem(generated.text)).ok


def _example1(order=10):
    reduced = substitute_history(load_problem(ROOT / "fixtures" / "example1.fde"), trunc_order=order)
    return reduced, [list(s.coeffs) for s in solve_reduced(reduced).series]


def test_gate_accepts_the_marched_table():
    reduced, rows = _example1()
    assert gate.table_failures(reduced, rows) == []


def test_gate_flags_a_perturbed_coefficient():
    reduced, rows = _example1()
    rows[2][5] *= 1 + 1e-6
    (failure,) = gate.table_failures(reduced, rows)
    assert failure.kind == "wrong" and "residual" in failure.reason


def test_gate_flags_a_non_finite_coefficient():
    reduced, rows = _example1()
    rows[0][3] = None
    (failure,) = gate.table_failures(reduced, rows)
    assert failure.kind == "wrong" and "non-finite" in failure.reason


def test_gate_digest_changes_with_the_last_digit():
    reduced, rows = _example1()
    before = gate.table_digest(rows)
    rows[1][4] = math.nextafter(rows[1][4], math.inf)
    assert gate.table_digest(rows) != before


def test_gate_flags_compare_errors_above_bound():
    assert gate.compare_failures(["u"], [1e-10], [0.0]) == []
    assert gate.compare_failures(["u"], [2e-9], [None]) == []
    (failure,) = gate.compare_failures(["u"], [2e-9], [1e-9])
    assert failure.kind == "wrong"


def test_gate_exit_contract():
    assert gate.exit_failures(0, 0, "") == []
    assert gate.exit_failures(2, 2, "error: bad input\n") == []
    assert [f.reason for f in gate.exit_failures(1, 0, "")] == ["exit code 0, expected 1"]
    traceback = "Traceback (most recent call last):\n  ...\nIndexError: x\n"
    reasons = [f.reason for f in gate.exit_failures(1, 1, traceback)]
    assert "traceback on stderr" in reasons
    assert "error message is not one stderr line" in reasons


def test_rejected_inputs_are_refused_as_the_contract_says(tmp_path):
    # they run in the timed cli_small passes, so none may count as failed
    from taydel import cli

    for generated, code in families.rejected_inputs():
        path = tmp_path / f"{generated.name}.fde"
        path.write_text(generated.text)
        assert cli.main(["solve", str(path), "--order", "10", "--json"]) == code


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "march_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
