"""The scripts run from a plain checkout: each is started as a child
process without PYTHONPATH, as a reader of the README would start it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


def test_scripts_run_from_a_checkout():
    for name in ("run_examples.py", "convergence_study.py"):
        proc = run_script(name)
        assert (name, proc.returncode, proc.stderr) == (name, 0, "")
        assert proc.stdout
    proc = run_script("order_sweep.py", "--repeat", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    problems = json.loads(proc.stdout)["problems"]
    failing = sorted(name for name, row in problems.items() if "error" in row)
    assert failing == ["example3"]
    assert "ZeroPivotInconsistent" in problems["example3"]["error"]
    # the oracle columns are both timed or both null (integrator refused)
    timed = sorted(name for name, row in problems.items() if row["compare_ms"] is not None)
    referenced = sorted(name for name, row in problems.items() if row["reference_ms"] is not None)
    assert timed == referenced
    assert "example1" in timed and all(problems[name]["compare_ms"] > 0 for name in timed)
