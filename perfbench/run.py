"""taydel benchmark: four workloads, every run checked for correctness.

    python3 perfbench/run.py --workload march_long --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``march_long``: proportional-delay systems at N = 16, 32, 48;
- ``history_heavy``: constant and time-varying delays at N = 40;
- ``validate_fine``: solve plus RK4 reference (h = 2e-3) and compare at
  N = 20;
- ``cli_small``: ``taydel solve --json`` child processes at N = 10,
  ``taydel compare`` at N = 20, and inputs the CLI must refuse.

The run repeats whole passes over the workload's problems, one problem at
a time, while another pass still fits in ``--seconds``.  With ``--trace 0``
it reports the end-to-end metrics: set-up time, and each problem's fastest
run scaled by the host speed a calibration loop measures (see
``bench.measure``).  On ``cli_small`` it then runs the known CLI defects
once and prints how each fails; they are not timed or counted.  With
``--trace 1`` it makes one untraced pass, then traced passes, and reports
per-layer metrics derived from the spans, which it also writes to
``perfbench/out/``.  Informational lines come first; the last line of
stdout is the JSON result.  Exit code 2 means the checkout lacks
``src/taydel`` or ``fixtures``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORKLOADS = ("march_long", "history_heavy", "validate_fine", "cli_small")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not ((SRC / "taydel" / "__init__.py").is_file() and FIXTURES.is_dir()):
        print(f"perfbench: {ROOT} has no src/taydel or fixtures/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import workloads

    bench.OUT.mkdir(exist_ok=True)
    runner = workloads.CliRunner(SRC)
    with tempfile.TemporaryDirectory(dir=bench.OUT) as workdir:
        cases = workloads.build_cases(args.workload, args.seed, FIXTURES, Path(workdir))
        if args.trace:
            result = bench.trace(args.workload, args.seed, args.seconds, cases, runner)
        else:
            probes = workloads.defect_cases(Path(workdir)) if args.workload == "cli_small" else []
            result = bench.measure(args.workload, args.seed, args.seconds, cases, runner, probes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
