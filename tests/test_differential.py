"""Pin of ``scripts/differential.py``: one sha256 over the coefficient
tables, tails, pivot trails, bounds, reference trajectories and compare
errors of the fixtures and seeds 1-30 of the benchmark's families.

The hash is the same on CPython 3.10 through 3.13.  A change to the output
of the solver or of the reference changes it; ``python
scripts/differential.py --cases`` prints one hash per case, to find which
cases moved.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "differential.py"
DIFFERENTIAL_DIGEST = "d96522c9eb4e1116d28ed726a8f92db1fe7f7806352b4934df9cb41349f38e88"


def test_differential_hash_matches_recorded_digest():
    spec = importlib.util.spec_from_file_location("differential", SCRIPT)
    differential = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(differential)
    cases = differential.case_hashes()
    assert len(cases) == 3 * 364
    assert differential.total(cases) == DIFFERENTIAL_DIGEST
