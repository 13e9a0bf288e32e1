"""Pin of ``scripts/differential.py``: one sha256 over the coefficient
tables, tails, pivot trails, bounds, reference trajectories and compare
errors of the fixtures, seeds 1-30 of the benchmark's families, a few
histories that history substitution refuses and one march that overflows.

The hash is the same on CPython 3.10 through 3.13.  A change to the output
of the solver or of the reference changes it; ``python
scripts/differential.py --cases`` prints one hash per case, to find which
cases moved.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "differential.py"
DIFFERENTIAL_DIGEST = "f2e606d09cf409260e1684a9606c0bafad8d91259d1ed029448e7dae901e1619"


def test_differential_hash_matches_recorded_digest():
    spec = importlib.util.spec_from_file_location("differential", SCRIPT)
    differential = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(differential)
    cases = differential.case_hashes()
    assert len(cases) == 3 * 370
    assert differential.total(cases) == DIFFERENTIAL_DIGEST
