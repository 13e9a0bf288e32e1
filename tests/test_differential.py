"""Pin of ``scripts/differential.py``: one sha256 over the coefficient
tables, tails, pivot trails, bounds, reference trajectories and compare
errors of the fixtures, seeds 1-30 of the benchmark's families and a few
histories that history substitution refuses.

The hash is the same on CPython 3.10 through 3.13.  A change to the output
of the solver or of the reference changes it; ``python
scripts/differential.py --cases`` prints one hash per case, to find which
cases moved.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "differential.py"
DIFFERENTIAL_DIGEST = "0d7054143899c39b247610558a059091900e404052dc688ae782a41335976815"


def test_differential_hash_matches_recorded_digest():
    spec = importlib.util.spec_from_file_location("differential", SCRIPT)
    differential = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(differential)
    cases = differential.case_hashes()
    assert len(cases) == 3 * 368
    assert differential.total(cases) == DIFFERENTIAL_DIGEST
