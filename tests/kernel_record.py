"""The kernels the golden fixtures under tests/data pass on.

tests/data/golden_kernels.json holds harness._run_environment()["kernels"] of
a host where every golden test passes: the OpenBLAS core and the numpy SIMD
dispatch targets, which decide the bits of a float64 result. A golden test
names in its failure message whether the running kernels match that record,
so that bits which differ on other kernels are told apart from bits the code
changed.
"""

import json
from pathlib import Path

from sftlab.harness import _run_environment

RECORD = Path(__file__).parent / "data" / "golden_kernels.json"


def kernels_note(running: dict | None = None) -> str:
    """A golden test's failure message: whether `running` (by default this
    process's kernels) matches the record, and both when it does not."""
    recorded = json.loads(RECORD.read_text())
    running = _run_environment()["kernels"] if running is None else running
    if running == recorded:
        return f"the running kernels match {RECORD.name}, so the kernels do not explain the difference"
    return (f"the running kernels {running} differ from those in {RECORD.name}, {recorded}; "
            "the goldens hold their bits only on the recorded kernels")
