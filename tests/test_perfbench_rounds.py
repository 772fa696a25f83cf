"""The benchmark's requests run and pass their oracles against this source tree.

``perfbench/workloads.py`` is imported as it stands, and no bytecode is
written beside it, so a library change that breaks a call the benchmark
makes fails here first.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
sys.dont_write_bytecode, _writes = True, sys.dont_write_bytecode
import workloads  # noqa: E402  (needs the path above)

sys.dont_write_bytecode = _writes


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round_zero_passes_every_oracle(name):
    (round_zero,) = workloads.WORKLOADS[name].make_rounds(1, 1)
    assert round_zero
    failures = [(req.key, msg) for req in round_zero if (msg := req.check(req.run())) is not None]
    assert failures == []
