"""Pinned outputs: the traced seed-7 benchmark run of every workload serves
correct outputs whose digest equals the pinned one.

The digest covers the serialized outputs of the first requests of each
workload, so any change to which vertex an LP returns, to the rounding or
to serialization shows here.  A change that alters outputs on purpose
updates the pin and records why.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "round": "8cda691745f2f6bad4a87928b29b8de560a1d8131238c512312b2cd7ecb0cea6",
    "assign": "cde221a05edbd53e2ba676d189cfc458a37234c398152127c3579b0bceeb2dfd",
    "couples": "92801ae16d60cbd1248f05b90be6061d023b88fbb70577480c2fc13d14bd901d",
    "apportion": "8309ecce261e0364e93d097b9281bc7288d451520c8bbe4e48bf9527444c9707",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_traced_seed_7_digest_is_pinned(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"correct": true' in proc.stdout, proc.stdout
    digests = re.findall(r"digest sha256:([0-9a-f]{64})", proc.stdout)
    assert digests == [DIGESTS[workload]], proc.stdout
