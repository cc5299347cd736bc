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
    "round": "07f527e1c582b25afa4a2c83020f9a7635bd3a04bd109f993f971c0617022ab3",
    "assign": "3b3347c1711b5ace256b3419a5e38179b029ea01843b9bffc8ac043ca4fe3284",
    "couples": "92801ae16d60cbd1248f05b90be6061d023b88fbb70577480c2fc13d14bd901d",
    "apportion": "15dc143ec01393c685afa624f356844fe9c42c8b85e9d118b450db3423ccc41a",
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
