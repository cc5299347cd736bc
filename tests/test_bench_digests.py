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
    "round": "bea9a9780ac752c155ee97b35b85c3701c70e5b04f47fde3ef09cc1bf60d1891",
    "assign": "18fa004941a5ce42f0edbc18941ab9d855844078b566ae00e3a7d944ba6dc663",
    "couples": "9eb7c494d69cf3d1c126126e6fafdf8d32f6dfb238a04b752e9a1ee8793ec39c",
    "apportion": "1565092eebac474c1fa33f7d1c6b80cfa769f8e700c675598da7b54057eaf571",
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
