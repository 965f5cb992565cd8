"""Each demo runs to exit 0 and prints exactly its pinned stdout.

The sha256 digests were recorded with Python 3.11.7, numpy 2.4.6 and numpy's
bundled OpenBLAS running its SkylakeX kernel. The demos print rounded
floats, so another Python or numpy version, or another OpenBLAS kernel, may
change a last digit; if it does, check the difference by eye and record the
digests again. OpenBLAS picks its kernel at run time (``OPENBLAS_CORETYPE``
forces one): under Haswell 20 of the 138 golden CLI pins and the digest of
demo 01 move, under the generic core 25 pins and that digest. A failing
digest names the kernel it ran under.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import kernel_note, subprocess_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_capacity_basics.py": "1f0a89bc4523674a5bf697a945f6a12904d39aeba93476abc59032f0372a6ccb",
    "02_measurement_protocol.py": "e9dfa1f0688c18a5bf4773017d95c0ec2f8b3f4b8cfa321f285e8aa4571625b7",
    "03_werner_threshold.py": "b77e69aa66d469f731a88990f7d9ab2b152ea8732fab7b0829180011e6171a32",
    "04_family_sweeps.py": "a00a2fbae85dee904b7bb978a5230b36a6df3b854c4c0822c6cc466cc64e966c",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name], kernel_note()
