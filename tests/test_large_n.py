"""verify's output at large n, pinned by the sha256 of its full JSON text.

The golden digests in test_cli.py stop at n <= 12; these reach the factorial
table's n <= 64. Each case runs `python -m rungelenz verify ... --format json`
in a fresh interpreter and hashes stdout as it streams (n <= 64 writes about
400 MB), so no output is held in memory. The digests were recorded from the
per-label A_z^k routes, before the sweep read them from per-block identities.

Skipped unless RUNGELENZ_LARGE_N=1; the four sweeps take a few minutes:

    RUNGELENZ_LARGE_N=1 PYTHONPATH=src python -m pytest -q tests/test_large_n.py
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rungelenz

pytestmark = pytest.mark.skipif(os.environ.get("RUNGELENZ_LARGE_N") != "1",
                                reason="set RUNGELENZ_LARGE_N=1 to run the large-n sweeps")

DIGESTS = {
    "n24-powers1-8": (("--max-n", "24", "--powers", "1,2,3,4,5,6,7,8"),
                      "02e06872150e718caf6fd8927eeaf9643963c696311af6a5d01477375770e57c"),
    "n48-jobs1": (("--max-n", "48", "--jobs", "1"),
                  "efa7978ca4eaa2a10e34b6343e1b62685dc8662dfdda58218690179fd160d636"),
    "n48-jobs2": (("--max-n", "48", "--jobs", "2"),
                  "efa7978ca4eaa2a10e34b6343e1b62685dc8662dfdda58218690179fd160d636"),
    "n64": (("--max-n", "64"),
            "57c02ba95ec9e04697378c16338588c02065cc4932407467e51f295c150dedff"),
}


def _verify_sha256(args: tuple[str, ...]) -> str:
    """sha256 of `verify *args --format json` stdout, read in chunks; the
    sweep must exit 0."""
    path = [str(Path(rungelenz.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    digest = hashlib.sha256()
    with subprocess.Popen([sys.executable, "-m", "rungelenz", "verify", *args,
                           "--format", "json"], stdout=subprocess.PIPE, env=env) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
    assert proc.returncode == 0, args
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_verify_output_digest(case):
    args, want = DIGESTS[case]
    if "--jobs" in args and (os.cpu_count() or 1) < int(args[args.index("--jobs") + 1]):
        pytest.skip("needs more CPUs than this host has")
    assert _verify_sha256(args) == want
