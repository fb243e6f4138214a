"""The output contract at large n, pinned by the sha256 of its full text.

The golden digests in test_cli.py stop at n <= 12; these reach the factorial
table's n <= 64.

- verify: each case runs `python -m rungelenz verify ... --format json` in a
  fresh interpreter and hashes stdout as it streams (n <= 64 writes about
  400 MB), so no output is held in memory. The digests were recorded from
  the per-label A_z^k routes, before the sweep read them from per-block
  identities. verify reads rho, never the B and C entries of the block.
- tables, hashed in-process: pbar_table(64) and p_table(64, 0.7), each as
  to_json and to_csv, which read the block's B and C entries (C's Gram matrix,
  and the B and C floats, the latter through the platform's cos and sin);
  and the h1 then h2 to_json of every signed block (n, m) with n <= 40, n
  ascending and m from -(n-1) up, joined with newlines. The digests were
  recorded before the B and C entries were joined from every stored row in
  place of mirroring the rows q <= 0.

- blocks: b_block of every (n, m) with 25 <= n <= 64 and m >= 0 against
  oracles.every_row_block, one Racah sum per (q, l) and b and J's bands as
  Fractions: a, rho_num, rho_den, c_gram, b_num, b_den, roots, up, down and
  j_den. Tier-1 compares them for n <= 24 only, and at n = 64 the package's
  L^2 recurrence carries big-int rows across up to 32 steps.

Skipped unless RUNGELENZ_LARGE_N=1; the four sweeps take a few minutes:

    RUNGELENZ_LARGE_N=1 PYTHONPATH=src python -m pytest -q tests/test_large_n.py
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import rungelenz
from rungelenz import diamagnetic, stark
from rungelenz.basis import b_block

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


TABLES = {
    "pbar64": (lambda: stark.pbar_table(64),
               "3b70c6dd5bc418390d6d72783de9d977ab02f78873069cc2ea35a24047357b39",
               "bbb0a6d2d078218077aa35f50ae41b293d02e648b63db4359510dc2f0c7ab7cb"),
    "p64-chi0.7": (lambda: stark.p_table(64, 0.7),
                   "e28adcf78ee7c4a6bd36c70f58817a5264d32e1bd0cf656d0829706ea1629b22",
                   "8d9b2faf853fe6af2336405e2125df1bc0cdd64e3357f07fb67494baf5379200"),
}

H1_H2_N40 = "87d0bb0b982a121b4f39cd81c6deb6c3ef0eec8e20ab2cc88742180b21561329"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(TABLES))
def test_table_digest(case):
    build, want_json, want_csv = TABLES[case]
    table = build()
    assert (_sha256(table.to_json()), _sha256(table.to_csv())) == (want_json, want_csv)


def test_diamagnetic_digest():
    parts = [matrix(n, m).to_json() for n in range(1, 41) for m in range(1 - n, n)
             for matrix in (diamagnetic.h1_matrix, diamagnetic.h2_matrix)]
    assert _sha256("\n".join(parts)) == H1_H2_N40


def test_blocks_equal_the_every_row_route():
    for n in range(25, 65):
        for m in range(n):
            blk, want = b_block(n, m), oracles.every_row_block(n, m)
            assert (blk.a, blk.rho_num, blk.rho_den) \
                == (want.a, want.rho_num, want.rho_den), (n, m)
            assert blk.c_gram == want.c_gram, (n, m)
            assert (blk.b_num, blk.b_den, blk.roots) \
                == (want.b_num, want.b_den, want.roots), (n, m)
            assert (blk.up, blk.down, blk.j_den) == (want.up, want.down, want.j_den), (n, m)
