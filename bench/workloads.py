"""The benchmark's workloads: sizes, inputs, the solve, and its output checks.

Each workload calls rungelenz through its public entry points and produces
the text a user of that entry point would see. The checks run after the
solve's clock stops. An item is one sum-rule report (sweep, sweep-par), one
table entry (stark) or one matrix entry (diamagnetic); a failed check marks
the items it covers as failed, and an exception fails them all.

This module imports rungelenz lazily, so `run.py` can read sizes and item
counts without importing the package under test.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("sweep", "sweep-par", "stark", "diamagnetic")

# "bench" is what the benchmark measures; "smoke" is for the self-check;
# "large" holds the starting sizes of the workload definitions, where the
# count anchors were first taken (n <= 10 sweeps, p_table(20), n <= 12 H1/H2).
SIZES = {
    "bench": {"sweep": {"max_n": 7}, "sweep-par": {"max_n": 7, "jobs": 2},
              "stark": {"n": 16, "pbar_n": 14, "chis": 8},
              "diamagnetic": {"max_n": 10}},
    "smoke": {"sweep": {"max_n": 3}, "sweep-par": {"max_n": 3, "jobs": 2},
              "stark": {"n": 5, "pbar_n": 4, "chis": 2},
              "diamagnetic": {"max_n": 3}},
    "large": {"sweep": {"max_n": 10}, "sweep-par": {"max_n": 10, "jobs": 2},
              "stark": {"n": 20, "pbar_n": 18, "chis": 8},
              "diamagnetic": {"max_n": 12}},
}

POWERS = "1,2,3,4,5,6,7,8"
FIXED_CHI = 0.7  # the p table stored in the reference, recomputed by the check
P_TOL = 1e-12
SEEDED = {"stark"}  # the others ignore the seed: their order is the output contract


def items(workload: str, size: dict) -> int:
    """Items one solve produces."""
    if workload in ("sweep", "sweep-par"):
        return sum(n * n for n in range(1, size["max_n"] + 1)) * len(POWERS.split(","))
    if workload == "stark":
        return size["pbar_n"] ** 2 + size["chis"] * size["n"] ** 2
    return 2 * sum((n - abs(m)) ** 2 for n in range(1, size["max_n"] + 1)
                   for m in range(-(n - 1), n))


def inputs(workload: str, size: dict, seed: int) -> dict:
    """The solve's inputs; only stark draws from the seed (chi in (0, 2 pi))."""
    if workload != "stark":
        return dict(size)
    rng = random.Random(seed)
    chis = []
    while len(chis) < size["chis"]:
        chi = rng.uniform(0.0, 2 * math.pi)
        if 0.0 < chi < 2 * math.pi:
            chis.append(chi)
    return dict(size, chi=chis)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- solves -------------------------------------------------------------

def solve(workload: str, inp: dict) -> dict:
    """Run the workload; return everything the checks need."""
    if workload in ("sweep", "sweep-par"):
        from rungelenz import cli

        argv = ["verify", "--max-n", str(inp["max_n"]), "--powers", POWERS,
                "--format", "json"]
        if "jobs" in inp:
            argv += ["--jobs", str(inp["jobs"])]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return {"code": code, "stdout": buf.getvalue()}
    if workload == "stark":
        from rungelenz import stark

        pbar = stark.pbar_table(inp["pbar_n"])
        pbar_json = pbar.to_json()
        tables = [stark.p_table(inp["n"], chi) for chi in inp["chi"]]
        return {"pbar": pbar, "pbar_json": pbar_json, "p": tables,
                "p_json": [t.to_json() for t in tables]}
    from rungelenz import diamagnetic

    parts = []
    for n in range(1, inp["max_n"] + 1):
        for m in range(-(n - 1), n):
            parts.append(diamagnetic.h1_matrix(n, m).to_json())
            parts.append(diamagnetic.h2_matrix(n, m).to_json())
    return {"text": "\n".join(parts)}


# -- checks -------------------------------------------------------------

def check(workload: str, inp: dict, out: dict, ref: dict) -> tuple[int, list[str]]:
    """Failed items and the names of the checks that failed."""
    if workload in ("sweep", "sweep-par"):
        return _check_sweep(inp, out, ref["sweep"])
    if workload == "stark":
        return _check_stark(inp, out, ref["stark"])
    expected = items(workload, inp)
    if sha256(out["text"]) != ref["diamagnetic"]["sha256"]:
        return expected, ["diamagnetic digest"]
    return 0, []


def _check_sweep(inp: dict, out: dict, ref: dict) -> tuple[int, list[str]]:
    expected = items("sweep", inp)
    whole = []
    if out["code"] != 0:
        whole.append(f"exit code {out['code']}")
    if sha256(out["stdout"]) != ref["stdout_sha256"]:
        whole.append("stdout digest")
    try:
        reports = json.loads(out["stdout"])["reports"]
    except (ValueError, KeyError, TypeError):
        return expected, whole + ["stdout is not a verify report"]
    if len(reports) != expected:
        whole.append(f"{len(reports)} reports, expected {expected}")
    if whole:
        return expected, whole
    bad = sum(r["verdict"] != "exact-match" for r in reports)
    return bad, [f"{bad} mismatches"] if bad else []


def _check_stark(inp: dict, out: dict, ref: dict) -> tuple[int, list[str]]:
    from rungelenz import stark

    failed: set[tuple] = set()
    notes = []
    pbar_n, n = inp["pbar_n"], inp["n"]
    pbar = out["pbar"].entries
    if sha256(out["pbar_json"]) != ref["pbar_sha256"]:
        notes.append("pbar digest")
        failed |= {("pbar", l, lp) for l in range(pbar_n) for lp in range(pbar_n)}
    for l, row in enumerate(pbar):
        if sum(row, Fraction(0)) != 1:
            notes.append(f"pbar row {l} sum")
            failed |= {("pbar", l, lp) for lp in range(pbar_n)}

    for k, table in enumerate(out["p"]):
        p = table.entries
        for l in range(n):
            if abs(math.fsum(p[l]) - 1.0) > P_TOL:
                notes.append(f"p[{k}] row {l} sum")
                failed.update(("p", k, l, lp) for lp in range(n))
            for lp in range(l + 1, n):
                if abs((2 * l + 1) * p[l][lp] - (2 * lp + 1) * p[lp][l]) > P_TOL:
                    notes.append(f"p[{k}] reciprocity ({l},{lp})")
                    failed.update({("p", k, l, lp), ("p", k, lp, l)})
    # the stored table probes the same path at a fixed chi; if it disagrees,
    # every p entry of the solve is suspect
    fixed = stark.p_table(n, FIXED_CHI).entries
    stored = ref["p_fixed"]
    if len(fixed) != len(stored) or any(
            abs(a - b) > P_TOL for row, srow in zip(fixed, stored)
            for a, b in zip(row, srow)):
        notes.append("p table at the fixed chi differs from the reference")
        failed.update(("p", k, l, lp) for k in range(len(out["p"]))
                      for l in range(n) for lp in range(n))
    return len(failed), notes


def reference_entry(workload: str, inp: dict, out: dict) -> dict:
    """The reference record of a solve made at the seed commit."""
    if workload in ("sweep", "sweep-par"):
        return {"stdout_sha256": sha256(out["stdout"])}
    if workload == "stark":
        from rungelenz import stark

        return {"pbar_sha256": sha256(out["pbar_json"]),
                "p_fixed": [list(row) for row in
                            stark.p_table(inp["n"], FIXED_CHI).entries]}
    return {"sha256": sha256(out["text"])}
