"""Write bench/reference.json: the output digests the checks compare against.

    python3 bench/record_reference.py

The reference is the output contract, so it is recorded once, at the commit
that defines the benchmark, and never re-recorded to make a check pass.
Recording also confirms that `verify --jobs 2` prints the same bytes as the
serial sweep, since both workloads are checked against one digest.
"""
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def record(size: str, workload: str) -> dict:
    cmd = [sys.executable, "-I", os.path.join(HERE, "child.py"),
           repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
           "--workload", workload, "--size", size, "--record"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["reference"]


def main() -> int:
    reference = {}
    for size in sorted(workloads.SIZES):
        entries = {w: record(size, w) for w in ("sweep", "stark", "diamagnetic")}
        if record(size, "sweep-par") != entries["sweep"]:
            print(f"verify --jobs 2 output differs from serial at size {size}",
                  file=sys.stderr)
            return 1
        reference[size] = entries
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
