"""Self-check of the benchmark at smoke sizes; finishes in seconds.

    python3 bench/selfcheck.py

1. Every workload, traced and untraced, exits 0 with no failed item and
   prints exactly the metrics BENCHMARK.json declares, each on its own line
   with its unit (failed_frac as well, on untraced runs).
2. With a corrupted reference digest every workload reports failed items, a
   nonzero failed_frac and `correct: false`, and exits 1.
3. A copy of BENCHMARK.json and bench/ without src/ exits nonzero and prints
   no result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def run(workload, trace, cwd=ROOT, reference=None):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def printed(lines, name, unit) -> bool:
    """A `name value unit` line is among the human-readable lines."""
    return any(len(f) == 3 and f[0] == name and f[2] == unit
               for f in map(str.split, lines))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            code, lines = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or not result.get("correct") or result.get("failed"):
                problems.append(f"{tag}: exit {code}, result {result}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{tag}: metrics {sorted(got)} differ from "
                                f"BENCHMARK.json {sorted(declared[trace])}")
            wanted = dict(declared[trace], **({"failed_frac": "ratio"}
                                              if trace == 0 else {}))
            for name, unit in wanted.items():
                if not printed(lines, name, unit):
                    problems.append(f"{tag}: no line for {name} in {unit}")

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".selfcheck-") as tmp:
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)
        smoke = ref["smoke"]
        for entry, key in ((smoke["sweep"], "stdout_sha256"),
                           (smoke["stark"], "pbar_sha256"),
                           (smoke["diamagnetic"], "sha256")):
            entry[key] = ("0" if entry[key][0] != "0" else "1") + entry[key][1:]
        corrupt = os.path.join(tmp, "reference.json")
        with open(corrupt, "w") as fh:
            json.dump(ref, fh)
        for workload in workloads.WORKLOADS:
            code, lines = run(workload, 0, reference=corrupt)
            result = json.loads(lines[-1]) if lines else {}
            frac = [line.split()[1] for line in lines
                    if line.startswith("failed_frac")]
            if (code != 1 or result.get("correct") is not False
                    or not result.get("failed") or not frac or float(frac[0]) <= 0):
                problems.append(f"{workload} with a corrupted digest: exit {code}, "
                                f"failed_frac {frac}, result {result}")

        bare = os.path.join(tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__", ".selfcheck-*"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines = run("sweep", 0, cwd=bare)
        if code == 0 or lines:
            problems.append(f"without src/: exit {code}, stdout {lines[-1:]}")

    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
