"""rungelenz benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload W --seed S --seconds R --trace 0|1
                         [--size bench|smoke|large] [--reference FILE]

Every solve runs in a fresh interpreter (bench/child.py), so each pays the
memo caches' cold start as a user's process does. Solves repeat until the next
one would overrun --seconds (at least three), and each metric is the median
over the run's solves.

The speed of a shared host drifts by up to 2x over tens of seconds, which
unscaled medians carry from run to run. So this process times a
fixed stdlib-only loop (host_probe) before the first solve and after every
solve, and each solve's times are scaled by the mean of the two probes that
bracket it, divided by PROBE_REF_S: the times read as seconds on a host where
the probe takes PROBE_REF_S. The probe never touches rungelenz and runs in
this process, whose state does not depend on the program, so a change to the
program cannot move it. The run record keeps the unscaled samples and
the host factors.

--trace 0 prints the end-to-end metrics, all scaled as above: setup_s (fresh
interpreter to `import rungelenz` done and the default FactorialTable built;
median of at least nine set-ups), solve_s, items_per_s, cpu_s (solve phase,
self plus pool workers); and peak_rss_mib (the larger of the solving process
and its largest worker). failed_frac is printed with them and is carried by
the result's `failed` / `attempted`.

--trace 1 alternates untraced and traced solves and prints the per-layer
metrics of the traced ones (see bench/tracer.py) with trace.overhead_frac.

The last stdout line is the JSON result. A failed output check makes
`correct` false and the exit code 1; a benchmark that cannot start the
package (no src/rungelenz beside bench/) exits 2 without a result.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_SOLVES = 3
SETUP_SAMPLES = 9
RUN_CAP_S = 160  # keeps a run under 180 s whatever --seconds asks
# host_probe's median on the 2-vCPU Xeon host the benchmark was defined on
PROBE_REF_S = 0.25


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def host_probe() -> float:
    """Seconds for a fixed loop of the kinds of work the solves do: Fraction
    arithmetic, tuple-keyed dict lookups and float math."""
    start = _now()
    memo: dict = {}
    total = Fraction(0)
    acc = 0.0
    for i in range(90000):
        key = (i % 61, i * 7 % 53, i % 5)
        value = memo.get(key)
        if value is None:
            value = memo[key] = Fraction(key[0] + 1, key[1] + 2)
        if i % 16 == 0:
            total += value
        acc += math.sqrt(i + 1.0) * float(value)
    for k in range(1, 3700):
        total += Fraction(1, k * k + 1)
    return _now() - start


def probed(before: float, res: dict | None) -> float:
    """Probe again; give `res` the host factor of the two probes around it."""
    after = host_probe()
    if res is not None:
        res["host"] = (before + after) / (2 * PROBE_REF_S)
    return after


def spawn(args, extra: list[str], deadline: float) -> tuple[int, dict | None]:
    """Run one child to completion; return its exit code and JSON result."""
    t0 = _now()
    cmd = [sys.executable, "-I", os.path.join(HERE, "child.py"), repr(t0),
           "--size", args.size, "--seed", str(args.seed), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        print(f"child timed out: {' '.join(cmd)}", file=sys.stderr)
        return -1, None
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def solve_once(args, deadline: float, traced: bool = False) -> dict:
    extra = ["--workload", args.workload, "--reference", args.reference]
    code, res = spawn(args, extra + (["--trace"] if traced else []), deadline)
    expected = workloads.items(args.workload,
                               workloads.SIZES[args.size][args.workload])
    if res is None or "failed" not in res:
        return {"items": expected, "failed": expected, "ok": False,
                "notes": [f"child exited {code} without a result"]}
    res["ok"] = code == 0 and res["failed"] == 0
    return res


def run_record(args, solves: list[dict]) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "rungelenz", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed,
        "seed_used": args.workload in workloads.SEEDED,
        "size": args.size, "sizes": workloads.SIZES[args.size][args.workload],
        "items_per_solve": workloads.items(args.workload,
                                           workloads.SIZES[args.size][args.workload]),
        "solves": len(solves), "trace": args.trace,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "cpu": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="bench")
    parser.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = parser.parse_args()
    args.reference = os.path.abspath(args.reference)

    start = _now()
    deadline = start + RUN_CAP_S
    # untimed first start: compiles bytecode and proves the package imports
    code, warm = spawn(args, ["--setup-only"], deadline)
    if code != 0 or warm is None:
        print(f"cannot start rungelenz from {ROOT}/src", file=sys.stderr)
        return 2
    if not os.path.isfile(args.reference):
        print(f"no reference file {args.reference}", file=sys.stderr)
        return 2

    plain: list[dict] = []
    traced: list[dict] = []
    probe = host_probe()
    while True:
        plain.append(solve_once(args, deadline))
        probe = probed(probe, plain[-1])
        if args.trace:
            traced.append(solve_once(args, deadline, traced=True))
            probe = probed(probe, traced[-1])
        elapsed = _now() - start
        rounds = len(plain)
        if rounds >= MIN_SOLVES and elapsed * (rounds + 1) / rounds > args.seconds:
            break
        if elapsed * (rounds + 1) / rounds > RUN_CAP_S:
            break
    solves = plain + traced
    timed = [s for s in plain if "solve_s" in s]
    setups = list(timed)
    while not args.trace and len(setups) < SETUP_SAMPLES and _now() < deadline:
        code, res = spawn(args, ["--setup-only"], deadline)
        probe = probed(probe, res)
        if code == 0 and res is not None:
            setups.append(res)

    attempted = sum(s["items"] for s in solves)
    failed = sum(s["failed"] for s in solves)
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0 and timed:
        median = statistics.median
        metrics = {
            "setup_s": (median(s["setup_s"] / s["host"] for s in setups), "s"),
            "solve_s": (median(s["solve_s"] / s["host"] for s in timed), "s"),
            "items_per_s": (median(s["items"] * s["host"] / s["solve_s"]
                                   for s in timed), "1/s"),
            "cpu_s": (median(s["cpu_s"] / s["host"] for s in timed), "s"),
            "peak_rss_mib": (median(s["peak_rss_mib"] for s in timed), "MiB"),
        }
    layered = [s for s in traced if "layers" in s]
    if args.trace == 1 and timed and layered:
        for name, (_, unit) in layered[0]["layers"].items():
            # a count stays a count that some solve produced
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = (median(s["layers"][name][0] for s in layered), unit)
        metrics["trace.overhead_frac"] = (
            statistics.median(s["solve_s"] / s["host"] for s in layered)
            / statistics.median(s["solve_s"] / s["host"] for s in timed) - 1,
            "ratio")

    record = run_record(args, solves)
    record["notes"] = sorted({n for s in solves for n in s.get("notes", [])})
    record["probe_ref_s"] = PROBE_REF_S
    record["host_samples"] = [s["host"] for s in timed]
    record["unscaled_solve_s_samples"] = [s["solve_s"] for s in timed]
    if args.trace == 0:
        record["unscaled_setup_s_samples"] = [s["setup_s"] for s in setups]
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value!r} {unit}")
    if args.trace == 0:
        print(f"{'failed_frac':<40} {failed / attempted!r} ratio")
    print("record " + json.dumps(record, sort_keys=True))
    ok = failed == 0 and all(s["ok"] for s in solves)
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
