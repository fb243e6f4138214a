"""One solve in a fresh interpreter: set up, solve, check; print one JSON line.

Started by run.py as

    python3 -I bench/child.py T0 --workload W --seed S --size P [--trace]
                              [--setup-only] [--record | --reference FILE]

where T0 is the CLOCK_MONOTONIC reading taken just before the start, so the
set-up time covers interpreter start, `import rungelenz` and building the
default FactorialTable. The solve's own output is captured in memory.
"""
import os
import resource
import sys
import time

_T0 = float(sys.argv[1])
_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
sys.path[:0] = [_SRC, _HERE]

import rungelenz  # noqa: E402
from rungelenz.pfrational import default_table  # noqa: E402

default_table()
_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("t0", type=float)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="bench")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true",
                        help="print the reference record instead of checking")
    parser.add_argument("--reference")
    args = parser.parse_args()

    if not os.path.abspath(rungelenz.__file__).startswith(_SRC + os.sep):
        print(f"imported rungelenz from {rungelenz.__file__}, not {_SRC}",
              file=sys.stderr)
        return 2
    result = {"setup_s": _READY - args.t0}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    inp = workloads.inputs(args.workload, workloads.SIZES[args.size][args.workload],
                           args.seed)
    expected = workloads.items(args.workload, inp)
    tracer = None
    if args.trace:
        import tracer as tracer_module
        tracer = tracer_module.install()

    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        out = workloads.solve(args.workload, inp)
    except Exception:  # a solve that raises fails all its items
        traceback.print_exc()
        result.update(items=expected, failed=expected, notes=["solve raised"])
        print(json.dumps(result))
        return 1
    solve_s = time.perf_counter() - start
    cpu_s = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(solve_s=solve_s, cpu_s=cpu_s, peak_rss_mib=rss_kib / 1024,
                  items=expected)
    if tracer is not None:
        result["layers"] = tracer.metrics(solve_s)

    if args.record:
        result["reference"] = workloads.reference_entry(args.workload, inp, out)
        print(json.dumps(result))
        return 0
    with open(args.reference) as fh:
        ref = json.load(fh)[args.size]
    try:
        failed, notes = workloads.check(args.workload, inp, out, ref)
    except Exception:  # a check that raises fails all items
        traceback.print_exc()
        failed, notes = expected, ["check raised"]
    result.update(failed=failed, notes=notes)
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
