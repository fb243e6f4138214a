"""Batch command-line surface: compute, verify, reproduce the worked example.

Exit codes: 0 all canonical checks passed, 1 at least one mismatch,
2 usage error, 141 (128 + SIGPIPE) stdout closed by its reader before the
output was written, which ends the run quietly. Printed-form discrepancies
are warnings and never affect the exit status. Sweeps are merged in
parameter order regardless of how many worker processes ran them.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from itertools import chain

from .basis import ParabolicLabel, b_coeff
from .diamagnetic import h1_matrix, h2_matrix
from .errors import DomainError, FactorialLimitError
from .halfint import HalfInt
from .operators import beta
from .pfrational import default_table
from .radical import render_exact
from .stark import p_bar, p_transition
from .sumrules import az_moment_generic, sum_rule_az, sum_rule_l2
from .wigner import clebsch_gordan, wigner_3jm, wigner_6j

TABLE1_PARAMS = ParabolicLabel(n1=3, n2=1, m=4)  # the n=9 worked example
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a SIGPIPE kill
_PARENT_POLL_S = 0.5  # how often a pool worker checks that the main process lives


class _NegativeNumber:
    """Stands in for argparse's negative-number pattern: -p/q, or any
    negative number float() accepts (-2, -0.5, -1e-3, -inf, -nan)."""

    @staticmethod
    def match(text: str) -> bool:
        if not text.startswith("-"):
            return False
        if re.fullmatch(r"-\d+/\d+", text):
            return True
        try:
            float(text)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    # let negative numbers like -1/2 or -inf pass as positionals
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber


def _table1_reports() -> list:
    p = TABLE1_PARAMS
    return [sum_rule_l2(p)] + [sum_rule_az(p, k) for k in (2, 3, 4)]


_ANALYTIC = {
    "l2": "[n^2-1+m^2-(n1-n2)^2]/2",
    "az2": "(n1-n2)^2",
    "az3": "(n1-n2)^3",
    "az4": "(n1-n2)^4",
    "az-moment": "(n1-n2)^p",
}


def _cmd_table1(args) -> int:
    reports = _table1_reports()
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        p = TABLE1_PARAMS
        print(f"n={p.n} m={p.m} n1={p.n1} n2={p.n2} (q={p.q})")
        for label, r in zip(("S1", "S2", "S3", "S4"), reports):
            print(f"{label}  {r.rule:<4} {_ANALYTIC[r.rule]:<28} "
                  f"= {render_exact(r.lhs)}  [{r.verdict}]")
    return 0 if all(r.ok for r in reports) else 1


def _sweep_tuples(args, parser) -> list[tuple]:
    powers = []
    for tok in args.powers.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            powers.append(int(tok))
        except ValueError:
            parser.error(f"bad power {tok!r}")
    if not powers or any(p < 1 or p > 8 for p in powers):
        parser.error("--powers needs integers in 1..8")
    if args.min_n < 1:
        parser.error(f"--min-n must be >= 1, got {args.min_n}")
    if args.min_n > args.max_n:
        parser.error("empty n range")
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        parser.error(f"--jobs needs an integer in 1..{cpus} (the CPU count), "
                     f"got {args.jobs}")
    # (2n-1)! is the largest factorial a block of n needs: fail before the sweep
    limit = default_table().limit
    if 2 * args.max_n - 1 > limit:
        raise FactorialLimitError(needed=2 * args.max_n - 1, limit=limit)
    tuples = []
    for n in range(args.min_n, args.max_n + 1):
        for m in range(-(n - 1), n):
            if args.m is not None and m != args.m:
                continue
            upper = n - abs(m) - 1
            for n1 in range(upper + 1):
                n2 = upper - n1
                if args.n1 is not None and n1 != args.n1:
                    continue
                if args.n2 is not None and n2 != args.n2:
                    continue
                tuples.append((n, m, n1, n2, tuple(sorted(powers))))
    if not tuples:
        parser.error("sweep selects no parameter tuples")
    return tuples


def _verify_worker(task: tuple) -> list[dict]:
    n, m, n1, n2, powers = task
    p = ParabolicLabel(n1, n2, m)
    out = []
    for power in powers:
        if power == 1:
            rep = sum_rule_l2(p)
        elif power in (2, 3, 4):
            rep = sum_rule_az(p, power)
        else:
            rep = az_moment_generic(p, power)
        out.append(rep.to_dict())
    return out


def _exit_with_parent(main_pid: int) -> None:
    """Pool initializer: the worker exits soon after the main process dies.

    A main process killed outright (SIGKILL) never runs the pool's shutdown,
    so without this its workers would run on, reparented, until their tasks
    end. Its death orphans the worker (the parent pid changes) and, once
    reaped, main_pid no longer exists; either ends the worker, also when the
    main process died before the worker started.
    """
    parent = os.getppid()

    def watch():
        try:
            while os.getppid() == parent:
                os.kill(main_pid, 0)
                time.sleep(_PARENT_POLL_S)
        except OSError:  # main_pid is gone, or reused by a process not ours
            pass
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _cmd_verify(args, parser) -> int:
    """Stream the reports in sweep order; the summary counts them as they pass.

    Nothing is written before the first report exists, so a sweep whose first
    task fails leaves stdout empty.
    """
    tasks = _sweep_tuples(args, parser)
    out = sys.stdout
    writer = csv.writer(out)
    count = mismatches = warnings = 0
    with ExitStack() as stack:
        if args.jobs > 1:
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=args.jobs, initializer=_exit_with_parent,
                initargs=(os.getpid(),)))
            # runs first on the way out: an early exit computes no more tasks
            stack.callback(pool.shutdown, cancel_futures=True)
            groups = pool.map(_verify_worker, tasks, chunksize=8)
        else:
            groups = map(_verify_worker, tasks)
        for r in chain.from_iterable(groups):
            q, printed = r["params"], r.get("printed", {}).get("verdict")
            warn = printed not in (None, "exact-match")
            if args.format == "json":
                out.write(',\n' if count else '{\n  "reports": [\n')
                out.write("    " + json.dumps(r, indent=2).replace("\n", "\n    "))
            elif args.format == "csv":
                if not count:
                    writer.writerow(["rule", "n", "m", "n1", "n2", "p",
                                     "lhs", "rhs", "verdict", "printed_verdict"])
                writer.writerow([r["rule"], q["n"], q["m"], q["n1"], q["n2"], q["p"],
                                 r["lhs"], r["rhs"], r["verdict"], printed or ""])
            else:
                line = (f"{r['rule']:<9} n={q['n']:<3} m={q['m']:<3} n1={q['n1']:<3} "
                        f"n2={q['n2']:<3} p={q['p']} lhs={r['lhs']} rhs={r['rhs']} "
                        f"[{r['verdict']}]")
                if warn:
                    line += f" printed-form:{printed}"
                print(line)
            count += 1
            mismatches += r["verdict"] != "exact-match"
            warnings += warn
    if args.format == "json":
        summary = {"tuples": len(tasks), "reports": count, "mismatches": mismatches,
                   "printed_form_warnings": warnings}
        out.write('\n  ],\n  "summary": '
                  + json.dumps(summary, indent=2).replace("\n", "\n  ") + "\n}\n")
    elif args.format == "text":
        print(f"summary: {count} checks over {len(tasks)} tuples, "
              f"{mismatches} mismatches, {warnings} printed-form warnings")
    return 0 if mismatches == 0 else 1


def _emit_value(args, kind: str, value) -> None:
    if isinstance(value, float):
        rendered = repr(value)
    else:
        rendered = render_exact(value)
    if args.format == "json":
        print(json.dumps({"kind": kind, "value": rendered}))
    else:
        print(rendered)


def _cmd_compute(args, parser) -> int:
    kind = args.kind
    if kind == "3j":
        value = wigner_3jm(*(HalfInt.parse(a) for a in args.args6))
        _emit_value(args, kind, value)
    elif kind == "6j":
        value = wigner_6j(*(HalfInt.parse(a) for a in args.args6))
        _emit_value(args, kind, value)
    elif kind == "cg":
        value = clebsch_gordan(*(HalfInt.parse(a) for a in args.args6))
        _emit_value(args, kind, value)
    elif kind == "bcoeff":
        p = ParabolicLabel(args.n1, args.n2, args.m)
        _emit_value(args, kind, b_coeff(p, args.l))
    elif kind == "beta":
        _emit_value(args, kind, beta(args.n, args.l, args.m))
    elif kind == "pbar":
        if args.n < 1:
            raise DomainError(f"n = {args.n} must be positive")
        row = [p_bar(args.n, args.l_init, lp) for lp in range(args.n)]
        if args.format == "json":
            print(json.dumps({"kind": kind, "n": args.n, "l_init": args.l_init,
                              "row": [render_exact(x) for x in row]}))
        else:
            for lp, x in enumerate(row):
                print(f"l'={lp}: {render_exact(x)}")
    elif kind == "p":
        _emit_value(args, kind, p_transition(args.n, args.l, args.lp, args.chi))
    elif kind == "h1":
        print(h1_matrix(args.n, args.m).to_json())
    elif kind == "h2":
        print(h2_matrix(args.n, args.m).to_json())
    else:  # pragma: no cover - argparse restricts choices
        parser.error(f"unknown kind {kind}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rungelenz",
        description="Exact hydrogenic SO(4) algebra: symbols, basis changes, "
                    "sum-rule verification, Stark and diamagnetic tables.")
    sub = parser.add_subparsers(dest="command", required=True,
                            parser_class=_Parser)

    t1 = sub.add_parser("table1", help="reproduce the n=9, m=4, n1=3, n2=1 "
                                       "sum-rule values 46, 4, 8, 16")
    t1.add_argument("--format", choices=("text", "json"), default="text")

    ver = sub.add_parser("verify", help="sweep sum rules over manifolds")
    ver.add_argument("--max-n", type=int, required=True)
    ver.add_argument("--min-n", type=int, default=1)
    ver.add_argument("--m", type=int)
    ver.add_argument("--n1", type=int)
    ver.add_argument("--n2", type=int)
    ver.add_argument("--powers", default="1,2,3,4",
                     help="comma-separated powers; 1 = L^2 rule, 2-4 = A_z rules, "
                          "5-8 = generic A_z moments")
    ver.add_argument("--format", choices=("text", "json", "csv"), default="text")
    ver.add_argument("--jobs", type=int, default=1,
                     help="worker processes, 1 to the CPU count; output order "
                          "is deterministic")

    comp = sub.add_parser("compute", help="evaluate one quantity")
    kinds = comp.add_subparsers(dest="kind", required=True,
                            parser_class=_Parser)
    for name, hlp in (("3j", "Wigner 3jm symbol"), ("6j", "Wigner 6j symbol"),
                      ("cg", "Clebsch-Gordan <j1 m1 j2 m2|j3 m3>")):
        k = kinds.add_parser(name, help=hlp)
        k.add_argument("args6", nargs=6, metavar="J_OR_M",
                       help="half-integers as '2', '1/2' or '0.5'")
        k.add_argument("--format", choices=("text", "json"), default="text")
    k = kinds.add_parser("bcoeff", help="parabolic->spherical coefficient B(l)")
    for name in ("n1", "n2", "m", "l"):
        k.add_argument(name, type=int)
    k.add_argument("--format", choices=("text", "json"), default="text")
    k = kinds.add_parser("beta", help="A_z off-diagonal element beta(n, l, m)")
    for name in ("n", "l", "m"):
        k.add_argument(name, type=int)
    k.add_argument("--format", choices=("text", "json"), default="text")
    k = kinds.add_parser("pbar", help="time-averaged transfer row P-bar(l_init, .)")
    k.add_argument("n", type=int)
    k.add_argument("--l-init", dest="l_init", type=int, default=0)
    k.add_argument("--format", choices=("text", "json"), default="text")
    k = kinds.add_parser("p", help="oscillatory transfer P(l, l'; chi)")
    k.add_argument("n", type=int)
    k.add_argument("l", type=int)
    k.add_argument("lp", type=int)
    k.add_argument("chi", type=float)
    k.add_argument("--format", choices=("text", "json"), default="text")
    for name, hlp in (("h1", "first-order diamagnetic matrix"),
                      ("h2", "second-order diamagnetic matrix")):
        k = kinds.add_parser(name, help=hlp)
        k.add_argument("n", type=int)
        k.add_argument("m", type=int)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "table1":
            status = _cmd_table1(args)
        elif args.command == "verify":
            status = _cmd_verify(args, parser)
        else:
            status = _cmd_compute(args, parser)
        sys.stdout.flush()
    except DomainError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush of what
        # is still buffered cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
