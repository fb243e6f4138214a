"""Batch command-line surface: compute, verify, reproduce the worked example.

Exit codes: 0 all canonical checks passed, 1 at least one mismatch,
2 usage error, 141 (128 + SIGPIPE) stdout closed by its reader before the
output was written, which ends the run quietly. Printed-form discrepancies
are warnings and never affect the exit status. Sweeps are merged in
parameter order regardless of how many worker processes ran them. A verify
--max-n whose blocks need a factorial past the table's limit exits 2 at once,
and so does a compute pbar row whose last entry would read one.

A verify report reaches stdout as text made where it is computed: each sweep
tuple's reports become one finished text in the chosen format (JSON from the
report's own writer, which lays it out as json.dumps(indent=2) would), with
the tuple's mismatch and warning counts. One shard holds every tuple of one
signed (n, m), a contiguous run of the sweep; the main process writes each
shard's texts as they arrive, then the summary, and holds nothing back. The
(n, -m) shard builds the (n, |m|) block and its printed-form differences, and
the (n, +m) shard reads both from the memos.

verify --jobs N > 1 forks N children (POSIX only: without os.fork it is a
usage error). Block b of the sweep, both its signed shards, belongs to child
b mod N, so each block is built in one process only. A child computes its
shards in sweep order and writes each one's results with marshal down its
own pipe, or b"E" and the pickled exception, which the main process raises
when it reaches that shard. The main process reads each shard in sweep order
from its owner's pipe. A child writes its shards in that order, so this
cannot deadlock, and backpressure keeps it at most one shard and a pipe's
buffer ahead of the output. A child leaves only through os._exit. When the
main process dies its pipes close, and each child's next write fails and
ends it; on any early exit (closed stdout, an error, Ctrl-C) the main
process kills and reaps every child. Nothing imports concurrent.futures
or multiprocessing.

Modules that only some runs need are imported where they are used, not at
module level: csv in _report_csv (verify --format csv), signal in
_forked_shards (--jobs N > 1) and pickle where a worker's exception crosses
its pipe. So a serial text or JSON run imports none of them.
"""
from __future__ import annotations

import argparse
import io
import json
import marshal
import os
import re
import sys
from fractions import Fraction
from itertools import groupby

from .basis import ParabolicLabel, b_coeff, check_block
from .diamagnetic import h1_matrix, h2_matrix
from .errors import DomainError
from .operators import beta
from .pfrational import default_table
from .radical import _json_array, _json_object, render_exact
from .stark import _check_pbar, _p_bar_pair, p_transition
from .sumrules import az_moment_generic, sum_rule_az, sum_rule_l2
from .wigner import ThreeJmArgs, clebsch_gordan, twice, wigner_3jm, wigner_6j

TABLE1_PARAMS = ParabolicLabel(n1=3, n2=1, m=4)  # the n=9 worked example
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a SIGPIPE kill


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
        print(_json_array([r.to_json("  ") for r in reports]))
    else:
        p = TABLE1_PARAMS
        print(f"n={p.n} m={p.m} n1={p.n1} n2={p.n2} (q={p.q})")
        for label, r in zip(("S1", "S2", "S3", "S4"), reports):
            print(f"{label}  {r.rule:<4} {_ANALYTIC[r.rule]:<28} "
                  f"= {r.lhs_text()}  [{r.verdict}]")
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
    for p in powers:
        if powers.count(p) > 1:
            parser.error(f"--powers names {p} more than once")
    if args.min_n < 1:
        parser.error(f"--min-n must be >= 1, got {args.min_n}")
    if args.min_n > args.max_n:
        parser.error("empty n range")
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        parser.error(f"--jobs needs an integer in 1..{cpus} (the CPU count), "
                     f"got {args.jobs}")
    if args.jobs > 1 and not hasattr(os, "fork"):
        parser.error(f"--jobs {args.jobs} forks worker processes, and this "
                     "platform has no os.fork; use --jobs 1")
    # (2n-1)! is the largest factorial a block of n needs: fail before the sweep
    default_table().require(2 * args.max_n - 1)
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


def _warns(r) -> bool:
    return r.printed_verdict not in (None, "exact-match")


def _report_json(reports) -> str:
    return ",\n".join("    " + r.to_json("    ") for r in reports)


def _report_csv(reports) -> str:
    import csv  # not at module level: only a --format csv run pays its import

    buf = io.StringIO()
    csv.writer(buf).writerows(
        [r.rule, r.n, r.m, r.n1, r.n2, r.power, r.lhs_text(), r.rhs_text(),
         r.verdict, r.printed_verdict or ""] for r in reports)
    return buf.getvalue()


def _report_text(reports) -> str:
    lines = []
    for r in reports:
        line = (f"{r.rule:<9} n={r.n:<3} m={r.m:<3} n1={r.n1:<3} n2={r.n2:<3} "
                f"p={r.power} lhs={r.lhs_text()} rhs={r.rhs_text()} [{r.verdict}]")
        if _warns(r):
            line += f" printed-form:{r.printed_verdict}"
        lines.append(line + "\n")
    return "".join(lines)


# per format: the task writer, what precedes the first task's text, and what
# separates the texts of two tasks
_VERIFY_FORMATS = {
    "json": (_report_json, '{\n  "reports": [\n', ",\n"),
    "csv": (_report_csv, "rule,n,m,n1,n2,p,lhs,rhs,verdict,printed_verdict\r\n", ""),
    "text": (_report_text, "", ""),
}


def _verify_worker(fmt: str, task: tuple) -> tuple[str, int, int]:
    """One sweep tuple's reports as finished text in the format, with its
    mismatch and printed-form warning counts."""
    n, m, n1, n2, powers = task
    p = ParabolicLabel(n1, n2, m)
    reports = []
    for power in powers:
        if power == 1:
            reports.append(sum_rule_l2(p))
        elif power in (2, 3, 4):
            reports.append(sum_rule_az(p, power))
        else:
            reports.append(az_moment_generic(p, power))
    return (_VERIFY_FORMATS[fmt][0](reports), sum(not r.ok for r in reports),
            sum(map(_warns, reports)))


def _verify_shard(fmt: str, shard: list) -> list:
    """_verify_worker over one (n, m) shard's tuples, in their order."""
    return [_verify_worker(fmt, task) for task in shard]


def _shard_child(fmt: str, shards: list, write_fd: int, read_ends: list):
    """A forked child's whole life: close every read end it inherited, its
    own included, so the main process holds the only one; then write each
    shard's results, or b"E" and the pickled exception that ends it, down
    write_fd. It leaves only through os._exit, never by returning into the
    main process's frames."""
    status = 1
    try:
        for pipe in read_ends:
            pipe.close()
        with open(write_fd, "wb") as pipe:
            for shard in shards:
                try:
                    msg = _verify_shard(fmt, shard)
                except Exception as exc:
                    import pickle
                    try:
                        msg = b"E" + pickle.dumps(exc)
                    except Exception:  # sent as a RuntimeError naming it
                        msg = b"E" + pickle.dumps(RuntimeError(
                            f"--jobs worker raised {exc!r}, which cannot be pickled"))
                pipe.write(marshal.dumps(msg))
                pipe.flush()  # a dead main process makes this raise: exit
                if isinstance(msg, bytes):
                    break
        status = 0
    finally:
        os._exit(status)


def _forked_shards(fmt: str, shard_tasks: list, jobs: int):
    """_verify_shard over every (n, m) shard, yielded in order, from `jobs`
    forked children: the (n, |m|) block b, both its signed shards, belongs to
    child b mod jobs. Closing the generator kills and reaps every child."""
    import signal  # not at module level: a serial run would pay its import

    blocks = {}
    owners = [blocks.setdefault((n, abs(m)), len(blocks)) % jobs
              for (n, m, *_), *_ in shard_tasks]
    pids, pipes = [], []
    try:
        for w in range(jobs):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            pid = os.fork()
            if pid == 0:
                _shard_child(fmt, [s for s, o in zip(shard_tasks, owners) if o == w],
                             write_fd, pipes)
            pids.append(pid)
            os.close(write_fd)
        for k, w in enumerate(owners):
            try:
                msg = marshal.load(pipes[w])
            except EOFError:
                raise RuntimeError(f"--jobs worker {pids[w]} ended before "
                                   f"sending shard {k}") from None
            if isinstance(msg, bytes):
                import pickle
                raise pickle.loads(msg[1:])
            yield msg
    finally:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except OSError:  # already reaped (SIGCHLD ignored): nothing to end
                pass
        for pipe in pipes:
            pipe.close()


def _cmd_verify(args, parser) -> int:
    """Write each tuple's finished text in sweep order, then the summary.

    Each (n, m) shard is written as soon as it arrives, so a sweep that fails
    leaves stdout holding every tuple before the failing shard.
    """
    tasks = _sweep_tuples(args, parser)
    shards = [list(run) for _, run in groupby(tasks, key=lambda t: t[:2])]
    _, head, sep = _VERIFY_FORMATS[args.format]
    out = sys.stdout
    mismatches = warnings = 0
    if args.jobs > 1:
        results = _forked_shards(args.format, shards, args.jobs)
    else:
        results = (_verify_shard(args.format, shard) for shard in shards)
    try:
        for texts in results:
            for text, bad, warn in texts:
                out.write(head)
                out.write(text)
                head = sep
                mismatches += bad
                warnings += warn
    finally:
        results.close()
    count = len(tasks) * len(tasks[0][-1])
    if args.format == "json":
        summary = _json_object([("tuples", repr(len(tasks))), ("reports", repr(count)),
                                ("mismatches", repr(mismatches)),
                                ("printed_form_warnings", repr(warnings))], "  ")
        out.write('\n  ],\n  "summary": ' + summary + "\n}\n")
    elif args.format == "text":
        out.write(f"summary: {count} checks over {len(tasks)} tuples, "
                  f"{mismatches} mismatches, {warnings} printed-form warnings\n")
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
    symbols = {"3j": wigner_3jm, "6j": wigner_6j, "cg": clebsch_gordan}
    if kind in symbols:
        # out-of-range j or m is a usage error here, not the library's lenient 0
        a = [Fraction(twice(x), 2) for x in args.args6]
        if kind == "6j" and min(a) < 0:
            raise DomainError(f"j = {min(a)} must be nonnegative")
        if kind != "6j":  # ThreeJmArgs takes (j1, j2, j3, m1, m2, m3)
            ThreeJmArgs(*(a if kind == "3j" else a[0::2] + a[1::2]))
        _emit_value(args, kind, symbols[kind](*a))
    elif kind == "bcoeff":
        p = ParabolicLabel(args.n1, args.n2, args.m)
        _emit_value(args, kind, b_coeff(p, args.l))
    elif kind == "beta":
        # l outside |m|..n is a usage error here; the library's beta gives 0
        check_block(args.n, args.m)
        if not abs(args.m) <= args.l <= args.n:
            raise DomainError(f"l = {args.l} outside |m| <= l <= n for "
                              f"(n, m) = ({args.n}, {args.m})")
        _emit_value(args, kind, beta(args.n, args.l, args.m))
    elif kind == "pbar":
        if args.n < 1:
            raise DomainError(f"n = {args.n} must be positive")
        _check_pbar(args.n, args.l_init)  # once for the row
        row = []
        for lp in range(args.n):
            num, den = _p_bar_pair(args.n, args.l_init, lp)
            row.append(Fraction((2 * lp + 1) * num, den))
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
