"""Per-layer spans and counts for one traced solve, installed from outside src/.

Python resolves a module's globals at call time, so rebinding every name under
which the rungelenz modules hold a function re-routes each call through a
wrapper without editing the package. Timed wrappers keep a span stack and add
each span's self time (duration minus the time of the spans it encloses) to
its name; counting wrappers only count. Totals stay in memory and are read
once, after the solve.

Under `verify --jobs N` the work runs in pool workers forked from the solving
process. They inherit the wrappers, and a pool subclass put in place of
`cli.ProcessPoolExecutor` returns each task's counter delta with its result,
so worker-side work is merged into the same totals.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

_clock = time.perf_counter


class Tracer:
    """Call counts and self times by span name, plus the pool's own totals."""

    def __init__(self, wigner, caches: dict):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.max_k = 0
        self.pool_tasks = 0
        self.pool_jobs = 0
        self.pool_busy_s = 0.0
        self.pool_racah_3jm = 0
        self._stack: list[list[float]] = []
        self._wigner = wigner
        self._caches = caches  # lru_cache-wrapped functions by metric name
        self._worker_cache = {name: (0, 0) for name in caches}  # (hits, misses)
        self._worker_entries = 0

    # -- wrappers -----------------------------------------------------

    def timed(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def factorial_probe(self, fn):
        @functools.wraps(fn)
        def wrapper(table, k):
            if k > self.max_k:
                self.max_k = k
            return fn(table, k)
        return wrapper

    # -- snapshots for pool workers -------------------------------------

    def snapshot(self) -> dict:
        raw = {"calls": Counter(self.calls), "self_s": Counter(self.self_s),
               "entries": len(self._wigner._CACHE_3JM) + len(self._wigner._CACHE_6J)}
        for name, cached in self._caches.items():
            info = cached.cache_info()
            raw[name] = (info.hits, info.misses)
        return raw

    def delta(self, before: dict) -> dict:
        after = self.snapshot()
        out = {"calls": after["calls"] - before["calls"],
               "self_s": dict(after["self_s"]), "max_k": self.max_k,
               "entries": after["entries"] - before["entries"]}
        for name, value in before["self_s"].items():
            out["self_s"][name] -= value
        for name in self._caches:
            out[name] = (after[name][0] - before[name][0],
                         after[name][1] - before[name][1])
        return out

    def merge(self, delta: dict) -> None:
        self.calls.update(delta["calls"])
        self.self_s.update(delta["self_s"])
        self.max_k = max(self.max_k, delta["max_k"])
        self._worker_entries += delta["entries"]
        for name in self._caches:
            hits, misses = self._worker_cache[name]
            self._worker_cache[name] = (hits + delta[name][0],
                                        misses + delta[name][1])

    # -- results ------------------------------------------------------

    def metrics(self, solve_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c, s = self.calls, defaultdict(float, self.self_s)

        def ratio(hits: int, lookups: int) -> float:
            return hits / lookups if lookups else 0.0

        def lru_ratio(name: str) -> float:
            info = self._caches[name].cache_info()
            hits = info.hits + self._worker_cache[name][0]
            misses = info.misses + self._worker_cache[name][1]
            return ratio(hits, hits + misses)

        lookups_3jm = c["wigner.3jm.lookup"]
        entries = (len(self._wigner._CACHE_3JM) + len(self._wigner._CACHE_6J)
                   + self._worker_entries)
        busy_frac = (self.pool_busy_s / (self.pool_jobs * solve_s)
                     if self.pool_jobs else 0.0)
        table = sys.modules["rungelenz.pfrational"].default_table()
        out = {
            "cli.render.calls": (c["cli.render"], "count"),
            "cli.render.s": (s["cli.render"], "s"),
            "cli.pool.tasks": (self.pool_tasks, "count"),
            "cli.pool.busy_s": (self.pool_busy_s, "s"),
            "cli.pool.busy_frac": (busy_frac, "ratio"),
            "cli.pool.racah_3jm_evals": (self.pool_racah_3jm, "count"),
        }
        for name in ("sumrules.sum_rule_l2", "sumrules.sum_rule_az",
                     "sumrules.az_moment_generic", "operators.beta",
                     "operators.word_apply", "basis.b_coeff",
                     "stark.p_transition", "stark.p_bar"):
            out[f"{name}.calls"] = (c[name], "count")
            out[f"{name}.s"] = (s[name], "s")
        out.update({
            "operators.az_power_matrix.s": (s["operators.az_power_matrix"], "s"),
            "operators.az_power_matrix.hit_ratio":
                (lru_ratio("operators.az_power_matrix"), "ratio"),
            "basis.b_matrix.s": (s["basis.b_matrix"], "s"),
            "basis.b_matrix.hit_ratio": (lru_ratio("basis.b_matrix"), "ratio"),
            "wigner.3jm.calls": (c["wigner.3jm"], "count"),
            "wigner.3jm.s": (s["wigner.3jm"], "s"),
            "wigner.3jm.racah_evals": (c["wigner.3jm.racah"], "count"),
            "wigner.3jm.racah_s": (s["wigner.3jm.racah"], "s"),
            "wigner.3jm.hit_ratio":
                (ratio(lookups_3jm - c["wigner.3jm.racah"], lookups_3jm), "ratio"),
            "wigner.6j.calls": (c["wigner.6j"], "count"),
            "wigner.6j.racah_evals": (c["wigner.6j.racah"], "count"),
            "wigner.6j.s": (s["wigner.6j"], "s"),
            "wigner.cache_entries": (entries, "count"),
            "radical.mul.calls": (c["radical.mul"], "count"),
            "radical.mul.s": (s["radical.mul"], "s"),
            "radical.add.calls": (c["radical.add"], "count"),
            "radical.from_sqrt.calls": (c["radical.from_sqrt"], "count"),
            "pfrational.factorize.calls": (c["pfrational.factorize"], "count"),
            "pfrational.factorial.max_k": (self.max_k, "count"),
            "pfrational.factorial.limit": (table.limit, "count"),
            "diamagnetic.h1_matrix.s": (s["diamagnetic.h1_matrix"], "s"),
            "diamagnetic.h2_matrix.s": (s["diamagnetic.h2_matrix"], "s"),
        })
        return out


TRACER: Tracer | None = None


def _pool_task(fn, task):
    """Run one pool task in a worker; return its result with the counter delta."""
    before = TRACER.snapshot()
    start = _clock()
    result = fn(task)
    busy = _clock() - start
    return result, TRACER.delta(before), busy


class TracingPool(ProcessPoolExecutor):
    """ProcessPoolExecutor that merges each worker task's counters into TRACER."""

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(max_workers, *args, **kwargs)
        TRACER.pool_jobs = self._max_workers

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        results = super().map(functools.partial(_pool_task, fn), *iterables,
                              timeout=timeout, chunksize=chunksize)
        for result, delta, busy in results:
            TRACER.merge(delta)
            TRACER.pool_tasks += 1
            TRACER.pool_busy_s += busy
            TRACER.pool_racah_3jm += delta["calls"]["wigner.3jm.racah"]
            yield result


def _rebind(old, new, owners) -> None:
    """Point every attribute of `owners` bound to `old` at `new`."""
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is old:
                setattr(owner, attr, new)


def install() -> Tracer:
    """Wrap the layer boundaries of an imported rungelenz; return the tracer."""
    global TRACER
    from rungelenz import (basis, cli, diamagnetic, operators, pfrational,
                           radical, stark, sumrules, wigner)

    tr = TRACER = Tracer(wigner, {"basis.b_matrix": basis.b_matrix,
                                  "operators.az_power_matrix": operators.az_power_matrix})
    modules = [m for name, m in sys.modules.items()
               if name == "rungelenz" or name.startswith("rungelenz.")]

    timed = {
        "cli.render": radical.render_exact,
        "sumrules.sum_rule_l2": sumrules.sum_rule_l2,
        "sumrules.sum_rule_az": sumrules.sum_rule_az,
        "sumrules.az_moment_generic": sumrules.az_moment_generic,
        "operators.beta": operators.beta,
        "operators.az_power_matrix": operators.az_power_matrix,
        "operators.word_apply": operators.word_apply,
        "basis.b_coeff": basis.b_coeff,
        "basis.b_matrix": basis.b_matrix,
        "wigner.3jm": wigner._threejm_twice,
        "wigner.3jm.racah": wigner._racah_3jm,
        "wigner.6j": wigner._sixj_twice,
        "stark.p_transition": stark.p_transition,
        "stark.p_bar": stark.p_bar,
        "diamagnetic.h1_matrix": diamagnetic.h1_matrix,
        "diamagnetic.h2_matrix": diamagnetic.h2_matrix,
    }
    counted = {
        "wigner.3jm.lookup": wigner._canonical_3jm,
        "wigner.6j.racah": wigner._racah_6j,
        "pfrational.factorize": pfrational.factorize,
    }
    for name, fn in timed.items():
        _rebind(fn, tr.timed(name, fn), modules)
    for name, fn in counted.items():
        _rebind(fn, tr.counted(name, fn), modules)

    rs = radical.RadicalSum  # __mul__ is also __rmul__, __add__ also __radd__
    _rebind(rs.__mul__, tr.timed("radical.mul", rs.__mul__), [rs])
    _rebind(rs.__add__, tr.counted("radical.add", rs.__add__), [rs])
    rs.from_sqrt = classmethod(tr.counted("radical.from_sqrt",
                                          vars(rs)["from_sqrt"].__func__))
    ft = pfrational.FactorialTable
    ft.factorial = tr.factorial_probe(ft.factorial)
    ft.factorial_int = tr.factorial_probe(ft.factorial_int)
    cli.ProcessPoolExecutor = TracingPool
    return tr
