"""Rounds of timed operations, their failures and counts, and statistics."""

from __future__ import annotations

import os
import statistics
import traceback
from time import perf_counter


def child_env(src):
    """Environment of a child process: conecalc from ``src``, no seed override."""
    env = dict(os.environ)
    env.pop("CONECALC_SEED", None)
    env["PYTHONPATH"] = str(src)
    return env


class Round:
    """One pass over a workload's operations, run as a closed loop.

    ``call`` times one operation.  An operation that raises, or that a
    later ``check`` rejects, counts once as failed.  A failure is
    ``wrong`` when an output is missing or incorrect; a failure the
    program reports about itself (a solve flagged as not converged) is
    not.  ``counts`` holds the work counts that must repeat exactly
    between rounds and runs.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = {}
        self.attempted = 0
        self.failed = set()
        self.wrong = set()
        self.reasons = []
        self.counts = {}
        self.spans = []  # spans of child processes, one list per process
        self.child_rss_kb = 0

    def call(self, label, fn, *args, **kwargs):
        self.attempted += 1
        t0 = perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args, **kwargs)
            else:
                with self.tracer.span("case:" + label):
                    result = fn(*args, **kwargs)
        except Exception as exc:  # the program failed this operation; keep going
            self.fail(label, f"{type(exc).__name__}: {exc}")
            self.reasons[-1]["traceback"] = traceback.format_exc(limit=4)
            return None
        self.times.setdefault(label, []).append(perf_counter() - t0)
        return result

    def add_time(self, label, seconds):
        self.attempted += 1
        self.times.setdefault(label, []).append(seconds)

    def fail(self, label, reason, wrong=True):
        """Mark the latest attempt failed."""
        self.failed.add(self.attempted)
        if wrong:
            self.wrong.add(self.attempted)
        self.reasons.append({"op": label, "reason": reason, "wrong": wrong})

    def check(self, ok, label, reason, wrong=True):
        if not ok:
            self.fail(label, reason, wrong)
        return ok

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    @property
    def wall(self) -> float:
        return sum(sum(v) for v in self.times.values())


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """Highest order statistic with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer
    there is no such percentile and the maximum is returned.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None, None, 0
    i = max(0, n - 11) if n > 10 else n - 1
    return xs[i], 100.0 * (i + 1) / n, n
