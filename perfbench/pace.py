"""Machine-speed reference that steadies the benchmark's times.

The benchmark shares a host whose speed drifts by 20-30% over minutes: in
runs a few minutes apart, the same instances with the same search trees
took up to 30% longer, and a fixed pure-Python routine slowed with them.
So while the untraced passes run, a timer interrupts the process every
INTERVAL_S and runs `reference`, a fixed graph routine that uses nothing of
oneplanar.  The time spent in it is taken out of the step it interrupted,
and each step's time is scaled by

    NOMINAL_S / median time of the reference samples taken from WINDOW_S
                before the step's start to WINDOW_S after its end

A scaled time is the time the step would take on the host running at the
speed at which `reference` takes NOMINAL_S.  Only the host's speed cancels:
a change to the program moves the scaled time by the same share as the
measured one, because the reference does not run program code.  The
reference runs with the cyclic garbage collector off, so the program's
heap does not change its time.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import random
import signal
import statistics
import time

# About the median time of `reference` on the 2-core Xeon host the benchmark
# was tuned on.  It sets only the scale of the reported times.
NOMINAL_S = 0.020
# Seconds between two samples of the reference (each takes about NOMINAL_S).
INTERVAL_S = 0.25
# A step is scaled by the samples from this long before it to this long
# after it, so even the shortest step has a few.
WINDOW_S = 0.5


def _grid_adjacency(side: int, seed: int) -> dict[int, list[int]]:
    rng = random.Random(seed)
    adj: dict[int, list[int]] = {v: [] for v in range(side * side)}
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                adj[v].append(v + 1)
                adj[v + 1].append(v)
            if r + 1 < side:
                adj[v].append(v + side)
                adj[v + side].append(v)
    for nbrs in adj.values():
        rng.shuffle(nbrs)
    return adj


_ADJ = _grid_adjacency(64, 5)


def reference() -> int:
    """Depth-first lowpoints and the edge set of a fixed 64x64 grid: the
    dict, list and tuple work that the tester itself is made of."""
    num: dict[int, int] = {}
    low: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for root in _ADJ:
        if root in num:
            continue
        num[root] = low[root] = len(num)
        parent[root] = None
        stack = [(root, iter(_ADJ[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in num:
                    num[w] = low[w] = len(num)
                    parent[w] = v
                    stack.append((w, iter(_ADJ[w])))
                    break
                if w != parent[v] and num[w] < low[v]:
                    low[v] = num[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    edges = {(min(v, w), max(v, w)) for v, nbrs in _ADJ.items() for w in nbrs}
    return sum(low.values()) + len(edges)


class Pace:
    """Samples the reference on a timer while `sampling` is active, and
    times and scales the steps measured with `start` and `stop`."""

    def __init__(self) -> None:
        self.at: list[float] = []  # sample start times, ascending
        self.samples: list[float] = []  # sample durations
        self.spent = 0.0  # seconds taken by all samples so far

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference()
        finally:
            if enabled:
                gc.enable()
            t = time.perf_counter() - t0
            self.at.append(t0)
            self.samples.append(t)
            self.spent += t

    @contextlib.contextmanager
    def sampling(self):
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)

    @contextlib.contextmanager
    def paused(self):
        """No samples while a step runs another process: on a host with two
        cores the two would slow each other."""
        delay, interval = signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            if interval:
                signal.setitimer(signal.ITIMER_REAL, delay or interval, interval)

    def start(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def stop(self, start: tuple[float, float]) -> dict:
        """The step begun at `start`: its wall interval `t0`..`t1` and its
        time `time_s`, less the samples taken in between."""
        t0, spent0 = start
        t1 = time.perf_counter()
        return {"t0": t0, "t1": t1, "time_s": t1 - t0 - (self.spent - spent0)}

    def scaled(self, step: dict) -> float:
        """A step's `time_s` at the nominal speed, once the samples after it
        are in; without samples near it, the run's samples are used."""
        lo = bisect.bisect_left(self.at, step["t0"] - WINDOW_S)
        hi = bisect.bisect_right(self.at, step["t1"] + WINDOW_S)
        near = self.samples[lo:hi] or self.samples
        return step["time_s"] * NOMINAL_S / statistics.median(near)
