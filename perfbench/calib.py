"""Machine-speed reference for the timed passes.

The machine the benchmark runs on is a share of a busy host: its speed
drifts by 10-70% over tens of seconds to minutes, and CPU time tracks wall
time, so the drift is the vCPU running slower, not waiting.  Fixed code
that does not touch kelab, run in short slices interleaved with the
workload in the same thread, slows down with it; the same code run at the
same moments on the other vCPU does not.  ``Reference`` runs one slice
every ``INTERVAL`` seconds from a SIGALRM handler and converts a stretch of
workload time into seconds at the reference speed:

    scaled = (elapsed - time spent in slices) / factor
    factor = geometric mean over kernels of median(slice times) / NOMINAL

each slice weighted in the median by the workload time since the one
before it, up to ``MAX_WEIGHT``.  The factor is 1 at the speed NOMINAL was
measured at.

The two kernels are the ones that tracked the workloads best among the
candidates tried (a tight interpreter loop, element-wise numpy on 32 KiB
to 2 MiB, a 16 MiB memory stream, tridiagonal and sparse-LU solves of
several sizes, JSON and float formatting): many numpy calls on small
arrays, and a small tridiagonal eigen-solve plus sparse LU.  Their working
sets are a few KiB, so what the workload leaves in the caches changes them
little.  Python runs the handler between bytecodes, so during a long C call
(one sparse LU, at most ~1.5 s) no slice is taken; the next comes when it
returns.
"""
from __future__ import annotations

import math
import signal
import time

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

INTERVAL = 0.05   # seconds between slices; a slice takes ~2 ms
MIN_SLICES = 20   # slices a factor is taken over, at least
MAX_WEIGHT = 0.25  # seconds of workload time one slice may stand for

_rng = np.random.default_rng(12345)
_S = _rng.standard_normal(64)
_D = 2.0 + _rng.random(256)
_E = 0.5 * _rng.random(255)
_N = 16
_L = sp.diags([4.0 * np.ones(_N * _N), -np.ones(_N * _N - 1), -np.ones(_N * _N - 1),
               -np.ones(_N * _N - _N), -np.ones(_N * _N - _N)],
              [0, 1, -1, _N, -_N], format="csc")
_B = np.ones(_N * _N)


def _numpy_calls() -> float:
    """Many numpy calls on small arrays: dispatch and interpreter overhead,
    as in kelab's per-node and per-fibre bookkeeping."""
    s, x = 0.0, _S
    for _ in range(40):
        z = np.concatenate([[0.0], np.diff(x)])
        s += float(np.dot(z, x))
        x = np.abs(x) + 1e-3 * z
    return s


def _lapack() -> float:
    """The kernels kelab leans on, at small size: a tridiagonal
    eigen-solve and a sparse LU with a solve."""
    w = sla.eigh_tridiagonal(_D, _E, select="i", select_range=(0, 7), eigvals_only=True)
    x = spla.splu(_L).solve(_B)
    return float(w[0] + x[0])


KERNELS = (("numpy_calls", _numpy_calls), ("lapack", _lapack))
# median slice times (s) on a 2-vCPU Sapphire Rapids KVM guest; they only
# fix the unit, so that a scaled time reads as seconds at that speed
NOMINAL = {"numpy_calls": 2.7e-4, "lapack": 1.6e-3}


def weighted_median(values: list[float], weights: list[float]) -> float:
    pairs = sorted(zip(values, weights))
    half = sum(weights) / 2.0
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= half:
            return value
    return pairs[-1][0]


class Reference:
    """Interleaved reference slices.  ``mark()`` returns a position; ``scale``
    converts the elapsed time between two marks into reference seconds."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {name: [] for name, _ in KERNELS}
        self.weights: list[float] = []   # workload time each slice stands for
        self.spent = 0.0          # seconds inside slices, all told
        self.slices = 0
        self._last = time.perf_counter()
        self._old = None

    def run_slice(self) -> None:
        t_in = time.perf_counter()
        for name, fn in KERNELS:
            t0 = time.perf_counter()
            fn()
            self.samples[name].append(time.perf_counter() - t0)
        t_out = time.perf_counter()
        self.weights.append(min(t_in - self._last, MAX_WEIGHT))
        self._last = t_out
        self.slices += 1
        self.spent += t_out - t_in

    def _on_alarm(self, signum, frame) -> None:
        self.run_slice()

    def start(self) -> None:
        """Warm the kernels, then take a slice every ``INTERVAL`` seconds.
        The warm-up slices are not samples, but their time counts in
        ``spent``."""
        for _ in range(5):
            self.run_slice()
        warm = self.spent
        self.__init__()
        self.spent = warm
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._old is not None:
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def mark(self) -> tuple[float, float, int]:
        while True:               # retry if a slice ran while reading
            slices = self.slices
            now, spent = time.perf_counter(), self.spent
            if slices == self.slices:
                return now, spent, slices

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Reference slowness over slices [first, last), 1.0 at NOMINAL: per
        kernel the median slice time, each slice weighted by the workload
        time since the slice before it.  A long C call delays the next
        slice; that one runs on caches the call has just swept, so it
        stands for at most MAX_WEIGHT of the call, or the dozen sparse
        factorisations of a sweep-large pass would outweigh every other
        slice of it."""
        last = self.slices if last is None else last
        weights = self.weights[first:last]
        logs = [math.log(weighted_median(self.samples[name][first:last], weights)
                         / NOMINAL[name]) for name, _ in KERNELS]
        return math.exp(sum(logs) / len(logs))

    def scale(self, a: tuple, b: tuple) -> tuple[float, float]:
        """(workload seconds, reference factor) between marks ``a`` and ``b``.
        The factor is taken over the slices in between, widened on both
        sides to at least ``MIN_SLICES`` when the stretch is short."""
        work = (b[0] - a[0]) - (b[1] - a[1])
        first, last = a[2], b[2]
        while last - first < MIN_SLICES and (first > 0 or last < self.slices):
            first, last = max(first - 1, 0), min(last + 1, self.slices)
        if last <= first:
            raise RuntimeError("no reference slice was taken")
        return work, self.factor(first, last)
