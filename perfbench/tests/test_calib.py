"""The machine-speed reference: slices run from the timer, their time is kept
out of the workload's, and the timer is put back afterwards."""
import json
import math
import os
import signal
import subprocess
import sys
import time

import calib
from conftest import BENCH


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < end:
        x += 1


def test_weighted_median():
    assert calib.weighted_median([3.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == 2.0
    assert calib.weighted_median([1.0, 5.0], [1.0, 10.0]) == 5.0
    assert calib.weighted_median([1.0, 5.0], [10.0, 1.0]) == 1.0


def test_slices_are_kept_out_of_workload_time():
    before = signal.getsignal(signal.SIGALRM)
    ref = calib.Reference()
    ref.start()
    try:
        a = ref.mark()
        _busy(1.5)
        b = ref.mark()
    finally:
        ref.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert b[2] - a[2] >= calib.MIN_SLICES
    work, factor = ref.scale(a, b)
    sliced = b[1] - a[1]
    assert sliced > 0.0
    assert math.isclose(work + sliced, b[0] - a[0], rel_tol=1e-9)
    assert 0.0 < factor < 100.0
    # the weights are the workload time between slices, so they add up to
    # about the stretch's workload time
    assert sum(ref.weights[a[2]:b[2]]) <= work + 0.05


def test_factor_follows_slower_slices():
    ref = calib.Reference()
    for _ in range(5):
        ref.run_slice()
    slow = calib.Reference()
    slow.samples = {name: [2.0 * t for t in ts] for name, ts in ref.samples.items()}
    slow.weights, slow.slices = list(ref.weights), ref.slices
    assert math.isclose(slow.factor() / ref.factor(), 2.0, rel_tol=1e-12)


def test_setup_only_worker_reports_scaled_setup(tmp_path):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.join(os.path.dirname(BENCH), "src")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", "pipeline-default",
         "--seed", "1", "--seconds", "1", "--out", str(tmp_path),
         "--spawned", repr(time.monotonic()), "--setup-only"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["factor"] > 0.0
    assert 0.0 < out["scaled_s"] * out["factor"] < out["setup_s"]
