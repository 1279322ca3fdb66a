"""kelab benchmark: one workload per invocation, run in its own process.

    python3 perfbench/run.py --workload pipeline-default --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of standard
output is a JSON object whose metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``; the two times in seconds at the reference
speed of ``calib.py``); with ``--trace 1`` they are the per-layer ones (see
README.md).  Outputs go to ``.perfbench_out/`` under the root.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline-default", "sweep-large", "spectrum-files")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUP_SAMPLES = 5       # set-up is timed in this many fresh processes
DEADLINE_S = 170.0      # the whole command stays below 180 s


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, out: str, deadline: float, setup_only: bool = False) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--spawned", repr(spawned)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(args, out: str, deadline: float) -> list:
    """Set-up of fresh set-up-only processes, each timed against the
    reference of ``calib.py`` run inside it: dicts of the raw seconds, the
    reference factor and the seconds at the reference speed."""
    return [run_worker(args, os.path.join(out, f"setup{i}"), deadline, setup_only=True)
            for i in range(SETUP_SAMPLES)]


def main() -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "kelab", "__init__.py")):
        print(f"error: no kelab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    out = os.path.join(ROOT, ".perfbench_out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    deadline = t_start + DEADLINE_S
    try:
        main_run = run_worker(args, out, deadline)
        setups = [] if args.trace else setup_samples(args, out, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    for problem in main_run["problems"]:
        print(f"check failed: {problem}")
    info = {k: main_run[k] for k in ("env", "passes", "pass_s", "faults", "reference")
            if k in main_run}
    info["setup_samples"] = setups
    if args.trace:
        info["traced_pass_s"] = main_run["traced_pass_s"]
    print("run: " + json.dumps(info))

    if args.trace:
        metrics = main_run["per_layer"]
    else:
        values = {"wall_s": main_run["wall_s"],
                  "setup_s": statistics.median(x["scaled_s"] for x in setups),
                  "peak_rss_mb": main_run["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({
        "correct": not main_run["problems"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
