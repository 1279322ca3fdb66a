"""One workload in its own process: set-up, an untimed warm-up, then timed
passes until the run length is used up.  Prints one JSON line.

Untraced, every pass is timed against the interleaved machine-speed
reference of ``calib.py``, and ``wall_s`` is the median pass in seconds at
the reference speed; the raw pass times are reported beside it.  Traced
runs report raw times.

Started by ``run.py`` with the BLAS and OpenMP pools already pinned to one
thread in the environment, so they are pinned before numpy is imported.
``--spawned`` is the CLOCK_MONOTONIC reading just before the process was
started; set-up time runs from there to the end of input generation.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import warnings

    from calib import Reference
    if args.setup_only:
        setup_ref = Reference()
        setup_ref.start()
    import workloads   # imports kelab: its import time is part of set-up
    from tracing import PER_LAYER, Tracer

    # the round metric itself trips this at the default range; kelab's own
    # test configuration filters it the same way
    warnings.filterwarnings("ignore", message="weighted measure not negligible")

    cls = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = cls(args.seed, args.out)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        setup_ref.stop()
        factor = setup_ref.factor()
        print(json.dumps({"setup_s": setup_s, "factor": factor,
                          "scaled_s": (setup_s - setup_ref.spent) / factor}))
        return 0
    setup_end = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.uninstall()

    problems = []
    warm = cls(args.seed, os.path.join(args.out, "warmup"), tiny=True).run_pass()
    problems += [f"warm-up: {p}" for p in warm.problems]

    attempted = failed = 0
    faults: dict[str, int] = {}
    plain, traced, windows, marks = [], [], [], []
    ref = None if tracer else Reference()
    if ref:
        ref.start()
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.install()
            first = len(tracer.spans)
        a = ref.mark() if ref else None
        t0 = time.perf_counter()
        res = wl.run_pass()
        pass_s = time.perf_counter() - t0
        if ref:
            marks.append((a, ref.mark()))
        if use_trace:
            tracer.uninstall()
            windows.append((first, len(tracer.spans)))
            traced.append(pass_s)
        else:
            plain.append(pass_s)
        attempted += res.attempted
        failed += res.failed
        for name, count in res.faults.items():
            faults[name] = faults.get(name, 0) + count
        problems += res.problems
        # run the whole passes that fit in the run length, at least one (of
        # each kind when tracing)
        elapsed = time.perf_counter() - start
        if (elapsed + statistics.median(plain + traced) > args.seconds
                and (traced or not tracer)):
            break
    if ref:
        ref.stop()

    out = {
        "attempted": attempted,
        "failed": failed,
        "faults": faults,
        "problems": problems,
        "passes": len(plain),
        "pass_s": plain,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if ref:
        # each pass in seconds at the reference speed (see calib.py)
        scaled = [ref.scale(a, b) for a, b in marks]
        out["wall_s"] = statistics.median(work / factor for work, factor in scaled)
        out["reference"] = {"factors": [f for _, f in scaled], "slices": ref.slices,
                            "slice_s": ref.spent}
    if tracer:
        missing = tracer.missing(args.workload)
        if missing:
            print(f"trace recorded no call to: {', '.join(missing)}", file=sys.stderr)
            return 1
        per_pass = [tracer.layer_metrics(a, b, setup_end) for a, b in windows]
        layer = {name: statistics.median_low(p[name] for p in per_pass)
                 for name, _ in PER_LAYER if name != "trace.overhead_s"}
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        out["per_layer"] = {name: {"value": layer[name], "unit": unit}
                            for name, unit in PER_LAYER}
        out["traced_pass_s"] = traced
        tracer.dump(os.path.join(args.out, "spans.json"), windows)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
