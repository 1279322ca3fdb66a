"""A checked pass of every workload on tiny inputs, the tracer's coverage of
each workload, and the command's refusal to run without kelab sources."""
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import kelab as kl
import tracing
import workloads
from conftest import BENCH


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_is_correct(tiny, name):
    _, res = tiny[name]
    assert res.attempted > 0
    assert res.problems == []
    # F1 and F2 fail only full-size inputs
    assert res.faults == {}
    assert res.failed == 0


def _f1_op():
    """The documented F1 input: the fifth draw of default_rng(0) at n=257."""
    grid = kl.SGrid(-15.0, 15.0, 257)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = kl.random_convex_potential(grid, rng)
    geom = kl.fiber_geometry(u)
    return lambda: kl.eigendecompose(kl.assemble_weighted_laplacian(geom), geom, workloads.K)


def _f2_op():
    """The documented F2 input: the round metric at n=4097."""
    geom = kl.fiber_geometry(kl.fubini_study_potential(kl.SGrid(-15.0, 15.0, 4097)))
    return lambda: kl.eigendecompose(kl.assemble_weighted_laplacian(geom), geom, workloads.K)


@pytest.mark.parametrize("fault, make_op", [("F1", _f1_op), ("F2", _f2_op)])
def test_known_fault_counts_only_where_expected(fault, make_op):
    op = make_op()
    res = workloads.PassResult()
    res.attempt(fault, op, expect=fault)
    assert (res.failed, res.faults, res.problems) == (1, {fault: 1}, [])
    for other in (None, {"F1": "F2", "F2": "F1"}[fault]):
        res = workloads.PassResult()
        res.attempt(fault, op, expect=other)
        assert res.failed == 1 and res.faults == {} and len(res.problems) == 1


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError("Singular matrix"),
                                 kl.ConvergenceError("constant mode not resolved")])
def test_lookalike_failure_is_a_problem(exc):
    """The exception type and message of F1/F2, raised outside the spectral
    code they come from, are not known faults."""
    def op():
        raise exc
    for expect in ("F1", "F2"):
        res = workloads.PassResult()
        res.attempt("lookalike", op, expect=expect)
        assert res.failed == 1 and res.faults == {} and len(res.problems) == 1


def test_spectrum_inputs_do_not_depend_on_seed(tmp_path):
    def inputs(seed):
        wl = workloads.SpectrumFiles(seed, str(tmp_path / str(seed)))
        assert not any(dump and fault for _, _, _, _, dump, _, fault in wl.calls)
        assert sum(dump for _, _, _, _, dump, _, _ in wl.calls) == 16
        return {label: (u.values.tobytes(), fault)
                for label, u, _, _, _, _, fault in wl.calls}
    first = inputs(1)
    assert first == inputs(2)
    assert len(first) == 64
    assert sorted(f for _, f in first.values() if f) == ["F1", "F2"]


def test_failed_share_is_whole_passes(tiny):
    wl, first = tiny["spectrum-files"]
    again = wl.run_pass()
    assert (again.attempted, again.failed) == (first.attempted, first.failed)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracer_reaches_every_layer(tmp_path, name):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = workloads.WORKLOADS[name](3, str(tmp_path), tiny=True)
        setup_end = len(tracer.spans)
        wl.run_pass()
    finally:
        tracer.uninstall()
    assert tracer.missing(name) == []
    layer = tracer.layer_metrics(setup_end, len(tracer.spans), setup_end)
    assert set(layer) == {n for n, _ in tracing.PER_LAYER} - {"trace.overhead_s"}
    if name != "spectrum-files":
        assert layer["geodesic.lu_count"] >= layer["geodesic.eps_newton_iters"] > 0
        assert layer["geodesic.ke_s"] > 0.0
    assert 0 < layer["geometry.fiber_geometry_distinct"] <= layer["geometry.fiber_geometry_calls"]


def test_uninstall_restores_kelab():
    import kelab
    import kelab.limits
    import kelab.pipeline

    before = (kelab.pipeline.fiber_geometry, kelab.limits.fiber_geometry,
              kelab.fiber_decompose, kelab.geodesic.splu)
    tracer = tracing.Tracer()
    tracer.install()
    assert kelab.pipeline.fiber_geometry is not before[0]
    assert kelab.pipeline.fiber_geometry is kelab.limits.fiber_geometry
    tracer.uninstall()
    after = (kelab.pipeline.fiber_geometry, kelab.limits.fiber_geometry,
             kelab.fiber_decompose, kelab.geodesic.splu)
    assert after == before


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum-files",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
