"""Spans around the calls into each kelab layer, recorded from outside.

``Tracer.install`` replaces each target function with a timing wrapper in
every loaded ``kelab`` module namespace that binds it.  Several modules bind
names with ``from ... import`` (``pipeline`` and ``limits`` among them), so
patching only the defining module would miss those calls.  The two kernels
are wrapped where kelab binds them: ``kelab.geodesic.splu`` and
``kelab.spectral.eigh_tridiagonal``.

A span is ``[name, parent, start, end, attrs]`` where ``parent`` is the
index of the innermost enclosing span (-1 at the top).  Spans stay in memory
and are written out once, at the end of the run.
"""
from __future__ import annotations

import inspect
import json
import os
import sys
import time

# (defining module, function name)
TARGETS = (
    ("kelab.pipeline", "run_full_pipeline"),
    ("kelab.pipeline", "run_spectrum"),
    ("kelab.geodesic", "solve_ke"),
    ("kelab.geodesic", "solve_epsilon_geodesic"),
    ("kelab.geodesic", "splu"),
    ("kelab.geodesic", "legendre_path"),
    ("kelab.geodesic", "save_spacetime"),
    ("kelab.geometry", "evaluate_slope"),
    ("kelab.geometry", "fiber_geometry"),
    ("kelab.quadrature", "dirichlet_conductance"),
    ("kelab.functionals", "ding_derivatives"),
    ("kelab.spectral", "eigendecompose"),
    ("kelab.spectral", "eigh_tridiagonal"),
    ("kelab.spectral", "futaki_residual"),
    ("kelab.limits", "fiber_decompose"),
    ("kelab.limits", "cluster_analysis"),
    ("kelab.limits", "extract_vector_field"),
    ("kelab.limits", "time_constancy"),
    ("kelab.serialize", "dump_json"),
    ("kelab.serialize", "write_csv"),
    ("kelab.serialize", "load_json"),
    ("kelab.serialize", "read_csv"),
)

PIPELINE_ROOTS = ("run_full_pipeline", "run_spectrum")
WRITES = ("dump_json", "write_csv", "save_spacetime")
READS = ("load_json", "read_csv")
EXTRACT = ("cluster_analysis", "extract_vector_field", "time_constancy")

# wrappers each workload must reach; a zero count on one of them means the
# trace missed a call path and the traced run fails
EXPECTED = {
    "pipeline-default": (
        "run_full_pipeline", "solve_ke", "splu", "legendre_path", "evaluate_slope",
        "solve_epsilon_geodesic", "save_spacetime", "ding_derivatives",
        "fiber_geometry", "dirichlet_conductance", "eigendecompose",
        "eigh_tridiagonal", "fiber_decompose", "cluster_analysis",
        "extract_vector_field", "time_constancy", "dump_json", "write_csv",
    ),
    "sweep-large": (
        "solve_ke", "splu", "legendre_path", "evaluate_slope",
        "solve_epsilon_geodesic", "fiber_geometry", "dirichlet_conductance",
        "eigendecompose", "eigh_tridiagonal", "fiber_decompose",
    ),
    "spectrum-files": (
        "run_spectrum", "load_json", "fiber_geometry", "dirichlet_conductance",
        "eigendecompose", "eigh_tridiagonal", "futaki_residual", "write_csv",
    ),
}

# name, unit of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("geodesic.eps_solve_s", "s"),
    ("geodesic.eps_newton_iters", "count"),
    ("geodesic.lu_count", "count"),
    ("geodesic.lu_s", "s"),
    ("geodesic.lu_retries", "count"),
    ("geodesic.ke_s", "s"),
    ("geodesic.legendre_path_s", "s"),
    ("geodesic.legendre_path_calls", "count"),
    ("geometry.evaluate_slope_calls", "count"),
    ("geodesic.save_spacetime_s", "s"),
    ("functionals.ding_s", "s"),
    ("functionals.ding_calls", "count"),
    ("geometry.fiber_geometry_calls", "count"),
    ("geometry.fiber_geometry_distinct", "count"),
    ("geometry.fiber_geometry_s", "s"),
    ("quadrature.conductance_calls", "count"),
    ("quadrature.conductance_distinct", "count"),
    ("quadrature.conductance_s", "s"),
    ("spectral.eigendecompose_calls", "count"),
    ("spectral.eigendecompose_s", "s"),
    ("spectral.tridiag_eig_s", "s"),
    ("spectral.futaki_s", "s"),
    ("limits.fiber_decompose_s", "s"),
    ("limits.extract_s", "s"),
    ("serialize.write_s", "s"),
    ("serialize.bytes_written", "bytes"),
    ("serialize.read_s", "s"),
    ("serialize.bytes_read", "bytes"),
    ("pipeline.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _grid_key(grid) -> tuple:
    return (grid.s_min, grid.s_max, grid.n)


def _attrs_fiber_geometry(args, kwargs):
    u = args[0] if args else kwargs["u"]
    return {"key": hash((_grid_key(u.grid), u.values.tobytes()))}


def _attrs_conductance(args, kwargs):
    geom = args[0] if args else kwargs["geom"]
    return {"key": hash((_grid_key(geom.grid), geom.w.tobytes()))}


class Tracer:
    """Installs the wrappers, records spans and turns them into metrics."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []   # (module, attr, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "kelab" or name.startswith("kelab."))]
        for mod_name, attr in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(attr, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def record(attrs, call):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, attrs]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                return call()
            finally:
                span[3] = clock()
                stack.pop()

        if name == "solve_epsilon_geodesic":
            sig = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                want_info = bound.arguments.get("full_output", False)
                bound.arguments["full_output"] = True
                attrs = {}
                out, info = record(attrs, lambda: fn(*bound.args, **bound.kwargs))
                attrs["iterations"] = info["iterations"]
                return (out, info) if want_info else out
        elif name in ("fiber_geometry", "dirichlet_conductance"):
            keyer = _attrs_fiber_geometry if name == "fiber_geometry" else _attrs_conductance

            def wrapper(*args, **kwargs):
                return record(keyer(args, kwargs), lambda: fn(*args, **kwargs))
        elif name in WRITES or name in READS:
            # position and name of the file argument; save_spacetime writes
            # its JSON header through dump_json, so it counts only the CSV
            pos, param = {"dump_json": (1, "path"), "write_csv": (0, "path"),
                          "save_spacetime": (2, "csv_path"), "load_json": (0, "path"),
                          "read_csv": (0, "path")}[name]

            def wrapper(*args, **kwargs):
                path = args[pos] if len(args) > pos else kwargs[param]
                attrs = {}
                if name in READS:
                    attrs["bytes"] = os.path.getsize(path)
                    return record(attrs, lambda: fn(*args, **kwargs))
                try:
                    return record(attrs, lambda: fn(*args, **kwargs))
                finally:
                    attrs["bytes"] = os.path.getsize(path)
        else:
            def wrapper(*args, **kwargs):
                return record(None, lambda: fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- metrics ----------------------------------------------------------

    def missing(self, workload: str) -> list[str]:
        """Expected wrappers that recorded no call."""
        seen = {s[0] for s in self.spans}
        return [name for name in EXPECTED[workload] if name not in seen]

    def layer_metrics(self, start: int, end: int, setup_end: int) -> dict:
        """Per-layer metrics of the spans ``start:end`` (one pass).  Spans
        ``0:setup_end`` come from set-up; of those only the KE solve counts,
        because sweep-large solves KE during set-up."""
        spans = self.spans
        window = range(start, end)

        def dur(i):
            return spans[i][3] - spans[i][2]

        def named(*names):
            return [i for i in window if spans[i][0] in names]

        def total(*names):
            return sum(dur(i) for i in named(*names))

        def has_ancestor(i, names):
            p = spans[i][1]
            while p >= 0:
                if spans[p][0] in names:
                    return True
                p = spans[p][1]
            return False

        def solver_of(i):
            p = spans[i][1]
            while p >= 0 and spans[p][0] not in ("solve_ke", "solve_epsilon_geodesic"):
                p = spans[p][1]
            return spans[p][0] if p >= 0 else None

        eps_lu = [i for i in named("splu") if solver_of(i) == "solve_epsilon_geodesic"]
        iters = sum(spans[i][4].get("iterations", 0) for i in named("solve_epsilon_geodesic"))
        ke_s = total("solve_ke") + sum(
            dur(i) for i in range(setup_end) if spans[i][0] == "solve_ke"
        )
        children: dict[int, float] = {}
        for i in window:
            children[spans[i][1]] = children.get(spans[i][1], 0.0) + dur(i)
        pipeline_self = sum(dur(i) - children.get(i, 0.0) for i in named(*PIPELINE_ROOTS))
        # save_spacetime nests a dump_json: count the outer span's time only
        writes = [i for i in named(*WRITES) if not has_ancestor(i, WRITES)]
        geoms = named("fiber_geometry")
        conds = named("dirichlet_conductance")
        return {
            "geodesic.eps_solve_s": total("solve_epsilon_geodesic"),
            "geodesic.eps_newton_iters": iters,
            "geodesic.lu_count": len(eps_lu),
            "geodesic.lu_s": sum(dur(i) for i in eps_lu),
            "geodesic.lu_retries": len(eps_lu) - iters,
            "geodesic.ke_s": ke_s,
            "geodesic.legendre_path_s": total("legendre_path"),
            "geodesic.legendre_path_calls": len(named("legendre_path")),
            "geometry.evaluate_slope_calls": len(named("evaluate_slope")),
            "geodesic.save_spacetime_s": total("save_spacetime"),
            "functionals.ding_s": total("ding_derivatives"),
            "functionals.ding_calls": len(named("ding_derivatives")),
            "geometry.fiber_geometry_calls": len(geoms),
            "geometry.fiber_geometry_distinct": len({spans[i][4]["key"] for i in geoms}),
            "geometry.fiber_geometry_s": total("fiber_geometry"),
            "quadrature.conductance_calls": len(conds),
            "quadrature.conductance_distinct": len({spans[i][4]["key"] for i in conds}),
            "quadrature.conductance_s": total("dirichlet_conductance"),
            "spectral.eigendecompose_calls": len(named("eigendecompose")),
            "spectral.eigendecompose_s": total("eigendecompose"),
            "spectral.tridiag_eig_s": total("eigh_tridiagonal"),
            "spectral.futaki_s": total("futaki_residual"),
            "limits.fiber_decompose_s": total("fiber_decompose"),
            "limits.extract_s": total(*EXTRACT),
            "serialize.write_s": sum(dur(i) for i in writes),
            "serialize.bytes_written": sum(spans[i][4]["bytes"] for i in named(*WRITES)),
            "serialize.read_s": total(*READS),
            "serialize.bytes_read": sum(spans[i][4]["bytes"] for i in named(*READS)),
            "pipeline.self_s": pipeline_self,
        }

    def dump(self, path: str, passes: list[tuple[int, int]]) -> None:
        """Write every span plus the pass boundaries as one JSON file."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "attrs"],
                       "passes": passes, "spans": self.spans}, fh)
