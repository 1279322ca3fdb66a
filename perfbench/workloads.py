"""The three workloads: inputs made from a seed, one pass of operations, and
the checks on every output.

A workload is built once (set-up), then ``run_pass`` performs one whole round
of its operations and checks them.  Every pass performs the same operations,
so the share of failed operations is the same in every pass and every run.

Two faults in kelab fail fixed operations on every pass; they are counted
as failed, not as wrong output, but only on the operations they are known
to fail.  Any other failure is a problem that makes the run incorrect.

* F1: ``spectral._refine_pair`` lets a raw ``numpy.linalg.LinAlgError``
  escape when a shift is exactly singular.
* F2: ``spectral.eigendecompose`` rejects correct spectra at large n with
  ``ConvergenceError("constant mode not resolved ...")``.
"""
from __future__ import annotations

import hashlib
import json
import os
import traceback

import numpy as np

import kelab as kl
import checks as ck

TAU = 0.5
EPS = (1e-1, 1e-2, 1e-3)
K = 8
S_RANGE = (-15.0, 15.0)


def known_fault(exc: BaseException) -> str | None:
    """Name of the known fault an exception belongs to, else None: the
    exception type, its message and the kelab function it came from must
    all match."""
    frames = {frame.f_code.co_name for frame, _ in traceback.walk_tb(exc.__traceback__)}
    if isinstance(exc, np.linalg.LinAlgError) and "_refine_pair" in frames:
        return "F1"
    if (isinstance(exc, kl.ConvergenceError) and "eigendecompose" in frames
            and "constant mode not resolved" in str(exc)):
        return "F2"
    return None


class PassResult:
    """Operations attempted and failed in one pass, and the check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults: dict[str, int] = {}
        self.problems: list[str] = []

    def attempt(self, label: str, op, count: int = 1, expect: str | None = None):
        """Run ``op``; return its value, or None when it raised.  A failure
        is a known fault only if it is the fault ``expect`` names."""
        self.attempted += count
        try:
            return op()
        except Exception as exc:  # every failure is counted, known or not
            self.failed += count
            fault = known_fault(exc)
            if fault is not None and fault == expect:
                self.faults[fault] = self.faults.get(fault, 0) + count
            else:
                self.problems.append(f"{label}: unexpected {type(exc).__name__}: {exc}")
            return None

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except ck.CheckError as exc:
            self.problems.append(str(exc))


# -- pipeline-default -------------------------------------------------------


class PipelineDefault:
    """``run_full_pipeline`` at the documented config.  The config is fixed;
    the seed reaches only the report's ``config.seed``."""

    name = "pipeline-default"

    def __init__(self, seed: int, out: str, tiny: bool = False):
        n, m = (129, 17) if tiny else (513, 65)
        self.config = kl.RunConfig(n=n, m=m, s_range=S_RANGE, eps=EPS, tau=TAU,
                                   out=os.path.join(out, "pipeline"), seed=seed, k=K)
        self.digest = None

    def run_pass(self) -> PassResult:
        res = PassResult()
        report = res.attempt("run_full_pipeline", lambda: kl.run_full_pipeline(self.config))
        if report is not None:
            self.check_report(report, res)
        return res

    def check_report(self, report: dict, res: PassResult) -> None:
        cfg = self.config
        s = np.linspace(cfg.s_range[0], cfg.s_range[1], cfg.n)
        with open(os.path.join(cfg.out, "report.json"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            res.problems.append("report.json bytes differ between passes")
        with open(os.path.join(cfg.out, "ke_potential.json")) as fh:
            res.check(ck.check_ke_potential, json.load(fh)["values"], s)
        res.check(ck.check_automorphism, report["automorphism"]["a"], cfg.tau, s[1] - s[0])
        res.check(ck.check_fibres, report["per_t"])
        res.check(ck.check_ding, report["ding"], cfg.eps)
        res.check(ck.check_linear_convergence, report["convergence"]["sup_deviation"])


# -- sweep-large ------------------------------------------------------------


class SweepLarge:
    """The eps sweep at n=1025, m=129 and the per-fibre decomposition of all
    its fibres.  KE and the pullback are solved during set-up.  The inputs do
    not depend on the seed; the seed fixes the order of the decompositions."""

    name = "sweep-large"
    TOL = 1e-10   # solver target: max(min(tol, 1e-10), 3e-12)
    FAULTS = {(1e-2, 0.703125): "F1"}   # (eps, t) -> known fault

    def __init__(self, seed: int, out: str, tiny: bool = False):
        n, self.m = (129, 17) if tiny else (1025, 129)
        self.grid = kl.SGrid(S_RANGE[0], S_RANGE[1], n)
        self.u0 = kl.solve_ke(self.grid)
        self.u1 = kl.pullback_potential(self.u0, TAU)
        pairs = [(e, j) for e in EPS for j in range(self.m)]
        order = np.random.default_rng(seed).permutation(len(pairs))
        self.order = [pairs[i] for i in order]

    def run_pass(self) -> PassResult:
        res = PassResult()
        sweep = res.attempt(
            "solve_epsilon_sweep",
            lambda: kl.solve_epsilon_sweep(self.u0, self.u1, EPS, self.m, tol=self.TOL),
            count=len(EPS),
        )
        if sweep is None:
            res.attempted += len(self.order)
            res.failed += len(self.order)
            return res
        s = self.grid.nodes()
        for eps in EPS:
            U = sweep[eps].values
            res.check(ck.check_monge_ampere, U, eps, s, self.TOL)
            res.check(ck.check_convexity, U, eps, self.grid.ds)
        t_grid = np.linspace(0.0, 1.0, self.m)
        for eps, j in self.order:
            t = float(t_grid[j])
            rec = res.attempt(f"fiber_decompose eps={eps} t={t}",
                              lambda: kl.fiber_decompose(sweep[eps], t, K),
                              expect=self.FAULTS.get((eps, t)))
            if rec is not None:
                res.check(ck.check_unit_eigenvalue, rec.eigenvalues, f"eps={eps} t={t}")
        return res


# -- spectrum-files ---------------------------------------------------------


class SpectrumFiles:
    """``run_spectrum`` (the ``kelab spectrum`` code path) on potential files
    written during set-up: per size the round metric plus draws of
    ``random_convex_potential`` from one fixed stream, ``default_rng(0)``,
    taken in size order.  The inputs are the same for every seed; the seed
    fixes the call order and which quarter of the calls dump eigenfunctions.
    Two of the draws fail by F1 and F2 and never dump."""

    name = "spectrum-files"
    POOL_SEED = 0
    FAULTS = {(257, 4): "F1", (2049, 10): "F2"}   # (n, draw) -> known fault

    def __init__(self, seed: int, out: str, tiny: bool = False):
        sizes, draws, dumps = ((65, 129), 3, 1) if tiny else ((257, 513, 1025, 2049), 15, 4)
        pool = np.random.default_rng(self.POOL_SEED)
        rng = np.random.default_rng(seed)
        inputs = []               # (label, potential, dump, is_round, expected fault)
        root = os.path.join(out, "spectrum")
        os.makedirs(os.path.join(root, "inputs"), exist_ok=True)
        for n in sizes:
            grid = kl.SGrid(S_RANGE[0], S_RANGE[1], n)
            pots = [(f"round n={n}", kl.fubini_study_potential(grid), True, None)]
            pots += [(f"draw n={n} #{i}", kl.random_convex_potential(grid, pool), False,
                      self.FAULTS.get((n, i))) for i in range(draws)]
            # dumps go to inputs not known to fail, so every seed writes the
            # same number of eigenfunction files of each size
            ok = [i for i, p in enumerate(pots) if p[3] is None]
            dump = set(rng.choice(ok, size=dumps, replace=False).tolist())
            for i, (label, u, is_round, fault) in enumerate(pots):
                inputs.append((label, u, i in dump, is_round, fault))

        self.calls = []
        for idx in rng.permutation(len(inputs)):
            label, u, dump, is_round, fault = inputs[idx]
            path = os.path.join(root, "inputs", f"potential_{idx:03d}.json")
            kl.serialize.dump_json(u.to_dict(), path)
            cfg = kl.RunConfig(out=os.path.join(root, f"out_{idx:03d}"), k=K)
            self.calls.append((label, u, path, cfg, dump, is_round, fault))

    def run_pass(self) -> PassResult:
        res = PassResult()
        for label, u, path, cfg, dump, is_round, fault in self.calls:
            rep = res.attempt(label, lambda: kl.run_spectrum(cfg, path, dump), expect=fault)
            if rep is not None:
                self.check_call(res, label, u, cfg, rep, dump, is_round)
        return res

    @staticmethod
    def check_call(res, label, u, cfg, rep, dump, is_round) -> None:
        lam = rep["eigenvalues"]
        s = u.grid.nodes()
        res.check(ck.check_unit_eigenvalue, lam, label)
        if is_round:
            res.check(ck.check_round_spectrum, lam, u.grid.ds, label)
        res.check(ck.check_spectrum_csv, os.path.join(cfg.out, "spectrum.csv"),
                  lam, rep["futaki_residuals"])
        if dump:
            _, table = ck.read_csv_exact(os.path.join(cfg.out, "eigenfunctions.csv"))
            if not np.array_equal(table[:, 0], s):
                res.problems.append(f"{label}: eigenfunctions.csv s column is not the grid")
            funcs = table[:, 1:].T
            res.check(ck.check_orthonormal, funcs, u.values, s, label)
            res.check(ck.check_rayleigh, funcs, lam, u.values, s, label)


WORKLOADS = {w.name: w for w in (PipelineDefault, SweepLarge, SpectrumFiles)}
