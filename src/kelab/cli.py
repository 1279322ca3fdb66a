"""Command-line runner.

Exit codes: 0 success, 1 configuration/validation problem, 2 solver
failure (non-convergence or a limit that cannot be extracted or does not
match the endpoints), 3 I/O failure.  KELAB_THREADS caps the BLAS thread
pools; the package's ``__init__`` applies it before numpy is imported.
"""
import argparse
import sys

from .errors import KelabError, ValidationError
from .pipeline import RunConfig, load_config, run_full_pipeline, run_ke_solve, run_spectrum

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_IO = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its entries")
    p.add_argument("--n", type=int, help="spatial sample count")
    p.add_argument("--m", type=int, help="time sample count")
    p.add_argument("--s-range", type=float, nargs=2, metavar=("SMIN", "SMAX"))
    p.add_argument("--eps", type=float, nargs="+", help="epsilon schedule (decreasing)")
    p.add_argument("--tau", type=float, help="pullback parameter log a^2")
    p.add_argument("--tol", type=float, help="solver tolerance")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="seed recorded in reports")
    p.add_argument("--k", type=int, help="number of eigenpairs")


def _build_config(args: argparse.Namespace) -> RunConfig:
    base = load_config(args.config).to_dict() if args.config else {}
    for key in ("n", "m", "eps", "tau", "tol", "out", "seed", "k"):
        val = getattr(args, key, None)
        if val is not None:
            base[key] = val
    if getattr(args, "s_range", None) is not None:
        base["s_range"] = tuple(args.s_range)
    return RunConfig.from_dict(base)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kelab",
        description="invariant Kahler-Einstein laboratory on the sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ke = sub.add_parser("ke-solve", help="solve the Kahler-Einstein ODE")
    _add_common(p_ke)

    p_sp = sub.add_parser("spectrum", help="weighted Laplacian spectrum of a stored potential")
    _add_common(p_sp)
    p_sp.add_argument("--potential", required=True, help="potential JSON file")
    p_sp.add_argument(
        "--dump-eigenfunctions", action="store_true",
        help="also write eigenfunction columns as CSV",
    )

    p_pl = sub.add_parser("pipeline", help="full uniqueness pipeline")
    _add_common(p_pl)

    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        if args.command == "ke-solve":
            report = run_ke_solve(config)
            print(f"ke-solve: residual {report['residual']:.3e} "
                  f"in {report['iterations']} iterations -> {config.out}")
        elif args.command == "spectrum":
            report = run_spectrum(config, args.potential, args.dump_eigenfunctions)
            lam1 = report["eigenvalues"][0]
            print(f"spectrum: lambda_1 = {lam1:.6f} ({len(report['eigenvalues'])} pairs) "
                  f"-> {config.out}")
        else:
            report = run_full_pipeline(config)
            a = report["automorphism"]["a"]
            print(f"pipeline: automorphism scale a = {a:.6f}, "
                  f"endpoint error {report['automorphism']['endpoint_error']:.2e} "
                  f"-> {config.out}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KelabError as exc:  # convergence, trivial limit, endpoint mismatch
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
