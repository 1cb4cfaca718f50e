"""Command-line front end.

Every subcommand prints one JSON report to stdout and exits 0, or prints a
machine-readable error object and exits 1.  Tables travel as header-less
CSV, reports as JSON; identical invocations with identical seeds produce
identical reports except for the timing block.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from . import models as _models
from .datasets import DATASET_NAMES, dataset, dataset_models
from .fiber import DEFAULT_CAP, FiberOverflow, enumerate_fiber, exact_pvalue, is_connected
from .fit import FitError, chi_square, g_square, ipf_fit, make_tracker
from .mcmc import ChainConfig, pooled_pvalue, run_chains
from .models import ModelError, ModelSpec, load_model, model_to_dict, save_model
from .moves import basis_for_model, dump_moves
from .tables import (
    Table,
    TableError,
    build_configuration,
    degrees_of_freedom,
    read_table_csv,
    write_table_csv,
)
from .toric import ToricError, verify_grobner
from .verify import (
    change_point_suite,
    common_blocks_suite,
    connectivity_range,
    indispensability_sweep,
    own_blocks_suite,
)

__all__ = ["main"]

STATS = ("chi2", "g2", "llr")

# --model accepts a builtin name (per dataset) or a path to a model JSON
_MODEL_ALIASES = {
    "changepoint-gilby": "change-point",
    "gilby-change-point": "change-point",
}
_DEFAULT_MODEL = {"gilby": "change-point", "victoria": "common-blocks"}


class CliError(ValueError):
    pass


def _load_table(args) -> tuple[Table, str | None]:
    if getattr(args, "dataset", None):
        return dataset(args.dataset), args.dataset
    if getattr(args, "table", None):
        return read_table_csv(args.table, header=args.header), None
    raise CliError("provide --dataset or --table")


def _resolve_model(name: str | None, ds: str | None) -> ModelSpec:
    if name is None:
        if ds is None:
            raise CliError("provide --model (builtin name or JSON path)")
        name = _DEFAULT_MODEL[ds]
    if ds is not None:
        builtin = dataset_models(ds)
        key = _MODEL_ALIASES.get(name, name)
        if key in builtin:
            return builtin[key]
    if os.path.exists(name):
        return load_model(name)
    if ds is not None:
        opts = sorted(set(dataset_models(ds)) | set(_MODEL_ALIASES))
        raise CliError(f"unknown model {name!r} for dataset {ds!r}; "
                       f"builtins: {', '.join(opts)}, or pass a JSON path")
    raise CliError(f"model file not found: {name!r}")


def _grid(args, table: Table | None) -> tuple[int, int]:
    if table is not None:
        return table.R, table.C
    if args.rows and args.cols:
        return args.rows, args.cols
    raise CliError("provide --rows and --cols (or a table/dataset)")


def _stat_pair(args, ds) -> tuple[ModelSpec, ModelSpec | None]:
    model = _resolve_model(args.model, ds)
    alt = _resolve_model(args.alt, ds) if getattr(args, "alt", None) else None
    if args.stat == "llr" and alt is None:
        raise CliError("--stat llr needs --alt (the larger model)")
    return model, alt


def _chi2_sf(x: float, df: int) -> float:
    """Asymptotic chi-square tail; scipy is imported here because it
    dominates the import time of this module."""
    from scipy.stats import chi2

    return float(chi2.sf(x, df))


def _check_chain_args(args) -> None:
    for flag, value in (("--steps", args.steps), ("--chains", args.chains),
                        ("--thin", args.thin)):
        if value < 1:
            raise CliError(f"{flag} must be >= 1, got {value}")
    if args.burn_in is not None and not 0 <= args.burn_in < args.steps:
        raise CliError(f"--burn-in must be in [0, steps), got {args.burn_in}")


def _write_stream(path: str, k: int, n_chains: int, samples) -> str:
    out = path if n_chains == 1 else f"{path}.{k}"
    with open(out, "w") as fp:
        for v in samples:
            fp.write(f"{float(v)!r}\n")
    return out


def cmd_test(args) -> dict:
    _check_chain_args(args)
    table, ds = _load_table(args)
    model, alt = _stat_pair(args, ds)
    R, C = table.R, table.C
    _models.require_valid(model, R, C)
    if alt is not None:
        _models.require_valid(alt, R, C)
    cfg = build_configuration(model, R, C)

    t0 = time.perf_counter()
    tracker = make_tracker(args.stat, table, model, alt=alt, tol=args.tol)
    fit = tracker.fit
    df = degrees_of_freedom(cfg)
    if args.stat == "llr":
        observed = tracker.observed
        df -= degrees_of_freedom(build_configuration(alt, R, C))
    else:
        observed = (chi_square if args.stat == "chi2" else g_square)(table, fit.expected)
    fit_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    basis = basis_for_model(model, R, C)
    basis_s = time.perf_counter() - t0
    burn = args.burn_in if args.burn_in is not None else args.steps // 10
    chain = ChainConfig(steps=args.steps, burn_in=burn, thin=args.thin,
                        seed=args.seed, proposal=basis,
                        check_every=args.check_every)
    t0 = time.perf_counter()
    results = run_chains(table, cfg, chain, tracker, n_chains=args.chains)
    walk_s = time.perf_counter() - t0
    pvalue, se = pooled_pvalue(results)
    if se != se:  # single ultra-short chain: no batch spread available
        se = None

    streams = []
    if args.stats_out:
        streams = [_write_stream(args.stats_out, k, args.chains, r.samples)
                   for k, r in enumerate(results)]

    return {
        "command": "test",
        "dataset": ds,
        "grid": [R, C],
        "model": model_to_dict(model),
        "alt": model_to_dict(alt) if alt is not None else None,
        "stat": args.stat,
        "observed": observed,
        "df": df,
        "asymptotic_pvalue": _chi2_sf(observed, df),
        "fit": {
            "iterations": fit.iterations,
            "max_discrepancy": fit.max_discrepancy,
            "converged": fit.converged,
        },
        "mcmc": {
            "steps": args.steps,
            "burn_in": burn,
            "thin": args.thin,
            "chains": args.chains,
            "seeds": [r.seed for r in results],
            "pvalue": pvalue,
            "std_error": se,
            "per_chain_pvalues": [r.pvalue for r in results],
            "acceptance_rates": [r.acceptance_rate for r in results],
            "stay_fractions": [r.stay_count / r.steps for r in results],
            "llr_cache": tracker.cache_counts() if args.stat == "llr" else None,
        },
        "stats_out": streams or None,
        "timings": {
            "fit_s": fit_s,
            "basis_s": basis_s,
            "n_moves": len(basis) if basis.kind == "enumerated" else None,
            "walk_s": walk_s,
        },
    }


def cmd_fit(args) -> dict:
    table, ds = _load_table(args)
    model = _resolve_model(args.model, ds)
    R, C = table.R, table.C
    _models.require_valid(model, R, C)
    cfg = build_configuration(model, R, C)
    t0 = time.perf_counter()
    fit = ipf_fit(table, model, tol=args.tol)
    fit_s = time.perf_counter() - t0
    chi2 = chi_square(table, fit.expected)
    g2 = g_square(table, fit.expected)
    df = degrees_of_freedom(cfg)
    return {
        "command": "fit",
        "dataset": ds,
        "grid": [R, C],
        "model": model_to_dict(model),
        "expected": [[float(v) for v in row] for row in fit.expected],
        "iterations": fit.iterations,
        "max_discrepancy": fit.max_discrepancy,
        "converged": fit.converged,
        "chi2": chi2,
        "g2": g2,
        "df": df,
        "asymptotic_pvalue_chi2": _chi2_sf(chi2, df),
        "asymptotic_pvalue_g2": _chi2_sf(g2, df),
        "timings": {"fit_s": fit_s},
    }


def cmd_sample(args) -> dict:
    if not args.stats_out:
        raise CliError("sample needs --stats-out to receive the stream")
    report = cmd_test(args)
    report["command"] = "sample"
    return report


def cmd_moves_dump(args) -> dict:
    ds = getattr(args, "dataset", None)
    table = dataset(ds) if ds else None
    model = _resolve_model(args.model, ds)
    R, C = _grid(args, table)
    _models.require_valid(model, R, C)
    basis = basis_for_model(model, R, C, enumerate_threshold=R * C + 1_000_000)
    if not args.out:
        # the basis itself is the output; no JSON report in this mode
        dump_moves(basis, sys.stdout)
        return None
    with open(args.out, "w") as fp:
        dump_moves(basis, fp)
    return {
        "command": "moves dump",
        "grid": [R, C],
        "model": model_to_dict(model),
        "n_moves": len(basis),
        "by_type": basis.counts_by_type(),
        "out": args.out,
    }


def cmd_fiber(args) -> dict:
    table, ds = _load_table(args)
    model = _resolve_model(args.model, ds)
    R, C = table.R, table.C
    _models.require_valid(model, R, C)
    cfg = build_configuration(model, R, C)
    t = cfg.apply(table.vec())
    fiber = enumerate_fiber(tuple(int(v) for v in t), cfg, cap=args.cap)
    report = {
        "command": "fiber",
        "dataset": ds,
        "grid": [R, C],
        "model": model_to_dict(model),
        "t": [int(v) for v in t],
        "size": len(fiber),
        "overflowed": fiber.overflowed,
        "cap": args.cap,
    }
    if args.check_connect:
        if fiber.overflowed:
            raise FiberOverflow(
                f"fiber exceeded cap {args.cap}; cannot check connectivity")
        basis = basis_for_model(model, R, C)
        if basis.kind != "enumerated":
            raise CliError(f"--check-connect needs an enumerated basis; the {R}x{C} "
                           "grid is above the enumeration threshold")
        report["connected"] = is_connected(fiber, basis)
    if args.exact_p:
        if fiber.overflowed:
            raise FiberOverflow(
                f"fiber exceeded cap {args.cap}; cannot compute the exact p-value")
        alt = _resolve_model(args.alt, ds) if getattr(args, "alt", None) else None
        if args.stat == "llr" and alt is None:
            raise CliError("--stat llr needs --alt")
        statistic = make_tracker(args.stat, table, model, alt=alt)
        report["stat"] = args.stat
        report["exact_pvalue"] = exact_pvalue(table, cfg, statistic, cap=args.cap)
    return report


def cmd_verify(args) -> dict:
    if args.suite:
        runners = {
            "change-point": lambda: change_point_suite(max_dim=args.max_dim or 4,
                                                       max_total=args.max_total),
            "own-blocks": lambda: own_blocks_suite(max_total=args.max_total),
            "common-blocks": lambda: common_blocks_suite(max_total=args.max_total),
        }
        names = list(runners) if args.suite == "all" else [args.suite]
        suites, sweep_s = [], {}
        for n in names:
            t0 = time.perf_counter()
            suites.append(runners[n]().to_dict())
            sweep_s[n] = time.perf_counter() - t0
        return {
            "command": "verify",
            "suites": suites,
            "timings": {"sweep_s": sweep_s},
        }
    ds = getattr(args, "dataset", None)
    table = dataset(ds) if ds else None
    model = _resolve_model(args.model, ds)
    R, C = _grid(args, table)
    _models.require_valid(model, R, C)
    types = tuple(args.types.split(",")) if args.types else None
    reports = connectivity_range(model, R, C, args.max_total, types=types)
    out = {
        "command": "verify",
        "grid": [R, C],
        "model": model_to_dict(model),
        "types": list(types) if types else None,
        "max_total": args.max_total,
        "connectivity": [r.to_dict() for r in reports],
        "all_connected": all(r.ok for r in reports),
    }
    timings = {"sweep_s": {str(r.total): r.sweep_s for r in reports}}
    if model.family == _models.CHANGE_POINT:
        t0 = time.perf_counter()
        ind = indispensability_sweep(model, R, C)
        timings["indispensability_s"] = time.perf_counter() - t0
        out["indispensability"] = ind.to_dict()
    out["timings"] = timings
    return out


def cmd_grobner_check(args) -> dict:
    ds = getattr(args, "dataset", None)
    table = dataset(ds) if ds else None
    model = _resolve_model(args.model, ds)
    R, C = _grid(args, table)
    t0 = time.perf_counter()
    report = verify_grobner(model, R, C, max_dim=args.max_dim or 5)
    grobner_s = time.perf_counter() - t0
    return {"command": "grobner-check", "model": model_to_dict(model),
            **report.to_dict(), "timings": {"grobner_s": grobner_s}}


def cmd_datasets(args) -> dict:
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    files = []
    totals = {}
    for name in DATASET_NAMES:
        table = dataset(name)
        path = os.path.join(out_dir, f"{name}.csv")
        write_table_csv(table, path)
        files.append(path)
        totals[name] = table.total
        for key, model in dataset_models(name).items():
            mpath = os.path.join(out_dir, f"{name}-{key}.json")
            save_model(model, mpath)
            files.append(mpath)
    return {"command": "datasets", "files": files, "totals": totals}


def _add_table_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=DATASET_NAMES,
                   help="embedded dataset (gilby or victoria)")
    p.add_argument("--table", help="path to a header-less CSV table")
    p.add_argument("--header", action="store_true",
                   help="tolerate one label row/column in --table")


def _add_model_flags(p: argparse.ArgumentParser, with_alt: bool = True) -> None:
    p.add_argument("--model", help="builtin model name or model JSON path")
    if with_alt:
        p.add_argument("--alt",
                       help="larger nested model (needed for --stat llr)")


def _add_chain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--stat", choices=STATS, default="chi2")
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=None,
                   help="default: steps // 10")
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--check-every", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--stats-out",
                   help="write the thinned statistic stream as CSV "
                        "(one value per line; .k suffix per extra chain)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovfiber",
        description="Exact conditional tests for two-way tables under "
                    "subtable-effect models, via Markov-basis MCMC.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="goodness-of-fit test (fit + MCMC p-value)")
    _add_table_flags(p)
    _add_model_flags(p)
    _add_chain_flags(p)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("fit", help="IPF fit and asymptotic test only")
    _add_table_flags(p)
    _add_model_flags(p, with_alt=False)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="run the chain and dump the statistic stream")
    _add_table_flags(p)
    _add_model_flags(p)
    _add_chain_flags(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("moves", help="move-basis utilities")
    msub = p.add_subparsers(dest="moves_command", required=True)
    pd = msub.add_parser("dump", help="write the enumerated basis as text")
    _add_table_flags(pd)
    _add_model_flags(pd, with_alt=False)
    pd.add_argument("--rows", type=int)
    pd.add_argument("--cols", type=int)
    pd.add_argument("--out", help="output path (default stdout)")
    pd.set_defaults(func=cmd_moves_dump)

    p = sub.add_parser("fiber", help="enumerate the observed table's fiber")
    _add_table_flags(p)
    _add_model_flags(p)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--check-connect", action="store_true")
    p.add_argument("--exact-p", action="store_true")
    p.add_argument("--stat", choices=STATS, default="chi2")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("verify", help="connectivity/indispensability sweeps")
    _add_table_flags(p)
    _add_model_flags(p, with_alt=False)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--max-total", type=int, default=5)
    p.add_argument("--max-dim", type=int, default=None)
    p.add_argument("--types", help="comma-separated move types, e.g. I,II")
    p.add_argument("--suite",
                   choices=("change-point", "own-blocks", "common-blocks", "all"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grobner-check",
                       help="certify the quadratic basis by S-pair reduction")
    _add_table_flags(p)
    _add_model_flags(p, with_alt=False)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--max-dim", type=int, default=5)
    p.set_defaults(func=cmd_grobner_check)

    p = sub.add_parser("datasets", help="write the embedded tables and models")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_datasets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except (CliError, TableError, ModelError, FitError, ToricError,
            FiberOverflow, OSError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}))
        return 1
    if report is not None:
        print(json.dumps(report, indent=2, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
