"""Command-line front end.

Every subcommand prints one JSON report to stdout and exits 0, or prints a
machine-readable error object and exits 1 (for any ``MarkovFiberError``,
the base of every error raised on purpose, or ``OSError``).  Tables travel
as header-less CSV, reports as JSON; identical invocations with identical
seeds produce identical reports except for the timing block.  ``moves
dump``, ``verify`` and ``grobner-check`` take their grid from ``--dataset``
or ``--table``, else from ``--rows`` and ``--cols``.  A command imports the
fiber, toric and verification layers only if it calls them, so ``test`` and
``fit`` load neither.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import ExitStack

from . import __version__
from . import models as _models
from .datasets import DATASET_NAMES, dataset, dataset_models
from .fit import STATS, chi_square, g_square, ipf_fit, make_tracker
from .mcmc import ChainConfig, pooled_pvalue, run_chains
from .models import ModelSpec, build_configuration, load_model, model_to_dict, save_model
from .moves import ENUMERATION_THRESHOLD, basis_for_model, dump_moves, enumerate_basis
from .tables import (
    MarkovFiberError,
    Table,
    degrees_of_freedom,
    read_table_csv,
    sufficient_statistic,
    write_table_csv,
)

__all__ = ["main"]

# --model accepts a builtin name (per dataset) or a path to a model JSON
_MODEL_ALIASES = {
    "changepoint-gilby": "change-point",
    "gilby-change-point": "change-point",
}


class CliError(MarkovFiberError, ValueError):
    pass


def _load_table(args) -> tuple[Table, str | None]:
    if args.dataset:
        return dataset(args.dataset), args.dataset
    if args.table:
        return read_table_csv(args.table, header=args.header), None
    raise CliError("provide --dataset or --table")


def _resolve_model(name: str | None, ds: str | None) -> ModelSpec:
    if name is None:
        if ds is None:
            raise CliError("provide --model (builtin name or JSON path)")
        name = next(iter(dataset_models(ds)))  # the dataset's default null
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


def _model_on_grid(args) -> tuple[ModelSpec, int, int]:
    """The model, and the grid of ``--dataset`` or ``--table`` if one is
    given, else of ``--rows`` and ``--cols``."""
    table, ds = _load_table(args) if args.dataset or args.table else (None, None)
    model = _resolve_model(args.model, ds)
    if table is not None:
        return model, table.R, table.C
    if args.rows and args.cols:
        return model, args.rows, args.cols
    raise CliError("provide --rows and --cols (or a table/dataset)")


def _stat_pair(args, ds, stat: str) -> tuple[ModelSpec, ModelSpec | None]:
    """The null model, and the alternative, which only --stat llr reads."""
    model = _resolve_model(args.model, ds)
    if stat != "llr":
        if args.alt:
            raise CliError(f"--alt is read only by --stat llr, not by --stat {stat}")
        return model, None
    if not args.alt:
        raise CliError("--stat llr needs --alt (the larger model)")
    return model, _resolve_model(args.alt, ds)


def _refuse_unread(args, flags: tuple[str, ...], reader: str) -> None:
    """Refuse each of ``flags`` that was given, since only ``reader`` reads
    it, instead of dropping it unreported."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False:
            raise CliError(f"{flag} is read only {reader}")


def _chi2_sf(x: float, df: int) -> float:
    """Asymptotic chi-square tail Q(df/2, x/2) for an integer df >= 1.

    With h = x/2 the series is finite: e^-h sum_{i<df/2} h^i / i! for even
    df, and erfc(sqrt h) + e^-h sum_{i<(df-1)/2} h^(i+1/2) / Gamma(i+3/2)
    for odd df.  The terms are summed in log space, so a large x or df does
    not underflow before the total does.
    """
    if not df >= 1 or math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    h = 0.5 * x
    log_h = math.log(h)
    half = 0.0 if df % 2 == 0 else 0.5
    logs = [(i + half) * log_h - h - math.lgamma(i + half + 1.0)
            for i in range(df // 2)]
    head = math.erfc(math.sqrt(h)) if half else 0.0
    if not logs:
        return head
    top = max(logs)
    return head + math.exp(top + math.log(sum(math.exp(v - top) for v in logs)))


def _check_chain_args(args) -> None:
    for flag, value in (("--steps", args.steps), ("--chains", args.chains),
                        ("--thin", args.thin)):
        if value < 1:
            raise CliError(f"{flag} must be >= 1, got {value}")
    if args.burn_in is not None and not 0 <= args.burn_in < args.steps:
        raise CliError(f"--burn-in must be in [0, steps), got {args.burn_in}")
    if args.check_every < 0:
        raise CliError(f"--check-every must be >= 0; 0 turns the audit off, got "
                       f"{args.check_every}")


def _check_bounds(*bounds: tuple[str, int | None]) -> None:
    """A sweep bound below 2 leaves nothing to check: a fiber with a move
    has total >= 2, on a grid of at least 2x2.  None is a bound not given."""
    for flag, value in bounds:
        if value is not None and value < 2:
            raise CliError(f"{flag} must be >= 2, got {value}")


def _require_enumerable(what: str, R: int, C: int) -> None:
    if R * C > ENUMERATION_THRESHOLD:
        raise CliError(f"{what} needs an enumerated basis; the {R}x{C} grid is above "
                       f"the enumeration threshold of {ENUMERATION_THRESHOLD} cells")


def _stream_paths(path: str | None, n_chains: int) -> list[str]:
    if not path:
        return []
    return [path] if n_chains == 1 else [f"{path}.{k}" for k in range(n_chains)]


def _write_stream(fp, samples) -> None:
    for v in samples:
        fp.write(f"{float(v)!r}\n")


def cmd_test(args) -> dict:
    _check_chain_args(args)
    table, ds = _load_table(args)
    model, alt = _stat_pair(args, ds, args.stat)
    R, C = table.R, table.C
    if alt is not None:
        _models.require_valid(alt, R, C)
    cfg = build_configuration(model, R, C)
    df = degrees_of_freedom(cfg)
    if df == 0:
        raise CliError("the model is saturated (df 0): the fiber is the observed table "
                       "alone, so there is nothing to sample; `fiber --exact-p` gives "
                       "its exact p-value")

    t0 = time.perf_counter()
    tracker = make_tracker(args.stat, table, model, alt=alt, tol=args.tol)
    fit = tracker.fit
    observed = tracker.observed
    if args.stat == "llr":
        df -= degrees_of_freedom(build_configuration(alt, R, C))
    fit_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    basis = basis_for_model(model, R, C)
    basis_s = time.perf_counter() - t0
    burn = args.burn_in if args.burn_in is not None else args.steps // 10
    chain = ChainConfig(steps=args.steps, burn_in=burn, thin=args.thin,
                        seed=args.seed, proposal=basis,
                        check_every=args.check_every)
    streams = _stream_paths(args.stats_out, args.chains)
    with ExitStack() as stack:
        # opened before the walk, so a path that cannot be written fails
        # before the chains run, not after
        files = [stack.enter_context(open(path, "w")) for path in streams]
        t0 = time.perf_counter()
        results = run_chains(table, cfg, chain, tracker, n_chains=args.chains)
        walk_s = time.perf_counter() - t0
        for fp, r in zip(files, results):
            _write_stream(fp, r.samples)
    pvalue, se = pooled_pvalue(results)
    if se != se:  # single ultra-short chain: no batch spread available
        se = None

    return {
        "command": "test",
        "dataset": ds,
        "grid": [R, C],
        "model": model_to_dict(model),
        "alt": model_to_dict(alt) if alt is not None else None,
        "stat": args.stat,
        "observed": observed,
        "df": df,
        "asymptotic_pvalue": _chi2_sf(observed, df) if df else None,
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
            "n_moves": sum(basis.counts_by_type().values()),
            "basis_mb": basis.nbytes / 2**20 if basis.kind == "enumerated" else None,
            "walk_s": walk_s,
        },
    }


def cmd_fit(args) -> dict:
    table, ds = _load_table(args)
    model = _resolve_model(args.model, ds)
    R, C = table.R, table.C
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
        # a saturated model (df 0) has no asymptotic test
        "asymptotic_pvalue_chi2": _chi2_sf(chi2, df) if df else None,
        "asymptotic_pvalue_g2": _chi2_sf(g2, df) if df else None,
        "timings": {"fit_s": fit_s},
    }


def cmd_sample(args) -> dict:
    if not args.stats_out:
        raise CliError("sample needs --stats-out to receive the stream")
    report = cmd_test(args)
    report["command"] = "sample"
    return report


def cmd_moves_dump(args) -> dict:
    model, R, C = _model_on_grid(args)
    _require_enumerable("moves dump", R, C)
    basis = enumerate_basis(model, R, C)
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
    from .fiber import DEFAULT_CAP, enumerate_fiber, fiber_pvalue, is_connected

    cap = DEFAULT_CAP if args.cap is None else args.cap
    if cap < 1:
        raise CliError(f"--cap must be >= 1, got {cap}")
    if not args.exact_p:
        _refuse_unread(args, ("--alt", "--stat"), "with --exact-p")
    stat = args.stat or "chi2"
    table, ds = _load_table(args)
    model, alt = _stat_pair(args, ds, stat)
    R, C = table.R, table.C
    if args.check_connect:
        # refuse before enumerating: the fiber can take minutes to list
        _require_enumerable("--check-connect", R, C)
    cfg = build_configuration(model, R, C)
    t = sufficient_statistic(table, cfg)
    fiber = enumerate_fiber(t, cfg, cap=cap)
    report = {
        "command": "fiber",
        "dataset": ds,
        "grid": [R, C],
        "model": model_to_dict(model),
        "t": [int(v) for v in t],
        "size": len(fiber),
        "overflowed": fiber.overflowed,
        "cap": cap,
    }
    if args.check_connect:
        report["connected"] = is_connected(fiber, enumerate_basis(model, R, C))
    if args.exact_p:
        statistic = make_tracker(stat, table, model, alt=alt)
        report["stat"] = stat
        report["exact_pvalue"] = fiber_pvalue(fiber, table, statistic)
    return report


def cmd_verify(args) -> dict:
    from .verify import (change_point_suite, common_blocks_suite, connectivity_range,
                         indispensability_sweep, own_blocks_suite)

    _check_bounds(("--max-total", args.max_total), ("--max-dim", args.max_dim))
    if args.max_dim is not None and args.suite not in ("change-point", "all"):
        raise CliError("--max-dim bounds the grids of --suite change-point (or all) "
                       "and is read nowhere else")
    if args.suite:
        _refuse_unread(args, ("--types", "--rows", "--cols", "--model", "--dataset", "--table",
                              "--header"), "by verify without --suite, on one model and grid")
        runners = {
            "change-point": lambda: change_point_suite(
                max_dim=4 if args.max_dim is None else args.max_dim, max_total=args.max_total),
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
    model, R, C = _model_on_grid(args)
    _models.require_valid(model, R, C)
    _require_enumerable("verify", R, C)
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
    from .toric import verify_grobner

    _check_bounds(("--max-dim", args.max_dim))
    model, R, C = _model_on_grid(args)
    t0 = time.perf_counter()
    report = verify_grobner(model, R, C, max_dim=args.max_dim)
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


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    _add_table_flags(p)
    _add_model_flags(p, with_alt=False)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)


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

    p = sub.add_parser("fit", help="maximum-likelihood fit and asymptotic test only")
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
    _add_grid_flags(pd)
    pd.add_argument("--out", help="output path (default stdout)")
    pd.set_defaults(func=cmd_moves_dump)

    p = sub.add_parser("fiber", help="enumerate the observed table's fiber")
    _add_table_flags(p)
    _add_model_flags(p)
    p.add_argument("--cap", type=int,
                   help="most tables to enumerate (default: markovfiber.fiber.DEFAULT_CAP)")
    p.add_argument("--check-connect", action="store_true")
    p.add_argument("--exact-p", action="store_true")
    p.add_argument("--stat", choices=STATS, help="statistic of --exact-p (default chi2)")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("verify", help="connectivity/indispensability sweeps")
    _add_grid_flags(p)
    p.add_argument("--max-total", type=int, default=5)
    p.add_argument("--max-dim", type=int,
                   help="largest grid side of --suite change-point (default 4)")
    p.add_argument("--types", help="comma-separated move types, e.g. I,II")
    p.add_argument("--suite",
                   choices=("change-point", "own-blocks", "common-blocks", "all"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("grobner-check",
                       help="certify the quadratic basis by S-pair reduction")
    _add_grid_flags(p)
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
    except (MarkovFiberError, OSError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}))
        return 1
    if report is not None:
        print(json.dumps(report, indent=2, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
