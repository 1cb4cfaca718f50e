"""markovfiber benchmark: one workload, whole rounds, one JSON result line.

    python3 bench/run.py --workload gilby-chi2 --seed 1 --seconds 20 --trace 0

Each round runs the workload once in a fresh interpreter (``worker.py``), so
the import, the peak resident set and the package's in-process caches start
clean every time.  Rounds repeat while one more round of median length
still ends inside ``--seconds``, with at least the workload's minimum number
of them; every end-to-end and per-layer metric is the median over the
rounds.  After the rounds the outputs are checked (``checks.py``) and the
last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the rounds also record spans around every call into a layer, and the
metrics are the per-layer ones derived from those spans.  Rounds, spans and
metrics are written to ``.bench_out/`` in the checkout.  Any error in a
round, or a checkout without the package, exits 1 without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

MAX_ROUNDS = 40
RUN_LIMIT_S = 170.0  # a run, rounds and checks, must end well inside 180 s


def walk_job(table, model, alt, stat, steps, chains, lazy_draws=0, scaling_chains=0):
    def make(seed: int, r: int) -> dict:
        return {"kind": "walk", "table": table(seed), "model": model, "alt": alt,
                "stat": stat, "steps": steps, "burn_in": steps // 10, "chains": chains,
                "seed": inputs.derive_seed(seed, r, 0), "lazy_draws": lazy_draws,
                "draw_seed": inputs.derive_seed(seed, r, 1),
                "scaling_chains": scaling_chains}
    return make


def verify_job(steps):
    def make(seed: int, r: int) -> dict:
        return {"kind": "verify", "max_totals": inputs.SWEEP_TOTALS,
                "grobner_max_dim": inputs.GROBNER_MAX_DIM, "fiber_cap": 200,
                "cases": inputs.SMALL_FIBERS, "steps": steps, "burn_in": steps // 10,
                "seeds": [inputs.derive_seed(seed, r, k)
                          for k in range(len(inputs.SMALL_FIBERS))]}
    return make


# name -> (job factory, output check, fewest rounds in a run).  A Victoria
# round takes about 22 s, so two of them fill a run; the others take 2-9 s.
# Victoria walks one chain: four chains run on the default thread pool,
# whose rate spreads about four times wider than one thread's, too wide to
# bound.  Traced rounds also walk the four pooled chains (mcmc.chain_scaling).
WORKLOADS = {
    "gilby-chi2": (
        walk_job(lambda seed: inputs.GILBY, inputs.GILBY_MODEL, None, "chi2",
                 steps=300_000, chains=1),
        checks.check_gilby, 3),
    "victoria-llr": (
        walk_job(lambda seed: inputs.VICTORIA, inputs.VICTORIA_NULL, inputs.VICTORIA_ALT,
                 "llr", steps=600_000, chains=1, scaling_chains=4),
        checks.check_victoria, 2),
    "lazy-grid": (
        walk_job(inputs.lazy_grid_table, inputs.GRID_MODEL, None, "chi2",
                 steps=5_000, chains=1, lazy_draws=3_000),
        checks.check_lazy, 3),
    "verify-sweeps": (verify_job(steps=30_000), checks.check_verify, 3),
}


def run_round(job: dict, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MARKOV_FIBER_THREADS"}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
        capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def operations(out: dict) -> int:
    """Operations of one round: its chains, or the verified models (suite
    classes and spot checks, witness sweeps), certificates and fibers."""
    if "chains" in out:
        return len(out["chains"])
    models = sum(s["models_checked"] + s["spot_checks"] for s in out["suites"])
    return models + len(out["witnesses"]) + len(out["certificates"]) + len(out["fibers"])


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(rounds: list[dict]) -> dict:
    return {
        "setup_s": (median(r["setup_s"] for r in rounds), "s"),
        "wall_s": (median(r["wall_s"] for r in rounds), "s"),
        "walk_steps_per_s": (median(r["walk_steps"] / r["walk_s"] for r in rounds), "steps/s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def layer_values(out: dict) -> dict:
    """Per-layer metrics of one traced round, from its spans.  A layer the
    workload does not call reads 0."""
    spans = out["spans"]

    def dur(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def attr(name, key, agg=sum):
        vals = [s["attrs"][key] for s in spans if s["name"] == name and key in s["attrs"]]
        return agg(vals) if vals else 0

    def ratio(a, b):
        return a / b if b else 0.0

    chains = [ch for ch in out.get("chains", [])] or [f["chain"] for f in out.get("fibers", [])]
    steps = sum(ch["steps"] for ch in chains)
    walk = dur("mcmc.run_chains") + dur("mcmc.walk")
    const = dur("mcmc.run_chains.constant") + dur("mcmc.walk.constant")
    const_steps = (attr("mcmc.run_chains.constant", "steps")
                   + attr("mcmc.walk.constant", "steps"))
    sweep_s = dur("verify.sweeps")
    fibers = sum(attr(n, "fibers") for n in (
        "verify.change_point_suite", "verify.own_blocks_suite",
        "verify.common_blocks_suite", "verify.connectivity_sweep"))
    grobner_s = dur("toric.verify_grobner")
    draws = attr("moves.random_move", "count")
    pooled = dur("mcmc.run_chains.pooled")
    return {
        "markovfiber.import_s": (dur("markovfiber.import"), "s"),
        "fit.ipf_s": (dur("fit.ipf_fit"), "s"),
        "fit.ipf_iterations": (attr("fit.ipf_fit", "iterations"), "count"),
        "fit.tracker_build_s": (dur("fit.make_tracker"), "s"),
        "fit.tracker_walk_s": (walk - const, "s"),
        "moves.build_s": (dur("moves.basis_for_model"), "s"),
        "moves.build_peak_mb": (attr("moves.basis_for_model", "peak_growth_mb", max), "MB"),
        "moves.stored_moves": (attr("moves.basis_for_model", "stored_moves"), "count"),
        "moves.lazy_draw_us": (ratio(dur("moves.random_move") * 1e6, draws), "us"),
        "mcmc.core_steps_per_s": (ratio(const_steps, const), "steps/s"),
        "mcmc.accept_rate": (ratio(sum(ch["accepts"] for ch in chains), steps), "ratio"),
        "mcmc.stay_rate": (ratio(sum(ch["stays"] for ch in chains), steps), "ratio"),
        "mcmc.chain_scaling": (ratio(dur("mcmc.run_chains"), pooled), "ratio"),
        "fiber.enumerate_s": (dur("fiber.enumerate_fiber"), "s"),
        "fiber.exact_pvalue_s": (dur("fiber.exact_pvalue"), "s"),
        "verify.sweep_s": (sweep_s, "s"),
        "verify.fibers_per_s": (ratio(fibers, sweep_s), "1/s"),
        "verify.peak_mb": (attr("verify.sweeps", "peak_growth_mb", max), "MB"),
        "toric.grobner_s": (grobner_s, "s"),
        "toric.spairs_per_s": (ratio(attr("toric.verify_grobner", "pairs"), grobner_s), "1/s"),
    }


def per_layer(rounds: list[dict]) -> dict:
    per_round = [layer_values(r) for r in rounds]
    return {name: (median(v[name][0] for v in per_round), unit)
            for name, (_, unit) in per_round[0].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    make_job, check, min_rounds = WORKLOADS[args.workload]
    trace = bool(args.trace)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    rounds = []
    took = []  # seconds per round, worker start to result
    # A round starts only if a round of median length still ends inside
    # --seconds, so long rounds do not overrun the run by most of a round.
    while len(rounds) < min_rounds or (
            time.perf_counter() - start + median(took) <= args.seconds
            and len(rounds) < MAX_ROUNDS):
        job = dict(make_job(args.seed, len(rounds)), trace=trace)
        t = time.perf_counter()
        rounds.append(run_round(job, deadline))
        took.append(time.perf_counter() - t)

    # the checks read only the inputs that every round of a run shares
    problems = check(make_job(args.seed, 0), rounds)
    attempted = sum(operations(r) for r in rounds)
    metrics = per_layer(rounds) if trace else end_to_end(rounds)
    result = {"correct": not problems, "attempted": attempted, "failed": 0,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    for r in rounds:
        for ch in r.get("chains", []) + [f["chain"] for f in r.get("fibers", [])]:
            ch.pop("samples", None)
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "problems": problems, "result": result,
        "end_to_end": end_to_end(rounds), "rounds": rounds}, indent=1))
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
