"""One round of one workload, in a fresh interpreter.

``run.py`` starts this script once per round and sends the job (the
generated inputs and the chain settings) as JSON on stdin.  The script
imports markovfiber from the checkout's ``src`` directory, drives it through
its public calls, and prints one JSON object: the end-to-end timings, the
raw outputs the checks need, and, in traced mode, the spans recorded around
each call into a layer.  It checks nothing itself.
"""

from __future__ import annotations

import base64
import json
import random
import re
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

clock = time.perf_counter


# numpy is imported only after the clock starts, with the package that
# needs it, so that setup_s covers the package's whole import.


class Tracer:
    """Spans (name, start, end, parent, attributes), kept in memory.

    With tracing off, ``span`` still yields an attribute dict but keeps
    nothing, so untraced rounds pay only a context-manager call per layer.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": clock(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield attrs
        finally:
            rec["end"] = clock()
            self._stack.pop()


def _status_mb(field: str) -> float:
    """VmHWM / VmRSS of this process.  The high-water mark starts fresh at
    exec, unlike ru_maxrss, which keeps the forking parent's peak."""
    with open("/proc/self/status") as fp:
        for line in fp:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/self/status")


def peak_rss_mb() -> float:
    return _status_mb("VmHWM")


def encode(samples) -> str:
    import numpy as np

    return base64.b64encode(np.ascontiguousarray(samples, dtype="<f8").tobytes()).decode()


def chain_record(res) -> dict:
    return {"seed": res.seed, "steps": res.steps, "accepts": res.accept_count,
            "stays": res.stay_count, "rejects": res.reject_count,
            "observed": res.observed, "pvalue": res.pvalue,
            "samples": encode(res.samples)}


class ConstantTracker:
    """Tracker protocol with a constant statistic: the walk's own cost.

    The acceptance rule never reads the statistic, so a walk with this
    tracker visits the same states as one with the workload's tracker.
    """

    def start(self, x_flat) -> float:
        return 0.0

    def value_after(self, x_flat, flats, coefs) -> float:
        return 0.0

    def accept(self, x_flat, value: float) -> None:
        pass

    def fork(self):
        return self


def import_package(tr: Tracer):
    with tr.span("markovfiber.import"):
        sys.path.insert(0, str(SRC))
        import markovfiber
    where = Path(markovfiber.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"markovfiber was imported from {where}, not from {SRC}")
    return markovfiber


def build_basis(mf, tr: Tracer, model, R: int, C: int, types=None, **attrs):
    """basis_for_model inside a span that records the stored move count and
    how far the build raised the resident high-water mark.  (tracemalloc
    would give the Python heap peak instead, but it slows the 662,868-move
    Victoria build about sevenfold.)"""
    peak_before = peak_rss_mb()
    with tr.span("moves.basis_for_model", **attrs) as sp:
        basis = mf.basis_for_model(model, R, C, types=types)
    sp["stored_moves"] = 0 if basis.kind == "lazy" else len(basis)
    sp["peak_growth_mb"] = peak_rss_mb() - peak_before
    return basis


def walk_round(job: dict, tr: Tracer, t0: float) -> dict:
    """The call sequence of ``markovfiber test``: fit, observed statistic,
    basis, tracker, chains, pooled p-value."""
    mf = import_package(tr)
    import numpy as np
    from markovfiber.models import model_from_dict

    table = mf.Table(np.asarray(job["table"], dtype=np.int64))
    model = model_from_dict(job["model"])
    alt = model_from_dict(job["alt"]) if job["alt"] else None
    R, C = table.R, table.C
    stat = job["stat"]

    with tr.span("tables.build_configuration"):
        cfg = mf.build_configuration(model, R, C)
    with tr.span("fit.ipf_fit") as sp:
        fit = mf.ipf_fit(table, model)
        sp["iterations"] = fit.iterations
    with tr.span("fit.observed"):
        if stat == "llr":
            observed = mf.llr_nested(table, model, alt)
            df = (mf.degrees_of_freedom(cfg)
                  - mf.degrees_of_freedom(mf.build_configuration(alt, R, C)))
        else:
            observed = mf.chi_square(table, fit.expected)
            df = mf.degrees_of_freedom(cfg)
    basis = build_basis(mf, tr, model, R, C)
    with tr.span("fit.make_tracker"):
        tracker = mf.make_tracker(stat, table, model, alt=alt)
    chain = mf.ChainConfig(steps=job["steps"], burn_in=job["burn_in"], thin=1,
                           seed=job["seed"], proposal=basis)

    t_setup = clock()
    with tr.span("mcmc.run_chains", steps=job["steps"] * job["chains"]):
        results = mf.run_chains(table, cfg, chain, tracker, n_chains=job["chains"])
    t_walk = clock()
    pvalue, se = mf.pooled_pvalue(results)
    t_end = clock()

    out = {
        "setup_s": t_setup - t0,
        "wall_s": t_end - t0,
        "walk_s": t_walk - t_setup,
        "walk_steps": sum(r.steps for r in results),
        "df": df,
        "observed": observed,
        "expected": fit.expected.tolist(),
        "fit_converged": fit.converged,
        "pooled": [pvalue, se],
        "chains": [chain_record(r) for r in results],
        "basis_kind": basis.kind,
    }
    if stat == "llr":
        # the alternative fit, so the check can recompute the LLR itself
        out["alt_expected"] = mf.ipf_fit(table, alt).expected.tolist()

    if job["lazy_draws"]:
        rng = random.Random(job["draw_seed"])
        with tr.span("moves.random_move", count=job["lazy_draws"]):
            moves = [mf.random_move(basis, rng) for _ in range(job["lazy_draws"])]
        out["draws"] = [[m.mtype, [list(e) for e in m.entries]] for m in moves]

    if tr.enabled:
        with tr.span("mcmc.run_chains.constant", steps=job["steps"] * job["chains"]):
            mf.run_chains(table, cfg, chain, ConstantTracker(), n_chains=job["chains"])
        k = job["scaling_chains"]
        if k:
            # the same total steps split over k chains on the default pool
            split = mf.ChainConfig(steps=job["steps"] // k, burn_in=job["burn_in"] // k,
                                   thin=1, seed=job["seed"], proposal=basis)
            with tr.span("mcmc.run_chains.pooled", steps=split.steps * k):
                mf.run_chains(table, cfg, split, tracker, n_chains=k)
    return out


_WITNESS = re.compile(
    r"^(\d+)x(\d+) (\S+) rows=\[([\d, ]+)\] cols=\[([\d, ]+)\] "
    r"types=(\S+) total=(\d+) t=\[([\d, ]*)\] size=(\d+)$")


def witness_sweep(mf, tr: Tracer, label: str) -> dict:
    """Re-run the negative-control sweep a suite reported, to get the
    witness members the suite report only summarises."""
    from markovfiber.models import model_from_dict

    m = _WITNESS.match(label)
    if m is None:
        raise ValueError(f"unrecognised witness label {label!r}")
    R, C, family = int(m[1]), int(m[2]), m[3]
    spec = {"family": family,
            "row_bounds": [int(v) for v in m[4].split(",")],
            "col_bounds": [int(v) for v in m[5].split(",")]}
    types = tuple(m[6].split(","))
    total = int(m[7])
    with tr.span("verify.connectivity_sweep") as sp:
        rep = mf.connectivity_sweep(model_from_dict(spec), R, C, total,
                                    types=types, cross_check=0)
        sp["fibers"] = rep.n_multi
    w = rep.witnesses[0] if rep.witnesses else None
    return {"label": label, "R": R, "C": C, "model": spec, "types": list(types),
            "total": total, "n_tables": rep.n_tables, "n_disconnected": rep.n_disconnected,
            "label_t": [int(v) for v in m[8].split(",")], "label_size": int(m[9]),
            "t": list(w.t) if w else None, "size": w.size if w else None,
            "members": [list(x) for x in w.members] if w else None}


def verify_round(job: dict, tr: Tracer, t0: float) -> dict:
    """Criteria 5-7 sweeps, criterion 8 certificates, criterion 9 fibers."""
    mf = import_package(tr)
    import numpy as np
    from inputs import independence_chi2
    from markovfiber.models import model_from_dict
    from markovfiber.toric import canonicalize
    from markovfiber.verify import (change_point_models, change_point_suite,
                                    common_blocks_suite, own_blocks_suite)

    peak_before = peak_rss_mb()
    t_setup = clock()
    suites = []
    with tr.span("verify.sweeps") as sweeps:
        for name, fn, kwargs in (
                ("change-point", change_point_suite, {"max_dim": 4}),
                ("own-blocks", own_blocks_suite, {}),
                ("common-blocks", common_blocks_suite, {})):
            with tr.span(f"verify.{fn.__name__}") as sp:
                rep = fn(max_total=job["max_totals"][name], **kwargs)
                sp["fibers"] = rep.n_fibers_checked
            suites.append({"name": name, "ok": rep.ok, "models_raw": rep.models_raw,
                           "models_checked": rep.models_checked,
                           "spot_checks": rep.raw_spot_checks,
                           "connectivity_failures": list(rep.connectivity_failures),
                           "indispensability_failures": list(rep.indispensability_failures),
                           "witnesses": list(rep.witnesses),
                           "fibers": rep.n_fibers_checked})
        witnesses = [witness_sweep(mf, tr, w)
                     for s in suites for w in s["witnesses"]]
    sweeps["peak_growth_mb"] = peak_rss_mb() - peak_before

    certificates = []
    with tr.span("toric.certificates"):
        seen = set()
        raw = 0
        for R in range(2, job["grobner_max_dim"] + 1):
            for C in range(2, job["grobner_max_dim"] + 1):
                for model in change_point_models(R, C, max_rects=2):
                    raw += 1
                    canon, _, _ = canonicalize(model, R, C)
                    key = (R, C, canon.rectangles)
                    if key in seen:
                        continue
                    seen.add(key)
                    with tr.span("toric.verify_grobner") as sp:
                        rep = mf.verify_grobner(canon, R, C, max_dim=job["grobner_max_dim"])
                        sp["pairs"] = rep.pairs_checked
                    certificates.append({
                        "grid": [R, C],
                        "rectangles": [[r.a1, r.a2, r.b1, r.b2] for r in canon.rectangles],
                        "certified": rep.certified,
                        "square_free": rep.initial_square_free,
                        "pairs": rep.pairs_checked})

    fibers = []
    walk_s = 0.0
    walk_steps = 0
    bases = []
    for k, (name, spec, rows) in enumerate(job["cases"]):
        table = mf.Table(np.asarray(rows, dtype=np.int64))
        model = model_from_dict(spec)
        cfg = mf.build_configuration(model, table.R, table.C)
        t = mf.sufficient_statistic(table, cfg)
        with tr.span("fiber.enumerate_fiber"):
            fib = mf.enumerate_fiber(t, cfg, cap=job["fiber_cap"])
        with tr.span("fiber.exact_pvalue"):
            p_exact = mf.exact_pvalue(table, cfg, independence_chi2)
        basis = build_basis(mf, tr, model, table.R, table.C)
        bases.append((table, cfg, basis))
        chain = mf.ChainConfig(steps=job["steps"], burn_in=job["burn_in"], thin=1,
                               seed=job["seeds"][k], proposal=basis)
        t_w = clock()
        with tr.span("mcmc.walk", steps=job["steps"]):
            res = mf.walk(table, cfg, chain, independence_chi2)
        walk_s += clock() - t_w
        walk_steps += res.steps
        fibers.append((name, fib, p_exact, res))
    t_end = clock()
    fibers = [{"name": name, "size": len(fib), "overflowed": fib.overflowed,
               "members": [list(m) for m in fib.members],
               "exact_p": p_exact, "chain": chain_record(res)}
              for name, fib, p_exact, res in fibers]

    out = {"setup_s": t_setup - t0, "wall_s": t_end - t0, "walk_s": walk_s,
           "walk_steps": walk_steps, "suites": suites, "witnesses": witnesses,
           "raw_models": raw, "certificates": certificates, "fibers": fibers}

    if tr.enabled:
        # The suites build their bases internally; time the same builds one
        # geometry at a time, so moves.build_s covers the sweeps too.
        from markovfiber.verify import COMMON_SUITE_GEOMETRIES, OWN_SUITE_GEOMETRIES
        from markovfiber.models import ModelSpec
        from markovfiber.tables import Rectangle

        geometries = [(ModelSpec(family="change-point",
                                 rectangles=tuple(Rectangle(*r) for r in c["rectangles"])),
                       *c["grid"], None) for c in certificates]
        for family, table_geoms, reduced in (
                ("own-blocks", OWN_SUITE_GEOMETRIES, ("I",)),
                ("common-blocks", COMMON_SUITE_GEOMETRIES, ("I", "II", "III"))):
            for R, C, rb, cb in table_geoms:
                model = ModelSpec(family=family, row_bounds=rb, col_bounds=cb)
                geometries.append((model, R, C, None))
                geometries.append((model, R, C, reduced))
        for model, R, C, types in geometries:
            build_basis(mf, tr, model, R, C, types=types, replay=True)
        for k, (table, cfg, basis) in enumerate(bases):
            chain = mf.ChainConfig(steps=job["steps"], burn_in=job["burn_in"], thin=1,
                                   seed=job["seeds"][k], proposal=basis)
            with tr.span("mcmc.walk.constant", steps=job["steps"]):
                mf.walk(table, cfg, chain, ConstantTracker())
    return out


def main() -> None:
    job = json.load(sys.stdin)
    tr = Tracer(job["trace"])
    t0 = clock()
    body = verify_round if job["kind"] == "verify" else walk_round
    out = body(job, tr, t0)
    out["peak_rss_mb"] = peak_rss_mb()
    out["spans"] = tr.spans
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
