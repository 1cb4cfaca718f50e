"""Output checks, computed from the inputs by the benchmark's own code.

Every check returns a list of problems (empty when the output is right).
Nothing here imports markovfiber: sums, statistics, fibers and exact
p-values are recomputed from the tables and the model geometry alone, and
the reference values come from the method (kernel membership, margins,
C(n+RC-1, n)) or from the source paper (chi2 154 on 19 df, LLR 3.07 on a
3-df gap, p near 0.43).

The statistical checks compare a Monte Carlo estimate with its target using
batch-means standard errors.  The bound is a Student-t quantile at level
1e-6 / m for the m statistical checks of one run, so a correct sampler fails
a run with probability below 1e-6 (assuming approximately normal batch
means).
"""

from __future__ import annotations

import base64
import math
from itertools import combinations_with_replacement

import numpy as np

from inputs import independence_chi2

PV_TOL = 1e-12
FAIL_PROB = 1e-6
BATCHES = 50


def decode(samples: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(samples), dtype="<f8")


# --- model geometry -------------------------------------------------------

def term_masks(spec: dict, R: int, C: int) -> list[np.ndarray]:
    """Boolean (R, C) masks of the model's subtable terms."""
    def block(lo_r, hi_r, lo_c, hi_c):
        m = np.zeros((R, C), dtype=bool)
        m[lo_r - 1:hi_r - 1, lo_c - 1:hi_c - 1] = True
        return m

    family = spec["family"]
    if family == "independence":
        return []
    if family == "change-point":
        return [block(a1, a2 + 1, b1, b2 + 1) for a1, a2, b1, b2 in spec["rectangles"]]
    rb, cb = spec["row_bounds"], spec["col_bounds"]
    diag = [block(rb[k], rb[k + 1], cb[k], cb[k + 1]) for k in range(len(rb) - 1)]
    if family == "own-blocks":
        return diag
    if family == "common-blocks":
        return [np.logical_or.reduce(diag)]
    if family == "general-blocks":
        return [np.logical_or.reduce([diag[n - 1] for n in grp]) for grp in spec["groups"]]
    raise ValueError(f"unknown family {family!r}")


def statistic(x, masks) -> np.ndarray:
    """Sufficient statistic: row sums, column sums, then the term sums.
    ``x`` is one (R, C) table or a stack of them, shape (..., R, C)."""
    x = np.asarray(x)
    terms = [(x * m).sum(axis=(-2, -1)) for m in masks]
    return np.concatenate([x.sum(axis=-1), x.sum(axis=-2)]
                          + [t[..., None] for t in terms], axis=-1)


def check_margins(table, expected, masks, what: str) -> list[str]:
    """A maximum-likelihood fit reproduces the sufficient statistic."""
    got = statistic(np.asarray(expected, dtype=np.float64), masks)
    want = statistic(np.asarray(table, dtype=np.float64), masks)
    worst = float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
    if worst > 1e-6:
        return [f"{what}: fitted sums differ from the data's by {worst:.2e} (relative)"]
    return []


# --- statistics -----------------------------------------------------------

def chi_square(table, expected) -> float:
    x = np.asarray(table, dtype=np.float64)
    m = np.asarray(expected, dtype=np.float64)
    nz = m > 0
    return float((((x - m) ** 2)[nz] / m[nz]).sum())


def llr(table, null_expected, alt_expected) -> float:
    x = np.asarray(table, dtype=np.float64)
    pos = x > 0
    return float(2.0 * (x[pos] * np.log(np.asarray(alt_expected)[pos]
                                         / np.asarray(null_expected)[pos])).sum())


def addone_pvalue(samples: np.ndarray, observed: float) -> float:
    return (int((samples >= observed - PV_TOL).sum()) + 1) / (samples.size + 1)


def batch_means(indicator: np.ndarray, batches: int = BATCHES) -> np.ndarray:
    return np.array([b.mean() for b in np.array_split(indicator, batches)])


def t_bound(df: int, m: int) -> float:
    """Two-sided Student-t quantile at level FAIL_PROB / m."""
    from scipy.stats import t as student_t

    return float(student_t.ppf(1.0 - FAIL_PROB / m / 2.0, df))


def check_estimate(name: str, estimate: float, target: float, tol: float,
                   means: np.ndarray, n: int, m: int) -> list[str]:
    """|estimate - target| <= tol + q * se + 1/(n+1), se from the batch means
    but never below the binomial error at the target (a stream that never
    changed has zero batch spread), 1/(n+1) for the add-one estimator."""
    se = float(np.std(means, ddof=1) / math.sqrt(means.size))
    p = min(max(target, 0.0), 1.0)
    se = max(se, math.sqrt(p * (1.0 - p) / n))
    q = t_bound(means.size - 1, m)
    allowed = tol + q * se + 1.0 / (n + 1)
    if abs(estimate - target) > allowed:
        return [f"{name}: p={estimate:.4f} vs {target:.4f}, off by "
                f"{abs(estimate - target):.4f} > {allowed:.4f} (se={se:.4f}, q={q:.2f})"]
    return []


def check_chain(name: str, chain: dict, burn_in: int) -> list[str]:
    """Accounting and p-value range of one chain, and its p recomputed from
    the chain's own statistic stream."""
    bad = []
    if chain["accepts"] + chain["stays"] + chain["rejects"] != chain["steps"]:
        bad.append(f"{name}: accepts+stays+rejects != steps")
    if not 0.0 < chain["pvalue"] <= 1.0:
        bad.append(f"{name}: p={chain['pvalue']} outside (0, 1]")
    samples = decode(chain["samples"])
    if samples.size != chain["steps"] - burn_in:
        bad.append(f"{name}: {samples.size} samples for {chain['steps']} steps")
    elif abs(addone_pvalue(samples, chain["observed"]) - chain["pvalue"]) > 1e-12:
        bad.append(f"{name}: p does not match its own sample stream")
    return bad


def check_chains(rounds: list[dict], burn_in: int) -> list[str]:
    bad = []
    for r, out in enumerate(rounds):
        for k, ch in enumerate(out["chains"]):
            bad += check_chain(f"round {r} chain {k}", ch, burn_in)
        mean_p = float(np.mean([ch["pvalue"] for ch in out["chains"]]))
        if abs(out["pooled"][0] - mean_p) > 1e-12:
            bad.append(f"round {r}: pooled p {out['pooled'][0]} != chain mean {mean_p}")
    return bad


# --- walk workloads --------------------------------------------------------

def check_null_fit(table, out: dict, masks, r: int) -> list[str]:
    """The null fit reproduces the data's sums, and the chain's observed
    statistic is the chi2 of the table against it."""
    bad = check_margins(table, out["expected"], masks, f"round {r} null fit")
    chi2 = chi_square(table, out["expected"])
    if abs(chi2 - out["observed"]) > 1e-8 * chi2:
        bad.append(f"round {r}: chain observed {out['observed']} != chi2 {chi2} of the fit")
    return bad


def check_gilby(job: dict, rounds: list[dict]) -> list[str]:
    table = np.asarray(job["table"])
    R, C = table.shape
    masks = term_masks(job["model"], R, C)
    bad = check_chains(rounds, job["burn_in"])
    want_df = (R - 1) * (C - 1) - len(masks)
    for r, out in enumerate(rounds):
        bad += check_null_fit(table, out, masks, r)
        chi2 = chi_square(table, out["expected"])
        if abs(chi2 - 154.0) > 1.0:
            bad.append(f"round {r}: chi2 {chi2:.3f} not 154 +/- 1")
        if out["df"] != want_df or want_df != 19:
            bad.append(f"round {r}: df {out['df']}, want (R-1)(C-1)-2 = 19")
        if out["pooled"][0] > 0.001:
            bad.append(f"round {r}: pooled p {out['pooled'][0]} > 0.001")
    return bad


def check_victoria(job: dict, rounds: list[dict]) -> list[str]:
    table = np.asarray(job["table"])
    R, C = table.shape
    null_masks = term_masks(job["model"], R, C)
    alt_masks = term_masks(job["alt"], R, C)
    bad = check_chains(rounds, job["burn_in"])
    for r, out in enumerate(rounds):
        bad += check_margins(table, out["expected"], null_masks, f"round {r} null fit")
        bad += check_margins(table, out["alt_expected"], alt_masks, f"round {r} alt fit")
        value = llr(table, out["expected"], out["alt_expected"])
        if abs(value - out["observed"]) > 1e-6:
            bad.append(f"round {r}: chain observed {out['observed']} != LLR {value} of the fits")
        if abs(value - 3.07) > 0.02:
            bad.append(f"round {r}: LLR {value:.4f} not 3.07 +/- 0.02")
        if out["df"] != len(alt_masks) - len(null_masks) or out["df"] != 3:
            bad.append(f"round {r}: df gap {out['df']}, want 3")
    chains = [ch for out in rounds for ch in out["chains"]]
    means = np.concatenate([
        batch_means((decode(ch["samples"]) >= ch["observed"] - PV_TOL).astype(np.float64))
        for ch in chains])
    n = sum(ch["steps"] - job["burn_in"] for ch in chains)
    pooled = float(np.mean([out["pooled"][0] for out in rounds]))
    bad += check_estimate("pooled p", pooled, 0.43, 0.03, means, n, m=1)
    return bad


MOVE_TYPES = ("I", "II", "III", "IV", "IVt")


def check_moves(draws: list, R: int, C: int, masks, what: str) -> list[str]:
    """Every drawn move lies in the kernel of the benchmark's own statistic,
    and every move type of the model appears."""
    bad = []
    for k, (mtype, entries) in enumerate(draws):
        z = np.zeros((R, C), dtype=np.int64)
        for i, j, c in entries:
            if not (1 <= i <= R and 1 <= j <= C) or c == 0:
                bad.append(f"{what} draw {k}: bad entry ({i},{j}):{c}")
                break
            z[i - 1, j - 1] += c
        else:
            if not z.any() or statistic(z, masks).any():
                bad.append(f"{what} draw {k} ({mtype}) is not a nonzero kernel move")
        if len(bad) >= 5:
            break
    missing = set(MOVE_TYPES) - {mtype for mtype, _ in draws}
    if missing:
        bad.append(f"{what}: move types {sorted(missing)} never drawn")
    return bad


def check_lazy(job: dict, rounds: list[dict]) -> list[str]:
    table = np.asarray(job["table"])
    R, C = table.shape
    masks = term_masks(job["model"], R, C)
    bad = check_chains(rounds, job["burn_in"])
    for r, out in enumerate(rounds):
        if out["basis_kind"] != "lazy":
            bad.append(f"round {r}: basis is {out['basis_kind']}, not lazy")
        bad += check_null_fit(table, out, masks, r)
        bad += check_moves(out["draws"], R, C, masks, f"round {r}")
    return bad


# --- verify-sweeps -------------------------------------------------------------

def all_tables(R: int, C: int, total: int) -> np.ndarray:
    """Every R x C table of the grand total, one row per table."""
    n = R * C
    idx = np.array(list(combinations_with_replacement(range(n), total)), dtype=np.int64)
    out = np.zeros((len(idx), n), dtype=np.int64)
    for col in idx.T:
        np.add.at(out, (np.arange(len(idx)), col), 1)
    return out


def brute_fiber(table: np.ndarray, masks) -> np.ndarray:
    """All tables sharing the table's sufficient statistic, by exhaustion."""
    R, C = table.shape
    cand = all_tables(R, C, int(table.sum()))
    stats = statistic(cand.reshape(-1, R, C), masks)
    return cand[(stats == statistic(table, masks)).all(axis=1)]


def brute_pvalue(table: np.ndarray, members: np.ndarray) -> float:
    """Exact conditional p of independence_chi2, weights 1/prod(x!)."""
    R, C = table.shape
    logw = np.array([-sum(math.lgamma(v + 1) for v in m) for m in members])
    w = np.exp(logw - logw.max())
    obs = independence_chi2(table)
    vals = np.array([independence_chi2(m.reshape(R, C)) for m in members])
    return float(w[vals >= obs - PV_TOL].sum() / w.sum())


RAW_CHANGE_POINT_MODELS = 1589   # criterion 8: grids 2x2..4x4, one or two rectangles
CHANGE_POINT_CLASSES = 208


def check_witness(w: dict) -> list[str]:
    """A reported disconnected fiber: two distinct members with the same
    statistic (the benchmark's), in a fiber of the reported size."""
    what = w["label"]
    R, C, total = w["R"], w["C"], w["total"]
    bad = []
    if w["n_tables"] != math.comb(total + R * C - 1, total):
        bad.append(f"{what}: n_tables {w['n_tables']} != C({total}+{R * C}-1, {total})")
    if w["members"] is None or w["n_disconnected"] < 1:
        return bad + [f"{what}: the sweep found no disconnected fiber"]
    masks = term_masks(w["model"], R, C)
    a, b = (np.asarray(m, dtype=np.int64).reshape(R, C) for m in w["members"])
    if (a < 0).any() or (b < 0).any() or a.sum() != total or b.sum() != total:
        bad.append(f"{what}: witness members are not tables of total {total}")
    if np.array_equal(a, b):
        bad.append(f"{what}: witness members are equal")
    if not np.array_equal(statistic(a, masks), statistic(b, masks)):
        bad.append(f"{what}: witness members have different sufficient statistics")
    if list(statistic(a, masks)) != w["t"] or w["t"] != w["label_t"]:
        bad.append(f"{what}: witness statistic {w['t']} differs from the benchmark's")
    size = len(brute_fiber(a, masks))
    if size != w["size"] or size != w["label_size"]:
        bad.append(f"{what}: fiber size {w['size']} != {size} by exhaustion")
    return bad


def check_verify(job: dict, rounds: list[dict]) -> list[str]:
    bad = []
    n_stat = len(rounds) * len(job["cases"])
    fibers = {}
    for name, spec, rows in job["cases"]:
        table = np.asarray(rows, dtype=np.int64)
        members = brute_fiber(table, term_masks(spec, *table.shape))
        fibers[name] = (table, members, brute_pvalue(table, members))
    for r, out in enumerate(rounds):
        for s in out["suites"]:
            if not s["ok"] or s["connectivity_failures"] or s["indispensability_failures"]:
                bad.append(f"round {r} {s['name']}: {s['connectivity_failures']} "
                           f"{s['indispensability_failures']}")
        tags = {"own-blocks": "types=I ", "common-blocks": "types=I,II,III "}
        for s in out["suites"]:
            if s["name"] in tags and not any(tags[s["name"]] in w for w in s["witnesses"]):
                bad.append(f"round {r} {s['name']}: no {tags[s['name']].strip()} witness")
        for w in out["witnesses"]:
            bad += check_witness(w)
        certs = out["certificates"]
        if out["raw_models"] != RAW_CHANGE_POINT_MODELS or len(certs) != CHANGE_POINT_CLASSES:
            bad.append(f"round {r}: {len(certs)} classes of {out['raw_models']} raw models, "
                       f"want {CHANGE_POINT_CLASSES} of {RAW_CHANGE_POINT_MODELS}")
        not_certified = [c for c in certs if not (c["certified"] and c["square_free"])]
        if not_certified:
            bad.append(f"round {r}: {len(not_certified)} classes not certified, "
                       f"first {not_certified[0]}")
        for f in out["fibers"]:
            bad += check_fiber(f"round {r} {f['name']}", f, *fibers[f["name"]],
                               job["burn_in"], n_stat)
    return bad


def check_fiber(what: str, f: dict, table, members, p_exact: float,
                burn_in: int, m: int) -> list[str]:
    """One small fiber: its members and exact p against exhaustion, and the
    walk's p against the exact p."""
    bad = []
    if f["overflowed"] or f["size"] != len(members):
        bad.append(f"{what}: fiber size {f['size']} != {len(members)} by exhaustion")
    elif sorted(map(tuple, f["members"])) != sorted(map(tuple, members.tolist())):
        bad.append(f"{what}: fiber members differ from the exhaustive fiber")
    if abs(f["exact_p"] - p_exact) > 1e-9:
        bad.append(f"{what}: exact p {f['exact_p']} != {p_exact} by exhaustion")
    ch = f["chain"]
    bad += check_chain(what, ch, burn_in)
    if abs(ch["observed"] - independence_chi2(table)) > 1e-9:
        bad.append(f"{what}: chain observed {ch['observed']} != statistic of the table")
    samples = decode(ch["samples"])
    ind = (samples >= ch["observed"] - PV_TOL).astype(np.float64)
    bad += check_estimate(what, ch["pvalue"], p_exact, 0.0,
                          batch_means(ind), samples.size, m)
    return bad
