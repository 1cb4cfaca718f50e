"""Brute-force fiber oracle.

Enumerates every nonnegative integer table with a given sufficient
statistic by depth-first cell assignment, then answers the questions the
sampler can only approximate: connectivity of the fiber graph under a move
set, and exact conditional p-values under the hypergeometric-like weight
1/prod(x_ij!).

Everything here is deliberately simple; it is the ground truth the fast
paths are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mcmc import PV_TOL, _as_tracker
from .tables import Configuration, MarkovFiberError, Table, TableError, sufficient_statistic

__all__ = [
    "Fiber",
    "FiberOverflow",
    "FiberError",
    "UnionFind",
    "enumerate_fiber",
    "is_connected",
    "fiber_pvalue",
    "exact_pvalue",
]

DEFAULT_CAP = 5_000_000


class FiberOverflow(MarkovFiberError, RuntimeError):
    """An enumeration passed its member cap or byte bound; sample instead."""


class FiberError(MarkovFiberError, ValueError):
    """Raised for a fiber question that cannot be asked: a cap below 1, a
    statistic whose row and column sums disagree, or connectivity without
    an enumerated basis."""


class UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n
        self.n_components = n

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_components -= 1
        return True


@dataclass(frozen=True)
class Fiber:
    """All tables sharing one sufficient statistic, as flat count tuples."""

    members: tuple[tuple[int, ...], ...]
    overflowed: bool = False
    cap: int = DEFAULT_CAP

    def __len__(self) -> int:
        return len(self.members)


def enumerate_fiber(t, cfg: Configuration, cap: int = DEFAULT_CAP) -> Fiber:
    """Depth-first enumeration of F_t = {x >= 0 : A x = t}.

    Cells are filled row-major with remaining-capacity pruning on rows,
    columns, and subtable terms; the last cell of a row, of a column (final
    row), or of a term forces its value outright.  Passing ``cap`` members
    stops the search and marks the fiber overflowed instead of raising;
    a budget of 50 * cap + 10000 search-tree nodes bounds the time spent in
    branches that die before reaching a member, so huge-total tables
    overflow promptly instead of wandering.  ``cap`` must be at least 1.
    """
    if cap < 1:
        raise FiberError(f"cap must be >= 1, got {cap}")
    t = tuple(int(v) for v in t)
    if len(t) != cfg.T:
        raise TableError(f"statistic has {len(t)} components, configuration expects {cfg.T}")
    R, C, Q = cfg.R, cfg.C, cfg.Q
    row_rem = [0] + list(t[:R])
    col_rem = [0] + list(t[R:R + C])
    term_rem = list(t[R + C:])
    if sum(row_rem) != sum(col_rem):
        raise FiberError("inconsistent statistic: row-sum total differs from column-sum total")

    # terms per cell, and the row-major-last cell of each term
    cell_terms: list[list[int]] = [[] for _ in range(R * C)]
    term_last = [-1] * Q
    for q, row in enumerate(cfg.matrix[R + C:]):
        cells = np.flatnonzero(row).tolist()
        for p in cells:
            cell_terms[p].append(q)
        term_last[q] = max(cells, default=-1)

    members: list[tuple[int, ...]] = []
    counts = [0] * (R * C)
    overflowed = False
    budget = 50 * cap + 10_000

    def rec(p: int) -> None:
        nonlocal overflowed, budget
        if overflowed:
            return
        budget -= 1
        if budget < 0:
            overflowed = True
            return
        if p == R * C:
            members.append(tuple(counts))
            if len(members) > cap:
                overflowed = True
                members.pop()
            return
        i, j = p // C + 1, p % C + 1
        hi = min(row_rem[i], col_rem[j])
        forced = []
        for q in cell_terms[p]:
            hi = min(hi, term_rem[q])
            if term_last[q] == p:
                forced.append(term_rem[q])
        if j == C:
            forced.append(row_rem[i])
        if i == R:
            forced.append(col_rem[j])
        if forced:
            v = forced[0]
            if any(w != v for w in forced) or v > hi:
                return
            lo = v
        else:
            lo, v = 0, 0
        for v in range(lo, hi + 1) if not forced else (lo,):
            counts[p] = v
            row_rem[i] -= v
            col_rem[j] -= v
            for q in cell_terms[p]:
                term_rem[q] -= v
            rec(p + 1)
            counts[p] = 0
            row_rem[i] += v
            col_rem[j] += v
            for q in cell_terms[p]:
                term_rem[q] += v

    rec(0)
    members.sort()
    return Fiber(members=tuple(members), overflowed=overflowed, cap=cap)


def is_connected(fiber: Fiber, basis) -> bool:
    """Is the fiber graph (edges x <-> x + z, both ends nonnegative) one
    component?  Singleton and empty fibers count as connected; an
    overflowed fiber, whose member list is cut short, raises FiberOverflow.

    The basis stores one sign per move, and applying +z from every member
    still finds each edge once: the edge x <-> x - z is found from x - z.
    A move whose |z-| exceeds the fiber's total applies to no member, so
    it is not listed.
    """
    if fiber.overflowed:
        raise FiberOverflow(f"fiber exceeded cap {fiber.cap}; cannot check connectivity")
    if len(fiber) <= 1:
        return True
    if basis.kind != "enumerated":
        raise FiberError("connectivity needs an enumerated basis")
    idx = {m: k for k, m in enumerate(fiber.members)}
    uf = UnionFind(len(fiber))
    off, flat, coef, _, _ = basis.store
    fits = np.flatnonzero(basis.store.degrees()[0] <= sum(fiber.members[0])).tolist()
    deltas = [(flat[off[k]:off[k + 1]], coef[off[k]:off[k + 1]]) for k in fits]
    for k, member in enumerate(fiber.members):
        for flats, coefs in deltas:
            target = list(member)
            ok = True
            for f, c in zip(flats, coefs):
                nv = target[f] + c
                if nv < 0:
                    ok = False
                    break
                target[f] = nv
            if not ok:
                continue
            other = idx.get(tuple(target))
            if other is not None:
                uf.union(k, other)
        if uf.n_components == 1:
            return True
    return False


def fiber_pvalue(fiber: Fiber, table: Table, statistic) -> float:
    """Exact conditional p-value of ``table`` over its enumerated fiber:
    total weight of the members whose statistic is >= the observed value
    (within ``PV_TOL``, the sampler's tie rule), weights proportional to
    1/prod(x_ij!).  ``statistic`` is what ``mcmc.walk`` takes, and each
    member's value is its tracker's ``start`` on the member's flat tuple."""
    if fiber.overflowed:
        raise FiberOverflow(f"fiber exceeded cap {fiber.cap}; cannot compute the exact p-value")
    value = _as_tracker(statistic, table.R, table.C).start
    observed = value(table.vec().tolist())
    log_weights = [-sum(math.lgamma(x + 1) for x in member) for member in fiber.members]
    shift = max(log_weights)
    total = tail = 0.0
    for member, lw in zip(fiber.members, log_weights):
        w = math.exp(lw - shift)
        total += w
        if value(member) >= observed - PV_TOL:
            tail += w
    return tail / total


def exact_pvalue(table: Table, cfg: Configuration, statistic,
                 cap: int = DEFAULT_CAP) -> float:
    """``fiber_pvalue`` over the fiber of the table's sufficient statistic,
    enumerated with ``cap``."""
    fiber = enumerate_fiber(sufficient_statistic(table, cfg), cfg, cap=cap)
    return fiber_pvalue(fiber, table, statistic)
