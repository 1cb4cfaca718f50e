"""Mask-loop reference for the connectivity sweep.

This is the plain sweep that ``markovfiber.verify.connectivity_sweep`` must
reproduce: for each move, a boolean mask over every table of a
multi-member fiber finds the tables it applies to, ``np.searchsorted``
finds each image, and a Python union-find joins the two.  The package finds
the same edges by translating the smaller universes and labels components
with numpy instead.  It is kept only as a test oracle.
"""

import random

import numpy as np

from markovfiber import models as _models
from markovfiber.fiber import UnionFind, enumerate_fiber, is_connected
from markovfiber.moves import basis_for_model
from markovfiber.tables import build_configuration
from markovfiber.verify import ConnectivityReport, FiberWitness, _row_view, _universe


def reference_sweep(model, R, C, total, types=None, basis=None,
                    max_witnesses=3, cross_check=2, seed=0):
    _models.require_valid(model, R, C)
    cfg = build_configuration(model, R, C)
    if basis is None:
        basis = basis_for_model(model, R, C, types=types)
    tables, view = _universe(R, C, total)
    n = tables.shape[0]

    t_all = (tables @ np.asarray(cfg.matrix, dtype=np.uint8).T).astype(np.int32)
    _, fiber_id = np.unique(t_all, axis=0, return_inverse=True)
    fiber_id = fiber_id.ravel()
    n_fibers = int(fiber_id.max()) + 1 if n else 0
    sizes = np.bincount(fiber_id, minlength=n_fibers)
    keep = np.flatnonzero(sizes[fiber_id] >= 2)
    n_multi = int(np.count_nonzero(sizes >= 2))

    dsu = UnionFind(keep.size)
    if keep.size:
        inv_keep = np.full(n, -1, dtype=np.int64)
        inv_keep[keep] = np.arange(keep.size)
        sub = tables[keep]
        off, flat, coef = basis.move_arrays()
        flat = np.asarray(flat, dtype=np.int64)
        coef = np.asarray(coef, dtype=np.int16)
        for lo, hi in zip(off, off[1:]):
            flats, coefs = flat[lo:hi], coef[lo:hi]
            valid = np.ones(keep.size, dtype=bool)
            for c, v in zip(flats[coefs < 0], -coefs[coefs < 0]):
                valid &= sub[:, c] >= v
            src = np.flatnonzero(valid)
            if not src.size:
                continue
            new = sub[src].astype(np.int16)
            new[:, flats] += coefs
            pos = np.searchsorted(view, _row_view(new.astype(np.uint8)))
            dst = inv_keep[pos]
            assert (dst >= 0).all()
            for a, b in zip(src.tolist(), dst.tolist()):
                dsu.union(a, b)

    roots = np.fromiter((dsu.find(i) for i in range(keep.size)),
                        dtype=np.int64, count=keep.size)
    fib_sub = fiber_id[keep]
    disconnected = []
    if keep.size:
        enc = fib_sub.astype(np.int64) * (keep.size + 1) + roots
        u_fib = np.unique(enc) // (keep.size + 1)
        fib_ids, comp_counts = np.unique(u_fib, return_counts=True)
        disconnected = [int(f) for f, c in zip(fib_ids, comp_counts) if c >= 2]

    witnesses = []
    for f in disconnected[:max_witnesses]:
        members = np.flatnonzero(fib_sub == f)
        r0 = roots[members[0]]
        other = members[roots[members] != r0][0]
        witnesses.append(FiberWitness(
            t=tuple(int(v) for v in t_all[keep[members[0]]]),
            size=int(sizes[f]),
            n_components=int(np.unique(roots[members]).size),
            members=(tuple(int(v) for v in sub[members[0]]),
                     tuple(int(v) for v in sub[other])),
        ))

    checks = 0
    if cross_check and n_multi:
        rng = random.Random(seed)
        multi_fibers = np.flatnonzero(sizes >= 2)
        for f in rng.sample(list(multi_fibers), min(cross_check, len(multi_fibers))):
            t = tuple(int(v) for v in t_all[np.flatnonzero(fiber_id == f)[0]])
            fib = enumerate_fiber(t, cfg)
            mine = sorted(tuple(int(v) for v in row)
                          for row in tables[fiber_id == f])
            assert sorted(fib.members) == mine
            assert is_connected(fib, basis) == (int(f) not in disconnected)
            checks += 1

    return ConnectivityReport(
        R=R, C=C, total=total, n_tables=n, n_fibers=n_fibers, n_multi=n_multi,
        n_disconnected=len(disconnected), witnesses=tuple(witnesses),
        cross_checks=checks,
    )
