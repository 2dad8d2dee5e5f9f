"""Print the rate of the batched rank kernel, in matrices per second, at
e*n = 6, 8, 10 and 12: linalg.shift_dickson_ranks of psi_1 on the first
2^14 shifts m, that is the ranks of f + m*id for m = 0 .. 2^14 - 1, best
of 7 calls. The time includes the digit contraction that builds the
matrices; the elimination is most of it. Then, for the sweep layer, the
warm time of one fiber verdict, scattered.is_scattered_fibers of psi_1 at
(13,3) and (3,7), best of 7 calls after one that builds the tables and
keeps the class orbits; and the warm time of scattered.is_scattered_ranks
and scattered.nonscattered_witness_search of psi_1 at (5,3), (3,4) and
(5,4), best of 7 calls after one that keeps the orbits, with the number of
linalg._modp_ranks calls each makes, counted by a wrapper in this script.
Then, for the equivalence layer, the time per linsets.subspace_equivalent
decision, best of 7 passes, over 100 seeded pairs psi_1 ~ u2(s, delta) at
(3,4), and over 18 seeded built pairs g = mu*f^tau(lam*x), six each at
(3,3), (5,3) and (3,4), f with two nonzero coefficients; and the rate of
linalg.modp_rref, in matrices per second, on 100 seeded 48 x 16 matrices
mod 3, the shape of one u2 system at (3,4). Last, for the tables, the
cold FieldCtx._build_tables time at (13,3) and (5,5), best of 3 fresh
contexts, and its tracemalloc peak in bytes per element, taken on a
fourth context.

    PYTHONPATH=<tree>/src python3 tools/kernel_rate.py

Fields are written (p, t), e = 1.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from scatpoly import linalg
from scatpoly.fields import FieldCtx, FieldSpec, build_field
from scatpoly.linpoly import LinPoly
from scatpoly.linsets import known_family, subspace_equivalent
from scatpoly.scattered import (build_psi, is_scattered_fibers, is_scattered_ranks,
                                nonscattered_witness_search)

SHIFTS = 1 << 14
REPEATS = 7


def _best(call):
    """The least time of REPEATS calls, after one that is not timed."""
    call()
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    for p, t in ((13, 3), (5, 4), (3, 5), (3, 6)):
        ctx = build_field(p, 1, t)
        A = build_psi(ctx, 1).matrix()
        ms = np.arange(SHIFTS, dtype=np.int64)
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            linalg.shift_dickson_ranks(ctx, A, ms)
            best = min(best, time.perf_counter() - t0)
        print(f"e*n = {ctx.en:2d} ({p},{t}): {SHIFTS / best:9.0f} matrices/s "
              f"({best * 1e3:.2f} ms for {SHIFTS})", flush=True)
    for p, t in ((13, 3), (3, 7)):
        f = build_psi(build_field(p, 1, t), 1)
        best = _best(lambda: is_scattered_fibers(f))
        print(f"fibers ({p},{t}): {best * 1e3:.2f} ms per warm verdict", flush=True)
    calls = [0]
    ranks = linalg._modp_ranks

    def counted(A, p):
        calls[0] += 1
        return ranks(A, p)
    linalg._modp_ranks = counted
    try:
        for p, t in ((5, 3), (3, 4), (5, 4)):
            f = build_psi(build_field(p, 1, t), 1)
            line = []
            for name, check in (("ranks", is_scattered_ranks),
                                ("witness", nonscattered_witness_search)):
                best = _best(lambda: check(f))
                calls[0] = 0
                check(f)
                line.append(f"{name} {best * 1e3:.2f} ms ({calls[0]} _modp_ranks calls)")
            print(f"sweeps ({p},{t}): " + ", ".join(line), flush=True)
    finally:
        linalg._modp_ranks = ranks
    _equivalence_rates()
    _table_builds()


def _decision_time(pairs):
    """The least time per decision of REPEATS passes over pairs."""
    return _best(lambda: [subspace_equivalent(f, g) for f, g in pairs]) / len(pairs)


def _equivalence_rates():
    ctx = build_field(3, 1, 4)
    rng = np.random.default_rng(34)
    psi1 = build_psi(ctx, 1)
    u2 = []
    while len(u2) < 100:
        delta = int(rng.integers(2, ctx.order))
        if ctx.norm(delta, "q") not in (0, 1):
            s = int(rng.choice([1, 3, 5, 7]))
            u2.append((psi1, known_family(ctx, "u2", s=s, delta=delta)))
    built = []
    for p, t in ((3, 3), (5, 3), (3, 4)):
        ctx = build_field(p, 1, t)
        for _ in range(6):
            coeffs = [0] * ctx.n
            for slot in rng.choice(range(1, ctx.n), size=2, replace=False):
                coeffs[int(slot)] = int(rng.integers(1, ctx.order))
            f = LinPoly(ctx, coeffs)
            lam, mu = (int(c) for c in rng.integers(1, ctx.order, size=2))
            g = f.frob_twist(int(rng.integers(ctx.en))).compose(LinPoly.monomial(ctx, lam, 0))
            built.append((f, g.scale(mu)))
    print(f"equivalence: {_decision_time(u2) * 1e6:.0f} us per psi_1 ~ u2 decision at (3,4), "
          f"{_decision_time(built) * 1e6:.0f} us per built-pair decision", flush=True)
    mats = rng.integers(0, 3, size=(100, 48, 16))
    best = _best(lambda: [linalg.modp_rref(m, 3) for m in mats])
    print(f"modp_rref 48 x 16 mod 3: {len(mats) / best:.0f} matrices/s", flush=True)


def _table_builds():
    # both fields are above the eager bound, so a fresh context has no tables
    line = []
    for p, t in ((13, 3), (5, 5)):
        best = float("inf")
        for _ in range(3):
            ctx = FieldCtx(FieldSpec(p, 1, t))
            t0 = time.perf_counter()
            ctx._build_tables()
            best = min(best, time.perf_counter() - t0)
        ctx = FieldCtx(FieldSpec(p, 1, t))
        tracemalloc.start()
        try:
            ctx._build_tables()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        line.append(f"({p},{t}) {best * 1e3:.0f} ms, peak {peak / ctx.order:.1f} bytes/element")
    print("tables: " + ", ".join(line), flush=True)


if __name__ == "__main__":
    main()
