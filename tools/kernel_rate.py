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

    PYTHONPATH=<tree>/src python3 tools/kernel_rate.py

Fields are written (p, t), e = 1.
"""

from __future__ import annotations

import time

import numpy as np

from scatpoly import linalg
from scatpoly.fields import build_field
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


if __name__ == "__main__":
    main()
