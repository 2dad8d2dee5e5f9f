"""Print the rate of the batched rank kernel, in matrices per second, at
e*n = 6, 8, 10 and 12: linalg.shift_dickson_ranks of psi_1 on the first
2^14 shifts m, that is the ranks of f + m*id for m = 0 .. 2^14 - 1, best
of 7 calls. The time includes the digit contraction that builds the
matrices; the elimination is most of it. Then, for the sweep layer, the
warm time of one fiber verdict, scattered.is_scattered_fibers of psi_1 at
(13,3) and (3,7), best of 7 calls after one that builds the tables and
keeps the class orbits.

    PYTHONPATH=<tree>/src python3 tools/kernel_rate.py

Fields are written (p, t), e = 1.
"""

from __future__ import annotations

import time

import numpy as np

from scatpoly import linalg
from scatpoly.fields import build_field
from scatpoly.scattered import build_psi, is_scattered_fibers

SHIFTS = 1 << 14
REPEATS = 7


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
        is_scattered_fibers(f)
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            is_scattered_fibers(f)
            best = min(best, time.perf_counter() - t0)
        print(f"fibers ({p},{t}): {best * 1e3:.2f} ms per warm verdict", flush=True)


if __name__ == "__main__":
    main()
