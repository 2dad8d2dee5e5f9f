"""Desk-scale verification suite: eleven named criteria, each a bundle of
exact checks with pinned time bounds.

Every criterion builds (and thereby caches) its field contexts before the
clock starts, so the timing checks measure the mathematical work, not table
construction. The one exception is `grid`: GF(13^6) is above the eager
bound, so its tables are built in the first fiber pass, inside the (13,3)
timed block, which has no bound. Failures are results: the runner records
which checks failed and keeps going.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Tuple

import numpy as np

from .fields import build_field
from .linpoly import LinPoly
from . import codes, geometry, linalg, linsets, scattered


class _Run:
    """Accumulates labelled pass/fail checks for one criterion."""

    def __init__(self):
        self.checks = 0
        self.failed: List[str] = []

    def check(self, label: str, cond: bool):
        self.checks += 1
        if not cond:
            self.failed.append(label)

    @property
    def ok(self) -> bool:
        return not self.failed


@dataclass(frozen=True)
class CriterionResult:
    slug: str
    ok: bool
    seconds: float
    checks: int
    failed: Tuple[str, ...]

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        out = f"{status}  {self.slug:<12} {self.seconds:7.2f}s  {self.checks} checks"
        if self.failed:
            out += "; failed: " + "; ".join(self.failed)
        return out

    def to_json(self):
        return {"slug": self.slug, "ok": self.ok, "checks": self.checks,
                "failed": list(self.failed)}


# -- closed forms -----------------------------------------------------------------

def _gaussian(n: int, r: int, q: int) -> int:
    """The q-binomial [n, r]_q, the number of r-subspaces of GF(q)^n."""
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _delsarte(n: int, q: int, d: int) -> Tuple[int, ...]:
    """The rank distribution of every MRD code of n x n matrices over GF(q)
    with minimum distance d (Delsarte 1978), from n, q and d alone:
    A_0 = 1, A_r = 0 for 0 < r < d, and for r >= d
    A_r = [n,r]_q * sum_(j=0..r-d) (-1)^j q^(j(j-1)/2) [r,j]_q
    (q^(n(r-d-j+1)) - 1)."""
    counts = [1] + [0] * n
    for r in range(d, n + 1):
        counts[r] = _gaussian(n, r, q) * sum(
            (-1) ** j * q ** (j * (j - 1) // 2) * _gaussian(r, j, q)
            * (q ** (n * (r - d - j + 1)) - 1) for j in range(r - d + 1))
    return tuple(counts)


# -- criteria -------------------------------------------------------------------

def _c_order() -> _Run:
    run = _Run()
    for q, t in ((3, 3), (5, 3), (3, 4), (3, 5)):
        ctx = build_field(q, 1, t)
        t0 = perf_counter()
        got = scattered.build_psi(ctx, 1).map_order()
        dt = perf_counter() - t0
        run.check(f"map order n at ({q},{t})", got == ctx.n)
        run.check(f"({q},{t}) order check within 1s", dt < 1.0)
    return run


def _c_grid() -> _Run:
    run = _Run()
    bounds = {(5, 3): 5.0, (5, 4): 120.0}
    for q, t in ((5, 3), (13, 3), (3, 4), (5, 4), (3, 5)):
        ctx = build_field(q, 1, t)
        t0 = perf_counter()
        for k in range(1, ctx.n):
            f = scattered.build_psi(ctx, k)
            pred = scattered.theorem_predicate(ctx, k)
            run.check(f"fiber checker matches predicate ({q},{t},k={k})",
                      scattered.is_scattered_fibers(f).scattered == pred)
            run.check(f"rank checker matches predicate ({q},{t},k={k})",
                      scattered.is_scattered_ranks(f).scattered == pred)
            if pred:
                run.check(f"Delsarte's MRD distribution ({q},{t},k={k})",
                          codes.rank_distribution(codes.build_code(f)).counts
                          == _delsarte(ctx.n, ctx.q, ctx.n - 1))
        dt = perf_counter() - t0
        if (q, t) in bounds:
            run.check(f"({q},{t}) sweep within {bounds[(q, t)]:.0f}s",
                      dt < bounds[(q, t)])
    return run


def _c_witness() -> _Run:
    run = _Run()
    jobs = ((3, 3, 1), (5, 3, 2))
    ctxs = {(q, t): build_field(q, 1, t) for q, t, _ in jobs}
    t0 = perf_counter()
    for q, t, k in jobs:
        ctx = ctxs[(q, t)]
        f = scattered.build_psi(ctx, k)
        w = scattered.nonscattered_witness_search(f)
        run.check(f"violating pair found at ({q},{t},k={k})", w is not None)
        if w is not None:
            rho, x = w
            ok = (x != 0 and ctx.frob(rho, 1) != rho
                  and f(ctx.mul(rho, x)) == ctx.mul(rho, f(x)))
            run.check(f"pair re-verifies at ({q},{t},k={k})", ok)
    ctx33, ctx53 = ctxs[(3, 3)], ctxs[(5, 3)]
    x = ctx33.w_unity_root(1)
    run.check("skew root of unity exists at (3,3)",
              x is not None and ctx33.in_w(x)
              and ctx33.pow_(x, ctx33.q + 1) == 1)
    run.check("no skew root of unity at (5,3)", ctx53.w_unity_root(1) is None)
    run.check("witness block within 1s", perf_counter() - t0 < 1.0)
    return run


def _c_size() -> _Run:
    run = _Run()
    ctx = build_field(5, 1, 3)
    t0 = perf_counter()
    size = len(scattered.build_psi(ctx, 1).line_values())
    run.check("linear set size 3906 at (5,3)", size == 3906)
    run.check("size check within 1s", perf_counter() - t0 < 1.0)
    return run


def _c_baer() -> _Run:
    run = _Run()
    grids = {(5, 3): (62, 31, 31), (3, 4): (80, 40, 40)}
    ctxs = {pt: build_field(pt[0], 1, pt[1]) for pt in grids}
    t0 = perf_counter()
    for (q, t), (total, half1, half2) in grids.items():
        rep = scattered.baer_partition_check(ctxs[(q, t)], 1)
        run.check(f"subline intersection {total} at ({q},{t})",
                  rep.intersection_size == total)
        run.check(f"partition {half1}+{half2} at ({q},{t})",
                  rep.subfield_part_size == half1
                  and rep.skew_part_size == half2 and rep.ok)
    run.check("partition block within 5s", perf_counter() - t0 < 5.0)
    return run


def _c_mrd() -> _Run:
    run = _Run()
    ctx = build_field(5, 1, 3)
    t0 = perf_counter()
    c1 = codes.build_code(scattered.build_psi(ctx, 1))
    d = codes.min_rank_distance(c1)
    run.check("distance 5 over 15626 classes",
              d == 5 and ctx.order + 1 == 15626)
    run.check("code size 5^12", c1.size == 5 ** 12)
    run.check("size meets bound with d = n-1",
              c1.size == ctx.q ** (ctx.n * (ctx.n - d + 1))
              and codes.is_mrd(c1))
    mrd = _delsarte(ctx.n, ctx.q, ctx.n - 1)
    run.check("distribution is Delsarte's for d = n-1",
              codes.rank_distribution(c1).counts == mrd)
    c2 = codes.build_code(scattered.build_psi(ctx, 2))
    run.check("second composition fails the bound",
              not codes.is_mrd(c2))
    run.check("second composition's distribution is not Delsarte's",
              codes.rank_distribution(c2).counts != mrd)
    run.check("distance block within 30s", perf_counter() - t0 < 30.0)
    return run


def _c_idealiser() -> _Run:
    # The idealisers of an MRD code are fields (Lunardon-Trombetti-Zhou,
    # "On kernels and nuclei of rank metric codes", 2017). On the left,
    # GF(q^n) acts as scalars. On the right, when t is even, every lambda in
    # GF(q^2) lies in GF(q^t) and psi(lambda*x) = lambda^q*psi(x), so the
    # GF(q^2)-scalars lie in the right idealiser. The upper bound dim 2, and
    # the whole value at odd t (basis {id, gamma*psi}), rest on the solve.
    run = _Run()
    ctxs = [build_field(5, 1, 3), build_field(3, 1, 4)]
    t0 = perf_counter()
    for ctx in ctxs:
        psi = scattered.build_psi(ctx, 1)
        c = codes.build_code(psi)
        at = f"(q={ctx.q},t={ctx.t})"
        left = codes.idealiser(c, "left")
        run.check(f"left idealiser dim {ctx.n} over GF(q) at {at}; "
                  f"got {left.dim_q}", left.dim_q == ctx.n)
        run.check(f"left idealiser field flags at {at}", left.is_field)
        right = codes.idealiser(c, "right")
        source = ("exact solve only" if ctx.t % 2 else
                  "lower bound proved, upper bound by exact solve only")
        run.check(f"right idealiser dim 2 over GF(q) at {at} ({source}); "
                  f"got {right.dim_q}", right.dim_q == 2)
        run.check(f"right idealiser field flags at {at}", right.is_field)
        if ctx.t % 2:
            continue
        xs = np.arange(ctx.order, dtype=np.int64)
        psi_x = psi.eval_vec(xs)
        lams = xs[linalg.apply_matrix(ctx, ctx._frob_matrix(2 * ctx.e), xs) == xs]

        def scale(c, ys):
            return linalg.apply_matrix(ctx, ctx._mult_matrix(c), ys)
        run.check(f"psi(lambda*x) = lambda^q*psi(x) for all x and all "
                  f"{ctx.q ** 2} lambda in GF(q^2) at {at}",
                  len(lams) == ctx.q ** 2
                  and all(np.array_equal(psi.eval_vec(scale(int(lam), xs)),
                                         scale(ctx.frob(int(lam), 1), psi_x))
                          for lam in lams))
        run.check(f"right idealiser basis is GF(q^2)-scalar maps at {at}",
                  all(not any(b.coeffs[1:])
                      and ctx.frob(b.coeffs[0], 2) == b.coeffs[0]
                      for b in right.basis))
    run.check("idealiser block within 30s", perf_counter() - t0 < 30.0)
    return run


def _c_geometry() -> _Run:
    run = _Run()
    ctx = build_field(3, 1, 4)
    t0 = perf_counter()
    G = geometry.gamma_k(ctx, 1)
    I1 = geometry.intersect(G, geometry.apply_sigma(G, 1))
    run.check("first self-intersection has dim 3", I1.projdim == 3)
    I2 = geometry.intersect(I1, geometry.apply_sigma(G, 2))
    run.check("second self-intersection has dim 1", I2.projdim == 1)
    vals = {m: geometry.intn(G, m) for m in (1, 3, 5, 7)}
    for m, v in vals.items():
        run.check(f"intersection number >= 3 for generator power {m}", v >= 3)
    run.check("conjugate generators agree", vals[1] == vals[7])
    run.check("geometry block within 1s", perf_counter() - t0 < 1.0)
    return run


def _c_projection() -> _Run:
    run = _Run()
    ctx = build_field(3, 1, 3)
    t0 = perf_counter()
    for k in (1, 5):
        G = geometry.gamma_k(ctx, k)
        want = scattered.build_psi(ctx, k).scale(2).line_values()
        run.check(f"projection sweep equals doubled linear set (k={k})",
                  np.array_equal(geometry.project_to_line(G, k), want))
        run.check(f"distinguished subspace is not pseudoregulus shaped (k={k})",
                  not geometry.pseudoregulus_geometric_test(G))
    V = geometry.orbit_subspace(ctx)
    run.check("orbit-span vertex is pseudoregulus shaped",
              geometry.pseudoregulus_geometric_test(V))
    run.check("projection block within 5s", perf_counter() - t0 < 5.0)
    return run


def _c_equivalence() -> _Run:
    run = _Run()
    ctx = build_field(3, 1, 4)
    t0 = perf_counter()
    psi1 = scattered.build_psi(ctx, 1)
    psi3 = scattered.build_psi(ctx, 3)
    psi7 = scattered.build_psi(ctx, 7)
    c17 = linsets.subspace_equivalent(psi1, psi7)
    run.check("certificate found for mirrored exponents (1,7)",
              c17 is not None and c17.verify(psi1, psi7))
    # psi_k is x^(q^-k) on GF(q^t) and x^(q^k) on W, so with m = t - k,
    # psi_m(b*psi_k(x)) = b^(q^-m)*x for every b in GF(q^t) with
    # b^(q^(2m)) = -b. Such b exist iff (q^t - 1)/(q^2 - 1) is even, which
    # for gcd(k, t) = 1 means 4 | t. At (k, m, t) = (1, 3, 4) the condition
    # reads b^(q^2) = -b and the certificate is [[0, b], [b^q, 0]].
    c13 = linsets.subspace_equivalent(psi1, psi3)
    run.check("certificate found for exponents (1,3)",
              c13 is not None and c13.verify(psi1, psi3))
    xs = np.arange(ctx.order, dtype=np.int64)
    psi1_x = psi1.eval_vec(xs)
    if c13 is not None:
        b, c = c13.b, c13.c
        run.check(f"(1,3) certificate {c13} is untwisted antidiagonal",
                  c13.twist == 0 and c13.a == 0 and c13.d == 0)
        run.check("(1,3) certificate has b in GF(q^4), b^(q^2) = -b, c = b^q",
                  ctx.in_subfield(b, "qt") and ctx.frob(b, 2) == ctx.neg(b)
                  and c == ctx.frob(b, 1))
        run.check("psi_3(b*psi_1(x)) = c*x at every x for the (1,3) certificate",
                  np.array_equal(psi3.eval_vec(ctx.vscale(b, psi1_x)),
                                 ctx.vscale(c, xs)))
    sub = xs[ctx.vfrob(xs, ctx.t) == xs]
    bs = sub[(sub != 0) & (ctx.vfrob(sub, 2) == ctx.vneg(sub))]
    run.check(f"psi_3(b*psi_1(x)) = b^q*x at every x for all {ctx.q ** 2 - 1} "
              "b in GF(q^4) with b^(q^2) = -b",
              len(bs) == ctx.q ** 2 - 1
              and all(np.array_equal(psi3.eval_vec(ctx.vscale(int(b), psi1_x)),
                                     ctx.vscale(ctx.frob(int(b), 1), xs))
                      for b in bs))
    hits = []
    for delta in linsets.valid_u2_deltas(ctx):
        g = linsets.known_family(ctx, "u2", s=1, delta=int(delta))
        if linsets.subspace_equivalent(psi1, g) is not None:
            hits.append(int(delta))
    run.check("exhaustive none against the two-term family, all valid delta",
              not hits)
    ks, count = codes.count_new_codes(3, 4)
    run.check("counting statement gives {1,3} and 2",
              ks == [1, 3] and count == 2 and len(ks) == count)
    run.check("equivalence block within 30min", perf_counter() - t0 < 1800.0)
    return run


def _c_oracle() -> _Run:
    run = _Run()
    ctx = build_field(3, 1, 3)
    t0 = perf_counter()
    rng = np.random.default_rng(33)
    def rand_poly():
        while True:
            coeffs = [int(rng.integers(0, ctx.order)) if rng.random() < 0.6 else 0
                      for _ in range(ctx.n)]
            if any(coeffs):
                return LinPoly(ctx, coeffs)
    psi = scattered.build_psi(ctx, 1)
    pool = [rand_poly() for _ in range(8)]
    pairs = ([(pool[0], pool[0]), (psi, psi)]
             + [(f, f.adjoint()) for f in (psi, pool[1], pool[2])]
             + [(psi, psi.scale(2)), (pool[3], pool[3].scale(7))])
    while len(pairs) < 20:
        pairs.append((rand_poly(), rand_poly()))
    equal_seen = 0
    for i, (f, g) in enumerate(pairs[:20]):
        Lf, Lg = f.line_values(), g.line_values()
        truth_fg = bool(np.isin(Lf, Lg).all())
        truth_gf = bool(np.isin(Lg, Lf).all())
        run.check(f"determinant inclusion matches set oracle, pair {i}",
                  linsets.inclusion_dickson(f, g) == truth_fg
                  and linsets.inclusion_dickson(g, f) == truth_gf)
        if np.array_equal(Lf, Lg):
            equal_seen += 1
            run.check(f"coefficient filter keeps equal-set pair {i}",
                      linsets.coefficient_prefilter(f, g))
    run.check("corpus contains equal-set pairs", equal_seen >= 4)
    run.check("oracle block within 60s", perf_counter() - t0 < 60.0)
    return run


CRITERIA: Tuple[Tuple[str, Callable[[], _Run]], ...] = (
    ("order", _c_order),
    ("grid", _c_grid),
    ("witness", _c_witness),
    ("size", _c_size),
    ("baer", _c_baer),
    ("mrd", _c_mrd),
    ("idealiser", _c_idealiser),
    ("geometry", _c_geometry),
    ("projection", _c_projection),
    ("equivalence", _c_equivalence),
    ("oracle", _c_oracle),
)

SLUGS = tuple(slug for slug, _ in CRITERIA)


def run_criterion(slug: str) -> CriterionResult:
    fn = dict(CRITERIA)[slug]
    t0 = perf_counter()
    run = fn()
    return CriterionResult(slug=slug, ok=run.ok, seconds=perf_counter() - t0,
                           checks=run.checks, failed=tuple(run.failed))


def run_acceptance(only: Optional[str] = None,
                   report: Optional[Callable[[CriterionResult], None]] = None
                   ) -> List[CriterionResult]:
    if only is not None and only not in SLUGS:
        raise ValueError(f"unknown criterion {only!r}; choose from {SLUGS}")
    results = []
    for slug, _ in CRITERIA:
        if only is not None and slug != only:
            continue
        res = run_criterion(slug)
        results.append(res)
        if report is not None:
            report(res)
    return results
