"""Linear sets on the projective line PG(1, q^n) and equivalence of their
defining subspaces.

A q-polynomial f defines the GF(q)-subspace U_f = {(x, f(x))} of the
two-dimensional GF(q^n) space and the point set
L_f = {<(x, f(x))> : x nonzero} on the projective line. Since x is nonzero
every point has the form <(1, m)> with m = f(x)/x, so L_f is stored as the
sorted array of those m values.

Subspace equivalence asks for a field automorphism tau and an invertible
M = [[a, b], [c, d]] over GF(q^n) with M * U_(f^tau) = U_g, that is
g(a*x + b*F(x)) = c*x + d*F(x) with F = f^tau. Both steps are exact.

- A twist with no certificate is ruled out by one GF(p) solve. The
  equation is GF(p)-linear in the digits of (a, b, c, d), so its solutions
  form the nullspace S of a small GF(p) system, and det M = a*d - b*c is a
  quadratic form Q on S. Q vanishes on all of S iff it vanishes at every
  basis vector and every sum of two basis vectors, so O(dim S^2) field
  products decide whether S holds an invertible M.
- Every other twist goes to the exhaustive search. Its coefficient
  conditions are GF(q)-linear in (a, b), the conditions attached to slots
  where neither c nor d can contribute prune the candidate pairs to a thin
  set, and every candidate is re-verified by explicit composition. The
  search returns the first verified certificate in (twist, b, a) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BadParams, BudgetExceeded, CtxMismatch
from .linpoly import LinPoly, poly_vec
from . import linalg

DEFAULT_BUDGET = 10 ** 9


# -- linear sets ---------------------------------------------------------------

def normalize_point(ctx, pair) -> Tuple[int, int]:
    """Canonical representative of a projective point of PG(1, q^n):
    (1, m) when the first coordinate is nonzero, else (0, 1)."""
    a, b = int(pair[0]), int(pair[1])
    if a == 0 and b == 0:
        raise BadParams("(0, 0) is not a projective point")
    if a == 0:
        return (0, 1)
    return (1, ctx.div(b, a))


def linear_set(f: LinPoly) -> np.ndarray:
    """Sorted m values of the points <(1, m)> of L_f."""
    return f.line_values()


def linear_set_size(f: LinPoly) -> int:
    return int(len(linear_set(f)))


# -- reference families ---------------------------------------------------------

def known_family(ctx, name: str, **params) -> LinPoly:
    """Reference maximum scattered polynomials, by constructor name.

    u1(s):        x^(q^s), gcd(s, n) = 1  (pseudoregulus type)
    u2(s, delta): delta*x^(q^s) + x^(q^(n-s)), gcd(s, n) = 1, the GF(q)-norm
                  of delta outside {0, 1}
    u3(s, delta): delta*x^(q^s) + x^(q^(s + n/2)), n in {6, 8},
                  gcd(s, n/2) = 1, the GF(q^(n/2))-norm of delta outside {0, 1}
    u4(delta):    x^q + x^(q^3) + delta*x^(q^5), n = 6, q odd,
                  delta^2 + delta = 1
    u5(h):        h^(q-1)*x^q - h^(q^2-1)*x^(q^2) + x^(q^4) + x^(q^5),
                  n = 6, h^(q^3 + 1) = -1
    """
    n, q = ctx.n, ctx.q
    name = name.lower()
    if name == "u1":
        s = int(params["s"])
        if math.gcd(s, n) != 1:
            raise BadParams(f"u1 needs gcd(s, n) = 1, got s = {s}, n = {n}")
        return LinPoly.monomial(ctx, 1, s)
    if name == "u2":
        s, delta = int(params["s"]), int(params["delta"])
        if math.gcd(s, n) != 1:
            raise BadParams(f"u2 needs gcd(s, n) = 1, got s = {s}, n = {n}")
        if ctx.norm(delta, "q") in (0, 1):
            raise BadParams("u2 needs the GF(q)-norm of delta outside {0, 1}")
        coeffs = [0] * n
        coeffs[s % n] = delta
        coeffs[(n - s) % n] = ctx.add(coeffs[(n - s) % n], 1)
        return LinPoly(ctx, coeffs)
    if name == "u3":
        s, delta = int(params["s"]), int(params["delta"])
        if n not in (6, 8):
            raise BadParams(f"u3 exists only for n in {{6, 8}}, got n = {n}")
        if math.gcd(s, n // 2) != 1:
            raise BadParams(f"u3 needs gcd(s, n/2) = 1, got s = {s}")
        if ctx.norm(delta, "qt") in (0, 1):
            raise BadParams("u3 needs the GF(q^(n/2))-norm of delta outside {0, 1}")
        coeffs = [0] * n
        coeffs[s % n] = delta
        slot = (s + n // 2) % n
        coeffs[slot] = ctx.add(coeffs[slot], 1)
        return LinPoly(ctx, coeffs)
    if name == "u4":
        delta = int(params["delta"])
        if n != 6:
            raise BadParams(f"u4 exists only for n = 6, got n = {n}")
        if ctx.add(ctx.mul(delta, delta), delta) != 1:
            raise BadParams("u4 needs delta^2 + delta = 1")
        coeffs = [0] * n
        coeffs[1], coeffs[3], coeffs[5] = 1, 1, delta
        return LinPoly(ctx, coeffs)
    if name == "u5":
        h = int(params["h"])
        if n != 6:
            raise BadParams(f"u5 exists only for n = 6, got n = {n}")
        if ctx.pow_(h, q ** 3 + 1) != ctx.neg(1):
            raise BadParams("u5 needs h^(q^3 + 1) = -1")
        coeffs = [0] * n
        coeffs[1] = ctx.pow_(h, q - 1)
        coeffs[2] = ctx.neg(ctx.pow_(h, q * q - 1))
        coeffs[4] = 1
        coeffs[5] = 1
        return LinPoly(ctx, coeffs)
    raise BadParams(f"unknown family {name!r}")


# -- set-level comparisons -------------------------------------------------------

def inclusion_dickson(f: LinPoly, g: LinPoly) -> bool:
    """L_f subset of L_g, decided without enumerating L_g's fibers: the point
    of L_f at x lies in L_g iff Y -> f(x)*Y - g(Y)*x has nonzero kernel,
    i.e. iff its Dickson matrix is singular. Batched over all nonzero x."""
    f._check(g)
    ctx = f.ctx
    n, M = ctx.n, ctx.order
    xs = np.arange(1, M, dtype=np.int64)
    fx = f.eval_all()[1:]
    for lo, hi in linalg.sweep_slices(M - 1):
        sl = slice(lo, hi)
        cols = np.empty((n, hi - lo), dtype=np.int64)
        cols[0] = ctx.vsub(fx[sl], ctx.vscale(g.coeffs[0], xs[sl]))
        for i in range(1, n):
            cols[i] = ctx.vneg(ctx.vscale(g.coeffs[i], xs[sl]))
        ranks = linalg.batch_dickson_rank(ctx, cols)
        if np.any(ranks == n):
            return False
    return True


def coefficient_prefilter(f: LinPoly, g: LinPoly) -> bool:
    """Fast necessary conditions for L_f = L_g in terms of the coefficient
    vectors (a = f, b = g); a False verdict proves the sets differ, True is
    inconclusive. Never rejects a pair with equal linear sets."""
    f._check(g)
    ctx = f.ctx
    n = ctx.n
    a, b = f.coeffs, g.coeffs
    if a[0] != b[0]:
        return False
    for k in range(1, n):
        lhs = ctx.mul(a[k], ctx.frob(a[n - k], k))
        rhs = ctx.mul(b[k], ctx.frob(b[n - k], k))
        if lhs != rhs:
            return False
    for k in range(2, n):
        lhs = ctx.add(
            ctx.mul(ctx.mul(a[1], ctx.frob(a[k - 1], 1)), ctx.frob(a[n - k], k)),
            ctx.mul(ctx.mul(a[k], ctx.frob(a[n - 1], 1)), ctx.frob(a[(n - k + 1) % n], k)))
        rhs = ctx.add(
            ctx.mul(ctx.mul(b[1], ctx.frob(b[k - 1], 1)), ctx.frob(b[n - k], k)),
            ctx.mul(ctx.mul(b[k], ctx.frob(b[n - 1], 1)), ctx.frob(b[(n - k + 1) % n], k)))
        if lhs != rhs:
            return False
    return True


# -- subspace equivalence --------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Witness of U_g = M * U_(f^(p^twist)) with M = [[a, b], [c, d]]."""
    twist: int
    a: int
    b: int
    c: int
    d: int

    def to_json(self):
        return {"twist": self.twist, "matrix": [[self.a, self.b], [self.c, self.d]]}

    def verify(self, f: LinPoly, g: LinPoly) -> bool:
        """Exact check: M invertible and g(a*x + b*F(x)) = c*x + d*F(x)
        with F the twisted f."""
        ctx = f.ctx
        det = ctx.sub(ctx.mul(self.a, self.d), ctx.mul(self.b, self.c))
        if det == 0:
            return False
        F = f.frob_twist(self.twist)
        h = LinPoly.monomial(ctx, self.a, 0) + F.scale(self.b)
        rhs = LinPoly.monomial(ctx, self.c, 0) + F.scale(self.d)
        return g.compose(h) == rhs


def _coeff_condition_polys(ctx, F: LinPoly, g: LinPoly):
    """For each output slot k, the coefficient of x^(q^k) in g(a*x + b*F(x))
    equals g_k * a^(q^k) + B_k(b) with B_k the q-polynomial returned here."""
    n = ctx.n
    out = []
    for k in range(n):
        coeffs = [ctx.mul(g.coeffs[i], ctx.frob(F.coeffs[(k - i) % n], i))
                  for i in range(n)]
        out.append(LinPoly(ctx, coeffs))
    return out


def _finish_candidates(ctx, F, g, bs, as_, pre_mask, live, supp_nz):
    """Apply the live-slot consistency conditions and the determinant mask
    to aligned candidate arrays (bs, as_), returning (a, b, c, d) index
    arrays of the survivors in order."""
    Bk = _coeff_condition_polys(ctx, F, g)
    vals = {}
    for k in live:
        v = Bk[k].eval_vec(bs)
        if g.coeffs[k]:
            v = ctx.vadd(v, ctx.vscale(g.coeffs[k], ctx.vfrob(as_, k)))
        vals[k] = v
    mask = pre_mask.copy()
    k1 = supp_nz[0]
    ds = ctx.vscale(ctx.inv(F.coeffs[k1]), vals[k1])
    for k in supp_nz[1:]:
        mask &= vals[k] == ctx.vscale(F.coeffs[k], ds)
    cs = ctx.vsub(vals[0], ctx.vscale(F.coeffs[0], ds)) if F.coeffs[0] \
        else vals[0]
    dets = ctx.vsub(ctx.vmul(as_, ds), ctx.vmul(bs, cs))
    mask &= dets != 0
    idx = np.flatnonzero(mask)
    return as_[idx], bs[idx], cs[idx], ds[idx]


def _search_twist(ctx, F: LinPoly, g: LinPoly, twist: int, f: LinPoly
                  ) -> Optional[Certificate]:
    n, M = ctx.n, ctx.order
    supp_nz = [k for k in range(1, n) if F.coeffs[k]]
    if not supp_nz:
        raise BadParams("equivalence search needs a non-scalar map on the left")
    live = [0] + supp_nz
    dead = [k for k in range(1, n) if F.coeffs[k] == 0]
    Bk = _coeff_condition_polys(ctx, F, g)

    forcing = [k for k in dead if g.coeffs[k]]
    bs_all = np.arange(M, dtype=np.int64)

    if forcing:
        # slot k0 pins a as a function of b; other dead slots filter
        k0 = forcing[0]
        w = ctx.vscale(ctx.inv(g.coeffs[k0]), ctx.vneg(Bk[k0].eval_vec(bs_all)))
        as_ = ctx.vfrob(w, n - k0)
        pre = np.ones(M, dtype=bool)
        for k in dead:
            if k == k0:
                continue
            v = Bk[k].eval_vec(bs_all)
            if g.coeffs[k]:
                v = ctx.vadd(v, ctx.vscale(g.coeffs[k], ctx.vfrob(as_, k)))
            pre &= v == 0
        a_idx, b_idx, c_idx, d_idx = _finish_candidates(
            ctx, F, g, bs_all, as_, pre, live, supp_nz)
        for a, b, c, d in zip(a_idx, b_idx, c_idx, d_idx):
            cert = Certificate(twist, int(a), int(b), int(c), int(d))
            if cert.verify(f, g):
                return cert
        return None

    # no dead slot constrains a: b is restricted to the common kernel of the
    # dead-slot q-polynomials, then a sweeps the whole field per surviving b
    surv = np.ones(M, dtype=bool)
    for k in dead:
        surv &= Bk[k].eval_vec(bs_all) == 0
    a_sweep = np.arange(M, dtype=np.int64)
    ones = np.ones(M, dtype=bool)
    for b in bs_all[surv]:
        bs = np.full(M, b, dtype=np.int64)
        a_idx, b_idx, c_idx, d_idx = _finish_candidates(
            ctx, F, g, bs, a_sweep, ones, live, supp_nz)
        for a, bb, c, d in zip(a_idx, b_idx, c_idx, d_idx):
            cert = Certificate(twist, int(a), int(bb), int(c), int(d))
            if cert.verify(f, g):
                return cert
    return None


def _twist_has_certificate(ctx, F: LinPoly, g: LinPoly) -> bool:
    """Whether some invertible M = [[a, b], [c, d]] solves
    g(a*x + b*F(x)) = c*x + d*F(x), by one GF(p) nullspace solve.

    The unknowns are the e*n base-p digits of each of a, b, c, d. Digit k
    of a has the column g o (p^k * x), of b g o (p^k * F), of c -p^k * x
    and of d -p^k * F. A scalar F is left to _search_twist, which rejects
    it."""
    if not any(F.coeffs[1:]):
        return True
    p, en = ctx.p, ctx.en
    units = p ** np.arange(en, dtype=np.int64)
    ident = np.array(LinPoly.identity(ctx).coeffs, dtype=np.int64)
    uI = ctx.vmul(units[:, None], ident[None, :])
    uF = ctx.vmul(units[:, None], np.array(F.coeffs, dtype=np.int64)[None, :])
    cols = np.concatenate([_compose_rows(ctx, g, uI), _compose_rows(ctx, g, uF),
                           ctx.vneg(uI), ctx.vneg(uF)])
    return _span_has_invertible(ctx, linalg.modp_nullspace(poly_vec(ctx, cols).T, p))


def _span_has_invertible(ctx, S: np.ndarray) -> bool:
    """Whether the GF(p)-span of the rows of S, each the digits of some
    (a, b, c, d), holds a point where Q = a*d - b*c is nonzero.

    Q(u + v) = Q(u) + Q(v) + B(u, v) with B bilinear, so Q is zero on the
    span iff Q(u_i + u_j) = 0 for all rows u_i, u_j with i <= j; i = j
    gives Q(2 u_i) = 4 Q(u_i), which covers u_i since p is odd."""
    p, en = ctx.p, ctx.en
    i, j = np.triu_indices(len(S))
    a, b, c, d = (((S[i] + S[j]) % p).reshape(-1, 4, en)
                  @ p ** np.arange(en, dtype=np.int64)).T
    return bool((ctx.vmul(a, d) != ctx.vmul(b, c)).any())


def _compose_rows(ctx, g: LinPoly, H: np.ndarray) -> np.ndarray:
    """Coefficient rows of g o h for every coefficient row h of H, by
    (g o h)_m = sum_i g_i * h_(m-i)^(q^i)."""
    out = np.zeros_like(H)
    for i, gi in enumerate(g.coeffs):
        if gi:
            out = ctx.vadd(out, ctx.vscale(gi, ctx.vfrob(np.roll(H, i, axis=1), i)))
    return out


def subspace_equivalent(f: LinPoly, g: LinPoly, with_automorphisms: bool = True,
                        budget: int = DEFAULT_BUDGET) -> Optional[Certificate]:
    """Search for M in GL(2, q^n) and an automorphism twist with
    U_g = M * U_(f^twist); GL only (twist fixed to 0) when
    with_automorphisms is off.

    Each distinct twist F = f^twist is first decided by linear algebra:
    the solutions (a, b, c, d) of g(a*x + b*F(x)) = c*x + d*F(x) form the
    nullspace S of a GF(p) system, and F is skipped when the quadratic form
    Q = a*d - b*c is zero on S, which holds iff Q is zero at every basis
    vector of S and every sum of two of them. The exhaustive (b, a) search
    runs only on the twists left. So the result is the first verified
    certificate in (twist, b, a) candidate order, the same as a search of
    every twist, and None is exact. Raises BudgetExceeded when the ambient
    (a, b) search space q^(2n) exceeds the budget, also where the linear
    check alone would decide."""
    f._check(g)
    ctx = f.ctx
    if ctx.order ** 2 > budget:
        raise BudgetExceeded(
            f"equivalence search space {ctx.order ** 2} exceeds budget {budget}")
    ctx._need_tables()
    seen = set()
    for j in range(ctx.en if with_automorphisms else 1):
        F = f.frob_twist(j)
        if F.coeffs in seen:
            continue
        seen.add(F.coeffs)
        if not _twist_has_certificate(ctx, F, g):
            continue
        cert = _search_twist(ctx, F, g, j, f)
        if cert is not None:
            return cert
    return None


# -- family membership sweeps ----------------------------------------------------

def find_u1_equivalence(f: LinPoly, budget: int = DEFAULT_BUDGET
                        ) -> Optional[Tuple[int, Certificate]]:
    """(s, certificate) for the smallest s coprime to n with U_f equivalent
    to the single-Frobenius subspace u1(s), or None."""
    ctx = f.ctx
    for s in range(1, ctx.n):
        if math.gcd(s, ctx.n) != 1:
            continue
        cert = subspace_equivalent(f, known_family(ctx, "u1", s=s), budget=budget)
        if cert is not None:
            return s, cert
    return None


def valid_u2_deltas(ctx, max_deltas: int = 10_000) -> np.ndarray:
    """delta values admissible for u2: GF(q)-norm outside {0, 1}. All of
    them when there are at most max_deltas, otherwise an evenly strided
    deterministic sample."""
    els = np.arange(1, ctx.order, dtype=np.int64)
    norms = ctx.vpow_int(els, (ctx.order - 1) // (ctx.q - 1))
    valid = els[norms != 1]
    if len(valid) > max_deltas:
        pick = np.unique(np.linspace(0, len(valid) - 1, max_deltas).astype(np.int64))
        valid = valid[pick]
    return valid


def find_u2_equivalence(f: LinPoly, budget: int = DEFAULT_BUDGET,
                        max_deltas: int = 10_000
                        ) -> Optional[Tuple[int, int, Certificate]]:
    """(s, delta, certificate) for the first two-term subspace u2(s, delta)
    equivalent to U_f over the (s, delta) sweep, or None."""
    ctx = f.ctx
    valid = valid_u2_deltas(ctx, max_deltas)
    for s in range(1, ctx.n):
        if math.gcd(s, ctx.n) != 1:
            continue
        for delta in valid:
            g = known_family(ctx, "u2", s=s, delta=int(delta))
            cert = subspace_equivalent(f, g, budget=budget)
            if cert is not None:
                return s, int(delta), cert
    return None


def pseudoregulus_test(f: LinPoly, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff U_f is equivalent to some u1(s), s coprime to n."""
    return find_u1_equivalence(f, budget=budget) is not None


def lp_type_test(f: LinPoly, budget: int = DEFAULT_BUDGET,
                 max_deltas: int = 10_000) -> bool:
    """True iff U_f is equivalent to some u2(s, delta) over the sweep."""
    return find_u2_equivalence(f, budget=budget, max_deltas=max_deltas) is not None
